"""Puts ``benchmarks/`` on sys.path: the shape builders and the
regression tracker are bench tooling, not part of the package."""

import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(REPO, "benchmarks"))
