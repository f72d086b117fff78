"""The trace/debug hook around every production kernel call.

:func:`kernel` decorates a production kernel: while :mod:`repro.obs`
tracing is on, each call records a ``kernel.<name>`` span (cat
``kernel``); while a validator is installed (by
:func:`repro.verify.enable_debug_validation`), each call's arguments
are validated first.  With both off, a call checks the two slots and
runs the raw function.  Spans only read the clock, so results are
bit-identical with the hook on or off.
"""

from __future__ import annotations

from functools import wraps

from ..obs import spans as _spans

__all__ = ["kernel", "set_kernel_validator"]

_VALIDATOR = None  # debug hook: fn(name, args, kwargs) before the kernel body


def kernel(fn, name=None):
    """Decorate ``fn`` as a production kernel named ``name`` (default ``fn.__name__``)."""
    name = name or fn.__name__
    span_name = f"kernel.{name}"

    @wraps(fn)
    def call(*args, **kwargs):
        if _VALIDATOR is None and _spans._RECORDER is None:
            return fn(*args, **kwargs)
        if _VALIDATOR is not None:
            _VALIDATOR(name, args, kwargs)
        with _spans.span(span_name, cat="kernel"):
            return fn(*args, **kwargs)

    return call


def set_kernel_validator(fn):
    """Install (or clear, with ``None``) the call-time debug validator."""
    global _VALIDATOR
    _VALIDATOR = fn
