"""``repro tune`` — recommend configurations, fit the model, gate CI.

::

    python -m repro tune recommend --shape grid-24 --sla standard
    python -m repro tune fit --out model.json
    python -m repro tune check-regressions
    python -m repro tune check-regressions --against /path/to/old/results

``recommend`` prints the static (backend, scheduler, batch width) pick
for a named bench shape; ``fit`` re-fits the cost model from the
committed ``benchmarks/results/BENCH_*.json`` and writes it as JSON;
``check-regressions`` diffs bench snapshots with noise-aware thresholds
and exits non-zero on an unexplained slowdown — including when its own
planted-slowdown negative control goes uncaught.
"""

from __future__ import annotations

import argparse
import json

__all__ = ["main", "build_parser"]


def _load_model(args):
    from .model import TuneModel, default_model

    if getattr(args, "model", None):
        with open(args.model) as fh:
            return TuneModel.from_dict(json.load(fh))
    return default_model(getattr(args, "results", None))


def cmd_recommend(args):
    from .features import extract_features, serve_scheduler
    from .shapes import bench_shape

    model = _load_model(args)
    features = extract_features(bench_shape(args.shape))
    doc = {
        "shape": args.shape,
        "sla": args.sla,
        "choice": model.recommend(features, args.sla).as_dict(),
        "serve_scheduler_override": serve_scheduler(
            features.superstep_steps, features.n_levels_lower
        ),
    }
    print(json.dumps(doc, indent=2))
    return 0


def cmd_fit(args):
    from .model import default_model

    model = default_model(args.results, seed=args.seed)
    doc = model.to_dict()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(doc, indent=2))
    return 0


def cmd_check_regressions(args):
    from .model import results_dir
    from .regress import check_regressions, format_report

    report = check_regressions(
        args.results or results_dir(),
        args.against,
        base_rel_tol=args.rel_tol,
        noise_mult=args.noise_mult,
        self_test=not args.no_self_test,
    )
    print(format_report(report))
    return 0 if report["ok"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro tune", description="autotuning and regression tracking"
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("recommend", help="static config pick for a bench shape")
    sp.add_argument("--shape", required=True, help="chain-N, wide-LxW or grid-N")
    sp.add_argument(
        "--sla",
        default="standard",
        choices=("interactive", "standard", "batch"),
        help="SLA class setting the batch-width budget",
    )
    sp.add_argument("--model", default=None, help="fitted model JSON (default: re-fit)")
    sp.add_argument("--results", default=None, help="bench results dir to fit from")
    sp.set_defaults(func=cmd_recommend)

    sp = sub.add_parser("fit", help="fit the cost model from committed bench files")
    sp.add_argument("--out", default=None, help="write the model JSON here")
    sp.add_argument("--results", default=None, help="bench results dir (default: committed)")
    sp.add_argument("--seed", type=int, default=0, help="provenance seed to record")
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser(
        "check-regressions", help="noise-aware diff of committed bench files"
    )
    sp.add_argument("--results", default=None, help="candidate results dir")
    sp.add_argument("--against", default=None, help="baseline results dir")
    sp.add_argument(
        "--rel-tol", type=float, default=0.15, help="base relative tolerance"
    )
    sp.add_argument(
        "--noise-mult",
        type=float,
        default=3.0,
        help="tolerance multiplier on the per-repeat sample CV",
    )
    sp.add_argument(
        "--no-self-test",
        action="store_true",
        help="skip the planted-slowdown negative control",
    )
    sp.set_defaults(func=cmd_check_regressions)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
