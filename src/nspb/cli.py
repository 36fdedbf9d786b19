"""Command-line front door for the channel and polymer experiment drivers.

Only the standard library is imported at module level so that ``--threads``
can cap the BLAS/OpenMP pools through the environment before numpy first
loads; everything heavy is imported inside main().

Exit codes: 0 all checks passed, 1 a physics acceptance check failed,
2 configuration error or a restart checkpoint the reader rejects,
3 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys

_SUBCOMMANDS = {
    "run": "single_run",
    "sweep-re": "sweep_re",
    "sweep-alpha": "sweep_alpha",
    "micro-verify": "micro_verify",
    "energy-audit": "energy_audit",
    "inviscid-limit": "inviscid_limit",
    "restart": None,  # kind comes from the checkpointed run's config
}

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _seed_u64(text: str) -> int:
    value = int(text, 0)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key=value experiment config")
    common.add_argument(
        "--out", metavar="DIR", default="runs", help="output directory (default: runs)"
    )
    common.add_argument(
        "--seed", metavar="U64", type=_seed_u64, default=None, help="ensemble seed"
    )
    common.add_argument(
        "--threads",
        metavar="N",
        type=_positive_int,
        default=None,
        help="cap the BLAS/OpenMP thread pools (not micro-verify's walk thread)",
    )
    parser = argparse.ArgumentParser(
        prog="nspb",
        description="Channel flow with a dynamic polymer wall law: canned experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "run": "single trajectory with records and checkpoints",
        "sweep-re": "Reynolds sweep: dissipation decay, forced friction, vorticity bound",
        "sweep-alpha": "wall-coupling sweep: no-slip recovery",
        "micro-verify": (
            "stochastic dumbbell ensembles against the closed moment system "
            "and the memory closure"
        ),
        "energy-audit": "budget-residual refinement order and monotone decay",
        "inviscid-limit": "distance to the matched ideal-fluid run across Re",
        "restart": "resume a checkpointed trajectory",
    }
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name, parents=[common], help=helps[name])
        if name == "restart":
            p.add_argument("checkpoint", metavar="CHECKPOINT", help="checkpoint file to resume")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads is not None:
        for var in _THREAD_ENV_VARS:
            os.environ[var] = str(args.threads)

    from .config import ConfigError, load_config, parse_config

    kind = _SUBCOMMANDS[args.command]
    try:
        if args.config is not None:
            plan = load_config(args.config, force_kind=kind)
        else:
            plan = parse_config("", force_kind=kind)
        plan = plan.with_output(args.out, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    from .checkpoint import CheckpointError
    from .experiments import execute

    try:
        summary = execute(plan, checkpoint=getattr(args, "checkpoint", None))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        raise
    except Exception as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    for check in summary.checks:
        verdict = "PASS" if check.passed else "FAIL"
        value = "" if check.value is None else f" value={check.value:.6g}"
        print(f"{verdict} {check.name}{value}  [{check.requirement}]")
    for point in summary.points:
        if "error" in point:
            print(f"POINT FAILED {point}", file=sys.stderr)
    print(
        f"{summary.kind}: {summary.total_steps} steps in "
        f"{summary.wall_clock_seconds:.1f}s -> {plan.output_dir}/summary.json"
    )
    return summary.exit_code


if __name__ == "__main__":
    sys.exit(main())
