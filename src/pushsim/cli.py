"""Command line front end.

Subcommands: ``simulate`` (run + artifacts), ``verify`` (invariant suite
on a short prefix), ``sweep`` (rate fit over several horizons),
``report`` (recompute a summary from persisted artifacts).  Exit code 0
means all checks passed, 1 means a check or certification failed or a run
stopped at a failed in-run check (then ``--out`` gets a report naming it),
2 means the invocation, the config or a file it names was unusable.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    ConfigError,
    ValidationFailure,
    apply_overrides,
    failure_summary,
    load_config,
    report_from_dir,
    run_experiment,
    sweep_experiment,
    verify_experiment,
    write_report,
)
from .pushsum import RunFailure

__all__ = ["main"]


def _add_common(p: argparse.ArgumentParser, need_out: bool) -> None:
    p.add_argument("--config", required=True, help="path to the INI experiment config")
    p.add_argument(
        "--out", required=need_out, default=None,
        help="output directory for artifacts" + ("" if need_out else " (optional)"),
    )
    p.add_argument("--seed", type=int, default=None,
                   help="override both the graph and init seeds")
    p.add_argument("--graph-file", default=None,
                   help="load the graph sequence from this file instead")
    p.add_argument("--weights-file", default=None,
                   help="load a fixed weight matrix from this file instead")


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pushsim",
        description="push-sum subgradient simulator with finite-time certificates",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("simulate", help="run one experiment and write artifacts"), True)
    _add_common(sub.add_parser("verify", help="check the core identities on a short run"), False)
    _add_common(sub.add_parser("sweep", help="fit the gap decay rate over several horizons"), True)
    _add_common(sub.add_parser("report", help="recompute the summary from artifacts"), True)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _command(args)
    except OSError as exc:  # a missing or unreadable input, an unwritable --out
        print(f"file error: {exc}", file=sys.stderr)
        return 2


def _command(args: argparse.Namespace) -> int:
    try:
        cfg = load_config(args.config)
        cfg = apply_overrides(
            cfg, seed=args.seed, graph_file=args.graph_file,
            weights_file=args.weights_file,
        )
        if args.command == "simulate":
            result = run_experiment(cfg, out_dir=args.out)
            summary = result.summary
        elif args.command == "verify":
            summary, _ = verify_experiment(cfg)
            if args.out is not None:
                write_report(summary, args.out)
        elif args.command == "sweep":
            summary = sweep_experiment(cfg, out_dir=args.out)
        else:
            summary = report_from_dir(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValidationFailure as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 1
    except RunFailure as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        if args.out is not None:
            write_report(failure_summary(cfg, args.command, exc), args.out)
        return 1
    sys.stdout.write(summary.format_text())
    return 0 if summary.passed else 1


if __name__ == "__main__":
    sys.exit(main())
