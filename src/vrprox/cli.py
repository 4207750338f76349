"""Command-line front end.

Subcommands::

    vrprox run      --config cfg [--output DIR] [--jobs N] [--master-seed S]
    vrprox compare  --config cfg [--estimators a,b,...] [--output DIR] ...
    vrprox schedule --T <int> --L <float>
    vrprox validate [--quick] [--output FILE] [--seed S]

Exit codes: 0 success, 1 config error, 2 divergence, 3 validation failure,
4 a run raised an error.  A run that diverges or raises is a status row in
``summary.csv`` / ``compare.csv`` and every file is still written; a raised
error is also printed on stderr with its (T, seed) and traceback.  Errors
outrank divergences.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, parse_config, read_int
from .estimators import KINDS
from .experiment import compare_experiment, run_experiment
from .optimizer import schedule_from_T
from .suite import format_table, run_suite, write_csv

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGENCE = 2
EXIT_VALIDATION = 3
EXIT_RUN_ERROR = 4


class _Parser(argparse.ArgumentParser):
    # Usage problems are config errors (exit 1), not argparse's default exit 2.
    def error(self, message):
        raise ConfigError(message)


def _int_at_least(minimum: int):
    """argparse type: an integer >= ``minimum`` (anything else is a usage error)."""

    def parse(raw: str) -> int:
        try:
            return read_int(raw, minimum)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vrprox", description="variance-reduced proximal gradient experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True, help="path to a key=value config")
    p_run.add_argument("--output", default=None, help="output directory")
    p_run.add_argument("--jobs", type=_int_at_least(1), default=1, help="parallel workers")
    p_run.add_argument("--master-seed", type=_int_at_least(0), default=0,
                       help="seed-count expansion root")

    p_cmp = sub.add_parser("compare", help="same seeds across estimator kinds")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--estimators", default=",".join(KINDS),
                       help="comma list of kinds (default: all)")
    p_cmp.add_argument("--output", default=None)
    p_cmp.add_argument("--jobs", type=_int_at_least(1), default=1)
    p_cmp.add_argument("--master-seed", type=_int_at_least(0), default=0)

    p_sch = sub.add_parser("schedule", help="print the horizon-indexed hyperparameters")
    p_sch.add_argument("--T", type=int, required=True, help="iteration count")
    p_sch.add_argument("--L", type=float, required=True, help="smoothness constant")

    p_val = sub.add_parser("validate", help="run the verification suite")
    p_val.add_argument("--quick", action="store_true", help="reduced sample counts")
    p_val.add_argument("--output", default=None, help="also write the table as CSV")
    p_val.add_argument("--seed", type=_int_at_least(0), default=0)
    return parser


def _read_config(path: str):
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config(text)


def _report_failures(result) -> int:
    for row in result.failures:
        print(
            f"run error: T={row['T']} seed={row['seed']} estimator={row['estimator']}: "
            f"{row['error']}\n{row['traceback'].rstrip()}",
            file=sys.stderr,
        )
    return result.exit_code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            cfg = _read_config(args.config)
            result = run_experiment(
                cfg, output_dir=args.output, master_seed=args.master_seed, jobs=args.jobs
            )
            for row in result.summary_rows:
                print(
                    f"T={row['T']} seeds={row['seeds']} "
                    f"mean_grad_map_sq={row['mean_grad_map_sq']} status={row['status']}"
                )
            print(f"wrote {result.output_dir}")
            return _report_failures(result)
        if args.command == "compare":
            cfg = _read_config(args.config)
            kinds = [k.strip() for k in args.estimators.split(",") if k.strip()]
            result = compare_experiment(
                cfg, kinds=kinds, output_dir=args.output,
                master_seed=args.master_seed, jobs=args.jobs,
            )
            print(f"wrote {result.output_dir / 'compare.csv'}")
            return _report_failures(result)
        if args.command == "schedule":
            try:
                hp = schedule_from_T(args.T, args.L)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
            print(f"eta={hp.eta!r}")
            print(f"beta={hp.beta!r}")
            print(f"b_tilde={hp.b_tilde}")
            return EXIT_OK
        # validate; a report path in a missing directory fails before the suite.
        if args.output and not Path(args.output).parent.is_dir():
            raise ConfigError(f"cannot write {args.output!r}: no such directory")
        rows = run_suite(quick=args.quick, seed=args.seed)
        print(format_table(rows))
        if args.output:
            try:
                write_csv(rows, args.output)
            except OSError as exc:
                raise ConfigError(f"cannot write {args.output!r}: {exc}") from None
        return EXIT_OK if all(r["passed"] for r in rows) else EXIT_VALIDATION
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
