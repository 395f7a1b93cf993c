"""Command line entry point for benchmark sweeps.

Subcommands: run a config file, rebuild summaries from a trace directory,
or validate a config: prepare each grid point as run does, running nothing.
Exit codes: 0 on success, 1 when runs fail or a summary cannot be built,
2 for configuration errors, among them a grid point that cannot be
prepared and an output directory that already holds sweep results.
The --out flag overrides the config's output directory.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigInvalid, EmptyGroup, IpasError, OutputExists
from .experiment import (
    parse_experiment_config,
    plan_runs,
    run_experiment,
    summarize_dir,
)

EXIT_OK = 0
EXIT_RUN_FAILURE = 1
EXIT_CONFIG_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipas-bench",
        description="Run and summarise benchmark sweeps of the adaptive projected-gradient solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute every run in a sweep config")
    p_run.add_argument("config", help="path to the experiment config file")
    p_run.add_argument("--out", help="output directory (overrides the config's)")
    p_run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: available parallelism)",
    )

    p_sum = sub.add_parser("summarize", help="rebuild summary and curves from a trace directory")
    p_sum.add_argument("trace_dir", help="directory containing runs.csv and trace files")

    p_val = sub.add_parser("validate", help="check a config and build its problems, without running")
    p_val.add_argument("config", help="path to the experiment config file")

    return parser


def _cmd_run(args) -> int:
    if args.workers is not None and args.workers < 1:
        print(f"config error: --workers {args.workers} must be at least 1", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    if args.out == "":
        print("config error: --out is empty", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        cfg = parse_experiment_config(args.config)
        output_dir = cfg.output_dir if args.out is None else args.out
        outcome = run_experiment(cfg, workers=args.workers, output_dir=output_dir)
    except (ConfigInvalid, OutputExists) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    print(
        f"{outcome.n_runs} runs ({outcome.n_failed} failed) -> {outcome.output_dir}"
    )
    for row in outcome.summary:
        print(
            f"  {row.config_id}: median final ||d|| = {row.d_final_median:.3e}, "
            f"median budget = {row.budget_median:.3e}"
        )
    return EXIT_RUN_FAILURE if outcome.n_failed else EXIT_OK


def _cmd_summarize(args) -> int:
    try:
        rows = summarize_dir(args.trace_dir)
    except (EmptyGroup, IpasError, OSError) as exc:
        print(f"summarize failed: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILURE
    print(f"summarised {len(rows)} config group(s) in {args.trace_dir}")
    for row in rows:
        print(
            f"  {row.config_id}: {row.n_runs - row.n_failed}/{row.n_runs} completed, "
            f"median final ||d|| = {row.d_final_median:.3e}"
        )
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        cfg = parse_experiment_config(args.config)
    except IpasError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    n_runs = len(plan_runs(cfg))
    print(f"ok: {n_runs} runs planned across {len(cfg.seeds)} seeds")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "summarize":
        return _cmd_summarize(args)
    return _cmd_validate(args)


if __name__ == "__main__":
    sys.exit(main())
