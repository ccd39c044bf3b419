"""Command-line entry points.

Four subcommands: `run` executes the benchmark and writes curves, summary
and snapshots; `oracle` prints per-context oracle values and maximizing
plans for the per-trial instances implied by an outcome-mode config; `fit` regresses the
growth order of mean regret curves from a curves.csv; `estimate` rebuilds
estimator snapshots offline from emitted episode logs.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

from .environment import RandomSource, generate_instance, read_context_csv
from .harness import (
    _write_json,
    fit_regret_order,
    load_config,
    replay_estimation,
    run_experiment,
)
from .planning import best_outcome_plan, params_from_true

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bidlab", description="personalized bidding regret benchmark"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the benchmark and write outputs")
    run.add_argument("--config", required=True, help="JSON config file")
    run.add_argument("--trials", required=True, type=int)
    run.add_argument("--seed", required=True, type=int)
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--workers", type=int, default=None)
    run.add_argument("--mode", choices=("outcome", "dp"), default=None)
    run.add_argument("--emit-logs", action="store_true")

    oracle = sub.add_parser(
        "oracle", help="print outcome-mode oracle values and plans for stored contexts"
    )
    oracle.add_argument("--config", required=True)
    oracle.add_argument("--contexts", required=True)

    fit = sub.add_parser("fit", help="fit regret growth orders from a curves.csv")
    fit.add_argument("--curve", required=True)
    fit.add_argument(
        "--checkpoints", required=True, help="comma-separated customer counts"
    )

    est = sub.add_parser(
        "estimate", help="replay an episode log into an estimator snapshot"
    )
    est.add_argument("--log", required=True)
    est.add_argument("--out", required=True)
    est.add_argument("--contexts", default=None)
    est.add_argument("--config", default=None)
    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config)
    config = replace(config, trials=args.trials, seed=args.seed)
    if args.workers is not None:
        config = replace(config, workers=args.workers)
    if args.mode is not None:
        config = replace(config, mode=args.mode)
    if args.emit_logs:
        config = replace(config, emit_logs=True)
    result = run_experiment(config, out_dir=args.out)
    print(f"wrote {Path(args.out) / 'curves.csv'}")
    print(f"wrote {Path(args.out) / 'summary.txt'}")
    for name in config.policies:
        s = result.summaries[name]
        order = (
            "undefined"
            if s.mean_curve_order is None
            else f"{s.mean_curve_order:.4f}"
        )
        print(f"{name}: final mean regret {s.means[-1]:.2f}, fitted order {order}")
    return 0


def _cmd_oracle(args) -> int:
    config = load_config(args.config)
    if config.mode != "outcome":
        raise ValueError(
            f"bidlab oracle prints outcome-plan values; the config's mode is "
            f"{config.mode!r}, whose oracle is the grid planner"
        )
    contexts = read_context_csv(args.contexts, config.dim)
    instances: dict[int, tuple] = {}
    writer = csv.writer(sys.stdout)
    writer.writerow(["trial", "t", "value", "plan"])
    for trial, t in sorted(contexts):
        if trial not in instances:
            rng = RandomSource(config.seed).scoped(trial)
            instances[trial] = generate_instance(config.instance, config.bounds, rng)
        m, a = instances[trial]
        x = contexts[(trial, t)]
        plan, value = best_outcome_plan(params_from_true(x, m, a))
        writer.writerow(
            [trial, t, repr(value), "".join("1" if w else "0" for w in plan)]
        )
    return 0


def _cmd_fit(args) -> int:
    checkpoints = tuple(int(tok) for tok in args.checkpoints.split(","))
    sums: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    sums_expected: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    counts: dict[str, dict[int, int]] = defaultdict(lambda: defaultdict(int))
    wanted = set(checkpoints)
    with open(args.curve, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            t = int(row["t"])
            if t not in wanted:
                continue
            name = row["policy"]
            sums[name][t] += float(row["cum_regret"])
            sums_expected[name][t] += float(row["cum_regret_expected"])
            counts[name][t] += 1
    if not sums:
        raise ValueError(f"{args.curve}: no rows at the requested checkpoints")
    for name in sorted(sums):
        missing = [c for c in checkpoints if counts[name][c] == 0]
        if missing:
            raise ValueError(f"policy {name!r} has no rows at t={missing}")
        means = [sums[name][c] / counts[name][c] for c in checkpoints]
        means_exp = [sums_expected[name][c] / counts[name][c] for c in checkpoints]
        for label, m in (("realized", means), ("expected", means_exp)):
            order = fit_regret_order(m, checkpoints)
            text = "undefined" if order is None else f"{order:.4f}"
            print(f"{name} {label} {text}")
    return 0


def _cmd_estimate(args) -> int:
    config = load_config(args.config) if args.config is not None else None
    snapshot = replay_estimation(args.log, contexts_path=args.contexts, config=config)
    _write_json(Path(args.out), snapshot)
    print(f"wrote {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "oracle": _cmd_oracle,
        "fit": _cmd_fit,
        "estimate": _cmd_estimate,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
