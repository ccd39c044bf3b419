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
import math
import os
import sys
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

from .environment import RandomSource, generate_instance, read_context_csv
from .harness import (
    _CURVE_COLUMNS,
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
            f"{config.mode!r}, whose oracle is the exact auction planner"
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
    wanted = set(checkpoints)
    # policy -> checkpoint -> [realized sum, expected sum, rows]
    sums: dict[str, dict[int, list]] = defaultdict(dict)
    with open(args.curve, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != _CURVE_COLUMNS:
            raise ValueError(f"{args.curve}: line 1: expected header "
                             f"{','.join(_CURVE_COLUMNS)}")
        for lineno, row in enumerate(reader, start=2):
            try:
                if len(row) != len(_CURVE_COLUMNS):
                    raise ValueError(f"expected {len(_CURVE_COLUMNS)} fields, "
                                     f"got {len(row)}")
                t = int(row[1])
                if t not in wanted:
                    continue
                realized, expected = float(row[3]), float(row[4])
                if not (math.isfinite(realized) and math.isfinite(expected)):
                    raise ValueError(f"regrets must be finite, got {row[3:]}")
                cell = sums[row[2]].setdefault(t, [0.0, 0.0, 0])
                cell[0] += realized
                cell[1] += expected
                cell[2] += 1
            except ValueError as exc:
                raise ValueError(f"{args.curve}: line {lineno}: {exc}") from None
    if not sums:
        raise ValueError(f"{args.curve}: no rows at the requested checkpoints")
    for name in sorted(sums):
        missing = [c for c in checkpoints if c not in sums[name]]
        if missing:
            raise ValueError(f"policy {name!r} has no rows at t={missing}")
        cells = [sums[name][c] for c in checkpoints]
        for label, k in (("realized", 0), ("expected", 1)):
            order = fit_regret_order([cell[k] / cell[2] for cell in cells], checkpoints)
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
