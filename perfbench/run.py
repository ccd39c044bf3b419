"""bidlab benchmark: one workload per process, closed loop, batch throughput.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload outcome_preset --seed 1 --seconds 20 --trace 0

The package is imported from ./src.  One unit of work is the workload's
fixed config (see WORKLOADS) run once with the given seed; units run back
to back until --seconds have passed (at least MIN_UNITS times), and every
unit's outputs are checked.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 untraced and traced units
alternate and the metrics are the per-layer ones from the traced units.
The line before it ("info") records the interpreter, numpy, nproc, the
seed, the workload's size and the output digests.  Scratch files go to
./.perfbench and are removed, except the run report and the span file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE_DIGESTS = HERE / "reference_digests.json"

MIN_UNITS = 3
# Set-ups per run; the median is reported.  log_replay's set-up simulates
# the trial whose logs it replays, so it is repeated fewer times.
SETUP_REPEATS = 5
LOG_SETUP_REPEATS = 3
NPROC = len(os.sched_getaffinity(0))

# name -> config overrides (config_from_dict keys; the seed is added per
# run).  The sizes are chosen so that one unit takes a few seconds on a
# 2-CPU machine: long enough to time, short enough for several per run.
WORKLOADS: dict[str, dict] = {
    # README preset; T passes the exploration window (H+1)*n_underbar = 2400
    "outcome_preset": {"T": 3000, "trials": 1, "emit_logs": True},
    # exploration window (H+1)*20 = 80, then 40 customers of grid planning
    "dp_grid": {
        "T": 120,
        "trials": 1,
        "mode": "dp",
        "n_underbar": 20,
        "emit_logs": True,
    },
    # set-up writes this learner trial's logs; the unit replays them
    "log_replay": {
        "T": 4000,
        "trials": 1,
        "policies": ["learner"],
        "emit_logs": True,
    },
    "parallel_trials": {
        "T": 3000,
        "trials": 2,
        "workers": min(2, NPROC),
        "emit_logs": True,
    },
}

# Files whose bytes a rerun of the same config must reproduce.
DETERMINISTIC = ("curves.csv", "summary.txt")
EMITTED = ("episodes_trial", "contexts_trial", "agent_trial")
REGRET_TOLERANCE = 1e-9


def workload_config(name: str, seed: int) -> dict:
    return {**WORKLOADS[name], "seed": seed}


def digest_files(directory: Path) -> dict[str, str]:
    """sha256 of the deterministic outputs and emitted logs in a directory."""
    out = {}
    for path in sorted(directory.iterdir()):
        if path.name in DETERMINISTIC or path.name.startswith(EMITTED):
            out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def reference_status(workload: str, seed: int, digests: dict[str, str]) -> str:
    """Compare with the stored digests.  Informational: a declared bit
    change shows here without failing the run."""
    table = json.loads(REFERENCE_DIGESTS.read_text())
    ref = table.get(workload, {}).get(str(seed))
    if ref is None:
        return "no reference for this seed"
    differ = sorted(k for k in set(ref) | set(digests) if ref.get(k) != digests.get(k))
    return "match" if not differ else "mismatch: " + " ".join(differ)


def peak_rss_mb(include_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def run_setup(workload: str, seed: int, out_dir: Path | None) -> float:
    """One set-up in a fresh interpreter; returns its own timing."""
    cmd = [
        sys.executable,
        str(HERE / "setup_probe.py"),
        json.dumps(workload_config(workload, seed)),
    ]
    if out_dir is not None:
        cmd.append(str(out_dir))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        cmd, env=env, capture_output=True, text=True, timeout=150, check=False
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# --- units of work ------------------------------------------------------------


class SimulationUnit:
    """run_experiment on the workload config, outputs written."""

    def __init__(self, workload: str, seed: int) -> None:
        from bidlab.harness import config_from_dict

        self.config = config_from_dict(workload_config(workload, seed))
        self.customers = self.config.T * self.config.trials
        self.reference: dict[str, str] | None = None
        self.result = None

    def run(self, out_dir: Path) -> None:
        from bidlab.harness import run_experiment

        self.result = run_experiment(self.config, out_dir=out_dir)

    def check(self, out_dir: Path) -> list[str]:
        cfg = self.config
        errors = []
        digests = digest_files(out_dir)
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            errors.append("outputs differ from the first unit of this run")
        with open(out_dir / "curves.csv", "rb") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != cfg.T * cfg.trials * len(cfg.policies):
            errors.append(f"curves.csv has {rows} rows")
        if cfg.mode == "outcome":
            import numpy as np

            for trial in self.result.trials:
                for name, curve in trial.expected.items():
                    worst = float(np.min(np.diff(curve, prepend=0.0)))
                    if worst < -REGRET_TOLERANCE:
                        errors.append(
                            f"trial {trial.trial} {name}: expected regret "
                            f"increment {worst!r} < 0"
                        )
        return errors

    def layer_extra(self, out_dir: Path) -> dict[str, float]:
        written = sum(p.stat().st_size for p in out_dir.iterdir())
        pickled = len(pickle.dumps(self.result.trials[0]))
        return {
            "harness.write_outputs.bytes": float(written),
            "harness.trial_result.pickle_bytes": float(pickled),
        }

    def release(self) -> None:
        self.result = None


class ReplayUnit:
    """`bidlab estimate` and `bidlab fit` on one learner trial's outputs."""

    def __init__(self, workload: str, seed: int, log_dir: Path) -> None:
        from bidlab.harness import config_from_dict

        self.config = config_from_dict(workload_config(workload, seed))
        self.customers = self.config.T
        self.log_dir = log_dir
        self.reference = digest_files(log_dir)
        self.live_snapshot = (log_dir / "agent_trial0.snapshot").read_bytes()
        self.expected_fit = self._summary_orders(log_dir / "summary.txt")
        self.output = ""
        self.tracer = None

    @staticmethod
    def _summary_orders(path: Path) -> list[str]:
        # "  learner realized=0.5311 expected=0.5102" -> fit's line format
        lines = path.read_text().splitlines()
        start = lines.index("fitted regret order (log-log OLS on the mean curve):")
        out = []
        for line in lines[start + 1 :]:
            if not line.startswith("  "):
                break
            name, realized, expected = line.split()
            out.append(f"{name} realized {realized.split('=')[1]}")
            out.append(f"{name} expected {expected.split('=')[1]}")
        return out

    def _cli(self, label: str, argv: list[str]) -> None:
        from bidlab.cli import main

        buf = io.StringIO()
        span = self.tracer.span(label) if self.tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(buf), span:
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"bidlab {argv[0]} exited with {code}")
        self.output += buf.getvalue()

    def run(self, out_dir: Path) -> None:
        self.output = ""
        self._cli(
            "cli.estimate",
            [
                "estimate",
                "--log",
                str(self.log_dir / "episodes_trial0.csv"),
                "--out",
                str(out_dir / "replayed.snapshot"),
            ],
        )
        self._cli(
            "cli.fit",
            [
                "fit",
                "--curve",
                str(self.log_dir / "curves.csv"),
                "--checkpoints",
                ",".join(str(c) for c in self.config.checkpoints),
            ],
        )

    def check(self, out_dir: Path) -> list[str]:
        errors = []
        if (out_dir / "replayed.snapshot").read_bytes() != self.live_snapshot:
            errors.append("replayed snapshot differs from agent_trial0.snapshot")
        fit_lines = [ln for ln in self.output.splitlines() if not ln.startswith("wrote ")]
        if fit_lines != self.expected_fit:
            errors.append(f"fit printed {fit_lines}, summary has {self.expected_fit}")
        return errors

    def layer_extra(self, out_dir: Path) -> dict[str, float]:
        return {}

    def release(self) -> None:
        pass


# --- driver -------------------------------------------------------------------


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


def run(args: argparse.Namespace) -> tuple[dict, dict]:
    import numpy

    from tracing import Tracer, layer_metrics

    workload, seed, traced = args.workload, args.seed, bool(args.trace)
    run_dir = WORK / f"{workload}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    info: dict = {
        "workload": workload,
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": NPROC,
        "config": workload_config(workload, seed),
    }
    setups: list[float] = []
    attempted = failed = 0
    try:
        if workload == "log_replay":
            log_dir = run_dir / "log"
            repeats = 1 if traced else LOG_SETUP_REPEATS
            first = None
            for _ in range(repeats):
                # each set-up rewrites the logs; all must be byte-identical
                shutil.rmtree(log_dir, ignore_errors=True)
                setups.append(run_setup(workload, seed, log_dir))
                attempted += 1
                produced = digest_files(log_dir)
                first = first or produced
                if produced != first:
                    failed += 1
                    print("set-up outputs differ between set-ups", file=sys.stderr)
            unit = ReplayUnit(workload, seed, log_dir)
        else:
            unit = SimulationUnit(workload, seed)
        cfg = unit.config
        info.update(T=cfg.T, trials=cfg.trials, policies=list(cfg.policies))

        tracer = Tracer() if traced else None
        walls: dict[bool, list[float]] = {False: [], True: []}
        needed = {False: 2, True: 2} if traced else {False: MIN_UNITS}
        layers: list[dict[str, float]] = []
        digests = None
        begin = time.perf_counter()
        index = 0
        while True:
            trace_this = traced and index % 2 == 1
            out_dir = run_dir / f"unit{index}"
            out_dir.mkdir()
            attempted += 1
            try:
                if trace_this:
                    tracer.install()
                    tracer.reset()
                    unit.tracer = tracer
                try:
                    t0 = time.perf_counter()
                    unit.run(out_dir)
                    wall = time.perf_counter() - t0
                finally:
                    if trace_this:
                        tracer.restore()
                        unit.tracer = None
                errors = unit.check(out_dir)
            except Exception:
                traceback.print_exc()
                errors = ["raised"]
            if errors:
                failed += 1
                print(f"unit {index} failed: {'; '.join(errors)}", file=sys.stderr)
            else:
                walls[trace_this].append(wall)
                if digests is None:
                    digests = unit.reference if workload == "log_replay" else digest_files(out_dir)
                if trace_this:
                    layers.append(
                        layer_metrics(
                            tracer, wall, unit.customers, unit.layer_extra(out_dir)
                        )
                    )
            unit.release()
            shutil.rmtree(out_dir)
            index += 1
            enough = all(len(walls[k]) >= n for k, n in needed.items())
            if time.perf_counter() - begin >= args.seconds and (enough or failed):
                break
        if layers:
            tracer.write_spans(WORK / f"{workload}-seed{seed}.spans.csv")

        rss = peak_rss_mb(include_children=workload == "parallel_trials")
        if not setups and not traced:
            setups = [
                run_setup(workload, seed, None) for _ in range(SETUP_REPEATS)
            ]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    rates = [unit.customers / w for w in walls[False]]
    info.update(
        units=attempted,
        customers_per_unit=unit.customers,
        unit_walls_s=walls[False],
        customers_per_s_quartiles=quartiles(rates),
        setup_s_values=setups,
        digests=digests,
        reference_digests=(
            reference_status(workload, seed, digests) if digests else "no outputs"
        ),
    )
    if traced:
        metrics = {}
        for name in layers[0] if layers else ():
            metrics[name] = statistics.median(layer[name] for layer in layers)
        if walls[False] and walls[True]:
            metrics["trace_overhead_frac"] = (
                statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
            )
    else:
        metrics = {
            "customers_per_s": statistics.median(rates) if rates else 0.0,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
        }
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "bidlab" / "__init__.py").is_file():
        print(f"error: no bidlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bidlab

    if Path(bidlab.__file__).resolve().parent != (SRC / "bidlab").resolve():
        print(f"error: imported bidlab from {bidlab.__file__}", file=sys.stderr)
        return 2

    from tracing import LAYER_METRICS, metric_unit

    result, info = run(args)
    units = {"customers_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
    result["metrics"] = {
        name: {"value": value, "unit": units.get(name) or metric_unit(name)}
        for name, value in result["metrics"].items()
    }
    if args.trace:
        missing = set(LAYER_METRICS) - set(result["metrics"])
        if missing:
            result["correct"] = False
            print(f"missing per-layer metrics: {sorted(missing)}", file=sys.stderr)
    info["result"] = result
    report = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps(info, indent=2) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
