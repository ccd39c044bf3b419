"""Checks of the benchmark itself (not of bidlab).

    python3 -m pytest -q perfbench/selfcheck.py

Run from the repository root.  The file name keeps it out of the package's
own test collection.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
from bidlab.harness import config_from_dict, replay_estimation, run_experiment  # noqa: E402


def _targets():
    for module, attr, _ in (
        tracing.SPAN_TARGETS + tracing.GENERATOR_TARGETS + tracing.COUNTER_TARGETS
    ):
        yield importlib.import_module(module), attr
    yield importlib.import_module("bidlab.environment").RandomSource, "stream"


def _originals():
    return {(id(owner), attr): owner.__dict__[attr] for owner, attr in _targets()}


def _tiny(**overrides):
    # exploration window (H+1)*5 = 20, so both learner phases run
    raw = {"T": 30, "trials": 1, "seed": 3, "n_underbar": 5, "emit_logs": True}
    return config_from_dict({**raw, **overrides})


def test_restore_puts_back_every_original():
    before = _originals()
    tracer = tracing.Tracer().install()
    try:
        for owner, attr in _targets():
            current = owner.__dict__[attr]
            assert current is not before[(id(owner), attr)]
            assert current.__wrapped__ is before[(id(owner), attr)]
    finally:
        tracer.restore()
    assert _originals() == before


def test_untraced_run_calls_the_unwrapped_functions(tmp_path):
    before = _originals()
    tracer = tracing.Tracer()
    with tracer:
        run_experiment(_tiny(T=5), out_dir=tmp_path / "warm")
    assert len(tracer.start) > 0
    tracer.reset()
    run_experiment(_tiny(), out_dir=tmp_path / "plain")
    # a wrapper left reachable would have recorded something
    assert len(tracer.start) == 0
    assert all(v == 0 for v in tracer.counters.values())
    assert tracer.stream_keys == []
    assert _originals() == before


def _traced_metrics(tmp_path, name, config):
    tracer = tracing.Tracer()
    with tracer:
        t0 = time.perf_counter()
        run_experiment(config, out_dir=tmp_path / name)
        wall = time.perf_counter() - t0
    return tracer, wall, tracing.layer_metrics(tracer, wall, config.T, {})


def test_traced_counts_repeat_and_self_times_add_up(tmp_path):
    config = _tiny()
    _, wall, first = _traced_metrics(tmp_path, "a", config)
    _, _, second = _traced_metrics(tmp_path, "b", config)
    counts = [m for m in first if m.endswith(("calls_per_customer", "key_ratio"))]
    assert counts and all(first[m] == second[m] for m in counts)
    assert first["environment.stream.distinct_key_ratio"] == pytest.approx(0.7, abs=0.01)
    assert first["planning.best_outcome_plan.calls_per_customer"] > 1.0
    assert first["agent.act.exploit.us_per_call"] > 0.0
    modules = sum(first[f"{m}.self_s"] for m in tracing.MODULES)
    assert modules + first["bench.self_s"] == pytest.approx(wall, rel=1e-9, abs=1e-12)


def test_traced_replay_matches_untraced(tmp_path):
    config = _tiny()
    run_experiment(config, out_dir=tmp_path)
    log = tmp_path / "episodes_trial0.csv"
    plain = replay_estimation(log)
    tracer = tracing.Tracer()
    with tracer:
        traced = replay_estimation(log)
    assert traced == plain
    table = tracer.span_table()
    # one span per episode plus the resumption that ends the generator
    assert table["environment.read_episode_csv"]["calls"] == config.T + 1
    assert table["agent.update"]["calls"] == config.T


def test_benchmark_json_lists_the_layer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracing.LAYER_METRICS
    for m in spec["per_layer"]:
        assert m["unit"] == tracing.metric_unit(m["name"])


def test_run_refuses_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dp_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
