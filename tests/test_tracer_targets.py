"""The benchmark's tracer (perfbench/tracing.py) patches bidlab functions by
module and name, and its install raises KeyError on any name that is gone,
so a deletion in the package must keep every name it wraps.  Its set-up
probe (perfbench/setup_probe.py) imports and calls package names too."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_MODULE = _load("tracing")
TARGETS = [
    (module, attr)
    for module, attr, _ in (
        _MODULE.SPAN_TARGETS + _MODULE.GENERATOR_TARGETS + _MODULE.COUNTER_TARGETS
    )
]


def test_the_tracer_has_targets_in_every_table():
    assert _MODULE.SPAN_TARGETS and _MODULE.GENERATOR_TARGETS and _MODULE.COUNTER_TARGETS


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_every_traced_name_is_in_its_module(module, attr):
    assert attr in vars(importlib.import_module(module))


def test_a_traced_learner_run_records_one_episode_span_per_exploit_customer(
    tmp_path, monkeypatch,
):
    # one span per exploit customer played alone: the exploration window and
    # the customers kept from drafted blocks play as arrays, outside run_episode
    import bidlab.harness as harness_module
    from bidlab.agent import exploration_window
    from bidlab.environment import RandomSource
    from bidlab.harness import benchmark_config, run_experiment

    kept, real_check = [], harness_module.check_drafts

    def check(agent, episodes, drafts):
        kept.append(real_check(agent, episodes, drafts))
        return kept[-1]

    monkeypatch.setattr(harness_module, "check_drafts", check)

    def installed():
        return [vars(importlib.import_module(m))[a] for m, a in TARGETS] + [
            RandomSource.__dict__["stream"]]

    originals = installed()
    cfg = benchmark_config(T=30, trials=1, n_underbar=5, checkpoints=(10, 30),
                           policies=("learner",), emit_logs=True)
    with _MODULE.Tracer() as tracer:
        assert all(a is not b for a, b in zip(installed(), originals))
        result = run_experiment(cfg, tmp_path)
    assert all(a is b for a, b in zip(installed(), originals))
    assert result.trials[0].agent_snapshot["t"] == cfg.T + 1
    episodes = {name: row["calls"] for name, row in tracer.span_table().items()
                if name.startswith("environment.run_episode.")}
    exploit = cfg.T - exploration_window(cfg.n_underbar, cfg.H)
    assert sum(kept) > 0
    assert episodes == {"environment.run_episode.auction": exploit - sum(kept)}


def test_the_set_up_probe_runs_on_the_dp_workload():
    config = _load("run").workload_config("dp_grid", 0)
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "setup_probe.py"), json.dumps(config)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(last) == ["setup_s"] and last["setup_s"] > 0.0
