"""Tracing of bidlab from outside the package.

`Tracer` replaces public functions with timing wrappers under the names by
which the calling modules look them up (`bidlab.harness.run_episode`,
`bidlab.agent.dp_policy`, ...), records one span per call (name, start, end,
parent) and a handful of call counters, and puts every original back on
`restore`.  Nothing is patched unless a tracer is installed, so an untraced
run executes the package's own functions.

Spans are kept in flat arrays in memory and written out only when asked
(`write_spans`).  `layer_metrics` turns one traced unit of work into the
per-layer numbers listed in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from array import array
from typing import Callable, Iterator

import numpy as np

# (module the caller looks the name up in, attribute, span name).  A span
# name may be a callable of (args, kwargs) when one function serves two
# phases that are reported apart.
SPAN_TARGETS: list[tuple[str, str, str | Callable]] = [
    # harness
    ("bidlab.harness", "run_experiment", "harness.run_experiment"),
    ("bidlab.harness", "run_trial", "harness.run_trial"),
    ("bidlab.harness", "write_outputs", "harness.write_outputs"),
    ("bidlab.harness", "replay_estimation", "harness.replay_estimation"),
    ("bidlab.cli", "replay_estimation", "harness.replay_estimation"),
    # environment, as harness imports it
    ("bidlab.harness", "generate_instance", "environment.generate_instance"),
    ("bidlab.harness", "sample_context", "environment.sample_context"),
    (
        "bidlab.harness",
        "run_episode",
        lambda a, k: "environment.run_episode."
        + (a[5] if len(a) > 5 else k.get("mode", "auction")),
    ),
    ("bidlab.harness", "write_episode_csv", "environment.write_episode_csv"),
    ("bidlab.harness", "write_context_csv", "environment.write_context_csv"),
    ("bidlab.harness", "read_context_csv", "environment.read_context_csv"),
    # planning, as harness and agent import it, and outcome_value as
    # best_outcome_plan calls it inside planning
    ("bidlab.harness", "params_from_true", "planning.params_from_true"),
    ("bidlab.harness", "best_outcome_plan", "planning.best_outcome_plan"),
    ("bidlab.harness", "dp_policy", "planning.dp_policy"),
    ("bidlab.harness", "outcome_value", "planning.outcome_value"),
    ("bidlab.harness", "policy_value", "planning.policy_value"),
    ("bidlab.agent", "best_outcome_plan", "planning.best_outcome_plan"),
    ("bidlab.agent", "dp_policy", "planning.dp_policy"),
    ("bidlab.planning", "outcome_value", "planning.outcome_value"),
    # agent
    (
        "bidlab.harness",
        "act",
        lambda a, k: "agent.act." + ("explore" if a[0].exploring else "exploit"),
    ),
    ("bidlab.harness", "update", "agent.update"),
    ("bidlab.agent", "optimistic_params", "agent.optimistic_params"),
    # estimation, as agent imports it
    ("bidlab.agent", "ridge_update", "estimation.ridge_update"),
    ("bidlab.agent", "crtm_update", "estimation.crtm_update"),
    ("bidlab.agent", "tsmle_update", "estimation.tsmle_update"),
    ("bidlab.agent", "split_episode", "estimation.split_episode"),
    ("bidlab.agent", "optimistic_mean", "estimation.optimistic_mean"),
]

# Generator functions: one span per resumption, so time spent between
# items (in the consumer) is not charged to the producer.
GENERATOR_TARGETS = [
    ("bidlab.harness", "read_episode_csv", "environment.read_episode_csv"),
]

# Closed forms called thousands of times per customer by the planners are
# counted, not timed, to keep tracing cheap.  Both namespaces are wrapped:
# planning calls them directly, and model calls them from other closed
# forms (expected_payment -> hob_mean).
COUNTER_TARGETS = [
    (module, name, f"model.{name}")
    for module in ("bidlab.planning", "bidlab.model")
    for name in ("win_probability", "expected_payment", "hob_mean")
]

STREAM_SPAN = "environment.stream"

MODULES = ("harness", "environment", "planning", "agent", "estimation", "cli")

# Per-layer metric names as they appear in BENCHMARK.json.  A name is
# "<span name>.<statistic>" unless listed in the special cases of
# `layer_metrics`.
LAYER_METRICS = [
    "environment.stream.calls_per_customer",
    "environment.stream.distinct_key_ratio",
    "environment.stream.us_per_call",
    "environment.run_episode.forced.self_us_per_call",
    "environment.run_episode.auction.self_us_per_call",
    "environment.sample_context.us_per_call",
    "environment.write_episode_csv.s",
    "environment.write_context_csv.s",
    "environment.read_episode_csv.us_per_customer",
    "environment.read_context_csv.s",
    "environment.generate_instance.ms",
    "planning.best_outcome_plan.calls_per_customer",
    "planning.best_outcome_plan.us_per_call",
    "planning.outcome_value.calls_per_customer",
    "planning.dp_policy.calls_per_customer",
    "planning.dp_policy.ms_per_call",
    "planning.policy_value.us_per_call",
    "planning.params_from_true.us_per_call",
    "model.win_probability.calls_per_customer",
    "model.expected_payment.calls_per_customer",
    "model.hob_mean.calls_per_customer",
    "agent.act.explore.us_per_call",
    "agent.act.exploit.us_per_call",
    "agent.optimistic_params.us_per_call",
    "agent.update.us_per_call",
    "estimation.ridge_update.us_per_call",
    "estimation.crtm_update.us_per_call",
    "estimation.tsmle_update.us_per_call",
    "estimation.split_episode.us_per_call",
    "estimation.optimistic_mean.us_per_call",
    "harness.run_trial.s",
    "harness.write_outputs.s",
    "harness.write_outputs.bytes",
    "harness.replay_estimation.s",
    "harness.trial_result.pickle_bytes",
    "cli.estimate.s",
    "cli.fit.s",
    *(f"{m}.self_s" for m in MODULES),
    "bench.self_s",
    "trace.wall_s",
    "trace_overhead_frac",
]

# Values that are not span statistics; the workload supplies them.
EXTRA_METRICS = ("harness.write_outputs.bytes", "harness.trial_result.pickle_bytes")

UNITS = {
    "calls_per_customer": "count",
    "distinct_key_ratio": "ratio",
    "us_per_call": "us",
    "self_us_per_call": "us",
    "us_per_customer": "us",
    "ms_per_call": "ms",
    "ms": "ms",
    "s": "s",
    "self_s": "s",
    "wall_s": "s",
    "bytes": "bytes",
    "pickle_bytes": "bytes",
    "trace_overhead_frac": "ratio",
}


def metric_unit(name: str) -> str:
    return UNITS[name.rsplit(".", 1)[-1]]


class Tracer:
    """Installs wrappers, records spans and counters, restores originals.

    Use as a context manager; `reset` clears what was recorded while the
    wrappers stay installed.
    """

    def __init__(self) -> None:
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self.counters: dict[str, int] = {}
        self.reset()

    # -- recording -----------------------------------------------------------

    def reset(self) -> None:
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        for name in self.counters:
            self.counters[name] = 0
        self.stream_keys: list[tuple] = []

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block of the benchmark's own code."""
        sid = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(sid)

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn, name):
        fixed = None if callable(name) else self._id(name)

        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self._id(name(args, kwargs))
            sid = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        return wrapper

    def _generator_wrapper(self, fn, name):
        nid = self._id(name)

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def resumed():
                while True:
                    sid = self._open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(sid)
                    yield item

            return resumed()

        return wrapper

    def _counter_wrapper(self, fn, name):
        counters = self.counters
        counters.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _stream_wrapper(self, fn):
        nid = self._id(STREAM_SPAN)

        def stream(source, *key):
            self.stream_keys.append((source.root, source.prefix, key))
            sid = self._open(nid)
            try:
                return fn(source, *key)
            finally:
                self._close(sid)

        return stream

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr]
        wrapper.__wrapped__ = original
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            for targets, make in (
                (SPAN_TARGETS, self._span_wrapper),
                (GENERATOR_TARGETS, self._generator_wrapper),
                (COUNTER_TARGETS, self._counter_wrapper),
            ):
                for module, attr, name in targets:
                    mod = importlib.import_module(module)
                    self._patch(mod, attr, make(getattr(mod, attr), name))
            source = importlib.import_module("bidlab.environment").RandomSource
            self._patch(source, "stream", self._stream_wrapper(source.__dict__["stream"]))
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- analysis ------------------------------------------------------------

    def span_table(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds
        (duration minus the durations of direct children)."""
        n = len(self.start)
        if self._stack:
            raise RuntimeError("span table requested while spans are open")
        dur = np.frombuffer(self.end, dtype=float)[:n] - np.frombuffer(
            self.start, dtype=float
        )[:n]
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n]
        names = np.frombuffer(self.name_id, dtype=np.int32)[:n]
        child = np.zeros(n)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child
        k = len(self._names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        table = {
            self._names[i]: {
                "calls": int(calls[i]),
                "incl_s": float(incl[i]),
                "self_s": float(own[i]),
            }
            for i in range(k)
            if calls[i]
        }
        table["<top>"] = {
            "calls": int(np.count_nonzero(~nested)),
            "incl_s": float(dur[~nested].sum()),
            "self_s": 0.0,
        }
        return table

    def write_spans(self, path) -> None:
        """Write every recorded span as CSV: id, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start,end\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid},{self.parent[sid]},{self._names[self.name_id[sid]]},"
                    f"{self.start[sid]!r},{self.end[sid]!r}\n"
                )


def layer_metrics(
    tracer: Tracer,
    wall_s: float,
    customers: int,
    extra: dict[str, float],
) -> dict[str, float]:
    """Per-layer numbers for one traced unit of work.

    `wall_s` is the unit's traced wall time, `customers` the customers it
    simulated or replayed, and `extra` supplies the values that are not
    span statistics (byte counts, tracing overhead).  A layer the workload
    does not reach reads 0.
    """
    table = tracer.span_table()
    empty = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
    module_self = dict.fromkeys(MODULES, 0.0)
    for name, row in table.items():
        module = name.split(".", 1)[0]
        if module in module_self:
            module_self[module] += row["self_s"]
    out: dict[str, float] = {}
    for metric in LAYER_METRICS:
        if metric == "trace_overhead_frac":
            continue  # compares traced with untraced units; set by the caller
        span, stat = metric.rsplit(".", 1)
        row = table.get(span, empty)
        calls = row["calls"]
        if metric in EXTRA_METRICS:
            value = extra.get(metric, 0.0)
        elif stat == "distinct_key_ratio":
            keys = tracer.stream_keys
            value = len(set(keys)) / len(keys) if keys else 0.0
        elif stat == "self_s" and span in module_self:
            value = module_self[span]
        elif metric == "bench.self_s":
            value = wall_s - table["<top>"]["incl_s"]
        elif metric == "trace.wall_s":
            value = wall_s
        elif stat == "calls_per_customer":
            calls = tracer.counters.get(span, calls)
            value = calls / customers
        elif stat == "us_per_call":
            value = row["incl_s"] / calls * 1e6 if calls else 0.0
        elif stat == "self_us_per_call":
            value = row["self_s"] / calls * 1e6 if calls else 0.0
        elif stat == "us_per_customer":
            value = row["incl_s"] / customers * 1e6
        elif stat in ("ms", "ms_per_call"):
            value = row["incl_s"] / calls * 1e3 if calls else 0.0
        elif stat == "s":
            value = row["incl_s"]
        else:
            raise KeyError(f"no rule for per-layer metric {metric}")
        out[metric] = float(value)
    return out
