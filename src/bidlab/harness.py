"""Regret benchmark harness.

Runs the learner and the fixed baselines on shared customer streams over
independently sampled instances, accumulates realized and expected
cumulative regret against a per-customer oracle, aggregates across trials,
and fits the growth order of the mean regret curve on a checkpoint grid.
Everything is keyed off a single root seed so repeated runs are
byte-identical.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
import sys
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .agent import (
    AgentState,
    BaselinePolicy,
    act,
    agent_to_dict,
    baseline_act,
    exploration_window,
    make_agent,
    update,
)
from .environment import (
    POISSON_RATE_MAX,
    Z_MAX,
    EpisodeLog,
    InstanceRecipe,
    RandomSource,
    draw_hobs,
    generate_instance,
    instance_to_dict,
    read_context_csv,
    read_episode_csv,
    run_episode,
    sample_context,
    sample_conversions,
    write_context_csv,
    write_episode_csv,
)
from .model import Bounds, state_table
# names run_trial no longer calls stay here, where perfbench/tracing.py wraps them
from .planning import (  # noqa: F401
    OutcomeParams,
    batch_params,
    best_grid_values,
    best_outcome_plan,
    best_outcome_values,
    dp_policy,
    outcome_value,
    outcome_values,
    params_from_true,
    policy_value,
    policy_values,
)

__all__ = [
    "BASELINE_POLICIES",
    "DEFAULT_CHECKPOINTS",
    "LEARNER_POLICY",
    "ExperimentConfig",
    "ExperimentResult",
    "PolicySummary",
    "TrialResult",
    "config_from_dict",
    "config_to_dict",
    "fit_regret_order",
    "load_config",
    "benchmark_config",
    "replay_estimation",
    "run_experiment",
    "run_trial",
    "scaled_checkpoints",
    "write_outputs",
]

LEARNER_POLICY = "learner"
BASELINE_POLICIES = ("aggressive", "random", "passive")
DEFAULT_CHECKPOINTS = (500, 5000, 10000, 15000, 20000)
_REFERENCE_T = 20000
# Customers per trial on which both planner oracles are evaluated so the
# summary can surface the gap between the two action abstractions.
ORACLE_GAP_SAMPLE = 50
# Episodes per learner update where no decision reads the estimates: in the
# exploration window (its schedule reads none) and in an offline replay.
UPDATE_CHUNK = 64
# Customers a trial plays at once: apart from each policy's per-customer
# regret increments, what a trial holds does not grow with T.
SEGMENT = 512

_LOG_FLOAT_MAX = math.log(sys.float_info.max)

_BOUNDS_DEFAULTS: Mapping[str, float] = {
    "b": 0.1,
    "B_x": 5.0,
    "B_theta": 10.0,
    "B_d": 5.0,
    "B_A": 50.0,
    "B_beta": 5.0,
    "sigma_max": 5.0,
}


def _default_bounds() -> Bounds:
    return Bounds(H=3, dim=2, **_BOUNDS_DEFAULTS)


# --- configuration --------------------------------------------------------

_INT_KEYS = (
    "T", "trials", "seed", "H", "dim", "n_underbar", "bid_grid_points", "workers",
)
_REAL_KEYS = ("width_scale", "delta", "Gamma_trunc", "half_width_multiplier")


def _check_type(key: str, value, kind: type, optional: bool = False) -> None:
    """Reject, naming the key, a value that is not of `kind`: bool, int, or
    float (which takes integers too, up to the largest float; a bool is no
    number, nor is NaN or an infinity); None passes only when `optional`."""
    if value is None and optional:
        return
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, (int, kind)):
        noun = {bool: "true or false", int: "an integer"}.get(kind, "a number")
        raise ValueError(f"{key} must be {noun}, got {value!r}")
    if kind is float and not abs(value) <= sys.float_info.max:
        raise ValueError(f"{key} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved benchmark settings.

    The defaults give the reference small-scale benchmark: a 3-round
    episode in dimension 2 over 20000 customers, exploration block 600,
    truncation threshold pinned at 1e5, and confidence widths switched off
    (point-estimate planning).
    """

    dim: int = 2
    H: int = 3
    T: int = 20000
    trials: int = 20
    seed: int = 0
    n_underbar: int | None = 600
    width_scale: float = 0.0
    delta: float = 0.01
    Gamma_trunc: float | None = 100000.0
    mode: str = "outcome"
    bid_grid_points: int = 256  # no planner reads it; perfbench/setup_probe.py does
    policies: tuple[str, ...] = (LEARNER_POLICY, *BASELINE_POLICIES)
    checkpoints: tuple[int, ...] = DEFAULT_CHECKPOINTS
    half_width_multiplier: float = 0.5
    emit_logs: bool = False
    workers: int = 1
    bounds: Bounds = field(default_factory=_default_bounds)
    instance: InstanceRecipe = field(default_factory=InstanceRecipe)

    def __post_init__(self) -> None:
        for key in _INT_KEYS:
            _check_type(key, getattr(self, key), int, optional=key == "n_underbar")
        for key in _REAL_KEYS:
            _check_type(key, getattr(self, key), float, optional=key == "Gamma_trunc")
        _check_type("emit_logs", self.emit_logs, bool)
        if not 1 <= self.T < 2**32:  # RandomSource.prepare seeds at most 2**32 - 1
            raise ValueError("T must lie in [1, 2**32)")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.n_underbar is not None and self.n_underbar < 1:
            raise ValueError("n_underbar must be >= 1")
        if self.width_scale < 0:
            raise ValueError("width_scale must be nonnegative")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if self.Gamma_trunc is not None and self.Gamma_trunc < 0:
            raise ValueError("Gamma_trunc must be nonnegative")
        if self.mode not in ("outcome", "dp"):
            raise ValueError(f"unknown planner mode {self.mode!r}")
        if self.bid_grid_points < 2:
            raise ValueError("bid_grid_points must be >= 2")
        if not self.policies:
            raise ValueError("at least one policy is required")
        known = (LEARNER_POLICY, *BASELINE_POLICIES)
        for name in self.policies:
            if name not in known:
                raise ValueError(f"unknown policy {name!r}")
        if len(set(self.policies)) != len(self.policies):
            raise ValueError("duplicate policy names")
        if not self.checkpoints:
            raise ValueError("at least one checkpoint is required")
        for i, c in enumerate(self.checkpoints):
            _check_type(f"checkpoints[{i}]", c, int)
        if list(self.checkpoints) != sorted(set(self.checkpoints)):
            raise ValueError("checkpoints must be strictly increasing")
        if self.checkpoints[0] < 1 or self.checkpoints[-1] > self.T:
            raise ValueError("checkpoints must lie in [1, T]")
        if self.half_width_multiplier < 0:
            raise ValueError("half_width_multiplier must be nonnegative")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.bounds.H != self.H or self.bounds.dim != self.dim:
            raise ValueError("bounds must agree with the configured H and dim")
        b = self.bounds
        spread = max(b.sigma_max * Z_MAX, b.sigma_max * b.sigma_max / 2)
        if b.B_beta * b.B_x + spread + math.log(self.T * self.H) > _LOG_FLOAT_MAX:
            raise ValueError(
                "B_beta * B_x + sigma_max * Z_MAX (or sigma_max**2 / 2 when larger) "
                f"+ log(T * H) must not exceed log(max float) = {_LOG_FLOAT_MAX:.2f}, "
                "or a HOB draw exp(<x, beta_h> + sigma_h z), |z| <= Z_MAX = "
                f"{Z_MAX:.4f}, a HOB mean, or a trial's sum of them overflows"
            )
        if b.B_theta * b.B_x * max(1.0, b.B_d) > POISSON_RATE_MAX:
            raise ValueError(
                "B_theta * B_x * max(1, B_d) must not exceed "
                f"{POISSON_RATE_MAX:.3g}, the largest conversion rate numpy's Poisson draws"
            )


def benchmark_config(**overrides) -> ExperimentConfig:
    """The reference benchmark preset, with optional field overrides."""
    return replace(ExperimentConfig(), **overrides)


def scaled_checkpoints(T: int) -> tuple[int, ...]:
    """The default checkpoint grid rescaled proportionally to a horizon T,
    deduplicated and clipped to [1, T]."""
    scaled = []
    for c in DEFAULT_CHECKPOINTS:
        v = min(max(round(c * T / _REFERENCE_T), 1), T)
        if not scaled or v > scaled[-1]:
            scaled.append(v)
    return tuple(scaled)


_TOP_KEYS = {f.name for f in fields(ExperimentConfig)}
_BOUNDS_KEYS = set(_BOUNDS_DEFAULTS)
_INSTANCE_KEYS = {f.name for f in fields(InstanceRecipe)}


def config_from_dict(raw: Mapping) -> ExperimentConfig:
    """Build a config from a plain mapping (as loaded from JSON).

    Unknown keys, at the top level or inside the `bounds` / `instance`
    sections, are an error.  When `checkpoints` is omitted the default grid
    is rescaled proportionally to the configured T.
    """
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key in ("dim", "H", "T"):  # read here, before the config checks them
        if key in raw:
            _check_type(key, raw[key], int)
    kwargs = dict(raw)
    sections = {}
    for key, known in (("bounds", _BOUNDS_KEYS), ("instance", _INSTANCE_KEYS)):
        sections[key] = section = kwargs.pop(key, {})
        if not isinstance(section, Mapping):
            raise ValueError(f"{key} must be an object, got {section!r}")
        unknown = set(section) - known
        if unknown:
            raise ValueError(f"unknown {key} keys: {sorted(unknown)}")
        for k, v in section.items():
            _check_type(f"{key}.{k}", v, bool if k == "strict" else float)
    merged = {**_BOUNDS_DEFAULTS, **sections["bounds"]}
    kwargs["bounds"] = Bounds(H=kwargs.get("H", 3), dim=kwargs.get("dim", 2),
                              **{k: float(v) for k, v in merged.items()})
    kwargs["instance"] = InstanceRecipe(**sections["instance"])

    for key in ("policies", "checkpoints"):
        if key in kwargs:
            if not isinstance(kwargs[key], (list, tuple)):
                raise ValueError(f"{key} must be a list, got {kwargs[key]!r}")
            kwargs[key] = tuple(kwargs[key])
    if "checkpoints" not in kwargs and "T" in kwargs:  # too large a T fails below
        kwargs["checkpoints"] = scaled_checkpoints(min(kwargs["T"], 2**32))
    return ExperimentConfig(**kwargs)


def config_to_dict(config: ExperimentConfig) -> dict:
    """JSON-ready mapping that `config_from_dict` round-trips exactly."""
    d = {
        f.name: getattr(config, f.name)
        for f in fields(ExperimentConfig)
        if f.name not in ("bounds", "instance")
    }
    d["policies"] = list(config.policies)
    d["checkpoints"] = list(config.checkpoints)
    d["bounds"] = {k: getattr(config.bounds, k) for k in sorted(_BOUNDS_KEYS)}
    d["instance"] = {
        f.name: getattr(config.instance, f.name) for f in fields(InstanceRecipe)
    }
    return d


def load_config(path: str | Path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config file must hold a JSON object")
    return config_from_dict(raw)


# --- single trial ---------------------------------------------------------


@dataclass(frozen=True)
class TrialResult:
    """Everything one trial produced: cumulative regret curves per policy
    (both realized-reward and expected-value variants), the sampled
    instance, the learner's final estimator snapshot, the mean
    outcome-vs-dp oracle gap on the sampled prefix, and (when emitting)
    the learner's episode logs with their contexts.  The logs are None
    once written: `run_experiment` with an output directory writes them in
    the process that ran the trial and returns the rest."""

    trial: int
    realized: dict[str, np.ndarray]
    expected: dict[str, np.ndarray]
    instance: dict
    agent_snapshot: dict | None
    oracle_gap: float
    episodes: list[tuple[int, EpisodeLog]] | None
    contexts: list[tuple[int, int, np.ndarray]] | None


def run_trial(
    config: ExperimentConfig, trial: int, out_dir: str | Path | None = None
) -> TrialResult:
    """Run every configured policy over one independently sampled instance.

    All policies face the same customer contexts and the same highest other
    bids; conversion noise is drawn per policy.  The trial walks its
    customers in segments of `SEGMENT`, and holds only one segment at once
    besides each policy's per-customer regret increments.  Per segment the
    streams are seeded in one pass (`RandomSource.prepare`), the contexts
    and HOBs are drawn first, the oracles are scored for the whole segment,
    the learner runs customer by customer (its updates consuming the
    exploration window in chunks, carried across segments), every plan and
    every row of exact bids is scored after it, and the fixed baselines
    play as arrays.  With `out_dir` and emitted logs, each segment's episode
    and context rows are appended to `episodes_trial{k}.csv` and
    `contexts_trial{k}.csv` there, and the result carries no logs; a failed
    trial deletes both files.  Any failure at a customer is re-raised with
    (trial, customer) provenance.
    """
    if trial < 0:
        raise ValueError("trial index must be nonnegative")
    play = _TrialPlay(config, trial, out_dir)
    try:
        for start in range(0, config.T, SEGMENT):
            play.segment(start, min(start + SEGMENT, config.T))
    except BaseException:
        for path in play.paths:
            path.unlink(missing_ok=True)
        raise
    # one sum over all customers, as one segment of T would take it
    for increments in (*play.realized.values(), *play.expected.values()):
        np.cumsum(increments, out=increments)
    return TrialResult(
        trial=trial,
        realized=play.realized,
        expected=play.expected,
        instance=instance_to_dict(play.m, play.a),
        agent_snapshot=agent_to_dict(play.agent) if play.agent is not None else None,
        oracle_gap=play.gap_total / min(config.T, ORACLE_GAP_SAMPLE),
        episodes=play.episodes,
        contexts=play.contexts,
    )


class _TrialPlay:
    """One trial's state between segments: its instance, learner and
    streams' source, each policy's regret increments (opt minus realized,
    opt minus expected) by customer, the learner's played episodes its
    update has not consumed, and the oracle-gap sum.  A trial that emits
    logs appends them to `paths` or, without an output directory, keeps
    its episodes and contexts."""

    def __init__(self, config: ExperimentConfig, trial: int, out_dir: str | Path | None):
        T = config.T
        self.config, self.trial = config, trial
        self.source = RandomSource(config.seed).scoped(trial)
        self.m, self.a = generate_instance(config.instance, config.bounds, self.source)
        self.agent = agent = (_agent_for(config) if LEARNER_POLICY in config.policies
                              else None)
        self.families = [("ctx",), ("hob",), *(("conv", name) for name in config.policies)]
        if "random" in config.policies:
            self.families.append(("plan", "random"))
        self.realized = {name: np.empty(T) for name in config.policies}
        self.expected = {name: np.empty(T) for name in config.policies}
        self.window = (exploration_window(agent.n_underbar, config.H)
                       if agent is not None else 0)
        self.pending: list[EpisodeLog] = []  # played, not yet consumed by the learner
        self.gap_total = 0.0
        self.paths: list[Path] = []
        self.episodes: list[tuple[int, EpisodeLog]] | None = None
        self.contexts: list[tuple[int, int, np.ndarray]] | None = None
        if config.emit_logs and agent is not None:
            if out_dir is None:
                self.episodes, self.contexts = [], []
            else:
                self.paths = [Path(out_dir) / f"{kind}_trial{trial}.csv"
                              for kind in ("episodes", "contexts")]

    def segment(self, start: int, stop: int) -> None:
        """Play customers start+1..stop, record their regret increments and
        write or keep their logs."""
        config, trial, m, a, agent = self.config, self.trial, self.m, self.a, self.agent
        T, n, bounds = config.T, stop - start, config.bounds
        outcome_mode = config.mode == "outcome"
        rng = self.source.prepare(n, *self.families, start=start)
        customers = range(start + 1, stop + 1)

        xs, hobs = [], np.empty((n, config.H))
        for i, t in enumerate(customers):
            with _provenance(trial, t):
                xs.append(sample_context(config.instance, bounds, rng.stream(t, "ctx")))
                hobs[i] = draw_hobs(xs[-1], a, rng, t)
        batch = batch_params(np.array(xs), m, a)
        outcome_opt = best_outcome_values(batch)
        # the auction oracle of dp mode's customers or outcome mode's gap sample; its
        # first customer with a negative conversion mean fails when its turn comes
        n_gap = min(max(ORACLE_GAP_SAMPLE - start, 0), n)
        n_dp = n_gap if outcome_mode else n
        dp_opt = np.empty(0)
        if n_dp:
            with _provenance(trial, f"customers {start + 1}-{start + n_dp}"):
                dp_opt = best_grid_values(batch.rows(0, n_dp), bounds.B_A)
        negative = np.flatnonzero((batch.mu[:, :n_dp] < 0).any(axis=0)).tolist()
        first_negative = start + negative[0] + 1 if negative else 0
        plans = {}  # each customer's target outcomes, by policy
        for name in config.policies:
            if name != LEARNER_POLICY:
                policy = BaselinePolicy(kind=name, H=config.H)
                plans[name] = [
                    baseline_act(policy, rng.stream(t, "plan", name) if name == "random"
                                 else None)  # the fixed baselines draw nothing
                    for t in customers
                ]
            else:
                plans[name] = []  # filled as the learner plays (dp mode: while it explores)
        exploit_bids = []  # dp: each exploit customer's exact bids by state id
        realized = {LEARNER_POLICY: np.empty(n)}
        expected = {}
        episodes = [] if self.episodes is not None or self.paths else None

        for i, (t, x) in enumerate(zip(customers, xs)):
            with _provenance(trial, t):
                if t == first_negative:
                    raise ValueError("conversion means must be clamped nonnegative")
                if agent is None:
                    continue
                decision = act(agent, x, t)
                log = run_episode(decision.bids, x, m, a, rng,
                                  t=t, noise_label=LEARNER_POLICY, hobs=hobs[i])
                realized[LEARNER_POLICY][i] = log.realized_reward
                self.pending.append(log)
                if episodes is not None:
                    episodes.append((trial, log))
                if decision.plan is not None:
                    plans[LEARNER_POLICY].append(decision.plan)
                else:
                    exploit_bids.append(decision.bids)
            if len(self.pending) == UPDATE_CHUNK or t >= self.window or t == T:
                with _provenance(trial):
                    update(agent, self.pending)
                self.pending = []

        for i in range(n_gap):
            self.gap_total += float(outcome_opt[i] - dp_opt[i])
        for name, p in plans.items():
            won = np.array(p, dtype=bool)  # (n, H): round h of every customer's plan
            expected[name] = (outcome_values(won.T, batch.rows(0, len(p))) if p
                              else np.empty(0))
            if name != LEARNER_POLICY:
                realized[name] = _play_plans(won, hobs, batch, rng, name, trial, start)
        if exploit_bids:  # dp mode's learner past its plans
            rows = batch.rows(n - len(exploit_bids), n)
            expected[LEARNER_POLICY] = np.concatenate(
                [expected[LEARNER_POLICY], policy_values(rows, np.array(exploit_bids).T)])
        opt = outcome_opt if outcome_mode else dp_opt
        for name in config.policies:
            self.realized[name][start:stop] = opt - realized[name]
            self.expected[name][start:stop] = opt - expected[name]
        if episodes is None:
            return
        contexts = [(trial, t, x) for t, x in zip(customers, xs)]
        if self.paths:
            write_episode_csv(self.paths[0], episodes, append=start > 0)
            write_context_csv(self.paths[1], contexts, append=start > 0)
        else:
            self.episodes += episodes
            self.contexts += contexts


def _play_plans(
    won: np.ndarray, hobs: np.ndarray, batch: OutcomeParams, rng: RandomSource,
    name: str, trial: int, start: int,
) -> np.ndarray:
    """Each customer's realized reward from forcing the outcomes `won`
    ((n, H) bools, customers start+1..start+n) against `hobs`: the floats
    `run_episode` gives, with round h's conversions the h-th draw of the
    (t, "conv", name) stream."""
    T, H = won.shape
    table, cols, delay = state_table(H), np.arange(T), np.array(batch.delay)
    ids = np.zeros((T, H + 1), dtype=np.intp)  # the state id of each round
    rates = np.empty((T, H))
    for h in range(H):
        s1, s2 = table.s1[ids[:, h]], table.s2[ids[:, h]]
        rates[:, h] = np.where(won[:, h], batch.mu[s1 + 1, cols],
                               delay[s1] * batch.mu[s2 + 1, cols])
        ids[:, h + 1] = table.successors[ids[:, h], won[:, h].astype(np.intp)]
    for t, h in np.argwhere(rates < 0)[:1]:
        with _provenance(trial, start + t + 1):
            raise ValueError(f"negative conversion rate {rates[t, h]} in state "
                             f"{table.states[ids[t, h]]}")
    conversions = []
    for t, row in enumerate(rates.tolist(), start=start + 1):
        gen = rng.stream(t, "conv", name)
        conversions.append([sample_conversions(r, gen) for r in row])
    # summed round by round from 0, as EpisodeLog.realized_reward sums
    return sum((np.array(conversions) - np.where(won, hobs, 0.0)).T)


@contextlib.contextmanager
def _provenance(trial: int, t: int | str | None = None) -> Iterator[None]:
    """Re-raise any failure with the trial and customer it happened at (or
    the customers of a batch, named by `t`); without t, the failure names
    its customer itself (as `update` does)."""
    try:
        yield
    except Exception as exc:
        where = "" if t is None else f" {t}:" if isinstance(t, str) else f" customer {t}:"
        raise RuntimeError(f"trial {trial},{where} {exc}") from exc


# --- curve fitting ---------------------------------------------------------


def fit_regret_order(
    means: Sequence[float], checkpoints: Sequence[int]
) -> float | None:
    """OLS slope of log mean cumulative regret against log checkpoint.

    Returns None (rendered as "undefined") when any mean is nonpositive,
    since the log-log fit does not exist there.
    """
    if len(means) != len(checkpoints):
        raise ValueError("means and checkpoints must have equal length")
    if len(means) < 2:
        raise ValueError("at least two checkpoints are required")
    ckpts = [int(c) for c in checkpoints]
    if list(ckpts) != sorted(set(ckpts)) or ckpts[0] < 1:
        raise ValueError("checkpoints must be strictly increasing and >= 1")
    vals = np.asarray(means, dtype=float)
    if np.any(vals <= 0):
        return None
    slope, _ = np.polyfit(np.log(ckpts), np.log(vals), 1)
    return float(slope)


# --- aggregation ------------------------------------------------------------


@dataclass(frozen=True)
class PolicySummary:
    """Cross-trial aggregate for one policy: checkpoint means and
    half-widths for both regret variants, the fitted order of the mean
    curve (realized and expected), and the per-trial realized fits."""

    policy: str
    means: tuple[float, ...]
    half_widths: tuple[float, ...]
    expected_means: tuple[float, ...]
    expected_half_widths: tuple[float, ...]
    mean_curve_order: float | None
    expected_mean_curve_order: float | None
    per_trial_orders: tuple[float | None, ...]


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    trials: tuple[TrialResult, ...]
    summaries: dict[str, PolicySummary]
    oracle_gap: float


def _summarize_policy(
    config: ExperimentConfig, trials: Sequence[TrialResult], name: str
) -> PolicySummary:
    idx = np.asarray(config.checkpoints, dtype=int) - 1
    realized = np.stack([tr.realized[name] for tr in trials])
    expected = np.stack([tr.expected[name] for tr in trials])

    def stats(matrix: np.ndarray) -> tuple[tuple[float, ...], tuple[float, ...]]:
        at = matrix[:, idx]
        means = at.mean(axis=0)
        if matrix.shape[0] > 1:
            hw = config.half_width_multiplier * at.std(axis=0, ddof=1)
        else:
            hw = np.zeros_like(means)
        return tuple(float(v) for v in means), tuple(float(v) for v in hw)

    def order(means) -> float | None:
        # one checkpoint gives no slope: the order is undefined
        if len(config.checkpoints) < 2:
            return None
        return fit_regret_order(means, config.checkpoints)

    means, half_widths = stats(realized)
    e_means, e_half_widths = stats(expected)
    return PolicySummary(
        policy=name,
        means=means,
        half_widths=half_widths,
        expected_means=e_means,
        expected_half_widths=e_half_widths,
        mean_curve_order=order(means),
        expected_mean_curve_order=order(e_means),
        per_trial_orders=tuple(order(tr.realized[name][idx]) for tr in trials),
    )


def _run_trial_args(args: tuple[ExperimentConfig, int, Path | None]) -> TrialResult:
    """Run one trial; with an output directory, this process writes its
    episode and context logs, and the result comes back without them."""
    return run_trial(*args)


def _run_pooled(jobs: list, workers: int) -> tuple[TrialResult, ...]:
    """Run the jobs on a pool of `workers` processes, at most `workers` in
    flight: a job starts only when one has finished, so the first failure
    is raised before any later job starts.  Results are in job order."""
    results, queued, running = [None] * len(jobs), iter(enumerate(jobs)), {}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        while True:
            for k, job in itertools.islice(queued, workers - len(running)):
                running[pool.submit(_run_trial_args, job)] = k
            if not running:
                return tuple(results)
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                results[running.pop(future)] = future.result()


def run_experiment(
    config: ExperimentConfig, out_dir: str | Path | None = None
) -> ExperimentResult:
    """Run all trials, aggregate in fixed trial order, and optionally
    persist curves, summary, per-trial instance snapshots and (when the
    config emits logs) the learner's episode logs and estimator snapshots.

    With `out_dir`, the process that ran a trial writes its episode and
    context logs, and the returned trials carry none.  The pool has
    min(workers, trials) processes; with one, the trials run here.  A
    failed trial aborts the experiment with its provenance, before
    `curves.csv` and `summary.txt` are written and before any trial not yet
    started; nothing is silently dropped.
    """
    out = None if out_dir is None else Path(out_dir)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    jobs = [(config, k, out) for k in range(config.trials)]
    workers = min(config.workers, config.trials)
    try:
        if workers > 1:
            trials = _run_pooled(jobs, workers)
        else:
            trials = tuple(map(_run_trial_args, jobs))
    except Exception as exc:
        raise RuntimeError(f"experiment aborted: {exc}") from exc

    summaries = {
        name: _summarize_policy(config, trials, name) for name in config.policies
    }
    gap = float(np.mean([tr.oracle_gap for tr in trials]))
    result = ExperimentResult(
        config=config, trials=trials, summaries=summaries, oracle_gap=gap
    )
    if out is not None:
        write_outputs(result, out)
    return result


# --- persistence ------------------------------------------------------------


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _order_label(order: float | None) -> str:
    return "undefined" if order is None else f"{order:.4f}"


def render_summary(result: ExperimentResult) -> str:
    """Human-readable digest: a checkpoint table per regret variant
    (mean +/- half-width across trials), fitted growth orders from the mean
    curve and averaged per-trial fits, and the sampled gap between the two
    planner oracles."""
    cfg = result.config
    lines = [
        "regret benchmark summary",
        (
            f"mode={cfg.mode} trials={cfg.trials} seed={cfg.seed} "
            f"T={cfg.T} H={cfg.H} dim={cfg.dim}"
        ),
        "checkpoints: " + " ".join(str(c) for c in cfg.checkpoints),
        "",
    ]
    width = max(len(name) for name in cfg.policies)

    def table(title: str, means_of, hw_of) -> None:
        lines.append(title)
        header = " ".join(f"{'t=' + str(c):>27}" for c in cfg.checkpoints)
        lines.append(f"{'policy':<{width}} {header}")
        for name in cfg.policies:
            s = result.summaries[name]
            cells = " ".join(
                f"{mu:>12.2f} +/- {hw:>10.2f}"
                for mu, hw in zip(means_of(s), hw_of(s))
            )
            lines.append(f"{name:<{width}} {cells}")
        lines.append("")

    table(
        "realized cumulative regret (mean +/- half-width):",
        lambda s: s.means,
        lambda s: s.half_widths,
    )
    table(
        "expected cumulative regret (mean +/- half-width):",
        lambda s: s.expected_means,
        lambda s: s.expected_half_widths,
    )

    lines.append("fitted regret order (log-log OLS on the mean curve):")
    for name in cfg.policies:
        s = result.summaries[name]
        lines.append(
            f"  {name:<{width}} realized={_order_label(s.mean_curve_order)} "
            f"expected={_order_label(s.expected_mean_curve_order)}"
        )
    lines.append("fitted regret order (average of per-trial fits, realized):")
    for name in cfg.policies:
        defined = [o for o in result.summaries[name].per_trial_orders if o is not None]
        if defined:
            label = f"{float(np.mean(defined)):.4f} (n={len(defined)}/{cfg.trials})"
        else:
            label = "undefined"
        lines.append(f"  {name:<{width}} {label}")
    lines.append(
        "oracle value gap, outcome minus dp planner "
        f"(first {ORACLE_GAP_SAMPLE} customers per trial): {result.oracle_gap:.6f}"
    )
    lines.append("")
    return "\n".join(lines)


_CURVE_COLUMNS = ["trial", "t", "policy", "cum_regret", "cum_regret_expected"]


def write_curves_csv(path: Path, result: ExperimentResult) -> None:
    cfg = result.config
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CURVE_COLUMNS)
        for tr in result.trials:
            for name in cfg.policies:
                realized = tr.realized[name]
                expected = tr.expected[name]
                for t in range(1, cfg.T + 1):
                    writer.writerow(
                        [
                            tr.trial,
                            t,
                            name,
                            repr(float(realized[t - 1])),
                            repr(float(expected[t - 1])),
                        ]
                    )


def write_outputs(result: ExperimentResult, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_curves_csv(out / "curves.csv", result)
    with open(out / "summary.txt", "w", encoding="utf-8") as fh:
        fh.write(render_summary(result))
    _write_json(out / "config.json", config_to_dict(result.config))
    for tr in result.trials:
        _write_json(out / f"instance_trial{tr.trial}.snapshot", tr.instance)
        if tr.episodes is not None:
            write_episode_csv(out / f"episodes_trial{tr.trial}.csv", tr.episodes)
            write_context_csv(out / f"contexts_trial{tr.trial}.csv", tr.contexts)
        if tr.agent_snapshot is not None and result.config.emit_logs:
            _write_json(out / f"agent_trial{tr.trial}.snapshot", tr.agent_snapshot)


# --- replay -----------------------------------------------------------------


def _agent_for(config: ExperimentConfig) -> AgentState:
    return make_agent(
        config.bounds,
        config.T,
        delta=config.delta,
        width_scale=config.width_scale,
        n_underbar=config.n_underbar,
        Gamma_override=config.Gamma_trunc,
        planner_mode=config.mode,
    )


def replay_estimation(
    log_path: str | Path,
    contexts_path: str | Path | None = None,
    config: ExperimentConfig | None = None,
) -> dict:
    """Rebuild the learner's estimator snapshot by replaying a persisted
    episode log offline.

    The log must contain a single trial's episodes in customer order.  When
    the context sidecar or config are not given they are located next to
    the log (`episodes_*` -> `contexts_*`, plus `config.json`).  An empty
    log yields the initial snapshot; replaying a prefix yields exactly the
    live agent's state at that point.
    """
    log_path = Path(log_path)
    if contexts_path is None:
        name = log_path.name.replace("episodes", "contexts")
        if name == log_path.name:
            raise ValueError(
                "contexts_path is required when the log file is not named "
                "episodes_*"
            )
        contexts_path = log_path.parent / name
    if config is None:
        config = load_config(log_path.parent / "config.json")

    contexts = read_context_csv(contexts_path, config.dim)
    agent = _agent_for(config)
    seen, chunk = None, []
    for trial, log in read_episode_csv(log_path, contexts, config.H):
        if seen not in (None, trial):
            raise ValueError(
                f"log mixes trials {seen} and {trial}; replay one trial at a time"
            )
        seen = trial
        chunk.append(log)
        if len(chunk) == UPDATE_CHUNK:
            update(agent, chunk)
            chunk = []
    update(agent, chunk)
    return agent_to_dict(agent)
