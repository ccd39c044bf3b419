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
    act,
    agent_to_dict,
    baseline_bids,
    check_drafts,
    draft_plans,
    exploration_window,
    make_agent,
    update,
)
# names run_trial does not call (read_context_csv, outcome_value, params_from_true,
# best_outcome_plan, dp_policy, policy_value) stay here, where perfbench/tracing.py
# wraps them
from .environment import (  # noqa: F401
    POISSON_RATE_MAX,
    Z_MAX,
    Episodes,
    InstanceRecipe,
    RandomSource,
    _play_bids,
    draw_hobs,
    generate_instance,
    instance_to_dict,
    read_context_csv,
    read_context_rows,
    read_episode_csv,
    run_episode,
    sample_context,
    write_context_csv,
    write_episode_csv,
)
from .model import Bounds, state_table
from .planning import (  # noqa: F401
    batch_params,
    best_grid_values,
    best_outcome_plan,
    best_outcome_values,
    dp_policy,
    outcome_value,
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
# Customers a trial plays at once, and an offline replay reads at once:
# apart from each policy's per-customer regret increments, what a trial
# holds does not grow with T.
SEGMENT = 512
# The learner's first drafted exploit block, and its shortest after misses:
# a block's draft, play and check cost about 4 customers played alone.
DRAFT_FIRST = 64
DRAFT_MIN = 8

_LOG_FLOAT_MAX = math.log(sys.float_info.max)
# What the HOB bound keeps of log(max float) for rounding: at the edge
# itself the trials' summed regret, their HOB sum plus the oracle's
# conversions, can round past max float.
_HOB_SLACK = 1e-9

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
        rounds = self.T * self.H * self.trials  # the summary sums the trials' curves
        if b.B_beta * b.B_x + spread + math.log(rounds) > _LOG_FLOAT_MAX - _HOB_SLACK:
            raise ValueError(
                "B_beta * B_x + sigma_max * Z_MAX (or sigma_max**2 / 2 when larger) "
                f"+ log(T * H * trials) must not exceed log(max float) = "
                f"{_LOG_FLOAT_MAX:.2f} less 1e-9, "
                "or a HOB draw exp(<x, beta_h> + sigma_h z), |z| <= Z_MAX = "
                f"{Z_MAX:.4f}, a HOB mean, or the trials' sum of them overflows"
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
    """Everything one trial returns: cumulative regret curves per policy
    (both realized-reward and expected-value variants), the sampled
    instance, the learner's final estimator snapshot and the mean
    outcome-vs-dp oracle gap on the sampled prefix.  The learner's logs
    are not part of it: the process that runs the trial writes them."""

    trial: int
    realized: dict[str, np.ndarray]
    expected: dict[str, np.ndarray]
    instance: dict
    agent_snapshot: dict | None
    oracle_gap: float


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
    the learner's exploration customers play at once as arrays and are
    consumed by one update, its exploit customers play in drafted blocks
    or alone (see `_TrialPlay.learn`), every policy's rows of bids by
    state id are scored after it, and the fixed baselines play their rows
    as arrays under the same auction rule.  With `out_dir` and emitted
    logs, each segment's episode and context rows are appended to
    `episodes_trial{k}.csv` and `contexts_trial{k}.csv` there; a failed
    trial deletes both files.  Without `out_dir` no log is written.  Any
    failure at a customer is re-raised with (trial, customer) provenance.
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
    )


class _TrialPlay:
    """One trial's state between segments: its instance, learner and
    streams' source, each policy's regret increments (opt minus realized,
    opt minus expected) by customer, and the oracle-gap sum.  A trial that
    emits logs into an output directory appends them to `paths`."""

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
        self.gap_total = 0.0
        self.block = DRAFT_FIRST  # the customers of the learner's next drafted block
        self.alone = 0  # the exploit customers to play alone before it
        self.backoff = 1  # the customers to play alone after the next miss
        self.paths: list[Path] = []
        if config.emit_logs and agent is not None and out_dir is not None:
            self.paths = [Path(out_dir) / f"{kind}_trial{trial}.csv"
                          for kind in ("episodes", "contexts")]

    def segment(self, start: int, stop: int) -> None:
        """Play customers start+1..stop, record their regret increments and
        append their logs."""
        config, trial, n, bounds = self.config, self.trial, stop - start, self.config.bounds
        rng = self.source.prepare(n, *self.families, start=start)
        customers = range(start + 1, stop + 1)
        xs = []
        for t in customers:
            with _provenance(trial, t):
                xs.append(sample_context(config.instance, bounds, rng.stream(t, "ctx")))
        X = np.array(xs)
        batch = batch_params(X, self.m, self.a)
        with _provenance(trial, f"customers {start + 1}-{stop}"):
            hobs = draw_hobs(batch, rng, start)
        outcome_opt = best_outcome_values(batch)
        # the auction oracle of dp mode's customers or outcome mode's gap sample;
        # the first of them with a negative conversion mean fails before any play
        n_gap = min(max(ORACLE_GAP_SAMPLE - start, 0), n)
        n_dp = n_gap if config.mode == "outcome" else n
        dp_opt = np.empty(0)
        if n_dp:
            with _provenance(trial, f"customers {start + 1}-{start + n_dp}"):
                dp_opt = best_grid_values(batch.rows(0, n_dp), bounds.B_A)
        for i in np.flatnonzero((batch.mu[:, :n_dp] < 0).any(axis=0))[:1].tolist():
            with _provenance(trial, start + i + 1):
                raise ValueError("conversion means must be clamped nonnegative")
        bids, played = {}, None  # each customer's bids by state id, by policy
        for name in config.policies:
            if name == "random":
                bids[name] = [baseline_bids(name, config.H, rng.stream(t, "plan", name))
                              for t in customers]
            elif name != LEARNER_POLICY:  # the others draw nothing: one row for all
                row = baseline_bids(name, config.H, None)
                bids[name] = np.broadcast_to(row, (n, len(row)))
            else:
                bids[name], played = self.learn(start, X, hobs, batch, rng)

        for i in range(n_gap):
            self.gap_total += float(outcome_opt[i] - dp_opt[i])
        realized, expected = {}, {}
        for name, rows in bids.items():
            rows = np.asarray(rows, dtype=float)  # (n, states): each customer's row
            expected[name] = policy_values(batch, rows.T)
            with _provenance(trial):
                realized[name] = (played if name == LEARNER_POLICY else _play_bids(
                    rows, X, hobs, batch, rng, name, start)).realized_reward
        opt = outcome_opt if config.mode == "outcome" else dp_opt
        for name in config.policies:
            self.realized[name][start:stop] = opt - realized[name]
            self.expected[name][start:stop] = opt - expected[name]
        if self.paths:
            write_episode_csv(self.paths[0], [(trial, played)], append=start > 0)
            write_context_csv(self.paths[1], [(trial, t, x) for t, x in zip(customers, xs)],
                              append=start > 0)

    def learn(self, start: int, X: np.ndarray, hobs: np.ndarray, batch, rng) -> tuple:
        """The learner's segment: each customer's bids by state id and its
        episodes.  The exploration customers take their bids from `act`,
        play at once (`_play_bids`) and are consumed by one update.  The
        exploit customers play in blocks that end at the segment's end: a
        block of one is `act`, `run_episode` and `update`; a longer block
        plays rows drafted on the estimates at its start and keeps the
        customers before the first whose own row walks another path
        (`check_drafts`).  A block kept whole doubles the next (up to
        SEGMENT) and halves the back-off.  After a miss the next block is
        half as long (down to DRAFT_MIN), and as many customers as the
        back-off, from the first not kept, play alone before it; the
        back-off then doubles."""
        trial, agent, (n, H) = self.trial, self.agent, hobs.shape
        explore = min(max(self.window - start, 0), n)
        bids = np.empty((n, len(state_table(H).states)))  # each customer's, by state id
        for i, (t, x) in enumerate(zip(range(start + 1, start + explore + 1), X)):
            with _provenance(trial, t):
                bids[i] = act(agent, x, t)
        played = Episodes(np.arange(start + 1, start + n + 1), X, np.empty((n, H + 1), np.intp),
                          np.empty((n, H)), hobs, np.empty((n, H), bool),
                          np.empty((n, H), np.int64))
        if explore:
            with _provenance(trial):
                played[:explore] = _play_bids(bids[:explore], X[:explore],
                                              hobs[:explore], batch.rows(0, explore), rng,
                                              LEARNER_POLICY, start)
                update(agent, played[:explore])
        i = explore
        while i < n:
            size = 1 if self.alone else min(self.block, n - i)
            if size == 1:
                self.alone = max(self.alone - 1, 0)
                t = start + i + 1
                with _provenance(trial, t):
                    bids[i] = act(agent, X[i], t)
                    played[i:i + 1] = ep = run_episode(bids[i], X[i], self.m, self.a, rng,
                                                       t=t, noise_label=LEARNER_POLICY,
                                                       hobs=hobs[i])
                with _provenance(trial):
                    update(agent, ep)
                kept = 1
            else:
                kept = self.speculate(start, i, i + size, X, hobs, batch, rng, bids, played)
                if kept == size:
                    self.block = min(2 * self.block, SEGMENT)
                    self.backoff = max(self.backoff // 2, 1)
                else:
                    self.block = max(self.block // 2, DRAFT_MIN)
                    self.alone, self.backoff = self.backoff, 2 * self.backoff
            i += kept
        return bids, played

    def speculate(self, start: int, a: int, b: int, X, hobs, batch, rng, bids: np.ndarray,
                  played: Episodes) -> int:
        """Play the segment's customers a..b-1 on drafted rows and keep
        those before the first miss (`check_drafts`), writing their exact
        bids and their episodes; returns how many were kept.  A block that
        fails keeps none: its first customer then plays alone, where the
        failure, if its own row meets it, is raised."""
        with _provenance(self.trial, f"customers {start + a + 1}-{start + b}"):
            try:
                rows = draft_plans(self.agent, X[a:b])
                block = _play_bids(rows, X[a:b], hobs[a:b], batch.rows(a, b), rng,
                                   LEARNER_POLICY, start + a)
                kept = check_drafts(self.agent, block, rows)
            except (ValueError, ArithmeticError):
                return 0
        bids[a:a + kept] = rows[:kept]
        played[a:a + kept] = block[:kept]
        return kept


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
    since the log-log fit does not exist there; a mean that is not finite
    is an error.
    """
    if len(means) != len(checkpoints):
        raise ValueError("means and checkpoints must have equal length")
    if len(means) < 2:
        raise ValueError("at least two checkpoints are required")
    ckpts = [int(c) for c in checkpoints]
    if list(ckpts) != sorted(set(ckpts)) or ckpts[0] < 1:
        raise ValueError("checkpoints must be strictly increasing and >= 1")
    vals = np.asarray(means, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"means must be finite, got {vals.tolist()}")
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
        means, hw = at.mean(axis=0), np.zeros(len(idx))
        if len(at) > 1:
            with np.errstate(over="ignore"):  # squares past max float: redone scaled below
                sd = at.std(axis=0, ddof=1)
            redo = ~np.isfinite(sd) & np.isfinite(at).all(axis=0)
            dev = at[:, redo] - means[redo]
            scale = np.abs(dev).max(axis=0)  # the deviations over it square finitely
            sd[redo] = scale * (dev / scale).std(axis=0, ddof=1)
            hw = config.half_width_multiplier * sd
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
    episode and context logs."""
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
    context logs; without it, no log is written.  The pool has
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

    table("realized cumulative regret (mean +/- half-width):",
          lambda s: s.means, lambda s: s.half_widths)
    table("expected cumulative regret (mean +/- half-width):",
          lambda s: s.expected_means, lambda s: s.expected_half_widths)

    lines.append("fitted regret order (log-log OLS on the mean curve):")
    for name in cfg.policies:
        s = result.summaries[name]
        lines.append(f"  {name:<{width}} realized={_order_label(s.mean_curve_order)} "
                     f"expected={_order_label(s.expected_mean_curve_order)}")
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
    T = result.config.T
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_CURVE_COLUMNS) + "\r\n")
        for tr, name in itertools.product(result.trials, result.config.policies):
            for s in range(0, T, SEGMENT):
                fh.write("".join(f"{tr.trial},{t},{name},{r!r},{e!r}\r\n" for t, r, e in zip(
                    range(s + 1, T + 1), tr.realized[name][s:s + SEGMENT].tolist(),
                    tr.expected[name][s:s + SEGMENT].tolist())))


def write_outputs(result: ExperimentResult, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_curves_csv(out / "curves.csv", result)
    with open(out / "summary.txt", "w", encoding="utf-8") as fh:
        fh.write(render_summary(result))
    _write_json(out / "config.json", config_to_dict(result.config))
    for tr in result.trials:
        _write_json(out / f"instance_trial{tr.trial}.snapshot", tr.instance)
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

    The log must contain a single trial's episodes in customer order, and
    the contexts the same customers in the same order.  When the context
    sidecar or config are not given they are located next to the log
    (`episodes_*` -> `contexts_*`, plus `config.json`).  Both files are
    read in step, in blocks of `SEGMENT` customers, each consumed by one
    update.  An empty log yields the initial snapshot; replaying a prefix
    yields exactly the live agent's state at that point.
    """
    log_path = Path(log_path)
    if contexts_path is None:
        name = log_path.name.replace("episodes", "contexts")
        if name == log_path.name:
            raise ValueError("contexts_path is required when the log file is not "
                             "named episodes_*")
        contexts_path = log_path.parent / name
    if config is None:
        config = load_config(log_path.parent / "config.json")

    agent, seen = _agent_for(config), None
    contexts = read_context_rows(contexts_path, config.dim)
    for trial, episodes in read_episode_csv(log_path, contexts, config.H, SEGMENT):
        if seen not in (None, trial):
            raise ValueError(
                f"log mixes trials {seen} and {trial}; replay one trial at a time"
            )
        seen = trial
        update(agent, episodes)
    return agent_to_dict(agent)
