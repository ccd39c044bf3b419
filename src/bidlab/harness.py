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
import json
from concurrent.futures import ProcessPoolExecutor
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
    make_agent,
    update,
)
from .environment import (
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
    write_context_csv,
    write_episode_csv,
)
from .model import Bounds
# best_outcome_plan stays in this namespace, where perfbench/tracing.py wraps it
from .planning import (  # noqa: F401
    batch_params,
    best_outcome_plan,
    best_outcome_values,
    default_bid_grid,
    dp_policy,
    outcome_value,
    outcome_values,
    params_from_true,
    policy_value,
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
    bid_grid_points: int = 256
    policies: tuple[str, ...] = (LEARNER_POLICY, *BASELINE_POLICIES)
    checkpoints: tuple[int, ...] = DEFAULT_CHECKPOINTS
    half_width_multiplier: float = 0.5
    emit_logs: bool = False
    workers: int = 1
    bounds: Bounds = field(default_factory=_default_bounds)
    instance: InstanceRecipe = field(default_factory=InstanceRecipe)

    def __post_init__(self) -> None:
        if self.T < 1:
            raise ValueError("T must be >= 1")
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
    kwargs = dict(raw)
    dim = int(kwargs.get("dim", 2))
    H = int(kwargs.get("H", 3))

    bounds_raw = dict(kwargs.pop("bounds", {}))
    unknown = set(bounds_raw) - _BOUNDS_KEYS
    if unknown:
        raise ValueError(f"unknown bounds keys: {sorted(unknown)}")
    merged = {**_BOUNDS_DEFAULTS, **{k: float(v) for k, v in bounds_raw.items()}}
    kwargs["bounds"] = Bounds(H=H, dim=dim, **merged)

    instance_raw = dict(kwargs.pop("instance", {}))
    unknown = set(instance_raw) - _INSTANCE_KEYS
    if unknown:
        raise ValueError(f"unknown instance keys: {sorted(unknown)}")
    kwargs["instance"] = InstanceRecipe(**instance_raw)

    if "checkpoints" in kwargs:
        kwargs["checkpoints"] = tuple(int(c) for c in kwargs["checkpoints"])
    elif "T" in kwargs:
        kwargs["checkpoints"] = scaled_checkpoints(int(kwargs["T"]))
    if "policies" in kwargs:
        kwargs["policies"] = tuple(kwargs["policies"])
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
    the learner's episode logs with their contexts."""

    trial: int
    realized: dict[str, np.ndarray]
    expected: dict[str, np.ndarray]
    instance: dict
    agent_snapshot: dict | None
    oracle_gap: float
    episodes: list[tuple[int, EpisodeLog]] | None
    contexts: list[tuple[int, int, np.ndarray]] | None


def run_trial(config: ExperimentConfig, trial: int) -> TrialResult:
    """Run every configured policy over one independently sampled instance.

    All policies face the same customer contexts and the same highest other
    bids; conversion noise is drawn per policy.  Only the learner runs
    customer by customer: the contexts are drawn first, and the outcome
    oracle and every outcome plan are scored for all customers at once.
    Any failure at a customer is re-raised with (trial, customer)
    provenance.
    """
    if trial < 0:
        raise ValueError("trial index must be nonnegative")
    rng = RandomSource(config.seed).scoped(trial)
    m, a = generate_instance(config.instance, config.bounds, rng)
    bounds = config.bounds
    T = config.T
    outcome_mode = config.mode == "outcome"

    agent: AgentState | None = None
    if LEARNER_POLICY in config.policies:
        agent = make_agent(
            bounds,
            T,
            delta=config.delta,
            width_scale=config.width_scale,
            n_underbar=config.n_underbar,
            Gamma_override=config.Gamma_trunc,
            planner_mode=config.mode,
        )
    grid = default_bid_grid(bounds, config.bid_grid_points)

    xs = []
    for t in range(1, T + 1):
        with _provenance(trial, t):
            xs.append(sample_context(config.instance, bounds, rng.stream(t, "ctx")))
    batch = batch_params(np.array(xs), m, a)
    outcome_opt = best_outcome_values(batch)
    plans = {}  # each customer's target outcomes, by policy
    for name in config.policies:
        if name != LEARNER_POLICY:
            policy = BaselinePolicy(kind=name, H=config.H)
            plans[name] = [
                baseline_act(policy, rng.stream(t, "plan", name) if name == "random"
                             else _NULL_RNG)
                for t in range(1, T + 1)
            ]
        elif outcome_mode:
            plans[name] = []  # filled as the learner plays
    realized = {name: np.empty(T) for name in config.policies}
    expected = {LEARNER_POLICY: np.empty(T)}  # the dp-mode learner's
    dp_opt = np.empty(T)
    episodes: list[tuple[int, EpisodeLog]] | None = (
        [] if config.emit_logs and agent is not None else None
    )
    gap_total = 0.0

    for t, x in enumerate(xs, start=1):
        with _provenance(trial, t):
            if not outcome_mode or t <= ORACLE_GAP_SAMPLE:
                params_true = params_from_true(x, m, a, B_A=bounds.B_A)
                dp_opt[t - 1] = dp_policy(params_true, grid, mode="auction").value
            if t <= ORACLE_GAP_SAMPLE:
                gap_total += float(outcome_opt[t - 1] - dp_opt[t - 1])

            hobs = draw_hobs(x, a, rng, t)
            for name in config.policies:
                if name == LEARNER_POLICY:
                    decision = act(agent, x, grid)
                    policy, mode = decision.policy, decision.mode
                else:
                    plan = plans[name][t - 1]
                    policy, mode = (lambda h, s, xx, plan=plan: plan[h - 1]), "forced"
                log = run_episode(
                    policy, x, m, a, rng, mode,
                    t=t, noise_label=name, bounds=bounds, hobs=hobs,
                )
                realized[name][t - 1] = log.realized_reward
                if name != LEARNER_POLICY:
                    continue
                update(agent, log)
                if episodes is not None:
                    episodes.append((trial, log))
                if outcome_mode:
                    plans[name].append(decision.plan)
                elif decision.plan is not None:
                    expected[name][t - 1] = outcome_value(decision.plan, params_true)
                else:
                    expected[name][t - 1] = policy_value(
                        params_true, lambda h, s: decision.policy(h, s, x)
                    )

    # round h of every customer's plan at once
    for name, p in plans.items():
        expected[name] = outcome_values(np.array(p).T, batch)
    opt = outcome_opt if outcome_mode else dp_opt
    return TrialResult(
        trial=trial,
        realized={name: np.cumsum(opt - realized[name]) for name in config.policies},
        expected={name: np.cumsum(opt - expected[name]) for name in config.policies},
        instance=instance_to_dict(m, a),
        agent_snapshot=agent_to_dict(agent) if agent is not None else None,
        oracle_gap=gap_total / min(T, ORACLE_GAP_SAMPLE),
        episodes=episodes,
        contexts=None if episodes is None else [
            (trial, t, x) for t, x in enumerate(xs, start=1)
        ],
    )


@contextlib.contextmanager
def _provenance(trial: int, t: int) -> Iterator[None]:
    """Re-raise any failure with the trial and customer it happened at."""
    try:
        yield
    except Exception as exc:
        raise RuntimeError(f"trial {trial}, customer {t}: {exc}") from exc


# Fixed baselines never draw from their generator; a shared dummy keeps the
# call signature uniform without minting a stream per customer.
_NULL_RNG = np.random.default_rng(0)


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


def _run_trial_args(args: tuple[ExperimentConfig, int]) -> TrialResult:
    return run_trial(*args)


def run_experiment(
    config: ExperimentConfig, out_dir: str | Path | None = None
) -> ExperimentResult:
    """Run all trials, aggregate in fixed trial order, and optionally
    persist curves, summary, per-trial instance snapshots and (when the
    config emits logs) the learner's episode logs and estimator snapshots.

    A failed trial aborts the whole experiment with its provenance; nothing
    is silently dropped.
    """
    jobs = [(config, k) for k in range(config.trials)]
    try:
        if config.workers > 1:
            with ProcessPoolExecutor(max_workers=config.workers) as pool:
                trials = tuple(pool.map(_run_trial_args, jobs))
        else:
            trials = tuple(run_trial(config, k) for k in range(config.trials))
    except Exception as exc:
        raise RuntimeError(f"experiment aborted: {exc}") from exc

    summaries = {
        name: _summarize_policy(config, trials, name) for name in config.policies
    }
    gap = float(np.mean([tr.oracle_gap for tr in trials]))
    result = ExperimentResult(
        config=config, trials=trials, summaries=summaries, oracle_gap=gap
    )
    if out_dir is not None:
        write_outputs(result, out_dir)
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


def write_curves_csv(path: Path, result: ExperimentResult) -> None:
    cfg = result.config
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "t", "policy", "cum_regret", "cum_regret_expected"])
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

    contexts = read_context_csv(contexts_path)
    agent = _agent_for(config)
    seen: int | None = None
    for trial, log in read_episode_csv(log_path, contexts):
        if seen is None:
            seen = trial
        elif trial != seen:
            raise ValueError(
                f"log mixes trials {seen} and {trial}; replay one trial at a time"
            )
        update(agent, log)
    return agent_to_dict(agent)
