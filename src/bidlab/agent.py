"""The learning agent: a forced-exposure exploration schedule followed by
optimistic planning against estimated parameters, plus the three fixed
baseline policies used in the benchmark.

The learner plans one customer at a time on the planners' one input,
`OutcomeParams` built from its estimates (`optimistic_params`).  A
`Decision` is a bid per state id, which the simulator bids at the auction:
the forced bids of a target outcome per round, or (in dp mode past
exploration) the exact second-price bid.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .environment import EpisodeLog, delay_token, theta_token
from .estimation import (
    AuctionEstimator,
    ConfidenceConfig,
    DelayEstimator,
    ThetaEstimator,
    crtm_update,
    delay_radius,
    optimistic_mean,
    ridge_update,
    sigma_estimate,
    split_episode,
    theta_gamma,
    truncation_threshold,
    tsmle_update,
)
from .model import (
    NEVER,
    Bounds,
    cap_norm,
    lognormal_mean,
    lose_index,
    win_index,
)
from .planning import (
    OutcomeParams,
    OutcomePlan,
    best_outcome_plan,
    dp_policy,
    forced_bids,
)

__all__ = [
    "AgentState",
    "Decision",
    "BaselinePolicy",
    "SIGMA_FLOOR",
    "make_agent",
    "default_n_underbar",
    "exploration_plan",
    "exploration_window",
    "optimistic_params",
    "act",
    "update",
    "baseline_act",
    "agent_to_dict",
    "agent_from_dict",
]

SIGMA_FLOOR = 1e-3


def default_n_underbar(bounds: Bounds, T: int) -> int:
    """Theory-derived exploration block size."""
    return math.ceil(
        32.0 * math.log(bounds.H * T)
        / (math.e * bounds.B_d * bounds.B_x * bounds.B_theta * bounds.b**2)
    )


def exploration_window(n_underbar: int, H: int) -> int:
    """Last customer index of the exploration phase."""
    return (H + 1) * n_underbar


def exploration_plan(t: int, n_underbar: int, H: int) -> OutcomePlan:
    """Block schedule: block l targets wins at rounds {1, l+1}; the final
    block is all-lose, giving clean natural-demand samples."""
    if not 1 <= t <= exploration_window(n_underbar, H):
        raise ValueError(f"customer {t} is outside the exploration window")
    l = min(max((t - 1) // n_underbar, 0), H)
    if l == H:
        return (False,) * H
    return tuple(h in (1, l + 1) for h in range(1, H + 1))


@dataclass
class AgentState:
    """All mutable learning state for one trial."""

    bounds: Bounds
    T: int
    cfg: ConfidenceConfig
    n_underbar: int
    planner_mode: str  # "outcome" | "dp"
    theta_bank: list[ThetaEstimator]  # by theta row
    delay_bank: dict[int, DelayEstimator]  # by lag, 1..H-1
    auction_bank: dict[int, AuctionEstimator]
    t: int = 1

    @property
    def exploring(self) -> bool:
        return self.t <= exploration_window(self.n_underbar, self.bounds.H)


def make_agent(
    bounds: Bounds,
    T: int,
    delta: float = 0.01,
    width_scale: float = 1.0,
    n_underbar: int | None = None,
    Gamma_override: float | None = None,
    planner_mode: str = "outcome",
) -> AgentState:
    if planner_mode not in ("outcome", "dp"):
        raise ValueError(f"unknown planner mode {planner_mode!r}")
    cfg = ConfidenceConfig(
        delta=delta,
        gamma_raw=theta_gamma(bounds, T, delta),
        Gamma_trunc=(
            Gamma_override
            if Gamma_override is not None
            else truncation_threshold(bounds, T, delta)
        ),
        width_scale=width_scale,
    )
    return AgentState(
        bounds=bounds,
        T=T,
        cfg=cfg,
        n_underbar=(
            n_underbar if n_underbar is not None else default_n_underbar(bounds, T)
        ),
        planner_mode=planner_mode,
        theta_bank=[
            ThetaEstimator(index=i, dim=bounds.dim, B_theta=bounds.B_theta)
            for i in range(bounds.H + 1)
        ],
        delay_bank={k: DelayEstimator(index=k) for k in range(1, bounds.H)},
        auction_bank={
            h: AuctionEstimator(h=h, dim=bounds.dim) for h in range(1, bounds.H + 1)
        },
    )


class Decision(NamedTuple):
    """What the agent does with one customer: bid `bids[i]` in the state of
    id i of `state_table(H)`.  `plan` holds the target outcomes when the
    bids force them (`forced_bids(plan)`: the exploration schedule and
    outcome mode), and is None for dp mode's exact bids."""

    bids: Sequence[float]
    plan: OutcomePlan | None


def optimistic_params(agent: AgentState, x: np.ndarray) -> OutcomeParams:
    """Planner inputs at the top of the confidence region: upper conversion
    means, upper delays (full optimism before any delay data), and the HOB
    means of the estimated auction model projected onto the bounds (each
    beta row onto the B_beta ball, the noise scale into [SIGMA_FLOOR,
    sigma_max]), which keeps them finite."""
    b = agent.bounds
    mu = [optimistic_mean(est, x, agent.cfg.gamma, b=b.b) for est in agent.theta_bank]
    delay = [1.0]
    for lag in range(1, b.H):
        est = agent.delay_bank[lag]
        d_hat = est.estimate
        if d_hat is None:
            delay.append(b.B_d)
        else:
            radius = delay_radius(
                est.N, agent.cfg.gamma_raw, b, b.H, agent.T, agent.cfg.delta,
                width_scale=agent.cfg.width_scale,
            )
            delay.append(min(max(d_hat + radius, 0.0), b.B_d))
    beta = np.stack(
        [cap_norm(agent.auction_bank[h].beta_hat, b.B_beta) for h in range(1, b.H + 1)]
    )
    sigma = [
        min(max(sigma_estimate(agent.auction_bank[h]) or 0.0, SIGMA_FLOOR), b.sigma_max)
        for h in range(1, b.H + 1)
    ]
    log_hob = [float(row @ x) for row in beta]
    return OutcomeParams(
        mu=mu, delay=delay, hob=[lognormal_mean(v, sd) for v, sd in zip(log_hob, sigma)],
        log_hob=log_hob, sigma=sigma,
    )


def act(agent: AgentState, x: np.ndarray, t: int | None = None) -> Decision:
    """Decide customer t's episode (by default agent.t): scheduled exposures
    during exploration, which read no estimate and so may run ahead of the
    updates, planned optimism afterwards."""
    t, H = agent.t if t is None else t, agent.bounds.H
    if t <= exploration_window(agent.n_underbar, H):
        plan = exploration_plan(t, agent.n_underbar, H)
        return Decision(forced_bids(plan), plan)
    if t != agent.t:
        raise ValueError(f"customer {t}: the learner expects customer {agent.t}")
    params = optimistic_params(agent, x)
    if agent.planner_mode == "outcome":
        plan, _ = best_outcome_plan(params)
        return Decision(forced_bids(plan), plan)
    bids, _ = dp_policy(params, agent.bounds.B_A)
    return Decision(bids, None)


def update(agent: AgentState, logs: Sequence[EpisodeLog]) -> AgentState:
    """Consume a run of consecutive episodes (one customer is a run of one),
    bit for bit as one at a time: per round position a ridge sample per
    customer, per theta row its W rounds in order, per lag its delay rounds,
    each base rate from its row's estimate after the round's own customer.
    Every error raised here names the customer."""
    if not logs:
        return agent
    boundary = exploration_window(agent.n_underbar, agent.bounds.H)
    cut = boundary + 1 - agent.t
    if 0 < cut < len(logs):  # the underfed check runs at the boundary
        update(agent, logs[:cut])
        return update(agent, logs[cut:])
    t0 = agent.t
    w, d = [[] for _ in agent.theta_bank], {}  # W rounds by theta row, D rounds by lag
    for k, log in enumerate(logs):
        if log.t != t0 + k:
            raise ValueError(f"customer {log.t}: expected customer {t0 + k}")
        for r in log.records:
            if not 0.0 < r.hob < math.inf:
                raise ValueError(f"customer {r.t}, round {r.h}: log HOB must be "
                                 f"finite, got the HOB {r.hob!r}")
        split = split_episode(log)
        for i, rounds in enumerate(split.w):
            for r in rounds:
                # provenance: W rounds only — wins at the matching row, or
                # never-exposed losses feeding natural demand
                home = win_index(r.state.s1) if r.won else lose_index(r.state.s2)
                if home != i or not (r.won or r.state.s1 == NEVER):
                    raise ValueError(
                        f"customer {r.t}, round {r.h} is not a clean sample of "
                        f"theta row {i}"
                    )
                w[i].append(r)
        for lag, rounds in split.d.items():
            d.setdefault(lag, []).extend(rounds)
    X = np.array([log.x for log in logs], dtype=float)
    ridge_update([agent.auction_bank[h] for h in range(1, agent.bounds.H + 1)], X,
                 [[math.log(r.hob) for r in log.records] for log in logs])
    paths = []  # by theta row: its rounds' customers, its estimates from before the run
    for est, rounds in zip(agent.theta_bank, w):
        ts, path = [r.t for r in rounds], [est.theta_hat]
        if rounds:
            ys = [r.conversions for r in rounds]
            path += crtm_update(est, X[[t - t0 for t in ts]], ys, agent.cfg)
        paths.append((ts, path))
    for lag in sorted(d):
        thetas = []
        for r in d[lag]:  # the base-rate row's estimate after r's customer
            ts, path = paths[lose_index(r.state.s2)]
            thetas.append(path[bisect.bisect_right(ts, r.t)])
        X_lag = X[[r.t - t0 for r in d[lag]]]
        tsmle_update(agent.delay_bank[lag], d[lag], X_lag, thetas, agent.bounds.b)
    agent.t += len(logs)
    if agent.t == boundary + 1:
        for lag, est in agent.delay_bank.items():
            if est.N < agent.n_underbar:
                raise RuntimeError(
                    f"customer {boundary}: exploration underfed the lag-{lag} "
                    f"delay estimator: {est.N} < {agent.n_underbar}"
                )
    return agent


# --- baselines ---------------------------------------------------------------

@dataclass(frozen=True)
class BaselinePolicy:
    """One of the fixed comparison policies."""

    kind: str  # "aggressive" | "random" | "passive"
    H: int

    def __post_init__(self) -> None:
        if self.kind not in ("aggressive", "random", "passive"):
            raise ValueError(f"unknown baseline {self.kind!r}")


def baseline_act(policy: BaselinePolicy, rng: np.random.Generator) -> OutcomePlan:
    """Target outcome sequence for one customer."""
    if policy.kind == "aggressive":
        return (True,) * policy.H
    if policy.kind == "passive":
        return (False,) * policy.H
    k = int(rng.integers(2**policy.H))
    return tuple(bool((k >> (h - 1)) & 1) for h in range(1, policy.H + 1))


# --- snapshots ---------------------------------------------------------------

def agent_to_dict(agent: AgentState) -> dict:
    b = agent.bounds
    return {
        "bounds": {
            "b": b.b, "B_x": b.B_x, "B_theta": b.B_theta, "B_d": b.B_d,
            "B_A": b.B_A, "H": b.H, "dim": b.dim, "B_beta": b.B_beta,
            "sigma_max": b.sigma_max,
        },
        "T": agent.T,
        "cfg": {
            "delta": agent.cfg.delta,
            "gamma": agent.cfg.gamma,
            "Gamma_trunc": agent.cfg.Gamma_trunc,
            "width_scale": agent.cfg.width_scale,
        },
        "gamma_raw": agent.cfg.gamma_raw,
        "n_underbar": agent.n_underbar,
        "planner_mode": agent.planner_mode,
        "bid_mode": "forced",  # outcome plans are played as forced bids
        "t": agent.t,
        "theta": {
            theta_token(i): est.to_dict() for i, est in enumerate(agent.theta_bank)
        },
        "delay": {delay_token(k): est.to_dict() for k, est in agent.delay_bank.items()},
        "auction": {str(h): est.to_dict() for h, est in agent.auction_bank.items()},
    }


def agent_from_dict(d: dict) -> AgentState:
    b, c = Bounds(**d["bounds"]), d["cfg"]
    cfg = ConfidenceConfig(delta=c["delta"], gamma_raw=float(d["gamma_raw"]),
                           Gamma_trunc=c["Gamma_trunc"], width_scale=c["width_scale"])
    if c["gamma"] != cfg.gamma:
        raise ValueError(f"cfg.gamma must be width_scale * gamma_raw = {cfg.gamma!r}, "
                         f"got {c['gamma']!r}")
    if d["bid_mode"] != "forced":
        raise ValueError(f"bid_mode must be 'forced', got {d['bid_mode']!r}")
    return AgentState(
        bounds=b,
        T=int(d["T"]),
        cfg=cfg,
        n_underbar=int(d["n_underbar"]),
        planner_mode=d["planner_mode"],
        theta_bank=[
            ThetaEstimator.from_dict(d["theta"][theta_token(i)], i)
            for i in range(b.H + 1)
        ],
        delay_bank={
            k: DelayEstimator.from_dict(d["delay"][delay_token(k)], k)
            for k in range(1, b.H)
        },
        auction_bank={
            int(h): AuctionEstimator.from_dict(sub) for h, sub in d["auction"].items()
        },
        t=int(d["t"]),
    )
