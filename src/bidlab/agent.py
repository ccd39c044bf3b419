"""The learning agent: a forced-exposure exploration schedule followed by
optimistic planning against estimated parameters, plus the three fixed
baseline policies used in the benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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
    AuctionModel,
    Bounds,
    cap_norm,
    lose_index,
    win_index,
)
from .planning import (
    OutcomePlan,
    PlanParams,
    best_outcome_plan,
    dp_policy,
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
    gamma_raw: float
    n_underbar: int
    planner_mode: str  # "outcome" | "dp"
    bid_mode: str      # "forced" | "auction"
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
    bid_mode: str = "forced",
) -> AgentState:
    if planner_mode not in ("outcome", "dp"):
        raise ValueError(f"unknown planner mode {planner_mode!r}")
    if bid_mode not in ("forced", "auction"):
        raise ValueError(f"unknown bid mode {bid_mode!r}")
    gamma_raw = theta_gamma(bounds, T, delta)
    cfg = ConfidenceConfig(
        delta=delta,
        gamma=width_scale * gamma_raw,
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
        gamma_raw=gamma_raw,
        n_underbar=(
            n_underbar if n_underbar is not None else default_n_underbar(bounds, T)
        ),
        planner_mode=planner_mode,
        bid_mode=bid_mode,
        theta_bank=[
            ThetaEstimator(index=i, dim=bounds.dim, B_theta=bounds.B_theta)
            for i in range(bounds.H + 1)
        ],
        delay_bank={k: DelayEstimator(index=k) for k in range(1, bounds.H)},
        auction_bank={
            h: AuctionEstimator(h=h, dim=bounds.dim) for h in range(1, bounds.H + 1)
        },
    )


@dataclass(frozen=True)
class Decision:
    """What the agent wants to do with one customer: an execution mode for
    the simulator, the policy callable it expects, and the target plan when
    one exists (outcome-style decisions)."""

    mode: str
    policy: Callable
    plan: OutcomePlan | None
    exploring: bool


def _plan_decision(plan: OutcomePlan, bid_mode: str, B_A: float, exploring: bool) -> Decision:
    if bid_mode == "forced":
        return Decision(
            mode="forced",
            policy=lambda h, s, x: plan[h - 1],
            plan=plan,
            exploring=exploring,
        )
    return Decision(
        mode="auction",
        policy=lambda h, s, x: B_A if plan[h - 1] else 0.0,
        plan=plan,
        exploring=exploring,
    )


def optimistic_params(agent: AgentState, x: np.ndarray) -> PlanParams:
    """Planner inputs at the top of the confidence region: upper conversion
    means, upper delays (full optimism before any delay data), and the
    estimated auction model projected onto the bounds (each beta row onto
    the B_beta ball, the noise scale into [SIGMA_FLOOR, sigma_max]), which
    keeps the planner's HOB mean finite."""
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
                est.N, agent.gamma_raw, b, b.H, agent.T, agent.cfg.delta,
                width_scale=agent.cfg.width_scale,
            )
            delay.append(min(max(d_hat + radius, 0.0), b.B_d))
    beta = np.stack(
        [cap_norm(agent.auction_bank[h].beta_hat, b.B_beta) for h in range(1, b.H + 1)]
    )
    sigma = np.array(
        [
            min(max(sigma_estimate(agent.auction_bank[h]) or 0.0, SIGMA_FLOOR),
                b.sigma_max)
            for h in range(1, b.H + 1)
        ]
    )
    return PlanParams(
        mu=mu, delay=delay, auction=AuctionModel(beta=beta, sigma=sigma),
        x=np.asarray(x, dtype=float), B_A=b.B_A,
    )


def act(agent: AgentState, x: np.ndarray, bid_grid: np.ndarray) -> Decision:
    """Decide one episode: scheduled exposures during exploration, planned
    optimism afterwards.  The dp planner picks its bids from `bid_grid`."""
    if agent.exploring:
        plan = exploration_plan(agent.t, agent.n_underbar, agent.bounds.H)
        return _plan_decision(plan, agent.bid_mode, agent.bounds.B_A, True)
    params = optimistic_params(agent, x)
    if agent.planner_mode == "outcome":
        plan, _ = best_outcome_plan(params)
        return _plan_decision(plan, agent.bid_mode, agent.bounds.B_A, False)
    table = dp_policy(params, bid_grid)
    return Decision(
        mode="auction",
        policy=lambda h, s, x_: table.act(h, s),
        plan=None,
        exploring=False,
    )


def update(agent: AgentState, log: EpisodeLog) -> AgentState:
    """Consume one episode: auction regression on every round, then the
    split-bucket effect updates by theta row and the delay updates by lag."""
    if log.t != agent.t:
        raise ValueError(f"expected customer {agent.t}, got log for {log.t}")
    x = log.x
    for r in log.records:
        ridge_update(agent.auction_bank[r.h], x, math.log(r.hob))
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
            crtm_update(agent.theta_bank[i], x, float(r.conversions), agent.cfg)
    theta_snapshot = [est.theta_hat for est in agent.theta_bank]
    for lag in sorted(split.d):
        tsmle_update(
            agent.delay_bank[lag], split.d[lag], x, theta_snapshot, agent.bounds.b
        )
    agent.t += 1
    boundary = exploration_window(agent.n_underbar, agent.bounds.H)
    if agent.bid_mode == "forced" and agent.t == boundary + 1:
        for lag, est in agent.delay_bank.items():
            if est.N < agent.n_underbar:
                raise RuntimeError(
                    f"exploration underfed the lag-{lag} delay estimator: "
                    f"{est.N} < {agent.n_underbar}"
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
        "gamma_raw": agent.gamma_raw,
        "n_underbar": agent.n_underbar,
        "planner_mode": agent.planner_mode,
        "bid_mode": agent.bid_mode,
        "t": agent.t,
        "theta": {
            theta_token(i): est.to_dict() for i, est in enumerate(agent.theta_bank)
        },
        "delay": {delay_token(k): est.to_dict() for k, est in agent.delay_bank.items()},
        "auction": {str(h): est.to_dict() for h, est in agent.auction_bank.items()},
    }


def agent_from_dict(d: dict) -> AgentState:
    b = Bounds(**d["bounds"])
    cfg = ConfidenceConfig(**d["cfg"])
    return AgentState(
        bounds=b,
        T=int(d["T"]),
        cfg=cfg,
        gamma_raw=float(d["gamma_raw"]),
        n_underbar=int(d["n_underbar"]),
        planner_mode=d["planner_mode"],
        bid_mode=d["bid_mode"],
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
