"""The learning agent: a forced-exposure exploration schedule followed by
optimistic planning against estimated parameters, plus the three fixed
baseline policies used in the benchmark.

The learner plans one customer at a time on the planners' one input,
`OutcomeParams` built from its estimates (`optimistic_params`).  Every
policy plays a customer as a row of bids by state id, which the simulator
bids at the auction: the forced bids of a target outcome per round
(`forced_bids`: the exploration schedule, outcome mode and the baselines),
or, in dp mode past exploration, the exact second-price bid.  In outcome
mode a block of customers can also be planned at once, in arrays with the
same operations element by element: drafted on the estimates as they
stand (`draft_plans`), then checked against the estimates each customer
would have seen one at a time (`check_drafts`).
"""

from __future__ import annotations

import bisect
import copy
import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .environment import Episodes, delay_token, theta_token
from .estimation import (
    AuctionEstimator,
    ConfidenceConfig,
    DelayEstimator,
    ThetaEstimator,
    _rowdot,
    crtm_update,
    delay_radius,
    optimistic_mean,
    ridge_update,
    sigma_estimate,
    solve_stacked,
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
    state_table,
    win_index,
)
from .planning import (
    OutcomeParams,
    OutcomePlan,
    best_outcome_plan,
    best_outcome_plans,
    dp_policy,
    forced_bids,
)

__all__ = [
    "AgentState",
    "SIGMA_FLOOR",
    "make_agent",
    "default_n_underbar",
    "exploration_plan",
    "exploration_window",
    "optimistic_params",
    "act",
    "update",
    "Estimates",
    "draft_plans",
    "exploit_plans",
    "check_drafts",
    "baseline_bids",
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


def optimistic_params(agent: AgentState, x: np.ndarray) -> OutcomeParams:
    """Planner inputs at the top of the confidence region: upper conversion
    means, upper delays (full optimism before any delay data), and the HOB
    means of the estimated auction model projected onto the bounds (each
    beta row onto the B_beta ball, the noise scale into [SIGMA_FLOOR,
    sigma_max]), which keeps them finite."""
    b = agent.bounds
    mu = [optimistic_mean(est, x, agent.cfg.gamma, b=b.b) for est in agent.theta_bank]
    delays = [agent.delay_bank[lag] for lag in range(1, b.H)]
    delay = [1.0, *(_upper_delay(agent, est.estimate, est.N) for est in delays)]
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


def _upper_delay(agent: AgentState, d_hat: float | None, N: int) -> float:
    """A lag's planned delay factor: its estimate plus the confidence
    radius after N rounds, clipped to [0, B_d], or B_d before any data."""
    b = agent.bounds
    if d_hat is None:
        return b.B_d
    radius = delay_radius(N, agent.cfg.gamma_raw, b, b.H, agent.T, agent.cfg.delta,
                          width_scale=agent.cfg.width_scale)
    return min(max(d_hat + radius, 0.0), b.B_d)


def act(agent: AgentState, x: np.ndarray, t: int | None = None) -> Sequence[float]:
    """Customer t's bids by state id (by default agent.t's): the forced
    bids of scheduled exposures during exploration, which read no estimate
    and so may run ahead of the updates, planned optimism afterwards."""
    t, H = agent.t if t is None else t, agent.bounds.H
    if t <= exploration_window(agent.n_underbar, H):
        return forced_bids(exploration_plan(t, agent.n_underbar, H))
    if t != agent.t:
        raise ValueError(f"customer {t}: the learner expects customer {agent.t}")
    params = optimistic_params(agent, x)
    if agent.planner_mode == "outcome":
        return forced_bids(best_outcome_plan(params)[0])
    return dp_policy(params, agent.bounds.B_A)[0]


def exploit_plans(agent: AgentState, seen: Estimates, X: np.ndarray) -> np.ndarray:
    """Outcome mode's plans, (n, H) bools, of the customers of contexts X
    (n, d), each planned on its estimates in `seen`: bit for bit the plan
    `act` makes on them.  Every step is `optimistic_params` in arrays, with
    the same operations element by element; the HOB means and the delay
    factors take the scalar closed forms per element, since `np.exp` and
    `** 2` are not the scalar ones bit for bit.  A width that the scalar
    square root would reject raises ValueError."""
    b, cfg = agent.bounds, agent.cfg
    n = len(X)
    width = 0.0  # what the product gives: V is positive definite
    if cfg.gamma:
        q = _rowdot(X, solve_stacked(seen.V, X[:, :, None])[..., 0])
        if (q < 0.0).any():
            raise ValueError("math domain error")
        width = math.sqrt(cfg.gamma) * np.sqrt(q)
    mu = np.maximum(_rowdot(X, seen.theta) + width, b.b)
    delay = np.ones((b.H, n))
    for lag in range(1, b.H):  # one customer at a time, in Python scalars
        terms = zip(map(float, seen.numerator[lag - 1]), map(float, seen.denominator[lag - 1]),
                    map(int, seen.N[lag - 1]))
        delay[lag] = np.fromiter((_upper_delay(agent, None if den <= 0.0 else num / den, N)
                                  for num, den, N in terms), float)
    beta = seen.beta * (b.B_beta / np.maximum(np.sqrt(_rowdot(seen.beta, seen.beta)),
                                              b.B_beta))[..., None]  # cap_norm's
    sigma = np.minimum(np.maximum(np.sqrt(seen.rss / seen.count), SIGMA_FLOOR), b.sigma_max)
    log_hob = _rowdot(X, beta)
    hob = np.fromiter(map(lognormal_mean, map(float, log_hob.flat),
                          map(float, np.broadcast_to(sigma, log_hob.shape).flat)),
                      float, log_hob.size).reshape(log_hob.shape)
    return best_outcome_plans(OutcomeParams(mu=mu, delay=delay, hob=hob))


def draft_plans(agent: AgentState, X: np.ndarray) -> np.ndarray:
    """`exploit_plans` of customers X all planned on the learner's current
    estimates: the plan `act` makes for the first of them, and a draft of
    the others' that `check_drafts` checks."""
    H, theta = agent.bounds.H, agent.theta_bank
    auction = [agent.auction_bank[h] for h in range(1, H + 1)]
    delays = [agent.delay_bank[lag] for lag in range(1, H)]

    def column(estimators, key: str) -> np.ndarray:
        return np.array([getattr(est, key) for est in estimators])[:, None]

    return exploit_plans(agent, Estimates(
        theta=column(theta, "theta_hat"),
        V=column(theta, "V") if agent.cfg.gamma else None,
        numerator=column(delays, "numerator").reshape(H - 1, 1),
        denominator=column(delays, "denominator").reshape(H - 1, 1),
        N=column(delays, "N").reshape(H - 1, 1),
        # as update's pre-sample estimates
        beta=solve_stacked(column(auction, "gram"), column(auction, "moment")[..., None])[..., 0],
        rss=column(auction, "residual_sq_sum"),
        count=column(auction, "count"),
    ), X)


def check_drafts(agent: AgentState, episodes: Episodes, drafts: np.ndarray) -> int:
    """Consume a played run of exploit customers whose plans were drafted
    (`drafts`, (n, H)), and return k, the customers up to the first whose
    draft is not the plan it would have made one at a time, on the
    estimates after the customers before it.  The learner's state becomes
    that after consuming the first k episodes: an updated copy is adopted
    when all n hold, or the k are consumed again.  Episodes from k on are
    dropped."""
    ahead = replace(agent, theta_bank=list(map(copy.copy, agent.theta_bank)),
                    delay_bank={k: copy.copy(e) for k, e in agent.delay_bank.items()},
                    auction_bank={k: copy.copy(e) for k, e in agent.auction_bank.items()})
    seen = _consume(ahead, episodes, seen=True)  # an update replaces, never writes, arrays
    missed = np.flatnonzero((exploit_plans(agent, seen, episodes.x) != drafts).any(axis=1))
    if not missed.size:
        vars(agent).update(vars(ahead))
        return len(episodes)
    update(agent, episodes[:missed[0]])
    return int(missed[0])


@functools.cache
def _home_buckets(H: int) -> np.ndarray:
    """Provenance: the one bucket a round may be in, by state id and outcome
    (lost, won), from the state's own lags.  W rounds are only wins at the
    matching theta row or never-exposed losses feeding natural demand; D
    rounds (H + lag) are the later losses."""
    return np.array([[lose_index(s.s2) if s.s1 == NEVER else H + s.s1, win_index(s.s1)]
                     for s in state_table(H).states])


def update(agent: AgentState, episodes: Episodes) -> AgentState:
    """Consume a run of consecutive episodes (one customer is a run of one),
    bit for bit as one at a time: per round position a ridge sample per
    customer, per theta row its W rounds in customer-major, round-minor
    order, per lag its delay rounds, each base rate from its row's estimate
    after the round's own customer.  Every error raised here names the
    customer."""
    boundary = exploration_window(agent.n_underbar, agent.bounds.H)
    cut = boundary + 1 - agent.t
    if 0 < cut < len(episodes):  # the underfed check runs at the boundary
        update(agent, episodes[:cut])
        return update(agent, episodes[cut:])
    _consume(agent, episodes)
    return agent


class Estimates(NamedTuple):
    """The estimates that each of n customers plans on, by position, along
    axis 1 of every array (of length 1 when all plan on the same):
    theta row i's effect estimate `theta` (H+1, n, d) and metric `V` (H+1,
    n, d, d; None when the width is switched off), each lag's ratio terms
    `numerator`, `denominator` and `N` (H-1, n), and each round position's
    ridge estimate `beta` (H, n, d), residual sum `rss` and sample `count`
    (H, n)."""

    theta: np.ndarray
    V: np.ndarray | None
    numerator: np.ndarray
    denominator: np.ndarray
    N: np.ndarray
    beta: np.ndarray
    rss: np.ndarray
    count: np.ndarray


def _consume(agent: AgentState, episodes: Episodes, seen: bool = False) -> Estimates | None:
    """`update` of a run that does not cross the window's edge; with `seen`,
    also the estimates each customer of the run planned on, those before
    its own episode, taken from the update's running terms."""
    n, H = episodes.won.shape
    if not n:
        return None
    boundary = exploration_window(agent.n_underbar, agent.bounds.H)
    t0, ts, hobs = agent.t, episodes.t.tolist(), episodes.hob.ravel().tolist()
    if ts != list(range(t0, t0 + n)):
        k = next(k for k, t in enumerate(ts) if t != t0 + k)
        raise ValueError(f"customer {ts[k]}: expected customer {t0 + k}")
    if not all(0.0 < v < math.inf for v in hobs):
        j = next(j for j, v in enumerate(hobs) if not 0.0 < v < math.inf)
        raise ValueError(f"customer {ts[j // H]}, round {j % H + 1}: log HOB must "
                         f"be finite, got the HOB {hobs[j]!r}")
    bucket = split_episode(episodes)  # theta row i (W), or H + lag (D)
    ids = episodes.ids[:, :H]
    misfiled = bucket != _home_buckets(H)[ids, episodes.won.view(np.uint8)]
    if misfiled.any():
        k, h = np.argwhere(misfiled)[0].tolist()
        i = int(bucket[k, h])
        kind = f"a clean sample of theta row {i}" if i <= H else f"a delay sample of lag {i - H}"
        raise ValueError(f"customer {ts[k]}, round {h + 1} is not {kind}")
    auction = [agent.auction_bank[h] for h in range(1, H + 1)]
    counts = [est.count for est in auction]
    betas, rss = ridge_update(auction, episodes.x,
                              np.array(list(map(math.log, hobs))).reshape(n, H))
    del hobs  # not held while the run is consumed
    # the rounds by bucket; a stable sort keeps each customer-major, round-minor
    order = np.argsort(bucket, axis=None, kind="stable")
    ends = [0, *np.bincount(bucket.ravel(), minlength=2 * H).cumsum().tolist()]
    customer = order // H
    X, ys, ks = episodes.x[customer], episodes.conversions.ravel()[order], customer.tolist()
    paths, metrics = [], []  # by theta row: its estimates and metrics from before the run
    for i, est in enumerate(agent.theta_bank):
        a, b = ends[i], ends[i + 1]
        if b > a:
            path, metric = crtm_update(est, X[a:b], ys[a:b], agent.cfg)
        else:
            path, metric = est.theta_hat[None], est.V[None]
        paths.append(path)
        metrics.append(metric)
    base = lose_index(state_table(H).s2[ids]).ravel()[order].tolist()  # a loss's row
    ratios = []  # by lag: its numerators and denominators from before the run, its N
    for lag in range(1, H):
        a, b = ends[H + lag], ends[H + lag + 1]
        est = agent.delay_bank[lag]
        ratios.append(([est.numerator], [est.denominator], est.N))
        if b > a:  # each base rate from its row's estimate after the round's customer
            thetas = [paths[i][bisect.bisect_right(ks, k, ends[i], ends[i + 1]) - ends[i]]
                      for k, i in zip(ks[a:b], base[a:b])]
            ratios[-1] = (*tsmle_update(est, bucket.ravel()[order[a:b]] - H, ys[a:b],
                                        X[a:b], thetas, agent.bounds.b), ratios[-1][2])
    agent.t += n
    if agent.t == boundary + 1:
        for lag, est in agent.delay_bank.items():
            if est.N < agent.n_underbar:
                raise RuntimeError(
                    f"customer {boundary}: exploration underfed the lag-{lag} "
                    f"delay estimator: {est.N} < {agent.n_underbar}"
                )
    if not seen:
        return None
    # each bucket's running terms as they stood before each customer's own rounds
    before = [np.searchsorted(customer[a:b], np.arange(n)) for a, b in zip(ends, ends[1:])]
    rows, lags = before[:H + 1], before[H + 1:]
    return Estimates(
        theta=np.stack([path[k] for path, k in zip(paths, rows)]),
        V=np.stack([metric[k] for metric, k in zip(metrics, rows)]) if agent.cfg.gamma else None,
        numerator=np.array([np.asarray(num)[k] for (num, _, _), k in zip(ratios, lags)]
                           ).reshape(H - 1, n),
        denominator=np.array([np.asarray(den)[k] for (_, den, _), k in zip(ratios, lags)]
                             ).reshape(H - 1, n),
        N=np.array([N + k for (_, _, N), k in zip(ratios, lags)]).reshape(H - 1, n),
        beta=betas.transpose(1, 0, 2), rss=rss.T,
        count=np.array(counts)[:, None] + np.arange(n),
    )


# --- baselines ---------------------------------------------------------------

def baseline_bids(
    kind: str, H: int, rng: np.random.Generator | None
) -> tuple[float, ...]:
    """One customer's bids by state id under a fixed baseline, the forced
    bids of its target outcomes: win every round ("aggressive"), lose every
    round ("passive"), or ("random") round h won when bit h - 1 of a draw
    k < 2**H from `rng` is set."""
    if kind == "random":
        k = int(rng.integers(2**H))
        return forced_bids(tuple(bool((k >> (h - 1)) & 1) for h in range(1, H + 1)))
    return forced_bids(({"aggressive": True, "passive": False}[kind],) * H)


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
