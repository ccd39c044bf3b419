"""Episode planners, all one backward induction over reachable exposure
states with a per-planner choice of bid at each state.

Outcome planning picks a target win/lose sequence directly (a forced winner
pays the unconditional HOB mean), while grid planning picks bids from a grid
and wins stochastically at the auction.  A closed-form continuation-value
bid serves as the exact continuous-bid optimum for testing the grid planner.

The expected round value is written once, for one win probability or an
array of them.  The grid planner tabulates the win probability and the
expected payment per round over the whole grid (neither depends on the
state), scores every bid of a state in one array expression and keeps the
first maximum, which gives the same floats as scoring the bids one by one
with `auction_round_value`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import (
    INITIAL_STATE,
    AuctionModel,
    Bounds,
    ExposureState,
    TrueModel,
    delay_index,
    expected_payment,
    hob_cdf_terms,
    hob_mean,
    lose_index,
    next_state,
    reachable_states,
    win_index,
    win_probability,
)

__all__ = [
    "PlanParams",
    "OutcomePlan",
    "PolicyTable",
    "params_from_true",
    "auction_round_value",
    "outcome_value",
    "best_outcome_plan",
    "dp_policy",
    "closed_form_bid",
    "closed_form_policy",
    "policy_value",
    "default_bid_grid",
    "oracle_value",
]

OutcomePlan = tuple[bool, ...]


@dataclass(frozen=True)
class PlanParams:
    """Everything planning needs for one customer: the conversion mean of
    each theta row at this context, the delay factors (both by position, as
    in `TrueModel`), the auction view, the context itself, and the bid
    cap."""

    mu: Sequence[float]
    delay: Sequence[float]
    auction: AuctionModel
    x: np.ndarray
    B_A: float

    def __post_init__(self) -> None:
        if any(v < 0 for v in self.mu):
            raise ValueError("conversion means must be clamped nonnegative")
        if self.delay[0] != 1.0:
            raise ValueError("the never-exposed delay factor is fixed at 1")
        if self.B_A <= 0:
            raise ValueError("bid cap must be positive")

    @property
    def H(self) -> int:
        return self.auction.beta.shape[0]


def params_from_true(
    x: np.ndarray, m: TrueModel, a: AuctionModel, B_A: float = float("inf")
) -> PlanParams:
    """Plan against the true parameters (the oracle's view)."""
    # one dot per row: theta @ x can differ from it in the last bit
    mu = [float(row @ x) for row in m.theta]
    return PlanParams(mu=mu, delay=m.delay.tolist(), auction=a, x=x, B_A=B_A)


def _mu_win(params: PlanParams, s: ExposureState) -> float:
    """Conversion mean of a won round in state `s`."""
    return params.mu[win_index(s.s1)]


def _mu_lose(params: PlanParams, s: ExposureState) -> float:
    """Conversion mean of a lost round in state `s`, delay factor applied."""
    return params.delay[delay_index(s.s1)] * params.mu[lose_index(s.s2)]


def _forced_round_reward(
    params: PlanParams, h: int, s: ExposureState, won: bool
) -> float:
    if won:
        return _mu_win(params, s) - hob_mean(h, params.x, params.auction)
    return _mu_lose(params, s)


def _round_value(
    mu_win: float,
    mu_lose: float,
    F: float | np.ndarray,
    pay: float | np.ndarray,
    v_win: float,
    v_lose: float,
) -> float | np.ndarray:
    """Expected round reward (conversions minus second-price payment) plus
    the successor values mixed by the win probability `F`; `F` and `pay`
    are floats or arrays over bids."""
    return mu_lose * (1.0 - F) + mu_win * F - pay + F * v_win + (1.0 - F) * v_lose


def auction_round_value(
    params: PlanParams,
    h: int,
    s: ExposureState,
    bid: float,
    v_win: float,
    v_lose: float,
) -> float:
    """Expected round reward at `bid` plus the win-probability mixture of
    the successor values.

    The payment enters as p(bid) * F(bid), expanded in closed form so the
    bid -> 0 limit needs no division by a vanishing win probability.
    """
    return _round_value(
        _mu_win(params, s),
        _mu_lose(params, s),
        win_probability(h, bid, params.x, params.auction),
        expected_payment(h, bid, params.x, params.auction),
        v_win,
        v_lose,
    )


def outcome_value(plan: OutcomePlan, params: PlanParams) -> float:
    """Expected episode value of a target outcome sequence.

    Contributions are accumulated from the last round backward, matching
    the dynamic program's evaluation order exactly, so the value of the
    plan `best_outcome_plan` returns equals its DP value bit for bit.
    """
    H = params.H
    if len(plan) != H:
        raise ValueError(f"plan must cover all {H} rounds")
    s = INITIAL_STATE
    contributions = []
    for h, won in enumerate(plan, start=1):
        contributions.append(_forced_round_reward(params, h, s, won))
        s = next_state(s, won)
    total = 0.0
    for c in reversed(contributions):
        total += c
    return total


@dataclass(frozen=True)
class PolicyTable:
    """Bids and continuation values on every reachable (round, state)."""

    bids: dict[tuple[int, ExposureState], float]
    values: dict[tuple[int, ExposureState], float]

    @property
    def value(self) -> float:
        return self.values[(1, INITIAL_STATE)]

    def act(self, h: int, s: ExposureState) -> float:
        return self.bids[(h, s)]


def _backward_induction(
    params: PlanParams, choose: Callable[..., tuple[float, float]]
) -> PolicyTable:
    """Visit every reachable (round, state) from the last round back.

    `choose(h, s, v_win, v_lose)` gets the values of the two successor
    states (zero after the last round) and returns the bid taken at (h, s)
    and its value.
    """
    H = params.H
    bids: dict[tuple[int, ExposureState], float] = {}
    values: dict[tuple[int, ExposureState], float] = {}
    layers = reachable_states(H)
    for h in range(H, 0, -1):
        for s in layers[h - 1]:
            v_win = values[(h + 1, next_state(s, True))] if h < H else 0.0
            v_lose = values[(h + 1, next_state(s, False))] if h < H else 0.0
            bids[(h, s)], values[(h, s)] = choose(h, s, v_win, v_lose)
    return PolicyTable(bids=bids, values=values)


def best_outcome_plan(params: PlanParams) -> tuple[OutcomePlan, float]:
    """The best target outcome sequence and its value: the two-action
    forced DP, traced forward from the first round.  Ties go to losing, so
    equal-valued plans resolve to the lexicographically smallest (lose
    before win)."""
    table = dp_policy(params, np.array([0.0, params.B_A]), mode="forced")
    plan = []
    s = INITIAL_STATE
    for h in range(1, params.H + 1):
        won = table.act(h, s) > 0.0
        plan.append(won)
        s = next_state(s, won)
    return tuple(plan), table.value


def dp_policy(
    params: PlanParams, bid_grid: np.ndarray, mode: str = "auction"
) -> PolicyTable:
    """Backward induction over reachable states on a fixed bid grid.

    Auction mode scores each bid by its expected round reward plus the
    win-probability mixture of successor values.  Forced mode treats any
    positive grid bid as a guaranteed win (paying the HOB mean) and zero as
    a guaranteed loss.  Ties go to the lower bid.
    """
    if mode not in ("auction", "forced"):
        raise ValueError(f"unknown planning mode {mode!r}")
    grid = np.asarray(bid_grid, dtype=float).tolist()
    if not grid or sorted(grid) != grid:
        raise ValueError("bid grid must be nonempty and ascending")
    if grid[0] < 0 or grid[-1] > params.B_A:
        raise ValueError("bid grid must lie in [0, B_A]")

    if mode == "forced":

        def choose(h, s, v_win, v_lose):
            best_bid, best = None, -float("inf")
            for a in grid:
                if a > 0.0:
                    q = _forced_round_reward(params, h, s, True) + v_win
                else:
                    q = _forced_round_reward(params, h, s, False) + v_lose
                if q > best:
                    best_bid, best = a, q
            return best_bid, best

        return _backward_induction(params, choose)

    # F and the payment depend on the round and the bid, never on the state:
    # one table row per round, every bid of a state scored at once
    positive = np.array(grid) > 0.0
    log_bids = np.array([math.log(b) for b in grid if b > 0.0])
    F = np.zeros((params.H, len(grid)))
    pay = np.zeros((params.H, len(grid)))
    for h in range(1, params.H + 1):
        F[h - 1, positive], pay[h - 1, positive] = hob_cdf_terms(
            h, log_bids, params.x, params.auction
        )

    def choose(h, s, v_win, v_lose):
        q = _round_value(
            _mu_win(params, s), _mu_lose(params, s), F[h - 1], pay[h - 1],
            v_win, v_lose,
        )
        # the first maximum, as a strict > scan from -inf finds it; NaN
        # never wins
        q[np.isnan(q)] = -np.inf
        i = int(np.argmax(q))
        if q[i] == -np.inf:
            return None, -float("inf")
        return grid[i], float(q[i])

    return _backward_induction(params, choose)


def closed_form_bid(
    s: ExposureState, params: PlanParams, v_win: float, v_lose: float
) -> float:
    """Truthful second-price bid with continuation values: the marginal
    value of winning this round, clamped to [0, B_A]."""
    marginal = _mu_win(params, s) - _mu_lose(params, s) + v_win - v_lose
    return min(max(marginal, 0.0), params.B_A)


def closed_form_policy(params: PlanParams) -> PolicyTable:
    """Backward induction with the exact continuous-bid maximizer at every
    state; the optimal auction-mode policy."""

    def choose(h, s, v_win, v_lose):
        a = closed_form_bid(s, params, v_win, v_lose)
        return a, auction_round_value(params, h, s, a, v_win, v_lose)

    return _backward_induction(params, choose)


def policy_value(
    params: PlanParams, bid_fn: Callable[[int, ExposureState], float]
) -> float:
    """Expected episode value of a fixed bid rule under these parameters
    (auction semantics), by backward induction over reachable states."""

    def choose(h, s, v_win, v_lose):
        a = float(bid_fn(h, s))
        return a, auction_round_value(params, h, s, a, v_win, v_lose)

    return _backward_induction(params, choose).value


def default_bid_grid(bounds: Bounds, points: int = 256) -> np.ndarray:
    """Zero plus log-spaced bids from b/100 up to the cap."""
    return np.concatenate(
        [[0.0], np.geomspace(bounds.b * 1e-2, bounds.B_A, points)]
    )


def oracle_value(
    x: np.ndarray,
    m: TrueModel,
    a: AuctionModel,
    mode: str = "outcome",
    bounds: Bounds | None = None,
) -> float:
    """Best achievable expected episode value under the true parameters.

    Outcome mode maximizes over target outcome sequences; dp mode runs the
    grid planner (requires bounds for the bid grid)."""
    if mode == "outcome":
        params = params_from_true(x, m, a)
        return best_outcome_plan(params)[1]
    if mode == "dp":
        if bounds is None:
            raise ValueError("dp mode needs bounds for the bid grid")
        params = params_from_true(x, m, a, B_A=bounds.B_A)
        return dp_policy(params, default_bid_grid(bounds)).value
    raise ValueError(f"unknown oracle mode {mode!r}")
