"""Episode planners, all one backward induction over the state ids of
`state_table(H)` with a per-planner choice of bid at each state.

Outcome planning picks a target win/lose sequence directly (a forced winner
pays the unconditional HOB mean), on floats for one customer or elementwise
on arrays over a batch of them (`batch_params`), which gives each customer
the same floats.  Grid planning picks bids from a grid and wins
stochastically at the auction.

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
from typing import Callable, NamedTuple, Sequence

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
    lognormal_mean,
    lose_index,
    state_table,
    win_index,
    win_probability,
)

__all__ = [
    "PlanParams",
    "OutcomeParams",
    "OutcomePlan",
    "PolicyTable",
    "params_from_true",
    "batch_params",
    "auction_round_value",
    "outcome_value",
    "outcome_values",
    "best_outcome_plan",
    "best_outcome_values",
    "dp_policy",
    "policy_value",
    "default_bid_grid",
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


class OutcomeParams(NamedTuple):
    """What outcome planning needs: the conversion mean of each theta row
    and the HOB mean of each round, floats for one customer or arrays over
    a batch of customers, and the delay factors by position."""

    mu: Sequence
    delay: Sequence[float]
    hob: Sequence


def _outcome_params(params: PlanParams) -> OutcomeParams:
    hob = [hob_mean(h, params.x, params.auction) for h in range(1, params.H + 1)]
    return OutcomeParams(mu=params.mu, delay=params.delay, hob=hob)


def batch_params(X: np.ndarray, m: TrueModel, a: AuctionModel) -> OutcomeParams:
    """Outcome-planning inputs for every row of the (T, dim) contexts `X`,
    bit for bit those `params_from_true` gives each row alone.

    The conversion means and the HOB log-means come from one product, which
    equals the per-row dot only on BLAS's matrix-matrix path: both operands
    need two or more rows (theta and beta stacked have 2H + 1 >= 3), so a
    single context is padded with a copy.  The HOB means take `math.exp`,
    since `np.exp` differs in the last bit.
    """
    H = len(a.sigma)
    padded = X if len(X) > 1 else np.vstack([X, X])
    means = (padded @ np.vstack([m.theta, a.beta]).T)[: len(X)].T
    hob = [np.array([lognormal_mean(v, sd) for v in row.tolist()])
           for row, sd in zip(means[H + 1:], a.sigma.tolist())]
    return OutcomeParams(mu=means[: H + 1], delay=m.delay.tolist(), hob=hob)


def _mu_win(params: PlanParams | OutcomeParams, s: ExposureState) -> float:
    """Conversion mean of a won round in state `s`."""
    return params.mu[win_index(s.s1)]


def _mu_lose(params: PlanParams | OutcomeParams, s: ExposureState) -> float:
    """Conversion mean of a lost round in state `s`, delay factor applied."""
    return params.delay[delay_index(s.s1)] * params.mu[lose_index(s.s2)]


def _forced_round_reward(op: OutcomeParams, h: int, s: ExposureState, won: bool):
    if won:
        return _mu_win(op, s) - op.hob[h - 1]
    return _mu_lose(op, s)


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


def _backward_induction(H: int, choose: Callable[..., tuple]) -> tuple[list, list]:
    """Visit every state id of `state_table(H)` from the last round back.

    `choose(h, s, v_win, v_lose)` gets the round, the state and the values
    of its two successors (0.0 after the last round) and returns the action
    taken there and its value: floats, or arrays over a batch of customers.
    Returns the actions and the values by id; the values end with the 0.0.
    """
    table = state_table(H)
    actions = [None] * len(table.states)
    values = [*actions, 0.0]
    for h in range(H, 0, -1):
        for i in table.layers[h - 1]:
            lose, win = table.next_id[i]
            s = table.states[i]
            actions[i], values[i] = choose(h, s, values[win], values[lose])
    return actions, values


def _policy_table(H: int, bids: list, values: list) -> PolicyTable:
    keys = state_table(H).keys
    return PolicyTable(bids=dict(zip(keys, bids)), values=dict(zip(keys, values)))


def _forced_policy(op: OutcomeParams, rule: Callable[..., bool]) -> tuple[list, list]:
    """Backward induction over forced outcomes: at each state,
    `rule(h, q_win, q_lose)` says whether to win, given the values of
    winning and of losing there; it is the action returned."""

    def choose(h, s, v_win, v_lose):
        q_win = _forced_round_reward(op, h, s, True) + v_win
        q_lose = _forced_round_reward(op, h, s, False) + v_lose
        won = rule(h, q_win, q_lose)
        if isinstance(won, np.ndarray):
            return won, np.where(won, q_win, q_lose)
        return won, q_win if won else q_lose

    return _backward_induction(len(op.hob), choose)


def _win_if_better(h: int, q_win, q_lose):
    return q_win > q_lose  # strict: ties go to losing


def outcome_values(plan: Sequence, op: OutcomeParams) -> float | np.ndarray:
    """Expected episode value of forcing outcome `plan[h - 1]` at round h:
    a bool, or with batch inputs a bool or a bool array over customers.

    The plan is the rule of the forced backward induction, so the rounds
    are summed from the last back as for the best plan, and the value of
    the plan `best_outcome_plan` returns equals its DP value bit for bit.
    """
    if len(plan) != len(op.hob):
        raise ValueError(f"plan must cover all {len(op.hob)} rounds")
    return _forced_policy(op, lambda h, q_win, q_lose: plan[h - 1])[1][0]


def outcome_value(plan: OutcomePlan, params: PlanParams) -> float:
    """Expected episode value of a target outcome sequence."""
    return outcome_values(plan, _outcome_params(params))


def best_outcome_values(op: OutcomeParams) -> float | np.ndarray:
    """The value of the best target outcome sequence: the forced DP's."""
    return _forced_policy(op, _win_if_better)[1][0]


def best_outcome_plan(params: PlanParams) -> tuple[OutcomePlan, float]:
    """The best target outcome sequence and its value: the two-action
    forced DP, traced forward from the first round.  Ties go to losing, so
    equal-valued plans resolve to the lexicographically smallest (lose
    before win)."""
    won, values = _forced_policy(_outcome_params(params), _win_if_better)
    next_id = state_table(params.H).next_id
    plan, i = [], 0
    for _ in range(params.H):
        plan.append(bool(won[i]))
        i = next_id[i][plan[-1]]
    return tuple(plan), values[0]


def dp_policy(
    params: PlanParams, bid_grid: np.ndarray, mode: str = "auction"
) -> PolicyTable:
    """Backward induction over reachable states on a fixed bid grid.

    Auction mode scores each bid by its expected round reward plus the
    win-probability mixture of successor values.  Forced mode needs the
    zero bid and a positive one: the first positive bid is a guaranteed win
    (paying the HOB mean) and zero a guaranteed loss.  Ties go to the lower
    bid.
    """
    if mode not in ("auction", "forced"):
        raise ValueError(f"unknown planning mode {mode!r}")
    grid = np.asarray(bid_grid, dtype=float).tolist()
    if not grid or sorted(grid) != grid:
        raise ValueError("bid grid must be nonempty and ascending")
    if grid[0] < 0 or grid[-1] > params.B_A:
        raise ValueError("bid grid must lie in [0, B_A]")

    if mode == "forced":
        if grid[0] != 0.0 or grid[-1] == 0.0:
            raise ValueError("forced mode needs the zero bid and a positive bid")
        win_bid = next(b for b in grid if b > 0.0)
        won, values = _forced_policy(_outcome_params(params), _win_if_better)
        bids = [win_bid if w else 0.0 for w in won]
        return _policy_table(params.H, bids, values)

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

    return _policy_table(params.H, *_backward_induction(params.H, choose))


def policy_value(
    params: PlanParams, bid_fn: Callable[[int, ExposureState], float]
) -> float:
    """Expected episode value of a fixed bid rule under these parameters
    (auction semantics), by backward induction over reachable states."""

    def choose(h, s, v_win, v_lose):
        a = float(bid_fn(h, s))
        return a, auction_round_value(params, h, s, a, v_win, v_lose)

    return _backward_induction(params.H, choose)[1][0]


def default_bid_grid(bounds: Bounds, points: int = 256) -> np.ndarray:
    """Zero plus log-spaced bids from b/100 up to the cap."""
    return np.concatenate(
        [[0.0], np.geomspace(bounds.b * 1e-2, bounds.B_A, points)]
    )
