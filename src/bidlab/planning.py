"""Episode planners, all one backward induction over the state ids of
`state_table(H)` with a per-planner choice of bid at each state.

Every planner reads one input, `OutcomeParams`: floats for one customer
(`params_from_true`, or the learner's optimistic view) or arrays over a
batch of customers (`batch_params`), which gives each customer the same
floats.  Outcome planning picks a target win/lose sequence directly (a
forced winner pays the unconditional HOB mean).  Grid planning picks bids
from a grid and wins stochastically at the auction, for a block of
customers at once; one customer is a block of one, whose plan is a bid per
state id.

The expected round value is written once, for one win probability or an
array of them.  The grid planner tabulates round h's win probability and
expected payment over the whole grid for every customer of the block
(neither depends on the state) when the induction reaches round h, scores
every bid of a state in one array expression and keeps the first maximum
along the grid, which gives the same floats as scoring the bids one by one.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .model import (  # noqa: F401 (tracing counts two closed forms here)
    AuctionModel,
    Bounds,
    ExposureState,
    TrueModel,
    delay_index,
    expected_payment,
    hob_mean,
    lognormal_cdf_terms,
    lognormal_mean,
    lose_index,
    state_table,
    win_index,
    win_probability,
)

__all__ = [
    "OutcomeParams",
    "OutcomePlan",
    "params_from_true",
    "batch_params",
    "outcome_value",
    "outcome_values",
    "best_outcome_plan",
    "best_outcome_values",
    "dp_policy",
    "best_grid_values",
    "policy_value",
    "policy_values",
    "default_bid_grid",
]

OutcomePlan = tuple[bool, ...]


class OutcomeParams(NamedTuple):
    """What planning needs: the conversion mean of each theta row and the
    HOB mean and log-mean of each round, floats for one customer or arrays
    over a batch (customers along the last axis), and the delay factors and
    HOB log-sds by position, which outcome planning does not read."""

    mu: Sequence
    delay: Sequence[float]
    hob: Sequence
    log_hob: Sequence = ()
    sigma: Sequence[float] = ()

    def rows(self, start: int, stop: int) -> "OutcomeParams":
        """Customers start..stop-1 of a batch."""
        return self._replace(mu=self.mu[:, start:stop], hob=self.hob[:, start:stop],
                             log_hob=self.log_hob[:, start:stop])


def params_from_true(x: np.ndarray, m: TrueModel, a: AuctionModel) -> OutcomeParams:
    """Plan one customer against the true parameters (the oracle's view)."""
    # one dot per row: theta @ x can differ from it in the last bit
    mu = [float(row @ x) for row in m.theta]
    if any(v < 0 for v in mu):
        raise ValueError("conversion means must be clamped nonnegative")
    rounds = range(1, len(a.sigma) + 1)
    return OutcomeParams(
        mu=mu, delay=m.delay.tolist(), hob=[hob_mean(h, x, a) for h in rounds],
        log_hob=[a.log_mean(h, x) for h in rounds], sigma=a.sigma.tolist(),
    )


def batch_params(X: np.ndarray, m: TrueModel, a: AuctionModel) -> OutcomeParams:
    """Outcome-planning inputs for every row of the (T, dim) contexts `X`,
    bit for bit those `params_from_true` gives each row alone.

    The conversion means and the HOB log-means come from one product, which
    equals the per-row dot only on BLAS's matrix-matrix path: both operands
    need two or more rows (theta and beta stacked have 2H + 1 >= 3), so a
    single context is padded with a copy.  The HOB means take `math.exp`,
    since `np.exp` differs in the last bit.
    """
    H, sigma = len(a.sigma), a.sigma.tolist()
    padded = X if len(X) > 1 else np.vstack([X, X])
    means = (padded @ np.vstack([m.theta, a.beta]).T)[: len(X)].T
    hob = np.array([[lognormal_mean(v, sd) for v in row.tolist()]
                    for row, sd in zip(means[H + 1:], sigma)])
    return OutcomeParams(mu=means[: H + 1], delay=m.delay.tolist(), hob=hob,
                         log_hob=means[H + 1:], sigma=sigma)


def _mu_win(params: OutcomeParams, s: ExposureState) -> float:
    """Conversion mean of a won round in state `s`."""
    return params.mu[win_index(s.s1)]


def _mu_lose(params: OutcomeParams, s: ExposureState) -> float:
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


def _backward_induction(H: int, choose: Callable[..., tuple]) -> tuple[list, list]:
    """Visit every state id of `state_table(H)` from the last round back.

    `choose(h, i, s, v_win, v_lose)` gets the round, the state id, the
    state and the values of its two successors (0.0 after the last round)
    and returns the action taken there and its value: floats, or arrays over
    a batch of customers.  Returns the actions and the values by id; the
    values end with the 0.0.
    """
    table = state_table(H)
    actions = [None] * len(table.states)
    values = [*actions, 0.0]
    for h in range(H, 0, -1):
        for i in table.layers[h - 1]:
            lose, win = table.next_id[i]
            s = table.states[i]
            actions[i], values[i] = choose(h, i, s, values[win], values[lose])
    return actions, values


def _forced_policy(op: OutcomeParams, rule: Callable[..., bool]) -> tuple[list, list]:
    """Backward induction over forced outcomes: at each state,
    `rule(h, q_win, q_lose)` says whether to win, given the values of
    winning and of losing there; it is the action returned."""

    def choose(h, i, s, v_win, v_lose):
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


outcome_value = outcome_values  # the name perfbench/tracing.py wraps


def best_outcome_values(op: OutcomeParams) -> float | np.ndarray:
    """The value of the best target outcome sequence: the forced DP's."""
    return _forced_policy(op, _win_if_better)[1][0]


def best_outcome_plan(op: OutcomeParams) -> tuple[OutcomePlan, float]:
    """The best target outcome sequence and its value: the two-action
    forced DP, traced forward from the first round.  Ties go to losing, so
    equal-valued plans resolve to the lexicographically smallest (lose
    before win)."""
    won, values = _forced_policy(op, _win_if_better)
    next_id = state_table(len(op.hob)).next_id
    plan, i = [], 0
    for _ in range(len(op.hob)):
        plan.append(bool(won[i]))
        i = next_id[i][plan[-1]]
    return tuple(plan), values[0]


def _logs(bids) -> np.ndarray:
    """`math.log` of each bid, 0.0 at zero bids (which never win or pay)."""
    return np.array([math.log(b) if b else 0.0 for b in bids])


_grid_logs = functools.lru_cache(maxsize=8)(_logs)  # called with a grid's tuple


def _column(v) -> np.ndarray:
    """A float or an array over customers as an (n, 1) column."""
    return v.reshape(-1, 1) if isinstance(v, np.ndarray) else np.array([[v]])


def _auction_terms(op: OutcomeParams, h: int, bids, log_bids) -> tuple:
    """Round h's win probability and expected payment at `bids` (with their
    `_logs`), which broadcast against the customers' (n, 1) columns."""
    F, pay = lognormal_cdf_terms(log_bids, _column(op.log_hob[h - 1]), op.sigma[h - 1],
                                 _column(op.hob[h - 1]))
    return np.where(bids != 0.0, F, 0.0), np.where(bids != 0.0, pay, 0.0)


def _scores(op: OutcomeParams, s: ExposureState, terms: tuple, v_win, v_lose):
    """`_round_value` of every customer (rows) at each of its bids (columns)."""
    return _round_value(_column(_mu_win(op, s)), _column(_mu_lose(op, s)), *terms,
                        _column(v_win), _column(v_lose))


def _grid_policy(op: OutcomeParams, grid: Sequence[float]) -> tuple[list, list]:
    """Backward induction on a bid grid for a block of customers: by state
    id, each customer's grid index and value ((n,) arrays).  The first
    maximum along the grid wins, so ties go to the lower bid; NaN never
    wins, and where every score is -inf the value is -inf."""
    bids, log_bids, tables = np.asarray(grid), _grid_logs(tuple(grid)), {}

    def choose(h, i, s, v_win, v_lose):
        if h not in tables:  # built when the induction reaches round h, one at a time
            tables.clear()
            tables[h] = _auction_terms(op, h, bids, log_bids)
        q = _scores(op, s, tables[h], v_win, v_lose)
        q[np.isnan(q)] = -np.inf
        return q.argmax(axis=1), q.max(axis=1)

    return _backward_induction(len(op.hob), choose)


def best_grid_values(op: OutcomeParams, grid: Sequence[float]) -> np.ndarray:
    """The grid planner's episode value of every customer of a block."""
    return _grid_policy(op, grid)[1][0]


def dp_policy(op: OutcomeParams, bid_grid: np.ndarray, B_A: float) -> tuple[list, list]:
    """One customer's grid plan: the grid planner on a block of one, on an
    ascending grid in [0, B_A].  Returns by state id the bid, None where no
    score beats -inf, and its value; ties go to the lower bid."""
    grid = np.asarray(bid_grid, dtype=float).tolist()
    if not grid or sorted(grid) != grid:
        raise ValueError("bid grid must be nonempty and ascending")
    if grid[0] < 0 or grid[-1] > B_A:
        raise ValueError("bid grid must lie in [0, B_A]")
    index, values = _grid_policy(op, grid)
    values = [float(v[0]) for v in values[:-1]]
    return [None if v == -math.inf else grid[i[0]] for i, v in zip(index, values)], values


def policy_values(op: OutcomeParams, bids) -> np.ndarray:
    """Expected episode value of bidding `bids[i]` in the state of id i
    (auction semantics), by backward induction: one customer's bids, or
    with batch inputs an (n_states, customers) array of every customer's."""
    bids = np.asarray(bids, dtype=float)
    if np.any(bids < 0):
        raise ValueError("bid must be nonnegative")

    def choose(h, i, s, v_win, v_lose):
        bid = _column(bids[i])
        terms = _auction_terms(op, h, bid, _column(_logs(bid.ravel().tolist())))
        return bid, _scores(op, s, terms, v_win, v_lose)[:, 0]

    return _backward_induction(len(op.hob), choose)[1][0]


def policy_value(op: OutcomeParams, bids) -> float:
    """`policy_values` of one customer."""
    return float(policy_values(op, bids)[0])


def default_bid_grid(bounds: Bounds, points: int = 256) -> np.ndarray:
    """Zero plus log-spaced bids from b/100 up to the cap."""
    return np.concatenate(
        [[0.0], np.geomspace(bounds.b * 1e-2, bounds.B_A, points)]
    )
