"""Episode planners, all one backward induction over the state ids of
`state_table(H)` with a per-planner choice of bid at each state.

Every planner reads one input, `OutcomeParams`: floats for one customer
(`params_from_true`, or the learner's optimistic view) or arrays over a
batch of customers (`batch_params`), which gives each customer the same
floats.  Outcome planning picks a target win/lose sequence directly (a
forced winner pays the unconditional HOB mean), which the simulator plays
as bids of inf and 0 (`forced_bids`).  Auction planning bids at each state
the value of winning over losing, successor values included, clipped to
[0, B_A]: the exact best second-price bid for any HOB law.  One customer
runs in floats, a batch in arrays with the same operations element by
element, so the two agree bit for bit.

The expected round value and the auction's closed forms are each written
once, for floats or arrays; the exact planner and the scoring of given bids
(`policy_values`) share them.  At a bid of inf the closed forms give their
limit, which a batch takes directly, so a batch of forced rows costs no log
and no erfc, and `policy_values` of it equals `outcome_values` of its plan
bit for bit: every policy's bids are scored by `policy_values`, and
`outcome_values` serves the tests and the benchmark's tracer.
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
    "best_outcome_plans",
    "best_outcome_values",
    "forced_bids",
    "forced_rows",
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
    over a batch (customers along the last axis), the delay factors by
    position, and the HOB log-sd of each round, a float per round or an
    array over a batch's customers; outcome planning reads neither of the
    last two."""

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


def best_outcome_plans(op: OutcomeParams) -> np.ndarray:
    """`best_outcome_plan` of every customer of a batch, as an (n, H) bool
    array: the batch's forced DP, traced forward by state id."""
    won, _ = _forced_policy(op, _win_if_better)
    won = np.array(won)  # (states, n)
    H, n = len(op.hob), won.shape[1]
    successors, ids, cols = state_table(H).successors, np.zeros(n, np.intp), np.arange(n)
    plans = np.empty((n, H), bool)
    for h in range(H):
        plans[:, h] = won[ids, cols]
        ids = successors[ids, plans[:, h].view(np.uint8)]
    return plans


@functools.lru_cache(maxsize=1024)
def forced_bids(plan: OutcomePlan) -> tuple[float, ...]:
    """The bids by state id that play the target outcomes `plan`: inf, which
    wins at any price, in each state of a won round, and 0.0, which never
    wins (every HOB is > 0), in each state of a lost one."""
    layers = state_table(len(plan)).layers
    return tuple(math.inf if won else 0.0 for won, ids in zip(plan, layers) for _ in ids)


def forced_rows(plans: np.ndarray) -> np.ndarray:
    """`forced_bids` of each of the (n, H) plans, as an (n, states) array."""
    layers = state_table(plans.shape[1]).layers
    return np.where(plans[:, np.repeat(np.arange(len(layers)), list(map(len, layers)))],
                    math.inf, 0.0)


def _auction_terms(op: OutcomeParams, h: int, bid) -> tuple:
    """Round h's win probability and expected payment at `bid`, a float for
    one customer or an array over a batch: both 0.0 at a zero bid, which
    never wins or pays (every HOB is > 0), and the closed forms on `math.log`
    of any other, whose limit at inf, 1.0 and the HOB mean, is what they
    give there.  An array takes that limit without a log or an erfc; its
    round's log-sd is a float or an array over the batch."""
    log_mean, log_sd, mean = op.log_hob[h - 1], op.sigma[h - 1], op.hob[h - 1]
    if not isinstance(bid, np.ndarray):
        return (0.0, 0.0) if bid == 0.0 else lognormal_cdf_terms(
            math.log(bid), log_mean, log_sd, mean)
    won = bid == math.inf
    F, pay = won.astype(float), np.where(won, mean, 0.0)
    inner = np.flatnonzero((bid != 0.0) & ~won)
    if inner.size:
        F[inner], pay[inner] = lognormal_cdf_terms(
            np.array([math.log(b) for b in bid[inner].tolist()]),
            log_mean[inner], np.broadcast_to(log_sd, bid.shape)[inner], mean[inner])
    return F, pay


def _bid_value(op: OutcomeParams, h: int, s: ExposureState, bid, v_win, v_lose):
    """`_round_value` of bidding `bid` in state `s` of round h."""
    return _round_value(_mu_win(op, s), _mu_lose(op, s), *_auction_terms(op, h, bid),
                        v_win, v_lose)


def dp_policy(op: OutcomeParams, B_A: float) -> tuple[list, list]:
    """The exact auction plan: by state id, the bid and its value, floats for
    one customer or arrays over a batch (the same operations element by
    element).  Bidding b is worth a constant plus the integral over HOBs
    m <= b of (gain - m), where gain is the value of winning over losing,
    successor values included, so the best bid is gain clipped to [0, B_A]
    for any HOB law.  A gain that is not finite raises, naming the round
    and state id (and, in a batch, the customer)."""

    def choose(h, i, s, v_win, v_lose):
        gain = _mu_win(op, s) - _mu_lose(op, s) + v_win - v_lose
        if isinstance(gain, np.ndarray):
            bad = np.flatnonzero(~np.isfinite(gain))
            if bad.size:
                raise ValueError(f"customer {bad[0] + 1} of the batch, round {h}, state "
                                 f"id {i}: the value of winning is {gain[bad[0]]!r}")
            bid = np.minimum(np.maximum(gain, 0.0), B_A)
        elif math.isfinite(gain):
            bid = min(max(gain, 0.0), B_A)
        else:
            raise ValueError(f"round {h}, state id {i}: the value of winning is {gain!r}")
        return bid, _bid_value(op, h, s, bid, v_win, v_lose)

    bids, values = _backward_induction(len(op.hob), choose)
    return bids, values[:-1]


def best_grid_values(op: OutcomeParams, B_A: float) -> np.ndarray:
    """The auction oracle: every customer's exact episode value, for a batch
    in one backward induction."""
    return dp_policy(op, B_A)[1][0]


def policy_values(op: OutcomeParams, bids):
    """Expected episode value of bidding `bids[i]` in the state of id i
    (auction semantics), by backward induction: a float for one customer's
    bids, or with batch inputs an array over customers of the
    (n_states, customers) bids."""
    bids = np.asarray(bids, dtype=float)
    if not np.all(bids >= 0):  # NaN fails too, as in run_episode
        raise ValueError("bid must be nonnegative")
    rows = bids.tolist() if bids.ndim == 1 else list(bids)

    def choose(h, i, s, v_win, v_lose):
        return rows[i], _bid_value(op, h, s, rows[i], v_win, v_lose)

    return _backward_induction(len(op.hob), choose)[1][0]


def policy_value(op: OutcomeParams, bids) -> float:
    """`policy_values` of one customer."""
    return float(policy_values(op, bids))


def default_bid_grid(bounds: Bounds, points: int = 256) -> np.ndarray:
    """Zero plus log-spaced bids from b/100 up to the cap: the bid grid that
    the tests score against the exact planner; no planner reads it."""
    return np.concatenate(
        [[0.0], np.geomspace(bounds.b * 1e-2, bounds.B_A, points)]
    )
