"""Brute-force references for the planners, independent of the backward
induction behind them: every one of the 2^H target outcome sequences scored
by `outcome_value`, and a scalar loop over the bid grid scored by
`auction_round_value`."""

import itertools

from bidlab.model import next_state, reachable_states
from bidlab.planning import auction_round_value, outcome_value


def enumerated_best_plan(params):
    """The lexicographically smallest maximizer of `outcome_value` over all
    2^H plans (lose before win), with its value."""
    best_plan, best = None, -float("inf")
    for plan in itertools.product((False, True), repeat=params.H):
        v = outcome_value(plan, params)
        if v > best:
            best_plan, best = plan, v
    return best_plan, best


def scalar_grid_policy(params, grid):
    """Auction-mode grid planning one (state, bid) pair at a time: the bids
    and values `dp_policy` must return, keyed by (round, state).  The
    strict `>` keeps the first of equal maxima, so ties go to the lower
    bid."""
    H = params.H
    bids, values = {}, {}
    layers = reachable_states(H)
    for h in range(H, 0, -1):
        for s in layers[h - 1]:
            v_win = values[(h + 1, next_state(s, True))] if h < H else 0.0
            v_lose = values[(h + 1, next_state(s, False))] if h < H else 0.0
            best_bid, best = None, -float("inf")
            for a in grid:
                q = auction_round_value(params, h, s, float(a), v_win, v_lose)
                if q > best:
                    best_bid, best = float(a), q
            bids[(h, s)], values[(h, s)] = best_bid, best
    return bids, values
