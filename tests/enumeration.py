"""References that only tests use, independent of the backward induction
behind the planners: every one of the 2^H target outcome sequences scored
by `outcome_value`, a scalar loop over the bid grid scored by
`auction_round_value`, the exact continuous-bid optimum, the oracle value
in either planner mode, and two identities of the HOB payment."""

import itertools

from bidlab.model import (
    INITIAL_STATE,
    delay_index,
    expected_payment,
    lose_index,
    next_state,
    reachable_states,
    win_index,
    win_probability,
)
from bidlab.planning import (
    auction_round_value,
    best_outcome_plan,
    default_bid_grid,
    dp_policy,
    outcome_value,
    params_from_true,
)


def enumerated_best_plan(params):
    """The lexicographically smallest maximizer of `outcome_value` over all
    2^H plans (lose before win), with its value."""
    best_plan, best = None, -float("inf")
    for plan in itertools.product((False, True), repeat=params.H):
        v = outcome_value(plan, params)
        if v > best:
            best_plan, best = plan, v
    return best_plan, best


def scalar_backward_induction(params, choose):
    """Bids and values keyed by (round, state): `choose(h, s, v_win,
    v_lose)` picks the bid at each reachable state from the last round
    back, one state at a time."""
    H = params.H
    bids, values = {}, {}
    layers = reachable_states(H)
    for h in range(H, 0, -1):
        for s in layers[h - 1]:
            v_win = values[(h + 1, next_state(s, True))] if h < H else 0.0
            v_lose = values[(h + 1, next_state(s, False))] if h < H else 0.0
            bids[(h, s)], values[(h, s)] = choose(h, s, v_win, v_lose)
    return bids, values


def scalar_grid_policy(params, grid):
    """Auction-mode grid planning one (state, bid) pair at a time: the bids
    and values `dp_policy` must return, keyed by (round, state).  The
    strict `>` keeps the first of equal maxima, so ties go to the lower
    bid."""

    def choose(h, s, v_win, v_lose):
        best_bid, best = None, -float("inf")
        for a in grid:
            q = auction_round_value(params, h, s, float(a), v_win, v_lose)
            if q > best:
                best_bid, best = float(a), q
        return best_bid, best

    return scalar_backward_induction(params, choose)


def closed_form_bid(s, params, v_win, v_lose):
    """Truthful second-price bid with continuation values: the marginal
    value of winning this round, clamped to [0, B_A]."""
    mu_win = params.mu[win_index(s.s1)]
    mu_lose = params.delay[delay_index(s.s1)] * params.mu[lose_index(s.s2)]
    return min(max(mu_win - mu_lose + v_win - v_lose, 0.0), params.B_A)


def closed_form_value(params):
    """Value of the exact continuous-bid maximizer at every state: the
    optimal auction-mode episode value."""

    def choose(h, s, v_win, v_lose):
        a = closed_form_bid(s, params, v_win, v_lose)
        return a, auction_round_value(params, h, s, a, v_win, v_lose)

    _, values = scalar_backward_induction(params, choose)
    return values[(1, INITIAL_STATE)]


def oracle_value(x, m, a, mode="outcome", bounds=None):
    """Best achievable expected episode value under the true parameters:
    over target outcome sequences, or by the grid planner on the default
    257-point grid (which needs bounds)."""
    if mode == "outcome":
        return best_outcome_plan(params_from_true(x, m, a))[1]
    if mode == "dp":
        if bounds is None:
            raise ValueError("dp mode needs bounds for the bid grid")
        params = params_from_true(x, m, a, B_A=bounds.B_A)
        return dp_policy(params, default_bid_grid(bounds)).value
    raise ValueError(f"unknown oracle mode {mode!r}")


def cdf_integral(h, bid, x, a):
    """Exact integral of the HOB CDF from 0 to `bid`:
    bid * F(bid) - E[HOB * 1{HOB <= bid}]."""
    if bid <= 0:
        return 0.0
    return bid * win_probability(h, bid, x, a) - expected_payment(h, bid, x, a)


def expected_payment_given_win(h, bid, x, a):
    """Expected second-price payment E[HOB | HOB <= bid], equal to
    bid - (1/F(bid)) * integral_0^bid F."""
    F = win_probability(h, bid, x, a)
    if F == 0.0:
        raise ValueError("payment undefined at zero win probability")
    return expected_payment(h, bid, x, a) / F
