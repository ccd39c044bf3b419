"""Planners: outcome plans against hand traces and brute-force
enumeration, DP against the closed-form continuous-bid optimum, and
cross-mode consistency."""

import math

import numpy as np
import pytest

from bidlab.environment import BENCHMARK_RECIPE, RandomSource, generate_instance, sample_context
from bidlab.model import (
    DELAY_NEVER,
    FIRST_EXPOSURE,
    INITIAL_STATE,
    NATURAL_DEMAND,
    AuctionModel,
    Bounds,
    ExposureState,
    ONLY_ONE,
    conversion_mean,
    delay_lag,
    expected_payment,
    hob_mean,
    next_state,
    theta_lag,
    win_probability,
)
from bidlab.planning import (
    PlanParams,
    auction_round_value,
    best_outcome_plan,
    closed_form_bid,
    closed_form_policy,
    default_bid_grid,
    dp_policy,
    oracle_value,
    outcome_value,
    params_from_true,
)
from enumeration import enumerated_best_plan, scalar_grid_policy

BOUNDS = Bounds(b=0.1, B_x=5.0, B_theta=10.0, B_d=5.0, B_A=50.0, H=3, dim=2)


def make_params(mu_nd=1.0, mu_f=2.0, mu_l1=3.0, mu_l2=4.0, d1=0.5, d2=0.25,
                log_means=(0.0, 0.0, 0.0), sigmas=(1.0, 1.0, 1.0), B_A=50.0):
    # context e_1 so the auction log means equal the beta first coordinates
    auction = AuctionModel(
        beta=np.array([[lm, 0.0] for lm in log_means]),
        sigma=np.array(sigmas, dtype=float),
    )
    mu = {NATURAL_DEMAND: mu_nd, FIRST_EXPOSURE: mu_f,
          theta_lag(1): mu_l1, theta_lag(2): mu_l2}
    delay = {DELAY_NEVER: 1.0, delay_lag(1): d1, delay_lag(2): d2}
    return PlanParams(mu=mu, delay=delay, auction=auction,
                      x=np.array([1.0, 0.0]), B_A=B_A)


def random_instance(seed):
    m, a = generate_instance(BENCHMARK_RECIPE, BOUNDS, RandomSource(seed))
    x = sample_context(BENCHMARK_RECIPE, BOUNDS, RandomSource(seed).stream("ctx"))
    return m, a, x


# --- outcome planning --------------------------------------------------------

def test_outcome_value_hand_traces():
    p = make_params()
    em = [hob_mean(h, p.x, p.auction) for h in (1, 2, 3)]
    assert outcome_value((False, False, False), p) == pytest.approx(3 * 1.0)
    want = (2.0 - em[0]) + (3.0 - em[1]) + (3.0 - em[2])
    assert outcome_value((True, True, True), p) == pytest.approx(want)
    want = 1.0 + (2.0 - em[1]) + 0.5 * 2.0
    assert outcome_value((False, True, False), p) == pytest.approx(want)
    with pytest.raises(ValueError):
        outcome_value((False, True), p)


def test_plan_params_validation():
    with pytest.raises(ValueError):
        make_params(mu_nd=-0.5)
    p = make_params()
    with pytest.raises(ValueError):
        PlanParams(mu=dict(p.mu), delay={DELAY_NEVER: 0.9}, auction=p.auction,
                   x=p.x, B_A=50.0)


def test_best_plan_dominance_case():
    # huge first-exposure value with carryover: win once, immediately
    p = make_params(mu_nd=0.0, mu_f=100.0, mu_l1=0.0, mu_l2=0.0, d1=0.5, d2=0.5)
    plan, value = best_outcome_plan(p)
    assert plan == (True, False, False)
    em1 = hob_mean(1, p.x, p.auction)
    assert value == pytest.approx((100.0 - em1) + 0.5 * 100.0 + 0.5 * 100.0)


def test_best_plan_tie_breaks_lexicographically():
    # zero carryover makes the single win equally good at any round; the
    # lexicographically smallest plan defers it to the last round
    p = make_params(mu_nd=0.0, mu_f=100.0, mu_l1=0.0, mu_l2=0.0, d1=0.0, d2=0.0)
    plan, _ = best_outcome_plan(p)
    assert plan == (False, False, True)


def test_best_plan_all_lose_when_winning_never_pays():
    p = make_params(mu_nd=2.0, mu_f=2.0, mu_l1=2.0, mu_l2=2.0, d1=1.0, d2=1.0)
    plan, value = best_outcome_plan(p)
    assert plan == (False, False, False)
    assert value == pytest.approx(6.0)


def random_params(H, seed):
    # random conversion means, delays and per-round auctions at horizon H
    rng = np.random.default_rng(seed)
    mu = {NATURAL_DEMAND: rng.uniform(0.0, 3.0), FIRST_EXPOSURE: rng.uniform(0.0, 6.0)}
    mu.update({theta_lag(k): rng.uniform(0.0, 6.0) for k in range(1, H)})
    delay = {DELAY_NEVER: 1.0}
    delay.update({delay_lag(k): rng.uniform(0.0, 1.5) for k in range(1, H)})
    auction = AuctionModel(beta=rng.uniform(-0.5, 1.0, (H, 1)),
                           sigma=rng.uniform(0.3, 1.2, H))
    return PlanParams(mu=mu, delay=delay, auction=auction, x=np.ones(1), B_A=50.0)


def test_large_horizon_plan_value_is_bitwise():
    # far past 2^H enumeration: the reachable states grow quadratically
    rng = np.random.default_rng(7)
    for seed in range(2025, 2030):
        p = random_params(25, seed=seed)
        plan, value = best_outcome_plan(p)
        assert len(plan) == 25 and any(plan) and not all(plan)
        assert outcome_value(plan, p) == value
        for _ in range(100):
            other = tuple(bool(b) for b in rng.integers(0, 2, 25))
            assert outcome_value(other, p) <= value


def test_outcome_plan_matches_enumeration_across_horizons():
    for H in range(1, 11):
        for seed in range(5):
            p = random_params(H, seed=100 * H + seed)
            assert best_outcome_plan(p) == enumerated_best_plan(p)
        # zero carryover: one win is worth the same at every round, and the
        # lexicographically smallest plan takes it last
        p = random_params(H, seed=0)
        tie = PlanParams(
            mu={idx: (100.0 if idx == FIRST_EXPOSURE else 0.0) for idx in p.mu},
            delay={idx: (1.0 if idx == DELAY_NEVER else 0.0) for idx in p.delay},
            auction=AuctionModel(beta=np.zeros((H, 1)), sigma=np.ones(H)),
            x=np.ones(1), B_A=50.0,
        )
        plan, value = best_outcome_plan(tie)
        assert plan == (False,) * (H - 1) + (True,)
        assert (plan, value) == enumerated_best_plan(tie)


def test_oracle_dominates_every_plan():
    for seed in range(5):
        m, a, x = random_instance(seed)
        params = params_from_true(x, m, a)
        opt = oracle_value(x, m, a, "outcome")
        import itertools
        for plan in itertools.product((False, True), repeat=3):
            assert opt >= outcome_value(plan, params) - 1e-12


# --- dynamic programming -----------------------------------------------------

def test_dp_one_round_truthful():
    p = make_params(mu_nd=1.0, mu_f=3.0, log_means=(0.5,), sigmas=(0.8,))
    b_star = 3.0 - 1.0
    grid = np.linspace(0.0, 10.0, 2001)  # step 0.005
    table = dp_policy(p, grid)
    assert abs(table.act(1, INITIAL_STATE) - b_star) <= 0.005 + 1e-12
    cf = closed_form_bid(INITIAL_STATE, p, 0.0, 0.0)
    assert cf == pytest.approx(b_star)


def test_dp_bids_zero_when_winning_never_pays():
    p = make_params(mu_nd=2.0, mu_f=2.0, mu_l1=2.0, mu_l2=2.0, d1=1.0, d2=1.0)
    table = dp_policy(p, default_bid_grid(BOUNDS))
    assert all(b == 0.0 for b in table.bids.values())
    assert table.value == pytest.approx(6.0)


def test_dp_grid_validation():
    p = make_params()
    with pytest.raises(ValueError):
        dp_policy(p, np.array([]))
    with pytest.raises(ValueError):
        dp_policy(p, np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        dp_policy(p, np.array([0.0, 100.0]))
    with pytest.raises(ValueError):
        dp_policy(p, np.array([0.0, 1.0]), mode="nope")


def test_dp_covers_reachable_states():
    p = make_params()
    table = dp_policy(p, default_bid_grid(BOUNDS))
    keys = set(table.bids)
    assert (1, INITIAL_STATE) in keys
    assert (2, ExposureState(1, ONLY_ONE)) in keys
    assert (3, ExposureState(2, ONLY_ONE)) in keys
    assert (3, ExposureState(1, 1)) in keys
    assert len(keys) == 1 + 2 + 4


def test_forced_dp_equals_enumeration_bitwise():
    # both planners against the brute-force lexicographic argmax of
    # outcome_value, not against each other
    for seed in range(10):
        m, a, x = random_instance(100 + seed)
        params = params_from_true(x, m, a, B_A=BOUNDS.B_A)
        want_plan, want_value = enumerated_best_plan(params)
        plan, value = best_outcome_plan(params)
        assert plan == want_plan
        assert value == want_value  # bitwise: same fold order, same floats
        table = dp_policy(params, np.array([0.0, BOUNDS.B_A]), mode="forced")
        assert table.value == want_value
        # the greedy path through the forced table reproduces the plan
        s, path = INITIAL_STATE, []
        for h in range(1, 4):
            won = table.act(h, s) > 0.0
            path.append(won)
            if h < 3:
                s = next_state(s, won)
        assert tuple(path) == want_plan


def test_forced_dp_tie_prefers_losing():
    p0 = make_params(mu_nd=1.0, mu_f=1.0)
    em1 = hob_mean(1, p0.x, p0.auction)
    # win reward mu_f - em1 equals lose reward mu_nd exactly
    p = make_params(mu_nd=1.0, mu_f=1.0 + em1, log_means=(0.0,), sigmas=(1.0,))
    table = dp_policy(p, np.array([0.0, 50.0]), mode="forced")
    assert table.act(1, INITIAL_STATE) == 0.0


def test_dp_matches_expected_round_reward_model():
    # the planners' auction scoring agrees with the model closed forms when
    # fed the true parameters
    m, a, x = random_instance(7)
    params = params_from_true(x, m, a, B_A=BOUNDS.B_A)
    for s in (INITIAL_STATE, ExposureState(1, ONLY_ONE), ExposureState(1, 1)):
        for bid in (0.0, 0.3, 1.7, 12.0):
            F = win_probability(2, bid, x, a)
            want = (
                conversion_mean(s, False, x, m) * (1.0 - F)
                + conversion_mean(s, True, x, m) * F
                - expected_payment(2, bid, x, a)
            )
            got = auction_round_value(params, 2, s, bid, 0.0, 0.0)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
            got = auction_round_value(params, 2, s, bid, 5.0, 3.0)
            want += F * 5.0 + (1.0 - F) * 3.0
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        with pytest.raises(ValueError):
            auction_round_value(params, 2, s, -1.0, 0.0, 0.0)


def test_dp_grid_equals_scalar_reference_bitwise():
    # dp_policy scores every bid of a state at once; the scalar loop over
    # auction_round_value must give the same bids and values, float for float
    grids = (
        default_bid_grid(BOUNDS),
        default_bid_grid(BOUNDS, 8),
        np.array([0.0, 0.0, 0.5, 0.5, 2.0, 2.0, 2.0, 10.0, 50.0]),
    )
    for H in range(1, 7):
        for seed in range(3):
            p = random_params(H, seed=500 + 10 * H + seed)
            for grid in grids:
                table = dp_policy(p, grid)
                bids, values = scalar_grid_policy(p, grid)
                assert table.bids == bids
                assert table.values == values


def test_dp_grid_ties_go_to_the_lower_bid():
    # HOB ~ 1 with a tiny spread: bids up to 0.5 win with probability
    # exactly 0 and bids from 5 up win surely and pay exactly the HOB mean,
    # so each group scores the same float at every state
    p = make_params(mu_nd=1.0, mu_f=4.0, mu_l1=1.5, mu_l2=1.0, d1=1.0, d2=1.0,
                    log_means=(0.0, 0.0, 0.0), sigmas=(0.01, 0.01, 0.01))
    grid = np.array([0.0, 0.1, 0.2, 0.5, 5.0, 10.0, 20.0, 50.0])
    table = dp_policy(p, grid)
    bids, values = scalar_grid_policy(p, grid)
    assert (table.bids, table.values) == (bids, values)
    for (h, s), bid in table.bids.items():
        nxt = [table.values.get((h + 1, next_state(s, won)), 0.0)
               for won in (True, False)]
        q = [auction_round_value(p, h, s, float(a), *nxt) for a in grid]
        best = [float(a) for a, v in zip(grid, q) if v == max(q)]
        assert len(best) >= 2
        assert bid == best[0] and table.values[(h, s)] == max(q)
    assert set(table.bids.values()) == {0.0, 5.0}


def test_dp_grid_never_chooses_nan():
    # an infinite win mean scores the zero bid inf * 0 = NaN and every
    # positive bid +inf: the loop skips the NaN and keeps the first +inf
    p = make_params(mu_f=math.inf, log_means=(0.0,), sigmas=(1.0,))
    grid = np.array([0.0, 0.5, 1.0])
    with np.errstate(invalid="ignore"):
        table = dp_policy(p, grid)
    assert (table.bids, table.values) == scalar_grid_policy(p, grid)
    assert table.act(1, INITIAL_STATE) == 0.5 and table.value == math.inf


def test_closed_form_bid_clamps():
    p = make_params(mu_nd=5.0, mu_f=1.0)
    assert closed_form_bid(INITIAL_STATE, p, 0.0, 0.0) == 0.0
    p = make_params(mu_nd=0.0, mu_f=100.0, B_A=10.0)
    assert closed_form_bid(INITIAL_STATE, p, 0.0, 0.0) == 10.0


def test_dp_converges_to_closed_form():
    gaps = {n: [] for n in (64, 128, 256, 512)}
    for seed in range(20):
        m, a, x = random_instance(200 + seed)
        params = params_from_true(x, m, a, B_A=BOUNDS.B_A)
        v_star = closed_form_policy(params).value
        for n in gaps:
            v = dp_policy(params, default_bid_grid(BOUNDS, n)).value
            assert v <= v_star + 1e-9
            gaps[n].append(v_star - v)
    means = {n: float(np.mean(g)) for n, g in gaps.items()}
    assert means[128] <= 0.6 * means[64] + 1e-10
    assert means[256] <= 0.6 * means[128] + 1e-10
    assert means[512] <= 0.6 * means[256] + 1e-10


def test_dp_dense_grid_near_exact():
    for seed in range(3):
        m, a, x = random_instance(300 + seed)
        params = params_from_true(x, m, a, B_A=BOUNDS.B_A)
        v_star = closed_form_policy(params).value
        v = dp_policy(params, default_bid_grid(BOUNDS, 10_000)).value
        assert v <= v_star + 1e-9
        assert v_star - v <= 1e-4 * max(1.0, abs(v_star))


# --- oracle ------------------------------------------------------------------

def test_oracle_degenerate_instance():
    # all means equal, unit delays: winning only adds payment, both modes
    # settle on H * mu
    theta = {NATURAL_DEMAND: np.array([1.5, 0.0]),
             FIRST_EXPOSURE: np.array([1.5, 0.0]),
             theta_lag(1): np.array([1.5, 0.0]),
             theta_lag(2): np.array([1.5, 0.0])}
    from bidlab.model import TrueModel
    m = TrueModel(theta=theta, delay={DELAY_NEVER: 1.0, delay_lag(1): 1.0,
                                      delay_lag(2): 1.0})
    a = AuctionModel(beta=np.zeros((3, 2)), sigma=np.ones(3))
    x = np.array([1.0, 0.0])
    assert oracle_value(x, m, a, "outcome") == pytest.approx(4.5)
    assert oracle_value(x, m, a, "dp", BOUNDS) == pytest.approx(4.5)
    with pytest.raises(ValueError):
        oracle_value(x, m, a, "dp")
    with pytest.raises(ValueError):
        oracle_value(x, m, a, "nope")


def test_oracle_monotone_in_parameters():
    m, a, x = random_instance(42)
    base_outcome = oracle_value(x, m, a, "outcome")
    base_dp = oracle_value(x, m, a, "dp", BOUNDS)
    from bidlab.model import TrueModel
    for idx in m.theta:
        theta2 = {k: (v + 0.1 if k == idx else v) for k, v in m.theta.items()}
        m2 = TrueModel(theta=theta2, delay=dict(m.delay))
        assert oracle_value(x, m2, a, "outcome") >= base_outcome - 1e-12
        assert oracle_value(x, m2, a, "dp", BOUNDS) >= base_dp - 1e-12
    for idx in m.delay:
        if idx == DELAY_NEVER:
            continue
        delay2 = {k: (v + 0.1 if k == idx else v) for k, v in m.delay.items()}
        m2 = TrueModel(theta=dict(m.theta), delay=delay2)
        assert oracle_value(x, m2, a, "outcome") >= base_outcome - 1e-12
        assert oracle_value(x, m2, a, "dp", BOUNDS) >= base_dp - 1e-12


def test_oracle_vs_monte_carlo_plans():
    # simulate forced plans in bulk; the oracle upper-bounds every plan's
    # realized mean, and each plan's mean matches its computed value
    m, a, x = random_instance(55)
    params = params_from_true(x, m, a)
    opt = oracle_value(x, m, a, "outcome")
    rng = np.random.default_rng(99)
    n = 100_000
    from bidlab.model import conversion_mean, next_state
    import itertools
    for plan in [(True, True, True), (False, True, False), (True, False, False)]:
        s = INITIAL_STATE
        total = np.zeros(n)
        for h, won in enumerate(plan, start=1):
            hob = np.exp(a.log_mean(h, x) + a.log_sd(h) * rng.standard_normal(n))
            rate = conversion_mean(s, won, x, m)
            total += rng.poisson(rate, n)
            if won:
                total -= hob
            if h < 3:
                s = next_state(s, won)
        est, se = float(total.mean()), float(total.std(ddof=1)) / math.sqrt(n)
        assert est <= opt + 3 * se
        assert outcome_value(plan, params) == pytest.approx(est, abs=4 * se)


def test_planning_deterministic():
    m, a, x = random_instance(77)
    params = params_from_true(x, m, a, B_A=BOUNDS.B_A)
    p1, v1 = best_outcome_plan(params)
    p2, v2 = best_outcome_plan(params)
    assert p1 == p2 and v1 == v2
    t1 = dp_policy(params, default_bid_grid(BOUNDS))
    t2 = dp_policy(params, default_bid_grid(BOUNDS))
    assert t1.bids == t2.bids and t1.values == t2.values


def test_default_grid_shape():
    g = default_bid_grid(BOUNDS)
    assert g[0] == 0.0 and len(g) == 257
    assert g[1] == pytest.approx(BOUNDS.b * 1e-2)
    assert g[-1] == pytest.approx(BOUNDS.B_A)
    assert np.all(np.diff(g) > 0)
