"""Planners: outcome plans against hand traces and brute-force
enumeration, the exact auction planner against the closed-form
continuous-bid optimum and the grid reference, and cross-mode
consistency."""

import itertools
import math

import numpy as np
import pytest

from bidlab.environment import BENCHMARK_RECIPE, RandomSource, generate_instance, sample_context
from bidlab.model import (
    INITIAL_STATE,
    AuctionModel,
    Bounds,
    ExposureState,
    ONLY_ONE,
    TrueModel,
    conversion_mean,
    expected_payment,
    hob_mean,
    lose_index,
    state_table,
    win_probability,
)
from bidlab import planning
from bidlab.planning import (
    OutcomeParams,
    batch_params,
    best_outcome_plan,
    best_grid_values,
    best_outcome_values,
    default_bid_grid,
    dp_policy,
    outcome_value,
    outcome_values,
    params_from_true,
    policy_value,
    policy_values,
)
from enumeration import (
    Customer,
    auction_round_value,
    closed_form_bid,
    closed_form_value,
    enumerated_best_plan,
    oracle_value,
    scalar_grid_policy,
    scalar_policy_value,
    true_customer,
)

BOUNDS = Bounds(b=0.1, B_x=5.0, B_theta=10.0, B_d=5.0, B_A=50.0, H=3, dim=2)


def make_params(mu_nd=1.0, mu_f=2.0, mu_l1=3.0, mu_l2=4.0, d1=0.5, d2=0.25,
                log_means=(0.0, 0.0, 0.0), sigmas=(1.0, 1.0, 1.0), B_A=50.0):
    # context e_1 so the auction log means equal the beta first coordinates
    auction = AuctionModel(
        beta=np.array([[lm, 0.0] for lm in log_means]),
        sigma=np.array(sigmas, dtype=float),
    )
    # by position: natural demand, first exposure, lags 1 and 2
    return Customer(mu=[mu_nd, mu_f, mu_l1, mu_l2], delay=[1.0, d1, d2],
                    x=np.array([1.0, 0.0]), auction=auction, B_A=B_A)


def random_instance(seed):
    m, a = generate_instance(BENCHMARK_RECIPE, BOUNDS, RandomSource(seed))
    x = sample_context(BENCHMARK_RECIPE, BOUNDS, RandomSource(seed).stream("ctx"))
    return m, a, x


# --- outcome planning --------------------------------------------------------

def test_outcome_value_hand_traces():
    p = make_params()
    em = [hob_mean(h, p.x, p.auction) for h in (1, 2, 3)]
    assert outcome_value((False, False, False), p.op) == pytest.approx(3 * 1.0)
    want = (2.0 - em[0]) + (3.0 - em[1]) + (3.0 - em[2])
    assert outcome_value((True, True, True), p.op) == pytest.approx(want)
    want = 1.0 + (2.0 - em[1]) + 0.5 * 2.0
    assert outcome_value((False, True, False), p.op) == pytest.approx(want)
    with pytest.raises(ValueError):
        outcome_value((False, True), p.op)


def test_plan_params_validation():
    # the oracle's planner inputs reject a negative conversion mean; the
    # true model itself fixes the never-exposed delay factor at 1
    m, a, x = random_instance(0)
    theta = m.theta.copy()
    theta[2] = -theta[2]
    with pytest.raises(ValueError, match="conversion means must be clamped nonnegative"):
        params_from_true(x, TrueModel(theta=theta, delay=m.delay), a)
    with pytest.raises(ValueError):
        TrueModel(theta=m.theta, delay=np.array([0.9, 0.5, 0.25]))
    # the planners' input for one customer: one dot per theta row, the
    # scalar closed forms per round
    assert params_from_true(x, m, a) == true_customer(x, m, a).op


def test_best_plan_dominance_case():
    # huge first-exposure value with carryover: win once, immediately
    p = make_params(mu_nd=0.0, mu_f=100.0, mu_l1=0.0, mu_l2=0.0, d1=0.5, d2=0.5)
    plan, value = best_outcome_plan(p.op)
    assert plan == (True, False, False)
    em1 = hob_mean(1, p.x, p.auction)
    assert value == pytest.approx((100.0 - em1) + 0.5 * 100.0 + 0.5 * 100.0)


def test_best_plan_tie_breaks_lexicographically():
    # zero carryover makes the single win equally good at any round; the
    # lexicographically smallest plan defers it to the last round
    p = make_params(mu_nd=0.0, mu_f=100.0, mu_l1=0.0, mu_l2=0.0, d1=0.0, d2=0.0)
    plan, _ = best_outcome_plan(p.op)
    assert plan == (False, False, True)


def test_best_plan_all_lose_when_winning_never_pays():
    p = make_params(mu_nd=2.0, mu_f=2.0, mu_l1=2.0, mu_l2=2.0, d1=1.0, d2=1.0)
    plan, value = best_outcome_plan(p.op)
    assert plan == (False, False, False)
    assert value == pytest.approx(6.0)


def random_params(H, seed):
    # random conversion means, delays and per-round auctions at horizon H
    rng = np.random.default_rng(seed)
    mu = [rng.uniform(0.0, 3.0), rng.uniform(0.0, 6.0)]
    mu += [rng.uniform(0.0, 6.0) for _ in range(1, H)]
    delay = [1.0] + [rng.uniform(0.0, 1.5) for _ in range(1, H)]
    auction = AuctionModel(beta=rng.uniform(-0.5, 1.0, (H, 1)),
                           sigma=rng.uniform(0.3, 1.2, H))
    return Customer(mu=mu, delay=delay, x=np.ones(1), auction=auction, B_A=50.0)


def test_large_horizon_plan_value_is_bitwise():
    # far past 2^H enumeration: the reachable states grow quadratically
    rng = np.random.default_rng(7)
    for seed in range(2025, 2030):
        p = random_params(25, seed=seed).op
        plan, value = best_outcome_plan(p)
        assert len(plan) == 25 and any(plan) and not all(plan)
        assert outcome_value(plan, p) == value
        for _ in range(100):
            other = tuple(bool(b) for b in rng.integers(0, 2, 25))
            assert outcome_value(other, p) <= value


def test_outcome_plan_matches_enumeration_across_horizons():
    for H in range(1, 11):
        for seed in range(5):
            p = random_params(H, seed=100 * H + seed).op
            assert best_outcome_plan(p) == enumerated_best_plan(p)
        # zero carryover: one win is worth the same at every round, and the
        # lexicographically smallest plan takes it last
        tie = Customer(
            mu=[100.0 if i == lose_index(ONLY_ONE) else 0.0 for i in range(H + 1)],
            delay=[1.0] + [0.0] * (H - 1), x=np.ones(1),
            auction=AuctionModel(beta=np.zeros((H, 1)), sigma=np.ones(H)),
        ).op
        plan, value = best_outcome_plan(tie)
        assert plan == (False,) * (H - 1) + (True,)
        assert (plan, value) == enumerated_best_plan(tie)


def batch_instance(H, dim, T, seed):
    bounds = Bounds(b=0.1, B_x=5.0, B_theta=10.0, B_d=5.0, B_A=50.0, H=H, dim=dim)
    m, a = generate_instance(BENCHMARK_RECIPE, bounds, RandomSource(seed))
    # contexts as the recipe draws them, from one generator
    X = np.abs(np.random.default_rng(seed).standard_normal((T, dim))) + 0.1
    return m, a, X


@pytest.mark.parametrize("H", range(1, 9))
def test_batch_outcome_planning_equals_scalar_bitwise(H):
    # the batched oracle and plan values against best_outcome_plan and
    # outcome_value customer by customer, for every one of the 2^H plans
    plans = list(itertools.product((False, True), repeat=H))
    for dim in range(1, 6):
        m, a, X = batch_instance(H, dim, T=3, seed=1000 + 10 * H + dim)
        batch = batch_params(X, m, a)
        scalar = [params_from_true(x, m, a) for x in X]
        assert best_outcome_values(batch).tolist() == [
            best_outcome_plan(p)[1] for p in scalar
        ]
        for plan in plans:
            assert outcome_values(plan, batch).tolist() == [
                outcome_value(plan, p) for p in scalar
            ]
        # and a different plan for every customer, as the harness scores them
        rng = np.random.default_rng(H * dim)
        mixed = [plans[k] for k in rng.integers(len(plans), size=len(X))]
        assert outcome_values(np.array(mixed).T, batch).tolist() == [
            outcome_value(plan, p) for plan, p in zip(mixed, scalar)
        ]


def test_batch_outcome_ties_go_to_losing():
    # customer 0 gains exactly as much from a round-1 win as from a loss,
    # customer 1 strictly more, customer 2 strictly less; H = 1
    batch = OutcomeParams(
        mu=np.array([[1.0, 1.0, 1.0], [3.0, 4.0, 2.5]]),
        delay=[1.0],
        hob=[np.array([2.0, 2.0, 2.0])],
    )
    won, _ = planning._forced_policy(batch, planning._win_if_better)
    assert won[0].tolist() == [False, True, False]
    assert best_outcome_values(batch).tolist() == [1.0, 2.0, 1.0]
    # the tied zero-carryover family: one win is worth the same at every
    # round; per customer the batch keeps the lexicographically smallest
    # plan, which wins last, exactly as the scalar planner does
    for H in range(1, 6):
        mu = [100.0 if i == lose_index(ONLY_ONE) else 0.0 for i in range(H + 1)]
        scalar = Customer(
            mu=mu, delay=[1.0] + [0.0] * (H - 1), x=np.ones(1),
            auction=AuctionModel(beta=np.zeros((H, 1)), sigma=np.ones(H)),
        ).op
        plan, value = best_outcome_plan(scalar)
        assert plan == (False,) * (H - 1) + (True,)
        batch = OutcomeParams(
            mu=np.array([[v, v] for v in mu]), delay=scalar.delay,
            hob=[np.array([e, e]) for e in scalar.hob],
        )
        won, _ = planning._forced_policy(batch, planning._win_if_better)
        i, path = 0, []
        for _ in range(H):
            assert won[i].tolist() == [won[i][0]] * 2
            path.append(bool(won[i][0]))
            i = state_table(H).next_id[i][path[-1]]
        assert tuple(path) == plan
        assert best_outcome_values(batch).tolist() == [value, value]


@pytest.mark.parametrize("H", [1, 3])
@pytest.mark.parametrize("T", [1, 2, 64, 20000])
def test_stacked_product_equals_per_row_dot(H, T):
    # conversion means and HOB means of the batch, against the per-row dot
    # params_from_true and hob_mean take (a 1-row operand would take BLAS's
    # matrix-vector path, which differs in the last bit)
    for dim in (1, 2, 5):
        m, a, X = batch_instance(H, dim, T, seed=40 + T + dim)
        batch = batch_params(X, m, a)
        assert batch.mu.T.tolist() == [params_from_true(x, m, a).mu for x in X]
        assert np.array(batch.hob).T.tolist() == [
            [hob_mean(h, x, a) for h in range(1, H + 1)] for x in X
        ]


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
    bids, values = dp_policy(p.op, p.B_A)
    assert bids[0] == b_star == closed_form_bid(INITIAL_STATE, p, 0.0, 0.0)
    assert values[0] == closed_form_value(p)  # id 0: round 1, initial state
    # no bid of a fine grid around it does better
    grid = np.linspace(0.0, 10.0, 2001)  # step 0.005
    assert values[0] >= scalar_grid_policy(p, grid)[1][0]


def test_dp_bids_zero_when_winning_never_pays():
    p = make_params(mu_nd=2.0, mu_f=2.0, mu_l1=2.0, mu_l2=2.0, d1=1.0, d2=1.0)
    bids, values = dp_policy(p.op, p.B_A)
    assert all(b == 0.0 for b in bids)
    assert values[0] == pytest.approx(6.0)


def test_dp_covers_reachable_states():
    p = make_params()
    bids, values = dp_policy(p.op, p.B_A)
    ids = state_table(3).ids
    assert len(bids) == len(values) == len(ids) == 1 + 2 + 4
    assert list(ids)[0] == (1, INITIAL_STATE)
    assert (2, ExposureState(1, ONLY_ONE)) in ids
    assert (3, ExposureState(2, ONLY_ONE)) in ids
    assert (3, ExposureState(1, 1)) in ids
    assert all(isinstance(b, float) and 0.0 <= b <= p.B_A for b in bids)


def test_forced_dp_equals_enumeration_bitwise():
    # the forced DP, by its best plan and its value for a batch of one,
    # against the brute-force lexicographic argmax of outcome_value
    for seed in range(10):
        m, a, x = random_instance(100 + seed)
        params = params_from_true(x, m, a)
        want_plan, want_value = enumerated_best_plan(params)
        plan, value = best_outcome_plan(params)
        assert plan == want_plan
        assert value == want_value  # bitwise: same fold order, same floats
        assert best_outcome_values(batch_params(x[None], m, a)).tolist() == [want_value]
        # the greedy path through the forced decisions by state id
        # reproduces the plan
        won, _ = planning._forced_policy(params, planning._win_if_better)
        i, path = 0, []
        for _ in range(3):
            path.append(bool(won[i]))
            i = state_table(3).next_id[i][path[-1]]
        assert tuple(path) == want_plan


def test_forced_dp_tie_prefers_losing():
    p0 = make_params(mu_nd=1.0, mu_f=1.0)
    em1 = hob_mean(1, p0.x, p0.auction)
    # win reward mu_f - em1 equals lose reward mu_nd exactly
    p = make_params(mu_nd=1.0, mu_f=1.0 + em1, log_means=(0.0,), sigmas=(1.0,))
    won, values = planning._forced_policy(p.op, planning._win_if_better)
    assert won[0] is False
    assert best_outcome_plan(p.op) == ((False,), values[0])


def test_dp_matches_expected_round_reward_model():
    # the planners' auction scoring agrees with the model closed forms when
    # fed the true parameters
    m, a, x = random_instance(7)
    params = true_customer(x, m, a, B_A=BOUNDS.B_A)
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


GRIDS = (
    default_bid_grid(BOUNDS),
    default_bid_grid(BOUNDS, 8),
    np.array([0.0, 0.0, 0.5, 0.5, 2.0, 2.0, 2.0, 10.0, 50.0]),
)


def test_dp_equals_closed_form_bitwise():
    # the exact planner's value against the scalar closed form, float for
    # float, on 100 instances at each H in 1..6; its bids scored by
    # policy_values and by the scalar closed forms give its value again; and
    # on a few of them it is at least the value of the best bids of every
    # reference grid
    for H, seed in itertools.product(range(1, 7), range(100)):
        p = random_params(H, seed=500 + 1000 * H + seed)
        bids, values = dp_policy(p.op, p.B_A)
        assert values[0] == closed_form_value(p)
        assert policy_value(p.op, bids) == scalar_policy_value(p, bids) == values[0]
        if seed < 3:
            for grid in GRIDS:
                assert values[0] >= scalar_grid_policy(p, grid)[1][0] - 1e-12


def test_dp_grid_ties_go_to_the_lower_bid():
    # the grid reference: HOB ~ 1 with a tiny spread, so bids up to 0.5 win
    # with probability exactly 0 and bids from 5 up win surely and pay
    # exactly the HOB mean, and each group scores the same float at every
    # state; the exact planner does at least as well
    p = make_params(mu_nd=1.0, mu_f=4.0, mu_l1=1.5, mu_l2=1.0, d1=1.0, d2=1.0,
                    log_means=(0.0, 0.0, 0.0), sigmas=(0.01, 0.01, 0.01))
    grid = np.array([0.0, 0.1, 0.2, 0.5, 5.0, 10.0, 20.0, 50.0])
    bids, values = scalar_grid_policy(p, grid)
    table = state_table(3)
    for (h, s), i in table.ids.items():
        nxt = [values[j] if j < len(values) else 0.0 for j in table.next_id[i][::-1]]
        q = [auction_round_value(p, h, s, float(a), *nxt) for a in grid]
        best = [float(a) for a, v in zip(grid, q) if v == max(q)]
        assert len(best) >= 2
        assert bids[i] == best[0] and values[i] == max(q)
    assert set(bids) == {0.0, 5.0}
    assert dp_policy(p.op, p.B_A)[1][0] >= values[0] - 1e-12


def test_dp_grid_never_chooses_nan():
    # an infinite win mean scores the zero bid inf * 0 = NaN and every
    # positive bid +inf: the grid reference skips the NaN and keeps the
    # first +inf, and the exact planner bids no infinite value of winning
    p = make_params(mu_f=math.inf, log_means=(0.0,), sigmas=(1.0,))
    bids, values = scalar_grid_policy(p, np.array([0.0, 0.5, 1.0]))
    assert bids[0] == 0.5 and values[0] == math.inf
    with pytest.raises(ValueError, match=r"^round 1, state id 0: the value of winning is inf$"):
        dp_policy(p.op, p.B_A)


def test_dp_rejects_a_nan_conversion_mean():
    # a NaN first-exposure mean makes the value of winning NaN in the
    # never-exposed state of the last round, the first the induction visits
    p = make_params(mu_f=math.nan)
    i = state_table(3).ids[(3, INITIAL_STATE)]
    with pytest.raises(ValueError, match=rf"^round 3, state id {i}: the value of winning is nan$"):
        dp_policy(p.op, p.B_A)


def exact_block(op, B_A=50.0):
    """Each customer's bids and values by state id, from one run of the
    exact planner over the batch `op`."""
    bids, values = dp_policy(op, B_A)
    return [([float(b[c]) for b in bids], [float(v[c]) for v in values])
            for c in range(len(values[0]))]


def stacked(customers):
    """One batch of single-customer params that share delays and HOB
    log-sds, customer k in column k."""
    ops = [p.op for p in customers]
    cols = {f: np.array([getattr(op, f) for op in ops]).T
            for f in ("mu", "hob", "log_hob")}
    return ops[0]._replace(**cols)


@pytest.mark.parametrize("H", range(1, 7))
def test_grid_blocks_equal_scalar_reference_bitwise(H):
    # the auction oracle on one block of 1, 2 and 17 customers of a batch,
    # in dimensions 1 to 5: every customer's bids and values against
    # `dp_policy` on its own params, its oracle value against the scalar
    # closed form, and its bids scored by policy_values, for the block and
    # for the customer alone, against its values
    sizes = (1, 2, 17)
    for dim in range(1, 6):
        m, a, X = batch_instance(H, dim, T=sum(sizes), seed=700 + 10 * H + dim)
        batch = batch_params(X, m, a)
        start = 0
        for n in sizes:
            block = batch.rows(start, start + n)
            got = exact_block(block)
            oracle = best_grid_values(block, 50.0).tolist()
            block_bids = np.array([bids for bids, _ in got]).T
            scored = policy_values(block, block_bids).tolist()
            for c, (bids, values) in enumerate(got, start):
                one = params_from_true(X[c], m, a)
                assert (bids, values) == dp_policy(one, 50.0)
                assert oracle[c - start] == scored[c - start] == values[0]
                assert policy_value(one, bids) == values[0]
                assert values[0] == closed_form_value(true_customer(X[c], m, a, B_A=50.0))
            start += n


def test_grid_block_mixes_ties_nan_and_ordinary_customers():
    # customer "tie" meets a HOB far above the cap, so no bid wins or pays
    # and its value is that of never bidding; customer "nan" converts a
    # first win infinitely, so its value of winning is infinite.  In one
    # block, in every order, "tie" and "ordinary" get their own plans, and
    # "nan" fails the block, naming its place in it.
    sigmas = (0.5, 0.5, 0.5)
    customers = {
        "tie": make_params(log_means=(300.0,) * 3, sigmas=sigmas),
        "nan": make_params(mu_f=math.inf, sigmas=sigmas),
        "ordinary": make_params(sigmas=sigmas),
    }
    reference = {k: dp_policy(customers[k].op, 50.0) for k in ("tie", "ordinary")}
    for order in itertools.permutations(customers):
        ops = [customers[k] for k in order]
        k = order.index("nan")
        with pytest.raises(ValueError, match=rf"^customer {k + 1} of the batch, round 3"):
            exact_block(stacked(ops))
        rest = [k for k in order if k != "nan"]
        block = exact_block(stacked([customers[k] for k in rest]))
        assert dict(zip(rest, block)) == reference
    bids, values = reference["tie"]
    assert values[0] == policy_value(customers["tie"].op, [0.0] * len(bids))


@pytest.mark.parametrize("H", range(1, 7))
def test_block_policy_value_equals_per_customer_bitwise(H):
    # random grid bids at every state id (customer 0 never bids), scored
    # for a block at once, one customer at a time and by the scalar closed
    # forms
    n_states = len(state_table(H).states)
    grid = default_bid_grid(BOUNDS)
    for dim in (1, 3, 5):
        m, a, X = batch_instance(H, dim, T=17, seed=900 + 10 * H + dim)
        batch = batch_params(X, m, a)
        bids = np.random.default_rng(H * dim).choice(grid, (n_states, len(X)))
        bids[:, 0] = 0.0
        got = policy_values(batch, bids).tolist()
        for c, x in enumerate(X):
            one = policy_value(params_from_true(x, m, a), bids[:, c])
            assert got[c] == one == scalar_policy_value(true_customer(x, m, a), bids[:, c])
        with pytest.raises(ValueError, match="bid must be nonnegative"):
            policy_values(batch, -bids - 1.0)


def test_closed_form_bid_clamps():
    p = make_params(mu_nd=5.0, mu_f=1.0)
    assert closed_form_bid(INITIAL_STATE, p, 0.0, 0.0) == 0.0
    p = make_params(mu_nd=0.0, mu_f=100.0, B_A=10.0)
    assert closed_form_bid(INITIAL_STATE, p, 0.0, 0.0) == 10.0


def test_dp_converges_to_closed_form():
    # the grid reference's value climbs to the exact planner's, which is the
    # closed form's bit for bit
    gaps = {n: [] for n in (64, 128, 256, 512)}
    for seed in range(20):
        m, a, x = random_instance(200 + seed)
        customer = true_customer(x, m, a, B_A=BOUNDS.B_A)
        v_star = closed_form_value(customer)
        assert dp_policy(params_from_true(x, m, a), BOUNDS.B_A)[1][0] == v_star
        for n in gaps:
            v = scalar_grid_policy(customer, default_bid_grid(BOUNDS, n))[1][0]
            assert v <= v_star + 1e-9
            gaps[n].append(v_star - v)
    means = {n: float(np.mean(g)) for n, g in gaps.items()}
    assert means[128] <= 0.6 * means[64] + 1e-10
    assert means[256] <= 0.6 * means[128] + 1e-10
    assert means[512] <= 0.6 * means[256] + 1e-10


def test_dp_dense_grid_near_exact():
    for seed in range(3):
        m, a, x = random_instance(300 + seed)
        customer = true_customer(x, m, a, B_A=BOUNDS.B_A)
        v_star = dp_policy(params_from_true(x, m, a), BOUNDS.B_A)[1][0]
        v = scalar_grid_policy(customer, default_bid_grid(BOUNDS, 10_000))[1][0]
        assert v <= v_star + 1e-9
        assert v_star - v <= 1e-4 * max(1.0, abs(v_star))


# --- oracle ------------------------------------------------------------------

def test_oracle_degenerate_instance():
    # all means equal, unit delays: winning only adds payment, both modes
    # settle on H * mu
    m = TrueModel(theta=np.tile([1.5, 0.0], (4, 1)), delay=np.ones(3))
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
    for i in range(len(m.theta)):
        theta2 = m.theta.copy()
        theta2[i] += 0.1
        m2 = TrueModel(theta=theta2, delay=m.delay)
        assert oracle_value(x, m2, a, "outcome") >= base_outcome - 1e-12
        assert oracle_value(x, m2, a, "dp", BOUNDS) >= base_dp - 1e-12
    for k in range(1, len(m.delay)):
        delay2 = m.delay.copy()
        delay2[k] += 0.1
        m2 = TrueModel(theta=m.theta, delay=delay2)
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
    params = params_from_true(x, m, a)
    p1, v1 = best_outcome_plan(params)
    p2, v2 = best_outcome_plan(params)
    assert p1 == p2 and v1 == v2
    t1 = dp_policy(params, BOUNDS.B_A)
    t2 = dp_policy(params, BOUNDS.B_A)
    assert t1 == t2


def test_default_grid_shape():
    g = default_bid_grid(BOUNDS)
    assert g[0] == 0.0 and len(g) == 257
    assert g[1] == pytest.approx(BOUNDS.b * 1e-2)
    assert g[-1] == pytest.approx(BOUNDS.B_A)
    assert np.all(np.diff(g) > 0)
