"""Core model: state machine, conversion rates, lognormal auction closed
forms.  Reference values were derived by hand or with scipy oracles and are
frozen here as literals."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidlab.model import (
    INITIAL_STATE,
    NEVER,
    NEVER_BEFORE,
    ONLY_ONE,
    AuctionModel,
    Bounds,
    ExposureState,
    TrueModel,
    conversion_mean,
    delay_index,
    expected_payment,
    hob_cdf_terms,
    hob_mean,
    lose_index,
    next_state,
    norm_cdf,
    reachable_states,
    StateTable,
    state_table,
    win_index,
    win_probability,
)
from bidlab.environment import delay_token, theta_token
from enumeration import (
    auction_round_value,
    cdf_integral,
    expected_payment_given_win,
    true_customer,
)

PHI_1 = 0.8413447460685429          # Phi(1)
E_HALF = 1.6487212707001282         # e^{1/2}
PAYMENT_01_1 = 0.5231565837302469   # E[HOB | HOB <= 1], log HOB ~ N(0,1)


# --- state machine --------------------------------------------------------

def test_initial_state():
    assert INITIAL_STATE == ExposureState(NEVER, NEVER_BEFORE)


def test_transitions_by_hand():
    s0 = INITIAL_STATE
    assert next_state(s0, won=False) == s0
    assert next_state(s0, won=True) == ExposureState(1, ONLY_ONE)
    assert next_state(ExposureState(1, ONLY_ONE), False) == ExposureState(2, ONLY_ONE)
    assert next_state(ExposureState(2, ONLY_ONE), True) == ExposureState(1, 2)
    assert next_state(ExposureState(1, 2), False) == ExposureState(2, 2)
    assert next_state(ExposureState(3, 2), True) == ExposureState(1, 3)


def test_seven_round_trajectory():
    # wins at rounds 3 and 6, losses elsewhere
    wins = {3, 6}
    s = INITIAL_STATE
    seen = []
    for h in range(1, 8):
        seen.append(s)
        s = next_state(s, h in wins)
    assert seen == [
        INITIAL_STATE,
        INITIAL_STATE,
        INITIAL_STATE,
        ExposureState(1, ONLY_ONE),
        ExposureState(2, ONLY_ONE),
        ExposureState(3, ONLY_ONE),
        ExposureState(1, 3),
    ]


def test_state_validation():
    with pytest.raises(ValueError):
        ExposureState(NEVER, ONLY_ONE)
    with pytest.raises(ValueError):
        ExposureState(1, NEVER_BEFORE)
    with pytest.raises(ValueError):
        ExposureState(-1, NEVER_BEFORE)
    with pytest.raises(ValueError):
        ExposureState(1, -2)
    with pytest.raises(ValueError):
        ExposureState(NEVER, 1)
    with pytest.raises(ValueError):
        ExposureState(1.0, 1)
    assert ExposureState(1, 0) == ExposureState(1, ONLY_ONE)


def test_reachable_states_h3():
    rounds = reachable_states(3)
    assert rounds[0] == [INITIAL_STATE]
    assert set(rounds[1]) == {INITIAL_STATE, ExposureState(1, ONLY_ONE)}
    assert set(rounds[2]) == {
        INITIAL_STATE,
        ExposureState(1, ONLY_ONE),
        ExposureState(2, ONLY_ONE),
        ExposureState(1, 1),
    }


@pytest.mark.parametrize("H", [1, 2, 3, 5, 8])
def test_reachable_states_invariants(H):
    rounds = reachable_states(H)
    assert len(rounds) == H
    for h, states in enumerate(rounds, start=1):
        assert len(set(states)) == len(states)
        for s in states:
            if s.s1 == NEVER:
                assert s.s2 == NEVER_BEFORE
            else:
                # in-episode lag+gap never exceeds the rounds elapsed
                assert s.s2 >= ONLY_ONE and s.s1 + s.s2 <= h - 1 <= H - 1


@pytest.mark.parametrize("H", [1, 2, 3, 5, 8])
def test_state_table_agrees_with_the_state_machine(H):
    table = StateTable(H)
    levels = reachable_states(H)
    end = len(table.states)
    for h, layer in enumerate(table.layers, start=1):
        # 1 + h(h-1)/2 states at round h, in reachable_states order
        assert len(layer) == 1 + h * (h - 1) // 2
        assert [table.states[i] for i in layer] == levels[h - 1]
        for i in layer:
            s = table.states[i]
            assert table.ids[(h, s)] == i
            for won in (False, True):
                nxt = table.next_id[i][won]
                if h == H:
                    assert nxt == end
                else:
                    assert nxt in table.layers[h]
                    assert table.states[nxt] == next_state(s, won)
    assert [i for layer in table.layers for i in layer] == list(range(end))
    # built once per H and shared
    assert state_table(H) is state_table(H)


@given(st.lists(st.booleans(), max_size=12))
def test_transition_chain_stays_valid(outcomes):
    s = INITIAL_STATE
    for n, won in enumerate(outcomes, start=1):
        prev, s = s, next_state(s, won)
        assert s.s1 + s.s2 <= n
        if won:
            assert s == ExposureState(1, prev.s1)


# --- index mapping and conversion rates -----------------------------------

def test_index_mapping():
    # theta rows: 0 natural demand, 1 first exposure, k + 1 lag k; delay
    # entries: 0 never exposed, k lag k
    assert win_index(NEVER) == 1
    assert win_index(2) == 3
    assert lose_index(NEVER_BEFORE) == 0
    assert lose_index(ONLY_ONE) == 1
    assert lose_index(3) == 4
    assert delay_index(NEVER) == 0
    assert delay_index(2) == 2
    # every reachable state maps into the (H+1)-row theta array and the
    # length-H delay array, and each row is the one the lags name
    for H in range(1, 8):
        for h, states in enumerate(reachable_states(H), start=1):
            for s in states:
                assert 1 <= win_index(s.s1) <= h <= H
                assert 0 <= lose_index(s.s2) <= h - 1
                assert 0 <= delay_index(s.s1) <= h - 1
                assert (lose_index(s.s2) == 0) == (delay_index(s.s1) == 0)


def test_theta_index_families():
    # the file tokens of the theta rows and delay entries, in position order
    assert [theta_token(i) for i in range(5)] == [
        "NATURAL_DEMAND", "FIRST_EXPOSURE", "LAG1", "LAG2", "LAG3",
    ]
    assert [delay_token(k) for k in range(4)] == ["NEVER", "LAG1", "LAG2", "LAG3"]


@pytest.fixture
def tiny_model():
    theta = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0], [5.0, 0.0]])
    return TrueModel(theta=theta, delay=np.array([1.0, 0.5, 0.25, 0.125]))


def test_conversion_mean_cases(tiny_model):
    x = np.array([1.0, 9.0])
    m = tiny_model
    # fresh customer: win uses the first-exposure effect, loss natural demand
    assert conversion_mean(INITIAL_STATE, True, x, m) == 2.0
    assert conversion_mean(INITIAL_STATE, False, x, m) == 1.0
    # single past exposure, lag 2: win re-exposes at lag 2; loss decays the
    # first-exposure effect by the lag-2 delay factor
    s = ExposureState(2, ONLY_ONE)
    assert conversion_mean(s, True, x, m) == 4.0
    assert conversion_mean(s, False, x, m) == 0.25 * 2.0
    # two past exposures, lag 1 and gap 3
    s = ExposureState(1, 3)
    assert conversion_mean(s, True, x, m) == 3.0
    assert conversion_mean(s, False, x, m) == 0.5 * 5.0


def test_conversion_mean_rejects_negative(tiny_model):
    x = np.array([-1.0, 0.0])
    with pytest.raises(ValueError):
        conversion_mean(INITIAL_STATE, True, x, tiny_model)


def test_true_model_validation(tiny_model):
    b = Bounds(b=0.1, B_x=5.0, B_theta=10.0, B_d=5.0, B_A=50.0, H=4, dim=2)
    tiny_model.validate(b)
    with pytest.raises(ValueError):
        tiny_model.validate(Bounds(b=0.1, B_x=5.0, B_theta=1.0, B_d=5.0, B_A=50.0, H=4, dim=2))
    with pytest.raises(ValueError):
        TrueModel(theta=tiny_model.theta, delay=np.array([0.5, 0.5, 0.25, 0.125]))
    with pytest.raises(ValueError):
        TrueModel(theta=tiny_model.theta, delay=np.array([1.0, -0.1, 0.25, 0.125]))
    with pytest.raises(ValueError):
        TrueModel(theta=tiny_model.theta, delay=np.array([1.0, 0.5, 0.25]))
    # B_d bounds the lag factors only; the never-exposed factor is 1
    tiny_model.validate(replace(b, B_d=0.5))
    with pytest.raises(ValueError):
        tiny_model.validate(replace(b, B_d=0.4))
    with pytest.raises(ValueError):
        tiny_model.validate(replace(b, H=3))


def test_bounds_validation():
    with pytest.raises(ValueError):
        Bounds(b=60.0, B_x=5.0, B_theta=10.0, B_d=5.0, B_A=50.0, H=3, dim=2)
    with pytest.raises(ValueError):
        Bounds(b=0.1, B_x=5.0, B_theta=10.0, B_d=5.0, B_A=50.0, H=0, dim=2)


# --- lognormal auction closed forms ---------------------------------------

def test_norm_cdf_frozen():
    assert norm_cdf(0.0) == 0.5
    assert norm_cdf(1.0) == pytest.approx(PHI_1, abs=1e-15)
    assert norm_cdf(-1.0) + norm_cdf(1.0) == pytest.approx(1.0, abs=1e-15)
    assert norm_cdf(-40.0) == 0.0
    assert norm_cdf(40.0) == 1.0


@pytest.fixture
def unit_auction():
    # one round, log HOB ~ N(<x,beta>, 1) with beta = e_1
    return AuctionModel(beta=np.array([[1.0, 0.0]]), sigma=np.array([1.0]))


def test_win_probability(unit_auction):
    x = np.array([0.0, 3.0])  # log mean 0
    a = unit_auction
    assert win_probability(1, 0.0, x, a) == 0.0
    assert win_probability(1, 1.0, x, a) == 0.5
    assert win_probability(1, math.e, x, a) == pytest.approx(PHI_1, abs=1e-15)
    with pytest.raises(ValueError):
        win_probability(1, -0.5, x, a)


def test_hob_cdf_terms_arrays_match_scalars():
    # the array form gives the scalar floats, and both are the closed forms
    # Phi(u) and exp(mu + sigma^2/2) Phi(u - sigma) evaluated with libm
    rng = np.random.default_rng(11)
    a = AuctionModel(beta=rng.uniform(-1.0, 1.0, (3, 2)),
                     sigma=rng.uniform(0.1, 3.0, 3))
    x = rng.uniform(0.0, 2.0, 2)
    bids = np.geomspace(1e-4, 1e3, 300).tolist()
    for h in (1, 2, 3):
        F, pay = hob_cdf_terms(h, np.array([math.log(b) for b in bids]), x, a)
        mu, sigma = float(a.beta[h - 1] @ x), float(a.sigma[h - 1])
        for bid, f, p in zip(bids, F.tolist(), pay.tolist()):
            u = (math.log(bid) - mu) / sigma
            assert f == 0.5 * math.erfc(-u / math.sqrt(2.0))
            assert p == math.exp(mu + 0.5 * sigma**2) * (
                0.5 * math.erfc(-(u - sigma) / math.sqrt(2.0))
            )
            assert f == win_probability(h, bid, x, a)
            assert p == expected_payment(h, bid, x, a)


def test_hob_mean_frozen(unit_auction):
    x = np.array([0.0, 1.0])
    assert hob_mean(1, x, unit_auction) == pytest.approx(E_HALF, abs=1e-15)


def test_payment_frozen_and_bounded(unit_auction):
    x = np.array([0.0, 1.0])
    p = expected_payment_given_win(1, 1.0, x, unit_auction)
    assert p == pytest.approx(PAYMENT_01_1, abs=1e-12)
    assert 0.0 < p <= 1.0
    with pytest.raises(ValueError):
        # win probability underflows to zero this deep in the tail
        expected_payment_given_win(1, math.exp(-100.0), x, unit_auction)


def _quad_cdf_integral(h, bid, x, a, n=200_000):
    # trapezoid oracle for int_0^bid F; F is smooth and bounded
    grid = np.linspace(0.0, bid, n)
    vals = np.array([win_probability(h, g, x, a) for g in grid])
    return float(np.trapezoid(vals, grid))


@pytest.mark.parametrize("bid", [0.25, 1.0, 3.0, 10.0])
def test_cdf_integral_against_quadrature(unit_auction, bid):
    x = np.array([0.5, 0.0])
    got = cdf_integral(1, bid, x, unit_auction)
    want = _quad_cdf_integral(1, bid, x, unit_auction)
    assert got == pytest.approx(want, rel=1e-6, abs=1e-8)


def test_payment_against_quadrature(unit_auction):
    # p = bid - (1/F) int_0^bid F, independently of the closed form
    x = np.array([0.0, 1.0])
    bid = 1.0
    F = win_probability(1, bid, x, unit_auction)
    want = bid - _quad_cdf_integral(1, bid, x, unit_auction) / F
    got = expected_payment_given_win(1, bid, x, unit_auction)
    assert got == pytest.approx(want, abs=1e-8)


def test_payment_integral_identity(unit_auction):
    # p * F == bid * F - int_0^bid F  on a bid grid
    x = np.array([0.3, 0.0])
    a = unit_auction
    for bid in np.geomspace(0.05, 20.0, 100):
        F = win_probability(1, bid, x, a)
        lhs = expected_payment_given_win(1, bid, x, a) * F
        rhs = bid * F - cdf_integral(1, bid, x, a)
        assert lhs == pytest.approx(rhs, abs=1e-8)


@given(
    lm=st.floats(-2.0, 2.0),
    sigma=st.floats(0.1, 3.0),
    bid=st.floats(1e-3, 50.0),
)
@settings(max_examples=200, deadline=None)
def test_payment_never_exceeds_bid(lm, sigma, bid):
    a = AuctionModel(beta=np.array([[lm, 0.0]]), sigma=np.array([sigma]))
    x = np.array([1.0, 0.0])
    if win_probability(1, bid, x, a) == 0.0:
        return
    p = expected_payment_given_win(1, bid, x, a)
    assert 0.0 <= p <= bid + 1e-12


def test_payment_monotone_in_bid(unit_auction):
    x = np.array([0.0, 1.0])
    bids = np.geomspace(0.1, 10.0, 50)
    pays = [expected_payment_given_win(1, b, x, unit_auction) for b in bids]
    assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(pays, pays[1:]))


# --- expected round reward -------------------------------------------------

def expected_round_reward(h, s, bid, x, m, a):
    # the planners' auction round value with zero successor values, fed the
    # true parameters
    return auction_round_value(true_customer(x, m, a), h, s, bid, 0.0, 0.0)


@pytest.fixture
def reward_setup(tiny_model, unit_auction):
    return tiny_model, unit_auction, np.array([0.8, 0.1])


def test_reward_zero_bid_is_passive_value(reward_setup):
    m, a, x = reward_setup
    s = ExposureState(2, ONLY_ONE)
    # conversion_mean applies the delay factor on a loss: 0.25 * <theta_F, x>
    assert conversion_mean(s, False, x, m) == pytest.approx(0.25 * 2.0 * 0.8)
    assert expected_round_reward(1, s, 0.0, x, m, a) == pytest.approx(
        conversion_mean(s, False, x, m)
    )


def test_reward_large_bid_limit(reward_setup):
    m, a, x = reward_setup
    s = INITIAL_STATE
    got = expected_round_reward(1, s, 1e9, x, m, a)
    want = conversion_mean(s, True, x, m) - hob_mean(1, x, a)
    assert got == pytest.approx(want, rel=1e-9)


def test_reward_consistent_with_payment(reward_setup):
    m, a, x = reward_setup
    s = ExposureState(1, ONLY_ONE)
    for bid in (0.3, 1.0, 2.5, 8.0):
        F = win_probability(1, bid, x, a)
        p = expected_payment_given_win(1, bid, x, a)
        want = (
            conversion_mean(s, False, x, m) * (1.0 - F)
            + (conversion_mean(s, True, x, m) - p) * F
        )
        got = expected_round_reward(1, s, bid, x, m, a)
        assert got == pytest.approx(want, rel=1e-12)


def test_reward_monte_carlo():
    rng = np.random.default_rng(20240817)
    n = 1_000_000
    for _ in range(20):
        dim = 2
        x = rng.uniform(0.1, 1.5, dim)
        theta = np.stack([rng.uniform(0.1, 2.0, dim) for _ in range(4)])
        delay = np.array([1.0, rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)])
        m = TrueModel(theta=theta, delay=delay)
        a = AuctionModel(beta=rng.uniform(-0.5, 0.8, (1, dim)),
                         sigma=np.array([rng.uniform(0.3, 1.2)]))
        s = [INITIAL_STATE, ExposureState(1, ONLY_ONE), ExposureState(2, 1)][
            int(rng.integers(3))
        ]
        bid = float(rng.uniform(0.2, 5.0))

        hob = np.exp(a.log_mean(1, x) + a.log_sd(1) * rng.standard_normal(n))
        win = bid >= hob
        mu_w = conversion_mean(s, True, x, m)
        mu_l = conversion_mean(s, False, x, m)
        sample = np.where(win, mu_w - hob, mu_l)
        got = expected_round_reward(1, s, bid, x, m, a)
        est = float(sample.mean())
        se = float(sample.std(ddof=1)) / math.sqrt(n)
        assert got == pytest.approx(est, abs=max(6 * se, 0.01 * abs(est)))


def test_reward_monotone_in_level(reward_setup):
    m, a, x = reward_setup
    # richer conversion model raises the reward at any bid
    m2 = TrueModel(theta=m.theta * 2.0, delay=m.delay)
    for bid in (0.0, 0.5, 2.0):
        assert expected_round_reward(1, INITIAL_STATE, bid, x, m2, a) >= (
            expected_round_reward(1, INITIAL_STATE, bid, x, m, a)
        )
