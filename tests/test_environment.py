"""Simulator: keyed random streams, episode execution, instance sampling,
and log serialization."""

import json
import math

import numpy as np
import pytest

from bidlab.environment import (
    EpisodeLog,
    InstanceRecipe,
    BENCHMARK_RECIPE,
    RandomSource,
    RoundRecord,
    generate_instance,
    instance_from_dict,
    instance_to_dict,
    read_context_csv,
    read_episode_csv,
    run_episode,
    sample_context,
    sample_conversions,
    sample_hob,
    write_context_csv,
    write_episode_csv,
)
from bidlab.model import (
    INITIAL_STATE,
    NEVER,
    NEVER_BEFORE,
    ONLY_ONE,
    AuctionModel,
    Bounds,
    DELAY_NEVER,
    ExposureState,
    TrueModel,
    conversion_mean,
    delay_lag,
    next_state,
    theta_indices,
)

BOUNDS = Bounds(b=0.1, B_x=5.0, B_theta=10.0, B_d=5.0, B_A=50.0, H=3, dim=2)


@pytest.fixture
def instance():
    return generate_instance(BENCHMARK_RECIPE, BOUNDS, RandomSource(7))


# --- random source ---------------------------------------------------------

def test_streams_reproducible_and_distinct():
    a = RandomSource(123).stream(4, "hob").standard_normal(8)
    b = RandomSource(123).stream(4, "hob").standard_normal(8)
    c = RandomSource(123).stream(5, "hob").standard_normal(8)
    d = RandomSource(124).stream(4, "hob").standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_scoped_prefix_matches_inline_key():
    a = RandomSource(9).scoped(3).stream("conv", "learner").standard_normal(4)
    b = RandomSource(9).stream(3, "conv", "learner").standard_normal(4)
    assert np.array_equal(a, b)


def test_negative_key_rejected():
    with pytest.raises(ValueError):
        RandomSource(1).stream(-2)


# --- primitive draws -------------------------------------------------------

def test_sample_hob_distribution():
    a = AuctionModel(beta=np.array([[0.4, 0.2]]), sigma=np.array([0.7]))
    x = np.array([1.0, 2.0])
    gen = RandomSource(11).stream("hob-dist")
    draws = np.array([sample_hob(1, x, a, gen) for _ in range(40_000)])
    logs = np.log(draws)
    assert logs.mean() == pytest.approx(0.8, abs=4 * 0.7 / math.sqrt(40_000))
    assert logs.std(ddof=1) == pytest.approx(0.7, rel=0.03)


def test_sample_conversions_distribution():
    gen = RandomSource(12).stream("conv-dist")
    draws = np.array([sample_conversions(3.7, gen) for _ in range(200_000)])
    assert draws.min() >= 0
    assert draws.mean() == pytest.approx(3.7, abs=0.02)
    assert sample_conversions(0.0, gen) == 0
    with pytest.raises(ValueError):
        sample_conversions(-0.1, gen)


# --- episodes --------------------------------------------------------------

def always_bid(amount):
    return lambda h, s, x: amount


def test_auction_episode_semantics(instance):
    m, a = instance
    x = np.array([1.0, 1.0])
    rng = RandomSource(31)
    ep = run_episode(always_bid(2.0), x, m, a, rng, "auction", t=5, bounds=BOUNDS)
    assert ep.t == 5 and len(ep.records) == BOUNDS.H
    s = INITIAL_STATE
    for r in ep.records:
        assert r.state == s
        assert r.won == (r.bid >= r.hob)
        assert r.payment == (r.hob if r.won else 0.0)
        assert r.bid == 2.0
        s = next_state(s, r.won)
    assert ep.realized_reward == pytest.approx(
        sum(r.conversions for r in ep.records) - sum(r.payment for r in ep.records)
    )


def test_bid_cap_and_negative_bid(instance):
    m, a = instance
    x = np.array([1.0, 1.0])
    ep = run_episode(always_bid(1e6), x, m, a, RandomSource(32), "auction",
                     bounds=BOUNDS)
    assert all(r.bid == BOUNDS.B_A for r in ep.records)
    with pytest.raises(ValueError):
        run_episode(always_bid(-1.0), x, m, a, RandomSource(32), "auction")


def test_forced_episode_semantics(instance):
    m, a = instance
    x = np.array([1.0, 1.0])
    plan = {1: True, 2: False, 3: True}
    ep = run_episode(lambda h, s, x: plan[h], x, m, a, RandomSource(33),
                     "forced", t=2, bounds=BOUNDS)
    for r in ep.records:
        assert r.won == plan[r.h]
        assert r.bid == (BOUNDS.B_A if r.won else 0.0)
        assert r.payment == (r.hob if r.won else 0.0)
    # forced outcomes ignore the auction comparison by design
    with pytest.raises(ValueError):
        run_episode(lambda h, s, x: True, x, m, a, RandomSource(33), "forced")


def test_hob_shared_across_policies(instance):
    m, a = instance
    x = np.array([1.0, 1.0])
    kw = dict(t=9, bounds=BOUNDS)
    win = run_episode(lambda h, s, x: True, x, m, a, RandomSource(40), "forced",
                      noise_label="p1", **kw)
    lose = run_episode(lambda h, s, x: False, x, m, a, RandomSource(40), "forced",
                       noise_label="p2", **kw)
    assert [r.hob for r in win.records] == [r.hob for r in lose.records]


def test_episode_replay_bit_exact(instance):
    m, a = instance
    x = np.array([0.5, 1.5])
    e1 = run_episode(always_bid(1.0), x, m, a, RandomSource(55), "auction", t=3)
    e2 = run_episode(always_bid(1.0), x, m, a, RandomSource(55), "auction", t=3)
    assert e1.records == e2.records


def test_episode_log_validates_chain():
    x = np.array([1.0, 0.0])
    good = [
        RoundRecord(1, 1, INITIAL_STATE, 0.0, 1.0, False, 0.0, 0),
        RoundRecord(1, 2, INITIAL_STATE, 2.0, 1.0, True, 1.0, 1),
        RoundRecord(1, 3, ExposureState(1, ONLY_ONE), 0.0, 1.0, False, 0.0, 0),
    ]
    EpisodeLog(1, x, good)
    bad = [good[0], good[1], RoundRecord(1, 3, INITIAL_STATE, 0.0, 1.0, False, 0.0, 0)]
    with pytest.raises(ValueError):
        EpisodeLog(1, x, bad)
    with pytest.raises(ValueError):
        EpisodeLog(1, x, [good[1]])


def test_conversion_rates_feed_poisson(instance):
    # empirical conversion mean in a fixed (state, outcome) cell matches the
    # model rate
    m, a = instance
    x = np.array([1.0, 1.0])
    rate = conversion_mean(INITIAL_STATE, True, x, m)
    rng = RandomSource(77)
    total, n = 0, 4000
    for t in range(n):
        ep = run_episode(lambda h, s, x: h == 1, x, m, a, rng, "forced",
                         t=t, bounds=BOUNDS)
        total += ep.records[0].conversions
    se = math.sqrt(rate / n)
    assert total / n == pytest.approx(rate, abs=5 * se)


# --- instances -------------------------------------------------------------

def test_generate_instance_bounds_and_determinism():
    m1, a1 = generate_instance(BENCHMARK_RECIPE, BOUNDS, RandomSource(100))
    m2, a2 = generate_instance(BENCHMARK_RECIPE, BOUNDS, RandomSource(100))
    for idx in theta_indices(BOUNDS.H):
        assert np.array_equal(m1.theta[idx], m2.theta[idx])
        assert np.linalg.norm(m1.theta[idx]) <= BOUNDS.B_theta + 1e-12
        assert (m1.theta[idx] > 0).all()
    assert m1.delay[DELAY_NEVER] == 1.0
    for idx, d in m1.delay.items():
        assert 0.0 <= d <= BOUNDS.B_d
    assert np.array_equal(a1.beta, a2.beta)
    assert a1.beta.shape == (BOUNDS.H, BOUNDS.dim)
    assert (a1.sigma > 0).all() and (a1.sigma <= BOUNDS.sigma_max).all()
    for row in a1.beta:
        assert np.linalg.norm(row) <= BOUNDS.B_beta + 1e-12


def test_degenerate_recipe_is_exact():
    recipe = InstanceRecipe(theta_scale=0.0, delay_scale=0.0, beta_scale=0.0,
                            sigma_scale=0.0, context_scale=0.0)
    m, a = generate_instance(recipe, BOUNDS, RandomSource(1))
    for idx in theta_indices(BOUNDS.H):
        assert np.array_equal(m.theta[idx], np.array([0.1, 0.1]))
    assert m.delay[delay_lag(1)] == 0.1 and m.delay[delay_lag(2)] == 0.1
    assert np.array_equal(a.beta, np.full((3, 2), 0.1))
    assert np.array_equal(a.sigma, np.full(3, 0.1))
    x = sample_context(recipe, BOUNDS, RandomSource(1).stream("ctx"))
    assert np.array_equal(x, np.array([0.1, 0.1]))


def test_strict_mode_rejects_rate_floor_violations():
    recipe = InstanceRecipe(theta_scale=0.0, delay_scale=0.0, beta_scale=0.0,
                            sigma_scale=0.0, context_scale=0.0, strict=True)
    # 0.1 * (0.1 + 0.1) = 0.02 < b = 0.1
    with pytest.raises(ValueError):
        generate_instance(recipe, BOUNDS, RandomSource(1))
    ok = InstanceRecipe(theta_scale=0.0, theta_offset=2.0, delay_scale=0.0,
                      beta_scale=0.0, sigma_scale=0.0, context_scale=0.0,
                      strict=True)
    generate_instance(ok, BOUNDS, RandomSource(1))


def test_instance_spec_validation():
    with pytest.raises(ValueError):
        InstanceRecipe(theta_offset=0.0)
    with pytest.raises(ValueError):
        InstanceRecipe(sigma_scale=-1.0)


def test_sample_context_cap():
    big = InstanceRecipe(context_scale=100.0)
    gen = RandomSource(3).stream("ctx")
    for _ in range(20):
        x = sample_context(big, BOUNDS, gen)
        assert np.linalg.norm(x) <= BOUNDS.B_x + 1e-12
        assert (x > 0).all()


# --- serialization ---------------------------------------------------------

def test_csv_round_trip(tmp_path, instance):
    m, a = instance
    rng = RandomSource(200)
    episodes = []
    contexts = []
    for t in range(1, 6):
        x = sample_context(BENCHMARK_RECIPE, BOUNDS, rng.stream(t, "ctx"))
        ep = run_episode(always_bid(1.5), x, m, a, rng, "auction", t=t)
        episodes.append((1, ep))
        contexts.append((1, t, x))
    epath = tmp_path / "episodes.csv"
    cpath = tmp_path / "contexts.csv"
    write_episode_csv(epath, episodes)
    write_context_csv(cpath, contexts)
    back = list(read_episode_csv(epath, read_context_csv(cpath)))
    assert len(back) == len(episodes)
    for (trial, ep), (trial2, ep2) in zip(episodes, back):
        assert trial == trial2 and ep.t == ep2.t
        assert np.array_equal(ep.x, ep2.x)
        for r, r2 in zip(ep.records, ep2.records):
            # forced flags live in memory only; everything else round-trips
            assert (r.t, r.h, r.state, r.bid, r.hob, r.won, r.payment,
                    r.conversions) == (r2.t, r2.h, r2.state, r2.bid, r2.hob,
                                       r2.won, r2.payment, r2.conversions)


def test_csv_sentinel_tokens(tmp_path, instance):
    m, a = instance
    x = np.array([1.0, 1.0])
    ep = run_episode(lambda h, s, x: h == 1, x, m, a, RandomSource(1),
                     "forced", bounds=BOUNDS)
    path = tmp_path / "e.csv"
    write_episode_csv(path, [(0, ep)])
    text = path.read_text().splitlines()
    assert text[0] == "trial,t,h,s1,s2,bid,hob,won,payment,conversions"
    assert text[1].split(",")[3:5] == ["NEVER", "NEVERBEFORE"]
    assert text[2].split(",")[3:5] == ["1", "ONLYONE"]
    assert text[3].split(",")[3:5] == ["2", "ONLYONE"]


def test_csv_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n")
    with pytest.raises(ValueError, match="line 1"):
        list(read_episode_csv(path, {}))
    path.write_text(
        "trial,t,h,s1,s2,bid,hob,won,payment,conversions\n"
        "0,1,1,NEVER,NEVERBEFORE,0.0,1.0,0,0.0,0\n"
        "0,1,2,WAT,NEVERBEFORE,0.0,1.0,0,0.0,0\n"
    )
    with pytest.raises(ValueError, match="line 3"):
        list(read_episode_csv(path, {(0, 1): np.array([1.0, 1.0])}))


def test_instance_snapshot_round_trip(instance):
    m, a = instance
    blob = json.dumps(instance_to_dict(m, a))
    m2, a2 = instance_from_dict(json.loads(blob), BOUNDS.H)
    for idx in theta_indices(BOUNDS.H):
        assert np.array_equal(m.theta[idx], m2.theta[idx])
    assert m.delay == m2.delay
    assert np.array_equal(a.beta, a2.beta)
    assert np.array_equal(a.sigma, a2.sigma)
