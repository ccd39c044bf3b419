"""Simulator: keyed random streams, episode execution, instance sampling,
and log serialization."""

import csv
import itertools
import json
import math
import re
from dataclasses import replace
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bidlab import environment
from bidlab.environment import (
    Episodes,
    InstanceRecipe,
    BENCHMARK_RECIPE,
    RandomSource,
    draw_hobs,
    generate_instance,
    instance_from_dict,
    instance_to_dict,
    read_context_csv,
    read_context_rows,
    read_episode_csv,
    run_episode,
    sample_context,
    sample_conversions,
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
    ExposureState,
    TrueModel,
    conversion_mean,
    next_state,
    reachable_states,
    state_table,
)
from bidlab import harness
from bidlab.planning import batch_params, forced_bids
import enumeration

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


# every key family run_trial prepares
TRIAL_FAMILIES = [
    ("ctx",), ("hob",), ("plan", "random"),
    *(("conv", name) for name in ("learner", "aggressive", "random", "passive")),
]


def _seed_words(gen: np.random.Generator) -> np.ndarray:
    return gen.bit_generator.seed_seq.generate_state(4, np.uint64)


@pytest.mark.parametrize("root", [0, 69, 2**32, 2**70 + 5])
@pytest.mark.parametrize("prefix", [(), (0,), (2**32 + 3,)])
def test_prepared_streams_equal_seed_sequence_streams(root, prefix):
    count = 150
    plain = RandomSource(root, prefix)
    prepared = plain.prepare(count, *TRIAL_FAMILIES)
    for family in TRIAL_FAMILIES:
        # t = count + 1 and the other families take the SeedSequence path
        for t in range(1, count + 2):
            a, b = prepared.stream(t, *family), plain.stream(t, *family)
            assert np.array_equal(_seed_words(a), _seed_words(b))
            assert np.array_equal(a.integers(2**63, size=3), b.integers(2**63, size=3))
    for key in [(1, "instance"), ("instance",), (np.int64(3), "hob"), (0, "ctx")]:
        assert np.array_equal(prepared.stream(*key).random(3), plain.stream(*key).random(3))


def test_bulk_seed_words_cover_every_32_bit_customer_index():
    # t is one word below 2**32; prepare only ever fills 1..count, so the
    # mix is checked on hand-built rows up to t = 2**32 - 1
    ts = [1, 2**16, 2**31 - 1, 2**31, 2**32 - 2, 2**32 - 1]
    for root, prefix in [(0, ()), (69, (1,)), (2**70 + 5, (2**32 + 3,))]:
        for family in TRIAL_FAMILIES:
            parts = [environment._encode_key_part(p) for p in family]
            rows = np.array(
                [environment._words(root, *prefix, t, *parts) for t in ts], np.uint32
            )
            words = environment._pcg64_seeds(rows)
            for t, got in zip(ts, words):
                want = np.random.SeedSequence((root, *prefix, t, *parts))
                assert np.array_equal(got, want.generate_state(4, np.uint64))


@pytest.mark.parametrize("row", [0, -1])
def test_prepare_rejects_wrong_seed_words(monkeypatch, row):
    real = environment._pcg64_seeds

    def corrupted(entropy):
        words = real(entropy)
        words[row, 2] ^= np.uint64(1)
        return words

    monkeypatch.setattr(environment, "_pcg64_seeds", corrupted)
    with pytest.raises(RuntimeError, match="seed words of key"):
        RandomSource(5, (1,)).prepare(40, ("hob",))


def test_prepare_needs_a_32_bit_count():
    for count in (0, 2**32):
        with pytest.raises(ValueError, match="prepare"):
            RandomSource(1).prepare(count, ("ctx",))
    for count, start in ((1, 2**32 - 1), (2, 2**32 - 2), (1, -1)):
        with pytest.raises(ValueError, match="prepare"):
            RandomSource(1).prepare(count, ("ctx",), start=start)


@pytest.mark.parametrize("start, count", [(0, 1), (7, 5), (512, 512), (2**32 - 4, 3)])
def test_a_prepared_range_of_keys_equals_seed_sequence_streams(start, count):
    # a trial prepares one segment of customers at a time: keys start+1 to
    # start+count, and any key outside the range takes the SeedSequence path
    plain = RandomSource(69, (3,))
    prepared = plain.prepare(count, *TRIAL_FAMILIES, start=start)
    ts = sorted({start, start + 1, start + count // 2 + 1, start + count,
                 start + count + 1} - {0})
    for family in TRIAL_FAMILIES:
        for t in ts:
            a, b = prepared.stream(t, *family), plain.stream(t, *family)
            assert np.array_equal(_seed_words(a), _seed_words(b))
            assert np.array_equal(a.random(2), b.random(2))


def test_the_families_of_one_word_count_share_a_pass(monkeypatch):
    # the 7 trial families have 1, 3 or 4 key words: three passes
    real, passes = environment._pcg64_seeds, []

    def counting(entropy):
        passes.append(entropy.shape)
        return real(entropy)

    monkeypatch.setattr(environment, "_pcg64_seeds", counting)
    RandomSource(0).scoped(1).prepare(10, *TRIAL_FAMILIES, start=20)
    assert sorted(passes) == [(10, 7), (20, 4), (40, 6)]


@pytest.mark.parametrize("H", [1, 2, 3, 6])
def test_one_poisson_call_equals_per_round_draws(H):
    # numpy's array Poisson draws element by element in order, so H
    # conversion counts from one array call equal H scalar calls
    gen = np.random.default_rng(2024 + H)
    rates = gen.exponential(gen.choice([0.5, 5.0, 50.0, 500.0], size=(5000, 1)),
                            size=(5000, H))
    rates[::7, 0] = 0.0
    vector, scalar = np.random.default_rng(H), np.random.default_rng(H)
    for row in rates:
        assert vector.poisson(row).tolist() == [
            sample_conversions(float(r), scalar) for r in row
        ]


def test_per_round_draws_on_prepared_streams_equal_one_array_call():
    # a baseline's conversions are drawn round by round on the customer's
    # prepared (t, "conv", name) stream, as run_episode draws; rates of 0,
    # below 10 (inversion) and 10 or more (numpy's PTRS branch)
    rates = [[0.0, 0.0, 0.0], [0.3, 9.99, 0.0], [10.0, 57.5, 3.0], [1e3, 0.0, 12.0]]
    rng = RandomSource(7).scoped(2).prepare(len(rates), ("conv", "random"))
    for t, row in enumerate(rates, start=1):
        scalar = rng.stream(t, "conv", "random")
        draws = [sample_conversions(r, scalar) for r in row]
        assert draws == rng.stream(t, "conv", "random").poisson(row).tolist()
        assert all(d == 0 for d, r in zip(draws, row) if r == 0)


# --- primitive draws -------------------------------------------------------

def test_sample_hob_distribution():
    a = AuctionModel(beta=np.array([[0.4, 0.2]]), sigma=np.array([0.7]))
    x = np.array([1.0, 2.0])
    gen = RandomSource(11).stream("hob-dist")
    draws = np.array([enumeration.sample_hob(1, x, a, gen) for _ in range(40_000)])
    logs = np.log(draws)
    assert logs.mean() == pytest.approx(0.8, abs=4 * 0.7 / math.sqrt(40_000))
    assert logs.std(ddof=1) == pytest.approx(0.7, rel=0.03)


@pytest.mark.parametrize("H", [1, 2, 3, 5])
@pytest.mark.parametrize("n", [1, 9])
def test_a_segments_hobs_equal_each_customers_draws_one_at_a_time(H, n):
    # a segment of one customer takes batch_params's padded product
    bounds = replace(BOUNDS, H=H, dim=3)
    rng = RandomSource(50 + H)
    m, a = generate_instance(BENCHMARK_RECIPE, bounds, rng)
    start = 1000
    X = np.array([sample_context(BENCHMARK_RECIPE, bounds, rng.stream(t, "ctx"))
                  for t in range(start + 1, start + n + 1)])
    got = draw_hobs(batch_params(X, m, a), rng, start)
    want = [enumeration.draw_hobs(x, a, rng, t) for t, x in enumerate(X, start + 1)]
    assert got.shape == (n, H) and got.tolist() == want


def test_sample_conversions_distribution():
    gen = RandomSource(12).stream("conv-dist")
    draws = np.array([sample_conversions(3.7, gen) for _ in range(200_000)])
    assert draws.min() >= 0
    assert draws.mean() == pytest.approx(3.7, abs=0.02)
    assert sample_conversions(0.0, gen) == 0
    with pytest.raises(ValueError):
        sample_conversions(-0.1, gen)


# --- episodes --------------------------------------------------------------

def always_bid(amount, H=BOUNDS.H):
    """The same bid in every state id."""
    return [amount] * len(state_table(H).states)


def play(bids, x, m, a, rng, t=1, noise_label="policy"):
    """One episode on customer t's own HOB draws."""
    return run_episode(bids, x, m, a, rng, t=t, noise_label=noise_label,
                       hobs=enumeration.draw_hobs(x, a, rng, t))


class Round(NamedTuple):
    h: int
    state: ExposureState
    bid: float
    hob: float
    won: bool
    payment: float
    conversions: int


def rounds(ep, k=0):
    """Row k of an episode record, one tuple per round, its state read from
    the state table by id."""
    states = state_table(ep.won.shape[1]).states
    columns = (ep.ids, ep.bid, ep.hob, ep.won, ep.payment, ep.conversions)
    return [Round(h, states[i], *rest)
            for h, (i, *rest) in enumerate(zip(*(c[k].tolist() for c in columns)), 1)]


def assert_same_record(got, want):
    for name in Episodes.__slots__:
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.tolist() == w.tolist(), name


def test_auction_episode_semantics(instance):
    m, a = instance
    x = np.array([1.0, 1.0])
    rng = RandomSource(31)
    ep = play(always_bid(2.0), x, m, a, rng, t=5)
    assert ep.t.tolist() == [5] and len(ep) == 1 and ep.won.shape == (1, BOUNDS.H)
    assert ep.x.tolist() == [x.tolist()]
    s = INITIAL_STATE
    for r in rounds(ep):
        assert r.state == s
        assert r.won == (r.bid >= r.hob)
        assert r.payment == (r.hob if r.won else 0.0)
        assert r.bid == 2.0
        s = next_state(s, r.won)
    assert ep.ids[0, BOUNDS.H] == len(state_table(BOUNDS.H).states)
    assert ep.realized_reward.tolist() == [pytest.approx(
        sum(r.conversions for r in rounds(ep)) - sum(r.payment for r in rounds(ep))
    )]


def test_each_state_id_plays_its_own_bid(instance):
    m, a = instance
    x = np.array([1.0, 1.0])
    table = state_table(BOUNDS.H)
    bids = [0.25 * (i + 1) for i in range(len(table.states))]
    for t in range(1, 20):
        ep = play(bids, x, m, a, RandomSource(34), t=t)
        for r in rounds(ep):
            assert r.bid == bids[table.ids[(r.h, r.state)]]
            assert r.won == (r.bid >= r.hob)


def test_large_bids_are_uncapped_and_negative_bids_rejected(instance):
    m, a = instance
    x = np.array([1.0, 1.0])
    ep = play(always_bid(1e6), x, m, a, RandomSource(32))
    assert all(r.bid == 1e6 and r.won for r in rounds(ep))
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="bid must be >= 0"):
            play(always_bid(bad), x, m, a, RandomSource(32))


def test_forced_episode_semantics(instance):
    m, a = instance
    x = np.array([1.0, 1.0])
    plan = (True, False, True)
    ep = play(forced_bids(plan), x, m, a, RandomSource(33), t=2)
    for r in rounds(ep):
        assert r.won == plan[r.h - 1]
        assert r.bid == (math.inf if r.won else 0.0)
        assert r.payment == (r.hob if r.won else 0.0)
    # inf wins at any price, 0.0 loses to any HOB
    kw = dict(t=2, noise_label="policy")
    for plan, hob in (((True,) * 3, 1e300), ((False,) * 3, 1e-300)):
        ep = run_episode(forced_bids(plan), x, m, a, RandomSource(33),
                         hobs=[hob] * 3, **kw)
        assert ep.won[0].tolist() == list(plan)
        assert ep.payment[0].tolist() == [hob if w else 0.0 for w in plan]


def test_hob_shared_across_policies(instance):
    m, a = instance
    x = np.array([1.0, 1.0])
    win = play(forced_bids((True,) * 3), x, m, a, RandomSource(40), t=9,
               noise_label="p1")
    lose = play(forced_bids((False,) * 3), x, m, a, RandomSource(40), t=9,
                noise_label="p2")
    assert win.hob.tolist() == lose.hob.tolist()


def test_hobs_drawn_once_feed_every_episode(instance):
    m, a = instance
    x = np.array([1.0, 1.0])
    rng = RandomSource(41)
    hobs = enumeration.draw_hobs(x, a, rng, 9)
    assert len(hobs) == BOUNDS.H
    assert hobs == enumeration.draw_hobs(x, a, rng, 9)  # the customer's own stream
    kw = dict(t=9, noise_label="policy")
    given = run_episode(always_bid(2.0), x, m, a, rng, hobs=hobs, **kw)
    assert given.hob[0].tolist() == hobs
    # given HOBs are taken as they are, as floats; ties win
    fixed = run_episode(always_bid(2.0), x, m, a, rng,
                        hobs=np.array([1.0, 3.0, 2.0], dtype=np.float32), **kw)
    assert fixed.won[0].tolist() == [True, False, True]
    assert fixed.hob.dtype == np.float64
    with pytest.raises(ValueError, match="one HOB per round"):
        run_episode(always_bid(2.0), x, m, a, rng, hobs=[1.0], **kw)


def test_episode_replay_bit_exact(instance):
    m, a = instance
    x = np.array([0.5, 1.5])
    e1 = play(always_bid(1.0), x, m, a, RandomSource(55), t=3)
    e2 = play(always_bid(1.0), x, m, a, RandomSource(55), t=3)
    assert_same_record(e1, e2)


def test_episode_log_validates_chain(tmp_path):
    # an episode read from a log starts from the initial state, follows
    # each round's outcome and labels its rounds 1..H
    good = ["0,1,1,NEVER,NEVERBEFORE,0.0,1.0,0,0.0,0\n",
            "0,1,2,NEVER,NEVERBEFORE,2.0,1.0,1,1.0,1\n",
            "0,1,3,1,ONLYONE,0.0,1.0,0,0.0,0\n"]
    contexts = [(0, 1, np.array([1.0, 0.0]))]
    path = tmp_path / "e.csv"
    path.write_text(_HEADER + "".join(good))
    [(_, ep)] = read_episode_csv(path, contexts, 3, 1)
    table = state_table(3)
    assert ep.ids.tolist() == [[0, table.ids[(2, INITIAL_STATE)],
                                table.ids[(3, ExposureState(1, ONLY_ONE))],
                                len(table.states)]]
    for rows, message in (
        (good[:2] + ["0,1,3,NEVER,NEVERBEFORE,0.0,1.0,0,0.0,0\n"],
         "state chain broken at round 2"),
        (["0,1,1,1,ONLYONE,0.0,1.0,0,0.0,0\n"] + good[1:],
         "episodes must start from the initial state"),
        (good[:1] + [good[1].replace("0,1,2,", "0,1,3,")] + good[2:],
         "round 2 is mislabelled as round 3"),
    ):
        path.write_text(_HEADER + "".join(rows))
        with pytest.raises(ValueError, match=rf"^line 2: {message}"):
            list(read_episode_csv(path, contexts, 3, 1))


def test_conversion_rates_feed_poisson(instance):
    # empirical conversion mean in a fixed (state, outcome) cell matches the
    # model rate
    m, a = instance
    x = np.array([1.0, 1.0])
    rate = conversion_mean(INITIAL_STATE, True, x, m)
    rng = RandomSource(77)
    total, n = 0, 4000
    for t in range(n):
        ep = play(forced_bids((True, False, False)), x, m, a, rng, t=t)
        total += ep.conversions[0, 0]
    se = math.sqrt(rate / n)
    assert total / n == pytest.approx(rate, abs=5 * se)


# --- instances -------------------------------------------------------------

def test_generate_instance_bounds_and_determinism():
    m1, a1 = generate_instance(BENCHMARK_RECIPE, BOUNDS, RandomSource(100))
    m2, a2 = generate_instance(BENCHMARK_RECIPE, BOUNDS, RandomSource(100))
    assert m1.theta.shape == (BOUNDS.H + 1, BOUNDS.dim)
    assert np.array_equal(m1.theta, m2.theta)
    for row in m1.theta:
        assert np.linalg.norm(row) <= BOUNDS.B_theta + 1e-12
        assert (row > 0).all()
    assert m1.delay.shape == (BOUNDS.H,)
    assert np.array_equal(m1.delay, m2.delay)
    assert m1.delay[0] == 1.0
    assert ((0.0 <= m1.delay) & (m1.delay <= BOUNDS.B_d)).all()
    assert np.array_equal(a1.beta, a2.beta)
    assert a1.beta.shape == (BOUNDS.H, BOUNDS.dim)
    assert (a1.sigma > 0).all() and (a1.sigma <= BOUNDS.sigma_max).all()
    for row in a1.beta:
        assert np.linalg.norm(row) <= BOUNDS.B_beta + 1e-12


def test_degenerate_recipe_is_exact():
    recipe = InstanceRecipe(theta_scale=0.0, delay_scale=0.0, beta_scale=0.0,
                            sigma_scale=0.0, context_scale=0.0)
    m, a = generate_instance(recipe, BOUNDS, RandomSource(1))
    assert np.array_equal(m.theta, np.full((4, 2), 0.1))
    assert np.array_equal(m.delay, np.array([1.0, 0.1, 0.1]))
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
        bids = forced_bids((True, False, True)) if t % 2 else always_bid(1.5)
        ep = play(bids, x, m, a, rng, t=t)
        episodes.append((1, ep))
        contexts.append((1, t, x))
    epath = tmp_path / "episodes.csv"
    cpath = tmp_path / "contexts.csv"
    write_episode_csv(epath, episodes)
    write_context_csv(cpath, contexts)
    # blocks of at most two customers, read in step with their contexts
    back = list(read_episode_csv(epath, read_context_rows(cpath, BOUNDS.dim), BOUNDS.H, 2))
    assert [(trial, len(ep)) for trial, ep in back] == [(1, 2), (1, 2), (1, 1)]
    assert_same_record(enumeration.concat([ep for _, ep in back]),
                       enumeration.concat([ep for _, ep in episodes]))


@pytest.mark.parametrize("cut", [0, 1, 3, 5])
def test_appending_writers_equal_one_write(tmp_path, instance, cut):
    # a trial appends each segment's rows; the header is written once
    m, a = instance
    rng = RandomSource(201)
    episodes, contexts = [], []
    for t in range(1, 6):
        x = sample_context(BENCHMARK_RECIPE, BOUNDS, rng.stream(t, "ctx"))
        episodes.append((2, play(always_bid(1.5), x, m, a, rng, t=t)))
        contexts.append((2, t, x))
    write_episode_csv(tmp_path / "e.csv", episodes)
    write_context_csv(tmp_path / "c.csv", contexts)
    write_episode_csv(tmp_path / "e2.csv", episodes[:cut])
    write_episode_csv(tmp_path / "e2.csv", episodes[cut:], append=True)
    write_context_csv(tmp_path / "c2.csv", contexts[:max(cut, 1)])
    write_context_csv(tmp_path / "c2.csv", contexts[max(cut, 1):], append=True)
    assert (tmp_path / "e2.csv").read_bytes() == (tmp_path / "e.csv").read_bytes()
    assert (tmp_path / "c2.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()


def test_csv_sentinel_tokens(tmp_path, instance):
    m, a = instance
    x = np.array([1.0, 1.0])
    ep = play(forced_bids((True, False, False)), x, m, a, RandomSource(1))
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
        list(read_episode_csv(path, [], 3, 1))
    path.write_text(
        "trial,t,h,s1,s2,bid,hob,won,payment,conversions\n"
        "0,1,1,NEVER,NEVERBEFORE,0.0,1.0,0,0.0,0\n"
        "0,1,2,WAT,NEVERBEFORE,0.0,1.0,0,0.0,0\n"
    )
    with pytest.raises(ValueError, match="line 3"):
        list(read_episode_csv(path, [(0, 1, np.array([1.0, 1.0]))], 3, 1))
    # 0 is spelled NEVER for s1 and ONLYONE for s2; the integer 0 and
    # negative lags are not tokens, nor is a lag beyond 64 bits
    for s1, s2 in (("0", "NEVERBEFORE"), ("1", "0"), ("-1", "ONLYONE"),
                   ("NEVER", "-1"), ("1", "NEVERBEFORE"), ("1", str(2**63))):
        path.write_text(
            "trial,t,h,s1,s2,bid,hob,won,payment,conversions\n"
            f"0,1,1,{s1},{s2},0.0,1.0,0,0.0,0\n"
        )
        with pytest.raises(ValueError, match="line 2"):
            list(read_episode_csv(path, [(0, 1, np.array([1.0, 1.0]))], 3, 1))
    # customer numbers, round labels and conversions are read into 64-bit
    # arrays: one beyond that range (or a customer number below 1) is
    # rejected on its line, not by an OverflowError
    for t, h, y in ((2**63, 1, 0), (0, 1, 0), (1, 2**64, 0), (1, 1, 2**63)):
        path.write_text(
            "trial,t,h,s1,s2,bid,hob,won,payment,conversions\n"
            f"0,{t},{h},NEVER,NEVERBEFORE,0.0,1.0,0,0.0,{y}\n"
        )
        with pytest.raises(ValueError, match="^line 2: "):
            list(read_episode_csv(path, [(0, t, np.array([1.0, 1.0]))], 1, 1))


def test_context_csv_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "contexts.csv"
    good = "0,1,0.5,1.5\n"
    for bad, lineno, message in (
        ("0,2,abc,1.0\n", 3, "could not convert string to float: 'abc'"),
        ("0,1.5,1.0,1.0\n", 2, "invalid literal for int() with base 10: '1.5'"),
    ):
        rows = good + bad if lineno == 3 else bad + good
        path.write_text("trial,t,x0,x1\n" + rows)
        with pytest.raises(ValueError, match=rf"^line {lineno}: {re.escape(message)}$"):
            read_context_csv(path, 2)


_HEADER = "trial,t,h,s1,s2,bid,hob,won,payment,conversions\n"
_ROUNDS = (  # one customer's three rounds: lose, win, lose
    "0,1,1,NEVER,NEVERBEFORE,0.0,1.0,0,0.0,2\n",
    "0,1,2,NEVER,NEVERBEFORE,5.0,1.5,1,1.5,1\n",
    "0,1,3,1,ONLYONE,0.0,2.0,0,0.0,0\n",
)


@pytest.mark.parametrize("column, value", [
    (9, "-3"), (7, "2"), (7, "-1"), (5, "nan"), (5, "-1.0"), (5, "inf"),
    (8, "nan"), (8, "-0.5"), (6, "nan"), (6, "0.0"), (6, "inf"),
    # the second-price rule: a win below the HOB, a win paying other than
    # the HOB or paying its bid, a loss at a bid above the HOB that pays
    (5, "1.0"), (8, "1.0"), (8, "5.0"), (7, "0"),
])
def test_episode_csv_rejects_out_of_range_fields(tmp_path, column, value):
    # round 2 (line 3, a win at bid 5.0 paying the HOB 1.5) carries the bad
    # field; every other field is valid.  A bid of inf is valid on a won
    # round, so that case is a lost round, which inf cannot be
    row = _ROUNDS[1].rstrip("\n").split(",")
    row[column] = value
    if (column, value) == (5, "inf"):
        row[7], row[8] = "0", "0.0"
    path = tmp_path / "e.csv"
    path.write_text(_HEADER + _ROUNDS[0] + ",".join(row) + "\n" + _ROUNDS[2])
    with pytest.raises(ValueError, match=r"^line 3: need bid >= 0"):
        list(read_episode_csv(path, [(0, 1, np.array([1.0, 1.0]))], 3, 1))


def test_episode_violations_name_the_line_the_episode_starts_at(tmp_path):
    # the second customer starts at line 5; its episode jumps from round 1
    # to round 3's state, or has no context (or not the next one), or is
    # one round short of H.  Blocks of one customer: the first is read whole
    path = tmp_path / "e.csv"
    second = [r.replace("0,1,", "0,2,", 1) for r in _ROUNDS]
    x = np.array([1.0, 1.0])
    for rows, contexts, H, message in (
        ([second[0], second[2], second[2]], [(0, 1, x), (0, 2, x)], 3,
         "state chain broken at round 1"),
        (second, [(0, 1, x)], 3, "no context recorded for trial 0, t 2"),
        (second, [(0, 1, x), (0, 3, x), (0, 2, x)], 3,
         "no context recorded for trial 0, t 2: the next context is of trial 0, t 3"),
        (second[:2], [(0, 1, x), (0, 2, x)], 3, "expected 3 rounds, got 2"),
    ):
        path.write_text(_HEADER + "".join(_ROUNDS) + "".join(rows))
        episodes = read_episode_csv(path, contexts, H, 1)
        assert next(episodes)[1].t.tolist() == [1]
        with pytest.raises(ValueError, match=rf"^line 5: {re.escape(message)}"):
            next(episodes)


def test_a_long_episode_fails_its_length_check_before_any_state_table(
    tmp_path, monkeypatch,
):
    # a crafted 60-round episode read with H=3 is rejected by its length
    # alone: no state table of 60 rounds (36,050 states, cached for the
    # life of the process) is built to check its chain
    built, real = [], environment.state_table
    monkeypatch.setattr(environment, "state_table", lambda H: built.append(H) or real(H))
    path = tmp_path / "e.csv"
    path.write_text(_HEADER + "".join(
        f"0,1,{h},NEVER,NEVERBEFORE,0.0,1.0,0,0.0,0\n" for h in range(1, 61)
    ))
    with pytest.raises(ValueError, match=r"^line 2: expected 3 rounds, got 60$"):
        list(read_episode_csv(path, [(0, 1, np.array([1.0, 1.0]))], 3, 1))
    assert built == []


def test_context_csv_rejects_nonfinite_repeated_and_misshapen_rows(tmp_path):
    path = tmp_path / "contexts.csv"
    for rows, dim, message in (
        ("0,1,0.5,1.5\n0,2,nan,1.0\n", 2, "line 3: contexts must be finite"),
        ("0,1,0.5,1.5\n0,2,1.0,-inf\n", 2, "line 3: contexts must be finite"),
        ("0,1,0.5,1.5\n0,1,0.5,1.5\n", 2, "line 3: a second context of trial 0, t 1"),
        ("0,1,0.5,1.5\n", 3, "line 2: expected 3 x-columns, got 2"),
    ):
        path.write_text("trial,t,x0,x1\n" + rows)
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}"):
            read_context_csv(path, dim)
    path.write_text("trial,t,x0,x1\n0,1,0.5,1.5\n0,2,1e-300,0.0\n")
    assert sorted(read_context_csv(path, 2)) == [(0, 1), (0, 2)]


# --- fuzzing: any input is parsed or rejected with a ValueError -------------

_TOKENS = ["NEVER", "NEVERBEFORE", "ONLYONE", "1", "2", "3", "0", "-1", "x", ""]
_NUMBERS = st.one_of(
    st.integers(-3, 4).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "1e999", "0x1", " 1", "1_0", "abc"]),
)
_FUZZ = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


_VALID = [r.rstrip("\n").split(",") for r in _ROUNDS]
_VALID += [["0", "2", *r[2:]] for r in _VALID]  # a second customer


@_FUZZ
@given(
    edits=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 9),
                             st.one_of(_NUMBERS, st.sampled_from(_TOKENS))), max_size=2),
    drop=st.one_of(st.none(), st.integers(0, 5)),
    junk=st.one_of(st.none(), st.lists(_NUMBERS, max_size=12)),
    H=st.sampled_from([2, 3]),
)
def test_fuzzed_episode_csv_parses_or_raises_a_value_error(tmp_path, edits, drop, junk, H):
    # two valid episodes with a few fields replaced, a row dropped or a junk
    # row appended: parsed into valid records, or rejected naming a line
    rows = [list(r) for r in _VALID]
    for k, column, value in edits:
        rows[k][column] = value
    rows = [r for k, r in enumerate(rows) if k != drop] + [junk] * (junk is not None)
    path = tmp_path / "e.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_HEADER.strip().split(","))
        writer.writerows(rows)
    contexts = [(0, t, np.array([1.0, 1.0])) for t in (1, 2)]
    try:
        episodes = list(read_episode_csv(path, contexts, H, 2))
    except ValueError as exc:
        assert str(exc).startswith("line ")
        return
    assert sum(len(ep) for _, ep in episodes) <= 2
    table = state_table(H)
    for _, ep in episodes:
        assert ep.won.shape == (len(ep), H) and ep.ids[:, 0].tolist() == [0] * len(ep)
        assert np.all(table.successors[ep.ids[:, :H], ep.won.astype(int)] == ep.ids[:, 1:])
        assert np.all((0 <= ep.bid) & (0 < ep.hob) & (ep.hob < math.inf))
        assert np.all(ep.conversions >= 0)
        assert np.all(ep.won == (ep.bid >= ep.hob))


@_FUZZ
@given(text=st.text(max_size=200))
def test_fuzzed_text_as_episode_or_context_csv_raises_only_value_errors(tmp_path, text):
    path = tmp_path / "f.csv"
    path.write_text(text, encoding="utf-8")
    for read in (lambda: list(read_episode_csv(path, [], 3, 2)),
                 lambda: read_context_csv(path, 2)):
        try:
            read()
        except ValueError:
            pass


@_FUZZ
@given(rows=st.lists(st.lists(_NUMBERS, min_size=0, max_size=5), max_size=6),
       dim=st.sampled_from([1, 2, 3]))
def test_fuzzed_context_csv_parses_or_raises_a_value_error(tmp_path, rows, dim):
    path = tmp_path / "c.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "t", "x0", "x1"])
        writer.writerows(rows)
    try:
        contexts = read_context_csv(path, dim)
    except ValueError as exc:
        assert str(exc).startswith("line ")
        return
    assert (dim == 2 or not rows) and len(contexts) == len(rows)
    assert all(np.all(np.isfinite(x)) and x.shape == (2,) for x in contexts.values())


# --- numpy's block reader against the per-row reference -------------------

# field values that numpy's text reader and Python's int() and float() could
# read apart: a comment sign, quotes, tokens longer than the reader's text
# fields, numbers beyond 64 bits, a digit group and a non-ASCII digit
_SPECIAL = st.sampled_from([
    "#", "1#2", '"1.5"', '"NEVER"', '"1', '1"', '""', "0000000000001", "NEVERBEFOREX",
    "1" * 30, str(2**63), str(2**63 - 1), str(-2**63 - 1), "1_0", "\u0663", " 1 ", "\x1c1",
    "1\x00",
])


def _log_strategy():
    edit = st.tuples(st.integers(0, 30), st.integers(0, 9),
                     st.one_of(_NUMBERS, st.sampled_from(_TOKENS), _SPECIAL))
    return dict(
        seed=st.integers(0, 2**32 - 1), H=st.sampled_from([1, 2, 3]),
        n=st.integers(0, 5), edits=st.lists(edit, max_size=3),
        context_edits=st.lists(edit, max_size=2),
        blank=st.integers(0, 90).map(lambda k: k if k <= 30 else None),
        drop=st.integers(0, 90).map(lambda k: k if k <= 30 else None),
        ending=st.sampled_from(["\n", "\r\n"]), block=st.integers(1, 3),
        chunk=st.sampled_from([1, 2, 512]),
    )


def _random_log(seed, H, n):
    """Trial 0's first customers and trial 1's rest, as the harness writes
    them: episodes under the auction rule, with some bids of inf and 0.0."""
    gen = np.random.default_rng(seed)
    table = state_table(H)
    won = gen.random((n, H)) < 0.5
    ids = np.zeros((n, H + 1), dtype=np.intp)
    for h in range(H):
        ids[:, h + 1] = table.successors[ids[:, h], won[:, h].astype(int)]
    hob = np.exp(gen.standard_normal((n, H)))
    bid = np.where(won, hob * (1 + gen.random((n, H))), hob * gen.random((n, H)))
    bid = np.where(gen.random((n, H)) < 0.2, np.where(won, math.inf, 0.0), bid)
    x = np.abs(gen.standard_normal((n, 2)))
    episodes = Episodes(np.arange(1, n + 1), x, ids, bid, hob, won,
                        gen.integers(0, 5, (n, H)))
    cut = int(gen.integers(0, n + 1))
    return [(0, episodes[:cut]), (1, episodes[cut:])]


def _edited_text(path, edits, blank, drop, ending):
    """The file's rows with fields replaced, a row dropped and a blank line
    put in, joined by commas (no quoting) with the given line ending."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    for k, column, value in edits:
        if 0 < k < len(rows) and column < len(rows[k]):
            rows[k][column] = value
    lines = [",".join(row) for k, row in enumerate(rows) if k != drop or k == 0]
    if blank is not None:
        lines.insert(min(blank + 1, len(lines)), "")
    return "".join(line + ending for line in lines)


def _outcome(read):
    """The blocks a reader yields, and its ValueError's text (None if none)."""
    blocks = []
    try:
        for item in read():
            blocks.append(item)
    except ValueError as exc:
        return blocks, str(exc)
    return blocks, None


def _same_bits(got, want):
    assert_same_record(got, want)
    for name in Episodes.__slots__:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


_NUMPY_REJECTS = re.compile(r"^line (\d+): numpy's text reader cannot read")


def _declared(texts, lineno):
    """Whether line `lineno` of one of the files holds a field only Python's
    int() and float() read: a digit group, a non-ASCII character, a number
    beyond 64 bits, or a quote left open."""
    for text in texts:
        lines = text.splitlines(keepends=True)
        if lineno > len(lines):
            continue
        line = lines[lineno - 1]
        fields = next(csv.reader([line]), [])
        if ("_" in line or not line.isascii() or line.count('"') % 2
                or any(re.fullmatch(r"\s*[+-]?\d+\s*", v) and abs(int(v)) >= 2**63
                       for v in fields)):
            return True
    return False


@_FUZZ
@given(**_log_strategy())
def test_numpy_reader_equals_the_per_row_reference(
    tmp_path, monkeypatch, seed, H, n, edits, context_edits, blank, drop, ending, block,
    chunk,
):
    # the harness's files, edited: both readers yield the same blocks bit for
    # bit and fail with the same text, or numpy's reader rejects, on its
    # line, a field only Python's int() and float() read (after the blocks
    # before it, which equal the reference's)
    monkeypatch.setattr(environment, "CONTEXT_CHUNK", chunk)
    blocks = _random_log(seed, H, n)
    epath, cpath = tmp_path / "e.csv", tmp_path / "c.csv"
    write_episode_csv(epath, blocks)
    write_context_csv(cpath, [(trial, t, x) for trial, ep in blocks
                              for t, x in zip(ep.t.tolist(), ep.x)])
    texts = [_edited_text(epath, edits, blank, drop, ending),
             _edited_text(cpath, context_edits, None, None, ending)]
    for path, text in zip((epath, cpath), texts):
        path.write_bytes(text.encode("utf-8"))
    for reads in (
        (lambda: enumeration.read_episode_csv(
            epath, enumeration.read_context_rows(cpath, 2), H, block),
         lambda: read_episode_csv(epath, read_context_rows(cpath, 2), H, block)),
        (lambda: enumeration.read_context_rows(cpath, 2),
         lambda: read_context_rows(cpath, 2)),
    ):
        (want, want_error), (got, got_error) = map(_outcome, reads)
        declared = got_error is not None and _NUMPY_REJECTS.match(got_error)
        if declared:
            assert _declared(texts, int(declared.group(1))), got_error
            want = want[:len(got)]
        else:
            assert got_error == want_error
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g[:-1] == w[:-1] and type(g[0]) is type(w[0])
            if isinstance(g[-1], Episodes):
                _same_bits(g[-1], w[-1])
            else:
                assert g[-1].dtype == w[-1].dtype and g[-1].tobytes() == w[-1].tobytes()


@pytest.mark.parametrize("H", range(1, 7))
def test_every_reachable_state_round_trips_through_the_csv(tmp_path, H):
    # one customer per outcome sequence visits every reachable state
    x = np.array([1.0, 2.0])
    n, table = 2**H, state_table(H)
    won = np.array(list(itertools.product((False, True), repeat=H)))
    ids = np.zeros((n, H + 1), dtype=np.intp)
    for h in range(H):
        ids[:, h + 1] = table.successors[ids[:, h], won[:, h].astype(int)]
    episodes = Episodes(np.arange(1, n + 1), np.tile(x, (n, 1)), ids, 1.0 * won,
                        np.full((n, H), 0.5), won, np.tile(np.arange(1, H + 1), (n, 1)))
    visited = {(r.h, r.state) for k in range(n) for r in rounds(episodes, k)}
    assert visited == {
        (h, s) for h, states in enumerate(reachable_states(H), start=1) for s in states
    }
    path = tmp_path / "e.csv"
    write_episode_csv(path, [(0, episodes)])
    contexts = [(0, t, x) for t in range(1, n + 1)]
    [(trial, back)] = read_episode_csv(path, contexts, H, n)
    assert trial == 0
    assert_same_record(back, episodes)


def test_instance_snapshot_round_trip():
    # bit-equal arrays back, and the same JSON again, at every horizon
    for H in range(1, 7):
        bounds = replace(BOUNDS, H=H, dim=3)
        m, a = generate_instance(BENCHMARK_RECIPE, bounds, RandomSource(H))
        d = instance_to_dict(m, a)
        lags = [f"LAG{k}" for k in range(1, H)]
        assert list(d["theta"]) == ["NATURAL_DEMAND", "FIRST_EXPOSURE", *lags]
        assert list(d["delay"]) == ["NEVER", *lags]
        blob = json.dumps(d, sort_keys=True)
        m2, a2 = instance_from_dict(json.loads(blob), H)
        for got, want in ((m2.theta, m.theta), (m2.delay, m.delay),
                          (a2.beta, a.beta), (a2.sigma, a.sigma)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert json.dumps(instance_to_dict(m2, a2), sort_keys=True) == blob


# --- the joined writers against csv.writer ---------------------------------

_WRITTEN = st.one_of(
    st.sampled_from([math.inf, 0.0, 5e-324, 1e16, 1e22, 0.1 + 0.2, 1 / 3, 2.0**-1022 / 3]),
    st.floats(allow_nan=False),
)


@_FUZZ
@given(data=st.data(), H=st.sampled_from([1, 5]), dim=st.sampled_from([1, 2, 3]),
       n=st.integers(0, 7), cut=st.integers(0, 7), block=st.sampled_from([1, 3, 512]))
def test_joined_writers_equal_the_csv_writer_references(
    tmp_path, monkeypatch, data, H, dim, n, cut, block
):
    # two trials' customers, the first written and the rest appended, in
    # joins of `block` customers or rows; each file byte for byte
    monkeypatch.setattr(environment, "WRITE_BLOCK", block)
    monkeypatch.setattr(harness, "SEGMENT", block)

    def floats(*shape):
        size = math.prod(shape)
        return np.array(data.draw(st.lists(_WRITTEN, min_size=size, max_size=size)),
                        dtype=float).reshape(shape)

    table = state_table(H)
    won = floats(n, H) > 0
    ids = np.zeros((n, H + 1), dtype=np.intp)
    for h in range(H):
        ids[:, h + 1] = table.successors[ids[:, h], won[:, h].astype(int)]
    conversions = np.array(data.draw(st.lists(st.integers(0, 2**62), min_size=n * H,
                                              max_size=n * H)), np.int64).reshape(n, H)
    ep = Episodes(np.arange(1, n + 1) * 10**9, floats(n, dim), ids, floats(n, H),
                  floats(n, H), won, conversions)
    blocks = [(0, ep[:cut]), (3, ep[cut:])]
    contexts = [(k, t, x) for k, e in blocks for t, x in zip(e.t.tolist(), e.x)]
    for write, reference, rows in (
        (write_episode_csv, enumeration.csv_write_episode_csv, blocks),
        (write_context_csv, enumeration.csv_write_context_csv, contexts),
    ):
        for path, writer in ((tmp_path / "got.csv", write), (tmp_path / "want.csv", reference)):
            writer(path, rows[:cut])
            writer(path, rows[cut:], append=True)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    curves = SimpleNamespace(
        config=SimpleNamespace(T=n, policies=("learner", "random")),
        trials=[SimpleNamespace(trial=k, realized={"learner": floats(n), "random": floats(n)},
                                expected={"learner": floats(n), "random": floats(n)})
                for k in (0, 1)],
    )
    harness.write_curves_csv(tmp_path / "got.csv", curves)
    enumeration.csv_write_curves_csv(tmp_path / "want.csv", curves)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
