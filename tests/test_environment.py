"""Simulator: keyed random streams, episode execution, instance sampling,
and log serialization."""

import csv
import itertools
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bidlab import environment
from bidlab.environment import (
    EpisodeLog,
    InstanceRecipe,
    BENCHMARK_RECIPE,
    RandomSource,
    RoundRecord,
    draw_hobs,
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
    ExposureState,
    TrueModel,
    conversion_mean,
    next_state,
    reachable_states,
    state_table,
)
from bidlab.planning import forced_bids

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

def always_bid(amount, H=BOUNDS.H):
    """The same bid in every state id."""
    return [amount] * len(state_table(H).states)


def play(bids, x, m, a, rng, t=1, noise_label="policy"):
    """One episode on customer t's own HOB draws."""
    return run_episode(bids, x, m, a, rng, t=t, noise_label=noise_label,
                       hobs=draw_hobs(x, a, rng, t))


def test_auction_episode_semantics(instance):
    m, a = instance
    x = np.array([1.0, 1.0])
    rng = RandomSource(31)
    ep = play(always_bid(2.0), x, m, a, rng, t=5)
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


def test_each_state_id_plays_its_own_bid(instance):
    m, a = instance
    x = np.array([1.0, 1.0])
    table = state_table(BOUNDS.H)
    bids = [0.25 * (i + 1) for i in range(len(table.states))]
    for t in range(1, 20):
        ep = play(bids, x, m, a, RandomSource(34), t=t)
        for r in ep.records:
            assert r.bid == bids[table.ids[(r.h, r.state)]]
            assert r.won == (r.bid >= r.hob)


def test_large_bids_are_uncapped_and_negative_bids_rejected(instance):
    m, a = instance
    x = np.array([1.0, 1.0])
    ep = play(always_bid(1e6), x, m, a, RandomSource(32))
    assert all(r.bid == 1e6 and r.won for r in ep.records)
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="bid must be >= 0"):
            play(always_bid(bad), x, m, a, RandomSource(32))


def test_forced_episode_semantics(instance):
    m, a = instance
    x = np.array([1.0, 1.0])
    plan = (True, False, True)
    ep = play(forced_bids(plan), x, m, a, RandomSource(33), t=2)
    for r in ep.records:
        assert r.won == plan[r.h - 1]
        assert r.bid == (math.inf if r.won else 0.0)
        assert r.payment == (r.hob if r.won else 0.0)
    # inf wins at any price, 0.0 loses to any HOB
    kw = dict(t=2, noise_label="policy")
    for plan, hob in (((True,) * 3, 1e300), ((False,) * 3, 1e-300)):
        ep = run_episode(forced_bids(plan), x, m, a, RandomSource(33),
                         hobs=[hob] * 3, **kw)
        assert [r.won for r in ep.records] == list(plan)
        assert [r.payment for r in ep.records] == [hob if w else 0.0 for w in plan]


def test_hob_shared_across_policies(instance):
    m, a = instance
    x = np.array([1.0, 1.0])
    win = play(forced_bids((True,) * 3), x, m, a, RandomSource(40), t=9,
               noise_label="p1")
    lose = play(forced_bids((False,) * 3), x, m, a, RandomSource(40), t=9,
                noise_label="p2")
    assert [r.hob for r in win.records] == [r.hob for r in lose.records]


def test_hobs_drawn_once_feed_every_episode(instance):
    m, a = instance
    x = np.array([1.0, 1.0])
    rng = RandomSource(41)
    hobs = draw_hobs(x, a, rng, 9)
    assert len(hobs) == BOUNDS.H
    assert hobs == draw_hobs(x, a, rng, 9)  # the customer's own stream
    kw = dict(t=9, noise_label="policy")
    given = run_episode(always_bid(2.0), x, m, a, rng, hobs=hobs, **kw)
    assert [r.hob for r in given.records] == hobs
    # given HOBs are taken as they are, as floats; ties win
    fixed = run_episode(always_bid(2.0), x, m, a, rng,
                        hobs=np.array([1.0, 3.0, 2.0]), **kw)
    assert [r.won for r in fixed.records] == [True, False, True]
    assert all(type(r.hob) is float for r in fixed.records)
    with pytest.raises(ValueError, match="one HOB per round"):
        run_episode(always_bid(2.0), x, m, a, rng, hobs=[1.0], **kw)


def test_episode_replay_bit_exact(instance):
    m, a = instance
    x = np.array([0.5, 1.5])
    e1 = play(always_bid(1.0), x, m, a, RandomSource(55), t=3)
    e2 = play(always_bid(1.0), x, m, a, RandomSource(55), t=3)
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
        ep = play(forced_bids((True, False, False)), x, m, a, rng, t=t)
        total += ep.records[0].conversions
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
    back = list(read_episode_csv(epath, read_context_csv(cpath, BOUNDS.dim), BOUNDS.H))
    assert len(back) == len(episodes)
    for (trial, ep), (trial2, ep2) in zip(episodes, back):
        assert trial == trial2 and ep.t == ep2.t
        assert np.array_equal(ep.x, ep2.x)
        for r, r2 in zip(ep.records, ep2.records):
            assert (r.t, r.h, r.state, r.bid, r.hob, r.won, r.payment,
                    r.conversions) == (r2.t, r2.h, r2.state, r2.bid, r2.hob,
                                       r2.won, r2.payment, r2.conversions)


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
        list(read_episode_csv(path, {}, 3))
    path.write_text(
        "trial,t,h,s1,s2,bid,hob,won,payment,conversions\n"
        "0,1,1,NEVER,NEVERBEFORE,0.0,1.0,0,0.0,0\n"
        "0,1,2,WAT,NEVERBEFORE,0.0,1.0,0,0.0,0\n"
    )
    with pytest.raises(ValueError, match="line 3"):
        list(read_episode_csv(path, {(0, 1): np.array([1.0, 1.0])}, 3))
    # 0 is spelled NEVER for s1 and ONLYONE for s2; the integer 0 and
    # negative lags are not tokens
    for s1, s2 in (("0", "NEVERBEFORE"), ("1", "0"), ("-1", "ONLYONE"),
                   ("NEVER", "-1"), ("1", "NEVERBEFORE")):
        path.write_text(
            "trial,t,h,s1,s2,bid,hob,won,payment,conversions\n"
            f"0,1,1,{s1},{s2},0.0,1.0,0,0.0,0\n"
        )
        with pytest.raises(ValueError, match="line 2"):
            list(read_episode_csv(path, {(0, 1): np.array([1.0, 1.0])}, 3))


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
        list(read_episode_csv(path, {(0, 1): np.array([1.0, 1.0])}, 3))


def test_episode_violations_name_the_line_the_episode_starts_at(tmp_path):
    # the second customer starts at line 5; its episode jumps from round 1
    # to round 3's state, or has no context, or is one round short of H
    path = tmp_path / "e.csv"
    second = [r.replace("0,1,", "0,2,", 1) for r in _ROUNDS]
    x = np.array([1.0, 1.0])
    for rows, contexts, H, message in (
        ([second[0], second[2], second[2]], {(0, 1): x, (0, 2): x}, 3,
         "state chain broken at round 1"),
        (second, {(0, 1): x}, 3, "no context recorded for trial 0, t 2"),
        (second[:2], {(0, 1): x, (0, 2): x}, 3, "expected 3 rounds, got 2"),
    ):
        path.write_text(_HEADER + "".join(_ROUNDS) + "".join(rows))
        episodes = read_episode_csv(path, contexts, H)
        assert next(episodes)[1].t == 1
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
        list(read_episode_csv(path, {(0, 1): np.array([1.0, 1.0])}, 3))
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
    contexts = {(0, t): np.array([1.0, 1.0]) for t in (1, 2)}
    try:
        episodes = list(read_episode_csv(path, contexts, H))
    except ValueError as exc:
        assert str(exc).startswith("line ")
        return
    assert len(episodes) <= 2
    for _, ep in episodes:
        assert len(ep.records) == H
        for r in ep.records:
            assert 0 <= r.bid and 0 < r.hob < math.inf and r.conversions >= 0
            assert r.won == (r.bid >= r.hob)
            assert r.payment == (r.hob if r.won else 0.0)


@_FUZZ
@given(text=st.text(max_size=200))
def test_fuzzed_text_as_episode_or_context_csv_raises_only_value_errors(tmp_path, text):
    path = tmp_path / "f.csv"
    path.write_text(text, encoding="utf-8")
    for read in (lambda: list(read_episode_csv(path, {}, 3)),
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


@pytest.mark.parametrize("H", range(1, 7))
def test_every_reachable_state_round_trips_through_the_csv(tmp_path, H):
    # one episode per outcome sequence visits every reachable state
    x = np.array([1.0, 2.0])
    episodes = []
    for t, plan in enumerate(itertools.product((False, True), repeat=H), start=1):
        s, records = INITIAL_STATE, []
        for h, won in enumerate(plan, start=1):
            records.append(RoundRecord(t, h, s, 1.0 * won, 0.5, won, 0.5 * won, h))
            s = next_state(s, won)
        episodes.append((0, EpisodeLog(t, x, records)))
    visited = {(r.h, r.state) for _, ep in episodes for r in ep.records}
    assert visited == {
        (h, s) for h, states in enumerate(reachable_states(H), start=1) for s in states
    }
    path = tmp_path / "e.csv"
    write_episode_csv(path, episodes)
    back = list(read_episode_csv(path, {(0, t): x for t in range(1, 2**H + 1)}, H))
    assert [ep.records for _, ep in back] == [ep.records for _, ep in episodes]


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
