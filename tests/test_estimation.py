"""Estimators: hand-derived update oracles, dual-evaluation constants,
Monte Carlo consistency, and the data-splitting rules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidlab import estimation
from bidlab.environment import Episodes
from bidlab.estimation import (
    ConfidenceConfig,
    crtm_update,
    delay_estimate,
    delay_radius,
    optimistic_mean,
    project_v_ball,
    ridge_update,
    sigma_estimate,
    solve_small,
    solve_stacked,
    split_episode,
    theta_gamma,
    truncation_threshold,
    tsmle_update,
)
from bidlab.model import (
    NEVER_BEFORE,
    ONLY_ONE,
    Bounds,
    lose_index,
    state_table,
    win_index,
)
from enumeration import concat

# theta rows by name
NATURAL_DEMAND, FIRST_EXPOSURE = lose_index(NEVER_BEFORE), lose_index(ONLY_ONE)

UNIT = Bounds(b=1.0, B_x=1.0, B_theta=1.0, B_d=1.0, B_A=1.0, H=3, dim=2)

# dual-evaluation constants, computed independently by direct arithmetic
GAMMA_211_100 = 97164.5441438936       # theta_gamma(d=2,Bx=Bt=1,T=100,delta=0.1)
TRUNC_211_20K = 46.541775896248616     # truncation_threshold(.., T=20000, delta=0.01)
RADIUS_600 = 2.2410732180112998        # delay_radius(N=600, gamma=1, unit, H=3, T=20000, delta=0.01)


def make_theta(dim=2):
    """A fresh effect estimate and its metric."""
    return np.zeros(dim), np.eye(dim)


def newton(theta, V, X, ys, cfg, B=10.0):
    """crtm_update's estimate and metric after the run, and its length."""
    thetas, metrics = crtm_update(theta, V, X, ys, cfg, B)
    return thetas[-1], metrics[-1], len(thetas) - 1


def fresh_ridge(dim=2):
    """One round position's fresh ridge sums: gram, moment, residual sum."""
    return np.eye(dim)[None], np.zeros((1, dim)), np.zeros(1)


def ridge(gram, moment, rss, X, log_hobs):
    """ridge_update's sums after the run, and its length."""
    grams, moments, sums, _ = ridge_update(gram, moment, rss, X, log_hobs)
    return grams[-1], moments[-1], sums[-1], len(grams) - 1


def ratio(lag, numerator, denominator, lags, conversions, X, thetas, b):
    """tsmle_update's ratio terms after the rounds, and their count."""
    nums, dens = tsmle_update(lag, numerator, denominator, lags, conversions, X, thetas, b)
    return nums[-1], dens[-1], len(nums) - 1


def big_cfg(Gamma=1e12):
    return ConfidenceConfig(delta=0.01, gamma_raw=1.0, Gamma_trunc=Gamma)


# --- confidence constants ----------------------------------------------------

def test_theta_gamma_frozen():
    b = Bounds(b=1.0, B_x=1.0, B_theta=1.0, B_d=1.0, B_A=1.0, H=3, dim=2)
    assert theta_gamma(b, 100, 0.1) == pytest.approx(GAMMA_211_100, rel=1e-12)


def test_theta_gamma_monotone_and_scaled():
    assert theta_gamma(UNIT, 1000, 0.1) > theta_gamma(UNIT, 100, 0.1)
    assert theta_gamma(UNIT, 100, 0.01) > theta_gamma(UNIT, 100, 0.1)
    # width_scale is applied once, by the confidence config, to the raw radius
    raw = theta_gamma(UNIT, 100, 0.1)
    assert ConfidenceConfig(0.1, raw, 0.0, width_scale=0.0).gamma == 0.0
    assert ConfidenceConfig(0.1, raw, 0.0, width_scale=0.5).gamma == 0.5 * raw
    with pytest.raises(ValueError, match="width constants must be nonnegative"):
        ConfidenceConfig(0.1, -raw, 0.0)


def test_truncation_threshold_frozen():
    assert truncation_threshold(UNIT, 20000, 0.01) == pytest.approx(
        TRUNC_211_20K, rel=1e-12
    )
    assert truncation_threshold(UNIT, 40000, 0.01) > truncation_threshold(
        UNIT, 20000, 0.01
    )


def test_delay_radius_frozen_and_scaling():
    got = delay_radius(600, 1.0, UNIT, H=3, T=20000, delta=0.01)
    assert got == pytest.approx(RADIUS_600, rel=1e-12)
    assert delay_radius(2400, 1.0, UNIT, 3, 20000, 0.01) == pytest.approx(
        got / 2.0, rel=1e-12
    )
    assert delay_radius(600, 2.0, UNIT, 3, 20000, 0.01) > got
    assert delay_radius(600, 1.0, UNIT, 4, 20000, 0.01) > got
    assert delay_radius(600, 1.0, UNIT, 3, 20000, 0.01, width_scale=0.25) == (
        pytest.approx(0.25 * got, rel=1e-15)
    )
    with pytest.raises(ValueError):
        delay_radius(0, 1.0, UNIT, 3, 20000, 0.01)


def test_confidence_config_validation():
    ConfidenceConfig(delta=0.5, gamma_raw=1.0, Gamma_trunc=1.0, width_scale=0.0)
    with pytest.raises(ValueError):
        ConfidenceConfig(delta=0.0, gamma_raw=1.0, Gamma_trunc=1.0)
    with pytest.raises(ValueError):
        ConfidenceConfig(delta=0.5, gamma_raw=-1.0, Gamma_trunc=1.0)
    with pytest.raises(ValueError):
        ConfidenceConfig(delta=0.5, gamma_raw=1.0, Gamma_trunc=1.0, width_scale=-0.1)


# --- online Newton -----------------------------------------------------------

def test_crtm_hand_oracle():
    theta, V, n = newton(*make_theta(), [[1.0, 0.0]], [1.0], big_cfg())
    assert np.allclose(V, np.diag([1.5, 1.0]), atol=0)
    assert theta == pytest.approx([2.0 / 3.0, 0.0], abs=1e-12)
    assert n == 1


def test_crtm_truncation_zeroes_gradient():
    theta, V, _ = newton(*make_theta(), [[1.0, 0.0]], [1e9], ConfidenceConfig(0.01, 1.0, 0.0))
    assert np.array_equal(theta, np.zeros(2))
    assert np.allclose(V, np.diag([1.5, 1.0]))


def test_crtm_interior_point_unprojected():
    theta, _, _ = newton(*make_theta(), [[1.0, 0.0]], [1.0], big_cfg(), B=100.0)
    # unconstrained Newton step lands inside the ball and is kept as is
    assert theta == pytest.approx([2.0 / 3.0, 0.0], abs=1e-12)


def test_crtm_v_bookkeeping():
    theta, V = make_theta()
    rng = np.random.default_rng(5)
    xs = rng.uniform(-1, 1, (30, 2))
    count = 0
    for x in xs:
        theta, V, n = newton(theta, V, [x], [float(rng.poisson(1.0))], big_cfg())
        count += n
    want = np.eye(2) + 0.5 * sum(np.outer(x, x) for x in xs)
    assert np.allclose(V, want, rtol=0, atol=1e-12)
    assert count == 30


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_crtm_norm_bound_holds(seed):
    rng = np.random.default_rng(seed)
    theta, V = make_theta()
    for _ in range(15):
        x = rng.uniform(-2, 2, 2)
        y = float(rng.uniform(-50, 50))
        theta, V, _ = newton(theta, V, [x], [y], big_cfg(), B=1.0)
        assert np.linalg.norm(theta) <= 1.0 + 1e-8


@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.sampled_from([0.3, 1.0, 1e6]),
       st.lists(st.integers(0, 40), max_size=6))
@settings(max_examples=60, deadline=None)
def test_crtm_chained_over_any_split_is_one_call(seed, d, radius, cuts):
    # the estimates and metrics of a run fed in pieces, each piece starting
    # from the last estimate and metric of the one before, are byte for byte
    # those of one call; at radius 0.3 the steps leave the ball and project
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, (40, d))
    ys = rng.poisson(3.0, 40).astype(float)
    cfg = ConfidenceConfig(0.01, 1.0, 8.0)  # truncates the largest samples
    thetas, metrics = crtm_update(np.zeros(d), np.eye(d), X, ys, cfg, radius)
    pieces = [thetas[:1]], [metrics[:1]]
    theta, V = thetas[0], metrics[0]
    for a, b in zip([0, *sorted(cuts)], [*sorted(cuts), 40]):
        got, got_v = crtm_update(theta, V, X[a:b], ys[a:b], cfg, radius)
        assert got[0].tobytes() == theta.tobytes() and got_v[0].tobytes() == V.tobytes()
        pieces[0].append(got[1:])
        pieces[1].append(got_v[1:])
        theta, V = got[-1], got_v[-1]
    assert np.concatenate(pieces[0]).tobytes() == thetas.tobytes()
    assert np.concatenate(pieces[1]).tobytes() == metrics.tobytes()
    norms = np.linalg.norm(thetas, axis=1)
    assert np.all(norms <= radius + 1e-8)
    if radius == 0.3:
        assert np.any(norms > radius - 1e-8)  # projected onto the sphere


def test_crtm_solves_once_for_the_whole_run(monkeypatch):
    # every step's gain comes from the one stacked solve: a run whose steps
    # stay in the ball makes no single solve, and only a projection does
    calls = {"solve_small": 0, "solve_stacked": 0}
    for name in calls:
        def counted(*args, _name=name, _solve=getattr(estimation, name)):
            calls[_name] += 1
            return _solve(*args)
        monkeypatch.setattr(estimation, name, counted)
    rng = np.random.default_rng(8)
    X = rng.uniform(-1.0, 1.0, (50, 3))
    ys = rng.poisson(2.0, 50).astype(float)
    thetas, _ = crtm_update(np.zeros(3), np.eye(3), X, ys, big_cfg(), 1e6)
    assert np.linalg.norm(thetas, axis=1).max() < 1e6
    assert calls == {"solve_small": 0, "solve_stacked": 1}
    crtm_update(np.zeros(3), np.eye(3), X, ys, big_cfg(), 0.1)
    assert calls["solve_stacked"] == 2 and calls["solve_small"] > 0


def test_elliptical_potential_bound():
    # sum of min(1, squared post-update widths) is controlled by the log-det
    bx, T, d = 1.5, 400, 2
    rng = np.random.default_rng(11)
    theta, V = make_theta()
    total = 0.0
    for _ in range(T):
        x = rng.uniform(-1, 1, d)
        x *= bx / max(np.linalg.norm(x), 1e-9) * rng.uniform(0.2, 1.0)
        theta, V, _ = newton(theta, V, [x], [0.0], big_cfg(), B=5.0)
        w = float(x @ np.linalg.solve(V, x))
        total += min(1.0, w)
    assert total <= 2.0 * d * math.log(1.0 + T * bx * bx / (2.0 * d))


def test_projection_hand_cases():
    # identity metric: plain rescaling
    got = project_v_ball(np.array([3.0, 4.0]), np.eye(2), 1.0)
    assert got == pytest.approx([0.6, 0.8], abs=1e-9)
    # anisotropic metric, axis-aligned target
    got = project_v_ball(np.array([2.0, 0.0]), np.diag([4.0, 1.0]), 1.0)
    assert got == pytest.approx([1.0, 0.0], abs=1e-9)
    # interior points are untouched
    inside = np.array([0.1, 0.2])
    assert np.array_equal(project_v_ball(inside, np.diag([4.0, 1.0]), 1.0), inside)


def test_projection_optimality():
    rng = np.random.default_rng(7)
    for _ in range(25):
        A = rng.normal(size=(2, 2))
        V = A @ A.T + 0.5 * np.eye(2)
        target = rng.normal(size=2) * 3.0
        radius = 1.0
        got = project_v_ball(target, V, radius)
        assert np.linalg.norm(got) <= radius + 1e-8
        dist = (got - target) @ V @ (got - target)
        for _ in range(200):
            z = rng.normal(size=2)
            z *= radius * rng.uniform(0, 1) / np.linalg.norm(z)
            assert dist <= (z - target) @ V @ (z - target) + 1e-7


@pytest.mark.parametrize("d", range(1, 9))
def test_solve_small_and_the_norms_match_numpy_bit_for_bit(d):
    # random SPD systems and running-sum metrics I + sum x x^T / 2, built as
    # crtm_update builds them, against np.linalg.solve; the dot form against
    # @ on rows and strided columns; the norm form against np.linalg.norm on
    # contiguous vectors, the only ones it is given (norm copies a strided
    # vector contiguous first, and from d = 4 the two sums can round apart)
    rng = np.random.default_rng(60 + d)
    X = rng.normal(size=(400, d)) * rng.uniform(0.1, 5.0, size=(400, 1))
    metrics = estimation._partial_sums(np.eye(d), 0.5 * (X[:, :, None] * X[:, None, :]))
    for k, V in enumerate(metrics):
        A = rng.normal(size=(d, d))
        b = rng.normal(size=d) * 10.0 ** rng.uniform(-3.0, 3.0)
        for M in (V, A @ A.T + 0.01 * np.eye(d)):
            assert solve_small(M, b).tobytes() == np.linalg.solve(M, b).tobytes()
        cols = rng.normal(size=(d, 3))
        for v in (b, X[k - 1], cols[:, 1]):
            assert float(v.dot(b)) == float(v @ b)
            assert float(cols[:, 0].dot(v)) == float(cols[:, 0] @ v)
        for v in (b, X[k - 1], metrics[k - 1][0]):
            assert math.sqrt(v.dot(v)) == float(np.linalg.norm(v))
    # the stacked solves: crtm_update's (n, d, d) metrics, ridge_update's
    # (n, H, d, d) grams
    for a, b in ((metrics[1:], X[:, :, None]),
                 (metrics[1:].reshape(100, 4, d, d), rng.normal(size=(100, 4, d, 1)))):
        assert solve_stacked(a, b).tobytes() == np.linalg.solve(a, b).tobytes()
    # crtm_update's Newton gains: row k of the stacked solve is the single
    # solve of system k, so a step's gain does not depend on its run
    gains = solve_stacked(metrics[1:], X[:, :, None])[..., 0]
    for V, x, g in zip(metrics[1:], X, gains):
        assert g.tobytes() == np.linalg.solve(V, x).tobytes() == solve_small(V, x).tobytes()


def test_solve_small_raises_on_a_singular_or_nonfinite_system():
    # and solve_stacked, on a stack whose second system is the bad one
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    for a, b in ((singular, np.ones(2)), (np.zeros((3, 3)), np.ones(3)),
                 (np.array([[1.0, np.nan], [0.0, 1.0]]), np.ones(2)),
                 (np.eye(2), np.array([1.0, np.inf]))):
        with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
            solve_small(a, b)
        with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
            solve_stacked(np.stack([np.eye(len(b)), a]), np.stack([b, b])[:, :, None])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(singular, np.ones(2))  # the contract kept


# --- delay ratio -------------------------------------------------------------

def test_tsmle_single_round():
    x = np.array([1.0, 0.0])
    num, den, N = ratio(1, 0.0, 0.0, [1], [3], [x], [[1.5, 0.0]], b=0.1)
    assert delay_estimate(num, den) == pytest.approx(2.0)
    assert N == 1


def test_tsmle_unavailable_before_data():
    assert delay_estimate(0.0, 0.0) is None


def test_tsmle_floor_applies():
    _, den, _ = ratio(1, 0.0, 0.0, [1], [0], [np.ones(2)], [[0.0, 0.0]], b=0.5)
    assert den == 0.5


def test_tsmle_plug_in_exactness():
    d_true = 0.7
    num = den = 0.0
    theta = np.array([2.0, 1.0])
    rng = np.random.default_rng(3)
    for t in range(50):
        x = rng.uniform(0.2, 1.0, 2)
        rate = float(theta @ x)
        # observations replaced by their exact means
        num, den, _ = ratio(2, num, den, [2], [d_true * rate], [x], [theta], b=0.01)
    assert delay_estimate(num, den) == pytest.approx(d_true, rel=1e-12)


def test_tsmle_rejects_foreign_rounds():
    # a round filed under another lag, or under none (0: a won round, which
    # is no delay sample), is rejected before any is consumed
    bank = [np.ones(2)] * 2
    with pytest.raises(ValueError, match="^round 1, filed under lag 2, does not"):
        tsmle_update(1, 0.0, 0.0, [1, 2], [1, 1], [np.ones(2)] * 2, bank, 0.1)
    with pytest.raises(ValueError, match="^round 0, filed under lag 0, does not"):
        tsmle_update(1, 0.0, 0.0, [0], [1], [np.ones(2)], bank[:1], 0.1)


def test_tsmle_monte_carlo_consistency():
    # d=0.7, exact first-stage, Poisson noise, 10^4 rounds per replication
    d_true = 0.7
    theta = np.array([3.0, 2.0])
    hits = 0
    reps = 40
    for rep in range(reps):
        rng = np.random.default_rng(1000 + rep)
        num = den = 0.0
        N = 0
        for c in range(100):
            x = rng.uniform(0.1, 1.0, 2)
            x *= rng.uniform(1.0, 5.0) / float(theta @ x)  # rate in [1, 5]
            rate = float(theta @ x)
            ys = rng.poisson(d_true * rate, 100)
            num, den, n = ratio(1, num, den, [1] * len(ys), ys, [x] * len(ys),
                                [theta] * len(ys), b=0.1)
            N += n
        assert N == 10_000
        if abs(delay_estimate(num, den) - d_true) <= 0.05:
            hits += 1
    assert hits >= int(0.95 * reps)


# --- ridge and noise scale ---------------------------------------------------

def test_ridge_first_sample_oracle():
    gram, moment, rss = fresh_ridge()
    assert np.array_equal(solve_small(gram[0], moment[0]), np.zeros(2))
    gram, moment, rss, count = ridge(gram, moment, rss, [[1.0, 0.0]], [[4.0]])
    assert solve_small(gram[0], moment[0]) == pytest.approx([2.0, 0.0], abs=1e-14)
    # progressive residual scored against the prior estimate (zero)
    assert rss[0] == pytest.approx(16.0)
    assert count == 1


def test_sigma_estimate_cases():
    assert sigma_estimate(0.0, 0) is None
    assert sigma_estimate(0.0, 5) == 0.0
    assert sigma_estimate(2.0, 2) == 1.0  # residuals {+1, -1}


def test_ridge_and_sigma_monte_carlo():
    beta = np.array([0.8, -0.3])
    sigma = 0.8
    hits_beta = hits_sigma = 0
    reps = 20
    for rep in range(reps):
        rng = np.random.default_rng(2000 + rep)
        xs = rng.uniform(-1, 1, (10_000, 2))
        noise = sigma * rng.standard_normal(10_000)
        log_hobs = [[float(x @ beta + eps)] for x, eps in zip(xs, noise)]
        gram, moment, rss, count = ridge(*fresh_ridge(), xs, log_hobs)
        hits_beta += np.linalg.norm(solve_small(gram[0], moment[0]) - beta) <= 0.1
        hits_sigma += abs(sigma_estimate(float(rss[0]), count) - sigma) <= 0.05
    assert hits_beta >= int(0.95 * reps)
    assert hits_sigma >= int(0.95 * reps)


def test_ridge_rejects_nonfinite():
    with pytest.raises(ValueError):
        ridge_update(*fresh_ridge(), [np.ones(2)], [[float("inf")]])


# --- data splitting ----------------------------------------------------------

def episode_from_outcomes(outcomes, t=1):
    """Customer t's episode record with the given outcomes, its state ids
    walked on the state table."""
    H, table = len(outcomes), state_table(len(outcomes))
    ids = [0]
    for won in outcomes:
        ids.append(table.next_id[ids[-1]][won])
    won = np.array([outcomes], dtype=bool).reshape(1, H)
    return Episodes(np.array([t]), np.ones((1, 2)), np.array([ids]),
                    np.where(won, 1.0, 0.0), np.ones((1, H)), won,
                    np.zeros((1, H), dtype=np.int64))


def buckets(outcomes):
    """The rounds (from 1) that split_episode files under each theta row
    (W) and each lag (D) of one customer's episode."""
    H = len(outcomes)
    w, d = {}, {}
    for h, i in enumerate(split_episode(episode_from_outcomes(outcomes))[0].tolist(), 1):
        if i <= H:
            w.setdefault(i, []).append(h)
        else:
            d.setdefault(i - H, []).append(h)
    return w, d


def test_split_all_lose():
    w, d = buckets([False, False, False])
    assert w == {NATURAL_DEMAND: [1, 2, 3]}
    assert d == {}


def test_split_exploration_pattern():
    # wins at rounds 1 and l+1 with l=2, H=4
    w, d = buckets([True, False, True, False])
    assert w == {FIRST_EXPOSURE: [1], win_index(2): [3]}
    assert d == {1: [2, 4]}


def test_split_seven_round_trajectory():
    outcomes = [h in (3, 6) for h in range(1, 8)]
    w, d = buckets(outcomes)
    assert w == {NATURAL_DEMAND: [1, 2], FIRST_EXPOSURE: [3], win_index(3): [6]}
    assert d == {1: [4, 7], 2: [5]}


@given(st.lists(st.booleans(), min_size=1, max_size=10))
def test_split_is_a_partition(outcomes):
    # every round in exactly one bucket, a theta row (0..H) or H + a lag
    # (1..H-1); a block of customers splits as each customer alone
    H = len(outcomes)
    bucket = split_episode(episode_from_outcomes(outcomes))
    assert bucket.shape == (1, H) and np.all((0 <= bucket) & (bucket < 2 * H))
    w, d = buckets(outcomes)
    assert sorted(h for rounds in (*w.values(), *d.values()) for h in rounds) == list(
        range(1, H + 1))
    reverse = split_episode(episode_from_outcomes(outcomes[::-1], t=2))
    block = concat([episode_from_outcomes(outcomes),
                    episode_from_outcomes(outcomes[::-1], t=2)])
    assert split_episode(block).tolist() == bucket.tolist() + reverse.tolist()


# --- optimism ----------------------------------------------------------------

def test_optimistic_mean_identity_metric():
    theta, V = np.array([0.5, 0.0]), np.eye(2)
    x = np.array([1.0, 0.0])
    assert optimistic_mean(theta, V, x, 4.0) == pytest.approx(0.5 + 2.0)
    assert optimistic_mean(theta, V, x, 0.0) == pytest.approx(0.5)
    assert optimistic_mean(theta, V, x, 0.0, b=0.9) == pytest.approx(0.9)


def test_optimistic_mean_is_ellipsoid_max():
    rng = np.random.default_rng(21)
    for _ in range(20):
        A = rng.normal(size=(2, 2))
        V = A @ A.T + 0.3 * np.eye(2)
        theta = rng.normal(size=2)
        x = rng.uniform(0.2, 1.0, 2)
        gamma = float(rng.uniform(0.1, 4.0))
        got = optimistic_mean(theta, V, x, gamma)
        # independent evaluation through the eigendecomposition
        vals, vecs = np.linalg.eigh(V)
        v_inv_sqrt = vecs @ np.diag(vals**-0.5) @ vecs.T
        want = float(x @ theta) + math.sqrt(gamma) * float(
            np.linalg.norm(v_inv_sqrt @ x)
        )
        assert got == pytest.approx(max(want, 0.0), abs=1e-6)
        # no feasible parameter beats the closed form
        for _ in range(300):
            u = rng.normal(size=2)
            u /= np.linalg.norm(u)
            point = theta + math.sqrt(gamma) * (v_inv_sqrt @ u) * rng.uniform(0, 1)
            assert float(x @ point) <= got + 1e-8


def test_optimistic_mean_at_zero_width_skips_the_solve(monkeypatch):
    # gamma = 0 gives the point estimate bit for bit, with no linear solve
    rng = np.random.default_rng(23)
    cases = []
    for _ in range(50):
        A = rng.normal(size=(3, 3))
        V = A @ A.T + 0.1 * np.eye(3)
        theta = rng.normal(size=3)
        x = rng.uniform(0.1, 2.0, 3)
        b = float(rng.uniform(0.0, 1.0))
        width = math.sqrt(0.0) * math.sqrt(float(x @ np.linalg.solve(V, x)))
        cases.append((theta, V, x, b, max(float(x @ theta) + width, b)))

    def no_solve(*args):
        raise AssertionError("solve called at gamma = 0")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    monkeypatch.setattr(estimation, "solve_small", no_solve)
    for theta, V, x, b, want in cases:
        got = optimistic_mean(theta, V, x, 0.0, b=b)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
