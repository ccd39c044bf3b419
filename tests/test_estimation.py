"""Estimators: hand-derived update oracles, dual-evaluation constants,
Monte Carlo consistency, and the data-splitting rules."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidlab import estimation
from bidlab.environment import Episodes
from bidlab.estimation import (
    AuctionEstimator,
    ConfidenceConfig,
    DelayEstimator,
    ThetaEstimator,
    crtm_update,
    delay_radius,
    optimistic_mean,
    project_v_ball,
    ridge_update,
    sigma_estimate,
    solve_small,
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

# theta rows by name
NATURAL_DEMAND, FIRST_EXPOSURE = lose_index(NEVER_BEFORE), lose_index(ONLY_ONE)

UNIT = Bounds(b=1.0, B_x=1.0, B_theta=1.0, B_d=1.0, B_A=1.0, H=3, dim=2)

# dual-evaluation constants, computed independently by direct arithmetic
GAMMA_211_100 = 97164.5441438936       # theta_gamma(d=2,Bx=Bt=1,T=100,delta=0.1)
TRUNC_211_20K = 46.541775896248616     # truncation_threshold(.., T=20000, delta=0.01)
RADIUS_600 = 2.2410732180112998        # delay_radius(N=600, gamma=1, unit, H=3, T=20000, delta=0.01)


def make_theta(dim=2, B=10.0):
    return ThetaEstimator(index=FIRST_EXPOSURE, dim=dim, B_theta=B)


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
    est = make_theta()
    crtm_update(est, [[1.0, 0.0]], [1.0], big_cfg())
    assert np.allclose(est.V, np.diag([1.5, 1.0]), atol=0)
    assert est.theta_hat == pytest.approx([2.0 / 3.0, 0.0], abs=1e-12)
    assert est.update_count == 1


def test_crtm_truncation_zeroes_gradient():
    est = make_theta()
    crtm_update(est, [[1.0, 0.0]], [1e9], ConfidenceConfig(0.01, 1.0, 0.0))
    assert np.array_equal(est.theta_hat, np.zeros(2))
    assert np.allclose(est.V, np.diag([1.5, 1.0]))


def test_crtm_interior_point_unprojected():
    est = make_theta(B=100.0)
    crtm_update(est, [[1.0, 0.0]], [1.0], big_cfg())
    # unconstrained Newton step lands inside the ball and is kept as is
    assert est.theta_hat == pytest.approx([2.0 / 3.0, 0.0], abs=1e-12)


def test_crtm_v_bookkeeping():
    est = make_theta()
    rng = np.random.default_rng(5)
    xs = rng.uniform(-1, 1, (30, 2))
    for x in xs:
        crtm_update(est, [x], [float(rng.poisson(1.0))], big_cfg())
    want = np.eye(2) + 0.5 * sum(np.outer(x, x) for x in xs)
    assert np.allclose(est.V, want, rtol=0, atol=1e-12)
    assert est.update_count == 30


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_crtm_norm_bound_holds(seed):
    rng = np.random.default_rng(seed)
    est = make_theta(B=1.0)
    for _ in range(15):
        x = rng.uniform(-2, 2, 2)
        y = float(rng.uniform(-50, 50))
        crtm_update(est, [x], [y], big_cfg())
        assert np.linalg.norm(est.theta_hat) <= 1.0 + 1e-8


def test_elliptical_potential_bound():
    # sum of min(1, squared post-update widths) is controlled by the log-det
    bx, T, d = 1.5, 400, 2
    rng = np.random.default_rng(11)
    est = make_theta(B=5.0)
    total = 0.0
    for _ in range(T):
        x = rng.uniform(-1, 1, d)
        x *= bx / max(np.linalg.norm(x), 1e-9) * rng.uniform(0.2, 1.0)
        crtm_update(est, [x], [0.0], big_cfg())
        w = float(x @ np.linalg.solve(est.V, x))
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


@pytest.mark.parametrize("d", [2, 3, 4, 5])
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


def test_solve_small_raises_on_a_singular_or_nonfinite_system():
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    for a, b in ((singular, np.ones(2)), (np.zeros((3, 3)), np.ones(3)),
                 (np.array([[1.0, np.nan], [0.0, 1.0]]), np.ones(2)),
                 (np.eye(2), np.array([1.0, np.inf]))):
        with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
            solve_small(a, b)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(singular, np.ones(2))  # the contract kept


# --- delay ratio -------------------------------------------------------------

def test_tsmle_single_round():
    est = DelayEstimator(index=1)
    x = np.array([1.0, 0.0])
    tsmle_update(est, [1], [3], [x], [[1.5, 0.0]], b=0.1)
    assert est.estimate == pytest.approx(2.0)
    assert est.N == 1


def test_tsmle_unavailable_before_data():
    est = DelayEstimator(index=1)
    assert est.estimate is None


def test_tsmle_floor_applies():
    est = DelayEstimator(index=1)
    tsmle_update(est, [1], [0], [np.ones(2)], [[0.0, 0.0]], b=0.5)
    assert est.denominator == 0.5


def test_tsmle_plug_in_exactness():
    d_true = 0.7
    est = DelayEstimator(index=2)
    theta = np.array([2.0, 1.0])
    rng = np.random.default_rng(3)
    for t in range(50):
        x = rng.uniform(0.2, 1.0, 2)
        rate = float(theta @ x)
        # observations replaced by their exact means
        tsmle_update(est, [2], [d_true * rate], [x], [theta], b=0.01)
    assert est.estimate == pytest.approx(d_true, rel=1e-12)


def test_tsmle_rejects_foreign_rounds():
    # a round filed under another lag, or under none (0: a won round, which
    # is no delay sample), is rejected before any is consumed
    est = DelayEstimator(index=1)
    bank = [np.ones(2)] * 2
    with pytest.raises(ValueError, match="^round 1, filed under lag 2, does not"):
        tsmle_update(est, [1, 2], [1, 1], [np.ones(2)] * 2, bank, 0.1)
    with pytest.raises(ValueError, match="^round 0, filed under lag 0, does not"):
        tsmle_update(est, [0], [1], [np.ones(2)], bank[:1], 0.1)
    assert (est.numerator, est.denominator, est.N) == (0.0, 0.0, 0)


def test_tsmle_monte_carlo_consistency():
    # d=0.7, exact first-stage, Poisson noise, 10^4 rounds per replication
    d_true = 0.7
    theta = np.array([3.0, 2.0])
    hits = 0
    reps = 40
    for rep in range(reps):
        rng = np.random.default_rng(1000 + rep)
        est = DelayEstimator(index=1)
        for c in range(100):
            x = rng.uniform(0.1, 1.0, 2)
            x *= rng.uniform(1.0, 5.0) / float(theta @ x)  # rate in [1, 5]
            rate = float(theta @ x)
            ys = rng.poisson(d_true * rate, 100)
            tsmle_update(est, [1] * len(ys), ys, [x] * len(ys), [theta] * len(ys), b=0.1)
        assert est.N == 10_000
        if abs(est.estimate - d_true) <= 0.05:
            hits += 1
    assert hits >= int(0.95 * reps)


# --- ridge and noise scale ---------------------------------------------------

def test_ridge_first_sample_oracle():
    est = AuctionEstimator(h=1, dim=2)
    assert np.array_equal(est.beta_hat, np.zeros(2))
    ridge_update([est], [[1.0, 0.0]], [[4.0]])
    assert est.beta_hat == pytest.approx([2.0, 0.0], abs=1e-14)
    # progressive residual scored against the prior estimate (zero)
    assert est.residual_sq_sum == pytest.approx(16.0)
    assert est.count == 1


def test_sigma_estimate_cases():
    est = AuctionEstimator(h=1, dim=2)
    assert sigma_estimate(est) is None
    est.residual_sq_sum, est.count = 0.0, 5
    assert sigma_estimate(est) == 0.0
    est.residual_sq_sum, est.count = 2.0, 2  # residuals {+1, -1}
    assert sigma_estimate(est) == 1.0


def test_ridge_and_sigma_monte_carlo():
    beta = np.array([0.8, -0.3])
    sigma = 0.8
    hits_beta = hits_sigma = 0
    reps = 20
    for rep in range(reps):
        rng = np.random.default_rng(2000 + rep)
        est = AuctionEstimator(h=1, dim=2)
        xs = rng.uniform(-1, 1, (10_000, 2))
        noise = sigma * rng.standard_normal(10_000)
        log_hobs = [[float(x @ beta + eps)] for x, eps in zip(xs, noise)]
        ridge_update([est], xs, log_hobs)
        hits_beta += np.linalg.norm(est.beta_hat - beta) <= 0.1
        hits_sigma += abs(sigma_estimate(est) - sigma) <= 0.05
    assert hits_beta >= int(0.95 * reps)
    assert hits_sigma >= int(0.95 * reps)


def test_ridge_rejects_nonfinite():
    est = AuctionEstimator(h=1, dim=2)
    with pytest.raises(ValueError):
        ridge_update([est], [np.ones(2)], [[float("inf")]])


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
    block = Episodes.concat([episode_from_outcomes(outcomes),
                             episode_from_outcomes(outcomes[::-1], t=2)])
    assert split_episode(block).tolist() == bucket.tolist() + reverse.tolist()


# --- optimism ----------------------------------------------------------------

def test_optimistic_mean_identity_metric():
    est = make_theta()
    est.theta_hat = np.array([0.5, 0.0])
    x = np.array([1.0, 0.0])
    assert optimistic_mean(est, x, 4.0) == pytest.approx(0.5 + 2.0)
    assert optimistic_mean(est, x, 0.0) == pytest.approx(0.5)
    assert optimistic_mean(est, x, 0.0, b=0.9) == pytest.approx(0.9)


def test_optimistic_mean_is_ellipsoid_max():
    rng = np.random.default_rng(21)
    for _ in range(20):
        A = rng.normal(size=(2, 2))
        V = A @ A.T + 0.3 * np.eye(2)
        est = make_theta()
        est.V = V
        est.theta_hat = rng.normal(size=2)
        x = rng.uniform(0.2, 1.0, 2)
        gamma = float(rng.uniform(0.1, 4.0))
        got = optimistic_mean(est, x, gamma)
        # independent evaluation through the eigendecomposition
        vals, vecs = np.linalg.eigh(V)
        v_inv_sqrt = vecs @ np.diag(vals**-0.5) @ vecs.T
        want = float(x @ est.theta_hat) + math.sqrt(gamma) * float(
            np.linalg.norm(v_inv_sqrt @ x)
        )
        assert got == pytest.approx(max(want, 0.0), abs=1e-6)
        # no feasible parameter beats the closed form
        for _ in range(300):
            u = rng.normal(size=2)
            u /= np.linalg.norm(u)
            theta = est.theta_hat + math.sqrt(gamma) * (v_inv_sqrt @ u) * rng.uniform(0, 1)
            assert float(x @ theta) <= got + 1e-8


def test_optimistic_mean_at_zero_width_skips_the_solve(monkeypatch):
    # gamma = 0 gives the point estimate bit for bit, with no linear solve
    rng = np.random.default_rng(23)
    cases = []
    for _ in range(50):
        A = rng.normal(size=(3, 3))
        est = make_theta(dim=3)
        est.V = A @ A.T + 0.1 * np.eye(3)
        est.theta_hat = rng.normal(size=3)
        x = rng.uniform(0.1, 2.0, 3)
        b = float(rng.uniform(0.0, 1.0))
        width = math.sqrt(0.0) * math.sqrt(float(x @ np.linalg.solve(est.V, x)))
        cases.append((est, x, b, max(float(x @ est.theta_hat) + width, b)))

    def no_solve(*args):
        raise AssertionError("solve called at gamma = 0")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    monkeypatch.setattr(estimation, "solve_small", no_solve)
    for est, x, b, want in cases:
        assert est.width(x, 0.0) == 0.0
        got = optimistic_mean(est, x, 0.0, b=b)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


# --- serialization -----------------------------------------------------------

def test_estimator_snapshots_round_trip():
    theta = make_theta()
    crtm_update(theta, [[0.7, 0.2]], [3.0], big_cfg())
    crtm_update(theta, [[0.1, 0.9]], [1.0], big_cfg())
    back = ThetaEstimator.from_dict(
        json.loads(json.dumps(theta.to_dict())), FIRST_EXPOSURE
    )
    assert np.array_equal(back.V, theta.V)
    assert np.array_equal(back.theta_hat, theta.theta_hat)
    assert back.update_count == theta.update_count

    delay = DelayEstimator(index=1)
    tsmle_update(delay, [1], [2], [np.ones(2)], [[1.0, 1.0]], 0.1)
    back = DelayEstimator.from_dict(
        json.loads(json.dumps(delay.to_dict())), 1
    )
    assert (back.numerator, back.denominator, back.N) == (
        delay.numerator, delay.denominator, delay.N
    )

    auc = AuctionEstimator(h=2, dim=2)
    ridge_update([auc], [[0.3, 0.4]], [[1.7]])
    back = AuctionEstimator.from_dict(json.loads(json.dumps(auc.to_dict())))
    assert np.array_equal(back.gram, auc.gram)
    assert np.array_equal(back.moment, auc.moment)
    assert back.residual_sq_sum == auc.residual_sq_sum

    with pytest.raises(ValueError):
        ThetaEstimator.from_dict(theta.to_dict(), NATURAL_DEMAND)
