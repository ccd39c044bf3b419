"""Online estimation stack: per-episode data splitting, truncated-mean
online Newton for the conversion effect vectors, a two-stage ratio estimator
for the delay factors, ridge regression for the auction coefficients, a
progressive variance estimate for the auction noise, and the confidence
widths that drive optimism.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg._umath_linalg import solve as _lapack_solve, solve1 as _lapack_solve1

from .model import NEVER, Bounds, lose_index, state_table, win_index
from .environment import Episodes

__all__ = [
    "ConfidenceConfig",
    "split_episode",
    "crtm_update",
    "solve_small",
    "solve_stacked",
    "project_v_ball",
    "theta_gamma",
    "truncation_threshold",
    "tsmle_update",
    "delay_estimate",
    "delay_radius",
    "ridge_sums",
    "ridge_update",
    "sigma_estimate",
    "optimistic_mean",
]


@dataclass(frozen=True, slots=True)
class ConfidenceConfig:
    """Tail probability and the (possibly overridden) width constants.

    width_scale multiplies every confidence radius exactly once: the
    effect-vector radius here (`gamma`), the delay radius in
    `delay_radius`.  0 turns optimism off entirely (point estimates, useful
    in tests and when the theoretical constants are too conservative to act
    on).
    """

    delta: float
    gamma_raw: float  # the unscaled `theta_gamma`
    Gamma_trunc: float
    width_scale: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.gamma_raw < 0 or self.Gamma_trunc < 0:
            raise ValueError("width constants must be nonnegative")
        if self.width_scale < 0:
            raise ValueError("width_scale must be nonnegative")

    @property
    def gamma(self) -> float:
        """The effect-vector radius the optimistic means use."""
        return self.width_scale * self.gamma_raw


def theta_gamma(bounds: Bounds, T: int, delta: float) -> float:
    """Squared confidence radius for the effect-vector estimators, before
    `width_scale`."""
    if T < 1 or not 0.0 < delta < 1.0:
        raise ValueError("need T >= 1 and delta in (0, 1)")
    d, bx, bt = bounds.dim, bounds.B_x, bounds.B_theta
    l_tail = math.log(4.0 * T / delta)
    l_pot = math.log(1.0 + T / (2.0 * d))
    return (
        896.0 * d * bx * bt * (1.0 + bx * bt) * l_tail * l_pot
        + 2.0 * bx * bx * bt * bt
        + 48.0 * d * bx * bt * l_pot
    )


def truncation_threshold(bounds: Bounds, T: int, delta: float) -> float:
    """Observation-truncation level for the online Newton updates."""
    if T < 1 or not 0.0 < delta < 1.0:
        raise ValueError("need T >= 1 and delta in (0, 1)")
    d, bx, bt = bounds.dim, bounds.B_x, bounds.B_theta
    return 2.0 * math.sqrt(
        bx * bt * (1.0 + bx * bt) * math.log(4.0 * T / delta)
        * d * math.log(1.0 + T / (2.0 * d))
    )


def delay_radius(
    N: int,
    gamma: float,
    bounds: Bounds,
    H: int,
    T: int,
    delta: float,
    width_scale: float = 1.0,
) -> float:
    """Confidence radius for a delay-factor estimate built from N rounds.

    `gamma` is the unscaled effect-vector radius; width_scale is applied
    here exactly once, to the whole expression.
    """
    if N < 1:
        raise ValueError("need at least one observation")
    d = bounds.dim
    main = 4.0 * H * bounds.B_d * math.sqrt(
        d * math.log(1.0 + T / (2.0 * d)) * gamma
    )
    tail = math.sqrt(
        2.0 * math.e * bounds.B_d * bounds.B_x * bounds.B_theta
        * math.log(2.0 / delta)
    )
    return width_scale * (main + tail) / (bounds.b * math.sqrt(N))


# --- effect vectors (truncated-mean online Newton) -------------------------

def solve_small(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a, b) of one float64 system, a (d, d) and b (d,), bit
    for bit: the LAPACK kernel that np.linalg.solve runs, without the
    wrapper's checks and conversions, which cost three times the kernel at
    d = 2.  As there, a singular or non-finite system raises LinAlgError
    (after numpy's warning of the invalid value)."""
    r = _lapack_solve1(a, b, signature="dd->d")
    if not math.isfinite(r.dot(r)) and not np.isfinite(r).all():
        raise LinAlgError("singular or non-finite system")
    return r


def solve_stacked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a, b) of a stack of float64 systems, a (..., d, d)
    and b (..., d, k), bit for bit: the kernel np.linalg.solve runs when
    b.ndim > 1, with `solve_small`'s contract."""
    r = _lapack_solve(a, b, signature="dd->d")
    flat = r.ravel()
    if not math.isfinite(flat.dot(flat)) and not np.isfinite(flat).all():
        raise LinAlgError("singular or non-finite system")
    return r


def _partial_sums(start, steps: np.ndarray) -> np.ndarray:
    """start, start + steps[0], (start + steps[0]) + steps[1], ...: summed
    in order along the first axis, as a loop of `+` sums them."""
    out = np.empty((len(steps) + 1, *np.shape(start)))
    out[0], out[1:] = start, steps
    return np.add.accumulate(out, axis=0, out=out)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """float(a[k] @ b[k]) for every (broadcast) row k: a stacked (1, d) @
    (d, 1) product runs the vector dot, bit for bit."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def project_v_ball(theta_star: np.ndarray, V: np.ndarray, radius: float) -> np.ndarray:
    """Nearest point of the Euclidean radius-ball in the V-metric.

    The minimizer is theta(lam) = (V + lam I)^{-1} V theta_star for the
    multiplier lam >= 0 that puts it on the sphere; its norm is strictly
    decreasing in lam, so bisection converges.  lam is located to 1e-10.
    """
    if math.sqrt(theta_star.dot(theta_star)) <= radius:
        return theta_star
    eye = np.eye(len(theta_star))
    v_ts = V @ theta_star

    def candidate(lam: float) -> np.ndarray:
        return solve_small(V + lam * eye, v_ts)

    def outside(lam: float) -> bool:
        c = candidate(lam)
        return math.sqrt(c.dot(c)) > radius

    hi = 1.0
    while outside(hi):
        hi *= 2.0
    lo = 0.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if outside(mid):
            lo = mid
        else:
            hi = mid
    return candidate(hi)


def crtm_update(
    theta: np.ndarray, V: np.ndarray, X: np.ndarray, ys: Sequence[float],
    cfg: ConfidenceConfig, radius: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Truncated-mean online Newton steps from the estimate `theta` and its
    metric `V` on the samples (X[k], ys[k]) in order, each estimate kept in
    the ball of `radius`; returns the estimates and the metrics from before
    the first step and after each, (n + 1, d) and (n + 1, d, d).  Each
    step's metric gains half the outer product first, and the truncation
    test uses the updated metric.  The metrics are running sums, and one
    stacked solve gives every gain g_k = V_k^{-1} x_k, which sets both the
    truncation norm sqrt(x_k . g_k) and the step theta - (x_k . theta -
    y_k) g_k.  Only the steps, each a product and a scaled difference, run
    in sequence, and only a step that leaves the ball is projected."""
    X = np.asarray(X, dtype=float)
    ys = np.asarray(ys, dtype=float)
    metrics = _partial_sums(V, 0.5 * (X[:, :, None] * X[:, None, :]))
    V = metrics[1:]
    G = solve_stacked(V, X[:, :, None])[..., 0]
    x_norm = np.sqrt(_rowdot(X, G))
    y_trunc = np.where(x_norm * np.abs(ys) <= cfg.Gamma_trunc, ys, 0.0).tolist()
    thetas = np.empty((len(X) + 1, X.shape[1]))
    thetas[0] = theta
    for k, (x, g, y) in enumerate(zip(X, G, y_trunc), 1):
        theta = theta - (float(x.dot(theta)) - y) * g
        if math.sqrt(theta.dot(theta)) > radius:
            theta = project_v_ball(theta, V[k - 1], radius)
        thetas[k] = theta
    return thetas, metrics


# --- delay factors (two-stage ratio) ---------------------------------------

def tsmle_update(
    lag: int, numerator: float, denominator: float, lags: Sequence[int],
    conversions: Sequence[float], X: np.ndarray, thetas: np.ndarray, b: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Add lost rounds to the ratio terms of lag `lag`, in order: round k,
    filed under lag lags[k] (0 for no delay sample), has conversions[k] and
    context X[k], and its base rate comes from thetas[k], the effect
    estimate of its row (lose_index(s2)) current for its customer.  Each
    base rate is floored at b so the ratio stays bounded.  Returns the
    numerator and the denominator before each round and after the last, as
    running sums in round order, as one round at a time adds them.
    """
    lags = np.asarray(lags)
    for k in np.flatnonzero(lags != lag)[:1].tolist():
        raise ValueError(f"round {k}, filed under lag {lags[k]}, does not belong "
                         f"to lag {lag}")
    rates = _rowdot(np.asarray(thetas, dtype=float), np.asarray(X, dtype=float))
    # fmax(b, rate) is max(b, rate): b on a tie and on a NaN rate
    return (_partial_sums(numerator, np.asarray(conversions, dtype=float)),
            _partial_sums(denominator, np.fmax(b, rates)))


def delay_estimate(numerator: float, denominator: float) -> float | None:
    """Total conversions over total estimated base rates; unavailable
    before any data, where callers fall back to pure optimism."""
    if denominator <= 0.0:
        return None
    return numerator / denominator


# --- auction coefficients (ridge) and noise scale ---------------------------

def ridge_sums(
    gram: np.ndarray, moment: np.ndarray, X: np.ndarray, log_hobs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """`ridge_update`'s running grams and moments, (n + 1, H, d, d) and
    (n + 1, H, d), without its solve."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(log_hobs, dtype=float)
    outer = X[:, None, :, None] * X[:, None, None, :]  # each sample's, at every position
    return _partial_sums(gram, outer), _partial_sums(moment, X[:, None, :] * Y[:, :, None])


def ridge_update(
    gram: np.ndarray, moment: np.ndarray, rss: np.ndarray, X: np.ndarray,
    log_hobs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One regression sample per context X[k] at each of the H round
    positions, log_hobs[k, j] going to position j, whose ridge sums are
    gram[j] (d, d) and moment[j] (d,) and progressive residual sum rss[j];
    each residual is scored against the estimate before its sample
    (progressive first stage), all of them from one stacked solve on the
    running grams and moments.  Returns the grams, moments and residual
    sums from before the first sample and after each, (n + 1, H, d, d),
    (n + 1, H, d) and (n + 1, H), and the estimates before each sample,
    (n, H, d)."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(log_hobs, dtype=float)
    if not np.all(np.isfinite(Y)):
        raise ValueError("log HOB must be finite")
    grams, moments = ridge_sums(gram, moment, X, Y)
    betas = solve_stacked(grams[:-1], moments[:-1, :, :, None])[..., 0]
    resid = Y - _rowdot(X[:, None, :], betas)
    return grams, moments, _partial_sums(rss, resid * resid), betas


def sigma_estimate(rss: float, count: int) -> float | None:
    """Root mean squared progressive residual of `count` samples whose
    squares sum to `rss`; unavailable with no data."""
    if count == 0:
        return None
    return math.sqrt(rss / count)


# --- data splitting ----------------------------------------------------------

@functools.cache
def _buckets(H: int) -> np.ndarray:
    """The bucket of a round by its state id and outcome (column 0 lost,
    column 1 won), from masks over the state table's lags."""
    s1, s2 = state_table(H).s1, state_table(H).s2
    return np.stack([np.where(s1 == NEVER, lose_index(s2), H + s1), win_index(s1)], axis=1)


def split_episode(episodes: Episodes) -> np.ndarray:
    """Assign each round to exactly one bucket, as an (n, H) array: W rounds
    to their theta row i (0..H), D rounds to H + their lag (H+1..2H-1).

    Won rounds carry a clean effect sample at the win index.  Lost rounds of
    a never-exposed customer are clean natural-demand samples; lost rounds
    after an exposure are delay samples keyed by the current lag.
    """
    won = episodes.won
    return _buckets(won.shape[1])[episodes.ids[:, :-1], won.view(np.uint8)]


def optimistic_mean(
    theta: np.ndarray, V: np.ndarray, x: np.ndarray, gamma: float, b: float = 0.0
) -> float:
    """Upper confidence value of the conversion rate <x, theta> over the
    ellipsoid of metric V and squared radius gamma, floored at the rate
    floor b."""
    width = 0.0  # what the product gives at gamma = 0: V is positive definite
    if gamma != 0.0:
        width = math.sqrt(gamma) * math.sqrt(float(x.dot(solve_small(V, x))))
    return max(float(x.dot(theta)) + width, b)
