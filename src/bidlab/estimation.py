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
from .environment import Episodes, delay_token, theta_token

__all__ = [
    "ConfidenceConfig",
    "ThetaEstimator",
    "DelayEstimator",
    "AuctionEstimator",
    "split_episode",
    "crtm_update",
    "solve_small",
    "solve_stacked",
    "project_v_ball",
    "theta_gamma",
    "truncation_threshold",
    "tsmle_update",
    "delay_radius",
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


@dataclass
class ThetaEstimator:
    """Online Newton state for one effect vector (theta row `index`)."""

    index: int
    dim: int
    B_theta: float
    V: np.ndarray = None
    theta_hat: np.ndarray = None
    update_count: int = 0

    def __post_init__(self) -> None:
        if self.V is None:
            self.V = np.eye(self.dim)
        if self.theta_hat is None:
            self.theta_hat = np.zeros(self.dim)

    def mean(self, x: np.ndarray) -> float:
        return float(x.dot(self.theta_hat))

    def width(self, x: np.ndarray, gamma: float) -> float:
        if gamma == 0.0:
            return 0.0  # what the product gives: V is positive definite
        return math.sqrt(gamma) * math.sqrt(float(x.dot(solve_small(self.V, x))))

    def to_dict(self) -> dict:
        return {
            "index": theta_token(self.index),
            "dim": self.dim,
            "B_theta": self.B_theta,
            "V": [[float(v) for v in row] for row in self.V],
            "theta_hat": [float(v) for v in self.theta_hat],
            "update_count": self.update_count,
        }

    @classmethod
    def from_dict(cls, d: dict, index: int) -> "ThetaEstimator":
        if d["index"] != theta_token(index):
            raise ValueError(f"snapshot index {d['index']} != {theta_token(index)}")
        return cls(
            index=index,
            dim=int(d["dim"]),
            B_theta=float(d["B_theta"]),
            V=np.array(d["V"], dtype=float),
            theta_hat=np.array(d["theta_hat"], dtype=float),
            update_count=int(d["update_count"]),
        )


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
    est: ThetaEstimator, X: np.ndarray, ys: Sequence[float], cfg: ConfidenceConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Truncated-mean online Newton steps on the samples (X[k], ys[k]) in
    order; returns the estimates and the metrics from before the first
    step and after each, (n + 1, d) and (n + 1, d, d).  Each step's metric
    gains half the outer product first, and the truncation test uses the
    updated metric.  The metrics are running sums and the truncation norms
    come from one stacked solve; each step's own solve runs in sequence,
    and only a step that leaves the ball is projected."""
    X = np.asarray(X, dtype=float)
    ys = np.asarray(ys, dtype=float)
    metrics = _partial_sums(est.V, 0.5 * (X[:, :, None] * X[:, None, :]))
    V = metrics[1:]
    x_norm = np.sqrt(_rowdot(X, solve_stacked(V, X[:, :, None])[..., 0]))
    y_trunc = np.where(x_norm * np.abs(ys) <= cfg.Gamma_trunc, ys, 0.0).tolist()
    thetas, theta, radius = np.empty((len(X) + 1, X.shape[1])), est.theta_hat, est.B_theta
    thetas[0] = theta
    for k, (x, v, y) in enumerate(zip(X, V, y_trunc), 1):
        theta = theta - solve_small(v, (float(x.dot(theta)) - y) * x)
        if math.sqrt(theta.dot(theta)) > radius:
            theta = project_v_ball(theta, v, radius)
        thetas[k] = theta
    est.V, est.theta_hat = V[-1].copy(), theta  # a copy: no view holds the run's metrics
    est.update_count += len(X)
    return thetas, metrics


# --- delay factors (two-stage ratio) ---------------------------------------

@dataclass
class DelayEstimator:
    """Ratio estimator for one delay factor (the lag, and delay entry,
    `index`): total conversions over total estimated base rates."""

    index: int
    numerator: float = 0.0
    denominator: float = 0.0
    N: int = 0

    @property
    def estimate(self) -> float | None:
        # unavailable before any data; callers fall back to pure optimism
        if self.denominator <= 0.0:
            return None
        return self.numerator / self.denominator

    def to_dict(self) -> dict:
        return {
            "index": delay_token(self.index),
            "numerator": self.numerator,
            "denominator": self.denominator,
            "N": self.N,
        }

    @classmethod
    def from_dict(cls, d: dict, index: int) -> "DelayEstimator":
        if d["index"] != delay_token(index):
            raise ValueError(f"snapshot index {d['index']} != {delay_token(index)}")
        return cls(
            index=index,
            numerator=float(d["numerator"]),
            denominator=float(d["denominator"]),
            N=int(d["N"]),
        )


def tsmle_update(
    est: DelayEstimator, lags: Sequence[int], conversions: Sequence[float],
    X: np.ndarray, thetas: np.ndarray, b: float,
) -> tuple[list[float], list[float]]:
    """Consume lost rounds at this lag, in order: round k, filed under lag
    lags[k] (0 for no delay sample), has conversions[k] and context X[k],
    and its base rate comes from thetas[k], the effect estimate of its row
    (lose_index(s2)) current for its customer.  Each base rate is floored
    at b so the ratio stays bounded.  Returns the numerator and the
    denominator before each round and after the last, as running sums in
    round order, as one round at a time adds them.
    """
    lags = np.asarray(lags)
    for k in np.flatnonzero(lags != est.index)[:1].tolist():
        raise ValueError(f"round {k}, filed under lag {lags[k]}, does not belong "
                         f"to lag {est.index}")
    rates = _rowdot(np.asarray(thetas, dtype=float), np.asarray(X, dtype=float))
    numerators, denominators = [est.numerator], [est.denominator]
    for y, rate in zip(np.asarray(conversions).tolist(), rates.tolist()):
        est.denominator += max(b, rate)
        est.numerator += float(y)
        est.N += 1
        numerators.append(est.numerator)
        denominators.append(est.denominator)
    return numerators, denominators


# --- auction coefficients (ridge) and noise scale ---------------------------

@dataclass
class AuctionEstimator:
    """Ridge state for one round position's log-HOB regression."""

    h: int
    dim: int
    gram: np.ndarray = None
    moment: np.ndarray = None
    residual_sq_sum: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        if self.gram is None:
            self.gram = np.eye(self.dim)
        if self.moment is None:
            self.moment = np.zeros(self.dim)

    @property
    def beta_hat(self) -> np.ndarray:
        return solve_small(self.gram, self.moment)

    def to_dict(self) -> dict:
        return {
            "h": self.h,
            "dim": self.dim,
            "gram": [[float(v) for v in row] for row in self.gram],
            "moment": [float(v) for v in self.moment],
            "residual_sq_sum": self.residual_sq_sum,
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AuctionEstimator":
        return cls(
            h=int(d["h"]),
            dim=int(d["dim"]),
            gram=np.array(d["gram"], dtype=float),
            moment=np.array(d["moment"], dtype=float),
            residual_sq_sum=float(d["residual_sq_sum"]),
            count=int(d["count"]),
        )


def ridge_update(
    bank: Sequence[AuctionEstimator], X: np.ndarray, log_hobs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One regression sample per context X[k] at each round position,
    log_hobs[k, j] going to bank[j]; each residual is scored against the
    estimate before its sample (progressive first stage), all of them from
    one stacked solve on the running grams and moments.  Returns those
    estimates, (n, len(bank), d), and each residual sum before its sample,
    (n, len(bank))."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(log_hobs, dtype=float)
    if not np.all(np.isfinite(Y)):
        raise ValueError("log HOB must be finite")
    outer = X[:, None, :, None] * X[:, None, None, :]  # each sample's, at every position
    grams = _partial_sums([e.gram for e in bank], outer)
    moments = _partial_sums([e.moment for e in bank], X[:, None, :] * Y[:, :, None])
    betas = solve_stacked(grams[:-1], moments[:-1, :, :, None])[..., 0]
    resid = Y - _rowdot(X[:, None, :], betas)
    rss = _partial_sums([e.residual_sq_sum for e in bank], resid * resid)
    gram, moment = grams[-1].copy(), moments[-1].copy()  # no view holds the run's sums
    for j, est in enumerate(bank):
        est.gram, est.moment, est.residual_sq_sum = gram[j], moment[j], float(rss[-1, j])
        est.count += len(X)
    return betas, rss[:-1]


def sigma_estimate(est: AuctionEstimator) -> float | None:
    """Root mean squared progressive residual; unavailable with no data."""
    if est.count == 0:
        return None
    return math.sqrt(est.residual_sq_sum / est.count)


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
    est: ThetaEstimator, x: np.ndarray, gamma: float, b: float = 0.0
) -> float:
    """Upper confidence value of the conversion rate <x, theta>, floored at
    the rate floor b."""
    return max(est.mean(x) + est.width(x, gamma), b)
