"""Online estimation stack: per-episode data splitting, truncated-mean
online Newton for the conversion effect vectors, a two-stage ratio estimator
for the delay factors, ridge regression for the auction coefficients, a
progressive variance estimate for the auction noise, and the confidence
widths that drive optimism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import NEVER, Bounds, lose_index, win_index
from .environment import EpisodeLog, RoundRecord, delay_token, theta_token

__all__ = [
    "ConfidenceConfig",
    "ThetaEstimator",
    "DelayEstimator",
    "AuctionEstimator",
    "SplitDatasets",
    "split_episode",
    "crtm_update",
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

    width_scale multiplies every confidence radius exactly once; 0 turns
    optimism off entirely (point estimates, useful in tests and when the
    theoretical constants are too conservative to act on).
    """

    delta: float
    gamma: float
    Gamma_trunc: float
    width_scale: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.gamma < 0 or self.Gamma_trunc < 0:
            raise ValueError("width constants must be nonnegative")
        if self.width_scale < 0:
            raise ValueError("width_scale must be nonnegative")


def theta_gamma(
    bounds: Bounds, T: int, delta: float, width_scale: float = 1.0
) -> float:
    """Squared confidence radius for the effect-vector estimators."""
    if T < 1 or not 0.0 < delta < 1.0:
        raise ValueError("need T >= 1 and delta in (0, 1)")
    d, bx, bt = bounds.dim, bounds.B_x, bounds.B_theta
    l_tail = math.log(4.0 * T / delta)
    l_pot = math.log(1.0 + T / (2.0 * d))
    raw = (
        896.0 * d * bx * bt * (1.0 + bx * bt) * l_tail * l_pot
        + 2.0 * bx * bx * bt * bt
        + 48.0 * d * bx * bt * l_pot
    )
    return width_scale * raw


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

def _identity(dim: int) -> np.ndarray:
    return np.eye(dim)


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
            self.V = _identity(self.dim)
        if self.theta_hat is None:
            self.theta_hat = np.zeros(self.dim)

    def mean(self, x: np.ndarray) -> float:
        return float(x @ self.theta_hat)

    def width(self, x: np.ndarray, gamma: float) -> float:
        if gamma == 0.0:
            return 0.0  # what the product gives: V is positive definite
        return math.sqrt(gamma) * math.sqrt(float(x @ np.linalg.solve(self.V, x)))

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
    if float(np.linalg.norm(theta_star)) <= radius:
        return theta_star
    eye = np.eye(len(theta_star))
    v_ts = V @ theta_star

    def candidate(lam: float) -> np.ndarray:
        return np.linalg.solve(V + lam * eye, v_ts)

    hi = 1.0
    while float(np.linalg.norm(candidate(hi))) > radius:
        hi *= 2.0
    lo = 0.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if float(np.linalg.norm(candidate(mid))) > radius:
            lo = mid
        else:
            hi = mid
    return candidate(hi)


def crtm_update(
    est: ThetaEstimator, x: np.ndarray, y: float, cfg: ConfidenceConfig
) -> ThetaEstimator:
    """One truncated-mean online Newton step.

    The design matrix gains half the outer product first; the truncation
    test uses the updated metric.
    """
    x = np.asarray(x, dtype=float)
    est.V = est.V + 0.5 * np.outer(x, x)
    x_norm = math.sqrt(float(x @ np.linalg.solve(est.V, x)))
    y_trunc = float(y) if x_norm * abs(float(y)) <= cfg.Gamma_trunc else 0.0
    grad = (float(x @ est.theta_hat) - y_trunc) * x
    theta_star = est.theta_hat - np.linalg.solve(est.V, grad)
    est.theta_hat = project_v_ball(theta_star, est.V, est.B_theta)
    est.update_count += 1
    return est


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
    est: DelayEstimator,
    rounds: list[RoundRecord],
    x: np.ndarray,
    theta_bank: Sequence[np.ndarray],
    b: float,
) -> DelayEstimator:
    """Consume one customer's lost rounds at this lag.

    Base rates come from the effect estimates current for this customer
    (`theta_bank`, by theta row); each is floored at b so the ratio stays
    bounded.
    """
    for r in rounds:
        if r.won or r.state.s1 != est.index:
            raise ValueError(f"round {r} does not belong to lag {est.index}")
        theta_hat = theta_bank[lose_index(r.state.s2)]
        est.denominator += max(b, float(theta_hat @ x))
        est.numerator += float(r.conversions)
        est.N += 1
    return est


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
            self.gram = _identity(self.dim)
        if self.moment is None:
            self.moment = np.zeros(self.dim)

    @property
    def beta_hat(self) -> np.ndarray:
        return np.linalg.solve(self.gram, self.moment)

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


def ridge_update(est: AuctionEstimator, x: np.ndarray, log_hob: float) -> AuctionEstimator:
    """One regression sample; the residual is scored against the estimate
    available before the sample arrives (progressive first stage)."""
    if not math.isfinite(log_hob):
        raise ValueError("log HOB must be finite")
    x = np.asarray(x, dtype=float)
    resid = log_hob - float(x @ est.beta_hat)
    est.residual_sq_sum += resid * resid
    est.gram = est.gram + np.outer(x, x)
    est.moment = est.moment + x * log_hob
    est.count += 1
    return est


def sigma_estimate(est: AuctionEstimator) -> float | None:
    """Root mean squared progressive residual; unavailable with no data."""
    if est.count == 0:
        return None
    return math.sqrt(est.residual_sq_sum / est.count)


# --- data splitting ----------------------------------------------------------

@dataclass(frozen=True)
class SplitDatasets:
    """Per-episode buckets: W feeds the effect-vector estimators (one list
    per theta row), D feeds the delay estimators (keyed by lag)."""

    w: list[list[RoundRecord]]
    d: dict[int, list[RoundRecord]]


def split_episode(log: EpisodeLog) -> SplitDatasets:
    """Assign each round to exactly one bucket.

    Won rounds carry a clean effect sample at the win index.  Lost rounds of
    a never-exposed customer are clean natural-demand samples; lost rounds
    after an exposure are delay samples keyed by the current lag.
    """
    w: list[list[RoundRecord]] = [[] for _ in range(len(log.records) + 1)]
    d: dict[int, list[RoundRecord]] = {}
    for r in log.records:
        if r.won:
            w[win_index(r.state.s1)].append(r)
        elif r.state.s1 == NEVER:
            w[lose_index(r.state.s2)].append(r)
        else:
            d.setdefault(r.state.s1, []).append(r)
    return SplitDatasets(w=w, d=d)


def optimistic_mean(
    est: ThetaEstimator, x: np.ndarray, gamma: float, b: float = 0.0
) -> float:
    """Upper confidence value of the conversion rate <x, theta>, floored at
    the rate floor b."""
    return max(est.mean(x) + est.width(x, gamma), b)
