"""Pure model of the personalized ad-bidding MDP.

Exposure states track the two most recent ad wins per customer; conversion
rates are linear in the context with a multiplicative decay on rounds that
follow a win; the highest other bid (HOB) is lognormal per round, which gives
closed forms for the win probability and the expected second-price payment.

Everything in this module is a pure function of its arguments: no randomness,
no mutation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Sentinel",
    "NEVER",
    "NEVER_BEFORE",
    "ONLY_ONE",
    "ExposureState",
    "INITIAL_STATE",
    "ThetaIndex",
    "NATURAL_DEMAND",
    "FIRST_EXPOSURE",
    "theta_lag",
    "theta_indices",
    "DelayIndex",
    "DELAY_NEVER",
    "delay_lag",
    "delay_lag_indices",
    "win_index",
    "lose_index",
    "delay_index",
    "Bounds",
    "TrueModel",
    "AuctionModel",
    "next_state",
    "reachable_states",
    "conversion_mean",
    "norm_cdf",
    "hob_cdf_terms",
    "win_probability",
    "hob_mean",
    "cdf_integral",
    "expected_payment",
    "expected_payment_given_win",
]


class Sentinel(Enum):
    """Named sentinel values for exposure-state fields."""

    NEVER = "NEVER"  # s1: the customer has never seen a won ad
    NEVER_BEFORE = "NEVERBEFORE"  # s2: no win earlier than the most recent one
    ONLY_ONE = "ONLYONE"  # s2: exactly one win so far, so no second-most-recent

    def __repr__(self) -> str:
        return self.name


NEVER = Sentinel.NEVER
NEVER_BEFORE = Sentinel.NEVER_BEFORE
ONLY_ONE = Sentinel.ONLY_ONE


@dataclass(frozen=True, slots=True)
class ExposureState:
    """Rounds since the most recent win (s1) and the gap between the two most
    recent wins (s2).  Integer lags/gaps count rounds and start at 1."""

    s1: int | Sentinel
    s2: int | Sentinel

    def __post_init__(self) -> None:
        if self.s1 is not NEVER and (not isinstance(self.s1, int) or self.s1 < 1):
            raise ValueError(f"s1 must be NEVER or an integer >= 1, got {self.s1!r}")
        if self.s2 not in (NEVER_BEFORE, ONLY_ONE) and (
            not isinstance(self.s2, int) or self.s2 < 1
        ):
            raise ValueError(
                f"s2 must be NEVERBEFORE, ONLYONE or an integer >= 1, got {self.s2!r}"
            )
        if (self.s1 is NEVER) != (self.s2 is NEVER_BEFORE):
            raise ValueError(f"s1=NEVER and s2=NEVERBEFORE must coincide, got {self}")


INITIAL_STATE = ExposureState(NEVER, NEVER_BEFORE)


@dataclass(frozen=True, slots=True)
class ThetaIndex:
    """Which conversion-effect vector applies: natural demand (no exposure),
    first exposure, or a win that happened `lag` rounds ago."""

    kind: str
    lag: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("natural_demand", "first_exposure", "lag"):
            raise ValueError(f"unknown theta index kind {self.kind!r}")
        if (self.kind == "lag") != (self.lag > 0):
            raise ValueError(f"lag must be positive exactly for kind='lag', got {self}")

    @property
    def token(self) -> str:
        return f"LAG{self.lag}" if self.kind == "lag" else self.kind.upper()

    def __repr__(self) -> str:
        return self.token


NATURAL_DEMAND = ThetaIndex("natural_demand")
FIRST_EXPOSURE = ThetaIndex("first_exposure")


def theta_lag(k: int) -> ThetaIndex:
    return ThetaIndex("lag", k)


def theta_indices(H: int) -> list[ThetaIndex]:
    """Canonical ordering of all H+1 conversion-effect indices."""
    return [NATURAL_DEMAND, FIRST_EXPOSURE] + [theta_lag(k) for k in range(1, H)]


@dataclass(frozen=True, slots=True)
class DelayIndex:
    """Which delay factor applies: never won (fixed factor 1) or a win `lag`
    rounds ago."""

    kind: str
    lag: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("never", "lag"):
            raise ValueError(f"unknown delay index kind {self.kind!r}")
        if (self.kind == "lag") != (self.lag > 0):
            raise ValueError(f"lag must be positive exactly for kind='lag', got {self}")

    @property
    def token(self) -> str:
        return f"LAG{self.lag}" if self.kind == "lag" else "NEVER"

    def __repr__(self) -> str:
        return self.token


DELAY_NEVER = DelayIndex("never")


def delay_lag(k: int) -> DelayIndex:
    return DelayIndex("lag", k)


def delay_lag_indices(H: int) -> list[DelayIndex]:
    """The estimable delay indices (the 'never' factor is fixed at 1)."""
    return [delay_lag(k) for k in range(1, H)]


def win_index(s1: int | Sentinel) -> ThetaIndex:
    """Conversion index used when the current round is won."""
    return FIRST_EXPOSURE if s1 is NEVER else theta_lag(s1)


def lose_index(s2: int | Sentinel) -> ThetaIndex:
    """Conversion index used when the current round is lost."""
    if s2 is NEVER_BEFORE:
        return NATURAL_DEMAND
    if s2 is ONLY_ONE:
        return FIRST_EXPOSURE
    return theta_lag(s2)


def delay_index(s1: int | Sentinel) -> DelayIndex:
    """Delay factor applied on a lost round."""
    return DELAY_NEVER if s1 is NEVER else delay_lag(s1)


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True, slots=True)
class Bounds:
    """Problem-scale constants.  `b` is the floor on every true conversion
    rate, the B_* values bound contexts, effect vectors, delay factors, bids,
    auction coefficients and noise scale."""

    b: float
    B_x: float
    B_theta: float
    B_d: float
    B_A: float
    H: int
    dim: int
    B_beta: float = 5.0
    sigma_max: float = 5.0

    def __post_init__(self) -> None:
        for name in ("b", "B_x", "B_theta", "B_d", "B_A", "B_beta", "sigma_max"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.H < 1 or self.dim < 1:
            raise ValueError("H and dim must be >= 1")
        if self.b > self.B_x * self.B_theta:
            raise ValueError("b must not exceed B_x * B_theta")
        if self.B_beta * self.B_x + 0.5 * self.sigma_max**2 > _LOG_FLOAT_MAX:
            raise ValueError(
                "B_beta * B_x + sigma_max**2 / 2 must not exceed "
                f"log(max float) = {_LOG_FLOAT_MAX:.2f}, or the HOB mean "
                "exp(<x, beta_h> + sigma_h^2 / 2) overflows"
            )


@dataclass(frozen=True)
class TrueModel:
    """Ground-truth conversion parameters: effect vectors theta[l] and delay
    factors delay[l] (delay at DELAY_NEVER is identically 1)."""

    theta: dict[ThetaIndex, np.ndarray]
    delay: dict[DelayIndex, float]

    def __post_init__(self) -> None:
        if self.delay.get(DELAY_NEVER) != 1.0:
            raise ValueError("delay[DELAY_NEVER] must be exactly 1.0")
        for idx, d in self.delay.items():
            if d < 0:
                raise ValueError(f"delay[{idx}] must be nonnegative")

    def validate(self, bounds: Bounds) -> None:
        for idx in theta_indices(bounds.H):
            v = self.theta[idx]
            if v.shape != (bounds.dim,):
                raise ValueError(f"theta[{idx}] has shape {v.shape}")
            if float(np.linalg.norm(v)) > bounds.B_theta + 1e-9:
                raise ValueError(f"theta[{idx}] exceeds the norm bound")
        for idx in delay_lag_indices(bounds.H):
            if not 0.0 <= self.delay[idx] <= bounds.B_d:
                raise ValueError(f"delay[{idx}] outside [0, B_d]")


@dataclass(frozen=True)
class AuctionModel:
    """Per-round lognormal HOB parameters: log m ~ Normal(<x, beta[h]>,
    sigma[h]^2).  Row h-1 of `beta` and entry h-1 of `sigma` belong to
    round h."""

    beta: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        if self.beta.ndim != 2 or self.sigma.shape != (self.beta.shape[0],):
            raise ValueError("beta must be (H, dim) and sigma (H,)")
        if np.any(self.sigma <= 0):
            raise ValueError("sigma entries must be strictly positive")

    def log_mean(self, h: int, x: np.ndarray) -> float:
        return float(self.beta[h - 1] @ x)

    def log_sd(self, h: int) -> float:
        return float(self.sigma[h - 1])


def next_state(s: ExposureState, won: bool) -> ExposureState:
    """Deterministic exposure-state transition for one round."""
    if won:
        return ExposureState(1, ONLY_ONE if s.s1 is NEVER else s.s1)
    if s.s1 is NEVER:
        return s
    return ExposureState(s.s1 + 1, s.s2)


def reachable_states(H: int) -> list[list[ExposureState]]:
    """States reachable at each round 1..H starting from INITIAL_STATE.
    Entry h-1 lists the states a customer can be in when round h begins."""
    levels = [[INITIAL_STATE]]
    for _ in range(1, H):
        seen: list[ExposureState] = []
        for s in levels[-1]:
            for won in (False, True):
                nxt = next_state(s, won)
                if nxt not in seen:
                    seen.append(nxt)
        levels.append(seen)
    return levels


def conversion_mean(
    s: ExposureState, won: bool, x: np.ndarray, m: TrueModel
) -> float:
    """Poisson conversion rate for one round in state `s` with outcome `won`."""
    if won:
        rate = float(m.theta[win_index(s.s1)] @ x)
    else:
        rate = m.delay[delay_index(s.s1)] * float(m.theta[lose_index(s.s2)] @ x)
    if rate < 0:
        raise ValueError(f"negative conversion rate {rate} in state {s}")
    return rate


_SQRT2 = math.sqrt(2.0)
_erfc = np.frompyfunc(math.erfc, 1, 1)


def norm_cdf(z: float | np.ndarray) -> float | np.ndarray:
    """Standard normal CDF via the complementary error function, of a float
    or elementwise of a float array.  Both take libm's erfc (abs error
    <= 1e-15, bit-reproducible on a given platform)."""
    if isinstance(z, np.ndarray):
        return 0.5 * _erfc(-z / _SQRT2).astype(float)
    return 0.5 * math.erfc(-z / _SQRT2)


def hob_cdf_terms(
    h: int, log_bid: float | np.ndarray, x: np.ndarray, a: AuctionModel
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Win probability P(HOB <= bid) = Phi(u) and expected payment
    E[HOB * 1{HOB <= bid}] = exp(mu + sigma^2/2) * Phi(u - sigma), with
    u = (log bid - mu) / sigma, for one log-bid or elementwise for an array
    of them (same floats either way).  Take the logs with `math.log`."""
    sigma = a.log_sd(h)
    u = (log_bid - a.log_mean(h, x)) / sigma
    return norm_cdf(u), hob_mean(h, x, a) * norm_cdf(u - sigma)


def win_probability(h: int, bid: float, x: np.ndarray, a: AuctionModel) -> float:
    """P(HOB <= bid) for round h; a bid of zero opts out and never wins."""
    if bid < 0:
        raise ValueError("bid must be nonnegative")
    if bid == 0:
        return 0.0
    return hob_cdf_terms(h, math.log(bid), x, a)[0]


def hob_mean(h: int, x: np.ndarray, a: AuctionModel) -> float:
    """Unconditional lognormal HOB mean exp(<x, beta_h> + sigma_h^2 / 2)."""
    return math.exp(a.log_mean(h, x) + 0.5 * a.log_sd(h) ** 2)


def expected_payment(h: int, bid: float, x: np.ndarray, a: AuctionModel) -> float:
    """Unconditional expected payment E[HOB * 1{HOB <= bid}]; zero for an
    opt-out bid."""
    if bid <= 0:
        return 0.0
    return hob_cdf_terms(h, math.log(bid), x, a)[1]


def cdf_integral(h: int, bid: float, x: np.ndarray, a: AuctionModel) -> float:
    """Exact integral of the HOB CDF from 0 to `bid`:
    bid * F(bid) - E[HOB * 1{HOB <= bid}]."""
    if bid <= 0:
        return 0.0
    return bid * win_probability(h, bid, x, a) - expected_payment(h, bid, x, a)


def expected_payment_given_win(
    h: int, bid: float, x: np.ndarray, a: AuctionModel
) -> float:
    """Expected second-price payment E[HOB | HOB <= bid], equal to
    bid - (1/F(bid)) * integral_0^bid F."""
    F = win_probability(h, bid, x, a)
    if F == 0.0:
        raise ValueError("payment undefined at zero win probability")
    return expected_payment(h, bid, x, a) / F
