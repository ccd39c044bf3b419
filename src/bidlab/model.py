"""Pure model of the personalized ad-bidding MDP.

Exposure states track the two most recent ad wins per customer as two
integer lags (s1, s2): s1 is the number of rounds since the last win (0
before any win), s2 the value s1 had when that win happened (0 for the
first win, -1 before any win).  Conversion rates are linear in the context,
with a multiplicative decay on rounds that follow a win.  The effect
vectors and delay factors are arrays indexed by position, and each lag maps
to its position by one line of arithmetic: a won round converts at theta
row s1 + 1, a lost one at theta row s2 + 1 times delay entry s1.  The
highest other bid (HOB) is lognormal per round, which gives closed forms
for the win probability and the expected second-price payment.

Everything in this module is a pure function of its arguments: no randomness,
no mutation.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NEVER",
    "NEVER_BEFORE",
    "ONLY_ONE",
    "ExposureState",
    "INITIAL_STATE",
    "win_index",
    "lose_index",
    "delay_index",
    "cap_norm",
    "Bounds",
    "TrueModel",
    "AuctionModel",
    "next_state",
    "reachable_states",
    "StateTable",
    "state_table",
    "conversion_mean",
    "norm_cdf",
    "lognormal_cdf_terms",
    "hob_cdf_terms",
    "win_probability",
    "hob_mean",
    "lognormal_mean",
    "expected_payment",
]

NEVER = 0  # s1: the customer has never seen a won ad
ONLY_ONE = 0  # s2: the most recent win was the first one
NEVER_BEFORE = -1  # s2: no win at all yet


@dataclass(frozen=True, slots=True)
class ExposureState:
    """Two integer lags.  `s1` counts the rounds since the most recent win
    (NEVER = 0 before any win); `s2` is the value `s1` had when that win
    happened: the gap to the win before it, ONLY_ONE = 0 if it was the
    first win, NEVER_BEFORE = -1 if there has been no win."""

    s1: int
    s2: int

    def __post_init__(self) -> None:
        if (
            not isinstance(self.s1, int)
            or not isinstance(self.s2, int)
            or self.s1 < 0
            or self.s2 < -1
            or (self.s1 == NEVER) != (self.s2 == NEVER_BEFORE)
        ):
            raise ValueError(
                "need integers s1 >= 0 and s2 >= -1 with s1 == 0 exactly when "
                f"s2 == -1, got {self}"
            )


INITIAL_STATE = ExposureState(NEVER, NEVER_BEFORE)


# Parameter positions.  Theta rows: 0 natural demand (no win yet), 1 first
# exposure, k + 1 a win k rounds ago.  Delay entries: 0 never exposed
# (fixed at 1), k a win k rounds ago.


def win_index(s1: int) -> int:
    """Theta row that converts a won round."""
    return s1 + 1


def lose_index(s2: int) -> int:
    """Theta row that converts a lost round."""
    return s2 + 1


def delay_index(s1: int) -> int:
    """Delay entry applied on a lost round."""
    return s1


def cap_norm(v: np.ndarray, cap: float) -> np.ndarray:
    """Nearest point of the Euclidean ball of radius `cap`."""
    n = float(np.linalg.norm(v))
    return v * (cap / n) if n > cap else v


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
        if self.B_beta * self.B_x + self.sigma_max * self.sigma_max / 2 > _LOG_FLOAT_MAX:
            raise ValueError(
                "B_beta * B_x + sigma_max**2 / 2 must not exceed "
                f"log(max float) = {_LOG_FLOAT_MAX:.2f}, or the HOB mean "
                "exp(<x, beta_h> + sigma_h^2 / 2) overflows"
            )


@dataclass(frozen=True)
class TrueModel:
    """Ground-truth conversion parameters: the (H+1, dim) effect vectors
    `theta` and the length-H delay factors `delay`, by position (see
    `win_index`, `lose_index` and `delay_index`); delay[0] is 1."""

    theta: np.ndarray
    delay: np.ndarray

    def __post_init__(self) -> None:
        if self.theta.ndim != 2 or self.delay.shape != (len(self.theta) - 1,):
            raise ValueError("theta must be (H+1, dim) and delay (H,)")
        if self.delay[0] != 1.0:
            raise ValueError("delay[0] (never exposed) must be exactly 1.0")
        if np.any(self.delay < 0):
            raise ValueError("delay factors must be nonnegative")

    def validate(self, bounds: Bounds) -> None:
        if self.theta.shape != (bounds.H + 1, bounds.dim):
            raise ValueError(f"theta has shape {self.theta.shape}")
        for i, v in enumerate(self.theta):
            if float(np.linalg.norm(v)) > bounds.B_theta + 1e-9:
                raise ValueError(f"theta[{i}] exceeds the norm bound")
        if np.any(self.delay[1:] > bounds.B_d):
            raise ValueError("delay factors must not exceed B_d")


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
        return ExposureState(1, s.s1)
    if s.s1 == NEVER:
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


class StateTable:
    """Every reachable (round, state) pair of an H-round episode under an
    integer id, round by round in `reachable_states` order: `ids[(h, s)]` is
    the id of a pair (the dict runs in id order) and `states[i]` the state
    of id i, built once; `layers[h - 1]` is the range of round h's ids;
    `next_id[i][won]` is the id the outcome leads to (`len(states)` after
    the last round).  The integer arrays `s1`, `s2` and `successors`
    (`next_id` as an (n, 2) array) walk a batch of customers at once.
    `state_table` builds one per H."""

    def __init__(self, H: int) -> None:
        levels = reachable_states(H)
        keys = [(h, s) for h, lv in enumerate(levels, 1) for s in lv]
        self.ids = {key: i for i, key in enumerate(keys)}
        self.states = tuple(s for _, s in keys)
        ends = itertools.accumulate(map(len, levels))
        self.layers = tuple(range(e - len(lv), e) for e, lv in zip(ends, levels))
        self.next_id = tuple(
            tuple(self.ids[(h + 1, next_state(s, won))] if h < H else len(keys)
                  for won in (False, True))
            for h, s in keys
        )
        self.s1 = np.array([s.s1 for s in self.states])
        self.s2 = np.array([s.s2 for s in self.states])
        self.successors = np.array(self.next_id)


@functools.cache
def state_table(H: int) -> StateTable:
    """The StateTable of H rounds, built on first use and shared after."""
    return StateTable(H)


def conversion_mean(
    s: ExposureState, won: bool, x: np.ndarray, m: TrueModel
) -> float:
    """Poisson conversion rate for one round in state `s` with outcome `won`."""
    if won:
        rate = float(m.theta[win_index(s.s1)] @ x)
    else:
        rate = float(m.delay[delay_index(s.s1)]) * float(m.theta[lose_index(s.s2)] @ x)
    if rate < 0:
        raise ValueError(f"negative conversion rate {rate} in state {s}")
    return rate


_SQRT2 = math.sqrt(2.0)


def norm_cdf(z: float | np.ndarray) -> float | np.ndarray:
    """Standard normal CDF via the complementary error function, of a float
    or elementwise of a float array.  Both take libm's erfc (abs error
    <= 1e-15, bit-reproducible on a given platform)."""
    if isinstance(z, np.ndarray):
        w = (-z / _SQRT2).ravel().tolist()
        return 0.5 * np.fromiter(map(math.erfc, w), float, len(w)).reshape(z.shape)
    return 0.5 * math.erfc(-z / _SQRT2)


def lognormal_cdf_terms(log_bid, log_mean, log_sd, mean):
    """Phi(u) = P(Y <= bid) and mean * Phi(u - log_sd) = E[Y 1{Y <= bid}] of a
    lognormal Y, u = (log bid - log_mean) / log_sd (logs by `math.log`)."""
    u = (log_bid - log_mean) / log_sd
    return norm_cdf(u), mean * norm_cdf(u - log_sd)


def hob_cdf_terms(
    h: int, log_bid: float | np.ndarray, x: np.ndarray, a: AuctionModel
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Win probability and expected payment of round h, per log-bid (same floats)."""
    return lognormal_cdf_terms(log_bid, a.log_mean(h, x), a.log_sd(h),
                               hob_mean(h, x, a))


def win_probability(h: int, bid: float, x: np.ndarray, a: AuctionModel) -> float:
    """P(HOB <= bid) for round h; a bid of zero opts out and never wins."""
    if bid < 0:
        raise ValueError("bid must be nonnegative")
    if bid == 0:
        return 0.0
    return hob_cdf_terms(h, math.log(bid), x, a)[0]


def hob_mean(h: int, x: np.ndarray, a: AuctionModel) -> float:
    """Unconditional lognormal HOB mean exp(<x, beta_h> + sigma_h^2 / 2)."""
    return lognormal_mean(a.log_mean(h, x), a.log_sd(h))


def lognormal_mean(log_mean: float, log_sd: float) -> float:
    """Mean exp(log_mean + log_sd^2 / 2) of a lognormal variable."""
    return math.exp(log_mean + 0.5 * log_sd**2)


def expected_payment(h: int, bid: float, x: np.ndarray, a: AuctionModel) -> float:
    """Unconditional expected payment E[HOB * 1{HOB <= bid}]; zero for an
    opt-out bid."""
    if bid <= 0:
        return 0.0
    return hob_cdf_terms(h, math.log(bid), x, a)[1]
