"""Stochastic simulator: lognormal HOB draws, Poisson conversions,
episode execution under bid or forced-outcome policies, and random problem
instances drawn from a shifted half-normal recipe.

Randomness is organized as keyed sub-streams derived from a single root seed
so that identical seeds reproduce experiments bit-exactly and policies cannot
perturb each other's noise.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .model import (
    INITIAL_STATE,
    NEVER,
    NEVER_BEFORE,
    ONLY_ONE,
    AuctionModel,
    Bounds,
    DELAY_NEVER,
    ExposureState,
    Sentinel,
    TrueModel,
    conversion_mean,
    delay_lag_indices,
    next_state,
    theta_indices,
)

__all__ = [
    "RandomSource",
    "InstanceRecipe",
    "BENCHMARK_RECIPE",
    "RoundRecord",
    "EpisodeLog",
    "sample_hob",
    "sample_conversions",
    "run_episode",
    "generate_instance",
    "sample_context",
    "write_episode_csv",
    "read_episode_csv",
    "write_context_csv",
    "read_context_csv",
    "instance_to_dict",
    "instance_from_dict",
]


def _encode_key_part(part: int | str) -> int:
    if isinstance(part, str):
        return int.from_bytes(part.encode("utf-8"), "little")
    if part < 0:
        raise ValueError(f"stream key parts must be nonnegative, got {part}")
    return int(part)


class RandomSource:
    """Keyed factory of independent numpy generators.

    `stream(*key)` returns a fresh generator seeded by SeedSequence entropy
    (root, *prefix, *key); string key parts are encoded as little-endian
    bytes.  Streams with distinct keys are statistically independent, and the
    same (root, key) always yields the same draws.
    """

    def __init__(self, root: int, prefix: tuple[int, ...] = ()):
        self.root = int(root)
        self.prefix = prefix

    def stream(self, *key: int | str) -> np.random.Generator:
        parts = tuple(_encode_key_part(k) for k in key)
        entropy = (self.root, *self.prefix, *parts)
        return np.random.default_rng(np.random.SeedSequence(entropy=entropy))

    def scoped(self, *key: int | str) -> "RandomSource":
        parts = tuple(_encode_key_part(k) for k in key)
        return RandomSource(self.root, self.prefix + parts)


@dataclass(frozen=True)
class InstanceRecipe:
    """Sampling recipe: every family is drawn elementwise as
    scale * |standard normal| + offset.  The defaults are the benchmark
    recipe (effect vectors scaled by 5, everything else unit scale,
    all offsets 0.1)."""

    theta_scale: float = 5.0
    theta_offset: float = 0.1
    delay_scale: float = 1.0
    delay_offset: float = 0.1
    beta_scale: float = 1.0
    beta_offset: float = 0.1
    sigma_scale: float = 1.0
    sigma_offset: float = 0.1
    context_scale: float = 1.0
    context_offset: float = 0.1
    strict: bool = False

    def __post_init__(self) -> None:
        for name in ("theta", "delay", "beta", "sigma", "context"):
            if getattr(self, f"{name}_offset") <= 0:
                raise ValueError(f"{name}_offset must be strictly positive")
            if getattr(self, f"{name}_scale") < 0:
                raise ValueError(f"{name}_scale must be nonnegative")


BENCHMARK_RECIPE = InstanceRecipe()


@dataclass(frozen=True)
class RoundRecord:
    """One auction round: the HOB is recorded whether or not the bid won
    (full-information feedback)."""

    t: int
    h: int
    state: ExposureState
    bid: float
    hob: float
    won: bool
    payment: float
    conversions: int


@dataclass(frozen=True)
class EpisodeLog:
    """All H rounds of one customer, with the context that generated them."""

    t: int
    x: np.ndarray
    records: list[RoundRecord]

    def __post_init__(self) -> None:
        if not self.records:
            raise ValueError("an episode needs at least one round")
        if self.records[0].state != INITIAL_STATE:
            raise ValueError("episodes must start from the initial state")
        for i, rec in enumerate(self.records):
            if rec.h != i + 1 or rec.t != self.t:
                raise ValueError(f"round {i + 1} is mislabelled: {rec}")
            if i + 1 < len(self.records):
                expected = next_state(rec.state, rec.won)
                if self.records[i + 1].state != expected:
                    raise ValueError(
                        f"state chain broken at round {rec.h}: "
                        f"{self.records[i + 1].state} != {expected}"
                    )

    @property
    def realized_reward(self) -> float:
        return float(sum(r.conversions - r.payment for r in self.records))


def sample_hob(
    h: int, x: np.ndarray, a: AuctionModel, rng: np.random.Generator
) -> float:
    """One lognormal HOB draw for round h."""
    z = rng.standard_normal()
    return math.exp(a.log_mean(h, x) + a.log_sd(h) * z)


def sample_conversions(rate: float, rng: np.random.Generator) -> int:
    """One Poisson conversion count at the given mean."""
    if rate < 0:
        raise ValueError("conversion rate must be nonnegative")
    return int(rng.poisson(rate))


def run_episode(
    policy: Callable[[int, ExposureState, np.ndarray], float | bool],
    x: np.ndarray,
    m: TrueModel,
    a: AuctionModel,
    rng: RandomSource,
    mode: str = "auction",
    *,
    t: int = 1,
    noise_label: str = "policy",
    bounds: Bounds | None = None,
) -> EpisodeLog:
    """Execute one H-round episode.

    In auction mode the policy returns a bid; the round is won when the bid
    is at least the realized HOB (ties win) and the winner pays the HOB.  In
    forced mode the policy returns the target outcome directly; a forced win
    pays the realized HOB and is recorded with bid B_A, a forced loss with
    bid 0.  The HOB stream is keyed by (t, "hob") only, so it is identical
    for every policy replaying the same customer; conversion noise is keyed
    by (t, "conv", noise_label).  Within each stream, round h consumes the
    h-th draw.
    """
    H = a.beta.shape[0]
    if mode not in ("auction", "forced"):
        raise ValueError(f"unknown bid mode {mode!r}")
    if mode == "forced" and bounds is None:
        raise ValueError("forced mode needs bounds to record the nominal bid")
    hob_rng = rng.stream(t, "hob")
    conv_rng = rng.stream(t, "conv", noise_label)
    state = INITIAL_STATE
    records: list[RoundRecord] = []
    for h in range(1, H + 1):
        hob = sample_hob(h, x, a, hob_rng)
        if mode == "auction":
            bid = float(policy(h, state, x))
            if bid < 0:
                raise ValueError(f"negative bid at round {h}")
            if bounds is not None:
                bid = min(bid, bounds.B_A)
            won = bid >= hob
        else:
            won = bool(policy(h, state, x))
            bid = bounds.B_A if won else 0.0
        payment = hob if won else 0.0
        y = sample_conversions(conversion_mean(state, won, x, m), conv_rng)
        records.append(
            RoundRecord(t, h, state, bid, hob, won, payment, y)
        )
        if h < H:
            state = next_state(state, won)
    return EpisodeLog(t, x, records)


def _half_normal(
    rng: np.random.Generator, scale: float, offset: float, shape: tuple[int, ...]
) -> np.ndarray:
    return scale * np.abs(rng.standard_normal(shape)) + offset


def _cap_norm(v: np.ndarray, cap: float) -> np.ndarray:
    n = float(np.linalg.norm(v))
    return v * (cap / n) if n > cap else v


def generate_instance(
    recipe: InstanceRecipe, bounds: Bounds, rng: RandomSource
) -> tuple[TrueModel, AuctionModel]:
    """Sample one problem instance from the recipe, clamped to the bounds.

    Draw order (fixed for reproducibility): effect vectors in canonical index
    order, delay factors by ascending lag, auction coefficients by round,
    noise scales by round.  Effect and coefficient vectors are rescaled onto
    their norm balls; delay factors are clipped to [0, B_d].

    With `recipe.strict` set, the realized instance is rejected unless
    context_offset * sum_i theta_l[i] >= b for every index l, which
    guarantees every sampled context satisfies the conversion-rate floor.
    """
    gen = rng.stream("instance")
    theta = {
        idx: _cap_norm(
            _half_normal(gen, recipe.theta_scale, recipe.theta_offset, (bounds.dim,)),
            bounds.B_theta,
        )
        for idx in theta_indices(bounds.H)
    }
    delay = {DELAY_NEVER: 1.0}
    for idx in delay_lag_indices(bounds.H):
        raw = _half_normal(gen, recipe.delay_scale, recipe.delay_offset, ())
        delay[idx] = float(np.clip(raw, 0.0, bounds.B_d))
    beta = np.stack(
        [
            _cap_norm(
                _half_normal(gen, recipe.beta_scale, recipe.beta_offset, (bounds.dim,)),
                bounds.B_beta,
            )
            for _ in range(bounds.H)
        ]
    )
    sigma = np.minimum(
        _half_normal(gen, recipe.sigma_scale, recipe.sigma_offset, (bounds.H,)),
        bounds.sigma_max,
    )
    model = TrueModel(theta=theta, delay=delay)
    model.validate(bounds)
    if recipe.strict:
        for idx, v in theta.items():
            if recipe.context_offset * float(np.sum(v)) < bounds.b:
                raise ValueError(
                    f"strict bounds check failed: theta[{idx}] cannot keep "
                    f"conversion rates above the floor {bounds.b}"
                )
    return model, AuctionModel(beta=beta, sigma=sigma)


def sample_context(
    recipe: InstanceRecipe, bounds: Bounds, rng: np.random.Generator
) -> np.ndarray:
    """One context vector, elementwise scale * |N(0,1)| + offset, rescaled
    onto the context norm ball."""
    return _cap_norm(
        _half_normal(rng, recipe.context_scale, recipe.context_offset, (bounds.dim,)),
        bounds.B_x,
    )


# --- serialization -------------------------------------------------------

_EPISODE_COLUMNS = [
    "trial", "t", "h", "s1", "s2", "bid", "hob", "won", "payment", "conversions",
]


def _s1_token(s1: int | Sentinel) -> str:
    return "NEVER" if s1 is NEVER else str(s1)


def _s2_token(s2: int | Sentinel) -> str:
    if s2 is NEVER_BEFORE:
        return "NEVERBEFORE"
    if s2 is ONLY_ONE:
        return "ONLYONE"
    return str(s2)


def _parse_s1(token: str) -> int | Sentinel:
    return NEVER if token == "NEVER" else int(token)


def _parse_s2(token: str) -> int | Sentinel:
    if token == "NEVERBEFORE":
        return NEVER_BEFORE
    if token == "ONLYONE":
        return ONLY_ONE
    return int(token)


def write_episode_csv(path, episodes: Iterable[tuple[int, EpisodeLog]]) -> None:
    """Write (trial, episode) pairs in the flat round-per-line schema."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(_EPISODE_COLUMNS)
        for trial, ep in episodes:
            for r in ep.records:
                w.writerow(
                    [
                        trial,
                        r.t,
                        r.h,
                        _s1_token(r.state.s1),
                        _s2_token(r.state.s2),
                        repr(r.bid),
                        repr(r.hob),
                        int(r.won),
                        repr(r.payment),
                        r.conversions,
                    ]
                )


def read_episode_csv(path, contexts: dict[tuple[int, int], np.ndarray]) -> Iterator[
    tuple[int, EpisodeLog]
]:
    """Parse an episode CSV back into logs, joining contexts by (trial, t).

    Schema violations raise ValueError with the offending line number.
    """
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != _EPISODE_COLUMNS:
            raise ValueError(f"line 1: expected header {_EPISODE_COLUMNS}")
        current: list[RoundRecord] = []
        cur_key: tuple[int, int] | None = None

        def finish() -> tuple[int, EpisodeLog]:
            trial, t = cur_key
            if cur_key not in contexts:
                raise ValueError(f"no context recorded for trial {trial}, t {t}")
            return trial, EpisodeLog(t, contexts[cur_key], list(current))

        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(_EPISODE_COLUMNS):
                raise ValueError(f"line {lineno}: expected {len(_EPISODE_COLUMNS)} fields")
            try:
                trial, t, h = int(row[0]), int(row[1]), int(row[2])
                state = ExposureState(_parse_s1(row[3]), _parse_s2(row[4]))
                rec = RoundRecord(
                    t, h, state,
                    float(row[5]), float(row[6]), bool(int(row[7])),
                    float(row[8]), int(row[9]),
                )
            except (ValueError, TypeError) as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            if cur_key is not None and (trial, t) != cur_key:
                yield finish()
                current = []
            cur_key = (trial, t)
            current.append(rec)
        if cur_key is not None:
            yield finish()


def write_context_csv(path, rows: Iterable[tuple[int, int, np.ndarray]]) -> None:
    """Write (trial, t, context) rows; column count follows the dimension."""
    rows = list(rows)
    if not rows:
        dim = 0
    else:
        dim = len(rows[0][2])
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["trial", "t"] + [f"x{i}" for i in range(dim)])
        for trial, t, x in rows:
            w.writerow([trial, t] + [repr(float(v)) for v in x])


def read_context_csv(path) -> dict[tuple[int, int], np.ndarray]:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or header[:2] != ["trial", "t"]:
            raise ValueError("line 1: expected header trial,t,x0,...")
        out: dict[tuple[int, int], np.ndarray] = {}
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(f"line {lineno}: expected {len(header)} fields")
            out[(int(row[0]), int(row[1]))] = np.array([float(v) for v in row[2:]])
        return out


def instance_to_dict(m: TrueModel, a: AuctionModel) -> dict:
    return {
        "theta": {idx.token: [float(v) for v in vec] for idx, vec in m.theta.items()},
        "delay": {idx.token: float(d) for idx, d in m.delay.items()},
        "beta": [[float(v) for v in row] for row in a.beta],
        "sigma": [float(s) for s in a.sigma],
    }


def instance_from_dict(d: dict, H: int) -> tuple[TrueModel, AuctionModel]:
    by_token = {idx.token: idx for idx in theta_indices(H)}
    delay_by_token = {DELAY_NEVER.token: DELAY_NEVER}
    delay_by_token.update({idx.token: idx for idx in delay_lag_indices(H)})
    theta = {by_token[k]: np.array(v, dtype=float) for k, v in d["theta"].items()}
    delay = {delay_by_token[k]: float(v) for k, v in d["delay"].items()}
    return (
        TrueModel(theta=theta, delay=delay),
        AuctionModel(beta=np.array(d["beta"], dtype=float),
                     sigma=np.array(d["sigma"], dtype=float)),
    )
