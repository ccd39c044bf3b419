"""Stochastic simulator: lognormal HOB draws, Poisson conversions,
second-price episodes played from a bid per state id, and random problem
instances drawn from a shifted half-normal recipe.

Randomness is organized as keyed sub-streams derived from a single root seed
so that identical seeds reproduce experiments bit-exactly and policies cannot
perturb each other's noise.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .model import (
    NEVER,
    NEVER_BEFORE,
    ONLY_ONE,
    AuctionModel,
    Bounds,
    ExposureState,
    TrueModel,
    cap_norm,
    conversion_mean,
    state_table,
)

__all__ = [
    "RandomSource",
    "InstanceRecipe",
    "BENCHMARK_RECIPE",
    "RoundRecord",
    "EpisodeLog",
    "Z_MAX",
    "POISSON_RATE_MAX",
    "sample_hob",
    "draw_hobs",
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
    "theta_token",
    "delay_token",
]


def _encode_key_part(part: int | str) -> int:
    if isinstance(part, str):
        return int.from_bytes(part.encode("utf-8"), "little")
    if part < 0:
        raise ValueError(f"stream key parts must be nonnegative, got {part}")
    return int(part)


def _words(*parts: int) -> list[int]:
    """The 32-bit words, low first, that SeedSequence reads the parts as."""
    return [n >> s & 0xFFFFFFFF
            for n in parts for s in range(0, n.bit_length() or 1, 32)]


# numpy's SeedSequence hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _pcg64_seeds(entropy: np.ndarray) -> np.ndarray:
    """`SeedSequence(entropy=row).generate_state(4, np.uint64)` of every row
    of the (count, L) uint32 word array `entropy`: numpy's mix with a pool
    of 4 words, run on whole columns.  The hash constant steps the same way
    for every row, so each row gets its own SeedSequence's words."""
    const = _INIT_A

    def hashmix(v: np.ndarray, mult: int) -> np.ndarray:
        nonlocal const
        v = v ^ np.uint32(const)
        const = const * mult & 0xFFFFFFFF
        v = v * np.uint32(const)
        return v ^ (v >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return r ^ (r >> np.uint32(16))

    count, n = entropy.shape
    pad = np.zeros(count, np.uint32)
    pool = [hashmix(entropy[:, i] if i < n else pad, _MULT_A) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src], _MULT_A))
    for src in range(4, n):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src], _MULT_A))
    const = _INIT_B
    state = np.stack([hashmix(pool[i % 4], _MULT_B) for i in range(8)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """Ready seed words: what `generate_state(4, np.uint64)` gives PCG64."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


class RandomSource:
    """Keyed factory of independent numpy generators.

    `stream(*key)` returns a fresh generator seeded by SeedSequence entropy
    (root, *prefix, *key); string key parts are encoded as little-endian
    bytes.  Streams with distinct keys are statistically independent, and the
    same (root, key) always yields the same draws.  A source from `prepare`
    builds the streams of whole key families from seed words computed at
    once: the same generators, without a SeedSequence each.
    """

    def __init__(self, root: int, prefix: tuple[int, ...] = ()):
        self.root = int(root)
        self.prefix = prefix
        self._seeds: dict = {}  # family -> (start, (count, 4) words of t = start+1..)

    def stream(self, *key: int | str) -> np.random.Generator:
        prepared = self._seeds.get(key[1:]) if key else None
        if prepared is not None and type(key[0]) is int:
            start, seeds = prepared
            if 0 <= key[0] - start - 1 < len(seeds):
                words = _SeedWords(seeds[key[0] - start - 1])
                return np.random.Generator(np.random.PCG64(words))
        parts = tuple(_encode_key_part(k) for k in key)
        entropy = (self.root, *self.prefix, *parts)
        return np.random.default_rng(np.random.SeedSequence(entropy=entropy))

    def scoped(self, *key: int | str) -> "RandomSource":
        parts = tuple(_encode_key_part(k) for k in key)
        return RandomSource(self.root, self.prefix + parts)

    def prepare(
        self, count: int, *families: tuple[int | str, ...], start: int = 0
    ) -> "RandomSource":
        """This source, with the seed words of the keys (t, *family), t =
        start+1..start+count, of each family computed at once: one pass for
        all families of the same word count.  Each family's first and last
        key are checked against SeedSequence's."""
        if not (0 < count and 0 <= start and start + count < 2**32):
            raise ValueError(f"can prepare keys 1 to 2**32 - 1, got {count} from {start + 1}")
        head = _words(self.root, *self.prefix)
        prepared = RandomSource(self.root, self.prefix)
        seeds = prepared._seeds = dict(self._seeds)
        rows: dict[int, dict] = {}  # entropy length -> {family: entropy row}
        for family in families:
            row = [*head, 0, *_words(*(_encode_key_part(p) for p in family))]
            rows.setdefault(len(row), {})[tuple(family)] = row
        for group in rows.values():
            entropy = np.repeat(np.array(list(group.values()), np.uint32), count, axis=0)
            entropy[:, len(head)] = np.tile(np.arange(start + 1, start + count + 1),
                                            len(group))
            words = _pcg64_seeds(entropy)
            for k, family in enumerate(group):
                seeds[family] = start, words[k * count:(k + 1) * count]
                for t in {start + 1, start + count}:
                    ss = np.random.SeedSequence(
                        (self.root, *self.prefix, t, *map(_encode_key_part, family)))
                    if not np.array_equal(seeds[family][1][t - start - 1],
                                          ss.generate_state(4, np.uint64)):
                        raise RuntimeError(f"seed words of key {(t, *family)} are wrong")
        return prepared


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


class RoundRecord(NamedTuple):
    """One auction round: the HOB is recorded whether or not the bid won
    (full-information feedback).  An immutable tuple: logs hold one per
    round, and a tuple is the cheapest record to build and read."""

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
        table = state_table(len(self.records))
        i = 0  # the state id each round should start from
        for k, rec in enumerate(self.records):
            state = table.states[i]  # the simulator and the reader use these objects
            if rec.state is not state and rec.state != state:
                if k == 0:
                    raise ValueError("episodes must start from the initial state")
                raise ValueError(f"state chain broken at round {k}: {rec.state} != {state}")
            if rec.h != k + 1 or rec.t != self.t:
                raise ValueError(f"round {k + 1} is mislabelled: {rec}")
            i = table.next_id[i][bool(rec.won)]

    @property
    def realized_reward(self) -> float:
        return float(sum(r.conversions - r.payment for r in self.records))


# The largest |z| numpy's ziggurat standard normal draws.  Its tail returns
# r - log1p(-U) / r for a U < 1 on a 2**-53 grid, so |z| <= r + 53 ln 2 / r,
# where r is the ziggurat's edge; every other branch returns |z| < r.
_ZIGGURAT_R = 3.6541528853610088
Z_MAX = _ZIGGURAT_R + 53 * math.log(2) / _ZIGGURAT_R
# numpy's Poisson draws no rate above 2**63 - 1 - 10 * sqrt(2**63 - 1)
POISSON_RATE_MAX = 9.2e18


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


def draw_hobs(
    x: np.ndarray, a: AuctionModel, rng: RandomSource, t: int
) -> list[float]:
    """Customer t's H highest other bids, round h from the h-th draw of its
    (t, "hob") stream; the same for every policy that plays the customer."""
    gen = rng.stream(t, "hob")
    return [sample_hob(h, x, a, gen) for h in range(1, a.beta.shape[0] + 1)]


def run_episode(
    bids: Sequence[float],
    x: np.ndarray,
    m: TrueModel,
    a: AuctionModel,
    rng: RandomSource,
    *,
    t: int,
    noise_label: str,
    hobs: Sequence[float],
) -> EpisodeLog:
    """Play one H-round episode of second-price auctions, bidding `bids[i]`
    in the state of id i of `state_table(H)`: a round is won when the bid is
    at least the realized HOB (ties win), and the winner pays the HOB.  A bid
    of inf wins at any price and 0.0 never wins, since every HOB is > 0;
    that is how a target outcome is played (`planning.forced_bids`).  `hobs`
    holds the H realized HOBs, drawn once per customer (`draw_hobs`) and
    passed to every policy that plays it.  Conversion noise is keyed by
    (t, "conv", noise_label), round h taking the h-th draw.
    """
    H = a.beta.shape[0]
    hobs = [float(v) for v in hobs]
    if len(hobs) != H:
        raise ValueError(f"need one HOB per round, got {len(hobs)} for {H}")
    conv_rng = rng.stream(t, "conv", noise_label)
    table = state_table(H)
    i = 0  # state id
    records: list[RoundRecord] = []
    for h, hob in enumerate(hobs, start=1):
        state, bid = table.states[i], float(bids[i])
        if not bid >= 0:
            raise ValueError(f"bid must be >= 0, got {bid} at round {h}")
        won = bid >= hob
        payment = hob if won else 0.0
        y = sample_conversions(conversion_mean(state, won, x, m), conv_rng)
        records.append(RoundRecord(t, h, state, bid, hob, won, payment, y))
        i = table.next_id[i][won]
    return EpisodeLog(t, x, records)


def _half_normal(
    rng: np.random.Generator, scale: float, offset: float, shape: tuple[int, ...]
) -> np.ndarray:
    return scale * np.abs(rng.standard_normal(shape)) + offset


def generate_instance(
    recipe: InstanceRecipe, bounds: Bounds, rng: RandomSource
) -> tuple[TrueModel, AuctionModel]:
    """Sample one problem instance from the recipe, clamped to the bounds.

    Draw order (fixed for reproducibility): effect vectors by position,
    delay factors by ascending lag, auction coefficients by round,
    noise scales by round.  Effect and coefficient vectors are rescaled onto
    their norm balls; delay factors are clipped to [0, B_d].

    With `recipe.strict` set, the realized instance is rejected unless
    context_offset * sum_i theta_l[i] >= b for every index l, which
    guarantees every sampled context satisfies the conversion-rate floor.
    """
    gen = rng.stream("instance")
    theta = np.stack(
        [
            cap_norm(
                _half_normal(gen, recipe.theta_scale, recipe.theta_offset, (bounds.dim,)),
                bounds.B_theta,
            )
            for _ in range(bounds.H + 1)
        ]
    )
    delay = np.array(
        [1.0]
        + [
            float(np.clip(
                _half_normal(gen, recipe.delay_scale, recipe.delay_offset, ()),
                0.0, bounds.B_d,
            ))
            for _ in range(1, bounds.H)
        ]
    )
    beta = np.stack(
        [
            cap_norm(
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
        for i, v in enumerate(theta):
            if recipe.context_offset * float(np.sum(v)) < bounds.b:
                raise ValueError(
                    f"strict bounds check failed: theta[{i}] cannot keep "
                    f"conversion rates above the floor {bounds.b}"
                )
    return model, AuctionModel(beta=beta, sigma=sigma)


def sample_context(
    recipe: InstanceRecipe, bounds: Bounds, rng: np.random.Generator
) -> np.ndarray:
    """One context vector, elementwise scale * |N(0,1)| + offset, rescaled
    onto the context norm ball."""
    return cap_norm(
        _half_normal(rng, recipe.context_scale, recipe.context_offset, (bounds.dim,)),
        bounds.B_x,
    )


# --- serialization -------------------------------------------------------

_INF = math.inf
_EPISODE_COLUMNS = [
    "trial", "t", "h", "s1", "s2", "bid", "hob", "won", "payment", "conversions",
]


# The file tokens of states and positions are spelled in these four
# functions only, and only readers and writers of files call them.


def theta_token(i: int) -> str:
    """File token of theta row i."""
    return ("NATURAL_DEMAND", "FIRST_EXPOSURE")[i] if i < 2 else f"LAG{i - 1}"


def delay_token(k: int) -> str:
    """File token of delay entry k."""
    return "NEVER" if k == 0 else f"LAG{k}"


def _state_tokens(s: ExposureState) -> tuple[str, str]:
    s2 = {NEVER_BEFORE: "NEVERBEFORE", ONLY_ONE: "ONLYONE"}.get(s.s2, str(s.s2))
    return ("NEVER" if s.s1 == NEVER else str(s.s1)), s2


@functools.lru_cache(maxsize=256)
def _parse_state(s1: str, s2: str) -> ExposureState:
    def lag(token: str) -> int:
        value = int(token)
        if value < 1:
            raise ValueError(f"a lag token must be a positive integer, got {token!r}")
        return value

    named = {"NEVERBEFORE": NEVER_BEFORE, "ONLYONE": ONLY_ONE}
    return ExposureState(
        NEVER if s1 == "NEVER" else lag(s1), named[s2] if s2 in named else lag(s2)
    )


def write_episode_csv(
    path, episodes: Iterable[tuple[int, EpisodeLog]], append: bool = False
) -> None:
    """Write (trial, episode) pairs in the flat round-per-line schema; with
    `append`, add them to the end of the file, without the header."""
    with open(path, "a" if append else "w", newline="") as f:
        w = csv.writer(f)
        if not append:
            w.writerow(_EPISODE_COLUMNS)
        for trial, ep in episodes:
            for r in ep.records:
                w.writerow(
                    [
                        trial,
                        r.t,
                        r.h,
                        *_state_tokens(r.state),
                        repr(r.bid),
                        repr(r.hob),
                        int(r.won),
                        repr(r.payment),
                        r.conversions,
                    ]
                )


def read_episode_csv(
    path, contexts: dict[tuple[int, int], np.ndarray], H: int
) -> Iterator[tuple[int, EpisodeLog]]:
    """Parse an episode CSV back into logs of H rounds, joining contexts by
    (trial, t).  Every row must be a second-price round: won exactly when
    bid >= HOB (a bid may be inf), paying the HOB when won and 0.0 when
    lost.  Violations raise ValueError with the offending line
    number, an episode's own with the line it starts at.  An episode's
    length is checked before its state chain, whose table grows with it.
    Once one episode has passed, a reachable state is read as the state
    table's own object."""
    states: dict[tuple[str, str], ExposureState] = {}  # tokens -> state_table(H)'s state
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != _EPISODE_COLUMNS:
            raise ValueError(f"line 1: expected header {_EPISODE_COLUMNS}")
        current, trial, t, start = [], None, None, 2  # the episode read, its key, its first line

        def finish() -> tuple[int, EpisodeLog]:
            try:
                x = contexts.get((trial, t))
                if x is None:
                    raise ValueError(f"no context recorded for trial {trial}, t {t}")
                if len(current) != H:
                    raise ValueError(f"expected {H} rounds, got {len(current)}")
                log = EpisodeLog(t, x, current)
            except ValueError as exc:
                raise ValueError(f"line {start}: {exc}") from None
            if not states:
                states.update((_state_tokens(s), s) for s in state_table(H).states)
            return trial, log

        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(_EPISODE_COLUMNS):
                raise ValueError(f"line {lineno}: expected {len(_EPISODE_COLUMNS)} fields")
            try:
                row_trial, row_t, h = int(row[0]), int(row[1]), int(row[2])
                state = states.get((row[3], row[4])) or _parse_state(row[3], row[4])
                bid, hob, pay, y = float(row[5]), float(row[6]), float(row[8]), int(row[9])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            won = row[7] == "1"
            if not (0 <= bid and 0 < hob < _INF and y >= 0 and (won or row[7] == "0")
                    and won == (bid >= hob) and pay == (hob if won else 0.0)):
                raise ValueError(f"line {lineno}: need bid >= 0, finite HOB > 0, won 0 or"
                                 f" 1, conversions >= 0, and a second-price round (won"
                                 f" when bid >= HOB, paying the HOB, else 0): {row[5:]}")
            if row_t != t or row_trial != trial:
                if current:
                    yield finish()
                current, trial, t, start = [], row_trial, row_t, lineno
            current.append(RoundRecord(t, h, state, bid, hob, won, pay, y))
        if current:
            yield finish()


def write_context_csv(
    path, rows: Iterable[tuple[int, int, np.ndarray]], append: bool = False
) -> None:
    """Write (trial, t, context) rows; column count follows the dimension.
    With `append`, add them to the end of the file, without the header."""
    rows = list(rows)
    with open(path, "a" if append else "w", newline="") as f:
        w = csv.writer(f)
        if not append:
            dim = len(rows[0][2]) if rows else 0
            w.writerow(["trial", "t"] + [f"x{i}" for i in range(dim)])
        for trial, t, x in rows:
            w.writerow([trial, t] + [repr(float(v)) for v in x])


def read_context_csv(path, dim: int) -> dict[tuple[int, int], np.ndarray]:
    """Parse one finite context of `dim` entries per (trial, t)."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or header[:2] != ["trial", "t"]:
            raise ValueError("line 1: expected header trial,t,x0,...")
        out: dict[tuple[int, int], np.ndarray] = {}
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(f"line {lineno}: expected {len(header)} fields")
            try:
                if len(row) != dim + 2:
                    raise ValueError(f"expected {dim} x-columns, got {len(row) - 2}")
                key, x = (int(row[0]), int(row[1])), [float(v) for v in row[2:]]
                if key in out:
                    raise ValueError(f"a second context of trial {key[0]}, t {key[1]}")
                if not all(map(math.isfinite, x)):
                    raise ValueError(f"contexts must be finite, got {row[2:]}")
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            out[key] = np.array(x)
        return out


def instance_to_dict(m: TrueModel, a: AuctionModel) -> dict:
    return {
        "theta": {theta_token(i): row.tolist() for i, row in enumerate(m.theta)},
        "delay": {delay_token(k): d for k, d in enumerate(m.delay.tolist())},
        "beta": a.beta.tolist(),
        "sigma": a.sigma.tolist(),
    }


def instance_from_dict(d: dict, H: int) -> tuple[TrueModel, AuctionModel]:
    theta = np.array([d["theta"][theta_token(i)] for i in range(H + 1)], dtype=float)
    delay = np.array([d["delay"][delay_token(k)] for k in range(H)], dtype=float)
    return (
        TrueModel(theta=theta, delay=delay),
        AuctionModel(beta=np.array(d["beta"], dtype=float),
                     sigma=np.array(d["sigma"], dtype=float)),
    )
