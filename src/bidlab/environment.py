"""Stochastic simulator: lognormal HOB draws, Poisson conversions,
second-price episodes played from a bid per state id, and random problem
instances drawn from a shifted half-normal recipe.

Randomness is organized as keyed sub-streams derived from a single root seed
so that identical seeds reproduce experiments bit-exactly and policies cannot
perturb each other's noise.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .logrows import (
    EPISODE_COLUMNS,
    EPISODE_ROW,
    episode_rows,
    read_block,
    row_error,
    state_tokens,
)
from .model import (
    AuctionModel,
    Bounds,
    TrueModel,
    cap_norm,
    conversion_mean,
    delay_index,
    lose_index,
    state_table,
    win_index,
)

__all__ = [
    "RandomSource",
    "InstanceRecipe",
    "BENCHMARK_RECIPE",
    "Episodes",
    "Z_MAX",
    "POISSON_RATE_MAX",
    "draw_hobs",
    "sample_conversions",
    "run_episode",
    "generate_instance",
    "sample_context",
    "write_episode_csv",
    "read_episode_csv",
    "write_context_csv",
    "read_context_rows",
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


@dataclass(slots=True)
class Episodes:
    """A block of customers' H-round episodes as arrays, one row per
    customer: its number `t` (n,), its context `x` (n, dim), the state id
    of `state_table(H)` each round starts in, `ids` (n, H+1; column H is
    the end), and per round (n, H) the `bid` played, the realized `hob`
    (full-information feedback), `won` and the `conversions`.
    `episodes[a:b]` holds its customers a..b-1, and `episodes[a:b] = block`
    writes them."""

    t: np.ndarray
    x: np.ndarray
    ids: np.ndarray
    bid: np.ndarray
    hob: np.ndarray
    won: np.ndarray
    conversions: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, rows: slice) -> "Episodes":
        return Episodes(*(getattr(self, name)[rows] for name in self.__slots__))

    def __setitem__(self, rows: slice, block: "Episodes") -> None:
        for name in self.__slots__:
            getattr(self, name)[rows] = getattr(block, name)

    @property
    def payment(self) -> np.ndarray:
        """Each round's second-price payment: the HOB when won, else 0.0."""
        return np.where(self.won, self.hob, 0.0)

    @property
    def realized_reward(self) -> np.ndarray:
        """Each customer's conversions minus payments, summed round by round
        from 0."""
        return sum((self.conversions - self.payment).T)


# The largest |z| numpy's ziggurat standard normal draws.  Its tail returns
# r - log1p(-U) / r for a U < 1 on a 2**-53 grid, so |z| <= r + 53 ln 2 / r,
# where r is the ziggurat's edge; every other branch returns |z| < r.
_ZIGGURAT_R = 3.6541528853610088
Z_MAX = _ZIGGURAT_R + 53 * math.log(2) / _ZIGGURAT_R
# numpy's Poisson draws no rate above 2**63 - 1 - 10 * sqrt(2**63 - 1)
POISSON_RATE_MAX = 9.2e18


def sample_conversions(rate: float, rng: np.random.Generator) -> int:
    """One Poisson conversion count at the given mean."""
    if rate < 0:
        raise ValueError("conversion rate must be nonnegative")
    return int(rng.poisson(rate))


def draw_hobs(means, rng: RandomSource, start: int) -> np.ndarray:
    """The highest other bids of customers start+1..start+n, (n, H); the
    same for every policy that plays them.  Round h of customer t is
    exp(log-mean + sd * z), z the h-th of H normals drawn at once from
    its (t, "hob") stream.  `means` holds the HOB log-means by round and
    customer (`log_hob`, (H, n)) and the log-sds by round (`sigma`), as
    `planning.batch_params` gives them.  Each HOB takes `math.exp`, since
    `np.exp` differs in the last bit."""
    H, n = np.shape(means.log_hob)
    z = np.array([rng.stream(t, "hob").standard_normal(H)
                  for t in range(start + 1, start + n + 1)])
    exponents = (means.log_hob.T + np.array(means.sigma) * z).ravel().tolist()
    return np.array(list(map(math.exp, exponents))).reshape(n, H)


def run_episode(
    bids: Sequence[float], x: np.ndarray, m: TrueModel, a: AuctionModel,
    rng: RandomSource, *, t: int, noise_label: str, hobs: Sequence[float],
) -> Episodes:
    """Play one H-round episode of second-price auctions, bidding `bids[i]`
    in the state of id i of `state_table(H)`: a round is won when the bid is
    at least the realized HOB (ties win), and the winner pays the HOB.  A bid
    of inf wins at any price and 0.0 never wins, since every HOB is > 0;
    that is how a target outcome is played (`planning.forced_bids`).  `hobs`
    holds the customer's H realized HOBs, drawn once (`draw_hobs`) and
    passed to every policy that plays it.  Conversion noise is keyed by
    (t, "conv", noise_label), round h taking the h-th draw.
    """
    H = a.beta.shape[0]
    hobs = [float(v) for v in hobs]
    if len(hobs) != H:
        raise ValueError(f"need one HOB per round, got {len(hobs)} for {H}")
    conv_rng = rng.stream(t, "conv", noise_label)
    table = state_table(H)
    ids, played, won, conversions = [0], [], [], []
    for h, hob in enumerate(hobs, start=1):
        i, bid = ids[-1], float(bids[ids[-1]])
        if not bid >= 0:
            raise ValueError(f"bid must be >= 0, got {bid} at round {h}")
        won.append(bid >= hob)
        played.append(bid)
        conversions.append(sample_conversions(
            conversion_mean(table.states[i], won[-1], x, m), conv_rng))
        ids.append(table.next_id[i][won[-1]])
    return Episodes(np.array([t]), np.asarray(x, dtype=float)[None], np.array([ids]),
                    np.array([played]), np.array([hobs]), np.array([won]),
                    np.array([conversions]))


def _play_bids(
    bids: np.ndarray, x: np.ndarray, hobs: np.ndarray, means, rng: RandomSource,
    name: str, start: int,
) -> Episodes:
    """Customers start+1..start+n, of contexts `x`, bidding `bids` ((n,
    states) bids by state id) against `hobs`, under `run_episode`'s rule
    and in its floats: a round is won when the bid is at least the HOB, the
    winner pays the HOB, and round h's conversions are the h-th draw of the
    (t, "conv", name) stream.  `means` holds the conversion means by theta
    row and customer (`mu`, (H+1, n)) and the delay factors (`delay`), as
    `planning.batch_params` gives them."""
    n, H = hobs.shape
    table, cols, delay = state_table(H), np.arange(n), np.array(means.delay)
    ids = np.zeros((n, H + 1), dtype=np.intp)  # the state id of each round
    won, rates = np.empty((n, H), dtype=bool), np.empty((n, H))
    for h in range(H):
        s1, s2 = table.s1[ids[:, h]], table.s2[ids[:, h]]
        won[:, h] = bids[cols, ids[:, h]] >= hobs[:, h]
        rates[:, h] = np.where(won[:, h], means.mu[win_index(s1), cols],
                               delay[delay_index(s1)] * means.mu[lose_index(s2), cols])
        ids[:, h + 1] = table.successors[ids[:, h], won[:, h].astype(np.intp)]
    for k, h in np.argwhere(rates < 0)[:1]:
        raise ValueError(f"customer {start + k + 1}: negative conversion rate "
                         f"{rates[k, h]} in state {table.states[ids[k, h]]}")
    conversions = []
    for t, row in enumerate(rates.tolist(), start=start + 1):
        gen = rng.stream(t, "conv", name)
        conversions.append([sample_conversions(r, gen) for r in row])
    return Episodes(np.arange(start + 1, start + n + 1), x, ids,
                    bids[cols[:, None], ids[:, :H]], hobs, won,
                    np.array(conversions, dtype=np.int64).reshape(n, H))


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

    def draw(family: str, shape: tuple[int, ...]) -> np.ndarray:
        return _half_normal(gen, getattr(recipe, f"{family}_scale"),
                            getattr(recipe, f"{family}_offset"), shape)

    theta = np.stack([cap_norm(draw("theta", (bounds.dim,)), bounds.B_theta)
                      for _ in range(bounds.H + 1)])
    delay = np.array([1.0] + [float(np.clip(draw("delay", ()), 0.0, bounds.B_d))
                              for _ in range(1, bounds.H)])
    beta = np.stack([cap_norm(draw("beta", (bounds.dim,)), bounds.B_beta)
                     for _ in range(bounds.H)])
    sigma = np.minimum(draw("sigma", (bounds.H,)), bounds.sigma_max)
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

CONTEXT_CHUNK = 512  # the lines `read_context_rows` reads at a time
WRITE_BLOCK = 512  # the customers (or context rows) a log writer joins into one write

# The file tokens of positions are spelled in these two functions only, and
# those of states in `logrows.state_tokens` and `logrows.parse_state`; only
# readers and writers of files call them.


def theta_token(i: int) -> str:
    """File token of theta row i."""
    return ("NATURAL_DEMAND", "FIRST_EXPOSURE")[i] if i < 2 else f"LAG{i - 1}"


def delay_token(k: int) -> str:
    """File token of delay entry k."""
    return "NEVER" if k == 0 else f"LAG{k}"


def write_episode_csv(
    path, blocks: Iterable[tuple[int, Episodes]], append: bool = False
) -> None:
    """Write (trial, episodes) blocks in the flat round-per-line schema,
    one write per `WRITE_BLOCK` customers; with `append`, add them to the
    end of the file, without the header."""
    with open(path, "a" if append else "w", newline="") as f:
        if not append:
            f.write(",".join(EPISODE_COLUMNS) + "\r\n")
        for trial, ep in blocks:
            H = ep.bid.shape[1]
            tokens = [",".join(state_tokens(s)) for s in state_table(H).states]
            for k in range(0, len(ep), WRITE_BLOCK):
                part = ep[k:k + WRITE_BLOCK]
                f.write("".join(  # each customer's H rounds: its end state id is not written
                    f"{trial},{t},{h},{tokens[i]},{bid!r},{hob!r},{won:d},{pay!r},{y}\r\n"
                    for t, h, i, bid, hob, won, pay, y in zip(
                        np.repeat(part.t, H).tolist(), itertools.cycle(range(1, H + 1)),
                        *(a.ravel().tolist() for a in (
                            part.ids[:, :H], part.bid, part.hob, part.won, part.payment,
                            part.conversions)))))


def read_episode_csv(
    path, contexts: Iterable[tuple[int, int, np.ndarray]], H: int, block: int
) -> Iterator[tuple[int, Episodes]]:
    """Parse an episode CSV back into (trial, episodes) blocks of at most
    `block` customers of one trial.  `contexts` yields (trial, t, x) in the
    log's customer order (`read_context_rows`); each customer takes the
    next one, which must be its own, so a block is read with its contexts
    only.  Every row must be a second-price round: won exactly when bid >=
    HOB (a bid may be inf), paying the HOB when won and 0.0 when lost.
    Violations raise ValueError with the offending line number, an
    episode's own with the line it starts at: its context, its length of
    H rounds (before any state table, which grows with it, is built), and
    its state chain and round labels, checked with its block's as arrays
    against `StateTable.successors`.

    The file is read `block` * H lines at a time (and the first line of
    the next episode), each converted by numpy's C text reader and checked
    as arrays; an episode the read cuts is carried into the next.  Errors
    are raised in the order of a row-by-row reading: a bad row before the
    previous episode's context and length, and those before its block's
    chain."""
    contexts, done = iter(contexts), []  # done: the block's (rows, contexts)

    def finish(rows: np.ndarray, bounds: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
        """The contexts of the finished episodes that start at rows
        `bounds` and have `lengths` rows, taken in order: each must be its
        episode's own, which must be H rounds long."""
        heads, xs = rows[bounds], []
        for key, start, length in zip(zip(heads["trial"].tolist(), heads["t"].tolist()),
                                      heads["line"].tolist(), lengths.tolist()):
            x = next(contexts, None)  # a damaged contexts file raises its own line
            if x is None or x[:2] != key:
                raise ValueError(f"line {start}: no context recorded for trial {key[0]}, t"
                                 f" {key[1]}" + ("" if x is None else
                                 f": the next context is of trial {x[0]}, t {x[1]}"))
            if length != H:
                raise ValueError(f"line {start}: expected {H} rounds, got {length}")
            xs.append(x[2])
        return xs

    def flush() -> Episodes:
        rows = np.concatenate([r for r, _ in done]).reshape(-1, H)
        xs = [x for _, group in done for x in group]
        done.clear()
        n, table = len(rows), state_table(H)
        won = rows["won"]
        ids = np.zeros((n, H + 1), dtype=np.intp)
        for h in range(H):
            ids[:, h + 1] = table.successors[ids[:, h], won[:, h].view(np.uint8)]
        chained = (table.s1[ids[:, :H]] == rows["s1"]) & (table.s2[ids[:, :H]] == rows["s2"])
        bad = ~chained | (rows["h"] != np.arange(1, H + 1))
        for c, k in np.argwhere(bad)[:1].tolist():
            if chained[c, k]:
                message = f"round {k + 1} is mislabelled as round {rows['h'][c, k]}"
            elif k == 0:
                message = "episodes must start from the initial state"
            else:
                message = (f"state chain broken at round {k}: expected the state "
                           f"{table.states[ids[c, k]]}")
            raise ValueError(f"line {rows['line'][c, 0]}: {message}")
        return Episodes(rows["t"][:, 0].copy(), np.array(xs, dtype=float), ids,
                        rows["bid"].copy(), rows["hob"].copy(), won.copy(),
                        rows["conversions"].copy())

    with open(path, newline="") as f:
        if next(csv.reader(f), None) != EPISODE_COLUMNS:
            raise ValueError(f"line 1: expected header {EPISODE_COLUMNS}")
        # carry: the rows of the episode the last read cut, and how many more
        # it had beyond H + 1 (it fails its length check when it ends)
        lineno, carry, extra, filled = 2, np.empty(0, EPISODE_ROW), 0, 0
        while True:
            lines = list(itertools.islice(f, max(block * H + 1 - len(carry), H)))
            ended = not lines  # the file's last episode is finished
            rows, error = episode_rows(lines, lineno, H)
            lineno += len(lines)
            del lines  # not held while the blocks are used
            rows = np.concatenate([carry, rows])
            del carry  # not a view that holds the last read's rows
            # the episodes' first rows, and the end; their trials and lengths
            bounds = np.flatnonzero((rows["trial"][1:] != rows["trial"][:-1])
                                    | (rows["t"][1:] != rows["t"][:-1])) + 1
            bounds = np.concatenate([[0], bounds, [len(rows)]]) if len(rows) else np.zeros(1, int)
            trials, lengths = rows["trial"][bounds[:-1]], np.diff(bounds)
            if len(lengths):
                lengths[0] += extra
            finished = len(trials) if ended else max(len(trials) - 1, 0)
            extra = extra if finished == 0 else 0
            while finished:  # the finished episodes, a block's share at a time
                stop = min(block - filled, finished)
                other = np.flatnonzero(trials[1:stop] != trials[0])[:1].tolist()
                stop = other[0] + 1 if other else stop
                done.append((rows[:bounds[stop]], finish(rows, bounds[:stop], lengths[:stop])))
                filled += stop
                trial, full = int(trials[0]), (filled == block or stop == len(trials)
                                               or trials[stop] != trials[0])
                # what is left: the rows, bounds, trials and lengths from episode stop on
                rows, bounds = rows[bounds[stop]:], bounds[stop:] - bounds[stop]
                trials, lengths, finished = trials[stop:], lengths[stop:], finished - stop
                if full:
                    filled, rows = 0, rows.copy()  # the yielded episodes' rows are not held
                    yield trial, flush()
            if error is not None:
                raise error
            if ended:
                return
            carry = rows
            if len(carry) > H + 1:
                extra, carry = extra + len(carry) - H - 1, carry[:H + 1]


def write_context_csv(
    path, rows: Iterable[tuple[int, int, np.ndarray]], append: bool = False
) -> None:
    """Write (trial, t, context) rows, one write per `WRITE_BLOCK` rows;
    column count follows the dimension.  With `append`, add them to the end
    of the file, without the header."""
    rows = list(rows)
    with open(path, "a" if append else "w", newline="") as f:
        if not append:
            dim = len(rows[0][2]) if rows else 0
            f.write(",".join(["trial", "t"] + [f"x{i}" for i in range(dim)]) + "\r\n")
        for k in range(0, len(rows), WRITE_BLOCK):
            f.write("".join(f"{trial},{t}" + "".join(f",{v!r}" for v in map(float, x)) + "\r\n"
                            for trial, t, x in rows[k:k + WRITE_BLOCK]))


def read_context_rows(path, dim: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """Parse a context CSV into (trial, t, x) rows, x finite of `dim`
    entries, `CONTEXT_CHUNK` lines at a time by numpy's C text reader; a
    bad row raises ValueError naming its line once the rows before it are
    taken."""
    with open(path, newline="") as f:
        header = next(csv.reader(f), None)
        if header is None or header[:2] != ["trial", "t"]:
            raise ValueError("line 1: expected header trial,t,x0,...")
        dtype = np.dtype([("trial", np.int64), ("t", np.int64), ("x", float, (len(header) - 2,))])

        def check(row: list[str]) -> None:
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} fields")
            if len(row) != dim + 2:
                raise ValueError(f"expected {dim} x-columns, got {len(row) - 2}")
            int(row[0]), int(row[1])
            if not all(map(math.isfinite, [float(v) for v in row[2:]])):
                raise ValueError(f"contexts must be finite, got {row[2:]}")

        lineno = 2
        while lines := list(itertools.islice(f, CONTEXT_CHUNK)):
            rows, error = read_block(lines, lineno, dtype, check)
            bad = np.flatnonzero(~np.isfinite(rows["x"]).all(axis=1)
                                 | (len(header) != dim + 2))
            if len(bad):
                rows, error = rows[:bad[0]], row_error(lines[bad[0]], lineno + bad[0], check)
            lineno += len(lines)
            del lines  # not held while the rows are used
            yield from zip(rows["trial"].tolist(), rows["t"].tolist(), rows["x"])
            if error is not None:
                raise error


def read_context_csv(path, dim: int) -> dict[tuple[int, int], np.ndarray]:
    """Every context of a context CSV by (trial, t), one per key."""
    out: dict[tuple[int, int], np.ndarray] = {}
    for lineno, (trial, t, x) in enumerate(read_context_rows(path, dim), start=2):
        if (trial, t) in out:
            raise ValueError(f"line {lineno}: a second context of trial {trial}, t {t}")
        out[trial, t] = x
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
