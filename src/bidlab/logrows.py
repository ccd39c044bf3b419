"""The rows of the episode and context logs: the episode log's columns,
the file tokens of exposure states, and blocks of lines converted into
checked rows.  A block is converted in one call to numpy's C text reader
(`np.loadtxt`, with csv's quoting and no comments) and checked as arrays.
Where numpy's reader cannot take a block, or one of its rows fails a
check, the lines are read again one at a time, by csv and Python's int()
and float(), to find the first bad line and give its message as a
row-by-row reading gives it."""

from __future__ import annotations

import csv
import functools
import math

import numpy as np

from .model import NEVER, NEVER_BEFORE, ONLY_ONE, ExposureState

EPISODE_COLUMNS = [
    "trial", "t", "h", "s1", "s2", "bid", "hob", "won", "payment", "conversions",
]


def state_tokens(s: ExposureState) -> tuple[str, str]:
    """The file tokens of a state's s1 and s2."""
    s2 = {NEVER_BEFORE: "NEVERBEFORE", ONLY_ONE: "ONLYONE"}.get(s.s2, str(s.s2))
    return ("NEVER" if s.s1 == NEVER else str(s.s1)), s2


@functools.lru_cache(maxsize=256)
def parse_state(s1: str, s2: str) -> ExposureState:
    """The state of the file tokens s1 and s2, or a ValueError."""

    def lag(token: str) -> int:
        value = int(token)
        if not 1 <= value < 2**63:
            raise ValueError(f"a lag token must be a positive 64-bit integer, got {token!r}")
        return value

    named = {"NEVERBEFORE": NEVER_BEFORE, "ONLYONE": ONLY_ONE}
    return ExposureState(
        NEVER if s1 == "NEVER" else lag(s1), named[s2] if s2 in named else lag(s2)
    )


# numpy's reading of an episode row: the state tokens and `won` as text,
# wider than any spelling `_state_token_table` maps, so a cut token is one
# it does not map
_EPISODE_FIELDS = np.dtype([
    ("trial", np.int64), ("t", np.int64), ("h", np.int64), ("s1", "S12"), ("s2", "S12"),
    ("bid", float), ("hob", float), ("won", "S2"), ("payment", float),
    ("conversions", np.int64),
])
# a checked episode row: its line number, key, round label, state and round
EPISODE_ROW = np.dtype([
    ("line", np.int64), ("trial", np.int64), ("t", np.int64), ("h", np.int64),
    ("s1", np.int64), ("s2", np.int64), ("bid", float), ("hob", float), ("won", bool),
    ("conversions", np.int64),
])
# NUL, which numpy drops from the end of a string, and the separators
# \x1c-\x1f, which it strips from numbers as space and Python does not
_NOT_PLAIN = "\0\x1c\x1d\x1e\x1f"


def _load(lines: list[str], dtype: np.dtype) -> np.ndarray | None:
    """`lines` as rows of `dtype`, read by numpy's C text reader with csv's
    quoting; None unless it reads each line as one row and every field as
    Python's int() and float() do.  The text must then be ASCII without
    `_NOT_PLAIN` (numpy reads some other characters as digits)."""
    if not lines:
        return np.empty(0, dtype)
    text = "".join(lines)
    if not text.isascii() or any(c in text for c in _NOT_PLAIN) or text.isspace():
        return None  # numpy warns of, and skips, lines of no data
    try:
        rows = np.loadtxt(lines, dtype, delimiter=",", comments=None, quotechar='"', ndmin=1)
    except ValueError:
        return None
    return rows if len(rows) == len(lines) else None


def row_error(line: str, lineno: int, check) -> ValueError:
    """The error of a line the readers reject: `check`'s on the fields csv
    reads from it, else that numpy's reader cannot read it (a digit group
    '1_0', a non-ASCII digit or space, a trial number or a context's
    customer number beyond 64 bits, a quote left open at the line's end)."""
    row = next(csv.reader([line]), [])
    try:
        check(row)
    except ValueError as exc:
        return ValueError(f"line {lineno}: {exc}")
    return ValueError(f"line {lineno}: numpy's text reader cannot read {row}")


def read_block(
    lines: list[str], lineno: int, dtype: np.dtype, check
) -> tuple[np.ndarray, ValueError | None]:
    """numpy's reading of `lines` (the first numbered `lineno`), up to the
    first line it cannot read alone or whose quote it leaves open, and that
    line's error (None if there is none)."""
    fields = _load(lines, dtype)
    if fields is not None:
        return fields, None
    for k, line in enumerate(lines):
        if (_load([line], dtype) is None
                or any("\n" in v or "\r" in v for v in next(csv.reader([line]), []))):
            return _load(lines[:k], dtype), row_error(line, lineno + k, check)
    # not reached: numpy reads a block of lines it reads alone that leave no quote open
    raise ValueError(f"line {lineno}: numpy's text reader cannot read lines {lineno}"
                     f" to {lineno + len(lines) - 1}")


def _check_episode_row(row: list[str]) -> ExposureState:
    """The per-row checks of the episode reader on one row's fields as csv
    reads them, converted by Python's int() and float(): the row's state,
    or a ValueError without the line number."""
    if len(row) != len(EPISODE_COLUMNS):
        raise ValueError(f"expected {len(EPISODE_COLUMNS)} fields")
    int(row[0])
    t, h = int(row[1]), int(row[2])
    if not (0 < t < 2**63 and 0 < h < 2**63):
        raise ValueError(f"t and h must be positive 64-bit integers, got {row[1:3]}")
    state = parse_state(row[3], row[4])
    bid, hob, pay, y = float(row[5]), float(row[6]), float(row[8]), int(row[9])
    won = row[7] == "1"
    if not (0 <= bid and 0 < hob < math.inf and 0 <= y < 2**63
            and (won or row[7] == "0")
            and won == (bid >= hob) and pay == (hob if won else 0.0)):
        raise ValueError(f"need bid >= 0, finite HOB > 0, won 0 or 1, conversions in"
                         f" [0, 2**63), and a second-price round (won when bid >= HOB,"
                         f" paying the HOB, else 0): {row[5:]}")
    return state


@functools.lru_cache(maxsize=16)
def _state_token_table(H: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The tokens of s1 and of s2 as `state_tokens` spells them, lags 1..H
    included, each sorted with its values."""
    lags = {str(k): k for k in range(1, H + 1)}
    tables = []
    for named in ({"NEVER": NEVER}, {"NEVERBEFORE": NEVER_BEFORE, "ONLYONE": ONLY_ONE}):
        tokens, values = zip(*sorted({**named, **lags}.items()))
        tables.append((np.array([k.encode() for k in tokens], dtype=_EPISODE_FIELDS["s1"]),
                       np.array(values)))
    return tuple(tables)


def episode_rows(
    lines: list[str], lineno: int, H: int
) -> tuple[np.ndarray, ValueError | None]:
    """The checked rows of `lines` (the first numbered `lineno`) up to the
    first that fails a per-row check, and that row's error (None if there
    is none).  The checks run as arrays; a state spelled otherwise than
    `state_tokens` spells it, or that is no `ExposureState`, is read by
    `_check_episode_row`."""
    fields, error = read_block(lines, lineno, _EPISODE_FIELDS, _check_episode_row)
    rows = np.empty(len(fields), EPISODE_ROW)
    rows["line"] = np.arange(lineno, lineno + len(fields))
    for name in ("trial", "t", "h", "bid", "hob", "conversions"):
        rows[name] = fields[name]
    known = True
    for name, (tokens, values) in zip(("s1", "s2"), _state_token_table(H)):
        i = np.searchsorted(tokens, fields[name]).clip(max=len(tokens) - 1)
        rows[name] = values[i]
        known = known & (tokens[i] == fields[name])
    known &= (rows["s1"] == NEVER) == (rows["s2"] == NEVER_BEFORE)  # an ExposureState
    won = rows["won"] = fields["won"] == b"1"
    bid, hob = rows["bid"], rows["hob"]
    ok = ((rows["t"] > 0) & (rows["h"] > 0) & (0 <= bid) & (0 < hob) & (hob < math.inf)
          & (rows["conversions"] >= 0) & (won | (fields["won"] == b"0"))
          & (won == (bid >= hob)) & (fields["payment"] == np.where(won, hob, 0.0)))
    for k in np.flatnonzero(ok & ~known).tolist():
        try:
            state = _check_episode_row(next(csv.reader([lines[k]])))
        except ValueError:
            ok[k] = False
        else:
            rows["s1"][k], rows["s2"][k] = state.s1, state.s2
    bad = np.flatnonzero(~ok)
    if len(bad):
        k = int(bad[0])
        return rows[:k], row_error(lines[k], lineno + k, _check_episode_row)
    return rows, error
