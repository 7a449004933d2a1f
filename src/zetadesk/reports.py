"""The one result table and its formatter.

Every result in the package, from the grid scans (ratio scans, trend
tables, divisor ratios) to each CLI command, is one Table: named
columns destined for CSV or JSON, plus a few statistics and any
top-level JSON extras. A table is held as columns, one per name: numpy
arrays for numeric columns, short lists for string, complex or bool
cells. Rows are a derived view and are only built as Python tuples on
access. A scan returns its Table, and a CLI handler returns either that
Table or one of its own.

Every table, in the CLI and in the scripts, is rendered here. A CSV
table whose columns are all integer or float arrays goes through a
numpy kernel, KERNEL_ROWS rows at a time: each cell is written into a
matrix of zero-padded bytes, the separators are added, and one
bytes.translate drops the padding. Integers print as str(int) would,
four digits per table lookup. A float prints as %.17g would: its 17
digits are the exact round-half-even of |x| * 10^(16-d), formed with
Dekker's error-free product, for every cell in fixed notation (decimal
exponent d in [-4, 16]). Zeros, inf, nan and exponent-form cells,
subnormals among them, are written by format_float into the same
matrix. Every other table (JSON, and CSV with string, complex or bool
columns) uses a row template built from the column kinds (integers as
%d would print, floats as %.17g in CSV and as repr in JSON, anything
else as a pre-rendered cell), applied to fixed chunks of rows. Neither
path ever holds per-row Python tuples of the whole table.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

# Rows rendered per template pass; a constant so output never depends
# on anything but the table.
CHUNK_ROWS = 1 << 16


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def format_complex(z: complex) -> str:
    sign = "-" if z.imag < 0 else "+"
    return f"{format_float(z.real)}{sign}{format_float(abs(z.imag))}i"


def csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, complex):
        return format_complex(value)
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
    return str(value)


def json_value(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, complex):
        return format_complex(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        # JSON has no literal for non-finite numbers; keep output parseable
        return value if math.isfinite(value) else str(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return [json_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): json_value(v) for k, v in value.items()}
    return str(value)


def column_from_values(values) -> np.ndarray | list:
    """One column from Python cells: an int64 or float64 array when
    every cell is a (non-bool) integer or every cell is a float, else
    the list itself, rendered cell by cell."""
    values = list(values)
    if values and all(isinstance(v, (int, np.integer))
                      and not isinstance(v, (bool, np.bool_)) for v in values):
        return np.array(values, dtype=np.int64)
    if values and all(isinstance(v, (float, np.floating)) for v in values):
        return np.array(values, dtype=np.float64)
    return values


def _plain(column, lo: int, hi: int) -> list:
    part = column[lo:hi]
    return part.tolist() if isinstance(part, np.ndarray) else list(part)


class RowView(Sequence):
    """Read-only rows of a columnar table, built as tuples on access."""

    def __init__(self, data: tuple):
        self._data = data

    def __len__(self) -> int:
        return len(self._data[0]) if self._data else 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        i = range(len(self))[i]
        return tuple(_plain(c, i, i + 1)[0] for c in self._data)

    def __iter__(self):
        for lo in range(0, len(self), CHUNK_ROWS):
            yield from zip(*(_plain(c, lo, lo + CHUNK_ROWS) for c in self._data))


@dataclass(frozen=True, eq=False)
class Table:
    """A result table held as columns: data has one numpy array
    (numeric) or list (other cells) per name in columns, all of one
    length. stats only appear in JSON, never in CSV; extra lands at the
    top level of the JSON body (the zeros command promises a top-level
    count there)."""

    columns: tuple
    data: tuple
    stats: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "data", tuple(self.data))
        if len(self.data) != len(self.columns):
            raise ValueError(f"{len(self.data)} data columns for "
                             f"{len(self.columns)} names")
        if len({len(c) for c in self.data}) > 1:
            raise ValueError("table columns differ in length")

    @classmethod
    def from_rows(cls, columns, rows, stats=None, extra=None) -> Table:
        """A Table from a short list of row tuples."""
        data = tuple(column_from_values(c) for c in zip(*rows))
        return cls(columns, data, stats or {}, extra or {})

    @property
    def rows(self) -> RowView:
        return RowView(self.data)


# -- rendering ----------------------------------------------------------

def _kind(column) -> str:
    if isinstance(column, np.ndarray):
        if column.dtype.kind in "iu":
            return "int"
        if column.dtype.kind == "f":
            return "float"
    return "cell"


# Integer cells arrive as Python ints (tolist), which %s prints exactly
# as %d would, about 15% faster per row.
_CSV_SLOTS = {"int": "%s", "float": "%.17g", "cell": "%s"}
_JSON_SLOTS = {"int": "%s", "float": "%r", "cell": "%s"}


def _csv_row(kinds) -> str:
    return ",".join(_CSV_SLOTS[k] for k in kinds)


def _json_row(kinds) -> str:
    # a row sits at depth 2 of the body (body, rows), its cells at 3
    return ("    [\n      " + ",\n      ".join(_JSON_SLOTS[k] for k in kinds)
            + "\n    ]")


def _json_cell(value) -> str:
    value = json_value(value)
    if isinstance(value, (list, dict)):
        return json.dumps(value, indent=2).replace("\n", "\n      ")
    return json.dumps(value)


def _render_rows(data, row, cell, row_sep, finite_only) -> list[str]:
    """The rows of a table as rendered chunks of CHUNK_ROWS rows.

    row(kinds) builds the row template, once per table from the column
    kinds; cell(value) pre-renders the cells of "cell" columns. With
    finite_only, a float column whose chunk holds inf or nan is
    rendered through cell() for that chunk instead.
    """
    kinds = [_kind(c) for c in data]
    table_template = row(kinds)
    chunks = []
    for lo in range(0, len(data[0]) if data else 0, CHUNK_ROWS):
        hi = lo + CHUNK_ROWS
        chunk_kinds = list(kinds)
        parts = []
        for j, column in enumerate(data):
            values = _plain(column, lo, hi)
            if (finite_only and kinds[j] == "float"
                    and not np.isfinite(column[lo:hi]).all()):
                chunk_kinds[j] = "cell"
            if chunk_kinds[j] == "cell":
                values = list(map(cell, values))
            parts.append(values)
        template = (table_template if chunk_kinds == kinds
                    else row(chunk_kinds))
        chunks.append(row_sep.join(map(template.__mod__, zip(*parts))))
    return chunks


# -- the numeric CSV kernel ---------------------------------------------
#
# A block of rows is laid out as a matrix of uint32 words, each word four
# ASCII bytes in which a 0 byte is padding; one bytes.translate drops the
# padding. Words are built from uint8 rows viewed as uint32, so the byte
# order inside a word is the row's on any machine.

# Rows per kernel pass, so the temporary arrays stay small.
KERNEL_ROWS = 1 << 13

# Offsets in _digit_words() of the variants of a 4-digit word after
# the one as printed: leading zeros blanked, the same but a lone 0
# kept, trailing zeros blanked.
_LEAD, _LEAD_KEEP, _TRAIL = 10_000, 20_000, 30_000
_LF, _COMMA, _MINUS, _DOT, _ZERO = 10, 44, 45, 46, 48


@functools.cache
def _digit_words() -> np.ndarray:
    # words[variant, a, b, c, d] is the word of the group abcd
    words = np.empty((4, 10, 10, 10, 10, 4), np.uint8)
    digits = np.arange(_ZERO, _ZERO + 10, dtype=np.uint8)
    for k in range(4):
        words[..., k] = digits.reshape((10,) + (1,) * (3 - k))
    lead, keep, trail = words[1], words[2], words[3]
    for k in range(4):
        lead[(0,) * (k + 1) + (..., k)] = 0  # digits 0..k all zero
        trail[(...,) + (0,) * (4 - k) + (k,)] = 0  # digits k..3 all zero
    keep[...] = lead
    keep[0, 0, 0, 0, 3] = _ZERO
    return words.reshape(-1, 4).view(np.uint32).ravel()


@functools.cache
def _powers_of_ten():
    """10^q for q <= 22, exact doubles, with their Dekker split, and
    10^q as int64 for q <= 16."""
    power = 10.0 ** np.arange(23)
    scaled = 134217729.0 * power
    high = scaled - (scaled - power)
    return power, high, power - high, 10 ** np.arange(17, dtype=np.int64)


@functools.cache
def _glue_words() -> np.ndarray:
    """The two words between the integer and the fraction digits of a
    float: row 1 is "." (row 0 nothing) for |x| >= 1; for |x| < 1, row
    2 + 9 * z + (first digit - 1) is ".", z zeros and the first
    significant digit."""
    glue = np.zeros((2 + 4 * 9, 8), np.uint8)
    glue[1, 0] = _DOT
    for zeros in range(4):
        for digit in range(1, 10):
            word = glue[2 + 9 * zeros + digit - 1]
            word[0] = _DOT
            word[1:1 + zeros] = _ZERO
            word[1 + zeros] = _ZERO + digit
    return glue.view(np.uint32)


def _sign_words(sep: int, negative: np.ndarray) -> np.ndarray:
    """The word before each cell: its separator, then its sign."""
    words = np.array([[sep, 0, 0, 0], [sep, _MINUS, 0, 0]], np.uint8)
    return words.view(np.uint32).ravel().take(negative.view(np.uint8))


def _word_count(top) -> int:
    return max(1, -(-len(str(int(top))) // 4))


def _whole_digits(mag: np.ndarray, out: np.ndarray) -> None:
    """Non-negative integers into the words of out, most significant
    first, with leading zeros blanked and 0 printed as 0."""
    table, kind = _digit_words(), mag.dtype.type
    last = out.shape[1] - 1
    for g in range(last, 0, -1):
        rest = mag // 10_000
        v = mag - rest * 10_000
        v += (rest == 0) * kind(_LEAD_KEEP if g == last else _LEAD)
        out[:, g] = table.take(v)
        mag = rest
    out[:, 0] = table.take(mag + kind(_LEAD_KEEP if last == 0 else _LEAD))


def _fraction_digits(mag: np.ndarray, out: np.ndarray) -> None:
    """Integers below 10^16 into four words, all 16 digits, with
    trailing zeros blanked (0 prints nothing)."""
    table = _digit_words()
    below_zero = np.ones(len(mag), bool)
    for g in range(3, 0, -1):
        rest = mag // 10_000
        v = mag - rest * 10_000
        out[:, g] = table.take(v + below_zero * np.int64(_TRAIL))
        below_zero &= v == 0
        mag = rest
    out[:, 0] = table.take(mag + below_zero * np.int64(_TRAIL))


def _int_words(values: np.ndarray, sep: int) -> np.ndarray:
    if values.dtype.kind == "u":
        mag = values.astype(np.uint64, copy=False)
        negative = np.zeros(len(values), bool)
    else:
        values = values.astype(np.int64, copy=False)
        negative = values < 0
        mag = values.astype(np.uint64)
        np.negative(mag, out=mag, where=negative)  # wraps, so int64 min too
    out = np.empty((len(values), 1 + _word_count(mag.max())), np.uint32)
    out[:, 0] = _sign_words(sep, negative)
    _whole_digits(mag, out[:, 1:])
    return out


def _seventeen_digits(a: np.ndarray, d: np.ndarray):
    """N = round-half-even(a * 10^(16 - d)), exact, for a > 0 and
    q = 16 - d in [0, 22], where 10^q is an exact double: Dekker's
    TwoProduct splits a * 10^q into p + e exactly, p is an even integer
    wherever p >= 10^16 > 2^53, so N = p + rint(e). Also the step that
    puts d right: -1 where a * 10^q < 10^16, +1 where N >= 10^17."""
    power, high, low, _ = _powers_of_ten()
    q = 16 - d
    b, bh, bl = power[q], high[q], low[q]
    p = a * b
    scaled = 134217729.0 * a
    ah = scaled - (scaled - a)
    al = a - ah
    e = al * bl - (((p - ah * bh) - al * bh) - ah * bl)
    n = p.astype(np.int64) + np.rint(e).astype(np.int64)
    under = (p < 1e16) | ((p == 1e16) & (e < 0))
    return n, np.where(under, -1, n >= 10**17)


def _float_words(values: np.ndarray, sep: int) -> np.ndarray:
    """%.17g of each value. The kernel prints the fixed-notation cells,
    whose decimal exponent d lies in [-4, 16]: 17 digits N of the value
    times 10^(16 - d), with the point after digit d and trailing
    fraction zeros dropped. Zeros, non-finite values and exponent-form
    cells are printed by format_float into the same words."""
    x = values.astype(np.float64, copy=False)
    a = np.abs(x)
    # the doubles from 1e-4 up to below 1e17 are the fixed-notation ones
    kernel = (a >= 1e-4) & (a < 1e17)
    a[~kernel] = 1.0
    d = np.clip(np.floor(np.log10(a)).astype(np.int64), -4, 16)
    n, step = _seventeen_digits(a, d)
    redo = np.flatnonzero(step)
    if redo.size:
        d[redo] = np.clip(d[redo] + step[redo], -4, 16)
        n[redo], step = _seventeen_digits(a[redo], d[redo])
        kernel[redo[step != 0]] = False  # log10 off by more than one
    fallback = np.flatnonzero(~kernel)
    n[fallback], d[fallback] = 10**16, 0
    power = _powers_of_ten()[3]
    shift = np.clip(d, 0, 16)
    unit = power[16 - shift]
    whole = n // unit
    fraction = (n - whole * unit) * power[shift]
    # below 1 the whole part is 0 and its one digit moves into the glue
    small = d < 0
    glue_row = np.where(small, 2 + 9 * (-1 - d) + whole - 1, fraction != 0)
    whole[small] = 0
    words = _word_count(whole.max())
    out = np.empty((len(x), 7 + words), np.uint32)
    out[:, 0] = _sign_words(sep, np.signbit(x))
    _whole_digits(whole, out[:, 1:1 + words])
    out[:, 1 + words:3 + words] = _glue_words().take(glue_row, axis=0)
    _fraction_digits(fraction, out[:, 3 + words:])
    if fallback.size:
        width = 4 * (6 + words)
        text = "".join(format_float(v).ljust(width, "\0")
                       for v in x[fallback].tolist())
        out[fallback, 0] = _sign_words(sep, np.zeros(1, bool))
        out[fallback, 1:] = np.frombuffer(text.encode("ascii"),
                                          np.uint32).reshape(-1, 6 + words)
    return out


def _numeric_csv_block(columns) -> str:
    """CSV lines, each ending in LF, of int and float columns."""
    words = [(_int_words if _kind(c) == "int" else _float_words)(
        c, _COMMA if j else 0) for j, c in enumerate(columns)]
    words.append(np.full((len(columns[0]), 1), _LF, np.uint32))
    text = np.concatenate(words, axis=1).tobytes().translate(None, b"\0")
    return text.decode("ascii")


def _numeric_csv_blocks(data):
    """The lines of a table of int and float columns, KERNEL_ROWS at a
    time."""
    for lo in range(0, len(data[0]), KERNEL_ROWS):
        yield _numeric_csv_block([c[lo:lo + KERNEL_ROWS] for c in data])


# The renderers join their pieces once: a long table's text is then
# held at most twice (its chunks and the result), never three times.

def render_csv(table: Table) -> str:
    """Header line, then one LF-terminated line per row. A table of int
    and float columns only is rendered by the numeric kernel."""
    head = ",".join(table.columns)
    if table.data and all(_kind(c) != "cell" for c in table.data):
        return "".join([head, "\n", *_numeric_csv_blocks(table.data)])
    chunks = _render_rows(table.data, _csv_row, csv_cell, "\n", False)
    return "\n".join([head, *chunks, ""])


def render_json(table: Table, head: dict) -> str:
    """What json.dumps(body, indent=2) + "\n" prints, where body holds
    the members of head (the CLI's command and params), then the
    table's extra, columns, rows and stats, with every value made
    JSON-ready and the rows rendered from the columns."""
    pieces = ["{\n"]
    for key, value in {**head, **table.extra}.items():
        pieces += [_json_member(key, json_value(value)), ",\n"]
    pieces += [_json_member("columns", list(table.columns)), ",\n"]
    chunks = _render_rows(table.data, _json_row, _json_cell, ",\n", True)
    if chunks:
        pieces.append('  "rows": [\n')
        for chunk in chunks:
            pieces += [chunk, ",\n"]
        pieces[-1] = "\n  ]"
    else:
        pieces.append('  "rows": []')
    pieces += [",\n", _json_member("stats", json_value(table.stats))]
    pieces.append("\n}\n")
    return "".join(pieces)


def _json_member(key: str, value) -> str:
    # a member's value sits at depth 1 of the body
    text = json.dumps(value, indent=2).replace("\n", "\n  ")
    return f"  {json.dumps(key)}: {text}"


# -- grids ---------------------------------------------------------------

def geometric_grid(n_max: int, start: int = 1) -> np.ndarray:
    """Integer grid of ratio 1.25 from start, deduplicated, capped at n_max.

    The endpoint n_max is always included so trend statements about
    "the last row" refer to the requested bound itself.
    """
    if n_max < start:
        raise ValueError("grid bound below grid start")
    points = []
    value = float(start)
    while value <= n_max:
        points.append(int(value))
        value *= 1.25
        if value - points[-1] < 1.0:
            value = points[-1] + 1.0
    points.append(n_max)
    return np.unique(np.asarray(points, dtype=np.int64))
