"""The one result table and its formatter.

Every result in the package, from the grid scans (ratio scans, trend
tables, divisor ratios) to each CLI command, is one Table: named
columns destined for CSV or JSON, plus a few statistics and any
top-level JSON extras. A table is held as columns, one per name: numpy
arrays for numeric columns, short lists for string, complex or bool
cells. Rows are a derived view and are only built as Python tuples on
access. A scan returns its Table, and a CLI handler returns either that
Table or one of its own.

Every table, in the CLI and in the scripts, is rendered here. A row
template is built from the column kinds (integer arrays print as %d
would, floats as %.17g in CSV and as repr in JSON, anything else as a
pre-rendered cell) and applied to fixed chunks of rows, so no per-row
Python tuples of the whole table are ever held at once.
"""

from __future__ import annotations

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


# The renderers join their pieces once: a long table's text is then
# held at most twice (its chunks and the result), never three times.

def render_csv(table: Table) -> str:
    """Header line, then one LF-terminated line per row."""
    chunks = _render_rows(table.data, _csv_row, csv_cell, "\n", False)
    return "\n".join([",".join(table.columns), *chunks, ""])


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
