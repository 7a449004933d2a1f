"""The one result table and its formatter.

Every result in the package, from the grid scans (ratio scans, trend
tables, divisor ratios) to each CLI command, is one Table: named
columns destined for CSV or JSON, plus a few statistics and any
top-level JSON extras. A table is held as columns, one per name, each
of the type its producer gave: numpy arrays from the scans, lists of
Python cells from the handlers that build a few rows. Rows are a
derived view and are only built as Python tuples on access. A scan
returns its Table, and a CLI handler returns either that Table or one
of its own.

Every table, in the CLI and in the library, is rendered here, as a
stream of text blocks of at most KERNEL_ROWS rows each (csv_blocks,
json_blocks), so a caller can write each block to its sink as it comes
and never hold the whole text; render_csv and render_json join the
blocks into one string. A column is rendered by its type, one rule for
every table: a CSV table whose columns are all integer or float arrays
goes through the numpy kernel of csv_kernel.py, which prints every cell
byte for byte as str(int) and %.17g would. Every other table (JSON, and
CSV with a list column) uses a row template built from the column
kinds, with list cells rendered one by one; an int prints as str(int)
and a float as %.17g in CSV and as repr in JSON, from an array or a
list alike. Neither path ever holds per-row Python tuples of the whole
table.

This module imports numpy only on the paths that hold arrays (the
kernel, the finite check of a float column and geometric_grid) and
json only for JSON, so a table built from rows is built and rendered
as CSV without either.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Iterator, Sequence

# Rows per rendered block, on the kernel and the template path alike,
# so temporary arrays and block text stay small; a constant so output
# never depends on anything but the table.
KERNEL_ROWS = 1 << 13


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def format_complex(z: complex) -> str:
    sign = "-" if z.imag < 0 else "+"
    return f"{format_float(z.real)}{sign}{format_float(abs(z.imag))}i"


def csv_cell(value) -> str:
    # Integral and Real take in numpy's integer and floating scalars
    # too (numpy registers them), without importing numpy
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, complex):
        return format_complex(value)
    if isinstance(value, numbers.Real):
        return format_float(float(value))
    return str(value)


def _is_array(value) -> bool:
    # an array exists only once numpy is loaded, so this never loads it
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, np.ndarray)


def json_value(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, complex):
        return format_complex(value)
    if isinstance(value, numbers.Real):
        value = float(value)
        # JSON has no literal for non-finite numbers; keep output parseable
        return value if math.isfinite(value) else str(value)
    if isinstance(value, (list, tuple)) or _is_array(value):
        return [json_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): json_value(v) for k, v in value.items()}
    return str(value)


def _plain(column, lo: int, hi: int) -> list:
    part = column[lo:hi]
    return list(part) if isinstance(part, (list, tuple)) else part.tolist()


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
        for lo in range(0, len(self), KERNEL_ROWS):
            yield from zip(*(_plain(c, lo, lo + KERNEL_ROWS) for c in self._data))


class Table:
    """A result table held as columns: data has one numpy array or
    list of cells per name in columns, all of one length. stats only
    appear in JSON, never in CSV; extra lands at the top level of the
    JSON body (the zeros command promises a top-level count there)."""

    __slots__ = ("columns", "data", "stats", "extra")

    def __init__(self, columns, data, stats=None, extra=None):
        self.columns = tuple(columns)
        self.data = tuple(data)
        self.stats = {} if stats is None else stats
        self.extra = {} if extra is None else extra
        if len(self.data) != len(self.columns):
            raise ValueError(f"{len(self.data)} data columns for "
                             f"{len(self.columns)} names")
        if len({len(c) for c in self.data}) > 1:
            raise ValueError("table columns differ in length")

    @classmethod
    def from_rows(cls, columns, rows, stats=None, extra=None) -> Table:
        """A Table from a short list of row tuples: each column is the
        list of cells the rows gave, rendered cell by cell; no rows give
        empty lists."""
        columns = tuple(columns)
        cells = list(zip(*rows)) or [()] * len(columns)
        return cls(columns, map(list, cells), stats, extra)

    @property
    def rows(self) -> RowView:
        return RowView(self.data)


# -- rendering ----------------------------------------------------------

def _kind(column) -> str:
    if isinstance(column, (list, tuple)):
        return "cell"
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


def _json_cell(dumps, value) -> str:
    value = json_value(value)
    if isinstance(value, (list, dict)):
        return dumps(value, indent=2).replace("\n", "\n      ")
    return dumps(value)


def _render_rows(data, row, cell, row_sep, finite_only) -> Iterator[str]:
    """The rows of a table as rendered blocks of KERNEL_ROWS rows.

    row(kinds) builds the row template, once per table from the column
    kinds; cell(value) pre-renders the cells of "cell" columns. With
    finite_only, a float column whose block holds inf or nan is
    rendered through cell() for that block instead.
    """
    kinds = [_kind(c) for c in data]
    table_template = row(kinds)
    for lo in range(0, len(data[0]) if data else 0, KERNEL_ROWS):
        hi = lo + KERNEL_ROWS
        block_kinds = list(kinds)
        parts = []
        for j, column in enumerate(data):
            values = _plain(column, lo, hi)
            if (finite_only and kinds[j] == "float"
                    and not _all_finite(column[lo:hi])):
                block_kinds[j] = "cell"
            if block_kinds[j] == "cell":
                values = list(map(cell, values))
            parts.append(values)
        template = (table_template if block_kinds == kinds
                    else row(block_kinds))
        yield row_sep.join(map(template.__mod__, zip(*parts)))


def _all_finite(array) -> bool:
    import numpy as np

    return bool(np.isfinite(array).all())


# The block generators yield the text a piece at a time: the head, each
# block of rows as soon as it is rendered, then the tail. A caller that
# writes each piece before asking for the next holds one block of text.

def csv_blocks(table: Table) -> Iterator[str]:
    """Header line, then one LF-terminated line per row. A table of int
    and float columns only is rendered by the numeric kernel."""
    yield ",".join(table.columns) + "\n"
    if table.data and all(_kind(c) != "cell" for c in table.data):
        from .csv_kernel import numeric_csv_blocks

        yield from numeric_csv_blocks(table.data)
        return
    for block in _render_rows(table.data, _csv_row, csv_cell, "\n", False):
        yield block + "\n"


def json_blocks(table: Table, head: dict) -> Iterator[str]:
    """What json.dumps(body, indent=2) + "\n" prints, where body holds
    the members of head (the CLI's command and params), then the
    table's extra, columns, rows and stats, with every value made
    JSON-ready and the rows rendered from the columns."""
    from functools import partial
    from json import dumps

    members = [_json_member(dumps, key, json_value(value))
               for key, value in {**head, **table.extra}.items()]
    members.append(_json_member(dumps, "columns", list(table.columns)))
    yield "{\n" + ",\n".join(members) + ",\n"
    blocks = _render_rows(table.data, _json_row, partial(_json_cell, dumps),
                          ",\n", True)
    first = next(blocks, None)
    if first is None:
        yield '  "rows": []'
    else:
        yield '  "rows": [\n' + first
        for block in blocks:
            yield ",\n" + block
        yield "\n  ]"
    stats = _json_member(dumps, "stats", json_value(table.stats))
    yield ",\n" + stats + "\n}\n"


def render_csv(table: Table) -> str:
    """The whole of csv_blocks(table) as one string."""
    return "".join(csv_blocks(table))


def render_json(table: Table, head: dict) -> str:
    """The whole of json_blocks(table, head) as one string."""
    return "".join(json_blocks(table, head))


def _json_member(dumps, key: str, value) -> str:
    # a member's value sits at depth 1 of the body
    text = dumps(value, indent=2).replace("\n", "\n  ")
    return f"  {dumps(key)}: {text}"


# -- grids ---------------------------------------------------------------

def geometric_grid(n_max: int, start: int = 1):
    """Integer grid of ratio 1.25 from start, deduplicated, capped at
    n_max, as an int64 array.

    The endpoint n_max is always included so trend statements about
    "the last row" refer to the requested bound itself.
    """
    import numpy as np

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
    # sorted(set()) rather than np.unique, which loads numpy.ma
    return np.array(sorted(set(points)), dtype=np.int64)
