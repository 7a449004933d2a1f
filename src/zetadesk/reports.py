"""The one result table and its formatter.

Every result in the package, from the grid scans (ratio scans, trend
tables, divisor ratios) to each CLI command, is one Table: named
columns destined for CSV or JSON, plus a few statistics and any
top-level JSON extras. A table is held as columns, one per name, each
of the type its producer gave: numpy arrays from the scans, lists of
Python cells from the handlers that build a few rows. Table.rows builds
the rows as Python tuples on each read; the renderer never does. A scan
returns its Table, and a CLI handler returns either that Table or one
of its own.

Every table, in the CLI and in the library, is rendered here, as a
stream of text blocks of at most KERNEL_ROWS rows each (csv_blocks,
json_blocks), so a caller can write each block to its sink as it comes
and never hold the whole text; render_csv and render_json join the
blocks into one string. Both formats walk the blocks in one loop, and
each supplies the function that turns a block's column slices into its
text. A table is rendered by the types of its columns, one rule for
every table: a CSV table whose columns are all integer or float arrays goes through
the numpy kernel of csv_kernel.py, which prints every cell byte for
byte as str(int) and %.17g would. Any other CSV table prints every
cell through csv_cell, which gives the same bytes for an int or a
float, so a table that mixes arrays and lists (no command returns one)
prints as the kernel would. In JSON an integer array's cells print
through str, a float array's through repr when the block's slice is
all finite, and every other cell through json_value and json.dumps,
which give the same bytes for a Python int or finite float. No path
ever holds per-row Python tuples of the whole table.

This module imports numpy only on the paths that hold arrays (the
kernel, the finite check of a float column and geometric_grid) and
json only for JSON, so a table built from rows is built and rendered
as CSV without either.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Iterator

# Rows per rendered block, in CSV and JSON alike, so temporary arrays
# and block text stay small; a constant so output never depends on
# anything but the table.
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


def _plain(part) -> list:
    """A column, or a slice of one, as Python cells."""
    return list(part) if isinstance(part, (list, tuple)) else part.tolist()


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

    def __len__(self) -> int:
        return len(self.data[0]) if self.data else 0

    @property
    def rows(self) -> list:
        """The rows as tuples of Python cells, built on each read."""
        return list(zip(*map(_plain, self.data)))


# -- rendering ----------------------------------------------------------

def _kind(column) -> str:
    if isinstance(column, (list, tuple)):
        return "cell"
    if column.dtype.kind in "iu":
        return "int"
    if column.dtype.kind == "f":
        return "float"
    return "cell"


def _json_cell(dumps, value) -> str:
    value = json_value(value)
    if isinstance(value, (list, dict)):
        return dumps(value, indent=2).replace("\n", "\n      ")
    return dumps(value)


def _json_block(dumps, part) -> str:
    """The JSON rows of one block from its column slices. An int
    array's cells print through str and a float array's through repr
    when its slice is all finite; every other cell, inf and nan among
    them, prints through _json_cell."""
    cells = []
    for column in part:
        kind = _kind(column)
        if kind == "int" or (kind == "float" and _all_finite(column)):
            cells.append(map(str if kind == "int" else repr, column.tolist()))
        else:
            cells.append([_json_cell(dumps, v) for v in _plain(column)])
    # a row sits at depth 2 of the body (body, rows), its cells at 3
    rows = map(",\n      ".join, zip(*cells))
    return "    [\n      " + "\n    ],\n    [\n      ".join(rows) + "\n    ]"


def _all_finite(array) -> bool:
    import numpy as np

    return bool(np.isfinite(array).all())


# The block generators yield the text a piece at a time: the head, each
# block of rows as soon as it is rendered, then the tail. A caller that
# writes each piece before asking for the next holds one block of text.

def _blocks(table: Table, render) -> Iterator[str]:
    """render(column slices) of each block of KERNEL_ROWS rows."""
    for lo in range(0, len(table), KERNEL_ROWS):
        yield render([c[lo:lo + KERNEL_ROWS] for c in table.data])


def _csv_cells_block(part) -> str:
    cells = [map(csv_cell, _plain(p)) for p in part]
    return "\n".join(map(",".join, zip(*cells))) + "\n"


def csv_blocks(table: Table) -> Iterator[str]:
    """Header line, then one LF-terminated line per row. A table of int
    and float arrays only is printed by the numeric kernel, any other
    table cell by cell through csv_cell."""
    yield ",".join(table.columns) + "\n"
    if all(_kind(c) != "cell" for c in table.data):
        from .csv_kernel import numeric_csv_block

        yield from _blocks(table, numeric_csv_block)
    else:
        yield from _blocks(table, _csv_cells_block)


def json_blocks(table: Table, head: dict) -> Iterator[str]:
    """What json.dumps(body, indent=2) + "\n" prints, where body holds
    the members of head (the CLI's command and params), then the
    table's extra, columns, rows and stats, with every value made
    JSON-ready and the rows rendered from the columns."""
    from json import dumps

    members = [_json_member(dumps, key, json_value(value))
               for key, value in {**head, **table.extra}.items()]
    members.append(_json_member(dumps, "columns", list(table.columns)))
    yield "{\n" + ",\n".join(members) + ",\n"
    blocks = _blocks(table, lambda part: _json_block(dumps, part))
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
