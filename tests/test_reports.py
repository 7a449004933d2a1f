"""The shared table renderer against a reference built cell by cell.

The reference formats every cell with format_float/format_complex for
CSV and lays the JSON body out with json.dumps(indent=2), which is what
the CLI printed before tables were held as columns. Row counts sit on
and around the renderer's block edge, and the float pools carry the
values whose text is easiest to get wrong: -0.0, +-inf, nan,
subnormals and +-1.7e308.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from zetadesk.reports import (KERNEL_ROWS, RowView, Table, csv_blocks,
                              format_complex, format_float, json_blocks,
                              render_csv, render_json)

# the block edge, and 2^16, the template's chunk size before every table
# was rendered in KERNEL_ROWS blocks
CHUNK_EDGE_COUNTS = [KERNEL_ROWS - 1, KERNEL_ROWS, KERNEL_ROWS + 1,
                     65535, 65536, 65537]
SPECIAL_FLOATS = [-0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310,
                  1.7e308, -1.7e308]

_finite = st.floats(allow_nan=False, allow_infinity=False)
_floats = st.one_of(_finite, st.sampled_from(SPECIAL_FLOATS))
_POOLS = {
    "int64": st.integers(-2**63, 2**63 - 1),
    "int32": st.integers(-2**31, 2**31 - 1),
    "float64": _floats,
    "bool": st.booleans(),
    "str": st.text(max_size=6),
    "complex": st.builds(complex, _floats, _floats),
}


@st.composite
def tables(draw, counts, max_columns):
    n = draw(st.sampled_from(counts))
    kinds = draw(st.lists(st.sampled_from(sorted(_POOLS)), min_size=1,
                          max_size=max_columns))
    data = []
    for kind in kinds:
        pool = draw(st.lists(_POOLS[kind], min_size=1, max_size=6))
        if kind in ("str", "complex"):
            column = [pool[i % len(pool)] for i in range(n)]
        else:
            column = np.resize(np.array(pool, dtype=kind), n)
            if kind == "float64" and n:
                # one odd value somewhere, possibly in a later chunk only
                column[draw(st.integers(0, n - 1))] = draw(_floats)
        data.append(column)
    extra = draw(st.sampled_from([{}, {"count": n}]))
    stats = {"last": draw(_floats), "note": draw(st.text(max_size=4))}
    return Table(tuple(f"c{i}" for i in range(len(data))), data, stats, extra)


def _head(out):
    return {"command": "probe", "params": {"limit": len(out.rows), "s": 0.5}}


def _plain_rows(out):
    columns = [c.tolist() if isinstance(c, np.ndarray) else c
               for c in out.data]
    return list(zip(*columns))


def _reference_csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, complex):
        return format_complex(value)
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _reference_json_value(value):
    if isinstance(value, complex):
        return format_complex(value)
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {k: _reference_json_value(v) for k, v in value.items()}
    return value


def reference_csv(out):
    lines = [",".join(out.columns)]
    lines += [",".join(map(_reference_csv_cell, row))
              for row in _plain_rows(out)]
    return "\n".join(lines) + "\n"


def reference_json(out):
    body = _reference_json_value(_head(out))
    body.update(_reference_json_value(out.extra))
    body["columns"] = list(out.columns)
    body["rows"] = [[_reference_json_value(v) for v in row]
                    for row in _plain_rows(out)]
    body["stats"] = _reference_json_value(out.stats)
    return json.dumps(body, indent=2) + "\n"


def first_mismatch(got, want):
    """None when equal, else the first differing line: a short report,
    where a plain == on megabyte strings would have pytest diff them."""
    if got == want:
        return None
    pairs = zip(got.splitlines(), want.splitlines())
    for i, (a, b) in enumerate(pairs):
        if a != b:
            return i, a, b
    return "lengths", len(got), len(want)


def check_renders(out):
    assert first_mismatch(render_csv(out), reference_csv(out)) is None
    assert first_mismatch(render_json(out, _head(out)),
                          reference_json(out)) is None


@settings(max_examples=60)
@given(tables(counts=[0, 1, 2, 3, 7], max_columns=5))
def test_renderer_matches_cell_by_cell_reference(out):
    check_renders(out)


# few examples, and no shrinking: each renders a table of up to some
# 2^16 rows four times, so a failure is reported as first found
@settings(max_examples=6, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(tables(counts=CHUNK_EDGE_COUNTS, max_columns=3))
def test_renderer_matches_reference_at_the_chunk_edge(out):
    check_renders(out)


def _streamed_table(rows, list_column):
    n = np.arange(1, rows + 1, dtype=np.int64)
    ratio = np.sin(n) * n ** 0.5
    if rows:
        # non-finite cells in the middle and the last block only
        ratio[rows // 2], ratio[-1] = -math.inf, math.nan
    data = [n, ratio]
    if list_column:
        data.append([("odd", "even")[i % 2] for i in range(rows)])
    return Table(tuple(f"c{i}" for i in range(len(data))), data,
                 {"rows": rows})


def _block_rows(blocks, row_start):
    return max(block.count(row_start) for block in blocks)


@pytest.mark.parametrize("rows", [0, 1, KERNEL_ROWS - 1, KERNEL_ROWS,
                                  KERNEL_ROWS + 1, 65537])
@pytest.mark.parametrize("list_column", [False, True],
                         ids=["numeric", "list-column"])
def test_blocks_join_to_the_whole_text_a_block_of_rows_at_a_time(
        rows, list_column):
    out = _streamed_table(rows, list_column)
    csv = list(csv_blocks(out))
    assert "".join(csv) == render_csv(out)
    assert first_mismatch("".join(csv), reference_csv(out)) is None
    assert _block_rows(csv, "\n") <= KERNEL_ROWS
    json_text = list(json_blocks(out, _head(out)))
    assert "".join(json_text) == render_json(out, _head(out))
    assert first_mismatch("".join(json_text), reference_json(out)) is None
    assert _block_rows(json_text, "    [\n") <= KERNEL_ROWS


def test_numpy_bool_column_prints_as_json_and_csv_booleans():
    out = Table(("n", "ok"), (np.arange(1, 4), np.array([True, False, True])))
    assert render_csv(out) == "n,ok\n1,true\n2,false\n3,true\n"
    assert json.loads(render_json(out, {}))["rows"] == [
        [1, True], [2, False], [3, True]]


def test_row_view_reads_rows_from_columns():
    data = (np.arange(5, dtype=np.int64), np.linspace(0.0, 1.0, 5),
            ["a", "b", "c", "d", "e"])
    rows = RowView(data)
    assert len(rows) == 5
    assert rows[0] == (0, 0.0, "a") and rows[-1] == (4, 1.0, "e")
    assert type(rows[1][0]) is int and type(rows[1][1]) is float
    assert list(rows)[2] == (2, 0.5, "c")
    assert rows[1:3] == ((1, 0.25, "b"), (2, 0.5, "c"))
    with pytest.raises(IndexError):
        rows[5]


def test_from_rows_keeps_the_cells_as_given():
    rows = [(1, 0.5, np.float64(2.5), 1, True, "x", 1j),
            (2, -1.0, np.float64(-0.0), 2.5, False, "y", 2j)]
    table = Table.from_rows(("n", "r", "f", "mixed", "b", "s", "z"), rows)
    assert table.data == ([1, 2], [0.5, -1.0], [2.5, -0.0], [1, 2.5],
                          [True, False], ["x", "y"], [1j, 2j])
    assert [type(c) for c in table.data] == [list] * 7
    # numpy cells stay numpy cells: no column becomes an array
    assert type(table.data[2][0]) is np.float64
    assert table.rows[1] == rows[1]


def test_table_rejects_ragged_columns():
    table = Table(["n", "r"], [np.array([1.0, 2.0, 3.0]), [0.5, -1.0, 2.0]])
    assert table.columns == ("n", "r") and table.rows[-1] == (3.0, 2.0)
    rows = Table.from_rows(("n", "r"), [(1, 0.5), (2, -1.0)]).rows
    assert rows[1] == (2, -1.0)
    with pytest.raises(ValueError, match="differ in length"):
        Table(("n", "r"), (np.arange(3.0), np.arange(2.0)))
    with pytest.raises(ValueError, match="2 names"):
        Table(("n", "r"), (np.arange(3.0),))
    # a table built without stats or extra gets dicts of its own
    first, second = Table(("n",), ([1],)), Table.from_rows(("n",), [(1,)])
    assert first.stats == first.extra == {}
    assert first.stats is not second.stats
    assert first.extra is not second.extra


def test_table_from_no_rows_renders_its_header_only():
    # zero-census below T = 10 has no rung, and once raised here
    table = Table.from_rows(("T", "count", "smooth_estimate", "gap"), [])
    assert table.columns == ("T", "count", "smooth_estimate", "gap")
    assert len(table.rows) == 0
    assert render_csv(table) == "T,count,smooth_estimate,gap\n"
    body = json.loads(render_json(table, {"command": "x"}))
    assert body == {"command": "x",
                    "columns": ["T", "count", "smooth_estimate", "gap"],
                    "rows": [], "stats": {}}


# -- the numeric CSV kernel ------------------------------------------------
#
# A table of int and float columns only is rendered by a numpy kernel
# rather than the row template; these hold it to format_float and
# str(int) cell by cell.

def _kernel_renders(*columns):
    out = Table(tuple(f"c{i}" for i in range(len(columns))), columns)
    assert first_mismatch(render_csv(out), reference_csv(out)) is None


def _with_neighbours(values):
    """Each value and the doubles one ulp to either side."""
    x = np.array(values, dtype=np.float64)
    return np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])


_fixed = st.floats(1e-4, 1e17).flatmap(lambda x: st.sampled_from([x, -x]))


@settings(max_examples=40)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=400),
       st.lists(_fixed, min_size=1, max_size=400))
def test_kernel_matches_format_float_on_random_bit_patterns(bits, fixed):
    # few bit patterns land in fixed notation, so draw those as well
    _kernel_renders(np.array(bits, dtype=np.uint64).view(np.float64))
    _kernel_renders(np.array(fixed, dtype=np.float64))


def test_kernel_at_the_edges_of_fixed_notation():
    # 1e-4 and 1e17 bound the fixed-notation cells, 1e16 is the first
    # with no fraction digit, and every power of ten moves the point
    edges = _with_neighbours([1e-4, 1e16, 1e17, *(10.0 ** np.arange(-6, 19)),
                              0.1, 0.3, 1 / 3, 2**53, 2**53 + 2, 2**56, 2**60])
    _kernel_renders(np.concatenate([edges, -edges]))


@given(st.lists(st.integers(10**15, 2**51 - 1), min_size=1, max_size=50),
       st.sampled_from([1.0, -1.0]))
def test_kernel_rounds_exact_ties_half_even(whole, sign):
    # m + 1/4 and m + 3/4 have 18 digits, the last a 5: an exact tie
    m = np.array(whole, dtype=np.float64)
    x = sign * np.concatenate([m + 0.25, m + 0.75])
    assert np.array_equal(np.abs(x) % 1, np.repeat([0.25, 0.75], len(m)))
    _kernel_renders(x)


def test_kernel_special_floats_and_float_kinds():
    x = np.array([0.0, *SPECIAL_FLOATS, 2.2250738585072014e-308, -1e-320,
                  1.5, 99999999999999984.0], dtype=np.float64)
    _kernel_renders(x, np.arange(len(x)))
    with np.errstate(over="ignore"):  # 1.7e308 is inf in both
        _kernel_renders(x.astype(np.float32), x.astype(np.float16))


def test_kernel_integer_extremes():
    info64, info32 = np.iinfo(np.int64), np.iinfo(np.int32)
    signed = np.array([info64.min, info64.min + 1, info64.max, -1, 0, 1, 9999,
                       10**4, -10**4, 10**16, -(10**17) + 1], dtype=np.int64)
    unsigned = np.array([0, 1, 2**63, 2**64 - 1, 2**63 - 1, 10**19, 10**4,
                         9999, 12345678901234567890, 7, 2**32], dtype=np.uint64)
    narrow = np.array([info32.min, info32.max, 0, -7, 65536, 3, 5, 12, 1, 0,
                       -10], dtype=np.int32)
    _kernel_renders(signed, unsigned, narrow, narrow.astype(np.uint8))


@pytest.mark.parametrize("rows", [KERNEL_ROWS - 1, KERNEL_ROWS + 1,
                                  65535, 65537])
def test_kernel_across_its_blocks_with_late_fallback_cells(rows):
    n = np.arange(1, rows + 1, dtype=np.int64)
    ratio = np.sin(n) * n ** 0.5
    # exponent-form, zero and non-finite cells in the last block only
    ratio[-3:] = [1e-300, -0.0, math.nan]
    ratio[-KERNEL_ROWS // 2] = -3.5e17
    _kernel_renders(n, -n * 7919, ratio)


_int64_cells = st.one_of(
    st.integers(-(2**63 - 1), 2**63 - 1),
    st.sampled_from([0, -1, 1, 2**63 - 1, -(2**63 - 1)]))


@settings(max_examples=200)
@given(st.lists(st.tuples(_int64_cells, _floats), min_size=1, max_size=4))
def test_python_float_cells_print_as_a_float_column_does(rows):
    # a table built from rows keeps its Python int and float cells and
    # takes the row template, not the kernel: it must print the bytes
    # that arrays of the same cells print, in both formats, alone and
    # side by side in one row
    arrays = {"n": np.array([n for n, _ in rows], dtype=np.int64),
              "x": np.array([x for _, x in rows], dtype=np.float64)}
    for names in (("x",), ("n",), ("n", "x"), ("x", "n")):
        picked = [tuple(row["nx".index(name)] for name in names)
                  for row in rows]
        cells = Table.from_rows(names, picked)
        columns = Table(names, [arrays[name] for name in names])
        assert render_csv(cells) == render_csv(columns)
        assert render_json(cells, {}) == render_json(columns, {})
