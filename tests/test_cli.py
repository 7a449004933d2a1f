"""End-to-end checks of the command-line interface.

Covers argument parsing and validation (exit code 2 with a message naming
the offending flag), runtime failures (exit code 1), the CSV/JSON output
contracts (LF line endings, 17-significant-digit floats, stable JSON key
order), byte-for-byte golden files for IEEE-deterministic commands,
run-twice byte identity for the rest, and the sieve-cache lifecycle
(build, inspect, automatic consultation and extension, the environment
variable override).

Golden files under tests/golden/ were produced by the CLI itself and are
committed; they only contain outputs whose floating-point path is
correctly rounded (integer counts, cumulative integer sums divided by
square roots), so they are stable across conforming IEEE-754 platforms.
"""

import cmath
import errno
import importlib
import json
import math
import os
import stat
import struct
import subprocess
import sys
import threading
import zlib
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetadesk import arith, cli, reports
from zetadesk.cli import (_GROUPS, CACHE_ENV, COMMANDS, CliValidationError,
                          NumberRange, _resolve_config, acquire_table,
                          build_parser, main, parse_complex)
from zetadesk.reports import format_complex, format_float

from .oracles import trial_mobius

GOLDEN = Path(__file__).parent / "golden"


def run_ok(argv, out_path):
    """Run the CLI writing to a file; return the exact bytes written."""
    code = main([*argv, "--output", str(out_path)])
    assert code == 0, f"expected success for {argv}"
    return out_path.read_bytes()


# -- small pure helpers -------------------------------------------------


@pytest.mark.parametrize("text,expected", [
    ("1.5", complex(1.5, 0.0)),
    ("-2", complex(-2.0, 0.0)),
    ("+3", complex(3.0, 0.0)),
    ("0.5+14.1i", complex(0.5, 14.1)),
    ("0.5-3i", complex(0.5, -3.0)),
    ("-2+0.5i", complex(-2.0, 0.5)),
    ("+3-4i", complex(3.0, -4.0)),
    ("1e-1+2e1i", complex(0.1, 20.0)),
    (".5-.25i", complex(0.5, -0.25)),
    ("  2.5  ", complex(2.5, 0.0)),
])
def test_parse_complex_valid(text, expected):
    assert parse_complex(text, "--s") == expected


@pytest.mark.parametrize("text", [
    "abc", "1+2j", "i", "2i", "1++2i", "1+2", "", "1 + 2i",
    "nan", "inf", "1+infi", "--2", "1.5+", "0_5",
    "\uff11+2i", "0.5+\uff11i", "\u0661\u0664",
])
def test_parse_complex_invalid(text):
    with pytest.raises(CliValidationError) as exc:
        parse_complex(text, "--s")
    assert "--s" in str(exc.value)


@settings(max_examples=200)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_round_trips(x):
    assert float(format_float(x)) == x


def test_format_complex_grammar():
    assert format_complex(complex(1.5, -2.25)) == "1.5-2.25i"
    assert format_complex(complex(0.5, 14.0)) == "0.5+14i"
    assert format_complex(complex(-3.0, 0.0)) == "-3+0i"


# -- exit codes ----------------------------------------------------------


def test_no_subcommand_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_flag_exits_2(capsys):
    assert main(["mertens", "--limit", "10", "--bogus"]) == 2
    capsys.readouterr()


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv,flag", [
    (["mertens", "--limit", "0"], "--limit"),
    (["mertens", "--limit", "10", "--every", "0"], "--every"),
    (["zeros", "--t-max", "abc"], "--t-max"),
    (["zeros", "--t-max", "150"], "--t-max"),
    (["zeros", "--t-max", "50", "--step", "0.2"], "--step"),
    (["zeta", "--s", "1+2j"], "--s"),
    (["zeta", "--s", "200"], "--s"),
    (["zeta", "--s", "1"], "--s"),
    (["xi", "--t", "garbage"], "--t"),
    (["abel-check", "--n", "100", "--m", "10", "--s=-1+2i"], "--s"),
    (["abel-check", "--n", "1", "--m", "10", "--s", "0.5"], "--n"),
    (["li", "--x", "1"], "--x"),
    (["theta", "--limit", "1000", "--s", "1.5"], "--s"),
    (["constants", "--k", "9"], "--k"),
    (["constants", "--k", "2", "--n", "500"], "--n"),
    (["identity-explore"], "--n"),
    (["identity-explore", "--n", "10", "--limit", "10"], "--n"),
    (["weierstrass", "--x", "0.5", "--a", "0"], "--a"),
    (["weierstrass", "--x", "800", "--a", "1"], "--x"),
    (["convolution-check", "--limit", "300000"], "--limit"),
    (["zeta", "--s", "10.000001"], "--s"),
    (["zeros", "--t-max", "5", "--step", "0.0500001"], "--step"),
    (["xi", "--t", "120.5"], "--t"),
    (["weierstrass", "--x", "0.5", "--a", "0+6.283185307179586i"], "--a"),
    (["zeros", "--t-max", "100", "--step", "1e-9"], "--step"),
    (["abel-check", "--n", "10", "--m", "5", "--s", "1e400"], "--s"),
    (["weierstrass", "--x=0+1e400i", "--a", "1"], "--x"),
    # integer flags take digits only
    (["mertens", "--limit", "2e8"], "--limit"),
])
def test_validation_exits_2_and_names_flag(argv, flag, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert flag in err


# One failing case per check the flags borrow from the library, with the
# whole stderr line the CLI prints for it.
LIBRARY_CHECK_FAILURES = [
    (["zeta", "--s", "1"], "error: --s: zeta has a pole at s = 1"),
    (["xi", "--t", "120.5"],
     "error: --t: s=(0.5+120.5j) outside validated box Re in [-10,10], "
     "|Im| <= 120"),
    (["theta", "--limit", "1000", "--s", "1.5"],
     "error: --s: exponent s must lie in (0, 1]"),
    (["abel-check", "--n", "100", "--m", "10", "--s=-1+2i"],
     "error: --s: summation by parts wants Re s > 0"),
    (["weierstrass", "--x", "0.5", "--a", "0"],
     "error: --a: a within 1e-8 of 2 pi i k makes 1 - e^a degenerate; the "
     "factorization needs a nonvanishing constant term"),
    (["weierstrass", "--x", "800", "--a", "1"],
     "error: --x: direct evaluation of the exponential would overflow "
     "binary64"),
    (["abel-check", "--n", "100", "--m", "50", "--s", "0.5+1e308i"],
     "error: --s: summation by parts wants Re s and |Im s| at most 1e+300"),
    (["weierstrass", "--x=0+1e300i", "--a", "1"],
     "error: --x: |Im x| and |Re(x - a)| must stay within 700 for the "
     "lattice product"),
    (["weierstrass", "--x", "700", "--a=-699"],
     "error: --x: |Im x| and |Re(x - a)| must stay within 700 for the "
     "lattice product"),
]


@pytest.mark.parametrize("argv,line", LIBRARY_CHECK_FAILURES)
def test_library_checks_print_their_whole_message(argv, line, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == line + "\n"


# Valid values for the flags a command needs besides the one under test.
# prime-window starts at 1, so --stop may take its own lowest value.
_OTHER_FLAGS = {
    "mertens": {"--limit": "10"},
    "dirichlet-sum": {"--s": "0.5", "--limit": "10"},
    "abel-check": {"--n": "100", "--m": "10", "--s": "0.5"},
    "convolution-check": {"--limit": "10"},
    "zeros": {"--t-max": "20"},
    "zero-census": {"--t-max": "20"},
    "theta": {"--limit": "1000"},
    "divisor-ratio": {"--limit": "10"},
    "li": {"--x": "2"},
    "relation-a": {"--x-max": "1000"},
    "mertens-constant": {"--limit": "100"},
    "prime-window": {"--start": "1"},
    "weierstrass": {"--x": "0.3", "--a": "1"},
    "cache-build": {"--limit": "10", "--dir": "cache"},
}


def _edges(bounds: NumberRange):
    """(value, accepted) at and beside each bound: one apart for an
    int flag, the neighbouring double for a float flag."""
    if bounds.kind is int:
        below, above = (lambda v: v - 1), (lambda v: v + 1)
    else:
        below = lambda v: math.nextafter(v, -math.inf)  # noqa: E731
        above = lambda v: math.nextafter(v, math.inf)  # noqa: E731
    if bounds.lo is not None:
        lo = bounds.kind(bounds.lo)
        yield below(lo), False
        yield lo, not bounds.open_lo
        if bounds.open_lo:
            yield above(lo), True
    if bounds.hi is not None:
        hi = bounds.kind(bounds.hi)
        yield hi, True
        yield above(hi), False


def _range_cases():
    for name, spec in COMMANDS.items():
        for flag in spec.flags:
            if isinstance(flag.parse, NumberRange):
                for value, accepted in _edges(flag.parse):
                    yield pytest.param(name, flag, value, accepted,
                                       id=f"{name} {flag.name}={value!r}")


def _edge_argv(name, flag, value) -> list:
    """The command line of name with flag at value, and _OTHER_FLAGS."""
    group, _, action = name.partition("-")
    words = [group, action] if group in _GROUPS else [name]
    others = _OTHER_FLAGS.get(name, {})
    return [*words, *(f"{k}={v}" for k, v in others.items() if k != flag.name),
            f"{flag.name}={value!r}"]


@pytest.mark.parametrize("name,flag,value,accepted", list(_range_cases()))
def test_every_range_flag_holds_its_bounds(name, flag, value, accepted):
    argv = _edge_argv(name, flag, value)
    args = build_parser(argv).parse_args(argv)
    if accepted:
        assert _resolve_config(args).params[flag.dest] == value
    else:
        with pytest.raises(CliValidationError) as exc:
            _resolve_config(args)
        assert str(exc.value).startswith(f"{flag.name} must be ")


# An accepted integer edge above this is not run: such a flag (a limit,
# --n, --n-terms) sieves or walks that many cells, seconds at the caps.
_RUN_CELLS_MAX = 10**6


def _numeric_cell_is_finite(cell: str) -> bool:
    """False for a numeric CSV cell that is nan or infinite; other
    cells (names, paths, true/false) pass."""
    try:
        return cmath.isfinite(complex(cell.replace("i", "j")))
    except ValueError:
        return True


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name,flag,value", [
    pytest.param(*case.values[:3], id=case.id) for case in _range_cases()
    if case.values[3] and not (isinstance(case.values[2], int)
                               and case.values[2] > _RUN_CELLS_MAX)])
def test_every_accepted_range_edge_runs(name, flag, value, tmp_path,
                                        monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # cache-build writes into its --dir
    monkeypatch.delenv(CACHE_ENV, raising=False)
    code = main([*_edge_argv(name, flag, value), "--format", "csv"])
    out, err = capsys.readouterr()
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith("error: --") and out == ""
        return
    header, *rows = [line.split(",") for line in out.splitlines()]
    for row in rows:
        cells = dict(zip(header, row))
        if name == "abel-check" and flag.name == "--m":
            # an empty block has no theta to bound
            assert cells.pop("theta_min") == cells.pop("theta_max") == "nan"
        assert all(map(_numeric_cell_is_finite, cells.values())), row


def _accepted_ranges_rows() -> dict:
    """README's Accepted-ranges table: the command in each row's first
    cell, as typed, against the rest of the row."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("### Accepted ranges", 1)[1].split("\n#", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            command, rest = line[3:].split("` |", 1)
            rows[command] = rest
    return rows


@pytest.mark.parametrize("name", COMMANDS)
def test_readme_accepted_ranges_name_every_flag(name):
    group, _, action = name.partition("-")
    typed = f"{group} {action}" if group in _GROUPS else name
    row = _accepted_ranges_rows()[typed]
    for flag in COMMANDS[name].flags:
        assert f"`{flag.name}`" in row, f"{typed} row lacks {flag.name}"


@pytest.mark.parametrize("argv", [
    ["zeta", "--s", "10"],
    ["xi", "--t", "120"],
    ["zeros", "--t-max", "1", "--step", "0.05"],
    ["theta", "--limit", "1000", "--s", "1"],
])
def test_bounds_accept_their_edges(argv, capsys):
    assert main(argv) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv,value", [
    (["zeta", "--s=-3.5-2i"], complex(-3.5, -2.0)),
    (["weierstrass", "--x=-1.5+0.5i", "--a", "1"], None),
])
def test_negative_real_part_is_given_after_an_equals_sign(argv, value, capsys):
    # as a separate word, argparse would read -3.5-2i as an option
    assert main(argv) == 0
    row = capsys.readouterr().out.splitlines()[1]
    if value is not None:
        assert row.startswith(format_complex(value) + ",")


def test_accelerate_switches_are_exclusive(capsys):
    assert main(["constants", "--accelerate", "--no-accelerate"]) == 2
    capsys.readouterr()


def test_output_into_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "out.csv"
    assert main(["li", "--x", "100", "--output", str(target)]) == 2
    assert capsys.readouterr().err.startswith("error: --output:")
    assert not target.parent.exists()


def test_output_under_a_file_exits_2_and_says_what_is_there(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    assert main(["li", "--x", "2", "--output", str(blocker / "out.csv")]) == 2
    assert capsys.readouterr().err == \
        f"error: --output: {blocker} is not a directory\n"
    assert blocker.read_text() == "kept"


@pytest.mark.parametrize("make", [
    lambda path: os.mkfifo(path),
    lambda path: os.symlink(os.devnull, path),
], ids=["fifo", "device"])
def test_cache_inspect_of_a_special_file_exits_2_and_opens_nothing(
        make, tmp_path, capsys):
    # opening a FIFO with no writer would block: a hang here is a failure
    target = tmp_path / "mu-10.stjz"
    make(target)
    assert main(["cache", "inspect", "--path", str(target)]) == 2
    assert capsys.readouterr().err == (f"error: --path: {target} is neither a "
                                       "regular file nor a directory\n")


@pytest.mark.parametrize("text", ["1_000", " 1000", "+1000",
                                  "\uff11\uff10\uff10\uff10", "1000 ", ""])
def test_integer_flags_take_ascii_digits_only(text, capsys):
    # int() reads every one of these as 1000 (or fails on "")
    assert main(["mertens", "--limit", text]) == 2
    assert capsys.readouterr() == (
        "", f"error: --limit must be an integer, got {text!r}\n")


@pytest.mark.parametrize("argv", [
    ["dirichlet-sum", "--series", "unit", "--limit", "10", "--s", "0_5"],
    ["dirichlet-sum", "--series", "unit", "--limit", "10",
     "--s", "\uff10.\uff15"],
    ["xi", "--t", "\u0661\u0664"],
    ["xi", "--t", "nan"],
    ["xi", "--t", "inf"],
])
def test_float_flags_take_ascii_numbers_only(argv, capsys):
    # float() reads these as 0.5, 0.5, 14, nan and inf
    flag, text = argv[-2:]
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", f"error: {flag} must be a number, got {text!r}\n")


def test_float_flags_take_signed_ascii_numbers():
    for text, value in (("+0.5", 0.5), (" .5 ", 0.5), ("5.", 5.0),
                        ("-1E-3", -0.001)):
        assert NumberRange(float)(text, "--s") == value
    with pytest.raises(CliValidationError,
                       match="^--s must be finite, got inf$"):
        NumberRange(float)("1e400", "--s")


def test_a_negative_integer_reaches_the_range_check(capsys):
    assert main(["mertens", "--limit", "-5"]) == 2
    assert capsys.readouterr().err == "error: --limit must be at least 1, got -5\n"


def test_output_write_failure_exits_1(tmp_path, capsys):
    # the path is a directory, so the write itself fails
    assert main(["li", "--x", "100", "--output", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_runtime_failure_exits_1(capsys):
    # --a 1e-7 clears the parser's degeneracy threshold but the library
    # rejects the resulting convergence-factor exponent as an overflow
    assert main(["weierstrass", "--x", "1", "--a", "1e-7"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


# -- output contracts ----------------------------------------------------


def test_mertens_csv_matches_golden(tmp_path):
    got = run_ok(["mertens", "--limit", "30"], tmp_path / "m.csv")
    assert got == (GOLDEN / "mertens_limit30.csv").read_bytes()


def test_mertens_json_matches_golden(tmp_path):
    got = run_ok(["mertens", "--limit", "30", "--format", "json"],
                 tmp_path / "m.json")
    assert got == (GOLDEN / "mertens_limit30.json").read_bytes()


def test_prime_window_matches_golden(tmp_path):
    got = run_ok(["prime-window", "--h", "0.1", "--start", "1000",
                  "--stop", "100000"], tmp_path / "w.csv")
    assert got == (GOLDEN / "prime_window_small.csv").read_bytes()


def test_identity_explore_matches_golden(tmp_path):
    got = run_ok(["identity-explore", "--n", "100"], tmp_path / "i.csv")
    assert got == (GOLDEN / "identity_explore_n100.csv").read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_identity_sweep_matches_golden(fmt, tmp_path):
    got = run_ok(["identity-explore", "--limit", "1000", "--format", fmt],
                 tmp_path / "i.out")
    golden = GOLDEN / f"identity_explore_limit1000.{fmt}"
    assert got == golden.read_bytes()


def test_cache_inspect_matches_golden(tmp_path, monkeypatch, capsys):
    # a relative --dir keeps the path column free of tmp_path
    monkeypatch.chdir(tmp_path)
    assert main(["cache", "build", "--limit", "1000", "--dir", "cache"]) == 0
    capsys.readouterr()
    assert main(["cache", "inspect", "--path", "cache"]) == 0
    got = capsys.readouterr().out.encode()
    assert got == (GOLDEN / "cache_inspect_limit1000.csv").read_bytes()


# Spawns argv[1:] under this interpreter and prints its exit code and
# peak RSS in kilobytes (Linux units). It runs as its own small process
# because a child exec'd straight from the test process inherits the
# test process's RSS high-water mark.
_PEAK_RSS_PROBE = """
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]],
                     os.environ, file_actions=[
                         (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _child_env() -> dict:
    """The environment of a CLI child: this checkout's package and no
    cache from the environment."""
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV}
    env["PYTHONPATH"] = str(Path(arith.__file__).resolve().parents[1])
    return env


def _peak_rss_mb(*argv) -> float:
    """Peak RSS in MB of `zetadesk argv`, run through _PEAK_RSS_PROBE
    in _child_env(); the run must exit 0."""
    probe = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_PROBE, "-m", "zetadesk.cli", *argv],
        env=_child_env(), capture_output=True, text=True, check=True)
    code, peak_kb = map(int, probe.stdout.split())
    assert code == 0, f"{argv[0]} exited {code}"
    return peak_kb / 1024


def test_mertens_peak_memory_stays_bounded():
    peak = _peak_rss_mb("mertens", "--limit", "10000000", "--every", "10000")
    assert peak < 150, f"mertens peaked at {peak:.0f} MB"


def test_finest_zero_scan_peak_memory_stays_bounded():
    # 10^6 grid points: the values are one float array and the kernel
    # works in bounded passes; a list of per-point values took 88 MB
    peak = _peak_rss_mb("zeros", "--t-max", "100", "--step", "0.0001")
    assert peak < 80, f"zeros peaked at {peak:.0f} MB"


@pytest.mark.parametrize("argv", [
    ["identity-explore", "--n", "100000000"],
    ["abel-check", "--n", "99990000", "--m", "10000", "--s", "0.5+14.1i"],
])
def test_far_point_commands_need_no_full_prefix(argv):
    # M is read at the floor quotients or on the block only; a full
    # prefix to 10^8 peaked at 569 MB
    peak = _peak_rss_mb(*argv)
    assert peak < 100, f"{argv[0]} peaked at {peak:.0f} MB"


def test_abel_check_peak_memory_stays_bounded():
    # the block is walked in 2^16-cell segments with carried sums; a
    # dozen float arrays over the whole block peaked at 277 MB here
    peak = _peak_rss_mb("abel-check", "--n", "1000", "--m", "2000000",
                        "--s", "0.5+14.1i")
    assert peak < 100, f"abel-check peaked at {peak:.0f} MB"


def test_far_point_commands_ignore_the_cache_dir(tmp_path, capsys):
    cache = tmp_path / "cache"
    for argv in (["identity-explore", "--n", "1000"],
                 ["abel-check", "--n", "100", "--m", "50", "--s", "0.5+2i"]):
        assert main(argv) == 0
        fresh = capsys.readouterr().out
        assert main([*argv, "--cache-dir", str(cache)]) == 0
        assert capsys.readouterr().out == fresh
    assert not cache.exists()


def test_mertens_every_row_memory_stays_bounded():
    # one row per n: the table is rendered from columns and written a
    # block at a time, so no Python tuple per row and no whole text
    peak = _peak_rss_mb("mertens", "--limit", "1000000")
    assert peak < 160, f"mertens peaked at {peak:.0f} MB"


@pytest.mark.parametrize("argv,bound", [
    (["mertens", "--limit", "500000"], 55),
    (["mertens", "--limit", "100000", "--format", "json"], 45),
])
def test_every_row_tables_hold_one_block_of_text(argv, bound):
    # each block is written before the next is rendered; with the whole
    # text joined before one write these peaked at 70.6 and 50.3 MB
    peak = _peak_rss_mb(*argv)
    assert peak < bound, f"{' '.join(argv)} peaked at {peak:.1f} MB"


@pytest.mark.parametrize("argv", [
    ["mertens", "--limit", "300000"],
    ["mertens", "--limit", "100000", "--format", "json"],
])
def test_a_reader_that_closes_early_ends_the_run_quietly(argv):
    # megabytes of table against a pipe buffer of some 64 KB, so the
    # run still has blocks to write when the reader goes away
    child = subprocess.Popen([sys.executable, "-m", "zetadesk.cli", *argv],
                             env=_child_env(), stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE)
    assert len(child.stdout.read(10)) == 10
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=120) == 0
    assert err == b""


def _run_warnings_as_errors(argv) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "zetadesk.cli",
         *argv], env=_child_env(), capture_output=True, text=True,
        timeout=120)


@pytest.mark.parametrize("argv,code", [
    # s log n past binary64: every power nan, or 0 after an overflow
    (["abel-check", "--n", "100", "--m", "50", "--s", "0.5+1e308i"], 2),
    (["abel-check", "--n", "2", "--m", "5", "--s", "1.7e308"], 2),
    # inside the bound, and every power underflows to 0
    (["abel-check", "--n", "2", "--m", "5", "--s", "2000"], 0),
    # |Re(x - a)| past 700, where the minus-sign exponent overflows, and
    # |Im x| past it, where the pair factors overflow to nan
    (["weierstrass", "--x", "700", "--a=-699"], 2),
    (["weierstrass", "--x=0+1e300i", "--a", "1"], 2),
])
def test_run_time_corners_exit_0_with_finite_cells_or_2(argv, code):
    done = _run_warnings_as_errors(argv)
    assert done.returncode == code, done.stderr
    if code == 2:
        assert done.stderr.startswith("error: --")
        assert done.stdout == ""
        return
    assert done.stderr == ""
    header, row = done.stdout.splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["abs_diff"] == cells["rel_diff"] == "0"
    assert "nan" not in row and "inf" not in row


def test_weierstrass_product_multiplies_poly_in_where_it_must():
    # (1 - e^a) e^E overflows here, though the product is finite; it
    # printed -inf-infi with exit 0
    done = _run_warnings_as_errors(["weierstrass", "--x", "699", "--a", "700"])
    assert done.returncode == 0 and done.stderr == ""
    rows = [line.split(",") for line in done.stdout.splitlines()[1:]]
    assert [row[0] for row in rows] == ["minus", "plus"]
    for _, product, _, rel in rows:
        assert cmath.isfinite(complex(product.replace("i", "j")))
        assert math.isfinite(float(rel))
    assert rows[1][1].startswith("-1.8599314431261301e+303")
    # no order of the factors keeps this product finite: exit 1
    done = _run_warnings_as_errors(["weierstrass", "--x=0+699i", "--a", "690",
                                    "--n-terms", "100"])
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == "error: truncated product overflows; " \
                          "reduce |x| or |a|\n"


def test_dirichlet_sum_peak_memory_stays_bounded():
    # the prefix is walked in chunks, so no float64 copy of mu and no
    # float64 prefix of the whole range is held (123 MB when they were)
    peak = _peak_rss_mb("dirichlet-sum", "--series", "mobius", "--s", "0.5",
                        "--limit", "5000000")
    assert peak < 80, f"dirichlet-sum peaked at {peak:.0f} MB"


def test_one_minus_g_sum_peak_memory_stays_bounded():
    # each chunk finds its own primes and prime powers; a float64 stream
    # of the whole range, filled one prime power at a time, peaked at
    # 196 MB here
    peak = _peak_rss_mb("dirichlet-sum", "--series", "one-minus-g",
                        "--s", "0.5", "--limit", "20000000")
    assert peak < 120, f"dirichlet-sum peaked at {peak:.0f} MB"


@pytest.mark.parametrize("argv,bound", [
    (["theta", "--limit", "10000000"], 55),
    (["dirichlet-sum", "--series", "mobius", "--s", "0.5",
      "--limit", "10000000"], 50),
])
def test_cache_hit_pays_only_for_the_arrays_it_reads(argv, bound, tmp_path):
    # a hit that decoded the whole file into mu and re-sieved the primes
    # peaked at 62 MB (theta) and 57 MB (mobius) here; now theta reads
    # only primes (48 MB) and the mobius sum only mu (43 MB)
    assert main(["cache", "build", "--limit", "10000000",
                 "--dir", str(tmp_path)]) == 0
    peak = _peak_rss_mb(*argv, "--cache-dir", str(tmp_path))
    assert peak < bound, f"{argv[0]} hit peaked at {peak:.0f} MB"


@pytest.mark.parametrize("argv", [
    ["theta", "--limit", "1000000"],
    ["mertens", "--limit", "1000000", "--every", "1000"],
], ids=["theta", "mertens"])
def test_command_beside_a_large_cache_file_pays_nothing(argv, tmp_path):
    # theta reads no mu: the covering file's CRC pass and a prime sieve
    # to its stored limit peaked at 49.4 MB here, against 31.6 MB
    # uncached. mertens reads mu from a hit on that file: decoded to the
    # stored limit, it peaked at 49.5 MB, against 32.3 MB uncached
    assert main(["cache", "build", "--limit", "20000000",
                 "--dir", str(tmp_path)]) == 0
    cached = _peak_rss_mb(*argv, "--cache-dir", str(tmp_path))
    plain = _peak_rss_mb(*argv)
    assert cached < plain + 3, f"{cached:.1f} MB against {plain:.1f} MB"


@pytest.mark.parametrize("argv,bound", [
    (["relation-a", "--x-max", "20000000"], 54),
    (["mertens", "--limit", "20000000", "--every", "1000000"], 65),
    (["divisor-ratio", "--limit", "20000000"], 95),
])
def test_sieves_form_no_full_length_temporary(argv, bound):
    # the primes are written a chunk of flags at a time, the Mobius
    # cofactor products a chunk of primes at a time, and the divisor
    # counts are int16; with an index array over all the flags, products
    # over all the large primes and int32 counts these peaked at 59.2,
    # 69.2 and 117.4 MB
    peak = _peak_rss_mb(*argv)
    assert peak < bound, f"{' '.join(argv)} peaked at {peak:.1f} MB"


def test_csv_line_endings_and_header(tmp_path):
    got = run_ok(["mertens", "--limit", "100"], tmp_path / "m.csv")
    assert b"\r" not in got
    assert got.endswith(b"\n")
    assert got.split(b"\n", 1)[0] == b"n,M,ratio"


def test_csv_floats_carry_17_significant_digits(tmp_path):
    got = run_ok(["mertens", "--limit", "3"], tmp_path / "m.csv")
    third = got.decode().splitlines()[3]
    assert third == "3,-1,-0.57735026918962584"
    assert float(third.split(",")[2]) == -1.0 / math.sqrt(3.0)


@pytest.mark.parametrize("argv", [
    ["zeros", "--t-max", "20"],
    ["constants", "--k", "2", "--n", "5000"],
    ["divisor-ratio", "--limit", "2000"],
    ["zeta", "--s", "0.5+14.1i", "--format", "json"],
])
def test_float_heavy_commands_are_run_twice_identical(argv, tmp_path):
    first = run_ok(argv, tmp_path / "a.out")
    second = run_ok(argv, tmp_path / "b.out")
    assert first == second


def test_constants_walks_only_the_exponents_it_prints(tmp_path, monkeypatch):
    zeta_module = importlib.import_module("zetadesk.zeta")
    asked, walk = [], zeta_module._defect_walk

    def recording_walk(ks, n):
        asked.append(tuple(ks))
        return walk(ks, n)

    monkeypatch.setattr(zeta_module, "_defect_walk", recording_walk)
    zeta_module.log_power_constant.cache_clear()
    zeta_module._defect_sums.cache_clear()
    three = run_ok(["constants", "--k", "3", "--n", "1237"], tmp_path / "3.csv")
    assert asked == [(1, 2, 3)]
    eight = run_ok(["constants", "--k", "8", "--n", "1237"], tmp_path / "8.csv")
    assert asked == [(1, 2, 3), tuple(range(1, 9))]
    # a k's defects do not depend on the other exponents in its walk
    assert three.splitlines() == eight.splitlines()[:4]


def test_json_key_order_is_stable(tmp_path):
    got = run_ok(["zeros", "--t-max", "16"], tmp_path / "z.json")
    pairs = json.loads(got.decode(), object_pairs_hook=list)
    keys = [k for k, _ in pairs]
    assert keys == ["command", "params", "count", "columns", "rows", "stats"]

    got = run_ok(["mertens", "--limit", "5", "--format", "json"],
                 tmp_path / "m.json")
    keys = [k for k, _ in json.loads(got.decode(), object_pairs_hook=list)]
    assert keys == ["command", "params", "columns", "rows", "stats"]


def test_zeros_reports_count_at_top_level(tmp_path):
    got = run_ok(["zeros", "--t-max", "16"], tmp_path / "z.json")
    body = json.loads(got.decode())
    assert body["count"] == 1
    assert len(body["rows"]) == 1
    assert abs(body["rows"][0][1] - 14.134725141734695) < 1e-4


def test_default_format_is_csv_except_zeros(capsys):
    assert main(["li", "--x", "100"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "x,li"

    assert main(["zeros", "--t-max", "15"]) == 0
    out = capsys.readouterr().out
    assert out.lstrip().startswith("{")


def test_output_flag_leaves_stdout_empty(tmp_path, capsys):
    path = tmp_path / "out.csv"
    assert main(["li", "--x", "100", "--output", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes().startswith(b"x,li\n")


@pytest.mark.parametrize("argv", [
    ["mertens", "--limit", "30000"],
    ["mertens", "--limit", "30000", "--format", "json"],
    ["divisor-ratio", "--limit", "30000", "--every", "1", "--format", "json"],
])
def test_output_file_holds_the_bytes_of_stdout(argv, tmp_path, capsys):
    # tables of several blocks, streamed to either sink
    assert main(argv) == 0
    printed = capsys.readouterr().out.encode()
    assert run_ok(argv, tmp_path / "out") == printed
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_failed_run_leaves_the_output_file_as_it_was(tmp_path, monkeypatch,
                                                     capsys):
    target = tmp_path / "m.csv"
    target.write_bytes(b"previous\n")

    def failing_blocks(table):
        blocks = reports.csv_blocks(table)
        yield next(blocks)
        yield next(blocks)
        raise RuntimeError("renderer failed")

    monkeypatch.setattr(cli, "csv_blocks", failing_blocks)
    assert main(["mertens", "--limit", "30000", "--output", str(target)]) == 1
    assert capsys.readouterr().err == "error: renderer failed\n"
    assert target.read_bytes() == b"previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]


def _mertens_stdout(capsys):
    assert main(["mertens", "--limit", "30000"]) == 0
    return capsys.readouterr().out.encode()


def test_output_through_a_symlink_writes_the_file_it_names(tmp_path, capsys):
    printed = _mertens_stdout(capsys)
    real = tmp_path / "real.csv"
    real.write_bytes(b"previous\n")
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    assert run_ok(["mertens", "--limit", "30000"], link) == printed
    assert link.is_symlink() and real.read_bytes() == printed
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv",
                                                          "real.csv"]


def test_output_into_a_fifo_writes_to_its_reader(tmp_path, capsys):
    printed = _mertens_stdout(capsys)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []

    def read():
        with open(fifo, "rb") as fh:
            received.append(fh.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    assert main(["mertens", "--limit", "30000", "--output", str(fifo)]) == 0
    reader.join(timeout=30)
    assert received == [printed]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


def test_replaced_output_keeps_its_permission_bits(tmp_path, capsys):
    printed = _mertens_stdout(capsys)
    target = tmp_path / "m.csv"
    target.write_bytes(b"previous\n")
    target.chmod(0o640)
    assert run_ok(["mertens", "--limit", "30000"], target) == printed
    assert stat.S_IMODE(target.stat().st_mode) == 0o640


def test_hard_linked_output_is_written_under_every_name(tmp_path, capsys):
    printed = _mertens_stdout(capsys)
    target = tmp_path / "m.csv"
    target.write_bytes(b"previous\n")
    other = tmp_path / "other.csv"
    os.link(target, other)
    assert run_ok(["mertens", "--limit", "30000"], target) == printed
    assert other.read_bytes() == printed


# -- sieve cache lifecycle ----------------------------------------------


def test_cache_build_then_inspect_ok(tmp_path, capsys):
    assert main(["cache", "build", "--limit", "500",
                 "--dir", str(tmp_path)]) == 0
    capsys.readouterr()
    stored = tmp_path / "mu-500.stjz"
    assert stored.is_file()

    assert main(["cache", "inspect", "--path", str(stored),
                 "--format", "json"]) == 0
    body = json.loads(capsys.readouterr().out)
    row = dict(zip(body["columns"], body["rows"][0]))
    assert row["status"] == "ok"
    assert row["limit"] == 500
    assert row["crc_ok"] is True


def test_two_writers_of_one_cache_file(tmp_path, capsys):
    argv = [sys.executable, "-m", "zetadesk.cli", "cache", "build",
            "--limit", "200000", "--dir", str(tmp_path)]
    writers = [subprocess.Popen(argv, env=_child_env(),
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE) for _ in range(2)]
    for writer in writers:
        _, err = writer.communicate(timeout=120)
        assert writer.returncode == 0, err
    assert main(["cache", "inspect", "--path", str(tmp_path),
                 "--format", "json"]) == 0
    body = json.loads(capsys.readouterr().out)
    [row] = [dict(zip(body["columns"], row)) for row in body["rows"]]
    assert Path(row["path"]).name == "mu-200000.stjz"
    assert (row["status"], row["limit"]) == ("ok", 200000)
    assert row["file_bytes"] == 16 + 200000 + 4
    assert [p.name for p in tmp_path.iterdir()] == ["mu-200000.stjz"]


def test_cache_inspect_reports_corruption(tmp_path, capsys):
    table = arith.build_tables(200)
    good = tmp_path / "mu-200.stjz"
    arith.save_cache(table, good)

    # directory listings only pick up mu-<limit>.stjz names, so the
    # damaged copies keep numeric stems
    blob = bytearray(good.read_bytes())
    blob[100] ^= 0x40
    (tmp_path / "mu-201.stjz").write_bytes(bytes(blob))
    (tmp_path / "mu-202.stjz").write_bytes(good.read_bytes()[:-3])

    assert main(["cache", "inspect", "--path", str(tmp_path),
                 "--format", "json"]) == 0
    body = json.loads(capsys.readouterr().out)
    by_name = {Path(row[body["columns"].index("path")]).name:
               row[body["columns"].index("status")]
               for row in body["rows"]}
    assert by_name["mu-200.stjz"] == "ok"
    assert by_name["mu-201.stjz"] == "bad-checksum"
    assert by_name["mu-202.stjz"] == "truncated"


def _stjz_row(path: Path) -> list:
    """The cache inspect row of the file at path, parsed by the STJZ
    layout alone: b"STJZ", version 1 as uint32, a limit in
    1..200000000 as uint64, one byte mu(n) + 1 per n <= limit, and the
    payload's CRC32 as uint32, all little-endian. The first check that
    fails names the status; the byte range is checked after the CRC."""
    blob = path.read_bytes()
    status, version, limit = "ok", -1, -1
    if len(blob) < 16:
        status = "truncated"
    else:
        magic, version, limit = struct.unpack_from("<4sIQ", blob)
        payload = blob[16:-4]
        if magic != b"STJZ":
            status = "bad-magic"
        elif version != 1:
            status = "bad-version"
        elif not 1 <= limit <= 200_000_000 or len(blob) != limit + 20:
            status = "truncated"
        elif zlib.crc32(payload) != struct.unpack("<I", blob[-4:])[0]:
            status = "bad-checksum"
        elif max(payload) > 2:
            status = "bad-payload"
    return [str(path), status, version, limit, len(blob),
            status in ("ok", "bad-payload")]


def test_cache_inspect_rows_match_an_independent_parse(tmp_path, capsys):
    assert main(["cache", "build", "--limit", "300",
                 "--dir", str(tmp_path)]) == 0
    capsys.readouterr()
    good = (tmp_path / "mu-300.stjz").read_bytes()
    assert list(good[16:-4]) == [trial_mobius(n) + 1 for n in range(1, 301)]
    # mu(5) + 1 = 0 at byte 20, flipped to 1; a 7 in its place, with the
    # CRC made again, fails only the byte range
    flipped = good[16:20] + b"\x01" + good[21:-4]
    seven = good[16:20] + b"\x07" + good[21:-4]
    files = [b"STJY" + good[4:],
             good[:4] + struct.pack("<I", 2) + good[8:],
             good[:-1],
             good[:10],
             good[:16] + flipped + good[-4:],
             good[:16] + seven + struct.pack("<I", zlib.crc32(seven))]
    for n, blob in enumerate(files, 301):
        (tmp_path / f"mu-{n}.stjz").write_bytes(blob)
    assert main(["cache", "inspect", "--path", str(tmp_path),
                 "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows == [_stjz_row(tmp_path / f"mu-{n}.stjz")
                    for n in range(300, 307)]
    assert [row[1] for row in rows] == [
        "ok", "bad-magic", "bad-version", "truncated", "truncated",
        "bad-checksum", "bad-payload"]


def test_cache_files_take_ascii_digit_names_only(tmp_path, capsys):
    # str.isdigit() holds for the superscript 2, but the name is no limit
    arith.save_cache(arith.build_tables(10), tmp_path / "mu-\u00b2.stjz")
    assert main(["cache", "inspect", "--path", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: --path: no mu-*.stjz files under {tmp_path}\n")
    assert acquire_table(5, tmp_path).mu.tolist() == [0, 1, -1, -1, 0, -1]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "mu-5.stjz", "mu-\u00b2.stjz"]


@pytest.mark.parametrize("argv,reads_mu", [
    (["relation-a", "--x-max", "5000"], False),
    (["mertens-constant", "--limit", "5000"], False),
    (["prime-window", "--start", "10", "--stop", "1000"], False),
    (["theta", "--limit", "5000"], False),
    (["mertens", "--limit", "5000"], True),
])
def test_mobius_sieve_runs_only_when_mu_is_read(argv, reads_mu, tmp_path,
                                                 monkeypatch):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    built = []
    real_build = arith.build_tables

    def build(limit):
        built.append(real_build(limit))
        return built[-1]

    monkeypatch.setattr(arith, "build_tables", build)
    run_ok(argv, tmp_path / "out.csv")
    assert len(built) == 1
    assert ("mu" in vars(built[0])) == reads_mu
    # a prime-only command once checked a covering file, or sieved and
    # saved a mu it never read; now only a mu reader makes the directory
    cache = tmp_path / "cache"
    run_ok([*argv, "--cache-dir", str(cache)], tmp_path / "out.csv")
    assert cache.exists() == reads_mu


def test_cache_auto_consult_reuses_covering_file(tmp_path):
    arith.save_cache(arith.build_tables(300), tmp_path / "mu-300.stjz")
    table = acquire_table(120, tmp_path)
    assert table.limit == 120
    assert table.mu.tolist() == arith.build_tables(120).mu.tolist()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mu-300.stjz"]


def test_cache_auto_extend_saves_fresh_build(tmp_path):
    arith.save_cache(arith.build_tables(300), tmp_path / "mu-300.stjz")
    table = acquire_table(450, tmp_path)
    assert table.limit == 450
    table.mu  # the cache is consulted on the first read of mu
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "mu-300.stjz", "mu-450.stjz"]


def test_cache_prefers_smallest_covering_file(tmp_path, monkeypatch):
    arith.save_cache(arith.build_tables(1000), tmp_path / "mu-1000.stjz")
    arith.save_cache(arith.build_tables(400), tmp_path / "mu-400.stjz")
    loaded = []
    real_read = arith.read_mu

    def read(path, keep):
        loaded.append(Path(path).name)
        return real_read(path, keep)

    monkeypatch.setattr(arith, "read_mu", read)
    table = acquire_table(350, tmp_path)
    assert table.limit == 350
    table.mu
    assert loaded == ["mu-400.stjz"]


def test_mu_reader_against_a_larger_file_reads_its_limit(tmp_path, capsys):
    path = tmp_path / "mu-3000.stjz"
    arith.save_cache(arith.build_tables(3000), path)
    fresh = arith.build_tables(1000).mu.tolist()
    table = acquire_table(1000, tmp_path)
    assert len(table.mu) == 1001
    assert table.mu.tolist() == fresh
    # the whole stored payload is checked, past the limit read too
    blob = bytearray(path.read_bytes())
    blob[16 + 2000] ^= 0x01
    path.write_bytes(bytes(blob))
    table = acquire_table(1000, tmp_path)
    assert table.mu.tolist() == fresh
    assert "CRC mismatch" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mu-1000.stjz"]


def test_cache_dir_environment_variable(tmp_path, monkeypatch, capsys):
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv(CACHE_ENV, str(env_dir))
    assert main(["mertens", "--limit", "40"]) == 0
    capsys.readouterr()
    assert (env_dir / "mu-40.stjz").is_file()


def test_cache_dir_flag_overrides_environment(tmp_path, monkeypatch, capsys):
    env_dir = tmp_path / "from-env"
    flag_dir = tmp_path / "from-flag"
    monkeypatch.setenv(CACHE_ENV, str(env_dir))
    assert main(["mertens", "--limit", "40",
                 "--cache-dir", str(flag_dir)]) == 0
    capsys.readouterr()
    assert (flag_dir / "mu-40.stjz").is_file()
    assert not env_dir.exists()


@pytest.mark.parametrize("argv,flag", [
    (["mertens", "--limit", "100", "--cache-dir"],
     f"--cache-dir (or ${CACHE_ENV})"),
    (["cache", "build", "--limit", "100", "--dir"], "--dir"),
])
# the path is a file, or lies under one
@pytest.mark.parametrize("below", ["", "sub"])
def test_cache_directory_that_cannot_be_made_exits_2(argv, flag, below,
                                                     tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    in_the_way = tmp_path / "mu-100.stjz"
    in_the_way.write_bytes(b"not a directory")
    built = []
    real_build = arith.build_tables
    monkeypatch.setattr(arith, "build_tables",
                        lambda limit: built.append(limit) or real_build(limit))
    assert main([*argv, str(in_the_way / below)]) == 2
    run = capsys.readouterr()
    assert run.out == ""
    assert run.err.startswith(f"error: {flag}: cannot use {in_the_way}")
    assert built == []
    assert in_the_way.read_bytes() == b"not a directory"


def test_cached_and_fresh_runs_are_byte_identical(tmp_path):
    cache = tmp_path / "cache"
    first = run_ok(["mertens", "--limit", "60",
                    "--cache-dir", str(cache)], tmp_path / "a.csv")
    second = run_ok(["mertens", "--limit", "60",
                     "--cache-dir", str(cache)], tmp_path / "b.csv")
    fresh = run_ok(["mertens", "--limit", "60"], tmp_path / "c.csv")
    assert first == second == fresh


def test_cache_selects_by_header_limit_not_file_name(tmp_path, capsys):
    # a limit-1000 table filed under a name that promises 5000
    cache = tmp_path / "cache"
    cache.mkdir()
    arith.save_cache(arith.build_tables(1000), cache / "mu-5000.stjz")
    argv = ["mertens", "--limit", "3000", "--every", "3000"]
    assert main([*argv, "--cache-dir", str(cache)]) == 0
    cached = capsys.readouterr().out
    assert main(argv) == 0
    assert cached == capsys.readouterr().out
    assert cached.splitlines()[1].startswith("3000,-6,")
    assert arith.read_cache_limit(cache / "mu-3000.stjz") == 3000


def test_truncated_cache_file_is_rebuilt_and_replaced(tmp_path, capsys):
    # what an interrupted write of a whole file would leave behind
    cache = tmp_path / "cache"
    cache.mkdir()
    path = cache / "mu-3000.stjz"
    arith.save_cache(arith.build_tables(3000), path)
    path.write_bytes(path.read_bytes()[:500])
    argv = ["mertens", "--limit", "2000", "--every", "7"]
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    assert main([*argv, "--cache-dir", str(cache)]) == 0
    first = capsys.readouterr()
    assert first.out == fresh and "warning:" in first.err
    assert main([*argv, "--cache-dir", str(cache)]) == 0
    second = capsys.readouterr()
    assert second.out == fresh and second.err == ""
    names = sorted(p.name for p in cache.iterdir())
    assert names == ["mu-2000.stjz"]
    assert arith.cache_summary(cache / "mu-2000.stjz")["status"] == "ok"


def test_corrupt_payload_is_rebuilt_for_a_prime_only_command(tmp_path,
                                                             capsys):
    # theta reads no mu, so it leaves the corrupt file alone; the next
    # command that reads mu finds the fault and rebuilds
    cache = tmp_path / "cache"
    cache.mkdir()
    path = cache / "mu-3000.stjz"
    arith.save_cache(arith.build_tables(3000), path)
    blob = bytearray(path.read_bytes())
    blob[1000] ^= 0x01
    path.write_bytes(bytes(blob))
    argv = ["theta", "--limit", "2500"]
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    assert main([*argv, "--cache-dir", str(cache)]) == 0
    first = capsys.readouterr()
    assert first.out == fresh and first.err == ""
    assert path.read_bytes() == bytes(blob)
    argv = ["mertens", "--limit", "2500", "--every", "7"]
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    assert main([*argv, "--cache-dir", str(cache)]) == 0
    second = capsys.readouterr()
    assert second.out == fresh and "CRC mismatch" in second.err
    assert sorted(p.name for p in cache.iterdir()) == ["mu-2500.stjz"]
    assert arith.cache_summary(cache / "mu-2500.stjz")["status"] == "ok"


def test_cache_file_removed_before_its_load_is_rebuilt(tmp_path, monkeypatch,
                                                       capsys):
    # another process deletes the chosen file between the scan and the load
    cache = tmp_path / "cache"
    cache.mkdir()
    arith.save_cache(arith.build_tables(3000), cache / "mu-3000.stjz")
    real_read = arith.read_mu

    def read_after_removal(path, keep):
        Path(path).unlink()
        return real_read(path, keep)

    monkeypatch.setattr(arith, "read_mu", read_after_removal)
    argv = ["mertens", "--limit", "2000", "--every", "7"]
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    assert main([*argv, "--cache-dir", str(cache)]) == 0
    run = capsys.readouterr()
    assert run.out == fresh and "warning:" in run.err
    assert sorted(p.name for p in cache.iterdir()) == ["mu-2000.stjz"]


def test_cache_save_leaves_no_partial_file(tmp_path, monkeypatch):
    table = arith.build_tables(500)
    path = tmp_path / "mu-500.stjz"
    arith.save_cache(table, path)
    good = path.read_bytes()

    def interrupted(*_):
        raise KeyboardInterrupt
    monkeypatch.setattr(arith.zlib, "crc32", interrupted)
    with pytest.raises(KeyboardInterrupt):
        arith.save_cache(arith.build_tables(600), path)
    assert path.read_bytes() == good
    assert [p.name for p in tmp_path.iterdir()] == ["mu-500.stjz"]


def test_blocked_cache_save_warns_and_the_run_goes_on(tmp_path, monkeypatch,
                                                      capsys):
    # a directory where the miss saves its file
    monkeypatch.delenv(CACHE_ENV, raising=False)
    cache = tmp_path / "cache"
    (cache / "mu-100.stjz").mkdir(parents=True)
    argv = ["mertens", "--limit", "100"]
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    assert main([*argv, "--cache-dir", str(cache)]) == 0
    run = capsys.readouterr()
    assert run.out == fresh
    [line] = run.err.splitlines()
    assert line.startswith("warning: ") and f"[Errno {errno.EISDIR}]" in line
    # cache build, whose whole job is the save, still fails
    assert main(["cache", "build", "--limit", "100", "--dir", str(cache)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    # the directory is no cache file, so inspect finds none
    assert main(["cache", "inspect", "--path", str(cache)]) == 2
    assert capsys.readouterr() == (
        "", f"error: --path: no mu-*.stjz files under {cache}\n")


def test_cache_save_out_of_space_warns_and_leaves_no_temp_file(
        tmp_path, monkeypatch, capsys):
    from zetadesk import files

    class Full:
        """A file whose device is full."""

        def __init__(self, fh):
            self._fh = fh

        def writelines(self, chunks):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def __getattr__(self, name):
            return getattr(self._fh, name)

    monkeypatch.delenv(CACHE_ENV, raising=False)
    argv = ["mertens", "--limit", "1000", "--every", "100"]
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    monkeypatch.setattr(files, "open", lambda *a, **kw: Full(open(*a, **kw)),
                        raising=False)
    cache = tmp_path / "cache"
    assert main([*argv, "--cache-dir", str(cache)]) == 0
    run = capsys.readouterr()
    assert run.out == fresh
    [line] = run.err.splitlines()
    assert line.startswith("warning: ") and f"[Errno {errno.ENOSPC}]" in line
    assert list(cache.iterdir()) == []


def test_output_and_cache_miss_are_whole_when_the_process_exits(tmp_path):
    # a CLI process ends with os._exit, with no teardown after main: the
    # output file and the saved cache file must be complete by then
    argv = [sys.executable, "-m", "zetadesk.cli", "mertens", "--limit",
            "100000"]
    printed = subprocess.run(argv, env=_child_env(), capture_output=True,
                             check=True, timeout=120).stdout
    out, cache = tmp_path / "out.csv", tmp_path / "cache"
    done = subprocess.run([*argv, "--output", str(out), "--cache-dir",
                           str(cache)], env=_child_env(), capture_output=True,
                          check=True, timeout=120)
    assert done.stdout == done.stderr == b""
    assert out.read_bytes() == printed
    inspect = subprocess.run(
        [sys.executable, "-m", "zetadesk.cli", "cache", "inspect", "--path",
         str(cache), "--format", "json"], env=_child_env(),
        capture_output=True, check=True, timeout=120)
    body = json.loads(inspect.stdout)
    [row] = [dict(zip(body["columns"], row)) for row in body["rows"]]
    assert (row["status"], row["limit"]) == ("ok", 100000)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache", "out.csv"]


# -- parsing only the named command --------------------------------------


def _typed(name: str) -> list:
    group, _, action = name.partition("-")
    return [group, action] if group in _GROUPS else [name]


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["frobnicate"], ["cache"], ["cache", "--help"],
    ["mertens"], ["mertens", "--limit", "10", "--bogus"],
    *([*_typed(name), "--help"] for name in COMMANDS),
], ids=" ".join)
def test_help_and_usage_errors_match_the_full_parser(argv, capsys):
    # main gives the exit code and the text of the parser itself
    code = main(argv)
    named = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        build_parser(argv).parse_args(argv)
    assert exc.value.code == code
    assert capsys.readouterr() == named


def test_only_the_named_command_gets_flags():
    parsers = build_parser(["li", "--x", "2"])._subparsers._group_actions[0]
    flagged = {name for name, p in parsers.choices.items()
               if name not in _GROUPS and len(p._actions) > 1}
    assert flagged == {"li"}


# -- the experiment commands ---------------------------------------------


# what the scripts/ drivers these commands replace wrote to their files
@pytest.mark.parametrize("argv,header", [
    pytest.param(["mertens-sweep", "--limit", "1000"],
                 "decade_end,min_ratio,argmin,max_ratio,argmax,running_min,"
                 "running_max", id="mertens-sweep"),
    pytest.param(["zero-census", "--t-max", "30", "--step", "0.05"],
                 "T,count,smooth_estimate,gap", id="zero-census"),
    pytest.param(["theta", "--limit", "1000"], "n,theta,deviation",
                 id="theta"),
    pytest.param(["relation-a", "--x-max", "1000"], "x,ratio",
                 id="relation-a"),
    pytest.param(["divisor-ratio", "--limit", "1000"], "n,ratio",
                 id="divisor-ratio"),
])
def test_experiment_commands_print_their_tables(argv, header, capsys):
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == header and len(lines) > 1


@settings(max_examples=20)
@given(limit=st.integers(100, 100_000))
@example(limit=100)
@example(limit=1000)
@example(limit=65535)
@example(limit=65536)
@example(limit=65537)
def test_sweep_rows_match_the_whole_prefix_windows(limit, capsys):
    # second route: the full int32 prefix, read one decade window at a time
    assert main(["mertens-sweep", "--limit", str(limit)]) == 0
    rows = [line.split(",") for line in
            capsys.readouterr().out.splitlines()[1:]]
    prefix = arith.mertens_prefix(arith.build_tables(limit))
    expected = []
    lo, hi, low, high = 1, 100, 0.0, 0.0
    while lo <= limit:
        hi = min(hi, limit)
        w = arith.mertens_ratio_window(prefix, lo, hi)
        low = min(low, w.observed_min_ratio)
        high = max(high, w.observed_max_ratio)
        expected.append([str(hi), format_float(w.observed_min_ratio),
                         str(w.argmin), format_float(w.observed_max_ratio),
                         str(w.argmax), format_float(low), format_float(high)])
        lo, hi = hi + 1, 10 * hi
    assert rows == expected


def test_census_rows_match_the_zeros_and_the_smooth_count(capsys):
    from zetadesk.zeta import riemann_von_mangoldt, zero_scan

    assert main(["zero-census", "--t-max", "64", "--step", "0.05",
                 "--format", "json"]) == 0
    body = json.loads(capsys.readouterr().out)
    report = zero_scan(64.0, 0.05)
    zeros = report.zeros.tolist()
    expected = []
    for height in range(10, 61, 10):
        count = sum(z <= height for z in zeros)
        estimate = riemann_von_mangoldt(height)
        expected.append([height, count, estimate, count - estimate])
    assert body["rows"] == expected
    assert body["stats"] == {"zero_count": len(zeros),
                             "close_call_count": len(report.close_calls)}
    # 13 zeros lie below 60, the last at 59.347
    assert expected[-1][1] == 13
    # the zeros are what zeros prints
    assert main(["zeros", "--t-max", "64", "--step", "0.05"]) == 0
    printed = json.loads(capsys.readouterr().out)["rows"]
    assert [zero for _, zero in printed] == zeros


def test_mertens_sweep_peak_memory_stays_bounded():
    # one walk of mu with M carried from chunk to chunk; the sweep built
    # on a full int32 prefix peaked at 85 MB here
    peak = _peak_rss_mb("mertens-sweep", "--limit", "10000000")
    assert peak < 70, f"mertens-sweep peaked at {peak:.1f} MB"


# One small valid command line per command; {tmp} is a fresh directory.
_SMALL_RUNS = {
    **{name: [f"{k}={v}" for k, v in flags.items()]
       for name, flags in _OTHER_FLAGS.items()},
    "mertens-sweep": ["--limit=1000"],
    "zeta": ["--s=0.5+14i"],
    "xi": ["--t=14"],
    "constants": ["--k=2", "--n=1000"],
    "prime-window": ["--stop=1000"],
    "identity-explore": ["--n=100"],
    "cache-build": ["--limit=10", "--dir={tmp}"],
    "cache-inspect": ["--path={tmp}"],
}


def test_every_table_is_all_arrays_or_all_lists(tmp_path):
    # csv_blocks prints a table of int and float arrays through the
    # kernel and any other cell by cell: a command table that mixed
    # arrays with lists would print its arrays cell by cell too
    import numpy as np

    assert set(_SMALL_RUNS) == set(COMMANDS)
    kinds = {}
    for name in COMMANDS:  # cache-build runs before cache-inspect
        argv = [*_typed(name),
                *(a.replace("{tmp}", str(tmp_path)) for a in _SMALL_RUNS[name])]
        config = _resolve_config(build_parser(argv).parse_args(argv))
        table = COMMANDS[name].handler(config, **config.params)
        assert len(table) > 0, name
        kinds[name] = {type(c) for c in table.data}
    assert {name: k for name, k in kinds.items()
            if k not in ({np.ndarray}, {list})} == {}
