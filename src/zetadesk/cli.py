"""Command-line frontend.

One subcommand per experiment; every run writes a single table, CSV or
JSON, to standard output or --output. Exit codes: 0 success, 1 a
computation failed, 2 a flag failed validation (the message names it).

Each handler returns a reports.Table (the scan-backed ones return the
scan's own table), and run renders it, with the command and its
parameters as the head of the JSON body, as a stream of text blocks
that main writes to the sink one at a time: a run holds at most one
block of its output text. --output is replaced atomically when it names
a new or a regular file (files.replace_atomically, whose writer owns
the file from open to rename), so a failed run, a failed close
included, leaves it as it was; a symlink, a device or a FIFO is
written in place.
A reader that closes stdout early (`| head`) ends the run quietly, with
exit 0.

Each command is declared once, as one entry of COMMANDS: its handler,
help line, default format, flags and any check that spans several
flags. The argument parser and the validation are loops over that
table, and a flag whose bound the library already checks runs the
library's own check. Adding a command means writing its handler and
adding one COMMANDS entry; the handler receives the validated flags as
keyword arguments.

Start-up loads only the standard library (not json), bounds,
constants, reports and the argument parser: the flags are parsed and
validated against bounds.py, so --help and every exit 2 load no engine
and no numpy, and files loads only for --output.
Each handler imports the one engine it calls when it runs. The engine
functions a handler calls by name (xi, zero_scan, zeta_function, ...,
and the _SERIES_BUILDERS table) are this module's attributes, imported
on first use (module __getattr__, PEP 562) and kept in its globals; the
handlers read them through that same lookup, so a caller that replaces
cli.xi, say, has its function called. Calls into arith, dirichlet,
asymptotics and weierstrass stay module-attribute calls at call time.

CSV uses LF line endings, a header row, and floats at 17 significant
digits so values round-trip binary64 exactly. JSON keeps insertion key
order and repr-level float precision. Identical parameters and cache
state therefore reproduce byte-identical output.

Sieve tables are rebuilt per run unless --cache-dir (or the
ZETADESK_CACHE_DIR environment variable) points at a directory. The
cache is touched only where mu is first read: the smallest cached table
covering the requested limit gives mu, checked whole but kept only to
that limit, else a fresh build gives it and is saved there for next
time. Commands that read only the primes or d(n), and identity-explore
--n and abel-check, which read M at a few points only from small sieves
of their own, neither read nor write the cache, nor create its
directory.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import math
import os
import re
import sys
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .bounds import (LI_X_MAX, LOG_POWER_K_MAX, LOG_POWER_N_MIN, MAX_LIMIT,
                     MERTENS_CONSTANT_N_MIN, SCAN_START, TREND_LIMIT_MIN,
                     ZERO_SCAN_STEP_MAX, ZERO_SCAN_STEP_MIN, ZERO_SCAN_T_MAX,
                     _check_exp_arg, _check_exp_pair, _check_exponent,
                     _check_half_plane, _check_not_degenerate,
                     _require_in_box, _require_regular)
from .constants import li
from .reports import (KERNEL_ROWS, Table, csv_blocks, geometric_grid,
                      json_blocks, render_csv, render_json)

if TYPE_CHECKING:
    import numpy as np

    from .arith import ArithTable

CACHE_ENV = "ZETADESK_CACHE_DIR"

# cli.<name> -> (engine module, attribute): the engine functions the
# handlers call by name, imported on first use
_ENGINE_NAMES = {
    "log_power_constant": ("zeta", "log_power_constant"),
    "log_power_constant_contour": ("zeta", "log_power_constant_contour"),
    "xi": ("zeta", "xi"),
    "zero_scan": ("zeta", "zero_scan"),
    "zeta_function": ("zeta", "zeta"),
    # the series read off a table; unit needs none
    "_SERIES_BUILDERS": ("dirichlet", "TABLE_STREAMS"),
}


def __getattr__(name: str):
    """An engine name of _ENGINE_NAMES, imported now and kept in this
    module's globals (PEP 562)."""
    try:
        module, attr = _ENGINE_NAMES[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __package__), attr)
    globals()[name] = value
    return value


def _engine(name: str):
    """cli.<name> as any caller sees it: the value in this module's
    globals, where it may have been replaced, else imported now."""
    try:
        return globals()[name]
    except KeyError:
        return __getattr__(name)


class CliValidationError(Exception):
    """Bad parameter value; the message names the offending flag."""


class RunConfig(NamedTuple):
    """Everything a dispatch needs: the command, its validated
    parameters in declaration order, and the I/O choices."""

    command: str
    params: dict
    fmt: str
    output: Path | None
    cache_dir: Path | None


# -- parameter parsing -------------------------------------------------

# compiled (and cached by re) on the first complex flag, not at start-up
_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX = rf"^([+-]?{_NUM})(?:([+-])({_NUM})i)?$"


def parse_complex(text: str, flag: str) -> complex:
    """Grammar RE, RE+IMi, RE-IMi; anything else is a validation error."""
    m = re.match(_COMPLEX, text.strip())
    if not m:
        raise CliValidationError(
            f"{flag}: expected RE, RE+IMi or RE-IMi, got {text!r}")
    real = float(m.group(1))
    imag = 0.0 if m.group(2) is None else float(m.group(2) + m.group(3))
    if not (math.isfinite(real) and math.isfinite(imag)):
        raise CliValidationError(f"{flag} must be finite, got {text!r}")
    return complex(real, imag)


class NumberRange(NamedTuple):
    """Parser for a finite int or float flag within [lo, hi], or
    (lo, hi] when open_lo; a bound of None is no bound. The range is
    data, so the accepted values of every flag can be listed."""

    kind: type
    lo: int | float | None = None
    hi: int | float | None = None
    open_lo: bool = False

    def __call__(self, text: str, flag: str):
        noun = "an integer" if self.kind is int else "a number"
        try:
            value = self.kind(text)
        except ValueError:
            raise CliValidationError(
                f"{flag} must be {noun}, got {text!r}") from None
        if not -math.inf < value < math.inf:
            raise CliValidationError(f"{flag} must be finite, got {value}")
        lo, hi = self.lo, self.hi
        if lo is not None and (value <= lo if self.open_lo else value < lo):
            bound = "more than" if self.open_lo else "at least"
            raise CliValidationError(f"{flag} must be {bound} {lo}, got {value}")
        if hi is not None and value > hi:
            raise CliValidationError(f"{flag} must be at most {hi}, got {value}")
        return value


# -- sieve cache -------------------------------------------------------

def _cache_files(cache_dir: Path) -> list[Path]:
    """The mu-<number>.stjz files in cache_dir, sorted by name."""
    return [p for p in sorted(cache_dir.glob("mu-*.stjz"))
            if p.stem[3:].isdigit()]


def _cache_path(cache_dir: Path, limit: int) -> Path:
    """Where a table of limit is saved in cache_dir."""
    return cache_dir / f"mu-{limit}.stjz"


def _make_cache_dir(path: Path, flag: str) -> None:
    """Make the directory path and its parents; a path where no
    directory can be made is a bad flag."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliValidationError(f"{flag}: cannot use {path} as a "
                                 f"directory: {exc.strerror}") from None


def acquire_table(limit: int, cache_dir: Path | None) -> ArithTable:
    """A table to limit: a fresh build, or, with a cache directory, a
    table whose mu comes from _cached_mu on its first read, so a
    command that reads no mu leaves the cache alone."""
    from . import arith

    if cache_dir is None:
        return arith.build_tables(limit)
    return arith.ArithTable(limit, functools.partial(_cached_mu, limit,
                                                     cache_dir))


def _cached_mu(limit: int, cache_dir: Path) -> np.ndarray:
    """mu to limit from the smallest cached table covering limit (by its
    header, never its name), checked whole but kept only to limit; else
    from a fresh build, saved to cache_dir. A chosen file that fails its
    check or cannot be read (say, removed since the scan) is reported on
    stderr, rebuilt and replaced, so one bad file cannot break later
    runs. The cache only saves work: a directory that cannot be listed,
    a failed save or a bad file that cannot be removed is a warning on
    stderr, and the run goes on with the mu it sieved.
    """
    from . import arith

    _make_cache_dir(cache_dir, f"--cache-dir (or ${CACHE_ENV})")
    covering = []
    try:
        files = _cache_files(cache_dir)
    except OSError as exc:
        print(f"warning: {exc}; the cache is not read", file=sys.stderr)
        files = []
    for path in files:
        try:
            stored = arith.read_cache_limit(path)
        except (arith.CacheError, OSError):
            continue
        if stored >= limit:
            covering.append((stored, path))
    chosen = min(covering, default=(0, None))[1]
    if chosen is not None:
        try:
            return arith.read_mu(chosen, limit)
        except (arith.CacheError, OSError) as exc:
            print(f"warning: {exc}; rebuilding the cache file",
                  file=sys.stderr)
    target = _cache_path(cache_dir, limit)
    table = arith.build_tables(limit)
    try:
        arith.save_cache(table, target)
    except OSError as exc:
        print(f"warning: {exc}; the table is not cached", file=sys.stderr)
    if chosen is not None and chosen != target:
        try:
            chosen.unlink(missing_ok=True)
        except OSError as exc:
            print(f"warning: {exc}; the bad file stays", file=sys.stderr)
    return table.mu


# -- command handlers --------------------------------------------------

def _cmd_mertens(config: RunConfig, limit, every) -> Table:
    import numpy as np

    from . import arith

    table = acquire_table(limit, config.cache_dir)
    grid = np.arange(every, limit + 1, every, dtype=np.int64)
    if grid.size == 0:
        grid = np.array([limit], dtype=np.int64)
    # M at the grid rows only; no full-length prefix is ever formed
    values = arith.grid_prefix(lambda lo, hi: table.mu[lo:hi], grid,
                               np.int32)
    ratios = grid.astype(np.float64)
    np.sqrt(ratios, out=ratios)
    np.divide(values, ratios, out=ratios)
    stats = {"observed_min_ratio": float(ratios.min()),
             "observed_max_ratio": float(ratios.max())}
    return Table(("n", "M", "ratio"), (grid, values, ratios), stats)


def _cmd_mertens_sweep(config: RunConfig, limit) -> Table:
    from . import arith

    rows = []
    running_min = running_max = 0.0
    table = acquire_table(limit, config.cache_dir)
    for end, low, argmin, high, argmax in arith.mertens_decades(table):
        running_min = min(running_min, low)
        running_max = max(running_max, high)
        rows.append((end, low, argmin, high, argmax, running_min, running_max))
    return Table.from_rows(
        ("decade_end", "min_ratio", "argmin", "max_ratio", "argmax",
         "running_min", "running_max"),
        rows, {"sup_abs_ratio": max(-running_min, running_max)})


def _cmd_dirichlet_sum(config: RunConfig, limit, series, s) -> Table:
    from . import dirichlet

    if series == "unit":
        coeffs = dirichlet.unit_stream(limit)
    else:
        table = acquire_table(limit, config.cache_dir)
        coeffs = _engine("_SERIES_BUILDERS")[series](table, limit)
    return dirichlet.prefix_ratio_scan(coeffs, s, limit)


def _cmd_abel_check(config: RunConfig, n, m, s) -> Table:
    from . import dirichlet

    dec = dirichlet.abel_rearranged_sum(n, m, s)
    gap = abs(dec.direct_sum - dec.rearranged)
    direct = abs(dec.direct_sum)
    rel = gap / direct if direct else (math.inf if gap else 0.0)
    row = (n, m, s, dec.direct_sum, dec.rearranged, gap, rel,
           dec.theta_min if m else math.nan, dec.theta_max if m else math.nan)
    stats = {"boundary_terms": [dec.boundary_terms[0], dec.boundary_terms[1]],
             "remainder": dec.remainder}
    return Table.from_rows(
        ("n", "m", "s", "direct", "rearranged", "abs_diff", "rel_diff",
         "theta_min", "theta_max"),
        [row], stats)


def _cmd_convolution_check(config: RunConfig, limit) -> Table:
    import numpy as np

    from . import dirichlet

    table = acquire_table(limit, config.cache_dir)
    conv = dirichlet.dirichlet_convolution(
        dirichlet.mobius_stream(table, limit),
        dirichlet.divisor_corrected_stream(table, limit))
    expected = dirichlet.one_minus_g_stream(table, limit)
    diff = conv.values[1:] - expected.values[1:]
    grid = geometric_grid(limit)
    stats = {"max_abs_difference": float(np.max(np.abs(diff)))}
    return Table(("n", "convolved", "expected", "difference"),
                 (grid, conv.values[grid], expected.values[grid],
                  diff[grid - 1]), stats)


def _cmd_zeta(config: RunConfig, s) -> Table:
    value = _engine("zeta_function")(s)
    return Table.from_rows(("s", "value", "abs_value"),
                           [(s, value, abs(value))])


def _cmd_xi(config: RunConfig, t) -> Table:
    value = _engine("xi")(t)
    return Table.from_rows(("t", "xi_real", "xi_imag"),
                           [(t, value.real, value.imag)])


def _cmd_zeros(config: RunConfig, t_max, step, t_min) -> Table:
    import numpy as np

    report = _engine("zero_scan")(t_max, step, t_min)
    zeros = np.asarray(report.zeros, dtype=np.float64)
    index = np.arange(1, zeros.size + 1, dtype=np.int64)
    stats = {"prediction": report.prediction,
             "prediction_gap": report.prediction_gap,
             "close_calls": report.close_calls.tolist()}
    return Table(("index", "zero"), (index, zeros), stats,
                 extra={"count": report.count})


def _cmd_zero_census(config: RunConfig, t_max, step) -> Table:
    from .zeta import riemann_von_mangoldt

    report = _engine("zero_scan")(t_max, step)
    rows = []
    # the smooth estimate needs T > 2 pi: the ladder starts at 10
    for height in range(10, int(t_max) + 1, 10):
        count = int((report.zeros <= height).sum())
        estimate = riemann_von_mangoldt(float(height))
        rows.append((height, count, estimate, count - estimate))
    return Table.from_rows(("T", "count", "smooth_estimate", "gap"), rows,
                           {"zero_count": report.count,
                            "close_call_count": len(report.close_calls)})


def _cmd_constants(config: RunConfig, k, n, accelerate) -> Table:
    log_power_constant = _engine("log_power_constant")
    log_power_constant_contour = _engine("log_power_constant_contour")
    rows = []
    for j in range(1, k + 1):
        # k_top = k: one defect walk serves the exponents 1..k
        d = log_power_constant(j, n, accelerate, k)
        c = log_power_constant_contour(j)
        rows.append((j, d.value, d.error_estimate, d.tail_correction,
                     c.value, c.convergence_gap, abs(d.value - c.value)))
    return Table.from_rows(
        ("k", "value", "error_estimate", "tail_correction", "contour_value",
         "contour_convergence_gap", "route_gap"),
        rows)


def _cmd_theta(config: RunConfig, limit, s) -> Table:
    from . import asymptotics

    table = acquire_table(limit, config.cache_dir)
    return asymptotics.theta_deviation_scan(table, s, limit)


def _cmd_divisor_ratio(config: RunConfig, limit, every) -> Table:
    from . import asymptotics

    table = acquire_table(limit, config.cache_dir)
    return asymptotics.divisor_ratio_scan(table, limit, every)


def _cmd_li(config: RunConfig, x) -> Table:
    return Table.from_rows(("x", "li"), [(x, li(x))])


def _cmd_relation_a(config: RunConfig, x_max, s) -> Table:
    from . import asymptotics

    table = acquire_table(x_max, config.cache_dir)
    return asymptotics.prime_count_gap_scan(table, s, x_max)


def _cmd_mertens_constant(config: RunConfig, limit) -> Table:
    from . import asymptotics

    table = acquire_table(limit, config.cache_dir)
    points = []
    n = MERTENS_CONSTANT_N_MIN
    while n <= limit:
        points.append(n)
        n *= 10
    if points[-1] != limit:
        points.append(limit)
    rows = [(p, asymptotics.mertens_constant_estimate(table, p))
            for p in points]
    return Table.from_rows(("n", "estimate"), rows,
                           {"final_estimate": rows[-1][1]})


def _cmd_prime_window(config: RunConfig, h, start, stop) -> Table:
    from . import asymptotics

    table = acquire_table(int(math.ceil((1.0 + h) * stop)), config.cache_dir)
    rows = asymptotics.prime_window_decades(table, h, start, stop)
    return Table.from_rows(("n", "upper", "count"), rows)


def _cmd_identity_explore(config: RunConfig, n=None,
                          limit=None) -> Table:
    from . import arith, asymptotics

    if n is not None:
        probe = asymptotics.floor_identity_probe(arith.mertens_quotients(n))
        rows = [(conv, reading, probe.lhs[conv], probe.rhs[reading],
                 probe.lhs[conv] == probe.rhs[reading])
                for conv in asymptotics.LHS_CONVENTIONS
                for reading in asymptotics.H_READINGS]
        stats = {"k": probe.k, "match_count": len(probe.matches),
                 "bound_holds": probe.bound_holds}
        return Table.from_rows(("convention", "reading", "lhs", "rhs",
                                "match"), rows, stats)
    table = acquire_table(limit, config.cache_dir)
    prefix = arith.mertens_prefix(table, limit)
    sweep = asymptotics.floor_identity_sweep(prefix, table, limit)
    rows = [(conv, reading, sweep.match_counts[(conv, reading)], sweep.total)
            for conv in asymptotics.LHS_CONVENTIONS
            for reading in asymptotics.H_READINGS]
    stats = {"unmatched": sweep.unmatched,
             "bound_violations": sweep.bound_violations}
    return Table.from_rows(("convention", "reading", "matches", "total"),
                           rows, stats)


def _cmd_weierstrass(config: RunConfig, x, a, n_terms) -> Table:
    from . import weierstrass

    cmp = weierstrass.compare_exponent_signs(x, a, n_terms)
    rows = [(ev.exponent_sign, ev.product_value, ev.direct_value,
             ev.relative_error)
            for ev in (cmp.minus, cmp.plus)]
    return Table.from_rows(
        ("exponent_sign", "product", "direct", "relative_error"),
        rows, {"converging_sign": cmp.converging_sign})


def _cmd_cache_build(config: RunConfig, limit, dir) -> Table:
    from . import arith

    target = Path(dir)
    _make_cache_dir(target, "--dir")
    path = _cache_path(target, limit)
    arith.save_cache(arith.build_tables(limit), path)
    return Table.from_rows(("path", "limit", "file_bytes"),
                           [(str(path), limit, path.stat().st_size)])


def _cmd_cache_inspect(config: RunConfig, path) -> Table:
    from . import arith

    target = Path(path)
    if target.is_dir():
        files = _cache_files(target)
        if not files:
            raise CliValidationError(
                f"--path: no mu-*.stjz files under {target}")
    elif target.is_file():
        files = [target]
    else:
        raise CliValidationError(f"--path: {target} does not exist")
    rows = []
    for p in files:
        info = arith.cache_summary(p)
        rows.append((info["path"], info["status"],
                     -1 if info["version"] is None else info["version"],
                     -1 if info["limit"] is None else info["limit"],
                     info["file_bytes"], info["crc_ok"]))
    return Table.from_rows(("path", "status", "version", "limit",
                            "file_bytes", "crc_ok"), rows)


# -- command table -----------------------------------------------------

_REQUIRED = object()  # argparse demands the flag
_UNSET = object()     # the flag is left out of params when not given


class Flag(NamedTuple):
    """One flag of a command. parse(text, flag) turns the given text
    into its value (None keeps the text); check(value) is the library's
    own check, whose ValueError is reported against the flag. default
    stands in when the flag is not given; a bool default makes the flag
    an exclusive --name/--no-name pair."""

    name: str
    parse: Callable | None = None
    default: object = _REQUIRED
    check: Callable | None = None
    choices: tuple | None = None
    help: str | None = None

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")


class Command(NamedTuple):
    """One command: handler(config, **params) -> Table, its help
    line, its flags in params order, a check(params) over several flags,
    and the default output format."""

    handler: Callable
    help: str
    flags: tuple
    check: Callable | None = None
    fmt: str = "csv"


def _block_within_bound(params) -> None:
    if params["n"] + params["m"] > MAX_LIMIT:
        raise CliValidationError(
            f"--n plus --m must stay within {MAX_LIMIT}")


def _t_min_below_t_max(params) -> None:
    if params["t_min"] >= params["t_max"]:
        raise CliValidationError("--t-min must be below --t-max")


def _windows_within_bound(params) -> None:
    if params["stop"] < params["start"]:
        raise CliValidationError(f"--stop must be at least {params['start']}, "
                                 f"got {params['stop']}")
    if (1.0 + params["h"]) * params["stop"] > MAX_LIMIT:
        raise CliValidationError(
            "--stop: window upper edge exceeds the supported table "
            f"bound {MAX_LIMIT}")


def _one_identity_mode(params) -> None:
    if len(params) != 1:
        raise CliValidationError(
            "exactly one of --n (single probe) or --limit (sweep) "
            "is required")


def _on_critical_line(t: float) -> None:
    _require_in_box(complex(0.5, t))


def _exponent_base(a: complex) -> None:
    _check_exp_arg(_check_not_degenerate(a))


def _exponent_pair(params) -> None:
    try:
        _check_exp_pair(params["x"], params["a"])
    except ValueError as exc:
        raise CliValidationError(f"--x: {exc}") from None


_LIMIT = Flag("--limit", NumberRange(int, 1, MAX_LIMIT))
_T_MAX = Flag("--t-max", NumberRange(float, 0.0, ZERO_SCAN_T_MAX, open_lo=True))
_STEP = Flag("--step", NumberRange(float, ZERO_SCAN_STEP_MIN,
                                   ZERO_SCAN_STEP_MAX),
             default=ZERO_SCAN_STEP_MAX)
_EXPONENT = Flag("--s", NumberRange(float), default=0.75,
                 check=_check_exponent)
# a theta or prime-count gap scan ends above its first grid point
_SCAN_END = NumberRange(int, SCAN_START + 1, MAX_LIMIT)

# commands named <group>-<action> are spelled `zetadesk <group> <action>`
_GROUPS = {"cache": "sieve cache management"}

COMMANDS = {
    "mertens": Command(
        _cmd_mertens, "Mobius prefix sums M(n) and M(n)/sqrt(n)",
        (_LIMIT, Flag("--every", NumberRange(int, 1), default=1))),
    "mertens-sweep": Command(
        _cmd_mertens_sweep,
        "extremes of M(n)/sqrt(n) decade by decade, and their running "
        "extremes",
        (Flag("--limit", NumberRange(int, TREND_LIMIT_MIN, MAX_LIMIT)),)),
    "dirichlet-sum": Command(
        _cmd_dirichlet_sum,
        "prefix ratio scan P(n)/n^s of a coefficient stream",
        (Flag("--series", default="mobius",
              choices=("mobius", "unit", "divisor-corrected", "one-minus-g")),
         Flag("--s", NumberRange(float, -10.0, 10.0), help="real exponent"),
         _LIMIT)),
    "abel-check": Command(
        _cmd_abel_check, "summation-by-parts identity over a Mobius block",
        (Flag("--n", NumberRange(int, 2)), Flag("--m", NumberRange(int, 0)),
         Flag("--s", parse_complex, check=_check_half_plane,
              help="complex exponent, RE+IMi")),
        check=_block_within_bound),
    "convolution-check": Command(
        _cmd_convolution_check,
        "Mobius convolution of the corrected divisor stream against its "
        "closed form",
        (Flag("--limit", NumberRange(int, 1, 200_000)),)),
    "zeta": Command(
        _cmd_zeta, "zeta value at one complex point",
        (Flag("--s", parse_complex, check=_require_regular,
              help="complex argument, RE+IMi"),)),
    "xi": Command(
        _cmd_xi, "xi value at one real ordinate",
        (Flag("--t", NumberRange(float), check=_on_critical_line),)),
    "zeros": Command(
        _cmd_zeros, "critical-line zero scan by sign changes",
        (_T_MAX, _STEP, Flag("--t-min", NumberRange(float, 0.0), default=0.0)),
        check=_t_min_below_t_max, fmt="json"),
    "zero-census": Command(
        _cmd_zero_census,
        "zero count against the smooth estimate at T = 10, 20, ...",
        (_T_MAX, _STEP)),
    "constants": Command(
        _cmd_constants,
        "zeta Taylor constants at the origin, defect and contour routes",
        (Flag("--k", NumberRange(int, 1, LOG_POWER_K_MAX),
              default=LOG_POWER_K_MAX),
         Flag("--n", NumberRange(int, LOG_POWER_N_MIN, 2_000_000),
              default=100_000),
         Flag("--accelerate", default=True))),
    "theta": Command(
        _cmd_theta, "Chebyshev theta deviation (theta(n)-n)/n^s",
        (Flag("--limit", _SCAN_END), _EXPONENT)),
    "divisor-ratio": Command(
        _cmd_divisor_ratio, "divisor-sum remainder over sqrt(n)",
        (_LIMIT, Flag("--every", NumberRange(int, 1), default=None))),
    "li": Command(
        _cmd_li, "principal-value logarithmic integral",
        (Flag("--x", NumberRange(float, 1.0, LI_X_MAX, open_lo=True)),)),
    "relation-a": Command(
        _cmd_relation_a,
        "normalized gap between the weighted prime count and li(x)",
        (Flag("--x-max", _SCAN_END), _EXPONENT)),
    "mertens-constant": Command(
        _cmd_mertens_constant, "sum of 1/p minus log log n at decade points",
        (Flag("--limit",
              NumberRange(int, MERTENS_CONSTANT_N_MIN, MAX_LIMIT)),)),
    "prime-window": Command(
        _cmd_prime_window, "prime counts in windows (n, (1+h) n]",
        (Flag("--h", NumberRange(float, 0.0, open_lo=True), default=0.1),
         Flag("--start", NumberRange(int, 1), default=1000),
         Flag("--stop", NumberRange(int, 1), default=1_000_000)),
        check=_windows_within_bound),
    "identity-explore": Command(
        _cmd_identity_explore,
        "floor-quotient identity readings at one n (--n) or match counts "
        "up to --limit",
        (Flag("--n", NumberRange(int, 1, MAX_LIMIT), default=_UNSET),
         Flag("--limit", NumberRange(int, 1, 100_000), default=_UNSET)),
        check=_one_identity_mode),
    "weierstrass": Command(
        _cmd_weierstrass,
        "zero-lattice product against e^x - e^a, both exponent signs",
        (Flag("--x", parse_complex, check=_check_exp_arg,
              help="complex, RE+IMi"),
         Flag("--a", parse_complex, check=_exponent_base,
              help="complex, RE+IMi"),
         Flag("--n-terms", NumberRange(int, 1, 10_000_000), default=10_000)),
        check=_exponent_pair),
    "cache-build": Command(
        _cmd_cache_build, "sieve to --limit and write an STJZ file",
        (_LIMIT, Flag("--dir"))),
    "cache-inspect": Command(
        _cmd_cache_inspect, "report header and checksum status",
        (Flag("--path", help="an STJZ file or a directory of them"),)),
}


# -- argument plumbing -------------------------------------------------

def _add_flag(parser: argparse.ArgumentParser, flag: Flag) -> None:
    if isinstance(flag.default, bool):
        pair = parser.add_mutually_exclusive_group()
        pair.add_argument(flag.name, dest=flag.dest, action="store_true",
                          default=flag.default)
        pair.add_argument(f"--no-{flag.name[2:]}", dest=flag.dest,
                          action="store_false")
    else:
        parser.add_argument(flag.name, required=flag.default is _REQUIRED,
                            choices=flag.choices, help=flag.help)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of every command and group name with its help line.
    The common flags and a command's own go only to the command whose
    words argv starts with, or to every command when argv is None, so a
    run builds the flags of one command."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output table format (default csv; zeros "
                             "defaults to json)")
    common.add_argument("--output", default=None, metavar="PATH",
                        help="write the table here instead of stdout")
    common.add_argument("--cache-dir", default=None, metavar="DIR",
                        help=f"sieve cache directory (default ${CACHE_ENV})")

    parser = argparse.ArgumentParser(
        prog="zetadesk",
        description="Desk-scale experiments on Mertens sums, Dirichlet "
                    "series, and the Riemann xi function.")
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for name, spec in COMMANDS.items():
        group, _, action = name.partition("-")
        words = [group, action] if group in _GROUPS else [name]
        flagged = argv is None or list(argv[:len(words)]) == words
        kw = {"parents": [common] if flagged else [], "help": spec.help}
        if group in _GROUPS:
            if group not in groups:
                groups[group] = sub.add_parser(
                    group, help=_GROUPS[group]).add_subparsers(
                        dest=f"{group}_action", required=True)
            p = groups[group].add_parser(action, **kw)
        else:
            p = sub.add_parser(name, **kw)
        p.set_defaults(command_name=name)
        if flagged:
            for flag in spec.flags:
                _add_flag(p, flag)
    return parser


def _flag_value(flag: Flag, text: str):
    value = text if flag.parse is None else flag.parse(text, flag.name)
    if flag.check is not None:
        try:
            flag.check(value)
        except ValueError as exc:
            raise CliValidationError(f"{flag.name}: {exc}") from None
    return value


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Validate every parameter up front and freeze the run plan."""
    spec = COMMANDS[args.command_name]
    params: dict = {}
    for flag in spec.flags:
        text = getattr(args, flag.dest)
        if text is not None:
            params[flag.dest] = _flag_value(flag, text)
        elif flag.default is not _UNSET:
            params[flag.dest] = flag.default
    if spec.check is not None:
        spec.check(params)
    output = Path(args.output) if args.output else None
    if output is not None and not output.parent.is_dir():
        raise CliValidationError(
            f"--output: directory {output.parent} does not exist")
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV)
    return RunConfig(command=args.command_name, params=params,
                     fmt=args.format or spec.fmt, output=output,
                     cache_dir=Path(cache_dir) if cache_dir else None)


def run(config: RunConfig) -> Iterable[str]:
    """The command's table as blocks of text, rendered as they are
    read. A table of at most one block of rows is rendered whole by
    render_csv or render_json, the names perfbench's tracer times as
    the render stage."""
    table = COMMANDS[config.command].handler(config, **config.params)
    whole = len(table.rows) <= KERNEL_ROWS
    if config.fmt == "json":
        head = {"command": config.command, "params": config.params}
        return [render_json(table, head)] if whole else json_blocks(table, head)
    return [render_csv(table)] if whole else csv_blocks(table)


def _write_stdout(blocks: Iterable[str]) -> None:
    """The blocks to stdout, each as it comes. A reader that has gone
    away stops the run: stdout is pointed at os.devnull so that the
    flush at exit stays silent, and the rest is not rendered."""
    try:
        for block in blocks:
            sys.stdout.write(block)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv=None) -> int:
    # numpy's OpenBLAS starts a spinning worker thread at import, and no
    # command makes a BLAS call that would use it; a caller's value wins
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        config = _resolve_config(args)
        blocks = run(config)
        if config.output is not None:
            from .files import replace_atomically

            replace_atomically(config.output, blocks, "w", encoding="utf-8",
                               newline="")
        else:
            _write_stdout(blocks)
    except CliValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # pragma: no cover
        raise
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    # A run ends without the interpreter's teardown: what main wrote is
    # closed, and stdout (through the broken-pipe handling of every
    # write) and stderr are flushed here.
    code = main()
    _write_stdout(())
    sys.stderr.flush()
    os._exit(code)
