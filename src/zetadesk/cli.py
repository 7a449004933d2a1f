"""Command-line frontend.

One subcommand per experiment; every run writes a single table, CSV or
JSON, to standard output or --output. Exit codes: 0 success, 1 a
computation failed, 2 a flag failed validation (the message names it).

CSV uses LF line endings, a header row, and floats at 17 significant
digits so values round-trip binary64 exactly. JSON keeps insertion key
order and repr-level float precision. Identical parameters and cache
state therefore reproduce byte-identical output.

Sieve tables are rebuilt per run unless --cache-dir (or the
ZETADESK_CACHE_DIR environment variable) points at a directory; the
smallest cached table covering the requested limit is loaded, and a
fresh build is saved there for next time.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import arith, asymptotics, dirichlet, weierstrass
from .reports import (RowView, check_columns, columns_from_rows,
                      geometric_grid, json_value, render_csv_table,
                      render_json_table)
from .zeta import (IM_MAX, RE_MAX, RE_MIN, log_power_constant,
                   log_power_constant_contour, xi, zero_scan)
from .zeta import zeta as zeta_function

CACHE_ENV = "ZETADESK_CACHE_DIR"

_CLI_CONSTANTS_N_CAP = 2_000_000
_CLI_PRODUCT_TERMS_CAP = 10_000_000


class CliValidationError(Exception):
    """Bad parameter value; the message names the offending flag."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a dispatch needs: the command, its validated
    parameters in declaration order, and the I/O choices."""

    command: str
    params: dict
    fmt: str
    output: Path | None
    cache_dir: Path | None


@dataclass(frozen=True)
class CommandOutput:
    """Uniform table result, held as columns: data has one numpy array
    (numeric) or list (other cells) per name in columns. extra lands at
    the top level of the JSON body (the zeros command promises a
    top-level count there); stats only appear in JSON, never in CSV."""

    command: str
    params: dict
    columns: tuple
    data: tuple
    stats: dict
    extra: dict

    @property
    def rows(self) -> RowView:
        return RowView(self.data)


def _make_output(config, columns, data, stats=None, extra=None) -> CommandOutput:
    return CommandOutput(command=config.command, params=dict(config.params),
                         columns=tuple(columns),
                         data=check_columns(columns, data),
                         stats=dict(stats or {}), extra=dict(extra or {}))


def _rows_output(config, columns, rows, stats=None, extra=None) -> CommandOutput:
    """_make_output for the short tables that are natural to write as rows."""
    return _make_output(config, columns, columns_from_rows(rows), stats, extra)


# -- parameter parsing -------------------------------------------------

_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(rf"^([+-]?{_NUM})(?:([+-])({_NUM})i)?$")


def parse_complex(text: str, flag: str) -> complex:
    """Grammar RE, RE+IMi, RE-IMi; anything else is a validation error."""
    m = _COMPLEX_RE.match(text.strip())
    if not m:
        raise CliValidationError(
            f"{flag}: expected RE, RE+IMi or RE-IMi, got {text!r}")
    real = float(m.group(1))
    if m.group(2) is None:
        return complex(real, 0.0)
    imag = float(m.group(3))
    if m.group(2) == "-":
        imag = -imag
    return complex(real, imag)


def _need_int(value, flag, lo=None, hi=None) -> int:
    if value is None:
        raise CliValidationError(f"{flag} is required")
    try:
        value = int(value)
    except (TypeError, ValueError):
        raise CliValidationError(f"{flag} must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise CliValidationError(f"{flag} must be at least {lo}, got {value}")
    if hi is not None and value > hi:
        raise CliValidationError(f"{flag} must be at most {hi}, got {value}")
    return value


def _need_float(value, flag, lo=None, hi=None, open_lo=False) -> float:
    if value is None:
        raise CliValidationError(f"{flag} is required")
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise CliValidationError(f"{flag} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise CliValidationError(f"{flag} must be finite, got {value}")
    if lo is not None and (value <= lo if open_lo else value < lo):
        bound = "more than" if open_lo else "at least"
        raise CliValidationError(f"{flag} must be {bound} {lo}, got {value}")
    if hi is not None and value > hi:
        raise CliValidationError(f"{flag} must be at most {hi}, got {value}")
    return value


# -- output rendering --------------------------------------------------

def render_csv(out: CommandOutput) -> str:
    return render_csv_table(out.columns, out.data)


def render_json(out: CommandOutput) -> str:
    head = {"command": out.command, "params": json_value(out.params)}
    for key, value in out.extra.items():
        head[key] = json_value(value)
    head["columns"] = list(out.columns)
    return render_json_table(head, out.data, {"stats": json_value(out.stats)})


# -- sieve cache -------------------------------------------------------

def _cache_files(cache_dir: Path) -> list[Path]:
    """The mu-<number>.stjz files in cache_dir, sorted by name."""
    return [p for p in sorted(cache_dir.glob("mu-*.stjz"))
            if p.stem[3:].isdigit()]


def acquire_table(limit: int, cache_dir: Path | None) -> arith.ArithTable:
    """Smallest cached table covering limit, else a fresh build (saved
    back to the cache directory when one is configured).

    Coverage is read from each file's header, never from its name. A
    chosen file that fails to load is reported on stderr, rebuilt and
    replaced, so one bad file cannot break later runs.
    """
    if cache_dir is None:
        return arith.build_tables(limit)
    cache_dir.mkdir(parents=True, exist_ok=True)
    covering = []
    for path in _cache_files(cache_dir):
        try:
            stored = arith.read_cache_limit(path)
        except (arith.CacheError, OSError):
            continue
        if stored >= limit:
            covering.append((stored, path))
    broken = None
    if covering:
        try:
            return arith.load_cache(min(covering)[1])
        except arith.CacheError as exc:
            print(f"warning: {exc}; rebuilding the cache file",
                  file=sys.stderr)
            broken = min(covering)[1]
    table = arith.build_tables(limit)
    target = cache_dir / f"mu-{limit}.stjz"
    arith.save_cache(table, target)
    if broken is not None and broken != target:
        broken.unlink(missing_ok=True)
    return table


# -- command handlers --------------------------------------------------

def _cmd_mertens(config: RunConfig) -> CommandOutput:
    limit = config.params["limit"]
    every = config.params["every"]
    table = acquire_table(limit, config.cache_dir)
    grid = np.arange(every, limit + 1, every, dtype=np.int64)
    if grid.size == 0:
        grid = np.array([limit], dtype=np.int64)
    # M at the grid rows only; no full-length prefix is ever formed
    values = np.empty(grid.size, dtype=np.int32)
    for lo, part in arith.mertens_chunks(table, limit):
        hit = slice(*np.searchsorted(grid, (lo + 1, lo + part.size + 1)))
        values[hit] = part[grid[hit] - lo - 1]
    ratios = grid.astype(np.float64)
    np.sqrt(ratios, out=ratios)
    np.divide(values, ratios, out=ratios)
    stats = {"observed_min_ratio": float(ratios.min()),
             "observed_max_ratio": float(ratios.max())}
    return _make_output(config, ("n", "M", "ratio"), (grid, values, ratios),
                        stats)


# series the scan reads chunk by chunk straight off the table
_SERIES_CHUNKS = {
    "mobius": dirichlet.mobius_chunks,
    "divisor-corrected": dirichlet.divisor_corrected_chunks,
}
# series built whole first: its prime-power weights are scattered
_SERIES_BUILDERS = {
    "one-minus-g": dirichlet.one_minus_g_stream,
}


def _cmd_dirichlet_sum(config: RunConfig) -> CommandOutput:
    limit = config.params["limit"]
    series = config.params["series"]
    s = config.params["s"]
    if series == "unit":
        coeffs = dirichlet.unit_chunks(limit)
    else:
        table = acquire_table(limit, config.cache_dir)
        make = _SERIES_CHUNKS.get(series) or _SERIES_BUILDERS[series]
        coeffs = make(table, limit)
    report = dirichlet.prefix_ratio_scan(coeffs, s, limit)
    return _make_output(config, report.columns, report.data, report.stats)


def _cmd_abel_check(config: RunConfig) -> CommandOutput:
    n = config.params["n"]
    m = config.params["m"]
    s = config.params["s"]
    table = acquire_table(n + m, config.cache_dir)
    prefix = arith.mertens_prefix(table, n + m)
    dec = dirichlet.abel_rearranged_sum(prefix, s, n, m)
    gap = abs(dec.direct_sum - dec.rearranged)
    rel = gap / abs(dec.direct_sum) if dec.direct_sum != 0 else math.inf
    row = (n, m, s, dec.direct_sum, dec.rearranged, gap, rel,
           float(dec.thetas.min()) if dec.thetas.size else math.nan,
           float(dec.thetas.max()) if dec.thetas.size else math.nan)
    stats = {"boundary_terms": [dec.boundary_terms[0], dec.boundary_terms[1]],
             "remainder": dec.remainder}
    return _rows_output(
        config,
        ("n", "m", "s", "direct", "rearranged", "abs_diff", "rel_diff",
         "theta_min", "theta_max"),
        [row], stats)


def _cmd_convolution_check(config: RunConfig) -> CommandOutput:
    limit = config.params["limit"]
    table = acquire_table(limit, config.cache_dir)
    conv = dirichlet.dirichlet_convolution(
        dirichlet.mobius_stream(table, limit),
        dirichlet.divisor_corrected_stream(table, limit))
    expected = dirichlet.one_minus_g_stream(table, limit)
    diff = conv.values[1:] - expected.values[1:]
    grid = geometric_grid(limit)
    stats = {"max_abs_difference": float(np.max(np.abs(diff)))}
    return _make_output(config, ("n", "convolved", "expected", "difference"),
                        (grid, conv.values[grid], expected.values[grid],
                         diff[grid - 1]), stats)


def _cmd_zeta(config: RunConfig) -> CommandOutput:
    s = config.params["s"]
    value = zeta_function(s)
    return _rows_output(config, ("s", "value", "abs_value"),
                        [(s, value, abs(value))])


def _cmd_xi(config: RunConfig) -> CommandOutput:
    t = config.params["t"]
    value = xi(t)
    return _rows_output(config, ("t", "xi_real", "xi_imag"),
                        [(t, value.real, value.imag)])


def _cmd_zeros(config: RunConfig) -> CommandOutput:
    report = zero_scan(config.params["t_max"], config.params["step"],
                            config.params["t_min"])
    zeros = np.asarray(report.zeros, dtype=np.float64)
    index = np.arange(1, zeros.size + 1, dtype=np.int64)
    stats = {"prediction": report.prediction,
             "prediction_gap": report.prediction_gap,
             "close_calls": report.close_calls.tolist()}
    return _make_output(config, ("index", "zero"), (index, zeros), stats,
                        extra={"count": report.count})


def _cmd_constants(config: RunConfig) -> CommandOutput:
    k_max = config.params["k"]
    n = config.params["n"]
    accelerate = config.params["accelerate"]
    rows = []
    for k in range(1, k_max + 1):
        d = log_power_constant(k, n, accelerate)
        c = log_power_constant_contour(k)
        rows.append((k, d.value, d.error_estimate, d.tail_correction,
                     c.value, c.convergence_gap, abs(d.value - c.value)))
    return _rows_output(
        config,
        ("k", "value", "error_estimate", "tail_correction", "contour_value",
         "contour_convergence_gap", "route_gap"),
        rows)


def _cmd_theta(config: RunConfig) -> CommandOutput:
    limit = config.params["limit"]
    s = config.params["s"]
    table = acquire_table(limit, config.cache_dir)
    report = asymptotics.theta_deviation_scan(table, s, limit)
    return _make_output(config, report.columns, report.data, report.stats)


def _cmd_divisor_ratio(config: RunConfig) -> CommandOutput:
    limit = config.params["limit"]
    every = config.params["every"]
    table = acquire_table(limit, config.cache_dir)
    report = asymptotics.divisor_ratio_scan(table, limit, every)
    return _make_output(config, report.columns, report.data, report.stats)


def _cmd_li(config: RunConfig) -> CommandOutput:
    x = config.params["x"]
    return _rows_output(config, ("x", "li"), [(x, asymptotics.li(x))])


def _cmd_relation_a(config: RunConfig) -> CommandOutput:
    x_max = config.params["x_max"]
    s = config.params["s"]
    table = acquire_table(x_max, config.cache_dir)
    report = asymptotics.prime_count_gap_scan(table, s, x_max)
    return _make_output(config, report.columns, report.data, report.stats)


def _cmd_mertens_constant(config: RunConfig) -> CommandOutput:
    limit = config.params["limit"]
    table = acquire_table(limit, config.cache_dir)
    points = []
    n = 10
    while n <= limit:
        points.append(n)
        n *= 10
    if points[-1] != limit:
        points.append(limit)
    rows = [(p, asymptotics.mertens_constant_estimate(table, p))
            for p in points]
    return _rows_output(config, ("n", "estimate"), rows,
                        {"final_estimate": rows[-1][1]})


def _cmd_prime_window(config: RunConfig) -> CommandOutput:
    h = config.params["h"]
    start = config.params["start"]
    stop = config.params["stop"]
    table = acquire_table(int(math.ceil((1.0 + h) * stop)), config.cache_dir)
    rows = asymptotics.prime_window_decades(table, h, start, stop)
    return _rows_output(config, ("n", "upper", "count"), rows)


def _cmd_identity_explore(config: RunConfig) -> CommandOutput:
    if "n" in config.params:
        n = config.params["n"]
        table = acquire_table(n, config.cache_dir)
        prefix = arith.mertens_prefix(table, n)
        probe = asymptotics.floor_identity_probe(prefix, table, n)
        rows = [(conv, reading, probe.lhs[conv], probe.rhs[reading],
                 probe.lhs[conv] == probe.rhs[reading])
                for conv in asymptotics.LHS_CONVENTIONS
                for reading in asymptotics.H_READINGS]
        stats = {"k": probe.k, "match_count": len(probe.matches),
                 "bound_holds": probe.bound_holds}
        return _rows_output(config, ("convention", "reading", "lhs", "rhs",
                                     "match"), rows, stats)
    limit = config.params["limit"]
    table = acquire_table(limit, config.cache_dir)
    prefix = arith.mertens_prefix(table, limit)
    sweep = asymptotics.floor_identity_sweep(prefix, table, limit)
    rows = [(conv, reading, sweep.match_counts[(conv, reading)], sweep.total)
            for conv in asymptotics.LHS_CONVENTIONS
            for reading in asymptotics.H_READINGS]
    stats = {"unmatched": sweep.unmatched,
             "bound_violations": sweep.bound_violations}
    return _rows_output(config, ("convention", "reading", "matches", "total"),
                        rows, stats)


def _cmd_weierstrass(config: RunConfig) -> CommandOutput:
    x = config.params["x"]
    a = config.params["a"]
    n_terms = config.params["n_terms"]
    cmp = weierstrass.compare_exponent_signs(x, a, n_terms)
    rows = [(ev.exponent_sign, ev.product_value, ev.direct_value,
             ev.relative_error)
            for ev in (cmp.minus, cmp.plus)]
    return _rows_output(config,
                        ("exponent_sign", "product", "direct",
                         "relative_error"),
                        rows, {"converging_sign": cmp.converging_sign})


def _cmd_cache_build(config: RunConfig) -> CommandOutput:
    limit = config.params["limit"]
    target = Path(config.params["dir"])
    target.mkdir(parents=True, exist_ok=True)
    path = target / f"mu-{limit}.stjz"
    arith.save_cache(arith.build_tables(limit), path)
    return _rows_output(config, ("path", "limit", "file_bytes"),
                        [(str(path), limit, path.stat().st_size)])


def _cmd_cache_inspect(config: RunConfig) -> CommandOutput:
    target = Path(config.params["path"])
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
    return _rows_output(config, ("path", "status", "version", "limit",
                                 "file_bytes", "crc_ok"), rows)


_HANDLERS = {
    "mertens": _cmd_mertens,
    "dirichlet-sum": _cmd_dirichlet_sum,
    "abel-check": _cmd_abel_check,
    "convolution-check": _cmd_convolution_check,
    "zeta": _cmd_zeta,
    "xi": _cmd_xi,
    "zeros": _cmd_zeros,
    "constants": _cmd_constants,
    "theta": _cmd_theta,
    "divisor-ratio": _cmd_divisor_ratio,
    "li": _cmd_li,
    "relation-a": _cmd_relation_a,
    "mertens-constant": _cmd_mertens_constant,
    "prime-window": _cmd_prime_window,
    "identity-explore": _cmd_identity_explore,
    "weierstrass": _cmd_weierstrass,
    "cache-build": _cmd_cache_build,
    "cache-inspect": _cmd_cache_inspect,
}


# -- argument plumbing -------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("mertens", parents=[common],
                       help="Mobius prefix sums M(n) and M(n)/sqrt(n)")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--every", type=int, default=1)

    p = sub.add_parser("dirichlet-sum", parents=[common],
                       help="prefix ratio scan P(n)/n^s of a coefficient "
                            "stream")
    p.add_argument("--series", choices=("mobius", "unit", "divisor-corrected",
                                        "one-minus-g"), default="mobius")
    p.add_argument("--s", required=True, help="real exponent")
    p.add_argument("--limit", type=int, required=True)

    p = sub.add_parser("abel-check", parents=[common],
                       help="summation-by-parts identity over a Mobius block")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", required=True, help="complex exponent, RE+IMi")

    p = sub.add_parser("convolution-check", parents=[common],
                       help="Mobius convolution of the corrected divisor "
                            "stream against its closed form")
    p.add_argument("--limit", type=int, required=True)

    p = sub.add_parser("zeta", parents=[common],
                       help="zeta value at one complex point")
    p.add_argument("--s", required=True, help="complex argument, RE+IMi")

    p = sub.add_parser("xi", parents=[common],
                       help="xi value at one real ordinate")
    p.add_argument("--t", required=True)

    p = sub.add_parser("zeros", parents=[common],
                       help="critical-line zero scan by sign changes")
    p.add_argument("--t-max", required=True)
    p.add_argument("--step", default="0.05")
    p.add_argument("--t-min", default="0")

    p = sub.add_parser("constants", parents=[common],
                       help="zeta Taylor constants at the origin, defect "
                            "and contour routes")
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--n", type=int, default=100_000)
    acc = p.add_mutually_exclusive_group()
    acc.add_argument("--accelerate", dest="accelerate", action="store_true",
                     default=True)
    acc.add_argument("--no-accelerate", dest="accelerate",
                     action="store_false")

    p = sub.add_parser("theta", parents=[common],
                       help="Chebyshev theta deviation (theta(n)-n)/n^s")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--s", default="0.75")

    p = sub.add_parser("divisor-ratio", parents=[common],
                       help="divisor-sum remainder over sqrt(n)")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--every", type=int, default=None)

    p = sub.add_parser("li", parents=[common],
                       help="principal-value logarithmic integral")
    p.add_argument("--x", required=True)

    p = sub.add_parser("relation-a", parents=[common],
                       help="normalized gap between the weighted prime "
                            "count and li(x)")
    p.add_argument("--x-max", type=int, required=True)
    p.add_argument("--s", default="0.75")

    p = sub.add_parser("mertens-constant", parents=[common],
                       help="sum of 1/p minus log log n at decade points")
    p.add_argument("--limit", type=int, required=True)

    p = sub.add_parser("prime-window", parents=[common],
                       help="prime counts in windows (n, (1+h) n]")
    p.add_argument("--h", default="0.1")
    p.add_argument("--start", type=int, default=1000)
    p.add_argument("--stop", type=int, default=1_000_000)

    p = sub.add_parser("identity-explore", parents=[common],
                       help="floor-quotient identity readings at one n "
                            "(--n) or match counts up to --limit")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--limit", type=int, default=None)

    p = sub.add_parser("weierstrass", parents=[common],
                       help="zero-lattice product against e^x - e^a, both "
                            "exponent signs")
    p.add_argument("--x", required=True, help="complex, RE+IMi")
    p.add_argument("--a", required=True, help="complex, RE+IMi")
    p.add_argument("--n-terms", type=int, default=10_000)

    p = sub.add_parser("cache", parents=[],
                       help="sieve cache management")
    cache_sub = p.add_subparsers(dest="cache_action", required=True)
    pb = cache_sub.add_parser("build", parents=[common],
                              help="sieve to --limit and write an STJZ file")
    pb.add_argument("--limit", type=int, required=True)
    pb.add_argument("--dir", required=True)
    pi = cache_sub.add_parser("inspect", parents=[common],
                              help="report header and checksum status")
    pi.add_argument("--path", required=True,
                    help="an STJZ file or a directory of them")
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Validate every parameter up front and freeze the run plan."""
    command = args.command
    if command == "cache":
        command = f"cache-{args.cache_action}"
    fmt = args.format or ("json" if command == "zeros" else "csv")
    output = Path(args.output) if args.output else None
    cache_env = os.environ.get(CACHE_ENV)
    cache_dir = None
    if getattr(args, "cache_dir", None):
        cache_dir = Path(args.cache_dir)
    elif cache_env:
        cache_dir = Path(cache_env)

    params: dict = {}
    if command == "mertens":
        params["limit"] = _need_int(args.limit, "--limit", 1, arith.MAX_LIMIT)
        params["every"] = _need_int(args.every, "--every", 1)
    elif command == "dirichlet-sum":
        params["series"] = args.series
        params["s"] = _need_float(args.s, "--s", -10.0, 10.0)
        params["limit"] = _need_int(args.limit, "--limit", 1, arith.MAX_LIMIT)
    elif command == "abel-check":
        params["n"] = _need_int(args.n, "--n", 2)
        params["m"] = _need_int(args.m, "--m", 0)
        s = parse_complex(args.s, "--s")
        if s.real <= 0:
            raise CliValidationError(
                "--s needs a positive real part for the mean-value record")
        params["s"] = s
        if params["n"] + params["m"] > arith.MAX_LIMIT:
            raise CliValidationError(
                f"--n plus --m must stay within {arith.MAX_LIMIT}")
    elif command == "convolution-check":
        params["limit"] = _need_int(args.limit, "--limit", 1, 200_000)
    elif command == "zeta":
        s = parse_complex(args.s, "--s")
        if not (RE_MIN <= s.real <= RE_MAX
                and abs(s.imag) <= IM_MAX):
            raise CliValidationError(
                f"--s must lie in [{RE_MIN:g}, {RE_MAX:g}] x "
                f"[-{IM_MAX:g}, {IM_MAX:g}]i")
        if s == 1.0:
            raise CliValidationError("--s: zeta has a pole at s = 1")
        params["s"] = s
    elif command == "xi":
        params["t"] = _need_float(args.t, "--t", -IM_MAX, IM_MAX)
    elif command == "zeros":
        params["t_max"] = _need_float(args.t_max, "--t-max", 0.0, 100.0,
                                      open_lo=True)
        params["step"] = _need_float(args.step, "--step", 0.0, 0.05,
                                     open_lo=True)
        params["t_min"] = _need_float(args.t_min, "--t-min", 0.0)
        if params["t_min"] >= params["t_max"]:
            raise CliValidationError("--t-min must be below --t-max")
    elif command == "constants":
        params["k"] = _need_int(args.k, "--k", 1, 8)
        params["n"] = _need_int(args.n, "--n", 1000, _CLI_CONSTANTS_N_CAP)
        params["accelerate"] = bool(args.accelerate)
    elif command == "theta":
        params["limit"] = _need_int(args.limit, "--limit", 11,
                                    arith.MAX_LIMIT)
        params["s"] = _need_float(args.s, "--s", 0.0, 1.0, open_lo=True)
    elif command == "divisor-ratio":
        params["limit"] = _need_int(args.limit, "--limit", 1,
                                    arith.MAX_LIMIT)
        if args.every is not None:
            params["every"] = _need_int(args.every, "--every", 1)
        else:
            params["every"] = None
    elif command == "li":
        params["x"] = _need_float(args.x, "--x", 1.0, open_lo=True)
    elif command == "relation-a":
        params["x_max"] = _need_int(args.x_max, "--x-max", 11,
                                    arith.MAX_LIMIT)
        params["s"] = _need_float(args.s, "--s", 0.0, 1.0, open_lo=True)
    elif command == "mertens-constant":
        params["limit"] = _need_int(args.limit, "--limit", 10,
                                    arith.MAX_LIMIT)
    elif command == "prime-window":
        params["h"] = _need_float(args.h, "--h", 0.0, open_lo=True)
        params["start"] = _need_int(args.start, "--start", 1)
        params["stop"] = _need_int(args.stop, "--stop", params["start"])
        if (1.0 + params["h"]) * params["stop"] > arith.MAX_LIMIT:
            raise CliValidationError(
                "--stop: window upper edge exceeds the supported table "
                f"bound {arith.MAX_LIMIT}")
    elif command == "identity-explore":
        if (args.n is None) == (args.limit is None):
            raise CliValidationError(
                "exactly one of --n (single probe) or --limit (sweep) "
                "is required")
        if args.n is not None:
            params["n"] = _need_int(args.n, "--n", 1, arith.MAX_LIMIT)
        else:
            params["limit"] = _need_int(args.limit, "--limit", 1, 100_000)
    elif command == "weierstrass":
        x = parse_complex(args.x, "--x")
        a = parse_complex(args.a, "--a")
        if abs(x.real) > 700.0:
            raise CliValidationError("--x: e^x overflows binary64")
        if abs(a.real) > 700.0:
            raise CliValidationError("--a: e^a overflows binary64")
        k = round(a.imag / (2.0 * math.pi))
        if abs(a.real) < 1e-8 and abs(a.imag - 2.0 * math.pi * k) < 1e-8:
            raise CliValidationError(
                "--a: within 1e-8 of a multiple of 2 pi i, where the "
                "product degenerates")
        params["x"] = x
        params["a"] = a
        params["n_terms"] = _need_int(args.n_terms, "--n-terms", 1,
                                      _CLI_PRODUCT_TERMS_CAP)
    elif command == "cache-build":
        params["limit"] = _need_int(args.limit, "--limit", 1,
                                    arith.MAX_LIMIT)
        params["dir"] = str(args.dir)
    elif command == "cache-inspect":
        params["path"] = str(args.path)
    else:  # pragma: no cover - argparse restricts the choices
        raise CliValidationError(f"unknown command {command!r}")
    return RunConfig(command=command, params=params, fmt=fmt, output=output,
                     cache_dir=cache_dir)


def run(config: RunConfig) -> str:
    out = _HANDLERS[config.command](config)
    if config.fmt == "json":
        return render_json(out)
    return render_csv(out)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        config = _resolve_config(args)
        text = run(config)
    except CliValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # pragma: no cover
        raise
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if config.output is not None:
        config.output.write_bytes(text.encode("utf-8"))
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
