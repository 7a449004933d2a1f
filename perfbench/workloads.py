"""The four benchmark workloads and the checks on their outputs.

A workload is a fixed list of `zetadesk` invocations. The seed varies
some inputs mildly without changing the amount of work (zeta and xi
points, the abel-check block offset, the weierstrass pairs, the
identity-explore point) and picks the rows that the checks sample.
Every check compares the program's output with a value computed in
`oracles`, never with a stored copy of earlier output.
"""

from __future__ import annotations

import io
import json
import math
import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

# ratio columns recomputed with the same binary64 operations may still
# differ by an ulp or two if the program reorders them
ULPS = 4 * np.finfo(np.float64).eps


class CheckError(Exception):
    """An operation's output is wrong; the message says where."""


@dataclass(frozen=True)
class Op:
    """One `zetadesk` invocation and the check on its standard output.

    An op whose arguments name a --cache-dir is also run once without
    it in the check phase, and both outputs must be byte-identical.
    """

    args: tuple[str, ...]
    check: Callable[[str], None] = field(compare=False)

    @property
    def uncached_args(self) -> tuple[str, ...] | None:
        if "--cache-dir" not in self.args:
            return None
        i = self.args.index("--cache-dir")
        return self.args[:i] + self.args[i + 2:]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(got: float, want: float, tol: float, what: str) -> None:
    _require(abs(got - want) <= tol, f"{what}: got {got!r}, want {want!r} (tol {tol:g})")


# -- output formats ------------------------------------------------------

def _csv_body(text: str, columns: tuple[str, ...]) -> str:
    """The rows of a CSV output after checking its line endings and header."""
    _require("\r" not in text, "CSV has CR characters")
    _require(text.endswith("\n"), "CSV does not end with LF")
    header, _, body = text.partition("\n")
    _require(header == ",".join(columns), f"CSV header {header!r}, want {','.join(columns)!r}")
    return body


def _require_count(got: int, want: int | None) -> None:
    _require(want is None or got == want, f"CSV has {got} rows, want {want}")


def csv_rows(text: str, columns: tuple[str, ...], count: int | None = None) -> list[list[str]]:
    rows = [line.split(",") for line in _csv_body(text, columns)[:-1].split("\n")]
    _require_count(len(rows), count)
    for row in rows:
        _require(len(row) == len(columns), f"CSV row {row!r} has the wrong width")
    return rows


def csv_numbers(text: str, columns: tuple[str, ...], count: int | None = None) -> np.ndarray:
    """All-numeric CSV as a float64 array, one column per field."""
    body = _csv_body(text, columns)
    table = np.loadtxt(io.StringIO(body), delimiter=",", dtype=np.float64, ndmin=2)
    _require_count(table.shape[0], count)
    _require(table.shape[1] == len(columns), "CSV rows have the wrong width")
    return table


def json_body(text: str, extras: tuple[str, ...] = ()) -> dict:
    _require(text.endswith("\n"), "JSON does not end with LF")
    body = json.loads(text)
    keys = ["command", "params", *extras, "columns", "rows", "stats"]
    _require(list(body) == keys, f"JSON keys {list(body)}, want {keys}")
    return body


def parse_complex(text: str) -> complex:
    """A cell in the grammar RE+IMi or RE-IMi."""
    body = text[:-1]
    for i in range(len(body) - 1, 0, -1):
        if body[i] in "+-" and body[i - 1] not in "eE" and text.endswith("i"):
            return complex(float(body[:i]), float(body[i:]))
    raise CheckError(f"not a complex cell: {text!r}")


def fmt_complex(z: complex) -> str:
    """RE+IMi; pass it as --flag=VALUE, since a leading minus reads as a flag."""
    return f"{z.real!r}{'-' if z.imag < 0 else '+'}{abs(z.imag)!r}i"


# -- checks per command --------------------------------------------------

def _mertens_column(n: np.ndarray, m: np.ndarray, ratio: np.ndarray,
                    rng: random.Random, oracle: oracles.Mertens) -> None:
    for x, want in oracles.MERTENS_PUBLISHED.items():
        hit = np.nonzero(n == x)[0]
        if hit.size:
            _require(m[hit[0]] == want, f"M({x}) = {m[hit[0]]:g}, published {want}")
    _require(np.all(np.abs(ratio - m / np.sqrt(n)) <= ULPS * np.abs(ratio)),
             "ratio column differs from M/sqrt(n)")
    for i in sorted(rng.sample(range(len(n)), min(8, len(n)))) + [len(n) - 1]:
        _require(m[i] == oracle(int(n[i])), f"M({int(n[i])}) = {m[i]:g}, recursion gives {oracle(int(n[i]))}")
    # consecutive rows: each increment is one value of mu
    steps = np.nonzero(np.diff(n) == 1)[0]
    for i in rng.sample(steps.tolist(), min(300, steps.size)):
        x = int(n[i + 1])
        _require(m[i + 1] - m[i] == oracles.mobius_trial(x), f"M({x}) - M({x - 1}) is not mu({x})")


def check_mertens_csv(text: str, limit: int, every: int, rng: random.Random) -> None:
    table = csv_numbers(text, ("n", "M", "ratio"), limit // every)
    n, m, ratio = table.T
    _require(np.array_equal(n, np.arange(every, limit + 1, every)), "n column is not the grid")
    _mertens_column(n, m, ratio, rng, oracles.Mertens(limit))


def check_mertens_json(text: str, limit: int, rng: random.Random) -> None:
    body = json_body(text)
    _require(body["params"] == {"limit": limit, "every": 1}, f"params {body['params']}")
    _require(body["columns"] == ["n", "M", "ratio"], "columns")
    rows = np.asarray(body["rows"], dtype=np.float64)
    _require(rows.shape == (limit, 3), f"rows shape {rows.shape}")
    n, m, ratio = rows.T
    _require(np.array_equal(n, np.arange(1, limit + 1)), "n column is not 1..limit")
    _mertens_column(n, m, ratio, rng, oracles.Mertens(limit))
    _require(body["stats"] == {"observed_min_ratio": float(ratio.min()),
                               "observed_max_ratio": float(ratio.max())},
             "stats disagree with the ratio column")


def check_mobius_sum(text: str, limit: int, rng: random.Random) -> None:
    """dirichlet-sum --series mobius --s 0.5: the prefix is M(n)."""
    grid = oracles.geometric_grid(limit)
    n, prefix, ratio = csv_numbers(text, ("n", "prefix", "ratio"), len(grid)).T
    _require(np.array_equal(n, grid), "n column is not the scan grid")
    _require(np.all(prefix == np.round(prefix)), "Mobius prefix is not integral")
    _mertens_column(n, prefix, ratio, rng, oracles.Mertens(limit))


def check_divisor_ratio(text: str, limit: int, every: int | None, rng: random.Random) -> None:
    grid = (np.arange(every, limit + 1, every) if every
            else np.asarray(oracles.geometric_grid(limit)))
    n, ratio = csv_numbers(text, ("n", "ratio"), grid.size).T
    _require(np.array_equal(n, grid), "n column is not the grid")
    summatory = np.cumsum(oracles.divisor_count_table(limit))
    for i in rng.sample(range(grid.size), min(20, grid.size)) + [grid.size - 1]:
        x = int(grid[i])
        _require(summatory[x] == oracles.divisor_summatory(x), f"divisor table disagrees at {x}")
    c2 = 2.0 * oracles.euler_gamma() - 1.0
    nf = grid.astype(np.float64)
    want = (summatory[grid].astype(np.float64) - nf * np.log(nf) - c2 * nf) / np.sqrt(nf)
    worst = int(np.argmax(np.abs(ratio - want)))
    _close(ratio[worst], want[worst], 1e-9, f"divisor ratio at {grid[worst]}")


def check_divisor_corrected_sum(text: str, limit: int, rng: random.Random) -> None:
    """dirichlet-sum --series divisor-corrected --s 0.5: the prefix is
    D(n) - log n! - 2 gamma n."""
    grid = oracles.geometric_grid(limit)
    n, prefix, ratio = csv_numbers(text, ("n", "prefix", "ratio"), len(grid)).T
    _require(np.array_equal(n, grid), "n column is not the scan grid")
    _require(np.all(np.abs(ratio - prefix / np.sqrt(n)) <= ULPS * np.abs(ratio)),
             "ratio column differs from prefix/sqrt(n)")
    # the program sums n binary64 terms in order; allow that many roundings
    # of the largest partial sum (terms stay below 30 in size)
    tol = limit * np.finfo(np.float64).eps * (float(np.max(np.abs(prefix))) + 30.0)
    gamma = oracles.euler_gamma()
    for i in sorted(rng.sample(range(len(grid)), 10)) + [len(grid) - 1]:
        x = grid[i]
        want = oracles.divisor_summatory(x) - oracles.log_factorial(x) - 2.0 * gamma * x
        _close(prefix[i], want, tol, f"divisor-corrected prefix at {x}")


def check_convolution(text: str, limit: int) -> None:
    grid = oracles.geometric_grid(limit)
    n, conv, expected, diff = csv_numbers(
        text, ("n", "convolved", "expected", "difference"), len(grid)).T
    _require(np.array_equal(n, grid), "n column is not the scan grid")
    _require(float(np.max(np.abs(diff))) <= 1e-9, "convolution differs from its closed form")
    gamma = oracles.euler_gamma()
    for i, x in enumerate(grid):
        base = oracles.prime_power_base(x)
        weight = 2.0 * gamma if x == 1 else math.log(base) if base else 0.0
        _close(expected[i], 1.0 - weight, 1e-12, f"1 - w({x})")
        _close(conv[i] - expected[i], diff[i], ULPS * abs(diff[i]), f"difference at {x}")


def check_abel(text: str, n: int, m: int, s: complex) -> None:
    (row,) = csv_rows(text, ("n", "m", "s", "direct", "rearranged", "abs_diff",
                             "rel_diff", "theta_min", "theta_max"), 1)
    _require((int(row[0]), int(row[1]), parse_complex(row[2])) == (n, m, s), f"echo {row[:3]}")
    direct, rearranged = parse_complex(row[3]), parse_complex(row[4])
    abs_diff, rel_diff, theta_lo, theta_hi = map(float, row[5:])
    _close(abs_diff, abs(direct - rearranged), 1e-15 * abs(direct), "abs_diff")
    _require(rel_diff <= 1e-12, f"rearranged sum off by {rel_diff:g}")
    _require(0.0 < theta_lo <= theta_hi < 1.0, f"theta range [{theta_lo}, {theta_hi}]")


def check_identity_sweep(text: str, limit: int) -> None:
    rows = csv_rows(text, ("convention", "reading", "matches", "total"), 6)
    for row in rows:
        _require(int(row[3]) == limit, f"total {row[3]}, want {limit}")
        _require(0 <= int(row[2]) <= limit, f"match count {row[2]}")


def check_identity_probe(text: str) -> None:
    rows = csv_rows(text, ("convention", "reading", "lhs", "rhs", "match"), 6)
    for row in rows:
        _require(row[4] == ("true" if row[2] == row[3] else "false"), f"match flag in {row}")


def _theta_table(limit: int) -> tuple[np.ndarray, np.ndarray]:
    primes = oracles.primes_upto(limit)
    _require(len(primes) == oracles.prime_pi(limit), "reference sieve disagrees with primepi")
    return primes, np.log(primes.astype(np.float64))


def check_theta(text: str, limit: int, s: float = 0.75) -> None:
    grid = oracles.geometric_grid(limit, start=10)
    n, theta, deviation = csv_numbers(text, ("n", "theta", "deviation"), len(grid)).T
    _require(np.array_equal(n, grid), "n column is not the scan grid")
    primes, logs = _theta_table(limit)
    cut = np.searchsorted(primes, grid, side="right")
    pieces = [math.fsum(logs[a:b]) for a, b in zip(np.r_[0, cut[:-1]], cut)]
    for i, x in enumerate(grid):
        want = math.fsum(pieces[: i + 1])
        # an ascending binary64 running sum of pi(x) logs drifts by at
        # most pi(x) roundings of the total
        _close(theta[i], want, cut[i] * np.finfo(np.float64).eps * want + 1e-12, f"theta({x})")
        _close(deviation[i], (theta[i] - x) / x ** s, 1e-12 * max(1.0, abs(deviation[i])),
               f"deviation at {x}")


def check_prime_gap(text: str, x_max: int, rng: random.Random, s: float = 0.75) -> None:
    grid = oracles.geometric_grid(x_max, start=10)
    x, ratio = csv_numbers(text, ("x", "ratio"), len(grid)).T
    _require(np.array_equal(x, grid), "x column is not the scan grid")
    for i in sorted(rng.sample(range(len(grid)), 6)) + [len(grid) - 1]:
        want = oracles.prime_count_gap_ratio(grid[i], s)
        _close(ratio[i], want, 1e-9 * max(1.0, abs(want)), f"prime-count gap at {grid[i]}")


def check_mertens_constant(text: str, limit: int) -> None:
    points = [10**k for k in range(1, 20) if 10**k <= limit]
    if points[-1] != limit:
        points.append(limit)
    n, estimate = csv_numbers(text, ("n", "estimate"), len(points)).T
    _require(np.array_equal(n, points), "n column is not the decade grid")
    primes = oracles.primes_upto(limit)
    for x, got in zip(points, estimate):
        count = int(np.searchsorted(primes, x, side="right"))
        _require(count == oracles.prime_pi(x), f"reference sieve disagrees with primepi({x})")
        want = math.fsum((1.0 / primes[:count]).tolist()) - math.log(math.log(x))
        # a binary64 running sum of count terms, each rounding below eps * 4
        _close(got, want, count * np.finfo(np.float64).eps * 4.0, f"reciprocal-prime sum at {x}")
    # |sum 1/p - log log x - B| < 1/log^2 x (Rosser and Schoenfeld, x > 286)
    _close(estimate[-1], oracles.mertens_constant(), 1.0 / math.log(limit) ** 2,
           "final estimate against the Mertens constant")


def check_prime_window(text: str, stop: int, start: int = 1000, h: float = 0.1) -> None:
    starts = [start * 10**k for k in range(20) if start * 10**k <= stop]
    n, upper, count = csv_numbers(text, ("n", "upper", "count"), len(starts)).T
    _require(np.array_equal(n, starts), "n column is not the decade grid")
    for x, u, c in zip(starts, upper, count):
        _close(u, (1.0 + h) * x, ULPS * u, f"window edge at {x}")
        want = oracles.prime_pi(math.floor(u)) - oracles.prime_pi(x)
        _require(c == want, f"primes in ({x}, {u}]: {c:g}, primepi gives {want}")


def check_constants(text: str, k_max: int) -> None:
    table = csv_numbers(text, ("k", "value", "error_estimate", "tail_correction",
                               "contour_value", "contour_convergence_gap",
                               "route_gap"), k_max)
    for k, value, _, _, contour, _, gap in table:
        want = oracles.origin_constant(int(k))
        _close(value, want, 1e-9, f"defect-route constant k={k:g}")
        _close(gap, abs(value - contour), ULPS * gap, f"route_gap k={k:g}")
        _require(gap <= 1e-6, f"routes disagree by {gap:g} at k={k:g}")


def check_zeros(text: str, t_max: float) -> None:
    body = json_body(text, extras=("count",))
    zeros = [t for _, t in body["rows"]]
    want = [oracles.zeta_zero(k) for k in range(1, len(zeros) + 2)]
    count = sum(1 for t in want if t <= t_max)
    _require(body["count"] == len(zeros) == count, f"{len(zeros)} zeros, want {count}")
    _require([i for i, _ in body["rows"]] == list(range(1, count + 1)), "zero indices")
    for k, (got, ref) in enumerate(zip(zeros, want), 1):
        _close(got, ref, 1e-5, f"zero {k}")


def check_zeta(text: str, s: complex) -> None:
    (row,) = csv_rows(text, ("s", "value", "abs_value"), 1)
    _require(parse_complex(row[0]) == s, f"echo {row[0]}")
    value, want = parse_complex(row[1]), oracles.zeta(s)
    _close(abs(value - want), 0.0, 1e-9 * max(1.0, abs(want)), f"zeta({s})")
    _close(float(row[2]), abs(value), ULPS * abs(value), "abs_value")


def check_xi(text: str, t: float) -> None:
    (row,) = csv_rows(text, ("t", "xi_real", "xi_imag"), 1)
    _require(float(row[0]) == t, f"echo {row[0]}")
    want, scale = oracles.xi_with_scale(t)
    _close(float(row[1]), want.real, 1e-9 * scale, f"xi({t}) real part")
    _close(float(row[2]), 0.0, 1e-9 * scale, f"xi({t}) imaginary part")


def check_weierstrass(text: str, x: complex, a: complex) -> None:
    rows = csv_rows(text, ("exponent_sign", "product", "direct", "relative_error"), 2)
    _require([r[0] for r in rows] == ["minus", "plus"], "sign rows")
    want = oracles.exp_difference(x, a)
    errors = []
    for sign, product, direct, rel in rows:
        product, direct = parse_complex(product), parse_complex(direct)
        _close(abs(direct - want), 0.0, 1e-12 * abs(want), f"direct e^x - e^a ({sign})")
        errors.append(float(rel))
        _close(float(rel), abs(product - direct) / abs(direct), 1e-12, f"relative_error ({sign})")
    # the genus-1 factor with the + sign converges like 1/n_terms
    _require(errors[1] <= 1e-6 < errors[0], f"relative errors {errors}")


def check_li(text: str, x: float) -> None:
    (row,) = csv_rows(text, ("x", "li"), 1)
    _require(float(row[0]) == x, f"echo {row[0]}")
    want = oracles.li(x)
    _close(float(row[1]), want, 1e-13 * abs(want), f"li({x})")


def check_cache_build(text: str, cache_dir: Path, limit: int) -> None:
    (row,) = csv_rows(text, ("path", "limit", "file_bytes"), 1)
    want = [str(cache_dir / f"mu-{limit}.stjz"), str(limit), str(limit + 20)]
    _require(row == want, f"cache build row {row}, want {want}")


def check_cache_inspect(text: str, cache_dir: Path, limits: tuple[int, ...]) -> None:
    rows = csv_rows(text, ("path", "status", "version", "limit", "file_bytes", "crc_ok"),
                    len(limits))
    want = sorted([str(cache_dir / f"mu-{n}.stjz"), "ok", "1", str(n), str(n + 20), "true"]
                  for n in limits)
    _require(sorted(rows) == want, f"cache inspect rows {rows}")


# -- workloads -----------------------------------------------------------

def _cli(*args) -> tuple[str, ...]:
    return tuple(str(a) for a in args)


def sieve_scan(seed: int, cache_dir: Path) -> list[Op]:
    rng = random.Random(seed)
    abel_n = 500_000 + rng.randrange(50_000)
    abel_s = complex(0.5, 14.1)
    return [
        Op(_cli("mertens", "--limit", 10_000_000, "--every", 10_000),
           partial(check_mertens_csv, limit=10_000_000, every=10_000, rng=random.Random(rng.random()))),
        Op(_cli("relation-a", "--x-max", 10_000_000),
           partial(check_prime_gap, x_max=10_000_000, rng=random.Random(rng.random()))),
        Op(_cli("divisor-ratio", "--limit", 500_000),
           partial(check_divisor_ratio, limit=500_000, every=None, rng=random.Random(rng.random()))),
        Op(_cli("dirichlet-sum", "--series", "divisor-corrected", "--s", 0.5, "--limit", 500_000),
           partial(check_divisor_corrected_sum, limit=500_000, rng=random.Random(rng.random()))),
        Op(_cli("convolution-check", "--limit", 100_000), partial(check_convolution, limit=100_000)),
        Op(_cli("abel-check", "--n", abel_n, "--m", 500_000, "--s", fmt_complex(abel_s)),
           partial(check_abel, n=abel_n, m=500_000, s=abel_s)),
        Op(_cli("identity-explore", "--limit", 10_000), partial(check_identity_sweep, limit=10_000)),
        Op(_cli("mertens-constant", "--limit", 10_000_000),
           partial(check_mertens_constant, limit=10_000_000)),
        Op(_cli("prime-window", "--stop", 10_000_000), partial(check_prime_window, stop=10_000_000)),
    ]


def cache_reuse(seed: int, cache_dir: Path) -> list[Op]:
    rng = random.Random(seed)
    big, small, probe = 20_000_000, 5_000_000, 10_000_000 - rng.randrange(100_000)
    d = str(cache_dir)
    return [
        Op(_cli("theta", "--limit", big, "--cache-dir", d), partial(check_theta, limit=big)),
        Op(_cli("relation-a", "--x-max", big, "--cache-dir", d),
           partial(check_prime_gap, x_max=big, rng=random.Random(rng.random()))),
        Op(_cli("mertens-constant", "--limit", big, "--cache-dir", d),
           partial(check_mertens_constant, limit=big)),
        Op(_cli("dirichlet-sum", "--series", "mobius", "--s", 0.5, "--limit", big, "--cache-dir", d),
           partial(check_mobius_sum, limit=big, rng=random.Random(rng.random()))),
        Op(_cli("identity-explore", "--n", probe, "--cache-dir", d), check_identity_probe),
        Op(_cli("cache", "build", "--limit", small, "--dir", d),
           partial(check_cache_build, cache_dir=cache_dir, limit=small)),
        Op(_cli("theta", "--limit", small * 4 // 5, "--cache-dir", d),
           partial(check_theta, limit=small * 4 // 5)),
        Op(_cli("cache", "inspect", "--path", d),
           partial(check_cache_inspect, cache_dir=cache_dir, limits=(big, small))),
    ]


def zeta_engine(seed: int, cache_dir: Path) -> list[Op]:
    rng = random.Random(seed)
    # stay a unit away from the pole at s = 1
    s = complex(round(rng.choice([rng.uniform(-3.0, 0.0), rng.uniform(2.0, 4.0)]), 3),
                round(rng.uniform(5.0, 60.0), 3))
    t = round(rng.uniform(5.0, 60.0), 3)
    ops = [Op(_cli("constants", "--k", 8, "--n", 200_000), partial(check_constants, k_max=8)),
           Op(_cli("zeros", "--t-max", 100, "--step", 0.01), partial(check_zeros, t_max=100.0)),
           Op(_cli("zeta", f"--s={fmt_complex(s)}"), partial(check_zeta, s=s)),
           Op(_cli("xi", "--t", t), partial(check_xi, t=t))]
    for _ in range(2):
        # Re x < 0 < Re a keeps x off the zero lattice a + 2 pi i k
        x = complex(round(rng.uniform(-1.5, -0.5), 3), round(rng.uniform(-2.0, 2.0), 3))
        a = complex(round(rng.uniform(0.2, 1.5), 3), round(rng.uniform(-1.0, 1.0), 3))
        ops.append(Op(_cli("weierstrass", f"--x={fmt_complex(x)}", f"--a={fmt_complex(a)}",
                           "--n-terms", 500_000),
                      partial(check_weierstrass, x=x, a=a)))
    ops.append(Op(_cli("li", "--x", 1e8), partial(check_li, x=1e8)))
    return ops


def bulk_output(seed: int, cache_dir: Path) -> list[Op]:
    rng = random.Random(seed)
    return [
        Op(_cli("mertens", "--limit", 500_000),
           partial(check_mertens_csv, limit=500_000, every=1, rng=random.Random(rng.random()))),
        Op(_cli("mertens", "--limit", 100_000, "--format", "json"),
           partial(check_mertens_json, limit=100_000, rng=random.Random(rng.random()))),
        Op(_cli("divisor-ratio", "--limit", 200_000, "--every", 1),
           partial(check_divisor_ratio, limit=200_000, every=1, rng=random.Random(rng.random()))),
    ]


WORKLOADS = {
    "sieve-scan": sieve_scan,
    "cache-reuse": cache_reuse,
    "zeta-engine": zeta_engine,
    "bulk-output": bulk_output,
}

# the trivial command whose start-up time is setup_s
SETUP_OP = Op(_cli("li", "--x", 2), partial(check_li, x=2.0))
