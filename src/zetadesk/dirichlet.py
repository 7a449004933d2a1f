"""Dirichlet-series machinery over tabulated coefficients.

Provides:
  - partial sums of sum lambda(n) n^{-s} with n^{-s} = exp(-s log n),
    accumulated in ascending order;
  - summation by parts over a block, with the boundary terms and the
    remainder kept separate and one mean-value exponent recorded per
    difference term;
  - prefix ratio scans r(n) = P(n)/n^s on a geometric grid;
  - exact divisor-sum convolution of two coefficient streams;
  - empirical convergence-abscissa probes (least-squares slope of the
    prefix-sum envelope against log n).

Every coefficient source (Mobius, unit, corrected divisor counts, the
1 - prime-power-log weight, a convolution, or anything custom) is one
CoefficientStream, made 2^16 cells at a time. Its whole array (entry 0
unused) is filled from the chunks only when something reads values;
custom streams and convolutions have theirs set over that property.
Prefix scans walk the chunks (arith.grid_prefix); the convolution and
direct partial sums read values. A stream read off a table runs to the
table's limit, and a scan or probe covers its whole stream, so each
bound is set once, where the table is built.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .arith import (ArithTable, chunk_bounds, grid_prefix, mertens_segments,
                    prime_power_weight)
from .bounds import _check_half_plane
from .constants import euler_constant
from .exact import ExactSum, split
from .reports import Table, geometric_grid

class CoefficientStream:
    """Dirichlet coefficients lambda(1..limit), made chunk by chunk:
    chunk(lo, hi) gives a fresh float64 array of lambda(lo..hi-1).

    values, the whole array with entry 0 = 0.0, is filled from the
    chunks on first read and cached on the instance (read-only).
    """

    def __init__(self, name: str, limit: int,
                 chunk: Callable[[int, int], np.ndarray]):
        self.name = name
        self.limit = limit
        self.chunk = chunk

    @cached_property
    def values(self) -> np.ndarray:
        values = np.empty(self.limit + 1, dtype=np.float64)
        values[0] = 0.0
        for lo, hi in chunk_bounds(self.limit):
            values[lo:hi] = self.chunk(lo, hi)
        values.setflags(write=False)
        return values


def _seeded(name: str, values: np.ndarray) -> CoefficientStream:
    """The stream whose values are this array (entry 0 = 0.0), taken
    as is, with chunks sliced from it."""
    values.setflags(write=False)
    stream = CoefficientStream(name, len(values) - 1,
                               lambda lo, hi: values[lo:hi].copy())
    stream.values = values
    return stream


def mobius_stream(table: ArithTable) -> CoefficientStream:
    """lambda(n) = mu(n) over the whole table."""
    return CoefficientStream("mobius", table.limit,
                             lambda lo, hi: table.mu[lo:hi].astype(np.float64))


def unit_stream(limit: int) -> CoefficientStream:
    if limit < 1:
        raise ValueError("stream limit must be at least 1")
    return CoefficientStream("unit", limit, lambda lo, hi: np.ones(hi - lo))


def divisor_corrected_stream(table: ArithTable) -> CoefficientStream:
    """lambda(n) = d(n) - log n - 2C over the whole table, each chunk
    over its own index range."""
    c2 = 2.0 * euler_constant()

    def chunk(lo: int, hi: int) -> np.ndarray:
        idx = np.arange(lo, hi, dtype=np.float64)
        return table.divisor_count[lo:hi] - np.log(idx) - c2

    return CoefficientStream("divisor_corrected", table.limit, chunk)


def one_minus_g_stream(table: ArithTable) -> CoefficientStream:
    """lambda(n) = 1 - w(n) over the whole table, w the prime-power log
    weight with 2C head (arith.prime_power_weight): the Mobius
    convolution image of the corrected divisor stream (checked in tests
    and the CLI)."""
    weight = prime_power_weight(table)
    return CoefficientStream("one_minus_g", table.limit,
                             lambda lo, hi: 1.0 - weight(lo, hi))


# the streams read off a table, by the names the CLI's --series gives
# them (unit_stream needs no table)
TABLE_STREAMS = {
    "mobius": mobius_stream,
    "divisor-corrected": divisor_corrected_stream,
    "one-minus-g": one_minus_g_stream,
}


def custom_stream(name: str, values) -> CoefficientStream:
    arr = np.asarray(values, dtype=np.float64).copy()
    if arr.ndim != 1 or len(arr) < 2:
        raise ValueError("custom stream needs a flat array with entry 0 padding")
    arr[0] = 0.0
    return _seeded(name, arr)


def partial_sum(coeffs: CoefficientStream, s: complex, upto: int) -> complex:
    """sum_{n<=upto} lambda(n) exp(-s log n), ascending order."""
    if upto < 1 or upto > coeffs.limit:
        raise ValueError(f"partial sum bound {upto} outside stream range")
    n = np.arange(1, upto + 1, dtype=np.float64)
    terms = coeffs.values[1 : upto + 1] * np.exp(-complex(s) * np.log(n))
    return complex(np.cumsum(terms)[-1])


def mean_value_theta(n: int, s: float) -> float:
    """The exponent theta in 1/n^s - 1/(n+1)^s = s/(n+theta)^{s+1}.

    Closed form: n + theta = (s / difference)^{1/(s+1)}, formed as
    _mean_value_theta_grid does. Always lands in (0, 1); an escape
    would mean the difference itself was computed wrong, so it raises
    rather than returns.
    """
    if n < 1:
        raise ValueError("mean value exponent needs n >= 1")
    if not (s > 0):
        raise ValueError("mean value exponent needs s > 0")
    theta = float(_mean_value_theta_grid(np.array([float(n)]), s)[0])
    if not (0.0 < theta < 1.0):
        raise ArithmeticError(
            f"mean-value exponent {theta} escaped (0,1) at n={n}, s={s}"
        )
    return theta


# Taylor coefficients of log(log1p(u)/u) in u, from u^1 up; below
# _THETA_SERIES_BELOW the first left out moves theta by under 1e-16
_LOG_RATIO_SERIES = (-1 / 2, 5 / 24, -1 / 8, 251 / 2880, -19 / 288)
_THETA_SERIES_BELOW = 1e-3


def _mean_value_theta_grid(j: np.ndarray, sigma: float) -> np.ndarray:
    """mean_value_theta at each j, formed without the cancellation of
    n + theta - n. With u = 1/j, a = sigma*log1p(u) and h = a/2,
    theta = j*expm1(g), g = -[log(log1p(u)/u) + log(sinh(h)/h) - h]
    / (sigma + 1). Below 1e-3 both logs come from their Taylor series,
    so each keeps its relative precision; above it, log(sinh(h)/h) - h
    is log(-expm1(-2h)/(2h)), which cannot overflow at large sigma."""
    u = 1.0 / j
    log1p_u = np.log1p(u)
    h = log1p_u * (0.5 * sigma)
    ratio_log = np.full_like(u, _LOG_RATIO_SERIES[-1])
    for c in reversed(_LOG_RATIO_SERIES[:-1]):
        ratio_log *= u
        ratio_log += c
    ratio_log *= u
    wide = u >= _THETA_SERIES_BELOW
    ratio_log[wide] = np.log(log1p_u[wide] / u[wide])
    with np.errstate(over="ignore"):  # only at large h, a wide cell
        sinh_log = h * (h * (1 / 6 - h * h / 180) - 1.0)
    wide = h >= _THETA_SERIES_BELOW
    sinh_log[wide] = np.log(-np.expm1(-2.0 * h[wide]) / (2.0 * h[wide]))
    ratio_log += sinh_log
    return j * np.expm1(-ratio_log / (sigma + 1.0))


class AbelDecomposition(NamedTuple):
    """Summation by parts of sum_{j=n}^{n+m} (M(j)-M(j-1)) j^{-s}.

    boundary_terms holds (M(n+m)/(n+m)^s, -M(n-1)/n^s), signs applied;
    the second denominator is n^s because that is what the exact
    rearrangement produces. remainder is
    sum_{j=n}^{n+m-1} M(j) (j^{-s} - (j+1)^{-s}), the differences taken
    literally from the same power values the direct sum uses, and
    theta_min/theta_max bound the mean-value exponent of each
    difference term at sigma = Re s (the mean-value statement is a
    real-exponent one); a NaN exponent makes both NaN, and with no
    difference terms (m = 0) they are +inf and -inf.

    rearranged is not the rounded boundary_terms plus the rounded
    remainder: it is the exact sum of all the split partial products,
    boundary and remainder alike, rounded once, so the only rounding
    separating it from direct_sum is what the power differences
    themselves carry.
    """

    s: complex
    n: int
    m: int
    direct_sum: complex
    boundary_terms: tuple[complex, complex]
    remainder: complex
    rearranged: complex
    theta_min: float
    theta_max: float


def _exact_int_mul(g: np.ndarray, x: np.ndarray):
    """g * x as an unevaluated two-float sum, exact for integer-valued
    g below 2^26 (Mertens values at any supported limit are far below
    that). Splitting x into 26-bit halves keeps each partial product
    representable."""
    hi, lo = split(x)
    return g * hi, g * lo


def abel_rearranged_sum(n: int, m: int, s: complex,
                        segments=None) -> AbelDecomposition:
    """The decomposition over the block [n, n + m], walked one
    chunk_bounds segment at a time.

    segments yields M(n - 1) alone and then M on each chunk_bounds
    segment of [n, n + m] (the pieces of arith.mertens_segments, its
    default, or slices of a full prefix). Each segment's powers, splits
    and exponents are summed and dropped: every sum is carried exactly
    (exact.ExactSum) and rounded once, so it is the one fsum over the
    whole block would give, bit for bit, and memory grows with CHUNK,
    not with m.
    """
    if n < 2:
        raise ValueError("block must start at n >= 2")
    if m < 0:
        raise ValueError("block [n, n + m] needs m >= 0")
    s = _check_half_plane(s)
    pieces = iter(mertens_segments(n, m) if segments is None else segments)
    before = last = int(next(pieces)[0])
    direct_re, direct_im, rem_re, rem_im = (ExactSum() for _ in range(4))
    theta_min, theta_max = math.inf, -math.inf
    for (lo, hi), block in zip(chunk_bounds(n + m, n), pieces, strict=True):
        if block.size != hi - lo:
            raise ValueError(f"Mertens segment of {block.size} cells for [{lo}, {hi})")
        # j^{-s} for j = lo..top: top is the first j of the next
        # segment, or n + m in the last one
        top = min(hi, n + m)
        j = np.arange(lo, top + 1, dtype=np.float64)
        powers = np.exp(-s * np.log(j))
        if lo == n:
            first_power = powers[0]
        # Coefficients are mu(j) in {-1,0,1}, so these products are
        # exact and the direct sum is the correctly rounded sum of the
        # powers.
        f_block = np.diff(block, prepend=last).astype(np.float64)
        terms = f_block * powers[: hi - lo]
        direct_re.add(terms.real)
        direct_im.add(terms.imag)
        last = int(block[-1])
        if top > lo:
            g = block[: top - lo].astype(np.float64)
            diff = powers[:-1] - powers[1:]
            for part, acc in ((diff.real, rem_re), (diff.imag, rem_im)):
                for half in _exact_int_mul(g, part):
                    acc.add(half)
            thetas = _mean_value_theta_grid(j[:-1], s.real)
            theta_min = float(np.minimum(theta_min, thetas.min()))
            theta_max = float(np.maximum(theta_max, thetas.max()))
    b_coeff = np.array([last, -before], dtype=np.float64)
    b_power = np.array([powers[-1], first_power], dtype=np.complex128)
    b_re_hi, b_re_lo = _exact_int_mul(b_coeff, b_power.real)
    b_im_hi, b_im_lo = _exact_int_mul(b_coeff, b_power.imag)
    first = complex(b_re_hi[0] + b_re_lo[0], b_im_hi[0] + b_im_lo[0])
    second = complex(b_re_hi[1] + b_re_lo[1], b_im_hi[1] + b_im_lo[1])
    remainder = complex(rem_re.value, rem_im.value)
    # rearranged: the remainder's exact sums, the boundary parts added
    rem_re.add(np.concatenate([b_re_hi, b_re_lo]))
    rem_im.add(np.concatenate([b_im_hi, b_im_lo]))
    return AbelDecomposition(
        s=s, n=n, m=m,
        direct_sum=complex(direct_re.value, direct_im.value),
        boundary_terms=(first, second), remainder=remainder,
        rearranged=complex(rem_re.value, rem_im.value),
        theta_min=theta_min, theta_max=theta_max)


def prefix_ratio_scan(coeffs: CoefficientStream, s: float) -> Table:
    """r(n) = P(n)/n^s on a geometric grid to the stream's limit, P the
    prefix sums.

    stats carries the sup of |r| over the grid tail (top decade) and
    the first/last ratios, which is what the trend tables want.
    """
    n_max = coeffs.limit
    grid = geometric_grid(n_max)
    p = grid_prefix(coeffs.chunk, grid)
    r = p / np.power(grid.astype(np.float64), s)
    tail = np.abs(r[grid > n_max // 10]) if n_max >= 10 else np.abs(r)
    stats = {
        "tail_sup": float(tail.max()),
        "first_abs_ratio": float(abs(r[0])),
        "last_abs_ratio": float(abs(r[-1])),
    }
    return Table(("n", "prefix", "ratio"), (grid, p, r), stats)


def dirichlet_convolution(a: CoefficientStream, b: CoefficientStream) -> CoefficientStream:
    """Exact divisor-sum convolution (a*b)(n) = sum_{d|n} a(d) b(n/d)."""
    if a.limit != b.limit:
        raise ValueError("convolution needs streams over the same range")
    n = a.limit
    out = np.zeros(n + 1, dtype=np.float64)
    av, bv = a.values, b.values
    # Every out[m] takes its terms a(d) b(m/d) in ascending d, so the
    # sums are bit-identical to one pass per d. Small d walk their
    # multiples; each large d > r has a cofactor k = m/d < r + 1, and
    # descending k is ascending d.
    r = math.isqrt(n)
    for d in range(1, r + 1):
        out[d :: d] += av[d] * bv[1 : n // d + 1]
    for k in range(n // (r + 1), 0, -1):
        top = n // k
        out[k * (r + 1) : k * top + 1 : k] += av[r + 1 : top + 1] * bv[k]
    return _seeded(f"({a.name})*({b.name})", out)


class AbscissaProbe(NamedTuple):
    """Least-squares growth exponents of prefix sums on a log grid.

    conditional_estimate fits the running-max envelope of |P(n)|
    (signed prefix sums); absolute_estimate fits prefix sums of
    |lambda(n)|. Both are labeled estimates: finite data, no claim of
    convergence, just the observed slope.
    """

    conditional_estimate: float
    absolute_estimate: float
    grid: np.ndarray
    signed_envelope: np.ndarray
    absolute_prefix: np.ndarray


def abscissa_probe(coeffs: CoefficientStream) -> AbscissaProbe:
    """The growth exponents of the stream's prefix sums on a log grid
    to its limit, which must be at least 10^4."""
    n_max = coeffs.limit
    if n_max < 10_000:
        raise ValueError("abscissa probe wants at least 10^4 coefficients")
    grid = geometric_grid(n_max, start=10)
    # grid ends at n_max, so the last absolute prefix is zero exactly
    # when every coefficient is
    abs_prefix = grid_prefix(lambda lo, hi: np.abs(coeffs.chunk(lo, hi)),
                             grid)
    if abs_prefix[-1] == 0:
        raise ValueError("all-zero stream has no growth exponent")
    envelope = np.maximum.accumulate(np.abs(grid_prefix(coeffs.chunk, grid)))
    conditional = _envelope_slope(grid, envelope)
    absolute = _envelope_slope(grid, abs_prefix)
    return AbscissaProbe(conditional_estimate=conditional,
                         absolute_estimate=absolute, grid=grid,
                         signed_envelope=envelope, absolute_prefix=abs_prefix)


def _envelope_slope(grid: np.ndarray, envelope: np.ndarray) -> float:
    mask = envelope > 0
    if mask.sum() < 2:
        return math.nan
    x = np.log(grid[mask].astype(np.float64))
    y = np.log(envelope[mask])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


class ConvergenceParams(NamedTuple):
    """Abscissa bookkeeping for a product of two Dirichlet series.

    alpha is a conditional-convergence abscissa for the first factor,
    beta the absolute-convergence gap of the second; the product series
    is then summable for exponents beyond alpha + beta/2.
    """

    alpha: float
    beta: float

    @property
    def product_abscissa(self) -> float:
        return self.alpha + 0.5 * self.beta
