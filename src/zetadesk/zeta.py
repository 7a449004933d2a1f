"""Complex zeta machinery on a validated desk-scale box.

Euler-Maclaurin evaluation of zeta(s), the completed function
xi(t) on the critical line, sign-change zero scans with a counting
prediction, and the log-power constants that tie the Taylor expansion
of zeta at the origin to trapezoid defects of (log x)^k.

The engines work on arrays. One kernel evaluates zeta(s) - 1/(s-1),
and from it zeta and xi, at a whole vector of points per call: the
zero scan's grid, the midpoints of every bisection step, the contour
ring. A point's value does not depend on the other points of its call,
and the scalar zeta, zeta_minus_pole, log_gamma and xi are the kernel
at one point. The defect quadrature walks the cells once for every
exponent k, which share each chunk's quadrature moments.
"""

from __future__ import annotations

import cmath
import math
from functools import cache
from typing import NamedTuple

import numpy as np

# the validated box (RE_MIN, RE_MAX, IM_MAX) stays importable from here
from .bounds import (IM_MAX, LOG_POWER_K_MAX, LOG_POWER_N_DEFAULT,
                     LOG_POWER_N_MIN, RE_MAX, RE_MIN, ZERO_SCAN_STEP_MAX,
                     ZERO_SCAN_STEP_MIN, ZERO_SCAN_T_MAX,
                     _require_in_box, _require_regular)
from .constants import BERNOULLI_OVER_FACTORIAL, euler_constant
from .exact import exact_sum

TWO_PI = 2.0 * math.pi


def _node_counts(height: np.ndarray) -> np.ndarray:
    """Euler-Maclaurin cutoff n at each height |Im s|: the head sums
    k < n."""
    return np.maximum(30, np.ceil(2.5 * np.abs(height))).astype(np.int64)


# The array kernels run over their points in passes of at most this many
# head terms (n - 1 per point), so their working arrays stay near two
# megabytes whatever the number of points.
_KERNEL_CELLS = 1 << 17


def _in_passes(kernel, points: np.ndarray, height: np.ndarray) -> np.ndarray:
    """kernel(part) for consecutive parts of points, written into one
    complex array; height holds |Im s| of each point, and a part has
    as many points as fit _KERNEL_CELLS at the largest of them."""
    out = np.empty(points.size, dtype=np.complex128)
    if points.size:
        n_max = int(_node_counts(np.abs(height).max()))
        size = max(1, _KERNEL_CELLS // n_max)
        for lo in range(0, points.size, size):
            out[lo:lo + size] = kernel(points[lo:lo + size])
    return out


def _cexpm1(z: np.ndarray) -> np.ndarray:
    # exp(z)-1 without cancellation for small z; cos y - 1 handled as
    # -2 sin^2(y/2)
    x, y = z.real, z.imag
    ex1 = np.expm1(x)
    half = np.sin(0.5 * y)
    out = np.empty(z.shape, dtype=np.complex128)
    out.real = ex1 * np.cos(y) - 2.0 * half * half
    out.imag = (ex1 + 1.0) * np.sin(y)
    return out


def _em_minus_pole(s: np.ndarray) -> np.ndarray:
    """Euler-Maclaurin zeta(s) - 1/(s-1) at every point of the complex
    array s, all at once (long arrays go through _in_passes). Accurate
    for Re s >= -1/2; deeper left the head sum amplifies rounding by
    n^(1-Re s) and the reflection path of _zeta_array takes over.

    A point's head sum runs over its own n - 1 terms in an order set by
    n alone, and every other step is elementwise, so its value does not
    depend on the other points in s."""
    # the head sum_{k<n} k^-s, one matrix of terms per group of points
    # that share n, so each row's pairwise sum depends on n alone
    n = _node_counts(s.imag)
    logs = np.log(np.arange(1, int(n.max()) + 1, dtype=np.float64))
    head = np.empty(s.size, dtype=np.complex128)
    # sorted(set()) rather than np.unique, which loads numpy.ma
    for count in sorted(set(n.tolist())):
        group = np.flatnonzero(n == count)
        head[group] = np.exp(np.multiply.outer(-s[group], logs[:count - 1])).sum(axis=1)
    log_n = logs[n - 1]
    smooth = -log_n + 0j  # limit of expm1((1-s) log n)/(s-1) at s = 1
    off = s != 1.0
    smooth[off] = _cexpm1((1.0 - s[off]) * log_n[off]) / (s[off] - 1.0)
    nms = np.exp(-s * log_n)
    total = head + smooth + 0.5 * nms
    rising = s  # s (s+1) ... (s+2j-2), grown two factors per term
    scale = nms / n  # n^(-s-1)
    inv_nn = 1.0 / (n * n)
    for j, coeff in enumerate(BERNOULLI_OVER_FACTORIAL, start=1):
        total += coeff * rising * scale
        rising = rising * ((s + (2 * j - 1)) * (s + 2 * j))
        scale = scale * inv_nn
    return total


_LOG_2 = math.log(2.0)
_LOG_PI = math.log(math.pi)


def _reflection_factor(s: np.ndarray) -> np.ndarray:
    # 2^s pi^(s-1) sin(pi s/2) Gamma(1-s); inside the box the huge
    # sin and tiny gamma magnitudes stay far from overflow
    return (np.exp(s * _LOG_2 + (s - 1.0) * _LOG_PI + _log_gamma(1.0 - s))
            * np.sin(0.5 * math.pi * s))


def _zeta_array(s: np.ndarray) -> np.ndarray:
    """zeta at every point of the complex array s, each regular and in
    the box: Euler-Maclaurin for Re s >= -1/2, reflected further left."""
    return _in_passes(_zeta_part, s, s.imag)


def _zeta_part(s: np.ndarray) -> np.ndarray:
    out = np.empty(s.size, dtype=np.complex128)
    left = s.real < -0.5
    if not left.all():
        right = s[~left]
        out[~left] = _em_minus_pole(right) + 1.0 / (right - 1.0)
    if left.any():
        w = 1.0 - s[left]
        out[left] = _reflection_factor(s[left]) * (_em_minus_pole(w) + 1.0 / (w - 1.0))
    return out


def zeta(s: complex) -> complex:
    s = complex(s)
    _require_regular(s)
    return complex(_zeta_array(np.array([s]))[0])


def zeta_minus_pole(s: complex) -> complex:
    """zeta(s) - 1/(s-1), entire on the box; at s=1 this is the Euler
    constant."""
    s = complex(s)
    _require_in_box(s)
    if s.real >= -0.5:
        return complex(_em_minus_pole(np.array([s]))[0])
    return zeta(s) - 1.0 / (s - 1.0)


_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_HALF_LOG_TWO_PI = 0.5 * math.log(TWO_PI)


def _log_gamma(z: np.ndarray) -> np.ndarray:
    """Lanczos approximation (g=7, 9 coefficients) at every point of
    the complex array z, reflected where Re z < 1/2; no point may be a
    pole."""
    out = np.empty(z.size, dtype=np.complex128)
    left = z.real < 0.5
    if left.any():
        zl = z[left]
        out[left] = _LOG_PI - np.log(np.sin(math.pi * zl)) - _lanczos(1.0 - zl)
    if not left.all():
        out[~left] = _lanczos(z[~left])
    return out


def _lanczos(z: np.ndarray) -> np.ndarray:
    w = z - 1.0
    acc = _LANCZOS[0]
    for i, c in enumerate(_LANCZOS[1:], start=1):
        acc = acc + c / (w + i)
    t = w + 7.5
    return _HALF_LOG_TWO_PI + (w + 0.5) * np.log(t) - t + np.log(acc)


def log_gamma(z: complex) -> complex:
    """Lanczos approximation (g=7, 9 coefficients), reflected for
    Re z < 1/2. Branch matters only through exp for our callers."""
    z = complex(z)
    if z.real < 0.5 and z.imag == 0.0 and z.real == math.floor(z.real):
        raise ValueError(f"gamma pole at z={z.real:g}")
    return complex(_log_gamma(np.array([z]))[0])


def gauss_pi(x: float) -> float:
    """Factorial interpolation Pi(x) = x Gamma(x), real arguments."""
    x = float(x)
    if x <= -1.0 and x == math.floor(x):
        raise ValueError(f"factorial interpolation has a pole at x={x:g}")
    return cmath.exp(log_gamma(x + 1.0)).real


def completed_zeta(s: complex) -> complex:
    """Gamma(s/2) pi^(-s/2) zeta(s); invariant under s -> 1-s."""
    s = complex(s)
    if s == 0.0 or s == 1.0:
        raise ValueError("completed zeta has poles at s = 0 and s = 1")
    return cmath.exp(log_gamma(0.5 * s) - 0.5 * s * math.log(math.pi)) * zeta(s)


def functional_equation_residual(s: complex) -> float:
    """Relative defect |F(s) - F(1-s)| / |F(s)| of the reflection
    symmetry; both s and 1-s must sit in the validated box."""
    s = complex(s)
    a = completed_zeta(s)
    b = completed_zeta(1.0 - s)
    return abs(a - b) / (abs(a) + 1e-300)


def _xi_array(t: np.ndarray) -> np.ndarray:
    """xi at s = 1/2 + i t for every ordinate of the float array t."""
    return _in_passes(_xi_part, t, t)


def _xi_part(t: np.ndarray) -> np.ndarray:
    s = np.empty(t.size, dtype=np.complex128)
    s.real = 0.5
    s.imag = t
    value = 0.5 * s * (s - 1.0) * np.exp(_log_gamma(0.5 * s) - 0.5 * s * _LOG_PI)
    return value * _em_minus_pole(s) + value / (s - 1.0)


def xi(t: float) -> complex:
    """Entire critical-line function
    1/2 s(s-1) Gamma(s/2) pi^(-s/2) zeta(s) at s = 1/2 + i t.
    Real for real t up to rounding residue in the imaginary part."""
    t = float(t)
    _require_in_box(complex(0.5, t))
    return complex(_xi_array(np.array([t]))[0])


def riemann_von_mangoldt(t: float) -> float:
    """Main-term zero-count prediction (t/2pi)(log(t/2pi) - 1)."""
    t = float(t)
    if t <= TWO_PI:
        raise ValueError("prediction needs t > 2 pi")
    u = t / TWO_PI
    return u * (math.log(u) - 1.0)


class ZeroScanResult(NamedTuple):
    """Sign-change census of Re xi on [t_min, t_max].

    zeros holds bisection-refined ordinates; close_calls lists grid
    ordinates where |Re xi| dipped locally by several orders without a
    sign change (a flag for scan resolution, not an assertion that a
    zero was missed). prediction is nan when t_max <= 2 pi."""

    t_min: float
    t_max: float
    step: float
    zeros: np.ndarray
    close_calls: np.ndarray
    prediction: float

    @property
    def count(self) -> int:
        return int(self.zeros.size)

    @property
    def prediction_gap(self) -> float:
        if math.isnan(self.prediction):
            return math.nan
        return self.count - self.prediction


def _bisect_xi_real(lo: np.ndarray, hi: np.ndarray,
                    flo: np.ndarray) -> np.ndarray:
    """Bisect every bracket [lo, hi] of a sign change of Re xi (flo is
    Re xi at lo) to width 1e-6, in lock step: each step evaluates the
    midpoints of all open brackets in one kernel call and makes, per
    bracket, the decision a bracket bisected alone would make."""
    lo, hi, flo = lo.copy(), hi.copy(), flo.copy()
    zeros = np.empty(lo.size)
    open_ = np.arange(lo.size)
    while open_.size:
        wide = hi[open_] - lo[open_] > 1e-6
        done = open_[~wide]
        zeros[done] = 0.5 * (lo[done] + hi[done])
        open_ = open_[wide]
        mid = 0.5 * (lo[open_] + hi[open_])
        fmid = _xi_array(mid).real
        hit = fmid == 0.0
        zeros[open_[hit]] = mid[hit]
        open_, mid, fmid = open_[~hit], mid[~hit], fmid[~hit]
        same = (fmid > 0) == (flo[open_] > 0)
        lo[open_[same]] = mid[same]
        flo[open_[same]] = fmid[same]
        hi[open_[~same]] = mid[~same]
    return zeros


def _median(x: np.ndarray) -> float:
    """np.median of the 1-D array x, which would import numpy.ma: nan if
    any cell is nan, else the middle cell, or the mean of the two middle
    cells for an even count."""
    lo, hi = (x.size - 1) // 2, x.size // 2
    part = np.partition(x, [lo, hi, -1])
    if np.isnan(part[-1]):
        return math.nan
    return float(part[hi] if lo == hi else (part[lo] + part[hi]) / 2)


def zero_scan(t_max: float, step: float = ZERO_SCAN_STEP_MAX,
              t_min: float = 0.0) -> ZeroScanResult:
    t_max = float(t_max)
    step = float(step)
    t_min = float(t_min)
    if not 0.0 <= t_min < t_max:
        raise ValueError("need 0 <= t_min < t_max")
    if t_max > ZERO_SCAN_T_MAX:
        raise ValueError(f"scan validated only up to t = {ZERO_SCAN_T_MAX:g}")
    if not ZERO_SCAN_STEP_MIN <= step <= ZERO_SCAN_STEP_MAX:
        raise ValueError(f"step must be in [{ZERO_SCAN_STEP_MIN:g}, "
                         f"{ZERO_SCAN_STEP_MAX:g}]; coarser grids can hop "
                         "over close zero pairs, finer ones pass the "
                         "10^6-point budget")
    count = int(math.floor((t_max - t_min) / step)) + 1
    grid = t_min + step * np.arange(count, dtype=np.float64)
    if grid[-1] < t_max:
        grid = np.append(grid, t_max)
    values = _xi_array(grid).real.copy()
    flips = np.nonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0)[0]
    zeros = _bisect_xi_real(grid[flips], grid[flips + 1], values[flips])
    absval = np.abs(values, out=values)
    scale = _median(absval) + 1e-300
    inner = absval[1:-1]
    local_min = ((inner <= absval[:-2]) & (inner <= absval[2:])
                 & (inner < 1e-4 * scale))
    suspects = np.flatnonzero(local_min) + 1
    no_flip = np.array([i - 1 not in flips and i not in flips
                        for i in suspects], dtype=bool)
    close_calls = grid[suspects[no_flip]] if suspects.size else np.zeros(0)
    prediction = riemann_von_mangoldt(t_max) if t_max > TWO_PI else math.nan
    return ZeroScanResult(t_min=t_min, t_max=t_max, step=step,
                          zeros=zeros, close_calls=np.asarray(close_calls),
                          prediction=prediction)


# ---------------------------------------------------------------------------
# Constants attached to the origin Taylor expansion of zeta, computed as
# limits of trapezoid defects of (log x)^k.

# cells with m <= _PANEL_SPLIT get a subdivided quadrature; further out
# a single 12-node panel is already exact to machine precision (the
# split point is sized for exponents up to 8, where the 24th derivative
# driving the quadrature error still carries a large factorial)
_PANEL_SPLIT = 40
_PANEL_COUNT = 4

# Cells beyond the split are walked in fixed chunks, so a working array
# (14 sample rows of a chunk, 0.9 MB) stays in cache whatever n is; a
# fixed size keeps the summation, and so the result, bit-reproducible.
_CHUNK_CELLS = 1 << 13


@cache
def _quadrature():
    """The 12-point Gauss-Legendre nodes and weights, and the body
    cells' sample offsets and weights, built on the first defect walk:
    at import, numpy.polynomial would cost every zeta command about
    5 ms.

    leggauss returns symmetric nodes in ascending order, so the last six
    are the positive halves of the six +-u pairs. A body cell is sampled
    at u = +-(trapezoid offset, 0.5 * node) / c: positive offsets in the
    first seven rows, their negations in the last seven; a row's weight
    in the cell's defect is 1/2 at a trapezoid end, minus half the Gauss
    weight at a node."""
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(12)
    pair_offsets = np.append(0.5, 0.5 * nodes[6:])[:, None]
    body_weights = np.tile(np.append(0.5, -0.5 * weights[6:]), 2)
    return nodes, weights, pair_offsets, body_weights

# Ceiling on the series order in delta. The order actually used is the
# smallest one whose omitted tail is at most _TAIL_RATIO * delta^2 at
# the largest |delta| of the chunk; delta never exceeds log(3/2) in
# magnitude, where order 16 already meets the bound.
_PHI_ORDER = 20
_TAIL_RATIO = 2.0 ** -64


def _series_order(delta_max: float) -> int:
    """Smallest order N <= _PHI_ORDER with
    sum_{i>N} |delta|^i/i! <= _TAIL_RATIO * delta^2 for |delta| <= delta_max.

    For |delta| < 1 that tail is at most twice its first term
    |delta|^(N+1)/(N+1)!, so 2 delta_max^(N-1)/(N+1)! <= _TAIL_RATIO is
    sufficient. Times base = k l0^(k-1) it bounds the truncation error
    of phi by 2^-64 base delta^2, far below the rounding of the terms
    kept (2^-53 times the same scale) and so below the accumulation
    floor of the defect sum. The bound only grows with delta_max, so
    cells further out never need a higher order."""
    for order in range(2, _PHI_ORDER):
        bound = 2.0 * delta_max ** (order - 1) / math.factorial(order + 1)
        if bound <= _TAIL_RATIO:
            return order
    return _PHI_ORDER


def _centered_log_power(k: int, l0: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(log x)^k minus its tangent-line-in-u affine part at the cell
    center, with u = (x - c)/c and l0 = log c.

    u holds one row per sample offset and one column per cell, l0 one
    entry per cell. Expanded in powers of delta = log1p(u) with one
    fused coefficient per power: using delta - u = -(sum of delta^i/i!,
    i >= 2) exactly merges the tangent defect into the binomial terms,
    so the dominant quadratic contributions are never formed separately
    and cancelled. The naive f - affine difference loses all
    significant digits once c is large.

    The coefficients are computed once per call, for all rows, and the
    series runs by Horner in delta up to the order _series_order picks
    for the largest |delta| in u (never below k, so the binomial part
    is always complete)."""
    delta = np.log1p(u)
    delta_max = max(float(delta.max(initial=0.0)),
                    -float(delta.min(initial=0.0)))
    top = max(_series_order(delta_max), k)
    base = k * l0 ** (k - 1)
    coeffs = [-base / math.factorial(i) for i in range(2, top + 1)]
    for i in range(2, k + 1):
        coeffs[i - 2] = coeffs[i - 2] + math.comb(k, i) * l0 ** (k - i)
    out = coeffs[-1] * delta
    for coeff in reversed(coeffs[:-1]):
        out += coeff
        out *= delta
    out *= delta
    return out


def _head_defects(k: int, split: int) -> np.ndarray:
    """Defects of the cells m = 2..split, each integrated over
    _PANEL_COUNT subpanels of 12 nodes, all in one evaluation."""
    gl_nodes, gl_weights = _quadrature()[:2]
    m = np.arange(2, split + 1, dtype=np.float64)
    c = m - 0.5
    half = 0.5 / c
    width = 1.0 / _PANEL_COUNT
    panel = np.arange(_PANEL_COUNT, dtype=np.float64)[:, None, None]
    x = (m - 1.0) + (panel + 0.5) * width + (0.5 * width * gl_nodes)[:, None]
    nodes = _PANEL_COUNT * gl_nodes.size
    u = np.vstack([half, -half, ((x - c) / c).reshape(nodes, c.size)])
    phi = _centered_log_power(k, np.log(c), u)
    panels = phi[2:].reshape(_PANEL_COUNT, gl_nodes.size, c.size)
    integral = np.zeros_like(c)
    for p in range(_PANEL_COUNT):
        integral += 0.5 * width * (gl_weights @ panels[p])
    return 0.5 * (phi[0] + phi[1]) - integral


def _body_cells(m_lo: int, m_hi: int):
    """Centers c and offsets u = (x - c)/c of the cells m_lo <= m < m_hi,
    each integrated by one 12-node panel: one row per sample (the
    trapezoid end and the six positive nodes, then their negations),
    one column per cell."""
    pair_offsets = _quadrature()[2]
    c = np.arange(m_lo, m_hi, dtype=np.float64) - 0.5
    rows = len(pair_offsets)
    u = np.empty((2 * rows, c.size))
    np.divide(pair_offsets, c, out=u[:rows])
    np.negative(u[:rows], out=u[rows:])
    return c, u


def _defect_walk(ks, n: int) -> list[tuple[float, float]]:
    """(sum, absolute-value sum) over the cells [m-1, m], m = 2..n, of
    the defect (f(m-1)+f(m))/2 - integral of f, for f = (log x)^k and
    each k in ks, in one walk over the cells.

    A cell's f minus its tangent line is the series of
    _centered_log_power, sum_i coeff_i delta^i with the fused
    coefficients coeff_i(k, l0). The quadrature is linear, so in the
    body a cell's defect is sum_i coeff_i M_i, with M_i the quadrature
    defect of delta^i: each chunk forms the moments M_i once, for i up
    to the order _series_order picks for its largest |delta| (never
    below the largest k, so every binomial part is complete), and
    every k reads them, so a k's defects do not depend on which other
    k share the walk. The 39 head cells, where |delta| reaches
    log(3/2) and the series terms cancel, keep _head_defects, which
    sums each sample's series before its quadrature: against a 40-digit
    route that rounds less there than the moments do.

    The cells are walked in chunks of _CHUNK_CELLS, so memory stays
    bounded whatever n is. Each chunk's defects are summed exactly
    (exact.exact_sum) and rounded once, and the chunk sums by an exact
    fsum; the absolute sum, which only sizes the accumulation floor, is
    an exact fsum of per-chunk pairwise sums."""
    split = min(_PANEL_SPLIT, n)
    body_weights = _quadrature()[3]
    parts = [([], []) for _ in ks]
    for k, (sums, abs_sums) in zip(ks, parts):
        defects = _head_defects(k, split)
        sums.append(exact_sum(defects))
        abs_sums.append(float(np.abs(defects).sum()))
    for lo in range(split + 1, n + 1, _CHUNK_CELLS):
        c, u = _body_cells(lo, min(lo + _CHUNK_CELLS, n + 1))
        delta = np.log1p(u, out=u)
        order = _series_order(max(float(delta.max()), -float(delta.min())))
        # row i holds M_i; rows 0 and 1 are never read
        moments = np.empty((max(order, *ks) + 1, c.size))
        power = delta * delta
        for i in range(2, len(moments)):
            np.dot(body_weights, power, out=moments[i])
            power *= delta
        l0 = np.log(c)
        l0_powers = [l0 ** j for j in range(LOG_POWER_K_MAX)]
        for k, (sums, abs_sums) in zip(ks, parts):
            neg_base = -k * l0_powers[k - 1]
            defects = np.zeros_like(l0)
            for i in range(max(order, k), 1, -1):
                coeff = neg_base / math.factorial(i)
                if i <= k:
                    coeff += math.comb(k, i) * l0_powers[k - i]
                defects += coeff * moments[i]
            sums.append(exact_sum(defects))
            abs_sums.append(float(np.abs(defects).sum()))
    return [(math.fsum(sums), math.fsum(abs_sums)) for sums, abs_sums in parts]


@cache
def _defect_sums(n: int, k_top: int) -> tuple[tuple[float, float], ...]:
    """_defect_walk for every k = 1..k_top at cutoff n: the (sum,
    absolute-value sum) of the cell defects of (log x)^k up to n."""
    return tuple(_defect_walk(range(1, k_top + 1), n))


def _derivative_polys(k: int, r_max: int) -> list[np.ndarray]:
    """Coefficient arrays (ascending powers of L, fixed length k) of
    P_r with d^r/dx^r (log x)^k = x^(-r) P_r(log x); the recurrence
    P_{r+1} = P_r' - r P_r (prime meaning d/dL) keeps the degree at
    k-1 and integer coefficients throughout."""
    p = np.zeros(k, dtype=np.float64)
    p[k - 1] = k  # P_1 = k L^(k-1)
    polys = [p]
    for r in range(1, r_max):
        prev = polys[-1]
        diff = np.zeros(k, dtype=np.float64)
        if k > 1:
            diff[:-1] = prev[1:] * np.arange(1, k, dtype=np.float64)
        polys.append(diff - r * prev)
    return polys


def _log_power_derivative(k: int, r: int, x: float) -> float:
    poly = _derivative_polys(k, r)[r - 1]
    lx = math.log(x)
    return x ** (-r) * float(np.polynomial.polynomial.polyval(lx, poly))


class LogPowerConstant(NamedTuple):
    """Limit constant of sum (log m)^k - integral - half endpoint,
    estimated from the cutoff-n trapezoid defect sum.

    tail_correction is the Euler-Maclaurin tail through the third
    derivative order (zero when acceleration is off); error_estimate
    combines the next omitted tail term with an accumulation floor."""

    k: int
    n: int
    accelerated: bool
    value: float
    defect_sum: float
    tail_correction: float
    error_estimate: float


@cache
def log_power_constant(k: int, n: int = LOG_POWER_N_DEFAULT,
                       accelerate: bool = True,
                       k_top: int = LOG_POWER_K_MAX) -> LogPowerConstant:
    """The constant for exponent k at cutoff n. Its defect sum comes
    from one walk shared by every exponent 1..k_top at this n, made on
    the first call and cached, so a caller that asks for k = 1..K passes
    k_top = K; the value does not depend on k_top."""
    if k < 1 or k > LOG_POWER_K_MAX:
        raise ValueError(f"exponent k must be in 1..{LOG_POWER_K_MAX}; the "
                         "k = 0 constant is 1/2 by the series normalization")
    if not k <= k_top <= LOG_POWER_K_MAX:
        raise ValueError(f"k_top must be in {k}..{LOG_POWER_K_MAX}")
    if n < LOG_POWER_N_MIN:
        raise ValueError(f"cutoff n must be at least {LOG_POWER_N_MIN}")
    defect, abs_defect = _defect_sums(n, k_top)[k - 1]
    tail = 0.0
    if accelerate:
        tail = -math.fsum(
            BERNOULLI_OVER_FACTORIAL[j - 1] * _log_power_derivative(k, 2 * j - 1, float(n))
            for j in range(1, 4))
    next_term = abs(BERNOULLI_OVER_FACTORIAL[3]
                    * _log_power_derivative(k, 7, float(n)))
    floor = 4e-16 * (1.0 + abs_defect)
    if not accelerate:
        # without the tail the truncation error is the whole first
        # Euler-Maclaurin tail term
        next_term = abs(BERNOULLI_OVER_FACTORIAL[0]
                        * _log_power_derivative(k, 1, float(n)))
    return LogPowerConstant(k=k, n=n, accelerated=bool(accelerate),
                            value=defect + tail, defect_sum=defect,
                            tail_correction=tail,
                            error_estimate=next_term + floor)


# The contour route's circle: radius 1/2 stays inside the pole at s = 1,
# and its 512 nodes leave a convergence gap far below the constants.
_CONTOUR_RADIUS = 0.5
_CONTOUR_NODES = 512
_CONTOUR_ANGLES = TWO_PI * np.arange(_CONTOUR_NODES) / _CONTOUR_NODES


@cache
def _zeta_ring() -> np.ndarray:
    r = _CONTOUR_RADIUS
    return _zeta_array(np.array([complex(r * math.cos(a), r * math.sin(a))
                                 for a in _CONTOUR_ANGLES]))


class ContourConstant(NamedTuple):
    """Same limit constant recovered from a Cauchy integral for the
    k-th Taylor coefficient of zeta at the origin. convergence_gap is
    the change when the node count is halved; treat the value as
    unconverged when the gap is not small next to the value."""

    k: int
    value: float
    convergence_gap: float


def log_power_constant_contour(k: int) -> ContourConstant:
    """The constant for exponent k (0..LOG_POWER_K_MAX) from the
    trapezoid rule on one fixed circle, |s| = 1/2 at 512 equally spaced
    nodes, whose zeta values are computed on the first call."""
    if k < 0 or k > LOG_POWER_K_MAX:
        raise ValueError(f"exponent k must be in 0..{LOG_POWER_K_MAX}")
    ring = _zeta_ring()
    phases = np.exp(-1j * k * _CONTOUR_ANGLES)

    def coefficient(values: np.ndarray, ph: np.ndarray) -> float:
        # only the real part of the mean is read
        return exact_sum((values * ph).real) / len(values) / _CONTOUR_RADIUS ** k

    c_full = coefficient(ring, phases)
    c_half = coefficient(ring[::2], phases[::2])
    sign = -1.0 if k % 2 else 1.0
    value = sign * math.factorial(k) * (c_full + 1.0)
    gap = abs(math.factorial(k) * (c_full - c_half))
    return ContourConstant(k=k, value=value, convergence_gap=gap)


class ZetaOriginConstants(NamedTuple):
    """Defect-route and contour-route values side by side for k = 1..k_max."""

    n: int
    k_values: tuple[int, ...]
    defect_route: tuple[LogPowerConstant, ...]
    contour_route: tuple[ContourConstant, ...]

    @property
    def route_gaps(self) -> tuple[float, ...]:
        return tuple(abs(d.value - c.value)
                     for d, c in zip(self.defect_route, self.contour_route))


def origin_constants(k_max: int = LOG_POWER_K_MAX,
                     n: int = LOG_POWER_N_DEFAULT) -> ZetaOriginConstants:
    if k_max < 1 or k_max > LOG_POWER_K_MAX:
        raise ValueError(f"k_max must be in 1..{LOG_POWER_K_MAX}")
    ks = tuple(range(1, k_max + 1))
    defect = tuple(log_power_constant(k, n) for k in ks)
    contour = tuple(log_power_constant_contour(k) for k in ks)
    return ZetaOriginConstants(n=n, k_values=ks, defect_route=defect,
                               contour_route=contour)


def zeta_series_near_zero(s: complex) -> complex:
    """Taylor evaluation 1/(s-1) + 1/2 + sum of signed constants times
    s^k / k! for k = 1..LOG_POWER_K_MAX, valid for |s| <= 1/2 where the
    omitted tail sits near 1e-12."""
    s = complex(s)
    if abs(s) > 0.5:
        raise ValueError("series validated only for |s| <= 1/2")
    total = 1.0 / (s - 1.0) + 0.5
    term = 1.0 + 0j
    for k in range(1, LOG_POWER_K_MAX + 1):
        term *= -s / k  # (-1)^k s^k / k!
        total += log_power_constant(k).value * term
    return total
