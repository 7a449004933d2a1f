import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetadesk.constants import euler_constant
from zetadesk.zeta import (_CHUNK_CELLS, _KERNEL_CELLS, _PANEL_SPLIT,
                           _PHI_ORDER, _TAIL_RATIO, IM_MAX, RE_MAX, RE_MIN,
                           ZERO_SCAN_STEP_MIN, _centered_log_power,
                           _defect_sums, _defect_walk, _head_defects,
                           _median, _node_counts, _series_order, _xi_array,
                           _zeta_array, completed_zeta,
                           functional_equation_residual, gauss_pi,
                           log_gamma, log_power_constant,
                           log_power_constant_contour, origin_constants,
                           riemann_von_mangoldt, xi, zero_scan, zeta,
                           zeta_minus_pole, zeta_series_near_zero)

from .oracles import (EULER_GAMMA, GAUSS_PI_SPOTS, ORIGIN_CONSTANTS,
                      XI_AT_ZERO, ZERO_ORDINATES, ZETA_SPOTS)


def test_zeta_spot_values():
    for text, re_ref, im_ref in ZETA_SPOTS:
        ref = complex(re_ref, im_ref)
        got = zeta(complex(text))
        assert abs(got - ref) <= 1e-10 * abs(ref), text


def test_zeta_classical_points():
    assert abs(zeta(2.0) - math.pi ** 2 / 6.0) < 1e-14
    assert abs(zeta(0.0) + 0.5) < 1e-14
    assert abs(zeta(4.0) - math.pi ** 4 / 90.0) < 1e-14
    assert abs(zeta(-1.0) + 1.0 / 12.0) < 1e-13
    for k in (2, 4, 6, 8):
        assert abs(zeta(-float(k))) < 1e-12, k


def test_zeta_rejections():
    with pytest.raises(ValueError):
        zeta(1.0)
    with pytest.raises(ValueError):
        zeta(complex(RE_MAX + 0.5, 0.0))
    with pytest.raises(ValueError):
        zeta(complex(RE_MIN - 0.5, 0.0))
    with pytest.raises(ValueError):
        zeta(complex(0.5, IM_MAX + 1.0))


def test_pole_removed_value():
    assert abs(zeta_minus_pole(1.0) - euler_constant()) < 1e-13
    for s in (complex(0.9, 0.4), complex(1.6, -2.0), complex(-3.0, 7.0)):
        assert abs(zeta_minus_pole(s) + 1.0 / (s - 1.0) - zeta(s)) < 1e-12


def test_near_pole_accuracy():
    s = 1.001
    got = zeta(s)
    ref = ZETA_SPOTS[8]
    assert abs(got - complex(ref[1], ref[2])) <= 1e-10 * abs(got)


def test_log_gamma_agrees_with_gamma_on_reals():
    for x in (0.5, 1.0, 3.25, 7.0, 12.5):
        assert math.isclose(math.exp(log_gamma(x).real), math.gamma(x),
                            rel_tol=1e-13)


def test_log_gamma_complex_reflection_consistency():
    for z in (complex(-2.3, 1.7), complex(0.1, -4.0), complex(-5.5, 0.25)):
        direct = cmath.exp(log_gamma(z))
        via_reflection = cmath.pi / (cmath.sin(cmath.pi * z)
                                     * cmath.exp(log_gamma(1.0 - z)))
        assert abs(direct - via_reflection) <= 1e-11 * abs(direct)


def test_log_gamma_pole_rejection():
    for z in (0.0, -1.0, -7.0):
        with pytest.raises(ValueError):
            log_gamma(z)


def test_gauss_pi_spots():
    for x, ref in GAUSS_PI_SPOTS:
        assert math.isclose(gauss_pi(x), ref, rel_tol=1e-13), x


@given(st.floats(0.25, 25.0))
def test_gauss_pi_recurrence(x):
    assert math.isclose(gauss_pi(x), x * gauss_pi(x - 1.0), rel_tol=1e-11)


def test_gauss_pi_rejects_pole():
    with pytest.raises(ValueError):
        gauss_pi(-1.0)
    with pytest.raises(ValueError):
        gauss_pi(-3.0)


def test_completed_zeta_symmetry():
    for s in (complex(0.3, 4.0), complex(2.0, 11.0), complex(-1.5, 25.0),
              complex(0.5, 60.0)):
        lhs = completed_zeta(s)
        rhs = completed_zeta(1.0 - s)
        assert abs(lhs - rhs) <= 1e-10 * (abs(lhs) + abs(rhs))
    with pytest.raises(ValueError):
        completed_zeta(0.0)
    with pytest.raises(ValueError):
        completed_zeta(1.0)


def test_functional_equation_residual_grid():
    for sigma in (-2.0, -0.5, 0.3, 0.5, 0.8, 2.0):
        for t in (0.5, 3.0, 7.0, 15.0, 30.0):
            assert functional_equation_residual(complex(sigma, t)) <= 1e-8


def test_xi_real_even_and_anchored():
    assert math.isclose(xi(0.0).real, XI_AT_ZERO, rel_tol=1e-12)
    for t in (0.5, 3.7, 14.0, 31.4, 59.5):
        v = xi(t)
        w = xi(-t)
        assert abs(v.imag) <= 1e-10 * abs(v)
        assert abs(v - w) <= 1e-10 * abs(v)


def test_xi_matches_mpmath_off_the_origin():
    # xi(1/2 + it) shrinks by 37 orders up to t = 119, formed as exp of
    # a log-gamma exponent times zeta; the relative gaps measured here
    # are 1.7e-15 at t = 1 and at most 3.6e-13 at the other points, so
    # 1e-12 leaves a margin of about 3
    with mpmath.workdps(40):
        for t in (1.0, 21.0, 50.0, 99.5, 119.0):
            s = mpmath.mpc(0.5, t)
            want = complex(s * (s - 1) / 2 * mpmath.pi ** (-s / 2)
                           * mpmath.gamma(s / 2) * mpmath.zeta(s))
            assert abs(xi(t) - want) <= 1e-12 * abs(want), t


def test_xi_changes_sign_at_first_zero():
    assert xi(14.0).real * xi(14.3).real < 0.0


def _bits(values):
    return np.asarray(values, dtype=np.complex128).view(np.float64)


def test_batched_kernel_equals_one_point_calls():
    # 5001 ordinates over 221 node counts and 10 passes of the kernel
    grid = np.linspace(0.0, 100.0, 5001)
    counts = _node_counts(grid)
    assert np.unique(counts).size > 40
    assert grid.size > 4 * (_KERNEL_CELLS // counts.max())
    batch = _xi_array(grid)
    picks = np.r_[0:grid.size:7, 1, 2, grid.size - 1]
    assert np.array_equal(_bits(batch[picks]), _bits([xi(t) for t in grid[picks]]))
    rng = np.random.default_rng(7)
    for size in (1, 2, 3, 17, 400, 3000):
        part = np.sort(rng.choice(grid.size, size, replace=False))
        assert np.array_equal(_bits(_xi_array(grid[part])), _bits(batch[part]))
    # both branches of zeta, the pole-removed limit and negative heights
    points = np.array([complex(x, y) for x in (-9.5, -3.5, -0.6, -0.5, 0.0, 1.0, 9.9)
                       for y in (0.0, 0.7, -14.1, 60.0, 119.0)])
    points = points[points != 1.0]
    assert np.array_equal(_bits(_zeta_array(points)), _bits([zeta(s) for s in points]))


def _one_by_one_scan(t_max, step, t_min=0.0):
    """zero_scan's zeros as one xi call per grid point and one
    bisection per bracket, the way the census was first written."""
    count = int(math.floor((t_max - t_min) / step)) + 1
    grid = t_min + step * np.arange(count, dtype=np.float64)
    if grid[-1] < t_max:
        grid = np.append(grid, t_max)
    values = np.array([xi(t).real for t in grid])
    zeros = []
    for i in np.nonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0)[0]:
        lo, hi, flo = grid[i], grid[i + 1], values[i]
        while hi - lo > 1e-6:
            mid = 0.5 * (lo + hi)
            fmid = xi(mid).real
            if fmid == 0.0:
                break
            if (fmid > 0) == (flo > 0):
                lo, flo = mid, fmid
            else:
                hi = mid
        else:
            mid = 0.5 * (lo + hi)
        zeros.append(mid)
    return np.array(zeros)


@pytest.mark.parametrize("t_max, step, t_min", [(100.0, 0.01, 0.0),
                                                (26.0, 0.01, 20.0),
                                                (5.0, 0.05, 0.0)])
def test_zero_scan_equals_one_by_one_bisection(t_max, step, t_min):
    report = zero_scan(t_max, step, t_min)
    assert np.array_equal(report.zeros, _one_by_one_scan(t_max, step, t_min))


def test_zero_count_estimate_monotone_and_guarded():
    values = [riemann_von_mangoldt(t) for t in (10.0, 30.0, 60.0, 100.0)]
    assert all(b > a for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        riemann_von_mangoldt(6.0)


@given(st.lists(st.floats(width=64), min_size=1, max_size=12),
       st.integers(0, 3))
def test_median_follows_numpy_rules(cells, repeats):
    # repeats copies of the cells make ties and both parities
    x = np.array(cells * (repeats + 1), dtype=np.float64)
    want = np.median(x)
    got = _median(x)
    assert (math.isnan(got) and math.isnan(want)) or got == want
    assert np.array_equal(x, np.array(cells * (repeats + 1)), equal_nan=True)


def test_zero_scan_finds_known_ordinates():
    report = zero_scan(30.0, 0.05)
    assert report.count == 3
    for got, ref in zip(report.zeros.tolist(), ZERO_ORDINATES[:3]):
        assert abs(got - ref) < 1e-5
    assert report.prediction_gap == report.count - report.prediction


def test_zero_scan_rejections():
    with pytest.raises(ValueError):
        zero_scan(120.0)
    with pytest.raises(ValueError):
        zero_scan(50.0, 0.2)
    with pytest.raises(ValueError):
        zero_scan(10.0, 0.05, 20.0)
    # a finer step is refused before any grid is made: at 1e-9 up to
    # t = 100 it would be 10^11 points
    for step in (1e-9, 0.0, ZERO_SCAN_STEP_MIN * 0.999):
        with pytest.raises(ValueError, match="step"):
            zero_scan(100.0, step)
    assert zero_scan(0.2, ZERO_SCAN_STEP_MIN, 0.1).count == 0


# -- constants at the origin ---------------------------------------------

def test_first_constant_closed_form():
    got = log_power_constant(1, 100_000)
    closed = 0.5 * math.log(2.0 * math.pi) - 1.0
    assert abs(got.value - closed) < 1e-12


def test_defect_route_matches_references():
    for k in range(1, 9):
        got = log_power_constant(k, 100_000)
        ref = ORIGIN_CONSTANTS[k]
        assert abs(got.value - ref) < 1e-11, k
        assert abs(got.value - ref) <= 5.0 * got.error_estimate + 1e-15, k


@pytest.mark.parametrize("n", [1000, 5000])
def test_defect_sum_matches_exact_route(n):
    # sum (log m)^k - (log n)^k / 2 - [F(n) - F(1)] at 40 digits, with
    # F(x) = x sum_j (-1)^j k!/(k-j)! (log x)^(k-j) the antiderivative
    with mpmath.workdps(40):
        logs = [mpmath.log(m) for m in range(2, n + 1)]
        for k in range(1, 9):
            def antiderivative(x, log_x):
                return x * mpmath.fsum(
                    (-1) ** j * (math.factorial(k) // math.factorial(k - j))
                    * log_x ** (k - j) for j in range(k + 1))
            exact = (mpmath.fsum(lm ** k for lm in logs) - logs[-1] ** k / 2
                     - (antiderivative(n, logs[-1])
                        - antiderivative(1, mpmath.mpf(0))))
            got, abs_sum = _defect_sums(n, 8)[k - 1]
            assert abs(got - float(exact)) <= 4e-16 * (1.0 + abs_sum), k


@pytest.mark.parametrize("n", [1000, 50_000])
def test_defect_sum_is_the_same_alone_or_in_the_shared_walk(n):
    for k in range(1, 9):
        assert _defect_walk((k,), n) == [_defect_sums(n, 8)[k - 1]], k
    sums = _defect_sums(n, 8)
    assert _defect_walk((5, 2), n) == [sums[4], sums[1]]


def _horner_defect_sum(k, n):
    """The defect sum with every cell's series summed per sample by
    Horner before its quadrature, one k at a time, as the head is."""
    split = min(_PANEL_SPLIT, n)
    parts = [_head_defects(k, split)]
    nodes, weights = np.polynomial.legendre.leggauss(12)
    offsets = np.append(0.5, 0.5 * nodes[6:])[:, None]
    half_weights = 0.5 * weights[6:]
    for lo in range(split + 1, n + 1, _CHUNK_CELLS):
        c = np.arange(lo, min(lo + _CHUNK_CELLS, n + 1), dtype=np.float64) - 0.5
        u = np.vstack([offsets / c, -offsets / c])
        phi = _centered_log_power(k, np.log(c), u)
        parts.append(0.5 * (phi[0] + phi[7]) - half_weights @ (phi[1:7] + phi[8:]))
    return math.fsum(np.concatenate(parts).tolist())


@pytest.mark.parametrize("n", [1000, 50_000])
def test_moment_walk_matches_per_sample_horner(n):
    # the two differ only in where they round: within two units in the
    # last place of the sum's scale 1 + sum |d|
    for k in range(1, 9):
        got, abs_sum = _defect_sums(n, 8)[k - 1]
        assert abs(got - _horner_defect_sum(k, n)) <= 2 * math.ulp(1.0 + abs_sum), k


def test_series_order_bounds_the_tail():
    # largest |delta| of the head cells and of each body chunk's first cell
    centers = [1.5] + [m - 0.5 for m in range(_PANEL_SPLIT + 1, 2_000_001,
                                              _CHUNK_CELLS)]
    orders = []
    for c in centers:
        delta_max = -math.log1p(-0.5 / c)
        order = _series_order(delta_max)
        orders.append(order)
        with mpmath.workdps(40):
            for delta in (mpmath.mpf(delta_max), -mpmath.mpf(delta_max)):
                kept = mpmath.fsum(delta ** i / mpmath.factorial(i)
                                   for i in range(order + 1))
                tail = abs(mpmath.exp(delta) - kept)
                assert tail <= _TAIL_RATIO * delta ** 2, c
    assert max(orders) <= _PHI_ORDER
    assert all(b <= a for a, b in zip(orders, orders[1:]))
    assert orders[-1] < orders[0]


def test_defect_route_without_acceleration():
    raw = log_power_constant(3, 50_000, accelerate=False)
    acc = log_power_constant(3, 50_000, accelerate=True)
    ref = ORIGIN_CONSTANTS[3]
    assert raw.tail_correction == 0.0
    assert abs(raw.value - ref) <= 2.0 * raw.error_estimate
    assert abs(acc.value - ref) < abs(raw.value - ref)


def test_defect_route_rejections():
    with pytest.raises(ValueError):
        log_power_constant(0)
    with pytest.raises(ValueError):
        log_power_constant(9)
    with pytest.raises(ValueError):
        log_power_constant(1, 999)
    # the shared walk must reach k and stay within the exponents
    for k, k_top in ((3, 2), (1, 9)):
        with pytest.raises(ValueError, match="k_top"):
            log_power_constant(k, 1000, True, k_top)


def test_contour_route_matches_references():
    assert abs(log_power_constant_contour(0).value - 0.5) < 1e-12
    for k in range(1, 9):
        got = log_power_constant_contour(k)
        assert abs(got.value - ORIGIN_CONSTANTS[k]) < 1e-8, k
    with pytest.raises(ValueError):
        log_power_constant_contour(9)


def test_routes_agree():
    report = origin_constants(5, 20_000)
    for k, gap in zip(report.k_values, report.route_gaps):
        assert gap < 1e-6, k


def test_series_matches_engine_near_origin():
    for r in (0.1, 0.3, 0.5):
        for angle in np.linspace(0.0, 2.0 * math.pi, 9)[:-1]:
            s = complex(r * math.cos(angle), r * math.sin(angle))
            assert abs(zeta_series_near_zero(s) - zeta(s)) < 1e-10, s
    with pytest.raises(ValueError):
        zeta_series_near_zero(0.51)
