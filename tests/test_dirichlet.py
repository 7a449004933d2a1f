import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetadesk import dirichlet
from zetadesk.arith import (CHUNK, MAX_LIMIT, chunk_bounds, grid_prefix,
                            mertens_prefix)
from zetadesk.constants import euler_constant
from zetadesk.dirichlet import (ConvergenceParams, _exact_int_mul,
                                _mean_value_theta_grid, abel_rearranged_sum,
                                abscissa_probe, custom_stream,
                                dirichlet_convolution,
                                divisor_corrected_stream, mean_value_theta,
                                mobius_stream, one_minus_g_stream,
                                partial_sum, prefix_ratio_scan, unit_stream)


def test_stream_values(table4):
    mob = mobius_stream(table4, 100)
    assert mob.values[0] == 0.0
    assert mob.values[1] == 1.0 and mob.values[6] == 1.0
    assert mob.values[4] == 0.0 and mob.values[30] == -1.0

    unit = unit_stream(50)
    assert unit.values[1:].sum() == 50.0

    c2 = 2.0 * euler_constant()
    div = divisor_corrected_stream(table4, 100)
    assert abs(div.values[1] - (1.0 - c2)) < 1e-15
    assert abs(div.values[12] - (6.0 - math.log(12) - c2)) < 1e-15

    g = one_minus_g_stream(table4, 100)
    assert abs(g.values[1] - (1.0 - c2)) < 1e-15
    assert abs(g.values[8] - (1.0 - math.log(2))) < 1e-15
    assert abs(g.values[97] - (1.0 - math.log(97))) < 1e-15
    # 100 = 2^2 * 5^2 is not a prime power, so its log weight is zero
    assert g.values[6] == 1.0 and g.values[100] == 1.0


def test_custom_stream_validation():
    s = custom_stream("probe", [9.0, 1.0, 2.0])
    assert s.values[0] == 0.0 and s.limit == 2
    with pytest.raises(ValueError):
        custom_stream("bad", [[1.0, 2.0], [3.0, 4.0]])


def test_partial_sum_matches_direct(table4):
    mob = mobius_stream(table4, 200)
    s = complex(0.8, -2.0)
    direct = sum(int(table4.mu[n]) * cmath.exp(-s * math.log(n))
                 for n in range(1, 151))
    assert abs(partial_sum(mob, s, 150) - direct) < 1e-12
    with pytest.raises(ValueError):
        partial_sum(mob, s, 201)


@given(st.integers(1, 10_000_000),
       st.floats(0.05, 5.0, allow_nan=False, allow_subnormal=False))
def test_mean_value_exponent_stays_interior_and_exact(n, s):
    theta = mean_value_theta(n, s)
    assert 0.0 < theta < 1.0
    # the power difference must be formed without cancellation, or its
    # own rounding noise swamps the identity being checked
    lhs = math.exp(-s * math.log(n)) * -math.expm1(-s * math.log1p(1.0 / n))
    rhs = s / (n + theta) ** (s + 1.0)
    assert math.isclose(lhs, rhs, rel_tol=1e-9)


def test_mean_value_exponent_near_half_for_large_n():
    assert abs(mean_value_theta(10_000_000, 0.75) - 0.5) < 1e-4


def _theta_at_40_digits(j, sigma):
    with mpmath.workdps(40):
        j, sigma = mpmath.mpf(j), mpmath.mpf(sigma)
        delta = j ** -sigma - (j + 1) ** -sigma
        return float((sigma / delta) ** (1 / (sigma + 1)) - j)


def test_theta_grid_keeps_full_precision_up_to_the_block_bound():
    # n + theta - n lost about j * log(j) * 2^-53 near the bound; the j
    # lie on both sides of the 1e-3 switches to the series in u = 1/j
    # and in h = sigma * log1p(u) / 2
    j = np.array([1, 2, 3, 10, 30, 100, 300, 999, 1000, 1001, 5000, 65536,
                  10**5, 10**6, 10**7, 123456789, MAX_LIMIT - 2],
                 dtype=np.float64)
    for sigma in (0.1, 0.5, 2.0):
        got = _mean_value_theta_grid(j, sigma)
        want = [_theta_at_40_digits(int(v), sigma) for v in j]
        assert np.max(np.abs(got - want)) < 1e-12, sigma


def test_theta_grid_at_extreme_sigma_stays_finite_and_interior():
    j = np.array([1.0, 1000.0, 2.0**26, MAX_LIMIT - 2])
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for sigma in (1e-300, 1e300, 1.7e308):
            theta = _mean_value_theta_grid(j, sigma)
            assert np.all((0.0 < theta) & (theta < 1.0)), sigma


# -- summation by parts --------------------------------------------------

def _table_block(prefix, n, m):
    """M(n-1..n+m) sliced off a full prefix: the sieve-table route."""
    return prefix.values[n - 1 : n + m + 1]


def _table_segments(prefix, n, m):
    """The same block cut as arith.mertens_segments cuts it: M(n - 1)
    alone, then one slice per chunk_bounds segment of [n, n + m]."""
    yield prefix.values[n - 1 : n]
    for lo, hi in chunk_bounds(n + m, n):
        yield prefix.values[lo:hi]


def _table_abel(prefix, n, m, s):
    return abel_rearranged_sum(n, m, s, _table_segments(prefix, n, m))


def _fsum_complex(terms):
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def _whole_block_abel(block, s, n):
    """The decomposition with every array over the whole block at once
    and one fsum per sum: the reference the segment walk must match
    bit for bit. Returns the AbelDecomposition fields it checks, with
    the length-m array of mean-value exponents in place of their min
    and max."""
    s = complex(s)
    m = block.size - 2
    j_full = np.arange(n, n + m + 1, dtype=np.float64)
    powers = np.exp(-s * np.log(j_full))
    f_block = (block[1:] - block[:-1]).astype(np.float64)
    direct = _fsum_complex(f_block * powers)
    b_coeff = np.array([block[-1], -block[0]], dtype=np.float64)
    b_power = np.array([powers[-1], powers[0]], dtype=np.complex128)
    b_re_hi, b_re_lo = _exact_int_mul(b_coeff, b_power.real)
    b_im_hi, b_im_lo = _exact_int_mul(b_coeff, b_power.imag)
    first = complex(b_re_hi[0] + b_re_lo[0], b_im_hi[0] + b_im_lo[0])
    second = complex(b_re_hi[1] + b_re_lo[1], b_im_hi[1] + b_im_lo[1])
    if m > 0:
        j = np.arange(n, n + m, dtype=np.float64)
        g = block[1:-1].astype(np.float64)
        diff = powers[:-1] - powers[1:]
        re_hi, re_lo = _exact_int_mul(g, diff.real)
        im_hi, im_lo = _exact_int_mul(g, diff.imag)
        remainder = complex(math.fsum(np.concatenate([re_hi, re_lo])),
                            math.fsum(np.concatenate([im_hi, im_lo])))
        rearranged = complex(
            math.fsum(np.concatenate([b_re_hi, b_re_lo, re_hi, re_lo])),
            math.fsum(np.concatenate([b_im_hi, b_im_lo, im_hi, im_lo])))
        thetas = _mean_value_theta_grid(j, s.real)
    else:
        remainder = 0j
        rearranged = complex(math.fsum(np.concatenate([b_re_hi, b_re_lo])),
                             math.fsum(np.concatenate([b_im_hi, b_im_lo])))
        thetas = np.zeros(0, dtype=np.float64)
    return direct, (first, second), remainder, rearranged, thetas


def _direct_block(prefix, s, n, m):
    mu = np.diff(_table_block(prefix, n, m).astype(np.float64))
    j = np.arange(n, n + m + 1, dtype=np.float64)
    terms = mu * np.exp(-s * np.log(j))
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def test_abel_identity_exact_cases(prefix4):
    for (n, m, s) in [(2, 5, 0.75), (100, 1000, complex(0.75, 0)),
                      (50, 0, complex(1.5, -3.0)),
                      (3, 9000, complex(0.1, 10.0))]:
        dec = _table_abel(prefix4, n, m, complex(s))
        assert abs(dec.direct_sum - dec.rearranged) <= \
            1e-13 * max(1e-30, abs(dec.direct_sum))
        assert 0.0 < dec.theta_min and dec.theta_max < 1.0
        assert abs(dec.direct_sum - _direct_block(prefix4, complex(s), n, m)) \
            < 1e-13


def test_abel_boundary_terms_are_the_literal_quotients(prefix4):
    n, m, s = 20, 300, complex(0.6, 1.5)
    dec = _table_abel(prefix4, n, m, s)
    top = int(prefix4.values[n + m]) * cmath.exp(-s * math.log(n + m))
    bottom = -int(prefix4.values[n - 1]) * cmath.exp(-s * math.log(n))
    assert abs(dec.boundary_terms[0] - top) < 1e-14
    assert abs(dec.boundary_terms[1] - bottom) < 1e-14
    recombined = dec.boundary_terms[0] + dec.boundary_terms[1] + dec.remainder
    assert abs(recombined - dec.rearranged) < 1e-12 * max(1.0, abs(recombined))


def test_abel_rejections(prefix4):
    with pytest.raises(ValueError):
        _table_abel(prefix4, 1, 10, 0.75)
    with pytest.raises(ValueError):
        abel_rearranged_sum(2, -1, 0.75, [prefix4.values[1:2]])
    with pytest.raises(ValueError):
        _table_abel(prefix4, 2, 10, -0.5)
    # segments that do not follow chunk_bounds
    with pytest.raises(ValueError):
        abel_rearranged_sum(2, 10, 0.75,
                            [prefix4.values[1:2], prefix4.values[2:14]])
    with pytest.raises(ValueError):
        abel_rearranged_sum(2, 10, 0.75, [prefix4.values[1:2]])
    with pytest.raises(ValueError):
        abel_rearranged_sum(2, MAX_LIMIT, 0.75)
    # s log n would leave binary64: the powers are nan or all zero
    for s in (complex(0.5, 1e308), 1.7e308, complex(1e301, 0.5),
              complex(0.5, -1e301)):
        with pytest.raises(ValueError):
            abel_rearranged_sum(2, 5, s)


def test_abel_block_whose_powers_all_underflow():
    # j^-2000 is below the least subnormal for every j >= 2
    dec = abel_rearranged_sum(2, 5, 2000.0)
    assert dec.direct_sum == dec.rearranged == dec.remainder == 0j
    assert 0.0 < dec.theta_min <= dec.theta_max < 1.0


def test_abel_empty_block_has_no_exponents(prefix4):
    dec = _table_abel(prefix4, 50, 0, complex(1.5, -3.0))
    assert dec.remainder == 0j
    assert (dec.theta_min, dec.theta_max) == (math.inf, -math.inf)


def _rearranged_scale(block, s, n):
    """|boundary terms| + sum |M(j)| |j^-s - (j+1)^-s|: the size of the
    terms the rearranged sum adds. Each power difference is rounded to
    a relative 2^-53 of itself, and the rest of the rearrangement rounds
    only once, at the end, so the gap to the direct sum scales with
    this, not with |direct| (which is exactly 0 when mu vanishes on the
    block)."""
    j = np.arange(n, n + block.size - 1, dtype=np.float64)
    powers = np.exp(-s * np.log(j))
    g = block.astype(np.float64)
    boundary = abs(g[-1] * powers[-1]) + abs(g[0] * powers[0])
    return boundary + math.fsum(np.abs(g[1:-1] * (powers[:-1] - powers[1:])))


@settings(max_examples=40)
@given(st.integers(2, 4000), st.integers(0, 4000),
       st.floats(0.1, 3.0), st.floats(-20.0, 20.0))
@example(n=27, m=1, sigma=0.5, t=8.0)  # mu(27) = mu(28) = 0: direct is 0j
def test_abel_identity_randomized(prefix4, n, m, sigma, t):
    if n + m > prefix4.limit:
        m = prefix4.limit - n
    s = complex(sigma, t)
    dec = _table_abel(prefix4, n, m, s)
    assert abs(dec.direct_sum - dec.rearranged) <= \
        1e-12 * _rearranged_scale(_table_block(prefix4, n, m), s, n)


@settings(max_examples=40)
@given(st.integers(2, 300_000), st.integers(0, 3 * CHUNK),
       st.floats(0.1, 3.0), st.floats(-20.0, 20.0))
@example(n=2, m=0, sigma=1.0, t=0.0)
@example(n=2, m=1, sigma=0.5, t=14.1)
@example(n=27, m=1, sigma=0.5, t=8.0)  # mu(27) = mu(28) = 0: direct is 0j
@example(n=2, m=CHUNK - 3, sigma=0.5, t=14.1)  # block ends at CHUNK - 1
@example(n=2, m=CHUNK - 2, sigma=0.5, t=14.1)  # ... at CHUNK
@example(n=2, m=CHUNK - 1, sigma=0.5, t=14.1)  # ... at CHUNK + 1
@example(n=CHUNK, m=CHUNK - 2, sigma=0.5, t=14.1)  # CHUNK - 1 cells
@example(n=CHUNK, m=CHUNK - 1, sigma=0.5, t=14.1)  # one whole segment
@example(n=CHUNK, m=CHUNK, sigma=0.5, t=14.1)  # one cell into a second
@example(n=CHUNK, m=2 * CHUNK - 1, sigma=0.7, t=-3.0)  # two whole segments
@example(n=1000, m=3 * CHUNK, sigma=2.5, t=-19.0)
def test_abel_walk_matches_the_whole_block(prefix6, n, m, sigma, t):
    s = complex(sigma, t)
    dec = _table_abel(prefix6, n, m, s)
    direct, boundary, remainder, rearranged, thetas = _whole_block_abel(
        _table_block(prefix6, n, m), s, n)
    assert dec.direct_sum == direct
    assert dec.boundary_terms == boundary
    assert dec.remainder == remainder
    assert dec.rearranged == rearranged
    if m:
        assert dec.theta_min == thetas.min() and dec.theta_max == thetas.max()


def test_abel_theta_nan_reaches_min_and_max(prefix4, monkeypatch):
    # a NaN exponent in any segment but the first must survive the
    # running min and max, as it does in numpy's min and max
    def theta_grid(j, sigma):
        out = np.full(j.size, 0.5)
        out[j == CHUNK + 7] = np.nan
        return out

    monkeypatch.setattr(dirichlet, "_mean_value_theta_grid", theta_grid)
    dec = abel_rearranged_sum(2, 2 * CHUNK, 0.75)
    assert math.isnan(dec.theta_min) and math.isnan(dec.theta_max)
    assert not (0.0 < dec.theta_min and dec.theta_max < 1.0)


@settings(max_examples=30)
@given(st.integers(2, 1_000_000), st.integers(0, 3000),
       st.floats(0.1, 3.0), st.floats(-20.0, 20.0))
@example(n=65_000, m=1000, sigma=0.5, t=14.1)  # crosses 2^16
def test_abel_routes_agree(prefix6, n, m, sigma, t):
    m = min(m, prefix6.limit - n)
    s = complex(sigma, t)
    sieved = abel_rearranged_sum(n, m, s)
    table = _table_abel(prefix6, n, m, s)
    assert sieved.direct_sum == table.direct_sum
    assert sieved.rearranged == table.rearranged
    assert sieved.boundary_terms == table.boundary_terms
    assert sieved.remainder == table.remainder
    assert (sieved.theta_min, sieved.theta_max) == \
        (table.theta_min, table.theta_max)


# -- convolution ---------------------------------------------------------

def _rand_stream(draw_ints, name):
    vals = np.array([0.0] + [float(v) for v in draw_ints], dtype=np.float64)
    return custom_stream(name, vals)


@settings(max_examples=30)
@given(st.lists(st.integers(-9, 9), min_size=2, max_size=24),
       st.lists(st.integers(-9, 9), min_size=2, max_size=24))
def test_convolution_commutes(a_ints, b_ints):
    size = min(len(a_ints), len(b_ints))
    a = _rand_stream(a_ints[:size], "a")
    b = _rand_stream(b_ints[:size], "b")
    ab = dirichlet_convolution(a, b)
    ba = dirichlet_convolution(b, a)
    assert np.array_equal(ab.values, ba.values)


@settings(max_examples=20)
@given(st.lists(st.integers(-5, 5), min_size=2, max_size=14),
       st.lists(st.integers(-5, 5), min_size=2, max_size=14),
       st.lists(st.integers(-5, 5), min_size=2, max_size=14))
def test_convolution_associates(a_ints, b_ints, c_ints):
    size = min(len(a_ints), len(b_ints), len(c_ints))
    a = _rand_stream(a_ints[:size], "a")
    b = _rand_stream(b_ints[:size], "b")
    c = _rand_stream(c_ints[:size], "c")
    left = dirichlet_convolution(dirichlet_convolution(a, b), c)
    right = dirichlet_convolution(a, dirichlet_convolution(b, c))
    assert np.allclose(left.values, right.values, rtol=0, atol=1e-9)


def _per_d_convolution(a, b):
    """The convolution as one strided pass per d in 1..n, each out[m]
    taking its terms in ascending d: the bit-level reference."""
    n = a.limit
    out = np.zeros(n + 1, dtype=np.float64)
    for d in range(1, n + 1):
        out[d :: d] += a.values[d] * b.values[1 : n // d + 1]
    return out


# r^2 - 1, r^2, r^2 + r and (r + 1)^2 - 1 around r = 37 put the split at
# isqrt(n) on every side of a square
@pytest.mark.parametrize("limit", [1, 2, 3, 1368, 1369, 1406, 1443, 4000])
def test_convolution_is_bit_identical_to_per_d_loop(table4, limit):
    rng = np.random.default_rng(limit)
    pairs = [(mobius_stream(table4, limit), divisor_corrected_stream(table4, limit)),
             (divisor_corrected_stream(table4, limit), one_minus_g_stream(table4, limit)),
             (custom_stream("x", rng.standard_normal(limit + 1)),
              custom_stream("y", rng.standard_normal(limit + 1)))]
    for a, b in pairs:
        got = dirichlet_convolution(a, b).values
        assert got.tobytes() == _per_d_convolution(a, b).tobytes()


@settings(max_examples=60)
@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=300),
       st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=300))
def test_convolution_streams_are_bit_identical_to_per_d_loop(a_vals, b_vals):
    size = min(len(a_vals), len(b_vals))
    a = custom_stream("a", [0.0] + a_vals[: size - 1])
    b = custom_stream("b", [0.0] + b_vals[: size - 1])
    got = dirichlet_convolution(a, b).values
    assert got.tobytes() == _per_d_convolution(a, b).tobytes()


def test_delta_is_neutral(table4):
    mob = mobius_stream(table4, 64)
    delta = custom_stream("delta", [0.0, 1.0] + [0.0] * 63)
    assert np.array_equal(dirichlet_convolution(mob, delta).values,
                          mob.values)


def test_mobius_inverts_unit(table4):
    n = 512
    conv = dirichlet_convolution(mobius_stream(table4, n), unit_stream(n))
    assert conv.values[1] == 1.0
    assert not np.any(conv.values[2:])


def test_convolution_identity_for_divisor_correction(table4):
    n = 4000
    got = dirichlet_convolution(mobius_stream(table4, n),
                                divisor_corrected_stream(table4, n))
    want = one_minus_g_stream(table4, n)
    assert np.max(np.abs(got.values[1:] - want.values[1:])) < 1e-9


# -- scans and probes ----------------------------------------------------

def test_prefix_ratio_scan_anchors(table4):
    mob = mobius_stream(table4, 10_000)
    report = prefix_ratio_scan(mob, 0.6, 10_000)
    assert report.columns == ("n", "prefix", "ratio")
    last = report.rows[-1]
    assert last[0] == 10_000
    direct = float(np.sum(table4.mu[1:10_001]))
    assert last[1] == direct
    assert math.isclose(last[2], direct / 10_000 ** 0.6, rel_tol=1e-12)
    assert report.stats["tail_sup"] >= abs(last[2])


_EDGE = 1 << 16


def _whole_range_one_minus_g(table, n):
    """1 - w(n) over the whole range, one prime power at a time: the
    bit-level reference for the chunked stream."""
    values = np.ones(n + 1, dtype=np.float64)
    values[0] = 0.0
    values[1] = 1.0 - 2.0 * euler_constant()
    for p in table.primes:
        p = int(p)
        if p > n:
            break
        logp = math.log(p)
        pk = p
        while pk <= n:
            values[pk] = 1.0 - logp
            pk *= p
    return values


# 2^16 is a prime power in the last cell of the first chunk, and
# 2^16 + 1 a prime in the first cell of the second
@pytest.mark.parametrize("limit", [1, 2, _EDGE - 1, _EDGE, _EDGE + 1, 3 * _EDGE + 5])
@pytest.mark.parametrize("make", [
    mobius_stream,
    lambda table, n: unit_stream(n),
    divisor_corrected_stream,
    one_minus_g_stream,
], ids=["mobius", "unit", "divisor_corrected", "one_minus_g"])
def test_chunked_prefix_is_bit_identical_to_full_cumsum(table6, make, limit):
    stream = make(table6, limit)
    n = np.arange(1, limit + 1, dtype=np.float64)
    whole = {"mobius": table6.mu[1 : limit + 1].astype(np.float64),
             "unit": np.ones(limit),
             "divisor_corrected": (table6.divisor_count[1 : limit + 1] - np.log(n)
                                   - 2.0 * euler_constant()),
             "one_minus_g": _whole_range_one_minus_g(table6, limit)[1:]}[stream.name]
    # the stream is the concatenation of the chunks, computed whole
    assert np.array_equal(stream.values[1:].view(np.uint64), whole.view(np.uint64))
    full = np.cumsum(whole)
    # rows on both sides of every chunk edge, the first row and the last
    edges = range(_EDGE, limit + 1, _EDGE)
    grid = np.unique([1, limit, *(e + d for e in edges for d in (-1, 0, 1, 2))])
    grid = grid[grid <= limit].astype(np.int64)
    # chunks made from the table, and chunks sliced from the filled values
    for coeffs in (make(table6, limit), custom_stream(stream.name, stream.values)):
        got = grid_prefix(coeffs.chunk, grid)
        assert np.array_equal(got.view(np.uint64), full[grid - 1].view(np.uint64))
        rows, prefix = prefix_ratio_scan(coeffs, 0.5).data[:2]
        assert np.array_equal(prefix.view(np.uint64), full[rows - 1].view(np.uint64))


def test_chunked_prefix_keeps_a_leading_negative_zero():
    stream = custom_stream("signed", [0.0, -0.0, -0.0, 1.0])
    got = grid_prefix(stream.chunk, np.array([1, 2, 3]))
    assert np.array_equal(got.view(np.uint64),
                          np.cumsum(stream.values[1:]).view(np.uint64))


def test_abscissa_probe_slopes(table6):
    mob = abscissa_probe(mobius_stream(table6), 1_000_000)
    assert 0.2 < mob.conditional_estimate < 0.8
    assert abs(mob.absolute_estimate - 1.0) < 0.05
    unit = abscissa_probe(unit_stream(100_000))
    assert abs(unit.conditional_estimate - 1.0) < 0.02
    assert abs(unit.absolute_estimate - 1.0) < 0.02
    with pytest.raises(ValueError):
        abscissa_probe(unit_stream(100))


def test_convergence_params_combine():
    params = ConvergenceParams(alpha=0.5, beta=1.0)
    assert params.product_abscissa == 1.0
