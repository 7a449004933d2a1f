import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetadesk.arith import (MertensPrefix, MertensQuotients, chebyshev_theta,
                            integer_root, mertens_quotients)
from zetadesk.asymptotics import (H_READINGS, LHS_CONVENTIONS,
                                  divisor_asymptotic_ratio,
                                  divisor_ratio_scan, floor_identity_probe,
                                  floor_identity_sweep, li,
                                  mertens_constant_estimate,
                                  prime_count_gap_ratio, prime_count_gap_scan,
                                  prime_window_count, prime_window_decades,
                                  psi_decomposition_check, psi_deviation,
                                  psi_sum, riemann_prime_count,
                                  theta_deviation, theta_deviation_scan)
from zetadesk.constants import euler_constant

from .oracles import LI_SPOTS, li_by_quadrature


@given(st.integers(0, 10 ** 12), st.integers(1, 10))
def test_integer_root_brackets(n, k):
    r = integer_root(n, k)
    assert r ** k <= n
    assert (r + 1) ** k > n


def test_integer_root_exact_powers():
    assert integer_root(8, 3) == 2
    assert integer_root(7, 3) == 1
    assert integer_root(10 ** 12, 2) == 10 ** 6
    assert integer_root(3 ** 20, 20) == 3
    assert integer_root(0, 5) == 0


def test_mangoldt_prefix_matches_direct_sum(table4):
    prefix = table4.mangoldt_prefix
    c2 = 2.0 * euler_constant()
    for n in (1, 2, 16, 100, 1000, 9999):
        direct = [c2]
        for p in table4.primes.tolist():
            if p > n:
                break
            count = int(math.log(n) / math.log(p))
            while p ** count > n:
                count -= 1
            while p ** (count + 1) <= n:
                count += 1
            direct.append(count * math.log(p))
        assert abs(prefix[n] - math.fsum(direct)) < 1e-10, n
    again = table4.mangoldt_prefix
    assert again is prefix


def test_psi_sum_is_theta_ladder(table6):
    for n in (4, 100, 10_000, 999_983):
        direct = []
        k = 1
        while True:
            r = integer_root(n, k)
            if r < 2:
                break
            direct.append(chebyshev_theta(table6, r))
            k += 1
        # accumulation order differs between routes, so allow rounding
        assert math.isclose(psi_sum(table6, n), math.fsum(direct),
                            rel_tol=1e-13)


def test_psi_decomposition_identity(table6):
    for n in (2, 10, 1000, 123_456, 1_000_000):
        dec = psi_decomposition_check(table6, n)
        assert abs(dec.diff) <= 1e-9 * max(1.0, abs(dec.lhs)), n


def test_deviation_definitions(table6):
    n, s = 100_000, 0.75
    theta = chebyshev_theta(table6, n)
    assert theta_deviation(table6, n, s) == (theta - n) / n ** s
    # the deviation is built on the theta ladder; the log-weight prefix
    # route must agree within the decomposition tolerance
    prefix = table6.mangoldt_prefix
    ladder_route = psi_deviation(table6, n, s)
    prefix_route = (prefix[n] - 2.0 * euler_constant() - n) / n ** s
    assert math.isclose(ladder_route, prefix_route, rel_tol=0.0,
                        abs_tol=1e-8)
    with pytest.raises(ValueError):
        theta_deviation(table6, n, 0.0)
    with pytest.raises(ValueError):
        theta_deviation(table6, n, 1.5)


def test_theta_deviation_scan_shape(table6):
    report = theta_deviation_scan(table6, 0.75, 100_000)
    assert report.columns == ("n", "theta", "deviation")
    assert report.rows[-1][0] == 100_000
    assert report.stats["exponent"] == 0.75
    assert report.stats["last_abs"] == abs(report.rows[-1][2])


def test_divisor_ratio_values(table4):
    c2 = 2.0 * euler_constant()
    assert abs(divisor_asymptotic_ratio(table4, 1) - (2.0 - c2)) < 1e-12
    assert abs(divisor_asymptotic_ratio(table4, 10) - 0.768) < 1e-3


def test_divisor_ratio_scan_grids(table4):
    geo = divisor_ratio_scan(table4, 10_000, n_min=1000)
    assert geo.rows[-1][0] == 10_000
    assert geo.stats["sup_abs"] <= 1.0
    arith_grid = divisor_ratio_scan(table4, 1000, every=250)
    assert [row[0] for row in arith_grid.rows] == [250, 500, 750, 1000]
    # scan rows are vectorized, the single-point route is scalar math
    assert math.isclose(arith_grid.rows[-1][1],
                        divisor_asymptotic_ratio(table4, 1000),
                        rel_tol=1e-12)


def test_li_matches_frozen_references():
    for x, ref in LI_SPOTS:
        assert abs(li(x) - ref) <= 1e-10, x


def test_li_matches_quadrature():
    for x in (5.0, 50.0, 1234.5, 99_000.0):
        assert abs(li(x) - li_by_quadrature(x)) < 1e-8, x


def test_li_rejects_left_of_one():
    for x in (1.0, 0.5, -3.0):
        with pytest.raises(ValueError):
            li(x)


def test_weighted_prime_count_values(table6):
    assert riemann_prime_count(table6, 1.5) == 0.0
    assert riemann_prime_count(table6, 3) == 2.0
    assert riemann_prime_count(table6, 4) == 2.5
    got = riemann_prime_count(table6, 100)
    # pi(100)/1 + pi(10)/2 + pi(4.64)/3 + pi(3.16)/4 + pi(2.51)/5
    # + pi(2.15)/6; the seventh root drops below 2
    want = 25 + 4 / 2 + 2 / 3 + 2 / 4 + 1 / 5 + 1 / 6
    assert abs(got - want) < 1e-12


def test_weighted_prime_count_against_primepi(table6):
    from sympy import primepi

    for x in (10, 97, 5000, 81_920):
        direct = []
        k = 1
        while True:
            r = integer_root(x, k)
            if r < 2:
                break
            direct.append(int(primepi(r)) / k)
            k += 1
        assert abs(riemann_prime_count(table6, x) - math.fsum(direct)) \
            < 1e-12, x


def test_gap_ratio_definition(table6):
    x, s = 10_000.0, 0.75
    expected = (riemann_prime_count(table6, x) - li(x)) / x ** s
    assert prime_count_gap_ratio(table6, x, s) == expected
    report = prime_count_gap_scan(table6, s, 100_000)
    assert report.columns == ("x", "ratio")
    assert report.rows[-1][0] == 100_000


def test_mertens_constant_estimates(table6):
    got = mertens_constant_estimate(table6, 10)
    direct = 1 / 2 + 1 / 3 + 1 / 5 + 1 / 7 - math.log(math.log(10))
    assert abs(got - direct) < 1e-14
    decades = [mertens_constant_estimate(table6, 10 ** k)
               for k in range(1, 7)]
    assert all(b < a for a, b in zip(decades, decades[1:]))
    with pytest.raises(ValueError):
        mertens_constant_estimate(table6, 9)


def test_prime_windows(table6):
    assert prime_window_count(table6, 10, 1.0) == 4  # 11, 13, 17, 19
    assert prime_window_count(table6, 7, 0.5) == 0   # (7, 10.5] has none
    rows = prime_window_decades(table6, 0.1, 1000, 100_000)
    assert [r[0] for r in rows] == [1000, 10_000, 100_000]
    assert [r[2] for r in rows] == [16, 106, 861]
    with pytest.raises(ValueError):
        prime_window_count(table6, 10, 0.0)
    with pytest.raises(ValueError):
        prime_window_count(table6, 999_999, 0.1)


def test_prime_window_matches_direct_count(table4):
    primes = table4.primes.tolist()
    for n, h in ((50, 0.3), (100, 1.0), (1234, 0.1)):
        direct = sum(1 for p in primes if n < p <= (1 + h) * n)
        assert prime_window_count(table4, n, h) == direct


# -- floor-quotient identity ----------------------------------------------

def _table_probe(prefix, table, n):
    """floor_identity_probe fed from a full prefix: the sieve-table
    route, against which the small-sieve route is checked. The prefix
    covers n, so no quotient of n lies above it and large is unused."""
    assert 1 <= n <= min(prefix.limit, table.limit)
    quotients = MertensQuotients(n=n, mu=table.mu, small=prefix.values,
                                 large=np.zeros(1, dtype=np.int64))
    return floor_identity_probe(quotients)


def test_identity_probe_small_cases(prefix4, table4):
    p4 = _table_probe(prefix4, table4, 4)
    assert all(v == -1 for v in p4.lhs.values())
    assert all(v == -1 for v in p4.rhs.values())
    assert len(p4.matches) == 6 and p4.bound_holds

    p100 = _table_probe(prefix4, table4, 100)
    assert p100.k == 10
    assert p100.matches == (("alternating", "odd_is_one"),)
    assert p100.bound_holds
    assert p100.lhs["alternating"] == p100.rhs["odd_is_one"] == 0


def test_identity_sweep_counts(prefix4, table4):
    sweep = floor_identity_sweep(prefix4, table4, 500)
    assert sweep.total == 500
    assert sweep.match_counts[("alternating", "odd_is_one")] == 499
    assert sweep.unmatched == 1
    assert sweep.bound_violations == 0
    assert max(sweep.match_counts.values()) == 499


def _probe_tallies(prefix, table, n_max):
    """(match_counts, unmatched, bound_violations) after each n in
    1..n_max, tallied from floor_identity_probe one n at a time."""
    counts = {(conv, reading): 0
              for conv in LHS_CONVENTIONS for reading in H_READINGS}
    unmatched = violations = 0
    for n in range(1, n_max + 1):
        probe = _table_probe(prefix, table, n)
        for pair in probe.matches:
            counts[pair] += 1
        unmatched += not probe.matches
        violations += probe.bound_holds is False
        yield dict(counts), unmatched, violations


def _sweep_tallies(prefix, table, n_max):
    sweep = floor_identity_sweep(prefix, table, n_max)
    assert sweep.n_max == sweep.total == n_max
    return sweep.match_counts, sweep.unmatched, sweep.bound_violations


def test_identity_sweep_matches_probe_at_every_small_bound(prefix4, table4):
    for n, tallies in enumerate(_probe_tallies(prefix4, table4, 300), 1):
        assert _sweep_tallies(prefix4, table4, n) == tallies, n


def test_identity_sweep_matches_probe_at_ten_thousand(prefix4, table4):
    tallies = list(_probe_tallies(prefix4, table4, 10_000))[-1]
    assert _sweep_tallies(prefix4, table4, 10_000) == tallies


def test_identity_sweep_matches_probe_when_the_bound_breaks(table4):
    # a random stand-in for M makes some readings match with a large
    # left side, so the size-bound tally is exercised too
    values = np.random.default_rng(1).integers(-20, 21, 3001).astype(np.int32)
    prefix = MertensPrefix(limit=3000, values=values, observed_min_ratio=0.0,
                           argmin=1, observed_max_ratio=0.0, argmax=1)
    tallies = list(_probe_tallies(prefix, table4, 3000))[-1]
    assert tallies[2] > 0
    assert _sweep_tallies(prefix, table4, 3000) == tallies


def _probe_fields(probe):
    return (probe.n, probe.k, probe.lhs, probe.rhs, probe.matches,
            probe.bound_holds)


@settings(max_examples=60)
@given(st.integers(1, 10_000))
@example(n=1)
@example(n=4)
@example(n=10_000)
def test_identity_probe_routes_agree(prefix4, table4, n):
    sieved = floor_identity_probe(mertens_quotients(n))
    table = _table_probe(prefix4, table4, n)
    assert _probe_fields(sieved) == _probe_fields(table)


@pytest.mark.parametrize("n", [9_938_375, 9_938_374, 9_998_244, 10_000_000])
def test_identity_probe_routes_agree_near_ten_million(prefix7, table7, n):
    # 215^3 (L = 215^2 is the quotient n // 215), one below it, 3162^2
    sieved = floor_identity_probe(mertens_quotients(n))
    table = _table_probe(prefix7, table7, n)
    assert _probe_fields(sieved) == _probe_fields(table)


@settings(max_examples=60)
@given(st.integers(2, 2000))
def test_identity_alternating_odd_reading_matches(prefix4, table4, n):
    probe = _table_probe(prefix4, table4, n)
    assert ("alternating", "odd_is_one") in probe.matches
    assert probe.bound_holds
