"""Prime-counting asymptotics: the psi decomposition over prime-power
weights, deviation statistics toward the prime number theorem, the
divisor-sum ratio, the logarithmic integral, weighted prime-power
counts, reciprocal-prime constants, prime windows, and an exact-integer
explorer for a floor-quotient identity whose sign pattern admits more
than one reading."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .arith import (ArithTable, MertensPrefix, MertensQuotients,
                    _prime_sums, chebyshev_theta, chunk_bounds, grid_prefix,
                    integer_root, prime_power_weight)
from .bounds import MERTENS_CONSTANT_N_MIN, SCAN_START, _check_exponent
from .constants import euler_constant, li
from .reports import Table, geometric_grid


def _root_ladder(n: int) -> list[int]:
    """integer_root(n, k) for k = 1, 2, ... while it is at least 2."""
    roots = []
    while (r := integer_root(n, len(roots) + 1)) >= 2:
        roots.append(r)
    return roots


def psi_sum(table: ArithTable, n: int) -> float:
    """Chebyshev psi(n) as the root-stacked theta sum over n^(1/k) >= 2,
    from one walk over the primes."""
    if n < 1 or n > table.limit:
        raise ValueError("n must lie in 1..limit")
    thetas = _prime_sums(table, np.log, _root_ladder(n)[::-1])
    total = 0.0
    for theta in thetas[::-1].tolist():
        total += theta
    return total


class PsiDecomposition(NamedTuple):
    """Both sides of sum_{m<=n} weight(m) = 2C + theta(n) +
    theta(n^(1/2)) + ... and their gap."""

    n: int
    lhs: float
    rhs: float

    @property
    def diff(self) -> float:
        return self.lhs - self.rhs


def psi_decomposition_check(table: ArithTable,
                            ns) -> list[PsiDecomposition]:
    """The decomposition at each n of ns, a non-empty ascending
    sequence in 1..limit. The left sides come from one grid_prefix walk
    over prime_power_weight up to the last n, so each is bit-identical
    to one cumsum of the weight; the right side is 2C + psi_sum."""
    grid = np.asarray(ns, dtype=np.int64)
    if (grid.ndim != 1 or grid.size == 0 or grid[0] < 1
            or grid[-1] > table.limit or np.any(grid[1:] < grid[:-1])):
        raise ValueError("ns must ascend within 1..limit")
    lhs = grid_prefix(prime_power_weight(table), grid)
    c2 = 2.0 * euler_constant()
    return [PsiDecomposition(n=n, lhs=left, rhs=c2 + psi_sum(table, n))
            for n, left in zip(grid.tolist(), lhs.tolist())]


def psi_deviation(table: ArithTable, n: int, s: float) -> float:
    """(psi(n) - n) / n^s, the remainder statistic of the stacked sum."""
    s = _check_exponent(s)
    return (psi_sum(table, n) - n) / float(n) ** s


def theta_deviation(table: ArithTable, n: int, s: float) -> float:
    """(theta(n) - n) / n^s; tends to 0 for s > 3/4 by the claim under
    test, so scans report its decay without asserting the limit."""
    s = _check_exponent(s)
    if n < 1 or n > table.limit:
        raise ValueError("n must lie in 1..limit")
    return (chebyshev_theta(table, n) - n) / float(n) ** s


def theta_deviation_scan(table: ArithTable, s: float) -> Table:
    """theta_deviation on a geometric grid from SCAN_START to the
    table's limit, which must lie above SCAN_START."""
    s = _check_exponent(s)
    if table.limit <= SCAN_START:
        raise ValueError(f"need limit > {SCAN_START}")
    grid = geometric_grid(table.limit, start=SCAN_START)
    thetas = _prime_sums(table, np.log, grid)
    deviations = [(theta - n) / float(n) ** s
                  for n, theta in zip(grid.tolist(), thetas.tolist())]
    return Table(("n", "theta", "deviation"),
                 (grid.astype(np.float64), thetas, np.array(deviations)),
                 {"first_abs": abs(deviations[0]),
                  "last_abs": abs(deviations[-1]), "exponent": s})


def divisor_asymptotic_ratio(table: ArithTable, n: int) -> float:
    """(sum_{m<=n} d(m) - n log n - (2C-1) n) / sqrt(n); stays between
    fixed bounds at desk scale."""
    if n < 1 or n > table.limit:
        raise ValueError("n must lie in 1..limit")
    total = float(_divisor_summatory(table, np.array([n]))[0])
    c2 = 2.0 * euler_constant() - 1.0
    main = n * math.log(n) + c2 * n
    return (total - main) / math.sqrt(n)


def _divisor_summatory(table: ArithTable, grid: np.ndarray) -> np.ndarray:
    """D(n) = d(1) + ... + d(n) at the ascending grid rows, exactly."""
    return grid_prefix(lambda lo, hi: table.divisor_count[lo:hi], grid,
                       np.int64)


def divisor_ratio_scan(table: ArithTable, every: int | None = None,
                       n_min: int = 1) -> Table:
    """Ratio rows from n_min to the table's limit, on either an
    arithmetic grid (every) or the default geometric grid."""
    n_max = table.limit
    if not 1 <= n_min <= n_max:
        raise ValueError("need 1 <= n_min <= limit")
    if every is not None:
        if every < 1:
            raise ValueError("every must be positive")
        ns = np.arange(max(n_min, every), n_max + 1, every, dtype=np.int64)
        if ns.size == 0:
            ns = np.array([n_max], dtype=np.int64)
    else:
        ns = geometric_grid(n_max, start=n_min)
    c2 = 2.0 * euler_constant() - 1.0
    nf = ns.astype(np.float64)
    total = _divisor_summatory(table, ns).astype(np.float64)
    ratios = (total - nf * np.log(nf) - c2 * nf) / np.sqrt(nf)
    # n stays float64, as the other scan keys do: JSON prints 200000.0
    return Table(("n", "ratio"), (nf, ratios),
                 {"sup_abs": float(np.max(np.abs(ratios)))})


def riemann_prime_count(table: ArithTable, x: float) -> float:
    """Weighted prime-power count: sum over k of pi(x^(1/k))/k while
    x^(1/k) >= 2, with exact integer root boundaries."""
    x = float(x)
    if x < 0 or x > table.limit:
        raise ValueError("x must lie in 0..limit")
    return math.fsum(table.prime_count(r) / k
                     for k, r in enumerate(_root_ladder(math.floor(x)), 1))


def prime_count_gap_ratio(table: ArithTable, x: float, s: float) -> float:
    """(weighted count - li(x)) / x^s, the normalized gap. At desk
    scale the ratio visibly decays for s = 3/4; exponents closer to
    1/2 are what the scan exists to probe, not to assert."""
    s = _check_exponent(s)
    return (riemann_prime_count(table, x) - li(x)) / float(x) ** s


def prime_count_gap_scan(table: ArithTable, s: float) -> Table:
    """prime_count_gap_ratio on a geometric grid from SCAN_START to the
    table's limit, which must lie above SCAN_START."""
    s = _check_exponent(s)
    if table.limit <= SCAN_START:
        raise ValueError(f"need limit > {SCAN_START}")
    grid = geometric_grid(table.limit, start=SCAN_START)
    ratios = [prime_count_gap_ratio(table, float(xv), s) for xv in grid.tolist()]
    return Table(("x", "ratio"), (grid.astype(np.float64), np.array(ratios)),
                 {"first_abs": abs(ratios[0]), "last_abs": abs(ratios[-1]),
                  "exponent": s})


def mertens_constant_estimate(table: ArithTable, n: int) -> float:
    """sum_{p<=n} 1/p - log log n; converges like 1/log n, so callers
    should only read a couple of digits."""
    if n < MERTENS_CONSTANT_N_MIN:
        raise ValueError(f"estimate needs n >= {MERTENS_CONSTANT_N_MIN}")
    if n > table.limit:
        raise ValueError("n exceeds the table limit")
    recip = float(_prime_sums(table, lambda p: 1.0 / p, [n])[0])
    return recip - math.log(math.log(n))


def prime_window_count(table: ArithTable, n: int, h: float) -> int:
    """Primes in the half-open window (n, (1+h) n]."""
    if h <= 0:
        raise ValueError("window width h must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    upper = (1.0 + h) * n
    if upper > table.limit:
        raise ValueError("window extends beyond the table limit")
    return table.prime_count(upper) - table.prime_count(n)


def prime_window_decades(table: ArithTable, h: float, start: int,
                         stop: int) -> list[tuple[int, float, int]]:
    """(n, upper bound, count) rows with n stepping by decades."""
    if start < 1 or start > stop:
        raise ValueError("need 1 <= start <= stop")
    rows = []
    n = start
    while n <= stop:
        rows.append((n, (1.0 + h) * n, prime_window_count(table, n, h)))
        n *= 10
    return rows


# ---------------------------------------------------------------------------
# Floor-quotient identity explorer. The identity admits several
# readings: three sign conventions for the left-hand alternating sum
# and two parity conventions for the step weight h. Every combination
# is evaluated and compared side by side; nothing here privileges one
# reading ahead of the measurement.

LHS_CONVENTIONS = ("all_minus", "alternating", "plus_after_first")
H_READINGS = ("even_is_one", "odd_is_one")


def _lhs_variants(g_at_quotients: np.ndarray) -> dict[str, int]:
    terms = g_at_quotients.astype(np.int64)
    k = len(terms)
    signs_minus = np.ones(k, dtype=np.int64)
    signs_minus[1:] = -1
    signs_alt = np.where(np.arange(k) % 2 == 0, 1, -1).astype(np.int64)
    signs_plus = np.ones(k, dtype=np.int64)
    if k > 1:
        signs_plus[1] = -1
    return {
        "all_minus": int(np.dot(signs_minus, terms)),
        "alternating": int(np.dot(signs_alt, terms)),
        "plus_after_first": int(np.dot(signs_plus, terms)),
    }


class FloorIdentityProbe(NamedTuple):
    """All readings of the identity at one n: left side under each sign
    convention, right side under each parity reading of h, and the
    (convention, reading) pairs that agree exactly. bound_holds records
    |lhs| < 2k+1 (and <= k+1 for even k) for the matching conventions;
    None when nothing matches."""

    n: int
    k: int
    lhs: dict[str, int]
    rhs: dict[str, int]
    matches: tuple[tuple[str, str], ...]
    bound_holds: bool | None


def floor_identity_probe(mertens: MertensQuotients) -> FloorIdentityProbe:
    """The identity at n = mertens.n. It reads M only at the quotients
    n//j for j <= k = isqrt(n) and at k, and mu only on 1..k."""
    n = mertens.n
    k = integer_root(n, 2)
    j = np.arange(1, k + 1, dtype=np.int64)
    quotients = n // j
    g_q = mertens[quotients]
    lhs = _lhs_variants(g_q)
    f_j = mertens.mu[j].astype(np.int64)
    parity_even = (quotients % 2 == 0)
    h_even = parity_even.astype(np.int64)
    h_odd = 1 - h_even
    g_k = int(mertens[k])
    rhs = {
        "even_is_one": -1 + (1 - k % 2) * g_k - int(np.dot(h_even, f_j)),
        "odd_is_one": -1 + (k % 2) * g_k - int(np.dot(h_odd, f_j)),
    }
    matches = tuple((conv, reading)
                    for conv in LHS_CONVENTIONS
                    for reading in H_READINGS
                    if lhs[conv] == rhs[reading])
    bound_holds: bool | None = None
    if matches:
        # claimed size bound: < 2k+1 always, tightening to <= k+1 when
        # k is even; checked only for readings that actually match
        bound_holds = all(
            abs(lhs[conv]) < 2 * k + 1
            and (k % 2 == 1 or abs(lhs[conv]) <= k + 1)
            for conv, _ in matches)
    return FloorIdentityProbe(n=n, k=k, lhs=lhs, rhs=rhs,
                              matches=matches, bound_holds=bound_holds)


class FloorIdentitySweep(NamedTuple):
    """Match counting over 1..n_max: how often each (convention,
    reading) pair reproduces the right side exactly, plus how many n
    matched under no reading at all and how many matching n broke the
    size bound."""

    n_max: int
    total: int
    match_counts: dict[tuple[str, str], int]
    unmatched: int
    bound_violations: int


def floor_identity_sweep(prefix: MertensPrefix,
                         table: ArithTable) -> FloorIdentitySweep:
    """floor_identity_probe at every n in 1..prefix.limit, tallied; the
    same exact integer sums, made for a block of n at a time. The
    table gives mu and must reach as far as the prefix."""
    n_max = prefix.limit
    if n_max > table.limit:
        raise ValueError("the prefix runs past the table's limit")
    counts = {(conv, reading): 0
              for conv in LHS_CONVENTIONS for reading in H_READINGS}
    unmatched = 0
    violations = 0
    # a block of n at a time, so the arrays stay small at any n_max
    for lo, hi in chunk_bounds(n_max):
        ns = np.arange(lo, hi, dtype=np.int64)
        lhs, rhs, k = _identity_sides(prefix, table, ns)
        matched = np.zeros(ns.size, dtype=bool)
        broken = np.zeros(ns.size, dtype=bool)
        for conv in LHS_CONVENTIONS:
            conv_matched = np.zeros(ns.size, dtype=bool)
            for reading in H_READINGS:
                hit = lhs[conv] == rhs[reading]
                counts[(conv, reading)] += int(np.count_nonzero(hit))
                conv_matched |= hit
            size = np.abs(lhs[conv])
            bound = (size < 2 * k + 1) & ((k % 2 == 1) | (size <= k + 1))
            broken |= conv_matched & ~bound
            matched |= conv_matched
        unmatched += int(ns.size - np.count_nonzero(matched))
        violations += int(np.count_nonzero(broken))
    return FloorIdentitySweep(n_max=n_max, total=n_max,
                              match_counts=counts, unmatched=unmatched,
                              bound_violations=violations)


def _identity_sides(prefix: MertensPrefix, table: ArithTable, ns: np.ndarray):
    """Both sides of the identity under every reading, and k =
    isqrt(n), as int64 arrays over the ascending block ns."""
    k = np.sqrt(ns.astype(np.float64)).astype(np.int64)
    k -= k * k > ns
    k += (k + 1) * (k + 1) <= ns
    m = prefix.values
    root = math.isqrt(int(ns[-1]))
    mu = table.mu[: root + 1]
    # M(n//j) summed over the odd and the even j <= k, and mu(j) summed
    # over the j <= k with n//j even
    odd_j = np.zeros(ns.size, dtype=np.int64)
    even_j = np.zeros(ns.size, dtype=np.int64)
    h_even = np.zeros(ns.size, dtype=np.int64)
    for j in range(1, root + 1):
        start = max(0, j * j - int(ns[0]))
        q = ns[start:] // j
        (odd_j if j % 2 else even_j)[start:] += m[q]
        if mu[j]:
            h_even[start:] += int(mu[j]) * (1 - (q & 1))
    # the rest of the mu(j) over j <= k go to the odd quotients
    h_odd = np.cumsum(mu, dtype=np.int64)[k] - h_even
    m_n = m[ns].astype(np.int64)
    m_k = m[k].astype(np.int64)
    k_even = 1 - k % 2
    total = odd_j + even_j
    # j = 2 is a term only once k >= 2, that is n >= 4
    second = np.where(ns >= 4, m[ns // 2].astype(np.int64), 0)
    lhs = {
        "all_minus": 2 * m_n - total,
        "alternating": odd_j - even_j,
        "plus_after_first": total - 2 * second,
    }
    rhs = {
        "even_is_one": -1 + k_even * m_k - h_even,
        "odd_is_one": -1 + (1 - k_even) * m_k - h_odd,
    }
    return lhs, rhs, k


__all__ = [
    "psi_sum",
    "PsiDecomposition", "psi_decomposition_check", "psi_deviation",
    "theta_deviation", "SCAN_START",
    "theta_deviation_scan",
    "divisor_asymptotic_ratio", "divisor_ratio_scan", "li",
    "riemann_prime_count", "prime_count_gap_ratio", "prime_count_gap_scan",
    "MERTENS_CONSTANT_N_MIN", "mertens_constant_estimate",
    "prime_window_count", "prime_window_decades", "LHS_CONVENTIONS", "H_READINGS",
    "FloorIdentityProbe", "floor_identity_probe", "FloorIdentitySweep",
    "floor_identity_sweep",
]
