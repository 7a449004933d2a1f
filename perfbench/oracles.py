"""Reference values computed apart from zetadesk.

Nothing here imports the program. Every number comes from a route the
program does not share: published tables, trial division, exact integer
formulas, sympy's prime counting, mpmath's special functions, or a
small sieve written here independently of the program's own.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import sympy

# M(10^k), k = 1..8 (OEIS A084237).
MERTENS_PUBLISHED = {10: -1, 100: 1, 1000: 2, 10**4: -23, 10**5: -48,
                     10**6: 212, 10**7: 1037, 10**8: 1928}

REFERENCE_DPS = 30


def mobius_trial(n: int) -> int:
    """mu(n) by trial division."""
    if n < 1:
        raise ValueError("mu is defined for n >= 1")
    sign = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            sign = -sign
        d += 1
    return -sign if n > 1 else sign


def divisor_summatory(x: int) -> int:
    """D(x) = sum_{n<=x} d(n) by the hyperbola formula, exact integers."""
    r = math.isqrt(x)
    return 2 * sum(x // k for k in range(1, r + 1)) - r * r


def divisor_count_table(n: int) -> np.ndarray:
    """d(m) for m = 0..n by pairing each divisor d <= sqrt(m) with m/d."""
    counts = np.zeros(n + 1, dtype=np.int64)
    for d in range(1, math.isqrt(n) + 1):
        counts[d * d :: d] += 2
        counts[d * d] -= 1
    return counts


def primes_upto(n: int) -> np.ndarray:
    """Ascending primes <= n from an odd-only sieve."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    odd = np.ones((n + 1) // 2, dtype=bool)  # odd[i] stands for 2i+1
    odd[0] = False
    for i in range(1, (math.isqrt(n) - 1) // 2 + 1):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    return np.concatenate(([2], 2 * np.nonzero(odd)[0] + 1)).astype(np.int64)


def prime_pi(x: int) -> int:
    return int(sympy.primepi(int(x)))


def prime_power_base(n: int) -> int | None:
    """p when n = p^k for a prime p and k >= 1, else None."""
    factors = sympy.factorint(n)
    return next(iter(factors)) if len(factors) == 1 else None


def geometric_grid(n_max: int, start: int = 1, ratio: float = 1.25) -> list[int]:
    """The documented scan grid: start * ratio^k truncated, at least one
    apart, deduplicated, with n_max itself appended."""
    points = []
    value = float(start)
    while value <= n_max:
        points.append(int(value))
        value *= ratio
        if value - points[-1] < 1.0:
            value = points[-1] + 1.0
    points.append(n_max)
    return sorted(set(points))


class Mertens:
    """M(x) for any x by M(x) = 1 - sum_{d>=2} M(floor(x/d)), grouped by
    equal quotients, over a small table of M up to about x^(2/3)."""

    def __init__(self, x_max: int):
        self._small_limit = max(100, int(round(x_max ** (2.0 / 3.0))))
        mu = np.ones(self._small_limit + 1, dtype=np.int64)
        mu[0] = 0
        for p in primes_upto(self._small_limit).tolist():
            mu[p::p] *= -1
            mu[p * p :: p * p] = 0
        self._small = np.cumsum(mu)
        self._memo: dict[int, int] = {}

    def __call__(self, x: int) -> int:
        if x <= self._small_limit:
            return int(self._small[x])
        got = self._memo.get(x)
        if got is not None:
            return got
        total = 1
        d = 2
        while d <= x:
            q = x // d
            d_hi = x // q
            total -= (d_hi - d + 1) * self(q)
            d = d_hi + 1
        self._memo[x] = total
        return total


def log_factorial(n: int) -> float:
    with mpmath.workdps(REFERENCE_DPS):
        return float(mpmath.loggamma(n + 1))


def li(x: float) -> float:
    with mpmath.workdps(REFERENCE_DPS):
        return float(mpmath.li(x))


def euler_gamma() -> float:
    return float(mpmath.euler)


def mertens_constant() -> float:
    return float(mpmath.mertens)


def weighted_prime_count(x: int) -> float:
    """sum_k pi(x^(1/k))/k over the k with x^(1/k) >= 2."""
    total = mpmath.mpf(0)
    k = 1
    while True:
        root = int(sympy.integer_nthroot(x, k)[0])
        if root < 2:
            return total
        total += mpmath.mpf(prime_pi(root)) / k
        k += 1


def prime_count_gap_ratio(x: int, s: float) -> float:
    with mpmath.workdps(REFERENCE_DPS):
        gap = weighted_prime_count(x) - mpmath.li(x)
        return float(gap / mpmath.power(x, s))


def zeta(s: complex) -> complex:
    with mpmath.workdps(REFERENCE_DPS):
        return complex(mpmath.zeta(s))


def xi_with_scale(t: float) -> tuple[complex, float]:
    """xi(1/2 + it) and the size of its gamma prefactor, the scale that
    rounding in a binary64 evaluation is relative to."""
    with mpmath.workdps(REFERENCE_DPS):
        s = mpmath.mpc(0.5, t)
        pref = 0.5 * s * (s - 1) * mpmath.power(mpmath.pi, -s / 2) * mpmath.gamma(s / 2)
        return complex(pref * mpmath.zeta(s)), float(abs(pref))


def zeta_zero(k: int) -> float:
    return float(mpmath.zetazero(k).imag)


def origin_constant(k: int) -> float:
    """(-1)^k (zeta^(k)(0) + k!), the k-th log-power constant."""
    with mpmath.workdps(REFERENCE_DPS):
        return float((-1) ** k * (mpmath.zeta(0, derivative=k) + math.factorial(k)))


def exp_difference(x: complex, a: complex) -> complex:
    with mpmath.workdps(REFERENCE_DPS):
        return complex(mpmath.exp(x) - mpmath.exp(a))
