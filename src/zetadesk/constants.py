"""Shared numerical constants.

Euler's constant is one stored value, the one the corrected harmonic
limit gives, and every other module reads it from here so there is a
single value in play across the whole package.
"""

from __future__ import annotations

import math

EULER_CONSTANT = 0.5772156649015321

# B_2, B_4, ..., B_16 as binary64 quotients of the exact rationals.
BERNOULLI_EVEN = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
)

# B_{2j} / (2j)! for j = 1..8, the form the Euler-Maclaurin tails want.
BERNOULLI_OVER_FACTORIAL = tuple(
    b / math.factorial(2 * (j + 1)) for j, b in enumerate(BERNOULLI_EVEN)
)


def euler_constant() -> float:
    """Euler's constant as the binary64 value of the corrected harmonic
    limit H_n - log n at n = 10^5 with Euler-Maclaurin terms through
    1/n^6 (the tests recompute it that way, bit for bit).

    It is stored rather than computed because every process reads it.
    The value is 7 ulps below the correctly rounded constant
    0.5772156649015329: H_n and log n are rounded near 12, where one
    ulp is 16 ulps of the result. Outputs depend on the stored value,
    so it stays as it is.
    """
    return EULER_CONSTANT
