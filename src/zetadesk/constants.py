"""Shared numerical constants, and the logarithmic integral built on
them.

Euler's constant is one stored value, the one the corrected harmonic
limit gives, and every other module reads it from here so there is a
single value in play across the whole package. li needs nothing but
that constant and the math module, so it lives here too: the CLI's
li command then loads no engine and no numpy (asymptotics re-exports
it).
"""

from __future__ import annotations

import math

from .bounds import LI_X_MAX

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


_LI_TAIL_EPS = 1e-18


def li(x: float) -> float:
    """Principal-value logarithmic integral for 1 < x <= LI_X_MAX,
    through the all-positive-term expansion
    C + log log x + sum (log x)^k/(k k!); every term is positive so no
    cancellation enters."""
    x = float(x)
    if not 1.0 < x <= LI_X_MAX:
        raise ValueError("logarithmic integral implemented for "
                         f"1 < x <= {LI_X_MAX:g} only")
    lx = math.log(x)
    terms = [euler_constant(), math.log(lx)]
    term = 1.0
    k = 0
    while True:
        k += 1
        term *= lx / k
        contribution = term / k
        terms.append(contribution)
        if contribution < _LI_TAIL_EPS * max(1.0, lx):
            break
        if k > 500:
            raise ArithmeticError("series failed to settle")
    return math.fsum(terms)
