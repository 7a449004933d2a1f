"""Exact summation of float64 arrays, and Dekker's split.

ExactSum carries the exact sum of every finite term it is given as one
Python int, in units of 2^-1126 (the last bit of a subnormal's 53-bit
integer mantissa), and rounds it once when read, so its value is
math.fsum of all its terms however they were split between calls. Each
term m * 2^e (np.frexp) is split into the integer halves of m * 2^53,
27 and 26 bits wide, and each half is summed per exponent by
np.bincount: a bincount takes at most 2^16 terms, so no bin passes
2^43 and every bin sum is exact. This is the small superaccumulator of
Neal, "Fast exact summation using small and large superaccumulators"
(arXiv:1505.05571), with a Python int as the large one.

Non-finite terms are kept aside, each distinct value once, and summed
by math.fsum when the sum is read, so inf, nan and inf + -inf give
what fsum gives, or raise what it raises.
"""

from __future__ import annotations

import math

import numpy as np

_BIN_TERMS = 1 << 16
# the exponent e of np.frexp is at least -1073, so m * 2^e is
# (m * 2^53) * 2^(e - 53), an integer times a power 2^(e + 1073) of
# the unit 2^-1126
_UNIT_SHIFT = 1073
_UNIT = 1 << 1126


class ExactSum:
    """The exact sum of the float64 terms added so far, read rounded
    to nearest (ties to even) as value."""

    def __init__(self):
        self._total = 0
        self._special = []

    def add(self, terms) -> None:
        x = np.asarray(terms, dtype=np.float64).reshape(-1)
        finite = np.isfinite(x)
        if not finite.all():
            self._special = np.unique(np.append(self._special,
                                                x[~finite])).tolist()
            x = x[finite]
        for lo in range(0, x.size, _BIN_TERMS):
            self._total += _fold(x[lo:lo + _BIN_TERMS])

    @property
    def value(self) -> float:
        if self._special:
            return math.fsum(self._special)
        try:
            return self._total / _UNIT
        except OverflowError:
            raise OverflowError("intermediate overflow in fsum") from None


def _fold(x: np.ndarray) -> int:
    """The exact sum of at most 2^16 finite terms, in units of 2^-1126."""
    m, e = np.frexp(x)
    m *= 2.0 ** 27
    high = np.trunc(m)  # the top 27 bits of the mantissa
    m -= high  # the low 26, in units of 2^-26, with the sign of high
    base = int(e.min())
    e -= base
    total = 0
    for h, lo in zip(reversed(np.bincount(e, high).tolist()),
                     reversed(np.bincount(e, m).tolist())):
        total = (total << 1) + (int(h) << 26) + int(lo * 2.0 ** 26)
    return total << (base + _UNIT_SHIFT)


def exact_sum(terms) -> float:
    """math.fsum of an array, without making a list of it."""
    acc = ExactSum()
    acc.add(terms)
    return acc.value


def split(x):
    """Dekker's split: hi + lo == x exactly, each half at most 26
    significant bits, so the product of two halves is exact."""
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi
