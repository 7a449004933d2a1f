"""Numerical check of a genus-1 product factorization of e^x - e^a
over its zero lattice a + 2 n pi i.

The convergence factor attached to each linear term is
e^{sigma x/(a + 2 n pi i)} with a sign choice sigma = +1 or -1; the two
choices look equally plausible on the page, but only one of them is the
genus-1 form that converges to e^x - e^a. Both are evaluated and
measured against direct evaluation; nothing here privileges either sign
ahead of the measurement."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .arith import chunk_bounds

TWO_PI = 2.0 * math.pi

EXPONENT_SIGNS = ("minus", "plus")

# cexp overflows near 709.78; stay clear so intermediate products are
# finite too
_EXP_ARG_LIMIT = 700.0


def _check_not_degenerate(a: complex) -> complex:
    a = complex(a)
    k = round(a.imag / TWO_PI)
    if abs(a.real) < 1e-8 and abs(a.imag - TWO_PI * k) < 1e-8:
        raise ValueError("a within 1e-8 of 2 pi i k makes 1 - e^a "
                         "degenerate; the factorization needs a "
                         "nonvanishing constant term")
    return a


def _check_exp_arg(z: complex) -> complex:
    z = complex(z)
    if abs(z.real) > _EXP_ARG_LIMIT:
        raise ValueError("direct evaluation of the exponential would "
                         "overflow binary64")
    return z


@dataclass(frozen=True, eq=False)
class ProductEvaluation:
    """Truncated product vs direct evaluation of e^x - e^a.

    relative_error is |product - direct| / |direct|; when the direct
    value is exactly zero (x at a lattice zero) the absolute gap is
    reported in the same field."""

    x: complex
    a: complex
    n_terms: int
    exponent_sign: str
    product_value: complex
    direct_value: complex
    relative_error: float


def exp_difference_product(x: complex, a: complex, n_terms: int,
                           exponent_sign: str = "plus") -> ProductEvaluation:
    return _evaluate_signs(x, a, n_terms, (exponent_sign,))[0]


def _evaluate_signs(x: complex, a: complex, n_terms: int,
                    signs: tuple) -> list[ProductEvaluation]:
    """One evaluation per exponent sign in signs. The polynomial
    product and the paired inverse sum do not depend on the sign, so
    they are formed once for all of them."""
    if any(sign not in EXPONENT_SIGNS for sign in signs):
        raise ValueError(f"exponent_sign must be one of {EXPONENT_SIGNS}")
    if n_terms < 1:
        raise ValueError("need n_terms >= 1")
    x = _check_exp_arg(x)
    a = _check_exp_arg(_check_not_degenerate(a))
    ea = cmath.exp(a)
    direct = cmath.exp(x) - ea

    # n walks 1..n_terms in chunks, so no array grows with n_terms.
    # Polynomial parts multiplied pairwise (n, -n); factors approach 1
    # like 1/n^2 so the running product stays well scaled. It enters
    # each chunk's np.prod as element 0, the step the whole-array
    # np.prod takes there, so the chunking does not change its bits.
    poly = []
    for lo, hi in chunk_bounds(n_terms):
        shift = 2j * math.pi * np.arange(lo, hi, dtype=np.float64)
        factors = (1.0 - x / (a + shift)) * (1.0 - x / (a - shift))
        poly = [np.prod(np.concatenate((poly, factors)))]
    poly = complex(poly[0]) * (1.0 - x / a)

    # convergence-factor exponents summed in the same symmetric pairing:
    # 1/z_pos + 1/z_neg collapses to 2a/(a^2 + 4 pi^2 n^2) exactly; fsum
    # is exact, so it may read them as a chain of per-chunk lists. Each
    # part makes its chunks anew: one fsum cannot feed two sums, and
    # carrying exact partial sums from chunk to chunk costs more fsum
    # passes than the second evaluation does
    def pair_inverse(part):
        for lo, hi in chunk_bounds(n_terms):
            n = np.arange(lo, hi, dtype=np.float64)
            yield part(2.0 * a / (a * a + (TWO_PI * n) ** 2)).tolist()

    inv_sum = complex(math.fsum(chain.from_iterable(pair_inverse(np.real))),
                      math.fsum(chain.from_iterable(pair_inverse(np.imag)))
                      ) + 1.0 / a
    evaluations = []
    for exponent_sign in signs:
        sign = 1.0 if exponent_sign == "plus" else -1.0
        exponent = sign * x * inv_sum - x / (ea - 1.0)
        if abs(exponent.real) > _EXP_ARG_LIMIT:
            raise ValueError("convergence-factor exponent would overflow; "
                             "reduce |x| or move a away from 2 pi i k")
        product = (1.0 - ea) * cmath.exp(exponent) * poly
        if direct != 0:
            rel = abs(product - direct) / abs(direct)
        else:
            rel = abs(product - direct)
        evaluations.append(ProductEvaluation(
            x=x, a=a, n_terms=int(n_terms), exponent_sign=exponent_sign,
            product_value=product, direct_value=direct,
            relative_error=rel))
    return evaluations


@dataclass(frozen=True, eq=False)
class SignComparison:
    """Both exponent-sign evaluations side by side; converging_sign
    names the one closer to the direct value at this truncation."""

    minus: ProductEvaluation
    plus: ProductEvaluation

    @property
    def converging_sign(self) -> str:
        if self.plus.relative_error <= self.minus.relative_error:
            return "plus"
        return "minus"


def compare_exponent_signs(x: complex, a: complex,
                           n_terms: int) -> SignComparison:
    minus, plus = _evaluate_signs(x, a, n_terms, ("minus", "plus"))
    return SignComparison(minus=minus, plus=plus)


def zero_set_check(a: complex, count: int, tolerance: float = 1e-12) -> bool:
    """e^{a + 2 n pi i} agrees with e^a to the tolerance for all
    |n| <= count: the lattice points really are zeros of e^x - e^a."""
    if count < 1:
        raise ValueError("need count >= 1")
    a = complex(a)
    base = cmath.exp(a)
    scale = abs(base)
    for n in range(-count, count + 1):
        shifted = cmath.exp(complex(a.real, a.imag + TWO_PI * n))
        if abs(shifted - base) > tolerance * scale:
            return False
    return True


__all__ = ["EXPONENT_SIGNS", "ProductEvaluation", "exp_difference_product",
           "SignComparison", "compare_exponent_signs", "zero_set_check"]
