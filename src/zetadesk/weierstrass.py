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
from typing import NamedTuple

import numpy as np

from .bounds import (_EXP_ARG_LIMIT, _check_exp_arg, _check_exp_pair,
                     _check_not_degenerate, chunk_bounds)
from .exact import ExactSum

TWO_PI = 2.0 * math.pi

EXPONENT_SIGNS = ("minus", "plus")


class ProductEvaluation(NamedTuple):
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
    one pass over n forms each, once for all of them. The inverse sum
    comes first, so an exponent that would overflow fails before the
    product pass."""
    if any(sign not in EXPONENT_SIGNS for sign in signs):
        raise ValueError(f"exponent_sign must be one of {EXPONENT_SIGNS}")
    if n_terms < 1:
        raise ValueError("need n_terms >= 1")
    x = _check_exp_arg(x)
    a = _check_exp_arg(_check_not_degenerate(a))
    _check_exp_pair(x, a)
    ea = cmath.exp(a)
    direct = cmath.exp(x) - ea

    # n walks 1..n_terms in chunks, so no array grows with n_terms.
    # Convergence-factor exponents summed in the symmetric pairing
    # (n, -n): 1/z_pos + 1/z_neg collapses to 2a/(a^2 + 4 pi^2 n^2)
    # exactly, and both parts are summed exactly.
    inv_re, inv_im = ExactSum(), ExactSum()
    for lo, hi in chunk_bounds(n_terms):
        n = np.arange(lo, hi, dtype=np.float64)
        inverse = 2.0 * a / (a * a + (TWO_PI * n) ** 2)
        inv_re.add(inverse.real)
        inv_im.add(inverse.imag)
    inv_sum = complex(inv_re.value, inv_im.value) + 1.0 / a

    def exponent_of(exponent_sign: str) -> complex:
        sign = 1.0 if exponent_sign == "plus" else -1.0
        exponent = sign * x * inv_sum - x / (ea - 1.0)
        if abs(exponent.real) > _EXP_ARG_LIMIT:
            raise ValueError("convergence-factor exponent would overflow; "
                             "reduce |x| or move a away from 2 pi i k")
        return exponent

    # the first check the loop below makes, ahead of the product pass;
    # the other signs keep their place after the first one's product
    exponent_of(signs[0])
    # Polynomial parts multiplied in the same pairing; factors approach
    # 1 like 1/n^2 so the running product stays well scaled. It enters
    # each chunk's np.prod as element 0, the step the whole-array
    # np.prod takes there, so the chunking does not change its bits.
    poly = []
    for lo, hi in chunk_bounds(n_terms):
        shift = 2j * math.pi * np.arange(lo, hi, dtype=np.float64)
        poly = [np.prod(np.concatenate(
            (poly, (1.0 - x / (a + shift)) * (1.0 - x / (a - shift)))))]
    poly = complex(poly[0]) * (1.0 - x / a)
    evaluations = []
    for exponent_sign in signs:
        exponent = exponent_of(exponent_sign)
        product = (1.0 - ea) * cmath.exp(exponent) * poly
        if not cmath.isfinite(product):
            # (1 - e^a) e^E can overflow where poly brings it back
            product = (1.0 - ea) * (cmath.exp(exponent) * poly)
        if not cmath.isfinite(product):
            raise ValueError("truncated product overflows; "
                             "reduce |x| or |a|")
        if direct != 0:
            rel = abs(product - direct) / abs(direct)
        else:
            rel = abs(product - direct)
        evaluations.append(ProductEvaluation(
            x=x, a=a, n_terms=int(n_terms), exponent_sign=exponent_sign,
            product_value=product, direct_value=direct,
            relative_error=rel))
    return evaluations


class SignComparison(NamedTuple):
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
