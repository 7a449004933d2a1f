import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetadesk.arith import CHUNK
from zetadesk.weierstrass import (TWO_PI, compare_exponent_signs,
                                  exp_difference_product, zero_set_check)


def test_vanishing_argument_is_exact():
    for a in (1.0, -0.7, complex(0.5, 0.3), complex(2.0, -1.0)):
        for n_terms in (1, 7, 1000):
            r = exp_difference_product(0.0, a, n_terms)
            assert r.product_value == 1.0 - cmath.exp(complex(a))
            assert r.direct_value == r.product_value


def test_plus_sign_converges():
    for x, a in [(0.3, 1.0), (1.0, 0.5), (-0.4, 1.5),
                 (complex(0.2, 0.1), complex(1.0, 0.4)), (0.8, -1.2)]:
        r = exp_difference_product(x, a, 100_000, "plus")
        assert r.relative_error < 1e-3, (x, a)


def test_minus_sign_converges_to_the_wrong_value():
    cmp = compare_exponent_signs(0.3, 1.0, 100_000)
    assert cmp.converging_sign == "plus"
    assert cmp.plus.relative_error < 1e-6
    assert cmp.minus.relative_error > 1e-2


def test_error_decreases_as_truncation_doubles():
    errors = [exp_difference_product(0.3, 1.0, n, "plus").relative_error
              for n in (1000, 2000, 4000, 8000)]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    # 1/N decay: doubling should roughly halve the error
    assert errors[-1] < 0.6 * errors[-2]


def test_real_parameters_give_real_product():
    r = exp_difference_product(0.7, 1.3, 50_000, "plus")
    assert abs(r.product_value.imag) <= 1e-10 * abs(r.product_value)


def test_unit_slope_at_zero():
    eps = 1e-3
    hi = exp_difference_product(eps, 1.0, 100_000, "plus").product_value
    lo = exp_difference_product(-eps, 1.0, 100_000, "plus").product_value
    slope = (hi - lo) / (2.0 * eps)
    assert abs(slope - 1.0) < 1e-4


def test_lattice_zero_hits_exactly():
    r = exp_difference_product(1.0, 1.0, 5000, "plus")
    assert r.direct_value == 0.0
    assert r.product_value == 0.0
    assert r.relative_error == 0.0


def whole_array_product(x, a, n_terms, sign):
    """The product with every n-indexed quantity held as one array of
    n_terms cells: the reference the chunked walks must reproduce."""
    x, a = complex(x), complex(a)
    ea = cmath.exp(a)
    n = np.arange(1, n_terms + 1, dtype=np.float64)
    shift = 2j * math.pi * n
    pair_factors = (1.0 - x / (a + shift)) * (1.0 - x / (a - shift))
    poly = complex(np.prod(pair_factors)) * (1.0 - x / a)
    pair_inverse = 2.0 * a / (a * a + (TWO_PI * n) ** 2)
    inv_sum = complex(math.fsum(pair_inverse.real),
                      math.fsum(pair_inverse.imag)) + 1.0 / a
    exponent = sign * x * inv_sum - x / (ea - 1.0)
    return (1.0 - ea) * cmath.exp(exponent) * poly


@pytest.mark.parametrize("n_terms", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 999])
def test_chunked_walks_match_the_whole_array_formula(n_terms):
    for x, a in [(0.3, 1.0), (complex(-1.5, 0.5), 1.0),
                 (complex(2.0, -3.0), complex(-0.7, 0.1))]:
        cmp = compare_exponent_signs(x, a, n_terms)
        assert cmp.plus.product_value == whole_array_product(x, a, n_terms, 1.0)
        assert cmp.minus.product_value == whole_array_product(x, a, n_terms, -1.0)


def test_rejections():
    for bad_a in (0.0, complex(0.0, 2.0 * math.pi),
                  complex(0.0, -4.0 * math.pi), 5e-9):
        with pytest.raises(ValueError):
            exp_difference_product(0.3, bad_a, 10)
    with pytest.raises(ValueError):
        exp_difference_product(800.0, 1.0, 10)
    # |Im x| past the bound on Re x, and |Re(x - a)| past it
    for x, a in ((complex(0.0, 1e300), 1.0), (complex(0.3, -700.5), 1.0),
                 (700.0, -699.0), (-400.0, 301.0)):
        with pytest.raises(ValueError):
            exp_difference_product(x, a, 10)
    with pytest.raises(ValueError):
        exp_difference_product(0.3, 1.0, 0)
    with pytest.raises(ValueError):
        exp_difference_product(0.3, 1.0, 10, "flipped")
    with pytest.raises(ValueError):
        # tiny but non-degenerate a: with the minus sign the two
        # 1/a-scale exponent pieces add instead of cancelling, so the
        # convergence-factor exponent overflows binary64
        exp_difference_product(1.0, 1e-6, 10, "minus")


def test_exponent_overflow_fails_before_the_product_pass(monkeypatch):
    # the minus-sign exponent needs only the inverse sum, so a walk of
    # 10^7 terms fails without forming one product chunk
    def no_product(*args, **kwargs):
        raise AssertionError("product pass reached")

    monkeypatch.setattr(np, "prod", no_product)
    with pytest.raises(ValueError, match="exponent would overflow"):
        compare_exponent_signs(1.0, 1e-7, 10_000_000)


def test_zero_set_check():
    assert zero_set_check(1.0, 10)
    assert zero_set_check(complex(0.5, 0.3), 25)
    assert zero_set_check(-2.0, 5)
    with pytest.raises(ValueError):
        zero_set_check(1.0, 0)


@settings(max_examples=25)
@given(st.floats(-1.5, 1.5), st.floats(0.4, 2.0))
def test_randomized_convergence(x, a):
    r = exp_difference_product(x, a, 5000, "plus")
    # near x = a the direct value vanishes and relative error loses
    # meaning; the exact-zero case is covered separately
    if abs(r.direct_value) > 1e-3:
        assert r.relative_error < 1e-3
