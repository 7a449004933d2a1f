"""ExactSum and exact_sum against math.fsum, and Dekker's split.

math.fsum is correctly rounded wherever it returns a finite value, so
ExactSum must return the same float there, bit for bit, however the
terms are split between add calls. Where fsum's running partials
overflow although the exact sum may not, the reference is the exact
rational sum, rounded once.
"""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetadesk.exact import ExactSum, exact_sum, split

BIN_TERMS = 1 << 16


@st.composite
def binary64(draw, max_exponent=971):
    """Any sign, any exponent from the subnormals up, any mantissa."""
    mantissa = draw(st.integers(0, 2**53 - 1))
    x = math.ldexp(mantissa, draw(st.integers(-1074, max_exponent)))
    return -x if draw(st.booleans()) else x


_terms = st.one_of(binary64(), st.sampled_from([0.0, -0.0, 5e-324]),
                   st.floats(allow_nan=False, allow_infinity=False))


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _outcome(fn):
    """The bits of fn(), or the error it raises: fsum's ValueError with
    its message, an overflow by its type."""
    try:
        return "value", _bits(fn())
    except OverflowError:
        return OverflowError, ""
    except ValueError as exc:
        return ValueError, str(exc)


def _expected(terms):
    def reference():
        try:
            return math.fsum(terms)
        except OverflowError:
            # fsum's partials overflowed; round the exact sum instead
            return float(sum(map(Fraction, terms), Fraction(0)))
    return _outcome(reference)


def _summed(pieces):
    acc = ExactSum()

    def value():
        for piece in pieces:
            acc.add(np.array(piece, dtype=np.float64))
        return acc.value
    return _outcome(value)


@given(st.lists(_terms, max_size=60))
def test_matches_fsum_over_the_whole_range(terms):
    assert _summed([terms]) == _expected(terms)
    assert _outcome(lambda: exact_sum(np.array(terms))) == _expected(terms)


@given(st.lists(_terms, max_size=60), st.data())
def test_any_split_between_adds_gives_the_same_sum(terms, data):
    cuts = sorted(data.draw(st.lists(st.integers(0, len(terms)), max_size=6)))
    bounds = [0, *cuts, len(terms)]
    pieces = [terms[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    assert _summed(pieces) == _expected(terms)


@given(st.lists(binary64(), min_size=1, max_size=40), st.randoms(),
       st.one_of(st.just(0.0), binary64()))
def test_exact_cancellation_leaves_only_the_odd_term(terms, random, odd):
    everything = [*terms, *(-t for t in terms), odd]
    random.shuffle(everything)
    assert _summed([everything]) == ("value", _bits(odd + 0.0))


@settings(max_examples=10)
@given(st.integers(BIN_TERMS, 3 * BIN_TERMS + 7), st.integers(0, 2**32),
       st.integers(0, 5))
def test_arrays_longer_than_one_bincount(n, seed, cut):
    rng = np.random.default_rng(seed)
    # exponents low enough that no partial of fsum can overflow
    x = np.ldexp(rng.random(n), rng.integers(-1074, 900, n))
    x[rng.random(n) < 0.5] *= -1.0
    want = ("value", _bits(math.fsum(x.tolist())))
    assert _summed([x]) == want
    assert _summed([x[: cut * 9973], x[cut * 9973:]]) == want


@pytest.mark.parametrize("mantissa", [2.0 - 2.0**-52, -(2.0 - 2.0**-52)])
def test_full_bins_stay_exact(mantissa):
    # every term in one exponent bin, each half at its widest
    for scale in (1.0, 2.0**-1000, 2.0**900):
        x = np.full(3 * BIN_TERMS + 1, mantissa * scale)
        x[::3] = mantissa * scale * 2.0**-52  # the last bit only
        assert _summed([x]) == ("value", _bits(math.fsum(x.tolist())))


_special = st.sampled_from([math.inf, -math.inf, math.nan])


@example([math.inf, 1.0, -math.inf], 1)
@given(st.lists(st.one_of(st.floats(-1e300, 1e300), _special), max_size=30),
       st.integers(0, 30))
def test_non_finite_terms_give_what_fsum_gives(terms, cut):
    got = _summed([terms[:cut], terms[cut:]])
    want = _expected(terms)
    if want[0] == "value" and math.isnan(math.fsum(terms)):
        assert got[0] == "value" and math.isnan(struct.unpack("<d", got[1])[0])
    else:
        assert got == want


def test_empty_sum_is_zero():
    assert _bits(ExactSum().value) == _bits(math.fsum([]))
    assert _bits(exact_sum(np.array([-0.0, -0.0]))) == _bits(math.fsum([-0.0, -0.0]))


@given(st.floats(-1e300, 1e300))
def test_split_halves_are_exact_and_narrow(x):
    hi, lo = split(np.array([x]))
    hi, lo = float(hi[0]), float(lo[0])
    assert Fraction(hi) + Fraction(lo) == Fraction(x)
    for half in (hi, lo):
        assert math.ldexp(math.frexp(half)[0], 26).is_integer()
