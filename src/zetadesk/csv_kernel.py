"""The numeric CSV kernel: the lines of a table whose columns are all
integer or float arrays, printed byte for byte as str(int) and %.17g
would print each cell.

reports.csv_blocks hands such tables here, KERNEL_ROWS rows at a time,
and imports this module (and so numpy) only then. Each cell is
written into a matrix of zero-padded bytes, the separators are added,
and one bytes.translate drops the padding. Integers print as str(int)
would, four digits per table lookup. A float prints as %.17g would: its
17 digits are the exact round-half-even of |x| * 10^(16-d), formed with
Dekker's error-free product, for every cell in fixed notation (decimal
exponent d in [-4, 16]). Zeros, inf, nan and exponent-form cells,
subnormals among them, are written by format_float into the same
matrix.
"""

from __future__ import annotations

import functools

import numpy as np

from .exact import split
from .reports import format_float

# A block of rows is laid out as a matrix of uint32 words, each word four
# ASCII bytes in which a 0 byte is padding; one bytes.translate drops the
# padding. Words are built from uint8 rows viewed as uint32, so the byte
# order inside a word is the row's on any machine.

# Offsets in _digit_words() of the variants of a 4-digit word after
# the one as printed: leading zeros blanked, the same but a lone 0
# kept, trailing zeros blanked.
_LEAD, _LEAD_KEEP, _TRAIL = 10_000, 20_000, 30_000
_LF, _COMMA, _MINUS, _DOT, _ZERO = 10, 44, 45, 46, 48


@functools.cache
def _digit_words() -> np.ndarray:
    # words[variant, a, b, c, d] is the word of the group abcd
    words = np.empty((4, 10, 10, 10, 10, 4), np.uint8)
    digits = np.arange(_ZERO, _ZERO + 10, dtype=np.uint8)
    for k in range(4):
        words[..., k] = digits.reshape((10,) + (1,) * (3 - k))
    lead, keep, trail = words[1], words[2], words[3]
    for k in range(4):
        lead[(0,) * (k + 1) + (..., k)] = 0  # digits 0..k all zero
        trail[(...,) + (0,) * (4 - k) + (k,)] = 0  # digits k..3 all zero
    keep[...] = lead
    keep[0, 0, 0, 0, 3] = _ZERO
    return words.reshape(-1, 4).view(np.uint32).ravel()


@functools.cache
def _powers_of_ten():
    """10^q for q <= 22, exact doubles, with their Dekker split, and
    10^q as int64 for q <= 16."""
    power = 10.0 ** np.arange(23)
    return power, *split(power), 10 ** np.arange(17, dtype=np.int64)


@functools.cache
def _glue_words() -> np.ndarray:
    """The two words between the integer and the fraction digits of a
    float: row 1 is "." (row 0 nothing) for |x| >= 1; for |x| < 1, row
    2 + 9 * z + (first digit - 1) is ".", z zeros and the first
    significant digit."""
    glue = np.zeros((2 + 4 * 9, 8), np.uint8)
    glue[1, 0] = _DOT
    for zeros in range(4):
        for digit in range(1, 10):
            word = glue[2 + 9 * zeros + digit - 1]
            word[0] = _DOT
            word[1:1 + zeros] = _ZERO
            word[1 + zeros] = _ZERO + digit
    return glue.view(np.uint32)


def _sign_words(sep: int, negative: np.ndarray) -> np.ndarray:
    """The word before each cell: its separator, then its sign."""
    words = np.array([[sep, 0, 0, 0], [sep, _MINUS, 0, 0]], np.uint8)
    return words.view(np.uint32).ravel().take(negative.view(np.uint8))


def _word_count(top) -> int:
    return max(1, -(-len(str(int(top))) // 4))


def _whole_digits(mag: np.ndarray, out: np.ndarray) -> None:
    """Non-negative integers into the words of out, most significant
    first, with leading zeros blanked and 0 printed as 0."""
    table, kind = _digit_words(), mag.dtype.type
    last = out.shape[1] - 1
    for g in range(last, 0, -1):
        rest = mag // 10_000
        v = mag - rest * 10_000
        v += (rest == 0) * kind(_LEAD_KEEP if g == last else _LEAD)
        out[:, g] = table.take(v)
        mag = rest
    out[:, 0] = table.take(mag + kind(_LEAD_KEEP if last == 0 else _LEAD))


def _fraction_digits(mag: np.ndarray, out: np.ndarray) -> None:
    """Integers below 10^16 into four words, all 16 digits, with
    trailing zeros blanked (0 prints nothing)."""
    table = _digit_words()
    below_zero = np.ones(len(mag), bool)
    for g in range(3, 0, -1):
        rest = mag // 10_000
        v = mag - rest * 10_000
        out[:, g] = table.take(v + below_zero * np.int64(_TRAIL))
        below_zero &= v == 0
        mag = rest
    out[:, 0] = table.take(mag + below_zero * np.int64(_TRAIL))


def _int_words(values: np.ndarray, sep: int) -> np.ndarray:
    if values.dtype.kind == "u":
        mag = values.astype(np.uint64, copy=False)
        negative = np.zeros(len(values), bool)
    else:
        values = values.astype(np.int64, copy=False)
        negative = values < 0
        mag = values.astype(np.uint64)
        np.negative(mag, out=mag, where=negative)  # wraps, so int64 min too
    out = np.empty((len(values), 1 + _word_count(mag.max())), np.uint32)
    out[:, 0] = _sign_words(sep, negative)
    _whole_digits(mag, out[:, 1:])
    return out


def _seventeen_digits(a: np.ndarray, d: np.ndarray):
    """N = round-half-even(a * 10^(16 - d)), exact, for a > 0 and
    q = 16 - d in [0, 22], where 10^q is an exact double: Dekker's
    TwoProduct splits a * 10^q into p + e exactly, p is an even integer
    wherever p >= 10^16 > 2^53, so N = p + rint(e). Also the step that
    puts d right: -1 where a * 10^q < 10^16, +1 where N >= 10^17."""
    power, high, low, _ = _powers_of_ten()
    q = 16 - d
    b, bh, bl = power[q], high[q], low[q]
    p = a * b
    ah, al = split(a)
    e = al * bl - (((p - ah * bh) - al * bh) - ah * bl)
    n = p.astype(np.int64) + np.rint(e).astype(np.int64)
    under = (p < 1e16) | ((p == 1e16) & (e < 0))
    return n, np.where(under, -1, n >= 10**17)


def _float_words(values: np.ndarray, sep: int) -> np.ndarray:
    """%.17g of each value. The kernel prints the fixed-notation cells,
    whose decimal exponent d lies in [-4, 16]: 17 digits N of the value
    times 10^(16 - d), with the point after digit d and trailing
    fraction zeros dropped. Zeros, non-finite values and exponent-form
    cells are printed by format_float into the same words."""
    x = values.astype(np.float64, copy=False)
    a = np.abs(x)
    # the doubles from 1e-4 up to below 1e17 are the fixed-notation ones
    kernel = (a >= 1e-4) & (a < 1e17)
    a[~kernel] = 1.0
    d = np.clip(np.floor(np.log10(a)).astype(np.int64), -4, 16)
    n, step = _seventeen_digits(a, d)
    redo = np.flatnonzero(step)
    if redo.size:
        d[redo] = np.clip(d[redo] + step[redo], -4, 16)
        n[redo], step = _seventeen_digits(a[redo], d[redo])
        kernel[redo[step != 0]] = False  # log10 off by more than one
    fallback = np.flatnonzero(~kernel)
    n[fallback], d[fallback] = 10**16, 0
    power = _powers_of_ten()[3]
    shift = np.clip(d, 0, 16)
    unit = power[16 - shift]
    whole = n // unit
    fraction = (n - whole * unit) * power[shift]
    # below 1 the whole part is 0 and its one digit moves into the glue
    small = d < 0
    glue_row = np.where(small, 2 + 9 * (-1 - d) + whole - 1, fraction != 0)
    whole[small] = 0
    words = _word_count(whole.max())
    out = np.empty((len(x), 7 + words), np.uint32)
    out[:, 0] = _sign_words(sep, np.signbit(x))
    _whole_digits(whole, out[:, 1:1 + words])
    out[:, 1 + words:3 + words] = _glue_words().take(glue_row, axis=0)
    _fraction_digits(fraction, out[:, 3 + words:])
    if fallback.size:
        width = 4 * (6 + words)
        text = "".join(format_float(v).ljust(width, "\0")
                       for v in x[fallback].tolist())
        out[fallback, 0] = _sign_words(sep, np.zeros(1, bool))
        out[fallback, 1:] = np.frombuffer(text.encode("ascii"),
                                          np.uint32).reshape(-1, 6 + words)
    return out


def numeric_csv_block(columns) -> str:
    """CSV lines, each ending in LF, of int and float columns."""
    words = [(_int_words if c.dtype.kind in "iu" else _float_words)(
        c, _COMMA if j else 0) for j, c in enumerate(columns)]
    words.append(np.full((len(columns[0]), 1), _LF, np.uint32))
    text = np.concatenate(words, axis=1).tobytes().translate(None, b"\0")
    return text.decode("ascii")
