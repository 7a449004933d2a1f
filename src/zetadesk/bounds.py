"""The bounds the engines are validated on, and the checks that hold
arguments to them.

Each bound is declared here once. The engines import it from here
(and keep it importable under its old module name), and the CLI's flags
read the same values and run the same checks. Nothing here imports
numpy, so the CLI can validate every flag, and exit 2 on a bad one,
before any engine is loaded.
"""

from __future__ import annotations

import math

# Builds above this cap are refused. Measured as a CLI run's ru_maxrss
# (Python 3.11, numpy 2.4): at the cap, build_tables peaks near 210 MB
# (the prime sieve) and a first read of mu takes that to 307 MB; 10^8
# stays near 122 and 171 MB. theta and the sum of 1/p are walked over
# the primes in chunks, so they add no full-length array. A table
# loaded from the cache holds the mu its file stores, decoded as it is
# checked, and sieves its primes only if read, so a CLI run at the cap
# that reads only mu from a cache hit peaks near 222 MB. A full Mertens
# prefix adds 4 bytes per integer on top (800 MB at the cap); of the
# CLI commands only identity-explore --limit (at most 10^5) still
# builds one. divisor-ratio holds the int16 divisor counts, 2 bytes per
# integer (400 MB at the cap, with a 497.5 MB peak), and reads D(n) at
# its grid rows through grid_prefix. identity-explore --n and
# abel-check read M through mertens_quotients and mertens_segments,
# whose memory grows with about n^(2/3) and with CHUNK.
MAX_LIMIT = 200_000_000

# first grid point of the theta and prime-count gap scans, whose grid
# must end above it
SCAN_START = 10

# the smallest n the Mertens-constant estimate takes, and the first of
# the CLI's decade points
MERTENS_CONSTANT_N_MIN = 10

# The zero scan is validated up to this height, and at grid steps no
# coarser than this; coarser grids can hop over close zero pairs. Steps
# finer than the floor are refused: at most 10^6 grid points up to
# ZERO_SCAN_T_MAX.
ZERO_SCAN_T_MAX = 100.0
ZERO_SCAN_STEP_MAX = 0.05
ZERO_SCAN_STEP_MIN = 1e-4

# the exponents k with a log-power constant, and the smallest defect
# cutoff n
LOG_POWER_K_MAX = 8
LOG_POWER_N_MIN = 1000

# li's series needs more terms as x grows, and from x = 9.77e75 on it
# does not settle within the 500 it allows; li is declared on
# (1, LI_X_MAX]
LI_X_MAX = 1e75

# Euler-Maclaurin with eight correction terms is validated on this box;
# outside it the truncation estimates of zeta were not checked.
RE_MIN = -10.0
RE_MAX = 10.0
IM_MAX = 120.0

# summation by parts forms n^-s = exp(-s log n) for n <= MAX_LIMIT, where
# log n < 20, so s log n stays finite with room to spare
HALF_PLANE_S_MAX = 1e300

# cexp overflows near 709.78; stay clear so intermediate products are
# finite too
_EXP_ARG_LIMIT = 700.0


def _check_exponent(s: float) -> float:
    s = float(s)
    if not 0.0 < s <= 1.0:
        raise ValueError("exponent s must lie in (0, 1]")
    return s


def _check_half_plane(s: complex) -> complex:
    s = complex(s)
    if not (s.real > 0):
        raise ValueError("summation by parts wants Re s > 0")
    if s.real > HALF_PLANE_S_MAX or abs(s.imag) > HALF_PLANE_S_MAX:
        raise ValueError("summation by parts wants Re s and |Im s| at most "
                         f"{HALF_PLANE_S_MAX:g}")
    return s


def _require_in_box(s: complex) -> None:
    if not (RE_MIN <= s.real <= RE_MAX) or abs(s.imag) > IM_MAX:
        raise ValueError(
            f"s={s!r} outside validated box Re in [{RE_MIN:g},{RE_MAX:g}], "
            f"|Im| <= {IM_MAX:g}")


def _require_regular(s: complex) -> None:
    """s is off the pole at 1 and inside the validated box."""
    if s == 1.0:
        raise ValueError("zeta has a pole at s = 1")
    _require_in_box(s)


def _check_not_degenerate(a: complex) -> complex:
    a = complex(a)
    k = round(a.imag / math.tau)
    if abs(a.real) < 1e-8 and abs(a.imag - math.tau * k) < 1e-8:
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


def _check_exp_pair(x: complex, a: complex) -> None:
    """x and a of e^x - e^a, each within _check_exp_arg: the pair factors
    of the product multiply up to about e^(|x|/pi), and beyond
    |Re(x - a)| = 700 the smaller exponential lies below every binary64
    digit of the larger, so the product would be checked against one."""
    if abs(x.imag) > _EXP_ARG_LIMIT or abs(x.real - a.real) > _EXP_ARG_LIMIT:
        raise ValueError(f"|Im x| and |Re(x - a)| must stay within "
                         f"{_EXP_ARG_LIMIT:g} for the lattice product")
