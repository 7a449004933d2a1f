"""Sieve-backed arithmetic tables.

Everything downstream (Dirichlet sums, prime-counting statistics, the
Mertens ratio scans) reads from one immutable ArithTable: primes, the
Mobius function, and divisor-count and smallest-prime-factor arrays,
each made on first read. A table read from the STJZ sieve cache
holds the mu its file stores, checked and decoded in one pass.

Arrays are indexed by the integer they describe (entry 0 is padding).
Floating accumulations run in a fixed ascending order, so a rebuild at
the same limit is bit-identical to the previous one.

Key identities exercised here:
    sum_{k<=n} M(floor(n/k)) = 1          (Mertens prefix consistency)
    |sum a_i| <= sqrt(n) * sqrt(sum a_i^2) (Cauchy-Schwarz on prefixes)
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bounds import MAX_LIMIT
from .constants import euler_constant
from .files import replace_atomically

CACHE_MAGIC = b"STJZ"
CACHE_VERSION = 1
_HEADER = struct.Struct("<4sIQ")  # magic, version, limit
# payload bytes per read of a cache file, so a check holds no whole file
CACHE_PIECE = 1 << 20


class CacheError(Exception):
    """Base class for sieve cache file problems. Each subclass names in
    status what cache_summary reports for it."""


class CacheMagicError(CacheError):
    """File does not start with the expected magic bytes."""

    status = "bad-magic"


class CacheVersionError(CacheError):
    """Recognized file, unsupported format version."""

    status = "bad-version"


class CacheTruncatedError(CacheError):
    """File length disagrees with the limit its header promises, or
    that limit lies outside 1..MAX_LIMIT."""

    status = "truncated"


class CacheChecksumError(CacheError):
    """Payload bytes fail the stored CRC32."""

    status = "bad-checksum"


class CachePayloadError(CacheError):
    """A payload byte lies outside {0, 1, 2}, so it is no mu(n)+1."""

    status = "bad-payload"


@dataclass(frozen=True, eq=False)
class ArithTable:
    """Immutable arithmetic tables covering 1..limit.

    Every array is materialized on first read and cached on the
    instance: primes is the ascending prime array, mu[n] the Mobius
    function (int8, entry 0 unused), and divisor_count and
    smallest_prime_factor are the sieves their names say. Summatory
    values (M, D, the prime-power weight sum, and theta and the sum of
    1/p by prime count) are walked by grid_prefix instead of held
    whole. A table with a mu_source takes mu from one call of it,
    made on the first read of mu, instead of sieving it. The table is
    logically immutable.
    """

    limit: int
    mu_source: Callable[[], np.ndarray] | None = None

    @cached_property
    def primes(self) -> np.ndarray:
        """int64 array of the primes <= limit, ascending."""
        primes = _prime_sieve(self.limit)
        primes.setflags(write=False)
        return primes

    @cached_property
    def mu(self) -> np.ndarray:
        """int8 array; entry n >= 1 is the Mobius function of n."""
        if self.mu_source is not None:
            return self.mu_source()
        return _mobius_sieve(self.limit, self.primes)

    @cached_property
    def smallest_prime_factor(self) -> np.ndarray:
        """int32 array; entry n >= 2 is the least prime dividing n."""
        return _smallest_prime_factor_sieve(self.limit, self.primes)

    @cached_property
    def divisor_count(self) -> np.ndarray:
        """int16 array; entry n is the number of divisors of n."""
        return _divisor_count_sieve(self.limit)

    def prime_count(self, x: float) -> int:
        """pi(x): primes p <= x. Requires 0 <= x <= limit."""
        if x < 0 or x > self.limit:
            raise ValueError(f"prime_count argument {x} outside table range")
        return int(np.searchsorted(self.primes, math.floor(x), side="right"))


def build_tables(limit: int) -> ArithTable:
    """Sieve the primes up to limit; the other arrays of the table
    follow on first read.

    Refuses limit > MAX_LIMIT (memory bound, documented above).
    """
    if limit < 1:
        raise ValueError("table limit must be at least 1")
    if limit > MAX_LIMIT:
        raise ValueError(
            f"table limit {limit} exceeds the supported bound {MAX_LIMIT}"
        )
    table = ArithTable(limit)
    table.primes  # sieved here, so the sieve stays inside this call
    return table


def _prime_sieve(limit: int) -> np.ndarray:
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    # odd numbers only: flags[i] stands for 2i + 3, and 2 is prepended;
    # consecutive odd multiples of p lie p cells apart
    flags = np.ones((limit - 1) // 2, dtype=bool)
    for i in range((math.isqrt(limit) - 1) // 2):
        if flags[i]:
            p = 2 * i + 3
            flags[(p * p - 3) // 2 :: p] = False
    # written one CHUNK of flags at a time, so no index array spans them
    primes = np.empty(np.count_nonzero(flags) + 1, dtype=np.int64)
    primes[0] = 2
    at = 1
    for lo in range(0, flags.size, CHUNK):
        odd = np.flatnonzero(flags[lo : lo + CHUNK])
        primes[at : at + odd.size] = 2 * (odd + lo) + 3
        at += odd.size
    return primes


def _mobius_sieve(limit: int, primes: np.ndarray) -> np.ndarray:
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    first_large = int(np.searchsorted(primes, math.isqrt(limit),
                                      side="right"))
    for p in primes[:first_large].tolist():
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    # Any n with a prime factor q > sqrt(limit) is n = c*q with exactly
    # one such q and c <= sqrt(limit), whose mu is already final, so
    # mu(n) = -mu(c); multiples of a square (mu(c) = 0) are done. The
    # products are formed one CHUNK of primes at a time.
    if first_large < len(primes):
        cofactors = np.arange(1, limit // int(primes[first_large]) + 1)
        cofactors = cofactors[mu[cofactors] != 0]
        ends = np.searchsorted(primes, limit // cofactors, side="right")
        for c, end in zip(cofactors.tolist(), ends.tolist()):
            for lo in range(first_large, end, CHUNK):
                mu[c * primes[lo : min(lo + CHUNK, end)]] = -mu[c]
    mu.setflags(write=False)
    return mu


def _smallest_prime_factor_sieve(limit: int, primes: np.ndarray) -> np.ndarray:
    spf = np.zeros(limit + 1, dtype=np.int32)
    root = math.isqrt(limit)
    for p in primes[primes <= root]:
        p = int(p)
        window = spf[p * p :: p]
        window[window == 0] = p
    # Composites all have a factor <= sqrt(limit), so what is left at
    # zero (beyond 0 and 1) is exactly the primes.
    if len(primes):
        spf[primes] = primes
    spf.setflags(write=False)
    return spf


def _divisor_count_sieve(limit: int) -> np.ndarray:
    # Divisors of n pair up as (d, n/d) with d <= sqrt(n): each d counts
    # twice on the multiples n >= d^2 it divides, once on n = d^2 itself.
    # d(n) <= 2 sqrt(n) <= 28285 < 2^15 for n <= MAX_LIMIT
    counts = np.zeros(limit + 1, dtype=np.int16)
    for d in range(1, math.isqrt(limit) + 1):
        counts[d * d :: d] += 2
        counts[d * d] -= 1
    counts.setflags(write=False)
    return counts


@dataclass(frozen=True, eq=False)
class MertensPrefix:
    """Prefix sums M(n) of the Mobius function with observed extremes
    of M(n)/sqrt(n) over 1..limit."""

    limit: int
    values: np.ndarray
    observed_min_ratio: float
    argmin: int
    observed_max_ratio: float
    argmax: int


# cells per step of every chunked walk over 1..n in the package
CHUNK = 1 << 16


def chunk_bounds(n: int, start: int = 1):
    """(lo, hi) for consecutive chunks of at most CHUNK cells covering
    start..n, hi exclusive."""
    for lo in range(start, n + 1, CHUNK):
        yield lo, min(lo + CHUNK, n + 1)


def grid_prefix(chunk, grid: np.ndarray, dtype=np.float64) -> np.ndarray:
    """f(1) + ... + f(n) at each n of the ascending grid (n >= 0, the
    empty sum 0), as dtype, where chunk(lo, hi) gives f(lo..hi-1). A
    chunk already of dtype is summed in place, so it must be a fresh
    array.

    Walks chunk_bounds up to the last grid row and adds the carry into
    each chunk's first cell, the step np.add.accumulate takes there
    over the whole array, so float sums are bit-identical to one
    np.cumsum of f(1..n). The first chunk gets no carry, so a leading
    -0.0 stays -0.0 as it does there. Integer sums are exact while
    dtype holds them; no full-length array is formed.
    """
    picked = np.zeros(grid.size, dtype=dtype)
    carry = None
    for lo, hi in chunk_bounds(int(grid.max(initial=0))):
        part = np.asarray(chunk(lo, hi), dtype=dtype)
        if carry is not None:
            part[0] += carry
        np.cumsum(part, out=part)
        hit = slice(*np.searchsorted(grid, (lo, hi)))
        picked[hit] = part[grid[hit] - lo]
        carry = part[-1]
    return picked


def mertens_prefix(table: ArithTable, limit: int | None = None) -> MertensPrefix:
    """Cumulative Mobius sums plus ratio extremes over 1..limit (the
    whole table by default)."""
    n = table.limit if limit is None else limit
    if not 1 <= n <= table.limit:
        raise ValueError(f"Mertens limit {n} outside table range")
    # |M(n)| <= n <= MAX_LIMIT < 2^31; the int8 table is cast into the
    # int32 result and summed there, so no full-length temporary forms
    values = np.empty(n + 1, dtype=np.int32)
    values[:] = table.mu[: n + 1]
    np.cumsum(values, out=values)
    values.setflags(write=False)
    whole = MertensPrefix(limit=n, values=values,
                          observed_min_ratio=math.nan, argmin=1,
                          observed_max_ratio=math.nan, argmax=1)
    return mertens_ratio_window(whole, 1, n)


def mertens_ratio_window(prefix: MertensPrefix, lo: int,
                         hi: int) -> MertensPrefix:
    """Ratio extremes of M(n)/sqrt(n) restricted to lo <= n <= hi,
    reusing the stored prefix values; chunked, so even a 10^8 window
    needs no second full float array."""
    if not 1 <= lo <= hi <= prefix.limit:
        raise ValueError(f"window [{lo}, {hi}] outside prefix range")
    best_min = math.inf
    best_max = -math.inf
    arg_min = arg_max = lo
    for start, stop in chunk_bounds(hi, lo):
        idx = np.arange(start, stop, dtype=np.float64)
        ratios = prefix.values[start:stop] / np.sqrt(idx)
        i_lo = int(np.argmin(ratios))
        i_hi = int(np.argmax(ratios))
        if ratios[i_lo] < best_min:
            best_min = float(ratios[i_lo])
            arg_min = start + i_lo
        if ratios[i_hi] > best_max:
            best_max = float(ratios[i_hi])
            arg_max = start + i_hi
    return MertensPrefix(limit=prefix.limit, values=prefix.values,
                         observed_min_ratio=best_min, argmin=arg_min,
                         observed_max_ratio=best_max, argmax=arg_max)


def mertens_identity_check(prefix: MertensPrefix, n: int) -> bool:
    """True when sum_{k<=n} M(floor(n/k)) equals 1 (it must)."""
    if n < 1 or n > prefix.limit:
        raise ValueError(f"identity check at {n} outside prefix range")
    k = np.arange(1, n + 1, dtype=np.int64)
    total = int(prefix.values[n // k].sum(dtype=np.int64))
    return total == 1


def integer_root(n: int, k: int) -> int:
    """floor(n^(1/k)) exactly; the float estimate is corrected against
    the neighboring integers so perfect powers never come out short."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    if k == 1 or n < 2:
        return n
    r = int(round(n ** (1.0 / k)))
    while r > 0 and r ** k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


@dataclass(frozen=True, eq=False)
class MertensQuotients:
    """M(v) at every floor quotient v = n//j of one n.

    small[v] is M(v) and mu[v] the Mobius function for 0 <= v <= L,
    with L = small.size - 1; large[j] is M(n//j) for each j with
    n//j > L (entry 0 unused). Indexing with a floor quotient of n, or
    an int64 array of them, gives M there as int64.
    """

    n: int
    mu: np.ndarray
    small: np.ndarray
    large: np.ndarray

    def __getitem__(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.int64)
        out = np.empty(v.shape, dtype=np.int64)
        low = v < self.small.size
        out[low] = self.small[v[low]]
        out[~low] = self.large[self.n // v[~low]]
        return out


def mertens_quotients(n: int) -> MertensQuotients:
    """M at every floor quotient of n, with mu sieved only to L.

    L is max(isqrt(n), icbrt(n)^2), about n^(2/3). The quotients
    v = n//j above L are found in ascending order from the
    quotient-grouped recursion of Deleglise and Rivat (Experiment.
    Math. 5, 1996), r = isqrt(v):

        M(v) = 1 - sum_{2 <= d <= r} M(v//d)
                 - sum_{q <= v//(r+1)} (v//q - max(v//(q+1), r)) M(q)

    Each v//d above L is the quotient n//(j*d), found before v, and
    each q is at most r <= L, so every v takes a few array operations
    over about sqrt(v) cells. Memory grows with L, not with n.
    """
    if not 1 <= n <= MAX_LIMIT:
        raise ValueError(f"Mertens quotients of {n} outside 1..{MAX_LIMIT}")
    small_limit = max(math.isqrt(n), integer_root(n, 3) ** 2)
    table = build_tables(small_limit)
    # |M(v)| <= v <= MAX_LIMIT < 2^31, so int32 holds every prefix
    small = np.cumsum(table.mu, dtype=np.int32)
    small.setflags(write=False)
    top = n // (small_limit + 1)  # n//j > L exactly for the j <= top
    large = np.zeros(top + 1, dtype=np.int64)
    for j in range(top, 0, -1):
        v = n // j
        r = math.isqrt(v)
        # for d <= top//j, v//d = n//(j*d) is a large quotient
        split = min(r, top // j)
        total = int(large[2 * j : split * j + 1 : j].sum())
        d = np.arange(split + 1, r + 1, dtype=np.int64)
        total += int(small[v // d].sum(dtype=np.int64))
        # t[q-1] = v//q, with the last entry clipped to r, so that
        # t[q-1] - t[q] counts the d > r with v//d = q
        t = v // np.arange(1, v // (r + 1) + 2, dtype=np.int64)
        t[-1] = r
        total += int(np.dot(t[:-1] - t[1:], small[1 : t.size]))
        large[j] = 1 - total
    large.setflags(write=False)
    return MertensQuotients(n=n, mu=table.mu, small=small, large=large)


def mobius_segment(lo: int, hi: int) -> np.ndarray:
    """int8 array; entry i is mu(lo + i), for lo <= lo + i < hi.

    A segmented sieve over the primes <= sqrt(hi - 1), so memory grows
    with hi - lo, not with hi. Each prime flips the sign of its
    multiples and zeroes the multiples of its square; an n whose sieved
    primes multiply to less than n has one prime factor above the root
    left, which flips its sign once more.
    """
    if not 1 <= lo <= hi <= MAX_LIMIT + 1:
        raise ValueError(f"Mobius segment [{lo}, {hi}) outside 1..{MAX_LIMIT}")
    mu = np.ones(hi - lo, dtype=np.int8)
    # product of the sieved primes dividing n; it divides n < 2^31
    found = np.ones(hi - lo, dtype=np.int32)
    for p in _prime_sieve(math.isqrt(hi - 1)).tolist():
        mu[-lo % p :: p] *= -1
        found[-lo % p :: p] *= p
        mu[-lo % (p * p) :: p * p] = 0
    mu[found < np.arange(lo, hi, dtype=np.int32)] *= -1
    return mu


def mertens_segments(n: int, m: int):
    """int32 pieces whose concatenation is M(n - 1), M(n), ..., M(n + m):
    first M(n - 1) alone, then M on each chunk_bounds segment of
    [n, n + m].

    M(n - 1) comes from mertens_quotients and each segment adds the
    running sum of its mobius_segment to the last value before it, so
    memory grows with CHUNK and with about n^(2/3), not with n + m.
    Checks its bounds on the first read.
    """
    if n < 1 or m < 0 or n + m > MAX_LIMIT:
        raise ValueError(f"Mertens block [{n}, {n + m}] outside 1..{MAX_LIMIT}")
    last = np.array([mertens_quotients(n - 1)[n - 1] if n > 1 else 0],
                    dtype=np.int32)
    yield last
    for lo, hi in chunk_bounds(n + m, n):
        piece = np.cumsum(mobius_segment(lo, hi), dtype=np.int32)
        piece += last[-1]
        yield piece
        last = piece


def _prime_sums(table: ArithTable, f, xs) -> np.ndarray:
    """f(p) summed over the primes p <= x at each x of the ascending xs:
    grid_prefix walks the primes by prime count (f maps a slice of them
    to a fresh float64 array), so bit-identical to one cumsum of f."""
    return grid_prefix(lambda lo, hi: f(table.primes[lo - 1 : hi - 1]),
                       np.searchsorted(table.primes, xs, side="right"))


def chebyshev_theta(table: ArithTable, x: float) -> float:
    """Sum of log p over primes p <= x, accumulated in ascending order."""
    if x < 0 or x > table.limit:
        raise ValueError(f"theta argument {x} outside table range")
    return float(_prime_sums(table, np.log, [x])[0])


def prime_power_weight(table: ArithTable, n: int):
    """chunk(lo, hi), a fresh float64 array of w(lo..hi-1) for the
    prime-power weight w over 1..n: 2C at 1, log p at each p^k, zero
    elsewhere. The p^k with k >= 2 are listed once; every log is
    math.log(p), as a loop over the prime powers would take it."""
    primes = table.primes
    powers = []
    for p in primes[: table.prime_count(math.isqrt(n))].tolist():
        pk = p * p
        while pk <= n:
            powers.append((pk, math.log(p)))
            pk *= p
    powers.sort()
    at = np.array([pk for pk, _ in powers], dtype=np.int64)
    logs = np.array([lp for _, lp in powers], dtype=np.float64)

    def chunk(lo: int, hi: int) -> np.ndarray:
        part = np.zeros(hi - lo)
        if lo == 1:
            part[0] = 2.0 * euler_constant()
        i, j = np.searchsorted(primes, (lo, hi))
        ps = primes[i:j]
        part[ps - lo] = [math.log(p) for p in ps.tolist()]
        i, j = np.searchsorted(at, (lo, hi))
        part[at[i:j] - lo] = logs[i:j]
        return part

    return chunk


def squarefree_count(table: ArithTable, n: int) -> int:
    """Count of squarefree integers in 1..n (nonzero mu entries)."""
    if n < 1 or n > table.limit:
        raise ValueError(f"squarefree count at {n} outside table range")
    return int(np.count_nonzero(table.mu[1 : n + 1]))


@dataclass(frozen=True)
class CauchyBound:
    lhs: float
    rhs: float
    holds: bool


def cauchy_schwarz_prefix_bound(values) -> CauchyBound:
    """|sum a_i| against sqrt(n) * sqrt(sum a_i^2).

    Both sides use exact (fsum) accumulation, with the squares scaled
    by the largest magnitude so they cannot underflow to zero; `holds`
    is the literal comparison lhs <= rhs, which mathematically always
    holds, with equality only when all entries coincide.
    """
    seq = [float(v) for v in values]
    if not seq:
        raise ValueError("empty sequence")
    lhs = abs(math.fsum(seq))
    scale = max(abs(v) for v in seq)
    if scale == 0.0:
        return CauchyBound(lhs=lhs, rhs=0.0, holds=lhs <= 0.0)
    rhs = scale * math.sqrt(
        len(seq) * math.fsum((v / scale) * (v / scale) for v in seq))
    return CauchyBound(lhs=lhs, rhs=rhs, holds=lhs <= rhs)


def save_cache(table: ArithTable, path) -> ArithTable:
    """Write the Mobius table in the STJZ byte layout and return table.

    Layout: 4-byte magic "STJZ", version as little-endian uint32, limit
    as little-endian uint64, then one byte mu(n)+1 per n in 1..limit,
    then CRC32 (IEEE) of the payload as little-endian uint32.

    The bytes replace path atomically (files.replace_atomically), so an
    interrupted save never leaves a partial file under path.
    """
    crc = 0

    def payload():
        nonlocal crc
        yield _HEADER.pack(CACHE_MAGIC, CACHE_VERSION, table.limit)
        for lo, hi in chunk_bounds(table.limit):
            chunk = (table.mu[lo:hi] + 1).view(np.uint8)
            crc = zlib.crc32(chunk, crc)
            yield chunk
        yield struct.pack("<I", crc)

    replace_atomically(path, payload(), "wb").close()
    return table


def _header_limit(data: bytes, path) -> int:
    """The limit an STJZ header declares, once magic, version and range
    check out; otherwise the CacheError for what is wrong."""
    if len(data) < _HEADER.size:
        raise CacheTruncatedError(f"{path}: shorter than the fixed header")
    magic, version, limit = _HEADER.unpack_from(data, 0)
    if magic != CACHE_MAGIC:
        raise CacheMagicError(f"{path}: bad magic {magic!r}")
    if version != CACHE_VERSION:
        raise CacheVersionError(f"{path}: unsupported version {version}")
    if limit < 1 or limit > MAX_LIMIT:
        raise CacheTruncatedError(
            f"{path}: stored limit {limit} outside supported range")
    return int(limit)


def read_cache_limit(path) -> int:
    """The limit in an STJZ file's header, reading the header only."""
    with open(path, "rb") as fh:
        return _header_limit(fh.read(_HEADER.size), path)


def _read_payload(fh, path, decode: bool = False) -> np.ndarray | None:
    """Check the open STJZ file fh in one pass from its start, and
    return mu as ArithTable.mu holds it when decode, else None. The
    first check that fails raises its CacheError, in this order:
    header, file size, CRC32, byte range.

    The payload is read CACHE_PIECE bytes at a time, straight into mu
    when decoding and otherwise through one buffer of that size, so a
    check alone holds no whole file.
    """
    fh.seek(0)
    limit = _header_limit(fh.read(_HEADER.size), path)
    expected = _HEADER.size + limit + 4
    size = os.fstat(fh.fileno()).st_size
    if size != expected:
        raise CacheTruncatedError(
            f"{path}: {size} bytes, header promises {expected}")
    if decode:
        mu = np.empty(limit + 1, dtype=np.int8)
        mu[0] = 0
        raw = mu[1:].view(np.uint8)
    else:
        raw = np.empty(min(limit, CACHE_PIECE), dtype=np.uint8)
    crc = top = 0
    for start in range(0, limit, CACHE_PIECE):
        stop = min(start + CACHE_PIECE, limit)
        piece = raw[start:stop] if decode else raw[: stop - start]
        if fh.readinto(piece) != piece.size:
            raise CacheTruncatedError(f"{path}: shorter than it was")
        crc = zlib.crc32(piece, crc)
        top = max(top, int(piece.max()))
    trailer = fh.read(4)
    if len(trailer) != 4:
        raise CacheTruncatedError(f"{path}: shorter than it was")
    if struct.unpack("<I", trailer)[0] != crc:
        raise CacheChecksumError(f"{path}: payload CRC mismatch")
    if top > 2:
        raise CachePayloadError(f"{path}: payload byte outside {{0, 1, 2}}")
    if not decode:
        return None
    # byte b holds mu + 1; b - 1 wraps 0 to 255, which reads as int8 -1
    np.subtract(raw, 1, out=raw)
    mu.setflags(write=False)
    return mu


def cache_summary(path) -> dict:
    """Header fields and checksum status of an STJZ file, without
    rebuilding any tables. status is "ok" or the failure class."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        summary = {"path": str(path), "status": "ok", "version": None,
                   "limit": None, "file_bytes": os.fstat(fh.fileno()).st_size,
                   "crc_ok": True}
        if len(head) == _HEADER.size:
            _, version, limit = _HEADER.unpack(head)
            summary["version"] = int(version)
            summary["limit"] = int(limit)
        try:
            _read_payload(fh, path)
        except CacheError as exc:
            summary["status"] = exc.status
            summary["crc_ok"] = isinstance(exc, CachePayloadError)
    return summary


def load_cache(path) -> ArithTable:
    """The table an STJZ file holds, at its stored limit.

    The file is checked (header, size, CRC32, byte range) in the one
    pass that decodes its mu, and a malformed file raises the specific
    CacheError subclass for what went wrong. The table holds that mu
    from the start; its primes are sieved on first read.
    """
    with open(path, "rb") as fh:
        mu = _read_payload(fh, path, decode=True)
    table = ArithTable(mu.size - 1)
    vars(table)["mu"] = mu  # seeds the cached_property
    return table
