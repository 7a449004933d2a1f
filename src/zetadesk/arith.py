"""Sieve-backed arithmetic tables.

Everything downstream (Dirichlet sums, prime-counting statistics, the
Mertens ratio scans) reads from one immutable ArithTable: primes, the
Mobius function, prime-log prefix sums, and on-demand divisor-count and
smallest-prime-factor arrays.

Arrays are indexed by the integer they describe (entry 0 is padding).
Floating accumulations run in a fixed ascending order, so a rebuild at
the same limit is bit-identical to the previous one.

Key identities exercised here:
    sum_{k<=n} M(floor(n/k)) = 1          (Mertens prefix consistency)
    |sum a_i| <= sqrt(n) * sqrt(sum a_i^2) (Cauchy-Schwarz on prefixes)
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

# Builds above this cap are refused. A build at the cap peaks around
# 1.6 GB (bool sieve + mu + prime arrays held together); 10^8 stays
# near 800 MB. A Mertens prefix adds 4 bytes per integer on top.
MAX_LIMIT = 200_000_000

CACHE_MAGIC = b"STJZ"
CACHE_VERSION = 1
_HEADER = struct.Struct("<4sIQ")  # magic, version, limit


class CacheError(Exception):
    """Base class for sieve cache file problems."""


class CacheMagicError(CacheError):
    """File does not start with the expected magic bytes."""


class CacheVersionError(CacheError):
    """Recognized file, unsupported format version."""


class CacheTruncatedError(CacheError):
    """File length disagrees with the limit its header promises."""


class CacheChecksumError(CacheError):
    """Payload bytes fail the stored CRC32."""


class CachePayloadError(CacheError):
    """A payload byte lies outside {0, 1, 2}, so it is no mu(n)+1."""


@dataclass(frozen=True, eq=False)
class ArithTable:
    """Immutable arithmetic tables covering 1..limit.

    mu[n] is the Mobius function (int8, entry 0 unused), primes is the
    ascending prime array, and prime_log_cumsum[i] is log p summed over
    the first i+1 primes (ascending, so theta lookups are one bisect).

    The two heavyweight derived arrays are materialized on first use
    and cached on the instance; the table is logically immutable.
    """

    limit: int
    mu: np.ndarray
    primes: np.ndarray
    prime_log_cumsum: np.ndarray

    @cached_property
    def smallest_prime_factor(self) -> np.ndarray:
        """int32 array; entry n >= 2 is the least prime dividing n."""
        return _smallest_prime_factor_sieve(self.limit, self.primes)

    @cached_property
    def divisor_count(self) -> np.ndarray:
        """int32 array; entry n is the number of divisors of n."""
        return _divisor_count_sieve(self.limit)

    def prime_count(self, x: float) -> int:
        """pi(x): primes p <= x. Requires 0 <= x <= limit."""
        if x < 0 or x > self.limit:
            raise ValueError(f"prime_count argument {x} outside table range")
        return int(np.searchsorted(self.primes, math.floor(x), side="right"))


def build_tables(limit: int) -> ArithTable:
    """Sieve primes and the Mobius function up to limit.

    Refuses limit > MAX_LIMIT (memory bound, documented above).
    """
    if limit < 1:
        raise ValueError("table limit must be at least 1")
    if limit > MAX_LIMIT:
        raise ValueError(
            f"table limit {limit} exceeds the supported bound {MAX_LIMIT}"
        )
    primes = _prime_sieve(limit)
    mu = _mobius_sieve(limit, primes)
    if len(primes):
        log_cumsum = np.cumsum(np.log(primes.astype(np.float64)))
    else:
        log_cumsum = np.zeros(0, dtype=np.float64)
    for arr in (mu, primes, log_cumsum):
        arr.setflags(write=False)
    return ArithTable(limit=limit, mu=mu, primes=primes,
                      prime_log_cumsum=log_cumsum)


def _prime_sieve(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0].astype(np.int64)


def _mobius_sieve(limit: int, primes: np.ndarray) -> np.ndarray:
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    root = math.isqrt(limit)
    for p in primes[primes <= root]:
        p = int(p)
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    # Any n with a prime factor q > sqrt(limit) has exactly one such q,
    # so one flip per cofactor c = n/q finishes the job without walking
    # every large prime stride separately.
    first_large = int(np.searchsorted(primes, root, side="right"))
    if first_large < len(primes):
        c = 1
        while True:
            hi = int(np.searchsorted(primes, limit // c, side="right"))
            if hi <= first_large:
                break
            idx = c * primes[first_large:hi]
            mu[idx] = -mu[idx]
            c += 1
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
    counts = np.zeros(limit + 1, dtype=np.int32)
    half = limit // 2
    for d in range(1, half + 1):
        counts[d::d] += 1
    # d > limit/2 divides exactly one n <= limit, namely itself.
    counts[half + 1 :] += 1
    counts.setflags(write=False)
    return counts


def divisor_counts(table: ArithTable) -> np.ndarray:
    """Divisor-count array for the table (memoized on the table)."""
    return table.divisor_count


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


def mertens_prefix(table: ArithTable) -> MertensPrefix:
    """Cumulative Mobius sums plus ratio extremes, computed chunked so
    a 10^8 table does not need a second full float array."""
    n = table.limit
    values = np.empty(n + 1, dtype=np.int32)
    values[0] = 0
    np.cumsum(table.mu[1:], out=values[1:])
    best_min = math.inf
    best_max = -math.inf
    arg_min = arg_max = 1
    chunk = 1 << 20
    for start in range(1, n + 1, chunk):
        stop = min(n + 1, start + chunk)
        idx = np.arange(start, stop, dtype=np.float64)
        ratios = values[start:stop] / np.sqrt(idx)
        i_lo = int(np.argmin(ratios))
        i_hi = int(np.argmax(ratios))
        if ratios[i_lo] < best_min:
            best_min = float(ratios[i_lo])
            arg_min = start + i_lo
        if ratios[i_hi] > best_max:
            best_max = float(ratios[i_hi])
            arg_max = start + i_hi
    values.setflags(write=False)
    return MertensPrefix(limit=n, values=values,
                         observed_min_ratio=best_min, argmin=arg_min,
                         observed_max_ratio=best_max, argmax=arg_max)


def mertens_ratio_window(prefix: MertensPrefix, lo: int,
                         hi: int) -> MertensPrefix:
    """Ratio extremes of M(n)/sqrt(n) restricted to lo <= n <= hi,
    reusing the stored prefix values (chunked, same as above)."""
    if not 1 <= lo <= hi <= prefix.limit:
        raise ValueError(f"window [{lo}, {hi}] outside prefix range")
    best_min = math.inf
    best_max = -math.inf
    arg_min = arg_max = lo
    chunk = 1 << 20
    for start in range(lo, hi + 1, chunk):
        stop = min(hi + 1, start + chunk)
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


def chebyshev_theta(table: ArithTable, x: float) -> float:
    """Sum of log p over primes p <= x, accumulated in ascending order."""
    if x < 0 or x > table.limit:
        raise ValueError(f"theta argument {x} outside table range")
    idx = int(np.searchsorted(table.primes, math.floor(x), side="right"))
    if idx == 0:
        return 0.0
    return float(table.prime_log_cumsum[idx - 1])


def mangoldt_weight(table: ArithTable, n: int, euler_c: float) -> float:
    """Prime-power log weight with a constant head.

    2*euler_c at n = 1, log p at prime powers p^k, zero elsewhere.
    This is the coefficient sequence whose prefix sums decompose into
    shifted theta values (see asymptotics.psi_decomposition_check).
    """
    if n < 1 or n > table.limit:
        raise ValueError(f"weight argument {n} outside table range")
    if n == 1:
        return 2.0 * euler_c
    p = int(table.smallest_prime_factor[n])
    m = n
    while m % p == 0:
        m //= p
    return math.log(p) if m == 1 else 0.0


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


def save_cache(table: ArithTable, path) -> None:
    """Write the Mobius table in the STJZ byte layout.

    Layout: 4-byte magic "STJZ", version as little-endian uint32, limit
    as little-endian uint64, then one byte mu(n)+1 per n in 1..limit,
    then CRC32 (IEEE) of the payload as little-endian uint32.
    """
    payload = (table.mu[1:].astype(np.int16) + 1).astype(np.uint8).tobytes()
    blob = _HEADER.pack(CACHE_MAGIC, CACHE_VERSION, table.limit)
    blob += payload
    blob += struct.pack("<I", zlib.crc32(payload))
    Path(path).write_bytes(blob)


def cache_summary(path) -> dict:
    """Header fields and checksum status of an STJZ file, without
    rebuilding any tables. status is "ok" or the failure class."""
    data = Path(path).read_bytes()
    summary = {"path": str(path), "status": "ok", "version": None,
               "limit": None, "file_bytes": len(data), "crc_ok": False}
    if len(data) < _HEADER.size:
        summary["status"] = "truncated"
        return summary
    magic, version, limit = _HEADER.unpack_from(data, 0)
    summary["version"] = int(version)
    summary["limit"] = int(limit)
    if magic != CACHE_MAGIC:
        summary["status"] = "bad-magic"
        return summary
    if version != CACHE_VERSION:
        summary["status"] = "bad-version"
        return summary
    expected = _HEADER.size + limit + 4
    if limit < 1 or limit > MAX_LIMIT or len(data) != expected:
        summary["status"] = "truncated"
        return summary
    payload = data[_HEADER.size : _HEADER.size + limit]
    (crc,) = struct.unpack_from("<I", data, _HEADER.size + limit)
    summary["crc_ok"] = zlib.crc32(payload) == crc
    if not summary["crc_ok"]:
        summary["status"] = "bad-checksum"
    elif not _payload_in_range(payload):
        summary["status"] = "bad-payload"
    return summary


def _payload_in_range(payload: bytes) -> bool:
    """Every stored byte is some mu(n)+1, i.e. 0, 1 or 2."""
    return int(np.frombuffer(payload, dtype=np.uint8).max()) <= 2


def load_cache(path) -> ArithTable:
    """Read an STJZ file back into a full table.

    Primes are re-sieved (cheap next to the Mobius work); the stored
    payload only carries mu. Malformed files raise the specific
    CacheError subclass for what went wrong.
    """
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise CacheTruncatedError(f"{path}: shorter than the fixed header")
    magic, version, limit = _HEADER.unpack_from(data, 0)
    if magic != CACHE_MAGIC:
        raise CacheMagicError(f"{path}: bad magic {magic!r}")
    if version != CACHE_VERSION:
        raise CacheVersionError(f"{path}: unsupported version {version}")
    if limit < 1 or limit > MAX_LIMIT:
        raise ValueError(f"{path}: stored limit {limit} outside supported range")
    expected = _HEADER.size + limit + 4
    if len(data) != expected:
        raise CacheTruncatedError(
            f"{path}: {len(data)} bytes, header promises {expected}"
        )
    payload = data[_HEADER.size : _HEADER.size + limit]
    (crc,) = struct.unpack_from("<I", data, _HEADER.size + limit)
    if zlib.crc32(payload) != crc:
        raise CacheChecksumError(f"{path}: payload CRC mismatch")
    if not _payload_in_range(payload):
        raise CachePayloadError(f"{path}: payload byte outside {{0, 1, 2}}")
    mu = np.empty(limit + 1, dtype=np.int8)
    mu[0] = 0
    mu[1:] = np.frombuffer(payload, dtype=np.uint8).astype(np.int8) - 1
    primes = _prime_sieve(limit)
    if len(primes):
        log_cumsum = np.cumsum(np.log(primes.astype(np.float64)))
    else:
        log_cumsum = np.zeros(0, dtype=np.float64)
    for arr in (mu, primes, log_cumsum):
        arr.setflags(write=False)
    return ArithTable(limit=int(limit), mu=mu, primes=primes,
                      prime_log_cumsum=log_cumsum)
