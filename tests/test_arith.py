import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetadesk.arith import (CACHE_PIECE, CHUNK, MAX_LIMIT, ArithTable,
                            CacheChecksumError, CacheError, CacheMagicError,
                            CachePayloadError, CacheTruncatedError,
                            CacheVersionError, MertensPrefix, _header_limit,
                            _mobius_sieve, _prime_sieve, build_tables,
                            cache_summary, cauchy_schwarz_prefix_bound,
                            chebyshev_theta, chunk_bounds, grid_prefix,
                            integer_root, load_cache, mertens_decades,
                            mertens_identity_check, mertens_prefix,
                            mertens_quotients, mertens_ratio_window,
                            mertens_segments, mobius_segment,
                            prime_power_weight, save_cache, squarefree_count)
from zetadesk.asymptotics import psi_decomposition_check
from zetadesk.constants import euler_constant
from zetadesk.dirichlet import mobius_stream, prefix_ratio_scan

from .oracles import trial_divisor_count, trial_is_prime, trial_mobius


def test_mobius_matches_trial_division(table4):
    for n in range(1, 3001):
        assert int(table4.mu[n]) == trial_mobius(n), n


def test_lazy_mobius_matches_trial_division():
    # every limit up to 200, both sides of p^2 and p*q, and of 2^16
    top = (1 << 16) + 1
    reference = np.array([0] + [trial_mobius(n) for n in range(1, top + 1)],
                         dtype=np.int8)
    edges = [120, 121, 122, 142, 143, 144, 168, 169, 170, 10402, 10403,
             10404, 10608, 10609, 10610, (1 << 16) - 1, 1 << 16, top]
    for limit in [*range(1, 201), *edges]:
        table = build_tables(limit)
        assert "mu" not in vars(table)
        assert np.array_equal(table.mu, reference[: limit + 1]), limit


def test_cached_table_makes_each_array_on_first_read(table4, tmp_path):
    path = tmp_path / "mu.stjz"
    save_cache(table4, path)
    loaded = load_cache(path)
    # mu is decoded by the load; the primes wait for their first read
    assert "mu" in vars(loaded) and "primes" not in vars(loaded)
    assert np.array_equal(loaded.mu, table4.mu)
    assert "primes" not in vars(loaded)
    assert np.array_equal(loaded.primes, table4.primes)
    ns = [1, 2, 100, table4.limit]
    for got, want in zip(psi_decomposition_check(loaded, ns),
                         psi_decomposition_check(table4, ns)):
        assert (got.lhs, got.rhs) == (want.lhs, want.rhs), got.n

    streamed = load_cache(path)
    prefix_ratio_scan(mobius_stream(streamed), 0.5, table4.limit)
    assert "primes" not in vars(streamed)


def test_primes_match_trial_division(table4):
    primes = set(table4.primes.tolist())
    for n in range(1, 1000):
        assert (n in primes) == trial_is_prime(n), n


def test_odd_only_sieve_matches_trial_division():
    # every limit up to 50, odd prime squares, both sides of 2^16, both
    # sides of 131075, which flag 2^16 stands for (flag i stands for
    # 2i + 3), the first flag of the second chunk, and 131101, the first
    # prime in that chunk
    top = 131101
    reference = np.array([n for n in range(top + 1) if trial_is_prime(n)],
                         dtype=np.int64)
    for limit in [*range(51), 49, 121, 961, (1 << 16) - 1, 1 << 16,
                  (1 << 16) + 1, *range(131073, 131078), top]:
        got = _prime_sieve(limit)
        assert got.dtype == np.int64
        assert np.array_equal(got, reference[reference <= limit]), limit


def test_mobius_sieve_across_prime_chunks():
    # pi(n) - pi(sqrt(n)) > 2^16, so the products of cofactor 1 (and
    # of the next few) with the large primes span more than one chunk
    limit = 1_000_003
    primes = _prime_sieve(limit)
    root = math.isqrt(limit)
    assert np.count_nonzero(primes > root) > CHUNK
    want = mobius_segment(1, limit + 1)
    assert np.array_equal(_mobius_sieve(limit, primes)[1:], want)


def test_divisor_counts_match_factorization(table4):
    for n in range(1, 500):
        assert int(table4.divisor_count[n]) == trial_divisor_count(n), n


def _hyperbola_divisor_sum(x: int) -> int:
    """sum_{n<=x} d(n) = 2 sum_{k<=sqrt x} floor(x/k) - floor(sqrt x)^2."""
    r = math.isqrt(x)
    return 2 * sum(x // k for k in range(1, r + 1)) - r * r


@pytest.mark.parametrize("limit", [1, 2, 3, 4, 5, 8, 9, 10, 99, 100, 101,
                                   2400, 2401, 2402])
def test_divisor_sieve_matches_trial_counts(limit):
    counts = build_tables(limit).divisor_count
    assert counts.dtype == np.int16 and counts.size == limit + 1
    assert counts[0] == 0
    assert [int(c) for c in counts[1:]] == [
        trial_divisor_count(n) for n in range(1, limit + 1)]


@pytest.mark.parametrize("limit", [999_999, 1_000_000, 1_000_001,
                                   1_002_000, 1_002_001, 1_002_002])
def test_divisor_sieve_matches_hyperbola_sums(limit):
    counts = build_tables(limit).divisor_count
    prefix = np.cumsum(counts, dtype=np.int64)
    for x in (limit, limit - 1, limit // 2, 1_000, 1):
        assert int(prefix[x]) == _hyperbola_divisor_sum(x), x


def test_divisor_counts_fit_int16_up_to_max_limit():
    # the divisors d <= sqrt(n) pair up with those >= sqrt(n), so
    # d(n) <= 2 isqrt(n), and the int16 table holds every count
    assert 2 * math.isqrt(MAX_LIMIT) <= np.iinfo(np.int16).max
    counts = build_tables(1_000_000).divisor_count
    assert counts.dtype == np.int16
    assert int(counts.max()) == 240 == int(counts[720720])


def test_smallest_prime_factor(table4):
    spf = table4.smallest_prime_factor
    for n in range(2, 500):
        assert n % int(spf[n]) == 0
        assert trial_is_prime(int(spf[n]))
        assert all(n % p for p in range(2, int(spf[n])))


def test_prime_count_boundaries(table4):
    assert table4.prime_count(1) == 0
    assert table4.prime_count(2) == 1
    assert table4.prime_count(2.5) == 1
    assert table4.prime_count(3) == 2
    assert table4.prime_count(10_000) == 1229
    with pytest.raises(ValueError):
        table4.prime_count(10_001)


def test_build_rejects_bad_limits():
    with pytest.raises(ValueError):
        build_tables(0)
    with pytest.raises(ValueError):
        build_tables(MAX_LIMIT + 1)


def test_tiny_table():
    t = build_tables(1)
    assert t.primes.size == 0
    assert int(t.mu[1]) == 1


def test_mertens_prefix_values(prefix4, table4):
    direct = np.cumsum(table4.mu[1:])
    assert np.array_equal(prefix4.values[1:], direct)
    assert prefix4.values[0] == 0


def test_mertens_prefix_extremes_are_attained(prefix4):
    assert prefix4.values[prefix4.argmin] / math.sqrt(prefix4.argmin) == \
        prefix4.observed_min_ratio
    assert prefix4.values[prefix4.argmax] / math.sqrt(prefix4.argmax) == \
        prefix4.observed_max_ratio


@pytest.mark.parametrize("limit", [(1 << 20) - 1, 1 << 20, (1 << 20) + 1,
                                   (1 << 21) + 5])
def test_mertens_chunks_carry_across_chunk_edges(limit):
    table = build_tables(limit)
    direct = np.cumsum(table.mu[1:], dtype=np.int64)
    prefix = mertens_prefix(table)
    assert np.array_equal(prefix.values[1:], direct)
    stop = limit - 7
    every_row = np.arange(1, stop + 1, dtype=np.int64)
    walked = grid_prefix(lambda lo, hi: table.mu[lo:hi], every_row, np.int32)
    assert walked.dtype == np.int32
    assert np.array_equal(walked, direct[:stop])
    bounded = mertens_prefix(table, stop)
    assert bounded.limit == stop
    assert np.array_equal(bounded.values[1:], direct[:stop])
    with pytest.raises(ValueError):
        mertens_prefix(table, limit + 1)


def test_grid_prefix_sums_divisor_counts_exactly(table6):
    limit = 3 * CHUNK + 5
    full = np.cumsum(table6.divisor_count[1 : limit + 1], dtype=np.int64)

    def walk(grid):
        got = grid_prefix(lambda lo, hi: table6.divisor_count[lo:hi], grid,
                          np.int64)
        assert got.dtype == np.int64
        return got

    # rows on both sides of every chunk edge, the first row and the last
    edges = range(CHUNK, limit + 1, CHUNK)
    grid = np.unique([1, limit, *(e + d for e in edges for d in (-1, 0, 1, 2))])
    assert np.array_equal(walk(grid), full[grid - 1])
    # rows more than a chunk apart: the chunks between them hold no row
    # but still carry their sums
    sparse = np.array([3, 2 * CHUNK + 1, limit])
    assert np.array_equal(walk(sparse), full[sparse - 1])


def test_mertens_ratio_window_matches_slice(prefix4):
    w = mertens_ratio_window(prefix4, 1000, 5000)
    n = np.arange(1000, 5001, dtype=np.float64)
    ratios = prefix4.values[1000:5001] / np.sqrt(n)
    assert w.observed_min_ratio == ratios.min()
    assert w.observed_max_ratio == ratios.max()
    assert 1000 <= w.argmin <= 5000 and 1000 <= w.argmax <= 5000
    with pytest.raises(ValueError):
        mertens_ratio_window(prefix4, 0, 10)
    with pytest.raises(ValueError):
        mertens_ratio_window(prefix4, 10, prefix4.limit + 1)


def _peaked_mu(limit: int, peaks) -> np.ndarray:
    """mu-like values in {-1, 0, 1} whose sum M climbs one step at a
    time to m at each (n, m) of peaks and falls straight back to 0; at
    a square n = m^2, M(n)/sqrt(n) is exactly 1 or -1, so peaks tie."""
    mu = np.zeros(limit + 1, dtype=np.int8)
    for n, m in peaks:
        step = 1 if m > 0 else -1
        mu[n - abs(m) + 1:n + 1] = step
        mu[n + 1:n + abs(m) + 1] = -step
    return mu


def test_sweep_extremes_keep_the_least_n_on_a_tie():
    # ties inside one chunk (1 and 4, 16 and 49) and chunks apart
    # (129600 and 262144 = 4 * 2^16, 160000 and 250000)
    limit = 4 * CHUNK
    mu = _peaked_mu(limit, [(1, 1), (4, 2), (16, -4), (49, -7),
                            (129600, 360), (160000, -400), (250000, -500),
                            (262144, 512)])
    whole = np.cumsum(mu, dtype=np.int64)
    expected, lo, hi = [], 1, 100
    while lo <= limit:
        hi = min(hi, limit)
        ratios = whole[lo:hi + 1] / np.sqrt(np.arange(lo, hi + 1.0))
        expected.append((hi, ratios.min(), lo + int(ratios.argmin()),
                         ratios.max(), lo + int(ratios.argmax())))
        lo, hi = hi + 1, 10 * hi
    got = mertens_decades(ArithTable(limit, lambda: mu))
    assert got == expected
    assert (got[0][2], got[0][4]) == (16, 1)
    assert (got[-1][2], got[-1][4]) == (160000, 129600)
    prefix = MertensPrefix(limit, whole.astype(np.int32), math.nan, 1,
                           math.nan, 1)
    window = mertens_ratio_window(prefix, 100001, limit)
    assert (window.argmin, window.argmax) == (160000, 129600)


def test_mertens_identity_sampled(prefix4):
    for n in (1, 2, 3, 10, 97, 1000, 9999, 10_000):
        assert mertens_identity_check(prefix4, n)


# -- Mertens values without a full prefix -------------------------------

ROUTE_LIMIT = 2_000_000


@pytest.fixture(scope="module")
def route_table():
    return build_tables(ROUTE_LIMIT)


@pytest.fixture(scope="module")
def route_prefix(route_table):
    return mertens_prefix(route_table)


def _assert_quotients_match(q, table, prefix):
    """q holds the table's M at every floor quotient of q.n, and its
    small arrays are the table's own up to L."""
    v = q.n // np.arange(1, q.n + 1, dtype=np.int64)
    assert np.array_equal(q[v], prefix.values[v])
    top = q.small.size
    assert np.array_equal(q.small, prefix.values[:top])
    assert np.array_equal(q.mu, table.mu[:top])


@settings(max_examples=40)
@given(st.integers(1, ROUTE_LIMIT))
@example(n=1)
@example(n=2)
@example(n=3)
@example(n=4)
@example(n=26)  # L = isqrt(n) = 5 above icbrt(n)^2 = 4
@example(n=1_000_000)  # 1000^2 and 100^3
@example(n=1414 ** 2)
@example(n=1414 ** 2 - 1)
@example(n=125 ** 3)  # L = 125^2 = n // 125 exactly
@example(n=125 ** 3 - 1)
@example(n=125 ** 3 + 1)
@example(n=ROUTE_LIMIT)
def test_mertens_quotients_match_the_prefix(route_table, route_prefix, n):
    q = mertens_quotients(n)
    assert q.small.size - 1 == max(math.isqrt(n), integer_root(n, 3) ** 2)
    _assert_quotients_match(q, route_table, route_prefix)


@settings(max_examples=40)
@given(st.integers(2, 125), st.integers(0, 4))
@example(c=2, edge=0)
@example(c=125, edge=4)
def test_mertens_quotients_at_every_sieve_bound(route_table, route_prefix,
                                                c, edge):
    # n next to c^3, where icbrt(n) and so L = c^2 step; for the last
    # four L = c^2 and its neighbours are floor quotients of n or not
    n = (c ** 3 - 1,  # icbrt(n) = c - 1, L = (c - 1)^2
         c ** 3,  # L = n//c: the least quotient above L is n//(c-1)
         c ** 3 + 1,  # n//c = L still, one past the cube
         c ** 3 + c,  # n//c = L + 1, L itself no quotient
         c ** 3 + c * c - 1)[edge]  # n//(c+1) = L - 1, L no quotient
    q = mertens_quotients(n)
    assert q.small.size - 1 == max(math.isqrt(n), integer_root(n, 3) ** 2)
    _assert_quotients_match(q, route_table, route_prefix)


def test_mertens_quotients_published_value():
    assert int(mertens_quotients(10 ** 8)[10 ** 8]) == 1928


def test_mertens_quotients_rejections():
    for n in (0, MAX_LIMIT + 1):
        with pytest.raises(ValueError):
            mertens_quotients(n)


@settings(max_examples=60)
@given(st.integers(1, ROUTE_LIMIT), st.integers(0, 5000))
@example(lo=1, length=0)
@example(lo=2, length=3000)
@example(lo=1_018_000, length=200)  # straddles 1009^2
@example(lo=65_000, length=1000)  # crosses 2^16
@example(lo=(1 << 20) - 5, length=10)  # crosses 2^20
@example(lo=ROUTE_LIMIT - 99, length=100)
def test_mobius_segment_matches_the_table(route_table, lo, length):
    hi = min(lo + length, ROUTE_LIMIT + 1)
    assert np.array_equal(mobius_segment(lo, hi), route_table.mu[lo:hi])


@settings(max_examples=40)
@given(st.integers(1, ROUTE_LIMIT), st.integers(0, 5000))
@example(n=1, m=0)
@example(n=2, m=100)
@example(n=65_000, m=1000)
@example(n=CHUNK, m=2 * CHUNK)  # three segments, the last one cell
@example(n=ROUTE_LIMIT, m=0)
def test_mertens_segments_match_the_prefix(route_prefix, n, m):
    m = min(m, ROUTE_LIMIT - n)
    pieces = list(mertens_segments(n, m))
    assert [piece.size for piece in pieces] == \
        [1] + [hi - lo for lo, hi in chunk_bounds(n + m, n)]
    assert all(piece.dtype == np.int32 for piece in pieces)
    assert np.array_equal(np.concatenate(pieces),
                          route_prefix.values[n - 1 : n + m + 1])


def test_segment_and_block_rejections():
    for lo, hi in ((0, 5), (5, 4), (MAX_LIMIT, MAX_LIMIT + 2)):
        with pytest.raises(ValueError):
            mobius_segment(lo, hi)
    for n, m in ((0, 5), (5, -1), (2, MAX_LIMIT - 1)):
        with pytest.raises(ValueError):
            next(mertens_segments(n, m))


def test_chebyshev_theta_is_prime_log_sum(table4):
    for x in (1, 2, 2.5, 10, 97, 1000):
        direct = math.fsum(math.log(p) for p in table4.primes.tolist()
                           if p <= x)
        assert abs(chebyshev_theta(table4, x) - direct) < 1e-12
    assert chebyshev_theta(table4, 1.9) == 0.0
    with pytest.raises(ValueError):
        chebyshev_theta(table4, -1.0)


def test_mangoldt_weight_cases(table4):
    def weight(n):
        return prime_power_weight(table4, n)(n, n + 1)[0]

    c = euler_constant()
    assert weight(1) == 2.0 * c
    for p in (2, 3, 5, 97):
        for k in (1, 2, 3):
            if p ** k <= table4.limit:
                got = weight(p ** k)
                assert abs(got - math.log(p)) < 1e-15
    for n in (6, 10, 12, 100, 9999):
        assert weight(n) == 0.0


def test_squarefree_count_matches_trial(table4):
    for n in (1, 10, 100, 1000):
        direct = sum(1 for m in range(1, n + 1) if trial_mobius(m) != 0)
        assert squarefree_count(table4, n) == direct


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
def test_cauchy_schwarz_bound_always_holds(values):
    bound = cauchy_schwarz_prefix_bound(values)
    assert bound.holds
    assert bound.lhs <= bound.rhs


def test_cauchy_schwarz_equality_on_constants():
    bound = cauchy_schwarz_prefix_bound([2.0] * 9)
    assert math.isclose(bound.lhs, bound.rhs, rel_tol=1e-12)


# -- cache format -------------------------------------------------------

def test_cache_roundtrip_bit_exact(tmp_path, table4):
    # the second table spans several save and decode chunks
    for table in (table4, build_tables(3 * (1 << 16) + 5)):
        path = tmp_path / f"mu-{table.limit}.stjz"
        save_cache(table, path)
        payload = (table.mu[1:] + 1).astype(np.uint8).tobytes()
        assert path.read_bytes()[16:] == payload + struct.pack("<I", zlib.crc32(payload))
        loaded = load_cache(path)
        assert loaded.limit == table.limit
        assert np.array_equal(loaded.mu, table.mu)
        assert np.array_equal(loaded.primes, table.primes)
        second = tmp_path / "again.stjz"
        save_cache(loaded, second)
        assert path.read_bytes() == second.read_bytes()


def test_cache_corruption_classes(tmp_path, table4):
    path = tmp_path / "mu-10000.stjz"
    save_cache(table4, path)
    blob = bytearray(path.read_bytes())

    bad = tmp_path / "magic.stjz"
    bad.write_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(CacheMagicError):
        load_cache(bad)

    bad = tmp_path / "version.stjz"
    wrong = bytearray(blob)
    wrong[4] = 99
    bad.write_bytes(bytes(wrong))
    with pytest.raises(CacheVersionError):
        load_cache(bad)

    bad = tmp_path / "short.stjz"
    bad.write_bytes(bytes(blob[:-3]))
    with pytest.raises(CacheTruncatedError):
        load_cache(bad)

    bad = tmp_path / "crc.stjz"
    flipped = bytearray(blob)
    flipped[100] ^= 0x01
    bad.write_bytes(bytes(flipped))
    with pytest.raises(CacheChecksumError):
        load_cache(bad)

    bad = tmp_path / "header.stjz"
    bad.write_bytes(blob[:5])
    with pytest.raises(CacheTruncatedError):
        load_cache(bad)


def test_cache_summary_statuses(tmp_path, table4):
    path = tmp_path / "mu-10000.stjz"
    save_cache(table4, path)
    info = cache_summary(path)
    assert info["status"] == "ok" and info["crc_ok"]
    assert info["limit"] == 10_000 and info["version"] == 1

    blob = bytearray(path.read_bytes())
    blob[50] ^= 0xFF
    bad = tmp_path / "crc.stjz"
    bad.write_bytes(bytes(blob))
    assert cache_summary(bad)["status"] == "bad-checksum"


def test_cache_rejects_out_of_range_payload(tmp_path, table4):
    path = tmp_path / "mu-10000.stjz"
    save_cache(table4, path)
    blob = bytearray(path.read_bytes())
    header = 16  # magic, version, limit
    blob[header + 10] = 7  # would load as mu(11) = 6
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[header:-4])))
    path.write_bytes(bytes(blob))
    info = cache_summary(path)
    assert info["crc_ok"] and info["status"] == "bad-payload"
    with pytest.raises(CachePayloadError):
        load_cache(path)


def _checked_payload(data: bytes, path) -> memoryview:
    """The whole-file check load_cache and cache_summary once ran on the
    file's bytes read at once; the reference for the streamed check."""
    limit = _header_limit(data, path)
    expected = 16 + limit + 4
    if len(data) != expected:
        raise CacheTruncatedError(
            f"{path}: {len(data)} bytes, header promises {expected}")
    payload = memoryview(data)[16 : 16 + limit]
    (crc,) = struct.unpack_from("<I", data, 16 + limit)
    if zlib.crc32(payload) != crc:
        raise CacheChecksumError(f"{path}: payload CRC mismatch")
    if int(np.frombuffer(payload, dtype=np.uint8).max()) > 2:
        raise CachePayloadError(f"{path}: payload byte outside {{0, 1, 2}}")
    return payload


def _stjz_file(limit: int, seed: int) -> bytearray:
    """A well-formed STJZ file over random payload bytes in {0, 1, 2}."""
    payload = np.random.default_rng(seed).integers(0, 3, limit, dtype=np.uint8)
    return bytearray(struct.pack("<4sIQ", b"STJZ", 1, limit) + payload.tobytes()
                     + struct.pack("<I", zlib.crc32(payload)))


@st.composite
def _damaged_files(draw):
    """A file at one of the limits around the check's piece edges, with
    at most one fault: a flipped byte, a cut, extra trailing bytes, an
    edited header limit, or a payload byte out of range under a fixed
    CRC."""
    limit = draw(st.sampled_from([1, 2, 5000, CACHE_PIECE - 1, CACHE_PIECE,
                                  CACHE_PIECE + 1, 2 * CACHE_PIECE + 1]))
    blob = _stjz_file(limit, draw(st.integers(0, 3)))
    fault = draw(st.sampled_from(["none", "flip", "cut", "extend", "limit",
                                  "range"]))
    if fault == "flip":
        blob[draw(st.integers(0, len(blob) - 1))] ^= draw(st.integers(1, 255))
    elif fault == "cut":
        del blob[draw(st.integers(0, len(blob) - 1)):]
    elif fault == "extend":
        blob += draw(st.binary(min_size=1, max_size=9))
    elif fault == "limit":
        edited = draw(st.one_of(st.integers(limit - 2, limit + 2),
                                st.sampled_from([0, MAX_LIMIT, MAX_LIMIT + 1]),
                                st.integers(0, 2**64 - 1)))
        blob[8:16] = struct.pack("<Q", max(edited, 0))
    elif fault == "range":
        blob[16 + draw(st.integers(0, limit - 1))] = draw(st.integers(3, 255))
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[16:-4])))
    return bytes(blob)


@settings(max_examples=120)
@given(data=_damaged_files())
def test_streamed_check_agrees_with_the_whole_file_check(data, tmp_path):
    path = tmp_path / "mu.stjz"
    path.write_bytes(data)
    try:
        payload = _checked_payload(data, path)
        want = None
    except CacheError as exc:
        want = type(exc)
    if want is None:
        decoded = load_cache(path).mu
        assert decoded[0] == 0
        assert np.array_equal(decoded[1:].view(np.uint8) + np.uint8(1),
                              np.frombuffer(payload, dtype=np.uint8))
    else:
        with pytest.raises(want) as raised:
            load_cache(path)
        assert type(raised.value) is want
    info = cache_summary(path)
    assert info["status"] == ("ok" if want is None else want.status)
    assert info["crc_ok"] == (want in (None, CachePayloadError))
    assert info["file_bytes"] == len(data)
    if len(data) >= 16:
        _, version, limit = struct.unpack_from("<4sIQ", data)
        assert (info["version"], info["limit"]) == (version, limit)
    else:
        assert info["version"] is None and info["limit"] is None


@pytest.mark.parametrize("change", ["unlink", "replace", "rewrite",
                                    "truncate"])
@pytest.mark.parametrize("source", ["load", "save"])
def test_file_removed_or_replaced_after_its_check_still_reads_its_mu(
        source, change, table4, tmp_path):
    path = tmp_path / "mu.stjz"
    saved = save_cache(table4, path)
    table = load_cache(path) if source == "load" else saved
    if change == "unlink":
        path.unlink()
    elif change == "replace":
        save_cache(build_tables(table4.limit // 2), tmp_path / "other.stjz")
        (tmp_path / "other.stjz").replace(path)
    else:
        with open(path, "r+b") as fh:
            if change == "rewrite":
                fh.seek(16 + 5)
                fh.write(b"\x00")  # mu(6) = 1 is stored as 2
            else:
                fh.truncate(16 + 100)
    assert np.array_equal(table.mu, table4.mu)
