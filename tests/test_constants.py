import math

from zetadesk.constants import euler_constant


def test_euler_constant_is_the_corrected_harmonic_limit():
    # H_n - log n at n = 10^5 with Euler-Maclaurin terms through 1/n^6;
    # the stored value must be this route's binary64 result, bit for bit
    n = 100_000
    harmonic = math.fsum(1.0 / k for k in range(1, n + 1))
    value = harmonic - math.log(n) - 0.5 / n
    value += 1.0 / (12.0 * n * n) - 1.0 / (120.0 * n**4) + 1.0 / (252.0 * n**6)
    assert euler_constant().hex() == value.hex()
