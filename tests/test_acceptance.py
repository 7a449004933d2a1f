"""Top-level acceptance checks, one test per shipped guarantee.

Each test is numbered and self-contained given the session tables from
conftest; the terminal summary prints one ``ACCEPTANCE NN <name>:
PASS/FAIL`` line per criterion (see conftest.py). Tolerances here are
the shipped contract — tightening or loosening them is an interface
change, not a refactor.
"""

import math
from pathlib import Path

import numpy as np

from zetadesk import arith, asymptotics, dirichlet
from zetadesk.cli import main
from zetadesk.weierstrass import compare_exponent_signs, exp_difference_product
from zetadesk.zeta import (functional_equation_residual, log_power_constant,
                           origin_constants, riemann_von_mangoldt, xi,
                           zero_scan, zeta, zeta_series_near_zero)

from .oracles import trial_mobius

GOLDEN = Path(__file__).parent / "golden"


def _report(num: int, name: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: PASS", flush=True)


def test_acceptance_01_sieve_mobius_matches_trial_division():
    limit = 100_000
    table = arith.build_tables(limit)
    expected = np.empty(limit + 1, dtype=np.int64)
    expected[0] = 0
    for n in range(1, limit + 1):
        expected[n] = trial_mobius(n)
    mismatches = np.nonzero(table.mu[1:].astype(np.int64)
                            != expected[1:])[0]
    assert mismatches.size == 0, f"first mismatch at n={mismatches[:5] + 1}"
    _report(1, "sieve_mobius_matches_trial_division")


def test_acceptance_02_mertens_quotient_identity(prefix4):
    values = prefix4.values
    for n in range(1, 10_001):
        k = np.arange(1, n + 1, dtype=np.int64)
        total = int(values[n // k].sum(dtype=np.int64))
        assert total == 1, f"quotient identity broke at n={n}: {total}"
    _report(2, "mertens_quotient_identity")


def test_acceptance_03_mertens_sqrt_envelope(prefix7):
    values = prefix7.values
    chunk = 1 << 20
    for lo in range(201, 10_000_001, chunk):
        hi = min(lo + chunk - 1, 10_000_000)
        n = np.arange(lo, hi + 1, dtype=np.int64)
        block = np.abs(values[lo:hi + 1].astype(np.float64))
        assert np.all(block <= np.sqrt(n.astype(np.float64))), \
            f"|M(n)| crossed sqrt(n) in [{lo}, {hi}]"
    window = arith.mertens_ratio_window(prefix7, 1_000, 10_000_000)
    sup = max(abs(window.observed_min_ratio), abs(window.observed_max_ratio))
    print(f"sup |M(n)|/sqrt(n) on [1e3, 1e7] = {sup:.6f} "
          f"(attained near n={window.argmin if abs(window.observed_min_ratio) >= window.observed_max_ratio else window.argmax})")
    assert sup < 1.0
    _report(3, "mertens_sqrt_envelope")


def test_acceptance_04_abel_rearrangement_precision(prefix6):
    rng = np.random.default_rng(52)
    for _ in range(200):
        n = int(rng.integers(2, 500_000))
        m = int(rng.integers(0, 50_000))
        s = complex(rng.uniform(0.1, 3.0), rng.uniform(-20.0, 20.0))
        segments = [prefix6.values[n - 1 : n]] + [
            prefix6.values[lo:hi] for lo, hi in arith.chunk_bounds(n + m, n)]
        dec = dirichlet.abel_rearranged_sum(n, m, s, segments)
        gap = abs(dec.rearranged - dec.direct_sum)
        assert gap <= 1e-12 * abs(dec.direct_sum) + 1e-300, \
            f"rearrangement gap {gap:.3e} at n={n} m={m} s={s}"
        assert 0.0 < dec.theta_min and dec.theta_max < 1.0, \
            f"mean-value exponent left (0,1) at n={n} m={m} s={s}"
    _report(4, "abel_rearrangement_precision")


def test_acceptance_05_mobius_convolution_closed_form(table4):
    mob = dirichlet.mobius_stream(table4)
    corrected = dirichlet.divisor_corrected_stream(table4)
    target = dirichlet.one_minus_g_stream(table4)
    conv = dirichlet.dirichlet_convolution(mob, corrected)
    gap = np.max(np.abs(conv.values[1:] - target.values[1:]))
    assert gap <= 1e-9, f"max convolution gap {gap:.3e}"
    _report(5, "mobius_convolution_closed_form")


def test_acceptance_06_psi_theta_ladder_decomposition(table6):
    rng = np.random.default_rng(53)
    samples = np.unique(rng.integers(1, 1_000_001, size=1_000))
    for check in asymptotics.psi_decomposition_check(table6, samples):
        rel = abs(check.diff) / max(abs(check.lhs), 1.0)
        assert rel <= 1e-9, \
            f"psi decomposition gap {rel:.3e} at n={check.n}"
    _report(6, "psi_theta_ladder_decomposition")


def test_acceptance_07_zeta_classical_values_and_feq():
    assert abs(zeta(2.0) - math.pi ** 2 / 6.0) <= 1e-12
    assert abs(zeta(0.0) + 0.5) <= 1e-10
    assert abs(zeta(-2.0)) <= 1e-10
    for sigma in (-2.0, -0.5, 0.3, 0.5, 0.8, 2.0):
        for t in (0.5, 3.0, 7.0, 15.0, 30.0):
            res = functional_equation_residual(complex(sigma, t))
            assert res <= 1e-8, \
                f"functional equation residual {res:.3e} at {sigma}+{t}i"
    _report(7, "zeta_classical_values_and_feq")


def test_acceptance_08_origin_constants_two_routes():
    d1 = log_power_constant(1, 100_000)
    target = 0.5 * math.log(2.0 * math.pi) - 1.0
    assert abs(d1.value - target) <= 1e-8, \
        f"first constant off by {abs(d1.value - target):.3e}"
    both = origin_constants(5, 100_000)
    for k, gap in zip(both.k_values, both.route_gaps):
        assert gap <= 1e-6, f"route gap {gap:.3e} at k={k}"
    for radius in (0.1, 0.3, 0.5):
        for j in range(8):
            s = radius * complex(math.cos(j * math.pi / 4.0),
                                 math.sin(j * math.pi / 4.0))
            gap = abs(zeta_series_near_zero(s) - zeta(s))
            assert gap <= 1e-8 * max(1.0, abs(zeta(s))), \
                f"series gap {gap:.3e} at s={s}"
    _report(8, "origin_constants_two_routes")


def test_acceptance_09_xi_zero_census():
    for t in np.arange(0.0, 60.0 + 0.25, 0.5):
        value = xi(float(t))
        mirrored = xi(float(-t))
        scale = max(abs(value), 1e-300)
        assert abs(value.imag) <= 1e-10 * scale, f"xi not real at t={t}"
        assert abs(value - mirrored) <= 1e-10 * scale, f"xi not even at t={t}"

    counts = {}
    for step in (0.05, 0.025):
        scan = zero_scan(100.0, step=step)
        counts[step] = (int((scan.zeros <= 50.0).sum()), scan.count)
    assert counts[0.05] == counts[0.025] == (10, 29), \
        f"zero counts moved under step halving: {counts}"
    for t_max, count in ((50.0, 10), (100.0, 29)):
        gap = abs(count - riemann_von_mangoldt(t_max))
        assert gap <= 2.5, f"census vs main-term gap {gap:.2f} at T={t_max}"
    _report(9, "xi_zero_census")


def test_acceptance_10_divisor_ratio_bounded(table6):
    scan = asymptotics.divisor_ratio_scan(table6, n_min=1_000)
    assert scan.stats["sup_abs"] <= 1.0, \
        f"divisor remainder ratio peaked at {scan.stats['sup_abs']:.4f}"
    at_ten = asymptotics.divisor_asymptotic_ratio(table6, 10)
    assert abs(at_ten - 0.768) <= 1e-3, f"ratio(10) = {at_ten:.6f}"
    _report(10, "divisor_ratio_bounded")


def test_acceptance_11_decay_trends_at_scale(table7):
    s = 0.75
    theta_small = asymptotics.theta_deviation(table7, 10_000, s)
    theta_large = asymptotics.theta_deviation(table7, 10_000_000, s)
    assert abs(theta_large) < abs(theta_small), \
        f"theta deviation failed to shrink: {theta_small:.4f} -> {theta_large:.4f}"

    gap_small = asymptotics.prime_count_gap_ratio(table7, 10_000.0, s)
    gap_large = asymptotics.prime_count_gap_ratio(table7, 10_000_000.0, s)
    assert abs(gap_large) < abs(gap_small), \
        f"prime-count gap failed to shrink: {gap_small:.2e} -> {gap_large:.2e}"

    decades = asymptotics.prime_window_decades(table7, 0.1, 1_000, 1_000_000)
    window_counts = [count for _, _, count in decades]
    assert len(window_counts) == 4
    assert all(a < b for a, b in zip(window_counts, window_counts[1:])), \
        f"window counts not strictly increasing: {window_counts}"
    _report(11, "decay_trends_at_scale")


def test_acceptance_12_mertens_constant_bracket(table7):
    at_7 = asymptotics.mertens_constant_estimate(table7, 10_000_000)
    at_6 = asymptotics.mertens_constant_estimate(table7, 1_000_000)
    assert 0.25 <= at_7 <= 0.27, f"estimate at 1e7 = {at_7:.6f}"
    assert abs(at_7 - at_6) < 0.01, \
        f"decade-to-decade drift {abs(at_7 - at_6):.4f}"
    _report(12, "mertens_constant_bracket")


def test_acceptance_13_lattice_product_convergence():
    for n_terms in (10, 1_000, 100_000):
        result = exp_difference_product(0.0, 1.0, n_terms)
        assert result.product_value == result.direct_value
        assert result.relative_error == 0.0

    pairs = ((0.3, 1.0), (-0.7, 0.5), (1.2, 2.0), (0.5, -1.0), (-1.0, 1.5))
    for x, a in pairs:
        comparison = compare_exponent_signs(x, a, 100_000)
        best = getattr(comparison, comparison.converging_sign)
        assert best.relative_error < 1e-3, \
            f"converging sign error {best.relative_error:.2e} at x={x} a={a}"

    errors = [exp_difference_product(0.3, 1.0, n).relative_error
              for n in (1_000, 2_000, 4_000, 8_000, 16_000)]
    for coarse, fine in zip(errors, errors[1:]):
        assert fine < 0.6 * coarse, \
            f"error failed to halve under doubled terms: {errors}"
    _report(13, "lattice_product_convergence")


def test_acceptance_14_cache_and_cli_contracts(tmp_path, capsys):
    table = arith.build_tables(5_000)
    first = tmp_path / "mu-5000.stjz"
    arith.save_cache(table, first)
    second = tmp_path / "again.stjz"
    arith.save_cache(arith.load_cache(first), second)
    assert first.read_bytes() == second.read_bytes()
    summary = arith.cache_summary(first)
    assert summary["status"] == "ok" and summary["crc_ok"] is True

    out = tmp_path / "mertens.csv"
    assert main(["mertens", "--limit", "30", "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "mertens_limit30.csv").read_bytes()

    assert main(["mertens", "--limit", "10", "--bogus"]) == 2
    assert main(["zeros", "--t-max", "50", "--step", "0.2"]) == 2
    capsys.readouterr()
    _report(14, "cache_and_cli_contracts")
