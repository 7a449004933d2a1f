"""Which tests check each command against a second route.

ROUTES maps every cli.COMMANDS name to the tests (file::function, under
tests/) that check the command's cells, or the engine that computes
them, against an independent route: trial division, a published value,
mpmath or sympy, a closed form or a direct sum, a whole-array formula
beside a chunked walk, a cached run beside an uncached one, a file's
bytes parsed by their layout alone. A golden file, a run-twice
identity or a finiteness check is not a route.
"""

import ast
from pathlib import Path

from zetadesk.cli import COMMANDS

ROUTES = {
    "mertens": (
        "test_acceptance.py::test_acceptance_01_sieve_mobius_matches_trial_division",
        "test_arith.py::test_mertens_prefix_values",
        "test_arith.py::test_mertens_quotients_match_the_prefix",
    ),
    "mertens-sweep": (
        "test_cli.py::test_sweep_rows_match_the_whole_prefix_windows",
    ),
    "dirichlet-sum": (
        "test_dirichlet.py::test_prefix_ratio_scan_anchors",
        "test_dirichlet.py::test_chunked_prefix_is_bit_identical_to_full_cumsum",
    ),
    "abel-check": (
        "test_acceptance.py::test_acceptance_04_abel_rearrangement_precision",
        "test_dirichlet.py::test_abel_identity_randomized",
        "test_dirichlet.py::test_abel_routes_agree",
    ),
    "convolution-check": (
        "test_acceptance.py::test_acceptance_05_mobius_convolution_closed_form",
        "test_dirichlet.py::test_convolution_is_bit_identical_to_per_d_loop",
    ),
    "zeta": (
        "test_acceptance.py::test_acceptance_07_zeta_classical_values_and_feq",
        "test_zeta.py::test_zeta_spot_values",
        "test_zeta.py::test_zeta_classical_points",
    ),
    "xi": (
        "test_zeta.py::test_xi_real_even_and_anchored",
        "test_zeta.py::test_completed_zeta_symmetry",
        "test_zeta.py::test_xi_matches_mpmath_off_the_origin",
    ),
    "zeros": (
        "test_acceptance.py::test_acceptance_09_xi_zero_census",
        "test_zeta.py::test_zero_scan_finds_known_ordinates",
    ),
    "zero-census": (
        "test_acceptance.py::test_acceptance_09_xi_zero_census",
    ),
    "constants": (
        "test_acceptance.py::test_acceptance_08_origin_constants_two_routes",
        "test_zeta.py::test_defect_sum_matches_exact_route",
        "test_zeta.py::test_contour_route_matches_references",
        "test_zeta.py::test_routes_agree",
    ),
    "theta": (
        "test_arith.py::test_primes_match_trial_division",
        "test_arith.py::test_chebyshev_theta_is_prime_log_sum",
    ),
    "divisor-ratio": (
        "test_arith.py::test_divisor_counts_match_factorization",
        "test_arith.py::test_divisor_sieve_matches_hyperbola_sums",
        "test_asymptotics.py::test_divisor_ratio_scan_grids",
    ),
    "li": (
        "test_asymptotics.py::test_li_matches_frozen_references",
        "test_asymptotics.py::test_li_matches_quadrature",
    ),
    "relation-a": (
        "test_asymptotics.py::test_weighted_prime_count_against_primepi",
        "test_asymptotics.py::test_li_matches_quadrature",
    ),
    "mertens-constant": (
        "test_asymptotics.py::test_mertens_constant_estimates",
    ),
    "prime-window": (
        "test_asymptotics.py::test_prime_window_matches_direct_count",
    ),
    "identity-explore": (
        "test_asymptotics.py::test_identity_probe_routes_agree",
        "test_asymptotics.py::test_identity_sweep_matches_probe_at_every_small_bound",
    ),
    "weierstrass": (
        "test_acceptance.py::test_acceptance_13_lattice_product_convergence",
        "test_weierstrass.py::test_plus_sign_converges",
        "test_weierstrass.py::test_chunked_walks_match_the_whole_array_formula",
    ),
    "cache-build": (
        "test_arith.py::test_cache_roundtrip_bit_exact",
        "test_cli.py::test_cached_and_fresh_runs_are_byte_identical",
    ),
    "cache-inspect": (
        "test_cli.py::test_cache_inspect_rows_match_an_independent_parse",
    ),
}


def _test_functions(path: Path) -> set:
    return {node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("test_")}


def test_every_command_has_an_entry_and_every_named_test_exists():
    assert list(ROUTES) == list(COMMANDS)
    here = Path(__file__).parent
    missing = [test for tests in ROUTES.values() for test in tests
               if test.split("::")[1]
               not in _test_functions(here / test.split("::")[0])]
    assert missing == []
