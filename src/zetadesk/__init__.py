"""Desk-scale numerical laboratory for Mertens sums, Dirichlet series,
and the Riemann xi function.

`import zetadesk` imports no submodule. Each exported name is imported
on first access, `zetadesk.xi` say, through the module __getattr__ of
PEP 562, so the CLI starts without loading the engines or numpy. A
submodule is imported as any is (`from zetadesk import arith`).
`zetadesk.zeta` is the zeta function, not the submodule of that name,
whatever the import order: importing zetadesk.zeta binds the function
here, not the module.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("ArithTable", "MertensPrefix", "build_tables", "chebyshev_theta",
         "load_cache", "mertens_identity_check", "mertens_prefix",
         "mertens_ratio_window", "save_cache"), "arith"),
    **dict.fromkeys(
        ("mertens_constant_estimate", "psi_sum", "riemann_prime_count"),
        "asymptotics"),
    "li": "constants",
    **dict.fromkeys(
        ("abel_rearranged_sum", "dirichlet_convolution", "mobius_stream",
         "partial_sum"), "dirichlet"),
    **dict.fromkeys(("exp_difference_product", "zero_set_check"),
                    "weierstrass"),
    **dict.fromkeys(
        ("completed_zeta", "log_power_constant", "origin_constants", "xi",
         "zero_scan", "zeta", "zeta_series_near_zero"), "zeta"),
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # the import system binds each loaded submodule on its package;
        # for zeta the package keeps the function instead
        if name == "zeta" and isinstance(value, types.ModuleType):
            value = value.zeta
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
