"""Span arithmetic for the traced run.

A span is one call across a layer boundary, recorded by `trace_child`:
``{"name", "start", "end", "parent", "op"}`` plus the process's peak RSS
before and after (``rss0``, ``rss1``, in MB) and a few counts some
boundaries carry (``n``, ``bytes``, ``rows``, ``cells``, ``terms``).
``parent`` is the index of the enclosing span in the same operation's
list, or None. The layer of a span is the part of its name before the
first dot.
"""

from __future__ import annotations

from collections import defaultdict

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("arith.sieve_s", "s", "lower"),
    ("arith.sieve_mints_per_s", "Mints/s", "higher"),
    ("arith.derived_s", "s", "lower"),
    ("arith.cache_load_s", "s", "lower"),
    ("arith.cache_save_s", "s", "lower"),
    ("arith.cache_read_mb_per_s", "MB/s", "higher"),
    ("arith.cache_hits", "count", "higher"),
    ("arith.cache_misses", "count", "lower"),
    ("arith.rss_step_mb", "MB", "lower"),
    ("dirichlet.busy_s", "s", "lower"),
    ("dirichlet.convolution_s", "s", "lower"),
    ("dirichlet.rss_step_mb", "MB", "lower"),
    ("asymptotics.busy_s", "s", "lower"),
    ("asymptotics.identity_sweep_s", "s", "lower"),
    ("zeta.defect_s", "s", "lower"),
    ("zeta.defect_cells_per_s", "cells/s", "higher"),
    ("zeta.contour_s", "s", "lower"),
    ("zeta.zero_scan_s", "s", "lower"),
    ("zeta.xi_evals", "count", "lower"),
    ("weierstrass.busy_s", "s", "lower"),
    ("weierstrass.terms_per_s", "terms/s", "higher"),
    ("cli.startup_s", "s", "lower"),
    ("cli.acquire_s", "s", "lower"),
    ("cli.render_s", "s", "lower"),
    ("cli.render_rows", "count", "lower"),
    ("cli.render_mb_per_s", "MB/s", "higher"),
    ("cli.render_rss_step_mb", "MB", "lower"),
    ("cli.write_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def layer(span: dict) -> str:
    return span["name"].split(".", 1)[0]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span["start"]
        for child in sorted(children[i], key=lambda c: c["start"]):
            lo = max(child["start"], reach)
            hi = min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span["end"] - span["start"] - covered)
    return out


def rss_rise(spans: list[dict], group) -> float:
    """Rise of the peak RSS across the outermost spans for which
    group(span) holds (a span nested in another of them is already
    counted)."""
    total = 0.0
    for span in spans:
        if not group(span):
            continue
        parent = span["parent"]
        while parent is not None and not group(spans[parent]):
            parent = spans[parent]["parent"]
        if parent is None:
            total += span["rss1"] - span["rss0"]
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(ops: list[list[dict]]) -> dict[str, float]:
    """Per-layer metrics of one traced round, given each operation's
    spans. Times and counts add up over the operations; an RSS step is
    the largest any one operation shows."""
    total = defaultdict(float)
    busy = defaultdict(float)
    steps = defaultdict(float)
    groups = {"arith": lambda s: layer(s) == "arith",
              "dirichlet": lambda s: layer(s) == "dirichlet",
              "render": lambda s: s["name"] in ("cli.render_csv", "cli.render_json")}
    for spans in ops:
        for span, own in zip(spans, self_times(spans)):
            name = span["name"]
            total[name] += span["end"] - span["start"]
            busy[layer(span)] += own
            total[name + "#calls"] += 1
            for key in ("n", "bytes", "rows", "cells", "terms"):
                total[f"{name}#{key}"] += span.get(key, 0)
            if name == "cli.acquire_table":
                busy["cli.acquire"] += own
            parent = spans[span["parent"]]["name"] if span["parent"] is not None else None
            if parent == "cli.acquire_table":
                total[f"{name}#from_acquire"] += 1
        for key, group in groups.items():
            steps[key] = max(steps[key], rss_rise(spans, group))
    sieve = total["arith.build_tables"]
    defect = total["zeta.log_power_constant"]
    product = total["weierstrass.compare_exponent_signs"]
    render = total["cli.render_csv"] + total["cli.render_json"]
    load = total["arith.load_cache"]
    return {
        "arith.sieve_s": sieve,
        "arith.sieve_mints_per_s": _ratio(total["arith.build_tables#n"] / 1e6, sieve),
        "arith.derived_s": (total["arith.divisor_count"] + total["arith.smallest_prime_factor"]
                            + total["arith.mertens_prefix"]),
        "arith.cache_load_s": load,
        "arith.cache_save_s": total["arith.save_cache"],
        "arith.cache_read_mb_per_s": _ratio(total["arith.load_cache#bytes"] / 1e6, load),
        "arith.cache_hits": total["arith.load_cache#from_acquire"],
        "arith.cache_misses": total["arith.build_tables#from_acquire"],
        "arith.rss_step_mb": steps["arith"],
        "dirichlet.busy_s": busy["dirichlet"],
        "dirichlet.convolution_s": total["dirichlet.dirichlet_convolution"],
        "dirichlet.rss_step_mb": steps["dirichlet"],
        "asymptotics.busy_s": busy["asymptotics"],
        "asymptotics.identity_sweep_s": total["asymptotics.floor_identity_sweep"],
        "zeta.defect_s": defect,
        "zeta.defect_cells_per_s": _ratio(total["zeta.log_power_constant#cells"], defect),
        "zeta.contour_s": total["zeta.log_power_constant_contour"],
        "zeta.zero_scan_s": total["zeta.zero_scan"],
        "zeta.xi_evals": total["zeta.xi#calls"],
        "weierstrass.busy_s": product,
        "weierstrass.terms_per_s": _ratio(total["weierstrass.compare_exponent_signs#terms"], product),
        "cli.startup_s": total["cli.startup"],
        "cli.acquire_s": busy["cli.acquire"],
        "cli.render_s": render,
        "cli.render_rows": total["cli.render_csv#rows"] + total["cli.render_json#rows"],
        "cli.render_mb_per_s": _ratio((total["cli.render_csv#bytes"]
                                       + total["cli.render_json#bytes"]) / 1e6, render),
        "cli.render_rss_step_mb": steps["render"],
        "cli.write_s": total["cli.write"],
    }
