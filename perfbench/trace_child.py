"""Run one zetadesk command with spans recorded around the calls into
each module, then write the spans out as JSON.

    python3 trace_child.py SPANS_JSON SPAWNED_AT OP -- COMMAND ARGS...

SPAWNED_AT is the parent's time.perf_counter() just before it started
this process; on Linux that clock is CLOCK_MONOTONIC, shared by every
process, so the first span (cli.startup) runs from it to the moment
zetadesk.cli.main is entered. The wrappers are put on from outside the
package: module attributes that cli looks up at call time are replaced,
and the derived-array properties of ArithTable get a wrapped getter.
Spans stay in memory until the command returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    def __init__(self, op: int):
        self.op = op
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name, fn, before=None, after=None):
        """fn with a span named name around each call. before(*args)
        and after(result) give counts to store on the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": 0.0, "end": 0.0,
                    "parent": self._open[-1] if self._open else None,
                    "op": self.op, "rss0": _peak_rss_mb()}
            if before is not None:
                span.update(before(*args, **kwargs))
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
                span["rss1"] = _peak_rss_mb()
            if after is not None:
                span.update(after(result))
            return result

        return traced


class _TimedStdout:
    """sys.stdout whose write (with its flush) is the cli.write span."""

    def __init__(self, stream, recorder: Recorder):
        self._stream = stream
        self.write = recorder.wrap("cli.write", self._write_through)

    def _write_through(self, text):
        n = self._stream.write(text)
        self._stream.flush()
        return n

    def __getattr__(self, name):
        return getattr(self._stream, name)


def install(recorder: Recorder) -> None:
    from zetadesk import arith, asymptotics, cli, dirichlet, weierstrass

    # the package's own `zeta` name is the function, not the module
    zeta_module = importlib.import_module("zetadesk.zeta")

    rows = lambda out, *_: {"rows": len(out.rows)}  # noqa: E731
    size = lambda text: {"bytes": len(text)}  # noqa: E731
    counts = {
        "arith.build_tables": (lambda limit: {"n": limit}, None),
        "arith.load_cache": (lambda path: {"bytes": os.path.getsize(path)}, None),
        "cli.render_csv": (rows, size),
        "cli.render_json": (rows, size),
        "zeta.log_power_constant": (lambda k, n=100_000, *_: {"cells": n - 1}, None),
        "weierstrass.compare_exponent_signs": (lambda x, a, n_terms: {"terms": 2 * n_terms}, None),
    }
    # (module, attribute, span name); cli binds its zeta functions by name
    boundaries = [(arith, a, f"arith.{a}") for a in
                  ("build_tables", "load_cache", "save_cache", "mertens_prefix")]
    boundaries += [(cli, a, f"cli.{a}") for a in ("acquire_table", "render_csv", "render_json")]
    boundaries += [(dirichlet, a, f"dirichlet.{a}") for a in
                   ("mobius_stream", "unit_stream", "divisor_corrected_stream",
                    "one_minus_g_stream", "prefix_ratio_scan", "abel_rearranged_sum",
                    "dirichlet_convolution")]
    boundaries += [(asymptotics, a, f"asymptotics.{a}") for a in
                   ("theta_deviation_scan", "divisor_ratio_scan", "li", "prime_count_gap_scan",
                    "mertens_constant_estimate", "prime_window_decades",
                    "floor_identity_probe", "floor_identity_sweep")]
    boundaries += [(cli, a, f"zeta.{a}") for a in
                   ("log_power_constant", "log_power_constant_contour", "xi", "zero_scan")]
    boundaries += [(cli, "zeta_function", "zeta.zeta"), (zeta_module, "xi", "zeta.xi"),
                   (weierstrass, "compare_exponent_signs", "weierstrass.compare_exponent_signs")]
    wrapped = {}
    for module, attr, name in boundaries:
        fn = getattr(module, attr)
        if fn not in wrapped:
            wrapped[fn] = recorder.wrap(name, fn, *counts.get(name, (None, None)))
        setattr(module, attr, wrapped[fn])
    for key, fn in cli._SERIES_BUILDERS.items():
        cli._SERIES_BUILDERS[key] = wrapped[fn]
    for attr in ("divisor_count", "smallest_prime_factor"):
        prop = arith.ArithTable.__dict__[attr]
        prop.func = recorder.wrap(f"arith.{attr}", prop.func)
    sys.stdout = _TimedStdout(sys.stdout, recorder)


def main(argv: list[str]) -> int:
    spans_path, spawned_at, op = argv[0], float(argv[1]), int(argv[2])
    command = argv[argv.index("--") + 1:]
    recorder = Recorder(op)
    install(recorder)
    from zetadesk import cli

    recorder.spans.append({"name": "cli.startup", "start": spawned_at,
                           "end": time.perf_counter(), "parent": None, "op": op,
                           "rss0": 0.0, "rss1": _peak_rss_mb()})
    try:
        return recorder.wrap("cli.main", cli.main)(command)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
