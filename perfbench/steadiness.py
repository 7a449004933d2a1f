"""Steadiness check: run the benchmark on seeds 1-10 per workload and
report, for each end-to-end metric, the median and the spread (distance
between the first and third quartile as a share of the median) next to
the metric's bound from BENCHMARK.json.

    python3 perfbench/steadiness.py [--workload NAME ...]

Run it from the root of a checkout; --workload (repeatable) limits the
check to the named workloads, for example after resizing one of them.
It exits 1 when a run exits non-zero, reports a failed operation or a
wrong output, when the failed share differs between runs, or when a
spread other than that of setup_s is wider than a third of its bound.
The spread of setup_s is shown but not limited; what matters for it is
how far its median moves between two sets, which one set cannot show.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SEEDS = range(1, 11)


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {name: [] for name in bounds}
        shares = set()
        for seed in SEEDS:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            took = time.perf_counter() - start
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if result["failed"] or not result["correct"]:
                status = 1
            shares.add(result["failed"] / result["attempted"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={v[-1]:.4f}" for n, v in values.items())
                + f" failed={result['failed']}/{result['attempted']}"
                + f" correct={result['correct']} took={took:.1f}s", flush=True)
        if len(shares) > 1:
            status = 1
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median
            aim = "n/a" if name == "setup_s" else ("ok" if spread < bounds[name] / 3 else "WIDE")
            if aim == "WIDE":
                status = 1
            print(f"{workload} {name}: median {median:.4f} spread {spread:.4f} "
                  f"bound {bounds[name]} {aim}")
        print(f"{workload} failed share: {sorted(shares)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
