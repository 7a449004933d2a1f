"""Sweep M(n)/sqrt(n) extremes decade by decade.

Writes one CSV row per decade endpoint with the ratio extremes observed
inside that decade, plus the running extremes so far. The interesting
question at desk scale is how far the envelope sits below 1.

Usage: python3 scripts/mertens_sweep.py --limit 10000000 --out sweep.csv
"""

import argparse
import sys
from pathlib import Path

from zetadesk.arith import build_tables, mertens_prefix, mertens_ratio_window
from zetadesk.asymptotics import TREND_LIMIT_MIN
from zetadesk.reports import Table, render_csv

COLUMNS = ("decade_end", "min_ratio", "argmin", "max_ratio", "argmax",
           "running_min", "running_max")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--limit", type=int, default=10_000_000)
    ap.add_argument("--out", default="mertens_sweep.csv")
    args = ap.parse_args()
    if args.limit < TREND_LIMIT_MIN:
        ap.error(f"--limit must be at least {TREND_LIMIT_MIN}")

    table = build_tables(args.limit)
    prefix = mertens_prefix(table)
    rows = []
    running_min = 0.0
    running_max = 0.0
    lo = 1
    hi = TREND_LIMIT_MIN
    while lo <= args.limit:
        hi = min(hi, args.limit)
        w = mertens_ratio_window(prefix, lo, hi)
        running_min = min(running_min, w.observed_min_ratio)
        running_max = max(running_max, w.observed_max_ratio)
        rows.append((hi, w.observed_min_ratio, w.argmin,
                     w.observed_max_ratio, w.argmax, running_min, running_max))
        lo = hi + 1
        hi *= 10
    Path(args.out).write_text(render_csv(Table.from_rows(COLUMNS, rows)))
    print(f"wrote {args.out}: sup |M|/sqrt(n) = "
          f"{max(-running_min, running_max):.6f} up to {args.limit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
