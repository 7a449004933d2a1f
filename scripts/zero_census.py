"""Census of critical-line zeros against the smooth count estimate.

Scans sign changes of Re xi up to --t-max (capped at 100 by the engine's
validated box), then prints count vs the smooth estimate at a ladder of
heights. The gap staying within a couple of zeros is the desk-scale
version of the zero-count asymptotic.

Usage: python3 scripts/zero_census.py --t-max 100 --step 0.02
"""

import argparse
import sys
from pathlib import Path

from zetadesk.reports import Table, render_csv
from zetadesk.zeta import riemann_von_mangoldt, zero_scan


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--t-max", type=float, default=100.0)
    ap.add_argument("--step", type=float, default=0.02)
    ap.add_argument("--out", default="zero_census.csv")
    args = ap.parse_args()

    report = zero_scan(args.t_max, args.step)
    rows = []
    for t_ladder in range(10, int(args.t_max) + 1, 10):
        count = int((report.zeros <= t_ladder).sum())
        est = riemann_von_mangoldt(float(t_ladder))
        rows.append((t_ladder, count, est, count - est))
    Path(args.out).write_text(render_csv(Table.from_rows(
        ("T", "count", "smooth_estimate", "gap"), rows)))
    print(f"wrote {args.out}: {report.count} zeros below {args.t_max}, "
          f"{len(report.close_calls)} close calls")
    for z in report.zeros:
        print(f"  {z:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
