"""Deviation trends that motivate the exponent-1/2 discussions.

Builds one table and emits three CSVs: the Chebyshev theta deviation
(theta(n) - n)/n^s, the weighted prime-count gap (G(x) - li(x))/x^s,
and the divisor-sum remainder over sqrt(n). At s = 0.75 the first two
should shrink slowly with n; the third stays bounded.

Usage: python3 scripts/convergence_trends.py --limit 10000000 --s 0.75
"""

import argparse
import sys
from pathlib import Path

from zetadesk.arith import build_tables
from zetadesk.asymptotics import (TREND_LIMIT_MIN, _check_exponent,
                                  divisor_ratio_scan, prime_count_gap_scan,
                                  theta_deviation_scan)
from zetadesk.reports import render_csv


def _write(table, path: Path) -> None:
    path.write_text(render_csv(table))
    print(f"wrote {path}: {table.stats}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--limit", type=int, default=10_000_000)
    ap.add_argument("--s", type=float, default=0.75)
    ap.add_argument("--out-dir", default=".")
    args = ap.parse_args()
    try:
        _check_exponent(args.s)
    except ValueError as exc:
        ap.error(f"--s: {exc}")
    if args.limit < TREND_LIMIT_MIN:
        ap.error(f"--limit must be at least {TREND_LIMIT_MIN}")

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table = build_tables(args.limit)
    _write(theta_deviation_scan(table, args.s), out / "theta_deviation.csv")
    _write(prime_count_gap_scan(table, args.s), out / "prime_count_gap.csv")
    _write(divisor_ratio_scan(table), out / "divisor_ratio.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
