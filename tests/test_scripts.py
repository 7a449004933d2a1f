"""Smoke runs of the experiment drivers under scripts/.

Each driver runs in its own child, at a small size, writing into a
temporary directory; it must exit 0 and write CSV files with the
expected header rows.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args,headers", [
    ("mertens_sweep.py", ["--limit", "1000", "--out", "sweep.csv"],
     {"sweep.csv": "decade_end,min_ratio,argmin,max_ratio,argmax,"
                   "running_min,running_max"}),
    ("zero_census.py",
     ["--t-max", "30", "--step", "0.05", "--out", "census.csv"],
     {"census.csv": "T,count,smooth_estimate,gap"}),
    ("convergence_trends.py", ["--limit", "1000", "--out-dir", "trends"],
     {"trends/theta_deviation.csv": "n,theta,deviation",
      "trends/prime_count_gap.csv": "x,ratio",
      "trends/divisor_ratio.csv": "n,ratio"}),
])
def test_script_writes_its_tables(script, args, headers, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args], cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    for name, header in headers.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == header and len(lines) > 1
