"""Self-tests for the benchmark's own code.

    python3 -m pytest perfbench -q

They need no benchmark run: the oracles are compared with known small
cases, the checks with hand-built outputs, the executor with a stand-in
`zetadesk.cli` in a temporary directory, and the span arithmetic with
made-up spans. One test traces a tiny real command from ../src.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
import spans
import workloads
from run import Bench
from workloads import CheckError, Op

HERE = Path(__file__).resolve().parent


# -- oracles -------------------------------------------------------------

def test_mobius_by_trial_division():
    assert [oracles.mobius_trial(n) for n in range(1, 31)] == [
        1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1, 0, -1, 0, -1, 0,
        1, 1, -1, 0, 0, 1, 0, 0, -1, -1]


def test_mertens_recursion_matches_published_and_running_sums():
    m = oracles.Mertens(10**7)
    assert [m(x) for x in sorted(oracles.MERTENS_PUBLISHED) if x <= 10**7] == [
        -1, 1, 2, -23, -48, 212, 1037]
    small = oracles.Mertens(20_000)  # table to ~740, recursion above it
    running = 0
    for n in range(1, 20_001):
        running += oracles.mobius_trial(n)
        if n % 997 == 0:
            assert small(n) == running


def test_divisor_routes_agree_with_brute_force():
    brute = [0] + [sum(1 for d in range(1, n + 1) if n % d == 0) for n in range(1, 301)]
    assert oracles.divisor_count_table(300).tolist() == brute
    for x in range(1, 301):
        assert oracles.divisor_summatory(x) == sum(brute[: x + 1])


def test_prime_routes():
    assert oracles.primes_upto(60).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
                                                41, 43, 47, 53, 59]
    assert oracles.prime_pi(100) == 25 == len(oracles.primes_upto(100))
    assert len(oracles.primes_upto(10**6)) == 78498
    # pi(100) + pi(10)/2 + pi(4)/3 + pi(3)/4 + pi(2)/5 + pi(2)/6
    want = Fraction(25) + Fraction(4, 2) + Fraction(2, 3) + Fraction(2, 4) + Fraction(1, 5) + Fraction(1, 6)
    assert float(oracles.weighted_prime_count(100)) == pytest.approx(float(want), rel=1e-15)
    assert oracles.prime_power_base(81) == 3 and oracles.prime_power_base(12) is None


def test_analytic_references():
    assert oracles.origin_constant(1) == pytest.approx(0.5 * math.log(2 * math.pi) - 1, abs=1e-15)
    assert oracles.zeta_zero(1) == pytest.approx(14.134725141734693, abs=1e-12)
    assert oracles.li(2.0) == pytest.approx(1.0451637801174928, rel=1e-15)
    assert oracles.zeta(2.0) == pytest.approx(math.pi**2 / 6, rel=1e-15)


def test_scan_grid():
    assert oracles.geometric_grid(30) == [1, 2, 3, 4, 5, 6, 7, 9, 12, 15, 19, 23, 29, 30]


# -- checks --------------------------------------------------------------

def _mertens_text(limit: int, corrupt_at: int | None = None) -> str:
    lines = ["n,M,ratio"]
    m = 0
    for n in range(1, limit + 1):
        m += oracles.mobius_trial(n)
        shown = m + (1 if n == corrupt_at else 0)
        lines.append(f"{n},{shown},{shown / math.sqrt(n):.17g}")
    return "\n".join(lines) + "\n"


def test_mertens_check_accepts_right_and_rejects_wrong_output():
    rng = lambda: workloads.random.Random(1)  # noqa: E731
    workloads.check_mertens_csv(_mertens_text(2000), 2000, 1, rng())
    with pytest.raises(CheckError):
        workloads.check_mertens_csv(_mertens_text(2000, corrupt_at=1000), 2000, 1, rng())
    with pytest.raises(CheckError):
        workloads.check_mertens_csv(_mertens_text(2000).replace("\n", "\r\n"), 2000, 1, rng())
    with pytest.raises(CheckError):
        workloads.check_mertens_csv(_mertens_text(1999), 2000, 1, rng())


def test_complex_cells_round_trip():
    for z in (complex(-0.5, 14.1), complex(1e-05, -2.5e-06), complex(-1.5e-300, 3.0)):
        assert workloads.parse_complex(workloads.fmt_complex(z)) == z
    with pytest.raises(CheckError):
        workloads.parse_complex("0.5")


def test_json_key_order():
    good = '{"command": "zeros", "params": {}, "count": 0, "columns": [], "rows": [], "stats": {}}\n'
    workloads.json_body(good, extras=("count",))
    with pytest.raises(CheckError):
        workloads.json_body(good.replace('"count": 0, ', ""), extras=("count",))


# -- executor ------------------------------------------------------------

_FAKE_CLI = """\
import sys
verb, value = sys.argv[1:3]
if verb == "li":  # the set-up probe
    value = "x,li\\n2,1.0451637801174928"
if verb == "exit":
    sys.exit(int(value))
if verb == "flaky":  # exits 1 on its first call only; value names a marker file
    import os
    if not os.path.exists(value):
        open(value, "w").close()
        sys.exit(1)
    value = "good"
if verb == "alloc":
    block = b"x" * (int(value) << 20)
    value = str(len(block))
sys.stdout.write(value + "\\n")
"""


@pytest.fixture
def fake_bench(tmp_path):
    package = tmp_path / "src" / "zetadesk"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(_FAKE_CLI)
    work = tmp_path / "work"
    work.mkdir()
    return Bench(tmp_path, work)


def _expect(text):
    def check(out):
        if out != text:
            raise CheckError(f"got {out!r}")
    return check


def test_failed_exit_and_failed_check_each_count_once(fake_bench):
    ops = [Op(("echo", "good"), _expect("good\n")),
           Op(("exit", "3"), _expect("")),
           Op(("echo", "bad"), _expect("good\n"))]
    rounds = fake_bench.loop(ops, 0.0, (False,))
    assert len(rounds) == 1
    failed, wrong, problems = fake_bench.check(ops, rounds)
    assert failed == 2 and wrong
    assert any("exit 3" in p for p in problems) and any("got 'bad" in p for p in problems)


def test_a_clean_round_counts_no_failure(fake_bench):
    ops = [Op(("echo", "good"), _expect("good\n"))] * 3
    rounds = fake_bench.loop(ops, 0.0, (False,))
    assert fake_bench.check(ops, rounds)[:2] == (0, False)


def test_a_failed_first_round_does_not_fail_later_good_rounds(fake_bench, tmp_path):
    ops = [Op(("flaky", str(tmp_path / "marker")), _expect("good\n"))]
    rounds = []
    for label in ("r0", "r1", "r2"):
        wall, runs = fake_bench.round(ops, label, traced=False)
        rounds.append({"traced": False, "wall": wall, "runs": runs})
    assert [r["runs"][0].returncode for r in rounds] == [1, 0, 0]
    failed, wrong, problems = fake_bench.check(ops, rounds)
    assert (failed, wrong) == (1, False)
    assert len(problems) == 1 and "exit 1" in problems[0]


def test_peak_rss_is_per_child(fake_bench):
    ops = [Op(("alloc", "150"), _expect(f"{150 << 20}\n")),
           Op(("alloc", "1"), _expect(f"{1 << 20}\n"))]
    _, runs = fake_bench.round(ops, "rss", traced=False)
    assert runs[0].peak_rss_mb > 150
    assert runs[1].peak_rss_mb < 100


# -- spans ---------------------------------------------------------------

def _span(name, start, end, parent, rss0=0.0, rss1=0.0, **counts):
    return {"name": name, "start": start, "end": end, "parent": parent, "op": 0,
            "rss0": rss0, "rss1": rss1, **counts}


def test_self_time_subtracts_children_only_once():
    tree = [_span("cli.main", 0, 10, None),
            _span("dirichlet.a", 1, 4, 0),
            _span("arith.b", 2, 3, 1),
            _span("asymptotics.c", 5, 7, 0)]
    assert spans.self_times(tree) == [5, 2, 1, 2]


def test_layer_metrics_on_nested_spans():
    op = [_span("cli.startup", -1, 0, None),
          _span("cli.main", 0, 10, None),
          _span("cli.acquire_table", 0.5, 1.5, 1),
          _span("arith.load_cache", 0.6, 1.4, 2, 100, 180, bytes=4e6),
          _span("dirichlet.divisor_corrected_stream", 2, 6, 1, 180, 260),
          _span("arith.divisor_count", 3, 5, 4, 180, 230),
          _span("cli.render_csv", 7, 8, 1, 260, 300, rows=10, bytes=2e6)]
    got = spans.layer_metrics([op, [_span("cli.startup", -2, 0, None)]])
    assert got["cli.startup_s"] == 3
    assert got["arith.cache_load_s"] == pytest.approx(0.8)
    assert got["arith.cache_read_mb_per_s"] == pytest.approx(5.0)
    assert (got["arith.cache_hits"], got["arith.cache_misses"]) == (1, 0)
    assert got["cli.acquire_s"] == pytest.approx(0.2)
    assert got["dirichlet.busy_s"] == 2
    assert got["arith.derived_s"] == 2
    assert got["arith.rss_step_mb"] == 80 + 50
    assert got["dirichlet.rss_step_mb"] == 80
    assert (got["cli.render_s"], got["cli.render_rows"], got["cli.render_mb_per_s"]) == (1, 10, 2.0)
    assert got["cli.render_rss_step_mb"] == 40
    assert got["zeta.defect_cells_per_s"] == 0.0


def test_traced_child_keeps_stdout_and_records_each_layer(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    env.pop("ZETADESK_CACHE_DIR", None)
    args = ["mertens", "--limit", "1000"]
    plain = subprocess.run([sys.executable, "-m", "zetadesk.cli", *args],
                           env=env, capture_output=True, check=True).stdout
    out = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, str(HERE / "trace_child.py"), str(out), "0", "0",
                             "--", *args], env=env, capture_output=True, check=True).stdout
    assert traced == plain
    names = {s["name"] for s in json.loads(out.read_text())}
    assert {"cli.startup", "cli.main", "cli.acquire_table", "arith.build_tables",
            "cli.render_csv", "cli.write"} <= names
