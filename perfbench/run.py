"""zetadesk benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is taken from ./src.
The load is a closed loop with one client: each operation is
`python -m zetadesk.cli ARGS` in a fresh child, and the next starts when
the previous one has exited. A round is the workload's whole operation
list; rounds repeat while another one still fits in --seconds (at least
one runs). Outputs are checked after the timed loop.

--trace 0 reports setup_s (median start-up of a trivial command),
run_s (median round wall time) and peak_rss_mb (largest per-child peak
RSS of a round, median over rounds). --trace 1 alternates untraced and
traced rounds and reports the per-layer metrics of `spans`, plus
trace.overhead_s. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans
from workloads import SETUP_OP, WORKLOADS, CheckError, Op

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work" / str(os.getpid())  # one folder per run, so runs never share files
SETUP_PROBES = 3  # before the first cycle and after each
OP_TIMEOUT_S = 90


@dataclass(frozen=True)
class Run:
    """One finished child process."""

    returncode: int
    seconds: float
    peak_rss_mb: float
    stdout: Path


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def spawn(argv: list[str], stdout: Path, env: dict, timeout: float = OP_TIMEOUT_S) -> Run:
    """Run argv with stdout (and stderr beside it) in files; the child's
    own rusage gives its peak RSS. A child that outlives timeout is
    killed and reported with return code -9."""
    out = os.open(stdout, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    err = os.open(stdout.with_suffix(".err"), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env,
                             file_actions=[(os.POSIX_SPAWN_DUP2, out, 1),
                                           (os.POSIX_SPAWN_DUP2, err, 2)])
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(pid, 0)
        except _Timeout:
            os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
    finally:
        signal.signal(signal.SIGALRM, previous)
        os.close(out)
        os.close(err)
    return Run(os.waitstatus_to_exitcode(status), seconds, usage.ru_maxrss / 1024.0, stdout)


class Bench:
    """Spawns zetadesk from root/src and keeps its files under work."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k != "ZETADESK_CACHE_DIR"}
        self.env["PYTHONPATH"] = str(root / "src")
        self.setup_times: list[float] = []

    def argv(self, op: Op, args=None, trace_to: Path | None = None, index: int = 0) -> list[str]:
        args = list(op.args if args is None else args)
        if trace_to is None:
            return [sys.executable, "-m", "zetadesk.cli", *args]
        return [sys.executable, str(HERE / "trace_child.py"), str(trace_to),
                repr(time.perf_counter()), str(index), "--", *args]

    def round(self, ops: list[Op], label: str, traced: bool) -> tuple[float, list[Run]]:
        """Wall time and per-op results of one pass over ops."""
        folder = self.work / label
        folder.mkdir(parents=True)
        cache = self.work / "cache"
        shutil.rmtree(cache, ignore_errors=True)
        cache.mkdir()
        runs = []
        start = time.perf_counter()
        for i, op in enumerate(ops):
            trace_to = folder / f"{i}.spans.json" if traced else None
            runs.append(spawn(self.argv(op, trace_to=trace_to, index=i), folder / f"{i}.out", self.env))
        return time.perf_counter() - start, runs

    def loop(self, ops: list[Op], seconds: float, modes: tuple[bool, ...]) -> list[dict]:
        """Cycles of rounds, one per entry of modes (traced or not),
        while another cycle still fits in seconds. Set-up probes run
        before the first cycle and after each, so that setup_s samples
        the whole run and not one moment of it."""
        rounds = []
        start = time.perf_counter()
        self.probe_setup(SETUP_PROBES)
        while True:
            for traced in modes:
                wall, runs = self.round(ops, f"round{len(rounds)}", traced)
                rounds.append({"traced": traced, "wall": wall, "runs": runs})
            self.probe_setup(SETUP_PROBES)
            elapsed = time.perf_counter() - start
            if elapsed * (1 + len(modes) / len(rounds)) > seconds:
                return rounds

    def probe_setup(self, count: int) -> None:
        """Time count starts of the trivial command into setup_times."""
        for _ in range(count):
            run = spawn(self.argv(SETUP_OP), self.work / "setup.out", self.env)
            if run.returncode != 0:
                raise SystemExit(f"error: setup command exited {run.returncode}")
            try:
                SETUP_OP.check(_text(run.stdout))
            except CheckError as exc:
                raise SystemExit(f"error: setup command output: {exc}")
            self.setup_times.append(run.seconds)

    def check(self, ops: list[Op], rounds: list[dict]) -> tuple[int, bool, list[str]]:
        """Failed operation count, whether any output was wrong, and the
        reason for each failed op.

        An op's first run that exited 0 is checked against the oracles;
        its other successful runs must be byte-identical to that one. An
        op with a --cache-dir must also match a fresh run without the
        cache. A non-zero exit counts as failed on its own.
        """
        failed = 0
        wrong = False
        problems = []
        for i, op in enumerate(ops):
            reference = next((r["runs"][i] for r in rounds if r["runs"][i].returncode == 0), None)
            reason = digest = None
            if reference is not None:
                try:
                    op.check(_text(reference.stdout))
                    if op.uncached_args is not None:
                        plain = spawn(self.argv(op, op.uncached_args), self.work / f"plain{i}.out",
                                      self.env)
                        if plain.stdout.read_bytes() != reference.stdout.read_bytes():
                            raise CheckError("output differs from the run without a cache")
                except Exception as exc:  # any malformed output is a failed check, not a crash
                    reason = f"{type(exc).__name__}: {exc}"
                digest = _digest(reference.stdout)
            for r in rounds:
                run = r["runs"][i]
                if run.returncode != 0:
                    failed += 1
                    problems.append(f"{' '.join(op.args)}: exit {run.returncode}")
                elif reason or _digest(run.stdout) != digest:
                    failed += 1
                    wrong = True
                    problems.append(f"{' '.join(op.args)}: {reason or 'output differs between rounds'}")
        return failed, wrong, problems


def _text(path: Path) -> str:
    """Output as written: no newline translation, so CR bytes stay visible."""
    return path.read_bytes().decode("utf-8")


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def traced_metrics(rounds: list[dict]) -> dict:
    per_round = []
    for r in (r for r in rounds if r["traced"]):
        files = [run.stdout.with_suffix(".spans.json") for run in r["runs"]]
        ops = [json.loads(f.read_text()) if f.exists() else [] for f in files]
        per_round.append(spans.layer_metrics(ops))
    overhead = (statistics.median(r["wall"] for r in rounds if r["traced"])
                - statistics.median(r["wall"] for r in rounds if not r["traced"]))
    metrics = {}
    for name, unit, _ in spans.PER_LAYER:
        if name == "trace.overhead_s":
            metrics[name] = _metric(overhead, unit)
        else:
            metrics[name] = _metric(statistics.median(m[name] for m in per_round), unit)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "zetadesk" / "cli.py").is_file():
        print(f"error: no zetadesk sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    WORK.mkdir(parents=True)
    bench = Bench(root, WORK)
    try:
        ops = WORKLOADS[args.workload](args.seed, WORK / "cache")
        bench.probe_setup(1)  # untimed: also fills the bytecode cache
        bench.setup_times.clear()
        rounds = bench.loop(ops, args.seconds, (False, True) if args.trace else (False,))
        failed, wrong, problems = bench.check(ops, rounds)
        for line in problems:
            print(f"FAILED {line}", file=sys.stderr)
        if args.trace:
            metrics = traced_metrics(rounds)
        else:
            metrics = {
                "setup_s": _metric(statistics.median(bench.setup_times), "s"),
                "run_s": _metric(statistics.median(r["wall"] for r in rounds), "s"),
                "peak_rss_mb": _metric(statistics.median(
                    max(run.peak_rss_mb for run in r["runs"]) for r in rounds), "MB"),
            }
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.parent.rmdir()
    walls = " ".join(f"{r['wall']:.3f}{'T' if r['traced'] else ''}" for r in rounds)
    print(f"{args.workload}: {len(rounds)} rounds of {len(ops)} operations, "
          f"wall s: {walls}", file=sys.stderr)
    for i, op in enumerate(ops):
        times = " ".join(f"{r['runs'][i].seconds:.3f}" for r in rounds)
        print(f"  {' '.join(op.args)}: {times}", file=sys.stderr)
    print(json.dumps({"correct": not wrong, "attempted": len(ops) * len(rounds),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
