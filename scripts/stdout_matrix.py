"""Exit code, stdout hash and stderr hash of a fixed list of CLI
invocations.

Each invocation runs in its own child (`python -m zetadesk.cli`, with
the package taken from the `src/` next to this script) and prints one
line: `name exit sha256(stdout) sha256(stderr)`, where a case that
passes --output hashes the written file in place of stdout, so every
`warning:` and `error:` text is pinned too. The list covers every
command in both formats, limits at 2^16 - 1, 2^16 and 2^16 + 1 (the
chunk size of the table walks), every-row tables at 2^13 - 1, 2^13
and 2^13 + 1 rows (the renderer's block size), written to stdout and
to --output, `li` written to --output by the numpy-free core, tables
with a list column at the same sizes and at 70000 rows, and tables of
a float column non-finite only in its last block beside a bool column
at the same block edges (rendered by reports.render_csv and
render_json in a child of their own, since no command prints one that
long), every-row
tables of 70000 rows, the far-point Mertens reads of `identity-explore
--n` and `abel-check` near 10^7, `abel-check` blocks across segment
edges and one of 2 * 10^6 cells, `theta` and `mertens-constant` at
the edge of the first 2^16 primes, `theta` at the edge of the prime
sieve's first 2^16 flags, a `mertens` whose Mobius sieve forms its
cofactor products over more than one chunk of primes, `weierstrass`
walks of 2^16 - 1, 2^16 and 2^16 + 1 terms and one over several
chunks, a `weierstrass` product whose first two factors overflow, sums
of nan, empty `--every` grids and grids whose rows lie chunks apart,
non-finite cells, the sieve cache (builds, misses, hits from commands
that read mu, one on a file far longer than its limit, hits whose kept
mu ends at either side of the reader's piece edge, the prime-only
commands, which leave the cache alone even when --cache-dir names a
file, a cache directory that is a file or lies under one, a miss whose
save is blocked by a directory, and inspect, also of a directory whose
one entry is such a directory), the decade sweep with
decade ends inside chunks, the zero census with an empty ladder,
invalid input and every help text. Run it on two checkouts
on the same machine and diff the outputs: a refactor that keeps stdout
must print the same lines.

Cache paths in stdout and stderr are replaced by a placeholder before
hashing, so the hashes do not depend on the temporary directory. The
whole list takes about 30 s on 2 vCPUs.

Usage: python3 scripts/stdout_matrix.py > matrix.txt
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
TMP = "{tmp}"

EDGES = (65535, 65536, 65537)
BLOCK_EDGES = (8191, 8192, 8193)

# (name, argv); argv may hold TMP, which stands for a fresh directory
# shared by the whole run, so the cache cases see each other's files.
# Each of these runs in both formats.
OUTPUTS = [
    ("mertens", ["mertens", "--limit", "1000", "--every", "7"]),
    ("mertens-empty-grid", ["mertens", "--limit", "100", "--every", "1000"]),
    # grid rows more than a chunk apart, so whole chunks hold no row
    ("mertens-sparse-grid",
     ["mertens", "--limit", "300000", "--every", "140000"]),
    *[(f"mertens-{n}", ["mertens", "--limit", str(n)]) for n in EDGES],
    # every row, across the chunk edge
    ("mertens-70000", ["mertens", "--limit", "70000"]),
    # every row, at the renderer's block edge, to stdout and to a file
    *[(f"mertens-{n}", ["mertens", "--limit", str(n)]) for n in BLOCK_EDGES],
    *[(f"mertens-{n}-output",
       ["mertens", "--limit", str(n), "--output", f"{TMP}/table"])
      for n in BLOCK_EDGES],
    # the decade sweep: one decade, two, and decade ends inside chunks
    *[(f"mertens-sweep-{n}", ["mertens-sweep", "--limit", str(n)])
      for n in (100, 1000, *EDGES, 1000000)],
    ("dirichlet-sum", ["dirichlet-sum", "--s", "0.5", "--limit", "1000"]),
    *[(f"dirichlet-sum-{series}",
       ["dirichlet-sum", "--series", series, "--s", "-0.25", "--limit", "5000"])
      for series in ("mobius", "unit", "divisor-corrected", "one-minus-g")],
    *[(f"dirichlet-sum-{n}",
       ["dirichlet-sum", "--s", "0.5", "--limit", str(n)]) for n in EDGES],
    # 2^16 is a prime power in the last cell of a chunk, 2^16 + 1 a prime
    # in the first cell of the next
    *[(f"dirichlet-sum-one-minus-g-{n}",
       ["dirichlet-sum", "--series", "one-minus-g", "--s", "0.5", "--limit", str(n)])
      for n in EDGES],
    ("abel-check", ["abel-check", "--n", "100", "--m", "50", "--s", "0.5+2i"]),
    ("abel-check-empty-block", ["abel-check", "--n", "10", "--m", "0", "--s", "1"]),
    ("abel-check-65536",
     ["abel-check", "--n", "65000", "--m", "1000", "--s", "0.5+14.1i"]),
    ("abel-check-far",
     ["abel-check", "--n", "9990000", "--m", "10000", "--s", "0.5+14.1i"]),
    # blocks that end just before, at and just after a segment edge
    *[(f"abel-check-{n}-{m}",
       ["abel-check", "--n", str(n), "--m", str(m), "--s", "0.5+14.1i"])
      for n in (2, 65536) for m in EDGES],
    # Im s beyond the bound on s, where every power would be nan
    ("abel-check-nan",
     ["abel-check", "--n", "100", "--m", "50", "--s", "0.5+1e308i"]),
    # every power underflows to 0, so both sums are 0
    ("abel-check-underflow",
     ["abel-check", "--n", "2", "--m", "5", "--s", "2000"]),
    ("abel-check-long",
     ["abel-check", "--n", "1000", "--m", "2000000", "--s", "0.5+14.1i"]),
    ("convolution-check", ["convolution-check", "--limit", "1000"]),
    *[(f"convolution-check-{n}", ["convolution-check", "--limit", str(n)])
      for n in EDGES],
    ("zeta", ["zeta", "--s", "0.5+14.1i"]),
    ("zeta-reflected", ["zeta", "--s=-3.5-2i"]),
    ("zeta-box-edge", ["zeta", "--s", "10"]),
    # Re s = -1/2 is the last point on the Euler-Maclaurin side
    ("zeta-path-switch", ["zeta", "--s=-0.5+100i"]),
    ("xi", ["xi", "--t", "14.1"]),
    ("xi-high", ["xi", "--t", "99.9"]),
    ("xi-box-edge", ["xi", "--t", "120"]),
    ("zeros", ["zeros", "--t-max", "30"]),
    ("zeros-window", ["zeros", "--t-max", "26", "--t-min", "20", "--step", "0.01"]),
    ("zeros-no-prediction", ["zeros", "--t-max", "5"]),
    ("zeros-to-100", ["zeros", "--t-max", "100", "--step", "0.01"]),
    # an empty ladder below T = 10, then 3 and 10 rungs
    *[(f"zero-census-{t}", ["zero-census", "--t-max", t, "--step", h])
      for t, h in (("5", "0.05"), ("30", "0.05"), ("100", "0.02"))],
    ("constants", ["constants", "--k", "2", "--n", "5000"]),
    ("constants-k8", ["constants", "--k", "8", "--n", "200000"]),
    ("constants-no-accelerate",
     ["constants", "--k", "1", "--n", "1000", "--no-accelerate"]),
    ("theta", ["theta", "--limit", "5000"]),
    ("theta-s1", ["theta", "--limit", "5000", "--s", "1"]),
    ("divisor-ratio", ["divisor-ratio", "--limit", "2000"]),
    ("divisor-ratio-every", ["divisor-ratio", "--limit", "2000", "--every", "300"]),
    ("divisor-ratio-empty-grid",
     ["divisor-ratio", "--limit", "100", "--every", "1000"]),
    ("divisor-ratio-sparse-grid",
     ["divisor-ratio", "--limit", "300000", "--every", "140000"]),
    *[(f"divisor-ratio-{n}", ["divisor-ratio", "--limit", str(n), "--every", "1"])
      for n in EDGES],
    # every row across the chunk edge, some ratios in exponent form
    ("divisor-ratio-70000",
     ["divisor-ratio", "--limit", "70000", "--every", "1"]),
    # the trend tables at a limit off every grid point
    ("theta-12345", ["theta", "--limit", "12345", "--s", "0.6"]),
    ("relation-a-12345", ["relation-a", "--x-max", "12345", "--s", "0.6"]),
    ("divisor-ratio-12345", ["divisor-ratio", "--limit", "12345"]),
    ("li", ["li", "--x", "100"]),
    # li's row is Python floats, printed cell by cell: a cell far
    # below 1 in magnitude and exponent-form cells
    ("li-near-one", ["li", "--x", "1.0000000000000002"]),
    ("li-far", ["li", "--x", "1e20"]),
    # --output on the numpy-free core, which imports its writer lazily
    ("li-output", ["li", "--x", "2", "--output", f"{TMP}/table"]),
    ("relation-a", ["relation-a", "--x-max", "5000"]),
    ("mertens-constant", ["mertens-constant", "--limit", "5000"]),
    # 821641 and 821647 are the 65536th and 65537th primes: theta and the
    # sum of 1/p are walked over the primes in chunks of 2^16
    *[(f"theta-{n}", ["theta", "--limit", str(n)]) for n in (821646, 821647)],
    # the prime sieve writes the primes a chunk of 2^16 odd-number flags
    # at a time: flag 2^16 stands for 131075, and 131101 is the first
    # prime of the second chunk
    *[(f"theta-{n}", ["theta", "--limit", str(n)])
      for n in (131074, 131075, 131076, 131101)],
    # pi(n) - pi(sqrt(n)) > 2^16: the Mobius sieve's cofactor products
    # span chunks of primes
    ("mertens-1000003", ["mertens", "--limit", "1000003", "--every", "1000"]),
    ("mertens-constant-821647", ["mertens-constant", "--limit", "821647"]),
    ("prime-window", ["prime-window", "--start", "10", "--stop", "10000"]),
    ("identity-explore-n", ["identity-explore", "--n", "100"]),
    ("identity-explore-n-far", ["identity-explore", "--n", "10000007"]),
    # 3162^2; 215^3, whose sieve bound 215^2 is its quotient n // 215
    ("identity-explore-n-square", ["identity-explore", "--n", "9998244"]),
    ("identity-explore-n-cube", ["identity-explore", "--n", "9938375"]),
    ("identity-explore-limit", ["identity-explore", "--limit", "1000"]),
    *[(f"identity-explore-{n}", ["identity-explore", "--limit", str(n)])
      for n in EDGES],
    ("weierstrass", ["weierstrass", "--x", "0.3", "--a", "1", "--n-terms", "1000"]),
    # n walks one chunk, one chunk and a cell, and more than one chunk
    *[(f"weierstrass-{n}",
       ["weierstrass", "--x", "0.3", "--a", "1", "--n-terms", str(n)])
      for n in EDGES],
    ("weierstrass-multichunk",
     ["weierstrass", "--x", "0.3", "--a", "1", "--n-terms", "200000"]),
    ("weierstrass-lattice-zero",
     ["weierstrass", "--x", "1+6.283185307179586i", "--a", "1", "--n-terms", "100"]),
    # (1 - e^a) e^E overflows, the whole product does not
    ("weierstrass-late-poly", ["weierstrass", "--x", "699", "--a", "700"]),
    ("cache-build", ["cache", "build", "--limit", "1000", "--dir", f"{TMP}/built"]),
    # a prime-only command leaves even a --cache-dir that is a file alone
    ("cache-file-dir-theta",
     ["theta", "--limit", "5000", "--cache-dir", f"{TMP}/built/mu-1000.stjz"]),
    ("cache-miss", ["mertens", "--limit", "3000", "--every", "100",
                    "--cache-dir", f"{TMP}/auto"]),
    ("cache-hit", ["mertens", "--limit", "2000", "--every", "100",
                   "--cache-dir", f"{TMP}/auto"]),
    # one byte past the 2^20-byte pieces of the cache check, then runs
    # against it of commands that read only the primes (which leave the
    # cache alone), only mu, or both
    ("cache-build-piece",
     ["cache", "build", "--limit", "1048577", "--dir", f"{TMP}/piece"]),
    ("cache-hit-theta",
     ["theta", "--limit", "1048577", "--cache-dir", f"{TMP}/piece"]),
    ("cache-hit-relation-a",
     ["relation-a", "--x-max", "1000000", "--cache-dir", f"{TMP}/piece"]),
    ("cache-hit-mertens-constant",
     ["mertens-constant", "--limit", "1048577", "--cache-dir", f"{TMP}/piece"]),
    ("cache-hit-prime-window",
     ["prime-window", "--stop", "950000", "--cache-dir", f"{TMP}/piece"]),
    ("cache-hit-dirichlet-sum-mobius",
     ["dirichlet-sum", "--series", "mobius", "--s", "0.5", "--limit", "1048577",
      "--cache-dir", f"{TMP}/piece"]),
    ("cache-hit-convolution-check",
     ["convolution-check", "--limit", "200000", "--cache-dir", f"{TMP}/piece"]),
    # mu read from a file a thousand times longer than the limit
    ("cache-hit-mertens-small",
     ["mertens", "--limit", "1000", "--every", "10", "--cache-dir", f"{TMP}/piece"]),
    # hits whose kept mu ends one before, at and one after the edge of
    # the reader's first 2^20-byte piece
    *[(f"cache-hit-mertens-sweep-{n}",
       ["mertens-sweep", "--limit", str(n), "--cache-dir", f"{TMP}/piece"])
      for n in (1048575, 1048576, 1048577)],
    ("cache-miss-theta",
     ["theta", "--limit", "5000", "--cache-dir", f"{TMP}/theta"]),
    # a directory in the place of the file a miss saves: the save fails
    # and the run goes on
    ("cache-build-in-the-way",
     ["cache", "build", "--limit", "10", "--dir", f"{TMP}/blocked/mu-100.stjz"]),
    ("cache-save-blocked",
     ["mertens", "--limit", "100", "--cache-dir", f"{TMP}/blocked"]),
    ("cache-inspect", ["cache", "inspect", "--path", f"{TMP}/built"]),
    ("cache-inspect-dir", ["cache", "inspect", "--path", f"{TMP}/auto"]),
]

# A table with a list column is printed cell by cell, not by the numeric
# kernel; n rows of it, rendered as CSV, then as JSON.
_LIST_COLUMN_TABLE = """
import sys
import numpy as np
from zetadesk.reports import Table, render_csv, render_json
n = np.arange(1, int(sys.argv[1]) + 1, dtype=np.int64)
parity = [("even", "odd")[i % 2] for i in n.tolist()]
table = Table(("n", "root", "parity"), (n, np.sqrt(n) * -1.5, parity))
sys.stdout.write(render_json(table, {}) if sys.argv[2:] else render_csv(table))
"""

# A float array whose only nan and -inf lie in its last block (so an
# earlier block prints as finite floats) beside a numpy bool array,
# which is printed cell by cell; n rows, as CSV, then as JSON.
_NON_FINITE_TABLE = """
import sys
import numpy as np
from zetadesk.reports import KERNEL_ROWS, Table, render_csv, render_json
n = int(sys.argv[1])
root = np.sqrt(np.arange(1, n + 1, dtype=np.float64)) * -1.5
root[(n - 1) // KERNEL_ROWS * KERNEL_ROWS] = -np.inf
root[-1] = np.nan
table = Table(("root", "odd"), (root, np.arange(n) % 2 == 1))
sys.stdout.write(render_json(table, {}) if sys.argv[2:] else render_csv(table))
"""

LIST_COLUMN = [(f"{kind}-{n}{suffix}", ["-c", script, str(n), *extra])
               for kind, script, sizes in (
                   ("list-column", _LIST_COLUMN_TABLE, (*BLOCK_EDGES, 70000)),
                   ("non-finite-column", _NON_FINITE_TABLE, BLOCK_EDGES))
               for suffix, extra in (("", []), ("/json", ["json"]))
               for n in sizes]

# exit 2 and an empty stdout, or 1 for a failure found while computing
INVALID = [
    ("no-command", []),
    ("unknown-command", ["frobnicate"]),
    ("unknown-flag", ["mertens", "--limit", "10", "--bogus"]),
    ("missing-flag", ["mertens"]),
    ("bad-int", ["mertens", "--limit", "ten"]),
    ("bad-limit", ["mertens", "--limit", "0"]),
    ("bad-every", ["mertens", "--limit", "10", "--every", "0"]),
    ("over-max-limit", ["mertens", "--limit", "200000001"]),
    ("bad-t-max", ["zeros", "--t-max", "abc"]),
    ("t-max-over-bound", ["zeros", "--t-max", "150"]),
    ("step-over-bound", ["zeros", "--t-max", "50", "--step", "0.2"]),
    ("step-just-over-bound", ["zeros", "--t-max", "5", "--step", "0.0500001"]),
    # just under the step floor, and small enough to run where no floor
    # is checked (10^4 points)
    ("step-under-floor", ["zeros", "--t-max", "1", "--step", "0.0000999"]),
    ("t-min-above-t-max", ["zeros", "--t-max", "5", "--t-min", "6"]),
    ("zeta-grammar", ["zeta", "--s", "1+2j"]),
    ("zeta-box", ["zeta", "--s", "200"]),
    ("zeta-just-outside-box", ["zeta", "--s", "10.000001"]),
    ("zeta-pole", ["zeta", "--s", "1"]),
    ("xi-garbage", ["xi", "--t", "garbage"]),
    ("xi-outside-box", ["xi", "--t", "120.5"]),
    ("abel-s", ["abel-check", "--n", "100", "--m", "10", "--s=-1+2i"]),
    ("abel-n", ["abel-check", "--n", "1", "--m", "10", "--s", "0.5"]),
    ("abel-over-max", ["abel-check", "--n", "199999999", "--m", "10", "--s", "1"]),
    ("abel-s-overflow", ["abel-check", "--n", "10", "--m", "5", "--s", "1e400"]),
    ("abel-s-real-overflow",
     ["abel-check", "--n", "2", "--m", "5", "--s", "1.7e308"]),
    ("li-x", ["li", "--x", "1"]),
    ("li-over-cap", ["li", "--x", "1e76"]),
    ("theta-s", ["theta", "--limit", "1000", "--s", "1.5"]),
    ("relation-a-s", ["relation-a", "--x-max", "1000", "--s", "0"]),
    ("series-choice", ["dirichlet-sum", "--series", "zeta", "--s", "1", "--limit", "9"]),
    ("constants-k", ["constants", "--k", "9"]),
    ("constants-n", ["constants", "--k", "2", "--n", "500"]),
    ("constants-both-switches", ["constants", "--accelerate", "--no-accelerate"]),
    ("prime-window-stop", ["prime-window", "--start", "100", "--stop", "10"]),
    ("prime-window-edge", ["prime-window", "--h", "1", "--stop", "150000000"]),
    ("identity-explore-neither", ["identity-explore"]),
    ("identity-explore-both", ["identity-explore", "--n", "10", "--limit", "10"]),
    ("identity-explore-cap", ["identity-explore", "--limit", "100001"]),
    ("weierstrass-degenerate", ["weierstrass", "--x", "0.5", "--a", "0"]),
    ("weierstrass-lattice-a",
     ["weierstrass", "--x", "0.5", "--a", "0+6.283185307179586i"]),
    ("weierstrass-overflow", ["weierstrass", "--x", "800", "--a", "1"]),
    ("weierstrass-x-overflow", ["weierstrass", "--x=0+1e400i", "--a", "1"]),
    ("weierstrass-runtime", ["weierstrass", "--x", "1", "--a", "1e-7"]),
    ("weierstrass-pair", ["weierstrass", "--x", "700", "--a=-699"]),
    ("weierstrass-x-imag", ["weierstrass", "--x=0+1e300i", "--a", "1"]),
    ("weierstrass-product-overflow",
     ["weierstrass", "--x=0+699i", "--a", "690", "--n-terms", "100"]),
    ("convolution-cap", ["convolution-check", "--limit", "300000"]),
    ("cache-inspect-missing", ["cache", "inspect", "--path", f"{TMP}/nowhere"]),
    # theta reads no mu, so its cache directory is never made
    ("cache-inspect-theta", ["cache", "inspect", "--path", f"{TMP}/theta"]),
    # after cache-save-blocked: a directory in a cache file's place is
    # not a cache file, so none is left
    ("cache-inspect-blocked",
     ["cache", "inspect", "--path", f"{TMP}/blocked"]),
    # a cache directory that is a file, or lies under one
    ("cache-dir-is-file", ["mertens", "--limit", "100", "--cache-dir",
                           f"{TMP}/built/mu-1000.stjz"]),
    ("cache-dir-under-file", ["mertens", "--limit", "100", "--cache-dir",
                              f"{TMP}/built/mu-1000.stjz/sub"]),
    ("cache-build-dir-is-file", ["cache", "build", "--limit", "100", "--dir",
                                 f"{TMP}/built/mu-1000.stjz"]),
]


def _with_formats(cases):
    """Each case as given, then in the format that is not its command's
    default (json for every command but zeros)."""
    for name, argv in cases:
        yield name, argv
        other = "csv" if argv[0] == "zeros" else "json"
        yield f"{name}/{other}", [*argv, "--format", other]


def _help_cases():
    """Help text goes to stdout too."""
    yield "help", ["--help"]
    yield "help-cache", ["cache", "--help"]
    commands = sorted({argv[0] for _, argv in OUTPUTS} - {"cache"})
    for command in commands:
        yield f"help-{command}", [command, "--help"]
    for action in ("build", "inspect"):
        yield f"help-cache-{action}", ["cache", action, "--help"]


def _digest(data: bytes, tmp: str) -> str:
    return hashlib.sha256(data.replace(tmp.encode(), TMP.encode())).hexdigest()


def _run(argv, env, tmp) -> str:
    """Exit code, the hash of stdout (or of the file an --output case
    wrote) and the hash of stderr; argv is a CLI command line, or "-c"
    and a script."""
    argv = [arg.replace(TMP, tmp) for arg in argv]
    command = argv if argv[:1] == ["-c"] else ["-m", "zetadesk.cli", *argv]
    done = subprocess.run([sys.executable, *command],
                          env=env, cwd=tmp, capture_output=True)
    out = done.stdout
    if "--output" in argv and done.returncode == 0:
        out = Path(argv[argv.index("--output") + 1]).read_bytes()
    return (f"{done.returncode} {_digest(out, tmp)} "
            f"{_digest(done.stderr, tmp)}")


def main() -> int:
    env = {k: v for k, v in os.environ.items() if k != "ZETADESK_CACHE_DIR"}
    env["PYTHONPATH"] = str(SRC)
    env["COLUMNS"] = "80"
    cases = [*_with_formats(OUTPUTS), *LIST_COLUMN, *INVALID, *_help_cases()]
    # the cases that touch TMP run in list order as one task, since the
    # cache ones read what the earlier ones wrote; the rest run two at
    # a time
    shared = [case for case in cases if any(TMP in a for a in case[1])]
    rest = [case for case in cases if case not in shared]
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(2) as pool:
        chain = pool.submit(lambda: [_run(argv, env, tmp) for _, argv in shared])
        results = dict(zip((name for name, _ in rest),
                           pool.map(lambda case: _run(case[1], env, tmp), rest)))
        results.update(zip((name for name, _ in shared), chain.result()))
    for name, _ in cases:
        print(name, results[name])
    return 0


if __name__ == "__main__":
    sys.exit(main())
