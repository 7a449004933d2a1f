"""What a CLI run imports, and the benchmark tracer's hold on the CLI.

Each case runs in a fresh child, so the modules it lists are the ones
that command loaded: the CLI core is the standard library, bounds,
constants, reports and the argument parser, without json or the
--output writer, and each handler imports the one engine it calls (and
weierstrass, which walks in chunks from bounds, no arith). Only tables
of arrays load the CSV kernel. No module of the package loads
dataclasses (or the inspect it pulls in). The tracer
cases run
perfbench/trace_child.py as the benchmark does and check that it still
wraps every engine call it names, with stdout unchanged. A CLI run also
starts numpy without OpenBLAS's thread pool.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from .test_cli import LIBRARY_CHECK_FAILURES

ROOT = Path(__file__).resolve().parents[1]
ENGINES = {"zetadesk.arith", "zetadesk.asymptotics", "zetadesk.dirichlet",
           "zetadesk.exact", "zetadesk.weierstrass", "zetadesk.zeta"}
# numpy subpackages a command pays 5-16 ms to import: np.unique and
# np.median load numpy.ma, leggauss numpy.polynomial
NUMPY_EXTRAS = {"numpy.ma", "numpy.polynomial"}
# what the core loads only where it is used: json for JSON output,
# zetadesk.files for --output; dataclasses (with inspect) not at all
CORE_EXTRAS = {"dataclasses", "inspect", "json", "zetadesk.files"}
# the numpy kernel that prints CSV tables of integer and float arrays
KERNEL = "zetadesk.csv_kernel"

# Runs `zetadesk argv[1:]` as `python -m zetadesk.cli` would, with its
# output swallowed, then prints its exit code and the modules loaded;
# the probe imports json only after it has listed them. The CLI ends
# with os._exit, which the probe turns into SystemExit so that it
# lives on to print.
_MODULES_PROBE = """
import contextlib, io, os, runpy, sys
def _exit(code):
    raise SystemExit(code)
os._exit = _exit
code = 0
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    try:
        runpy.run_module("zetadesk.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
loaded = [m for m in sys.modules
          if m in ("numpy", "numpy.ma", "numpy.polynomial", "dataclasses",
                   "inspect", "json") or m.startswith("zetadesk.")]
import json
print(json.dumps([code, loaded]))
"""


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ZETADESK_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return env


def _child(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], env=_child_env(),
                          capture_output=True, check=True, timeout=120)


def _loaded(argv) -> tuple[int, set]:
    """Exit code of `zetadesk argv` and the modules it loaded."""
    out = _child("-c", _MODULES_PROBE, *argv).stdout
    code, modules = json.loads(out)
    return code, set(modules)


@pytest.mark.parametrize("argv,code", [
    (["li", "--x", "2"], 0),
    (["--help"], 0),
    (["mertens", "--help"], 0),
    *[(argv, 2) for argv, _ in LIBRARY_CHECK_FAILURES],
])
def test_core_commands_load_no_engine_and_no_numpy(argv, code):
    got, modules = _loaded(argv)
    assert got == code
    assert not modules & (ENGINES | {"numpy"} | CORE_EXTRAS), sorted(modules)


def test_json_and_the_output_writer_load_where_they_are_used(tmp_path):
    code, modules = _loaded(["li", "--x", "2", "--format", "json"])
    assert code == 0
    assert "json" in modules
    assert not modules & {"dataclasses", "inspect", "numpy", "zetadesk.files"}
    code, modules = _loaded(["li", "--x", "2", "--output",
                             str(tmp_path / "table")])
    assert code == 0 and (tmp_path / "table").is_file()
    assert "zetadesk.files" in modules
    assert not modules & {"dataclasses", "inspect", "json"}


@pytest.mark.parametrize("argv,loads,skips", [
    (["xi", "--t", "14"], {"zetadesk.zeta", "zetadesk.exact"},
     ENGINES - {"zetadesk.zeta", "zetadesk.exact"} | NUMPY_EXTRAS
     | {"dataclasses", KERNEL}),
    # a table of arrays is printed by the CSV kernel
    (["mertens", "--limit", "1000"], {"zetadesk.arith", KERNEL},
     {"zetadesk.zeta", "zetadesk.weierstrass", "zetadesk.dirichlet",
      "dataclasses"}),
    # a geometric grid
    (["relation-a", "--x-max", "100000"], {"zetadesk.asymptotics"},
     {"zetadesk.zeta", "zetadesk.weierstrass", "zetadesk.dirichlet",
      "dataclasses"} | NUMPY_EXTRAS),
    # the scale of the close-call test is a median, by np.partition
    (["zeros", "--t-max", "30"], {"zetadesk.zeta"},
     ENGINES - {"zetadesk.zeta", "zetadesk.exact"} | NUMPY_EXTRAS
     | {"dataclasses"}),
    (["weierstrass", "--x", "0.3", "--a", "1", "--n-terms", "100"],
     {"zetadesk.weierstrass", "zetadesk.exact"},
     {"zetadesk.arith", "zetadesk.files", "dataclasses"}),
    # tables built from rows of numbers are printed without the kernel
    *[(argv, {"zetadesk." + engine}, {KERNEL}) for argv, engine in [
        (["constants", "--k", "2", "--n", "1000"], "zeta"),
        (["mertens-constant", "--limit", "1000"], "asymptotics"),
        (["mertens-sweep", "--limit", "1000"], "arith"),
        (["prime-window", "--stop", "10000"], "asymptotics"),
        (["zero-census", "--t-max", "30"], "zeta"),
    ]],
])
def test_a_command_loads_only_its_engine(argv, loads, skips):
    code, modules = _loaded(argv)
    assert code == 0
    assert loads <= modules
    assert not modules & skips, sorted(modules)


# Runs `zetadesk xi --t 14` as _MODULES_PROBE does, then prints the
# threads the process has left and the OpenBLAS thread setting it saw.
_THREADS_PROBE = """
import contextlib, io, json, os, runpy, sys
def _exit(code):
    raise SystemExit(code)
os._exit = _exit
sys.argv[1:] = ["xi", "--t", "14"]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("zetadesk.cli", run_name="__main__", alter_sys=True)
    except SystemExit:
        pass
print(json.dumps([len(os.listdir("/proc/self/task")),
                  os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task")
@pytest.mark.parametrize("preset", [None, "2"])
def test_cli_starts_numpy_without_a_blas_thread_pool(preset):
    env = {k: v for k, v in _child_env().items()
           if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    out = subprocess.run([sys.executable, "-c", _THREADS_PROBE], env=env,
                         capture_output=True, check=True, timeout=120).stdout
    tasks, seen = json.loads(out)
    if preset is None:
        assert (tasks, seen) == (1, "1")
    else:
        assert seen == preset


def test_package_import_loads_no_submodule():
    out = _child("-c", "import sys, zetadesk; print([m for m in sys.modules "
                       "if m.startswith('zetadesk.')])").stdout
    assert out.strip() == b"[]"


def test_package_zeta_is_the_function_after_the_submodule_loads():
    out = _child("-c", "import types, zetadesk.zeta\n"
                       "from zetadesk import zeta\n"
                       "print(isinstance(zeta, types.FunctionType), "
                       "repr(zeta(2)))").stdout
    is_function, value = out.decode().split()
    assert is_function == "True"
    got = complex(value)
    assert got.imag == 0.0
    assert math.isclose(got.real, math.pi ** 2 / 6, rel_tol=1e-15)


def test_every_package_export_resolves():
    import zetadesk
    for name in zetadesk.__all__:
        assert getattr(zetadesk, name) is not None
    assert callable(zetadesk.zeta) and zetadesk.li(2.0) > 1.0


# (argv, spans the traced run must record); each span is an engine
# function the tracer wraps by name
TRACED = [
    (["constants", "--k", "2", "--n", "1000"],
     {"zeta.log_power_constant", "zeta.log_power_constant_contour"}),
    (["xi", "--t", "14"], {"zeta.xi"}),
    (["zeta", "--s", "2"], {"zeta.zeta"}),
    (["zeros", "--t-max", "20"], {"zeta.zero_scan"}),
    (["dirichlet-sum", "--series", "mobius", "--s", "0.5", "--limit", "1000"],
     {"dirichlet.mobius_stream"}),
    (["weierstrass", "--x", "0.3", "--a", "1", "--n-terms", "100"],
     {"weierstrass.compare_exponent_signs"}),
    (["divisor-ratio", "--limit", "1000"], {"arith.divisor_count"}),
]


@pytest.mark.parametrize("argv,names", TRACED)
def test_tracer_wraps_the_engine_calls(argv, names, tmp_path):
    spans_path = tmp_path / "spans.json"
    traced = _child(str(ROOT / "perfbench" / "trace_child.py"),
                    str(spans_path), repr(time.perf_counter()), "0", "--",
                    *argv)
    plain = _child("-m", "zetadesk.cli", *argv)
    assert traced.stdout == plain.stdout
    recorded = {span["name"] for span in json.loads(spans_path.read_text())}
    assert names <= recorded, sorted(recorded)
