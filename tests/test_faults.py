"""I/O errors injected at each call of the cache's reader and writer,
and runs killed in the middle of a write.

files.replace_atomically is the one writer behind --output and the
sieve cache. Each case makes one of its calls raise ENOSPC, EIO or
EACCES in-process (permission bits do not stop a process running as
root, so the errors are raised directly), or makes every write of the
file's buffer fail, as a full disk does. A cache save that fails is
one warning, and the run prints what an uncached run prints; an
--output write that fails exits 1 with one error line and leaves a
file that was there as it was. No temporary file is left behind, and
the next clean run gives the same bytes.

The reader (arith's open, read, readinto and os.fstat) and the cache
directory's mkdir, glob and unlink fail at each of their calls in
turn, against a hit, a hit on a bad file, a miss, `cache build` and
`cache inspect`, with the same checks. A child killed at the first, a
middle or the last write of a save or an --output write leaves at most
a stale temporary file, which no later run takes for a cache file.
"""

import errno
import functools
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zetadesk import arith, files
from zetadesk.cli import CACHE_ENV, main

ERRORS = [errno.ENOSPC, errno.EIO, errno.EACCES]
# the calls a write to a new path makes; a file that is already there
# also has its permission bits copied (os.fchmod). "full-disk" fails
# the buffer's writes instead, so the close after a failed flush fails
# again.
NEW_PATH_SITES = ["lstat", "open", "writelines", "flush", "close", "replace",
                  "full-disk"]
SITES = [*NEW_PATH_SITES, "fchmod"]
ARGV = ["mertens", "--limit", "1000", "--every", "100"]


def _raise(code, *args, **kwargs):
    raise OSError(code, os.strerror(code))


class _Proxy:
    """obj with the attribute name replaced by value; a file proxy also
    serves as its own context manager."""

    def __init__(self, obj, name, value):
        self._obj, self._name, self._value = obj, name, value

    def __getattr__(self, attr):
        return self._value if attr == self._name else getattr(self._obj, attr)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._obj.close()


class _Calls:
    """Counts the calls of one site; the nth of them raises code (none
    when nth is 0)."""

    def __init__(self, nth: int = 0, code: int = errno.EIO):
        self.count, self.nth, self.code = 0, nth, code

    def wrap(self, real):
        def call(*args, **kwargs):
            self.count += 1
            if self.count == self.nth:
                _raise(self.code)
            return real(*args, **kwargs)
        return call


class _FullDisk(io.FileIO):
    def __init__(self, path, code):
        super().__init__(path, "w")
        self._code = code

    def write(self, data):
        _raise(self._code)


def _inject(monkeypatch, site, code):
    fail = functools.partial(_raise, code)
    if site in ("lstat", "fchmod", "replace"):
        monkeypatch.setattr(files, "os", _Proxy(os, site, fail))
    elif site == "open":
        monkeypatch.setattr(files, "open", fail, raising=False)
    elif site == "full-disk":
        def full_disk_open(path, mode, **open_kw):
            buffer = io.BufferedWriter(_FullDisk(path, code))
            return buffer if "b" in mode else io.TextIOWrapper(buffer,
                                                               **open_kw)

        monkeypatch.setattr(files, "open", full_disk_open, raising=False)
    elif site == "close":
        # the descriptor is released, as by a close that reports EIO
        def failing_close_open(*args, **kw):
            fh = open(*args, **kw)
            return _Proxy(fh, "close", lambda: (fh.close(), fail()))

        monkeypatch.setattr(files, "open", failing_close_open, raising=False)
    else:
        monkeypatch.setattr(
            files, "open",
            lambda *args, **kw: _Proxy(open(*args, **kw), site, fail),
            raising=False)


def _uncached(monkeypatch, capsys) -> str:
    monkeypatch.delenv(CACHE_ENV, raising=False)
    assert main(ARGV) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("code", ERRORS)
@pytest.mark.parametrize("site", NEW_PATH_SITES)
def test_a_failed_cache_save_is_one_warning(site, code, tmp_path, monkeypatch,
                                            capsys):
    printed = _uncached(monkeypatch, capsys)
    cache = [*ARGV, "--cache-dir", str(tmp_path)]
    with monkeypatch.context() as faults:
        _inject(faults, site, code)
        assert main(cache) == 0
    out, err = capsys.readouterr()
    assert out == printed
    assert err == (f"warning: [Errno {code}] {os.strerror(code)}; "
                   "the table is not cached\n")
    assert list(tmp_path.iterdir()) == []
    # the next run saves, and the file it saves checks out
    assert main(cache) == 0
    assert capsys.readouterr() == (printed, "")
    assert main(["cache", "inspect", "--path", str(tmp_path)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["ok"]


@pytest.mark.parametrize("code", ERRORS)
@pytest.mark.parametrize("existing,site", [
    *[(False, site) for site in NEW_PATH_SITES],
    *[(True, site) for site in SITES],
])
def test_a_failed_output_write_leaves_the_target_as_it_was(
        existing, site, code, tmp_path, monkeypatch, capsys):
    printed = _uncached(monkeypatch, capsys)
    target = tmp_path / "table.csv"
    if existing:
        target.write_bytes(b"old contents\n")
    with monkeypatch.context() as faults:
        _inject(faults, site, code)
        assert main([*ARGV, "--output", str(target)]) == 1
    assert capsys.readouterr() == (
        "", f"error: [Errno {code}] {os.strerror(code)}\n")
    if existing:
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_bytes() == b"old contents\n"
    else:
        assert list(tmp_path.iterdir()) == []
    assert main([*ARGV, "--output", str(target)]) == 0
    assert target.read_bytes() == printed.encode()


# arith's reader and the cache directory's calls in cli (through
# pathlib), each failed at its k-th call for every k a clean run makes
READER_SITES = ["open", "read", "readinto", "fstat"]
DIRECTORY_SITES = ["mkdir", "glob", "unlink"]
# argv (the directory follows), the limit of the file laid down before
# the run (None: none) and whether that file fails its CRC
SCENARIOS = {
    "hit": ([*ARGV, "--cache-dir"], 3000, False),
    "rebuild": ([*ARGV, "--cache-dir"], 3000, True),
    "miss": ([*ARGV, "--cache-dir"], None, False),
    "build": (["cache", "build", "--limit", "1000", "--dir"], None, False),
    "inspect": (["cache", "inspect", "--path"], 3000, False),
}


def _inject_read(monkeypatch, site, calls):
    if site == "open":
        monkeypatch.setattr(arith, "open", calls.wrap(open), raising=False)
    elif site in ("read", "readinto"):
        def counted_open(*args, **kw):
            fh = open(*args, **kw)
            return _Proxy(fh, site, calls.wrap(getattr(fh, site)))

        monkeypatch.setattr(arith, "open", counted_open, raising=False)
    elif site == "fstat":
        monkeypatch.setattr(arith, "os", _Proxy(os, site, calls.wrap(os.fstat)))
    else:
        monkeypatch.setattr(Path, site, calls.wrap(getattr(Path, site)))


def _exit_code(scenario, site) -> int:
    """What a failed call does: a cache directory that cannot be made is
    a bad flag (2); inspect, whose job is the reading, fails (1); any
    other failure only loses cache work, and the run goes on (0)."""
    if site == "mkdir":
        return 2
    return 1 if scenario == "inspect" else 0


def _inspect_statuses(directory, capsys) -> dict:
    assert main(["cache", "inspect", "--path", str(directory)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    return {Path(row.split(",")[0]).name: row.split(",")[1] for row in rows}


@pytest.mark.parametrize("code", ERRORS)
@pytest.mark.parametrize("site", [*READER_SITES, *DIRECTORY_SITES])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_a_failed_cache_read_loses_only_cache_work(scenario, site, code,
                                                   tmp_path, monkeypatch,
                                                   capsys):
    printed = _uncached(monkeypatch, capsys)
    argv, stored, corrupt = SCENARIOS[scenario]
    laid_down = f"mu-{stored}.stjz"

    def run(name, nth):
        directory = tmp_path / name
        directory.mkdir()
        if stored is not None:
            arith.save_cache(arith.build_tables(stored), directory / laid_down)
        if corrupt:
            blob = bytearray((directory / laid_down).read_bytes())
            blob[100] ^= 0x01
            (directory / laid_down).write_bytes(bytes(blob))
        calls = _Calls(nth, code)
        with monkeypatch.context() as faults:
            _inject_read(faults, site, calls)
            exit_code = main([*argv, str(directory)])
        out, err = capsys.readouterr()
        # build and inspect print the path they wrote or read
        return (directory, calls.count, exit_code,
                out.replace(str(directory), "{dir}"), err)

    _, count, exit_code, expected, _ = run("clean", 0)
    assert exit_code == 0
    if argv[0] == "mertens":
        assert expected == printed
    for nth in range(1, max(count, 1) + 1):
        directory, _, exit_code, out, err = run(f"fault-{nth}", nth)
        assert exit_code == (_exit_code(scenario, site) if nth <= count else 0)
        if exit_code == 0:
            assert out == expected
            assert all(line.startswith("warning: ")
                       for line in err.splitlines())
        else:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
        assert list(directory.glob(".*.tmp")) == []
        # the next clean run prints the same, and the cache checks out
        assert main([*argv, str(directory)]) == 0
        assert capsys.readouterr().out.replace(str(directory),
                                               "{dir}") == expected
        statuses = _inspect_statuses(directory, capsys)
        if corrupt:
            statuses.pop(laid_down, None)
        elif stored is not None:
            # a read error does not prove a good file bad, so it stays
            assert laid_down in statuses
        assert statuses and set(statuses.values()) == {"ok"}


def test_a_bad_file_that_cannot_be_removed_is_one_more_warning(
        tmp_path, monkeypatch, capsys):
    printed = _uncached(monkeypatch, capsys)
    path = tmp_path / "mu-3000.stjz"
    arith.save_cache(arith.build_tables(3000), path)
    path.write_bytes(path.read_bytes()[:500])
    with monkeypatch.context() as faults:
        _inject_read(faults, "unlink", _Calls(1, errno.EIO))
        assert main([*ARGV, "--cache-dir", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert out == printed
    assert err.splitlines()[1] == (
        f"warning: [Errno {errno.EIO}] {os.strerror(errno.EIO)}; "
        "the bad file stays")
    assert _inspect_statuses(tmp_path, capsys) == {
        "mu-1000.stjz": "ok", "mu-3000.stjz": "truncated"}


# Runs the CLI on argv[2:] and ends the process with os._exit at one
# write of the atomic writer's chunks: argv[1] names it, "first",
# "middle" or "last". What was written before is flushed to the file.
_KILLED_CHILD = """
import os, sys
from zetadesk import cli, files

class Dying:
    def __init__(self, fh):
        self.fh = fh

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def writelines(self, chunks):
        chunks = list(chunks)
        if len(chunks) < 3:
            os._exit(8)
        at = {"first": 0, "middle": len(chunks) // 2,
              "last": len(chunks) - 1}[sys.argv[1]]
        self.fh.writelines(chunks[:at])
        self.fh.flush()
        os._exit(9)

real_open = open
files.open = lambda *args, **kw: Dying(real_open(*args, **kw))
sys.exit(cli.main(sys.argv[2:]))
"""
# four chunks of mu between the header and the CRC; three blocks of rows
KILLED_SAVE = ["mertens", "--limit", "200000", "--every", "1000"]
KILLED_OUTPUT = ["mertens", "--limit", "20000"]


def _killed(at, argv):
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV}
    env["PYTHONPATH"] = str(Path(files.__file__).resolve().parents[1])
    child = subprocess.run([sys.executable, "-c", _KILLED_CHILD, at, *argv],
                           env=env, capture_output=True)
    assert child.returncode == 9, child.stderr


@pytest.mark.parametrize("at", ["first", "middle", "last"])
def test_a_save_killed_mid_write_breaks_no_later_run(at, tmp_path,
                                                     monkeypatch, capsys):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    assert main(KILLED_SAVE) == 0
    printed = capsys.readouterr().out
    cache = [*KILLED_SAVE, "--cache-dir", str(tmp_path)]
    _killed(at, cache)
    # the rename never came, so the stale temporary file is all there is
    stale = [p.name for p in tmp_path.iterdir()]
    assert len(stale) == 1 and stale[0].startswith(".mu-200000.stjz.")
    assert main(cache) == 0
    assert capsys.readouterr() == (printed, "")
    assert _inspect_statuses(tmp_path, capsys) == {"mu-200000.stjz": "ok"}
    assert main(cache) == 0
    assert capsys.readouterr() == (printed, "")


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("at", ["first", "middle", "last"])
def test_an_output_write_killed_mid_write_breaks_no_later_run(
        at, existing, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    assert main(KILLED_OUTPUT) == 0
    printed = capsys.readouterr().out
    target = tmp_path / "table.csv"
    if existing:
        target.write_bytes(b"old contents\n")
    _killed(at, [*KILLED_OUTPUT, "--output", str(target)])
    if existing:
        assert target.read_bytes() == b"old contents\n"
    else:
        assert not target.exists()
    assert main([*KILLED_OUTPUT, "--output", str(target)]) == 0
    assert target.read_bytes() == printed.encode()
