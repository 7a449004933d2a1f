"""I/O errors injected at each call of the atomic writer.

files.replace_atomically is the one writer behind --output and the
sieve cache. Each case makes one of its calls raise ENOSPC, EIO or
EACCES in-process (permission bits do not stop a process running as
root, so the errors are raised directly), or makes every write of the
file's buffer fail, as a full disk does. A cache save that fails is
one warning, and the run prints what an uncached run prints; an
--output write that fails exits 1 with one error line and leaves a
file that was there as it was. No temporary file is left behind, and
the next clean run gives the same bytes.
"""

import errno
import functools
import io
import os

import pytest

from zetadesk import files
from zetadesk.cli import CACHE_ENV, main

ERRORS = [errno.ENOSPC, errno.EIO, errno.EACCES]
# the calls a write to a new path makes; a file that is already there
# also has its permission bits copied (os.fchmod). "full-disk" fails
# the buffer's writes instead, so the close after a failed flush fails
# again.
NEW_PATH_SITES = ["lstat", "open", "writelines", "flush", "replace",
                  "full-disk"]
SITES = [*NEW_PATH_SITES, "fchmod"]
ARGV = ["mertens", "--limit", "1000", "--every", "100"]


def _raise(code, *args, **kwargs):
    raise OSError(code, os.strerror(code))


class _Failing:
    """obj with the attribute name replaced by a call that raises."""

    def __init__(self, obj, name, code):
        self._obj, self._name, self._code = obj, name, code

    def __getattr__(self, attr):
        if attr == self._name:
            return functools.partial(_raise, self._code)
        return getattr(self._obj, attr)


class _FullDisk(io.FileIO):
    def __init__(self, path, code):
        super().__init__(path, "w")
        self._code = code

    def write(self, data):
        _raise(self._code)


def _inject(monkeypatch, site, code):
    if site in ("lstat", "fchmod", "replace"):
        monkeypatch.setattr(files, "os", _Failing(os, site, code))
    elif site == "open":
        monkeypatch.setattr(files, "open", functools.partial(_raise, code),
                            raising=False)
    elif site == "full-disk":
        def full_disk_open(path, mode, **open_kw):
            buffer = io.BufferedWriter(_FullDisk(path, code))
            return buffer if "b" in mode else io.TextIOWrapper(buffer,
                                                               **open_kw)

        monkeypatch.setattr(files, "open", full_disk_open, raising=False)
    else:
        monkeypatch.setattr(
            files, "open",
            lambda *args, **kw: _Failing(open(*args, **kw), site, code),
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
