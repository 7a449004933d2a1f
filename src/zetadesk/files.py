"""Replacing a file's contents as a whole: the one recipe behind
`--output` and the STJZ cache writer. The writer owns its file from
open to rename: it closes the file before the new contents take the
path's name, so a close that fails is a failed write.

Standard library only, so --output loads no engine.
"""

from __future__ import annotations

import contextlib
import os
import stat
from collections.abc import Iterable
from pathlib import Path


def replace_atomically(path, chunks: Iterable, mode: str = "wb",
                       **open_kw) -> None:
    """Write every chunk to path and close the file.

    A path that does not exist, or names a regular file reached by no
    other link, is replaced atomically: the chunks go to a sibling
    temporary file `.<name>.<pid>.tmp`, which takes the old file's
    permission bits (and its owner and group, where the process may set
    them), and is closed and renamed over path once all are written.
    Readers see the old contents or the new, and a failure at any point
    removes the temporary file and leaves path as it was.

    Anything else (a symlink, a hard-linked file, a device such as
    /dev/null or /dev/stdout, a FIFO, a directory) is opened and written
    in place, as the shell's `>` would, since renaming over it would
    swap the name for a new file instead of writing to what it names.
    """
    path = Path(path)
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not (stat.S_ISREG(st.st_mode) and st.st_nlink == 1):
        with open(path, mode, **open_kw) as fh:
            fh.writelines(chunks)
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    fh = open(tmp, mode, **open_kw)
    try:
        if st is not None:
            os.fchmod(fh.fileno(), stat.S_IMODE(st.st_mode))
            with contextlib.suppress(PermissionError):
                os.fchown(fh.fileno(), st.st_uid, st.st_gid)
        fh.writelines(chunks)
        fh.flush()
        fh.close()
        os.replace(tmp, path)
    except BaseException:
        # a write that failed leaves its bytes in the buffer, so close
        # fails again; the first error is the one to report
        with contextlib.suppress(OSError):
            fh.close()
        tmp.unlink(missing_ok=True)
        raise
