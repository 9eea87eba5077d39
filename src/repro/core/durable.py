"""Atomic, durable file writes (tmp + fsync + rename).

A crash mid-``archive()`` used to leave a half-written ``.rpq`` or
manifest that poisoned the next run.  Every writer in the data path — the
``.rpq`` snapshots, ``.rpd`` delta sidecars, the ``accounts.json`` member,
``manifest.json``, ``kernel_state.bin``, and exported PSV and CSV files —
now goes through :func:`atomic_write`: content lands in a same-directory
temp file, is fsynced, and is atomically renamed over the destination —
readers see either the complete old file or the complete new file, never
a torn one.  The directory entry is fsynced too (best-effort: some filesystems
refuse directory fsync) so the rename itself survives power loss.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


def fsync_dir(directory: str | Path) -> None:
    """Best-effort fsync of a directory entry (rename durability)."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. O_RDONLY dirs on odd platforms
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - not all filesystems support it
        pass
    finally:
        os.close(fd)


@contextmanager
def atomic_write(dest: str | Path, mode: str = "wb", **open_kwargs):
    """Write ``dest`` atomically: yield a temp-file handle; commit on success.

    On any exception the temp file is removed and ``dest`` is untouched.
    On success the handle is flushed, fsynced, and renamed over ``dest``
    (``os.replace``, atomic on POSIX), then the directory entry is fsynced.
    """
    dest = Path(dest)
    tmp = dest.parent / f".{dest.name}.tmp.{os.getpid()}"
    fh = open(tmp, mode, **open_kwargs)
    try:
        yield fh
        fh.flush()
        os.fsync(fh.fileno())
    except BaseException:
        fh.close()
        try:
            os.unlink(tmp)
        except OSError:  # pragma: no cover - tmp already gone
            pass
        raise
    fh.close()
    os.replace(tmp, dest)
    fsync_dir(dest.parent)
