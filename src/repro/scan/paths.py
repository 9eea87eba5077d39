"""Collection-wide path interning.

The same file appears in dozens of weekly snapshots; interning each distinct
path string once and letting snapshots carry integer path ids turns the
paper's week-over-week set algebra ("intersection pathnames", §4.2.3) into
sorted-integer operations and cuts memory by the snapshot count.

Per-path *derived* attributes that never change for a given path string —
component depth and file extension — are computed exactly once at intern
time and stored in parallel NumPy arrays.

:meth:`PathTable.intern_many` is the only code that assigns ids: one
batched pass finds the batch's new paths in first-occurrence order, gives
them the next dense ids, and fills their derived columns with one array
store each.  Every reader and the scanner hand it a whole snapshot's
strings at once, so interning costs a few C-level passes per batch rather
than a Python call per row.
"""

from __future__ import annotations

import numpy as np

from repro.scan.extensions import ExtensionTable, split_extension

_INITIAL = 1024


class PathTable:
    """Interning dictionary for absolute paths with derived columns."""

    def __init__(self, extensions: ExtensionTable | None = None) -> None:
        self._ids: dict[str, int] = {}
        self.paths: list[str] = []
        self.extensions = extensions if extensions is not None else ExtensionTable()
        self.depth = np.zeros(_INITIAL, dtype=np.int16)
        self.ext_id = np.zeros(_INITIAL, dtype=np.int32)

    def _grow_to(self, needed: int) -> None:
        cap = self.depth.shape[0]
        if needed <= cap:
            return
        new_cap = cap
        while new_cap < needed:
            new_cap *= 2
        for name in ("depth", "ext_id"):
            old = getattr(self, name)
            grown = np.zeros(new_cap, dtype=old.dtype)
            grown[: cap] = old
            setattr(self, name, grown)

    def intern(self, path: str) -> int:
        """Intern one absolute path; returns its dense id."""
        return int(self.intern_many([path])[0])

    def intern_many(self, paths: list[str]) -> np.ndarray:
        """Intern a batch; returns the id array.

        New paths get consecutive ids in first-occurrence order, and their
        extensions are interned in that same order, so the ids, ``depth``,
        ``ext_id`` and the :class:`ExtensionTable` come out exactly as
        interning the paths one at a time would leave them.
        """
        ids = self._ids
        new = list(dict.fromkeys([p for p in paths if p not in ids]))
        if new:
            start = len(self.paths)
            end = start + len(new)
            ids.update(zip(new, range(start, end)))
            self.paths.extend(new)
            self._grow_to(end)
            depth = np.fromiter(
                (p.count("/") - p.endswith("/") for p in new),
                np.int64, count=len(new),
            )
            self.depth[start:end] = np.minimum(depth, np.iinfo(np.int16).max)
            intern_ext = self.extensions.intern
            self.ext_id[start:end] = np.fromiter(
                (intern_ext(split_extension(p.rpartition("/")[2])) for p in new),
                np.int32, count=len(new),
            )
        return np.fromiter(map(ids.__getitem__, paths), np.int64, count=len(paths))

    def id_of(self, path: str) -> int | None:
        return self._ids.get(path)

    def path_of(self, pid: int) -> str:
        return self.paths[pid]

    def depths_of(self, pids: np.ndarray) -> np.ndarray:
        return self.depth[pids].astype(np.int64)

    def ext_ids_of(self, pids: np.ndarray) -> np.ndarray:
        return self.ext_id[pids].astype(np.int64)

    def component(self, pid: int, index: int) -> str | None:
        """The ``index``-th path component (0-based below the root), or None."""
        parts = self.paths[pid].strip("/").split("/")
        if 0 <= index < len(parts):
            return parts[index]
        return None

    def __len__(self) -> int:
        return len(self.paths)

    def __contains__(self, path: str) -> bool:
        return path in self._ids
