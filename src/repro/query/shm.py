"""Shared-memory transport for snapshot collections.

Under the ``fork`` start method, pool workers inherit the parent's snapshot
arrays copy-on-write, so handing them work is free.  ``spawn`` workers start
from a blank interpreter: anything they need must either be pickled (a full
copy per worker) or placed in OS shared memory once and attached by name.
This module implements the latter, so the parallel engine runs identically
under both start methods.

One :class:`~multiprocessing.shared_memory.SharedMemory` segment holds every
numeric column of every snapshot, then the path table's derived columns
(component depth, extension id), then the table's tree — each node's
parent, ``/`` count and length, each path id's node, and the node names
as one ``/``-joined UTF-8 blob (a name never holds a ``/``).  The
:class:`CollectionHandle` is the small picklable description of that
layout (segment name + offsets); a worker
attaches the segment and rebuilds zero-copy, read-only NumPy views over the
mapped buffer — the column data itself is never pickled and exists exactly
once in physical memory regardless of the worker count.

Lifecycle: the parent owns the segment.  :func:`export_collection` creates
it and returns a :class:`CollectionExport` whose :meth:`~CollectionExport.destroy`
(or ``with`` block) closes and unlinks it once the pool is done.  Workers
only ever attach; the single shared resource-tracker entry is cleared by
the parent's unlink.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any

import numpy as np

from repro.scan.extensions import ExtensionTable
from repro.scan.paths import PathTable
from repro.scan.snapshot import (
    COLUMN_DTYPES,
    NUMERIC_COLUMNS,
    Snapshot,
    SnapshotCollection,
)

_ALIGN = 8

#: The path table's tree arrays, as :meth:`PathTable.__getstate__` names them.
_TREE_ARRAYS = ("parent", "slashes", "length", "node")


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class SnapshotSpec:
    """Where one snapshot's columns live inside the segment."""

    label: str
    timestamp: int
    rows: int
    #: byte offsets, one per :data:`NUMERIC_COLUMNS` entry, in order
    offsets: tuple[int, ...]


@dataclass(frozen=True)
class CollectionHandle:
    """Picklable description of an exported collection.

    This is all a spawn worker receives; everything heavy stays in the
    named shared-memory segment.
    """

    segment: str
    snapshots: tuple[SnapshotSpec, ...]
    n_paths: int
    depth_offset: int
    ext_id_offset: int
    #: ``(offset, count)`` of each int64 tree array, by its state key
    tree: tuple[tuple[str, int, int], ...]
    names_offset: int
    names_nbytes: int
    extensions: ExtensionTable
    total_nbytes: int


class CollectionExport:
    """Parent-side owner of the shared segment (context manager)."""

    def __init__(self, handle: CollectionHandle, shm: shared_memory.SharedMemory) -> None:
        self.handle = handle
        self._shm = shm

    @property
    def nbytes(self) -> int:
        return self.handle.total_nbytes

    def destroy(self) -> None:
        """Close the local mapping and unlink the segment (idempotent)."""
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - exported views still alive
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass

    def __enter__(self) -> "CollectionExport":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.destroy()


def export_collection(collection: SnapshotCollection) -> CollectionExport:
    """Copy a collection's columns into one shared-memory segment.

    This is the only copy the spawn path ever makes: each column is written
    once, and every worker maps the same physical pages.

    Works for lazy disk-backed collections too: the ``getattr`` per column
    is what triggers each block's one and only decode (through the store's
    accounted cache), after which the segment serves every kernel of every
    dispatch wave — the engine gates this on the memory budget via
    ``_shm_affordable``.
    """
    plan: list[tuple[int, np.ndarray]] = []
    specs: list[SnapshotSpec] = []
    offset = 0
    for snap in collection:
        offsets = []
        for name in NUMERIC_COLUMNS:
            col = np.ascontiguousarray(getattr(snap, name))
            offset = _aligned(offset)
            offsets.append(offset)
            plan.append((offset, col))
            offset += col.nbytes
        specs.append(
            SnapshotSpec(
                label=snap.label,
                timestamp=int(snap.timestamp),
                rows=len(snap),
                offsets=tuple(offsets),
            )
        )
    paths = collection.paths
    n_paths = len(paths)
    depth = np.ascontiguousarray(paths.depth[:n_paths])
    ext_id = np.ascontiguousarray(paths.ext_id[:n_paths])
    offset = _aligned(offset)
    depth_offset = offset
    plan.append((offset, depth))
    offset += depth.nbytes
    offset = _aligned(offset)
    ext_id_offset = offset
    plan.append((offset, ext_id))
    offset += ext_id.nbytes
    state = paths.__getstate__()
    tree = []
    for key in _TREE_ARRAYS:
        arr = np.array(state[key], dtype=np.int64)
        offset = _aligned(offset)
        tree.append((key, offset, arr.size))
        plan.append((offset, arr))
        offset += arr.nbytes
    blob = state["names"].encode("utf-8")
    offset = _aligned(offset)
    names_offset = offset
    offset += len(blob)
    total = max(offset, 1)  # zero-size segments are not allowed
    shm = shared_memory.SharedMemory(create=True, size=total)
    for off, arr in plan:
        if arr.size:
            dst = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=off)
            dst[:] = arr
    if blob:
        shm.buf[names_offset : names_offset + len(blob)] = blob
    handle = CollectionHandle(
        segment=shm.name,
        snapshots=tuple(specs),
        n_paths=n_paths,
        depth_offset=depth_offset,
        ext_id_offset=ext_id_offset,
        tree=tuple(tree),
        names_offset=names_offset,
        names_nbytes=len(blob),
        extensions=paths.extensions,
        total_nbytes=total,
    )
    return CollectionExport(handle, shm)


def _view(
    shm: shared_memory.SharedMemory, offset: int, dtype: Any, rows: int
) -> np.ndarray:
    arr = np.ndarray((rows,), dtype=dtype, buffer=shm.buf, offset=offset)
    arr.flags.writeable = False
    return arr


class SharedPathTable:
    """Worker-side, read-only stand-in for :class:`~repro.scan.paths.PathTable`.

    Covers the surface the snapshot analyses use — ``depths_of`` /
    ``ext_ids_of`` gathers over shared-memory views, and path lookups.
    The tree behind the lookups is rebuilt from the segment on first use;
    most per-snapshot functions only touch the numeric derived columns
    and never pay for it.
    """

    def __init__(self, shm: shared_memory.SharedMemory, handle: CollectionHandle) -> None:
        self._shm = shm
        self._handle = handle
        self._n = handle.n_paths
        self.extensions = handle.extensions
        self.depth = _view(shm, handle.depth_offset, np.int16, self._n)
        self.ext_id = _view(shm, handle.ext_id_offset, np.int32, self._n)
        self._table: PathTable | None = None

    def _tree(self) -> PathTable:
        if self._table is None:
            handle, buf = self._handle, self._shm.buf
            state: dict[str, Any] = {
                key: array("q", bytes(buf[off : off + 8 * count]))
                for key, off, count in handle.tree
            }
            names = handle.names_offset
            state["names"] = bytes(buf[names : names + handle.names_nbytes]).decode("utf-8")
            state.update(extensions=self.extensions, depth=self.depth, ext_id=self.ext_id)
            table = PathTable.__new__(PathTable)
            table.__setstate__(state)
            self._table = table
        return self._table

    def depths_of(self, pids: np.ndarray) -> np.ndarray:
        return self.depth[pids].astype(np.int64)

    def ext_ids_of(self, pids: np.ndarray) -> np.ndarray:
        return self.ext_id[pids].astype(np.int64)

    def path_of(self, pid: int) -> str:
        return self._tree().path_of(pid)

    def paths_of(self, pids) -> list[str]:
        return self._tree().paths_of(pids)

    def id_of(self, path: str) -> int | None:
        return self._tree().id_of(path)

    def intern(self, path: str) -> int:
        raise TypeError("shared path table is read-only; intern in the parent")

    intern_many = intern_rows = intern

    def __len__(self) -> int:
        return self._n

    def __contains__(self, path: str) -> bool:
        return self.id_of(path) is not None


def attach_collection(
    handle: CollectionHandle,
) -> tuple[SnapshotCollection, shared_memory.SharedMemory]:
    """Rebuild a zero-copy view of an exported collection in this process.

    Returns the collection plus the mapped segment; the caller must keep the
    segment referenced for as long as the views are used (the worker context
    does) and ``close()`` it when done.  The mapping is unregistered from the
    resource tracker because the exporting parent owns the segment's
    lifecycle.
    """
    # Note on the resource tracker: pool workers (fork and spawn alike)
    # inherit the parent's tracker, whose registry is a set — the attach-side
    # re-registration is a no-op and the parent's unlink clears the single
    # entry.  No per-worker unregister is needed (doing one would make the
    # parent's unlink a double-unregister).
    shm = shared_memory.SharedMemory(name=handle.segment)
    table = SharedPathTable(shm, handle)
    collection = SnapshotCollection(paths=table)  # type: ignore[arg-type]
    for spec in handle.snapshots:
        columns = {
            name: _view(shm, off, COLUMN_DTYPES[name], spec.rows)
            for name, off in zip(NUMERIC_COLUMNS, spec.offsets)
        }
        collection.append(
            Snapshot.from_attached_columns(spec.label, spec.timestamp, table, columns)
        )
    return collection, shm
