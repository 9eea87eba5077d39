"""Out-of-core snapshot store: analyze archived snapshots without loading
the whole window into memory.

The paper's input was 8.5 TB of snapshots — far beyond RAM — which is why
the authors reached for Spark over Parquet files (§3).  The equivalent
here: archive snapshots to the columnar format once, then run the analyses
over a :class:`DiskSnapshotCollection`, which exposes the same interface as
the in-memory :class:`~repro.scan.snapshot.SnapshotCollection` but loads
snapshots lazily with a small LRU cache (adjacent-pair analyses like
Figure 13 need exactly two resident snapshots at a time).

Failure tolerance
-----------------
At production scale, truncated dumps and partial writes are facts of life.
The store therefore carries an explicit degradation policy:

* ``on_error="raise"`` (default) — the first corrupt file raises a typed
  :class:`~repro.scan.errors.CorruptSnapshotError`;
* ``on_error="skip"`` — corrupt files are excluded from the window and
  recorded in the collection's :class:`ArchiveHealthReport`;
* ``on_error="quarantine"`` — like ``skip``, but the file is also moved to
  a ``quarantine/`` subdirectory so the next run starts clean.

Construction validates every header (magic, lengths, header CRC, total-
length trailer — all cheap); ``verify="deep"`` additionally decodes every
column block up front, catching mid-file bit flips before an analysis
starts.  Transient ``OSError`` loads (the EIO-under-load case) are retried
with exponential backoff; corruption is never retried.
"""

from __future__ import annotations

import copy
import shutil
import threading
import warnings
from collections import OrderedDict
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.scan.columnar import (
    content_id,
    open_columnar,
    read_columnar_header,
    read_columnar_paths,
    retry_transient_io,
    verify_columnar,
)
from repro.scan.errors import CorruptSnapshotError
from repro.scan.paths import PathTable
from repro.scan.snapshot import NUMERIC_COLUMNS, Snapshot

#: Valid degradation policies for :class:`DiskSnapshotCollection`.
ON_ERROR_POLICIES = ("raise", "skip", "quarantine")

#: Subdirectory (under the archive) where quarantined files are moved.
QUARANTINE_DIRNAME = "quarantine"


class CacheInfo(NamedTuple):
    """LRU cache counters, ``functools.lru_cache``-style.

    ``bytes``/``bytes_limit`` extend the classic counters with byte
    accounting: ``bytes`` is the decoded size of the resident column
    blocks (what lazy loads have actually inflated, not the snapshots'
    full logical size), ``bytes_limit`` the eviction ceiling (``None``
    when the cache is bounded by entry count only).
    ``block_hits``/``block_misses`` count individual column-block touches
    on resident snapshots: a miss is a first-touch decode (disk read +
    inflate, or an mmap fault for v3 raw blocks), a hit is a reuse of an
    already-decoded block — e.g. a second kernel in the same fused wave
    touching ``atime`` after the first one paid for it.
    """

    hits: int
    misses: int
    maxsize: int
    currsize: int
    bytes: int = 0
    bytes_limit: int | None = None
    block_hits: int = 0
    block_misses: int = 0


@dataclass(frozen=True)
class SnapshotFault:
    """One bad snapshot file and what the policy did about it."""

    path: str
    reason: str
    offset: int | None
    action: str  # "skipped" | "quarantined"


@dataclass
class ArchiveHealthReport:
    """Structured record of what construction/verification found.

    Surfaced ``cache_info()``-style via
    :meth:`DiskSnapshotCollection.health_report` and printed by the CLI
    when an archive is degraded.
    """

    scanned: int = 0
    ok: int = 0
    faults: list[SnapshotFault] = field(default_factory=list)
    io_retries: int = 0
    quarantine_dir: str | None = None
    #: :class:`~repro.ingest.ingestor.IngestHealthReport` when the archive
    #: was built from foreign traces — one report then spans the whole
    #: trace → archive → analysis chain
    ingest: object | None = None

    @property
    def degraded(self) -> bool:
        if self.ingest is not None and self.ingest.degraded:
            return True
        return bool(self.faults)

    def summary(self) -> str:
        lines = [
            f"{self.ok}/{self.scanned} snapshots healthy, "
            f"{len(self.faults)} faulted, {self.io_retries} transient I/O retries"
        ]
        for f in self.faults:
            where = f" @{f.offset}" if f.offset is not None else ""
            lines.append(f"  {f.action}: {f.path}{where} — {f.reason}")
        if self.quarantine_dir and any(
            f.action == "quarantined" for f in self.faults
        ):
            lines.append(f"  quarantine dir: {self.quarantine_dir}")
        if self.ingest is not None:
            lines.append("ingest: " + self.ingest.summary())
        return "\n".join(lines)


class DiskSnapshotCollection:
    """Lazy, LRU-cached view over a directory of ``.rpq`` snapshot files.

    Interface-compatible with the analyses' use of ``SnapshotCollection``:
    ``len``, indexing, iteration, ``pairs()``, ``labels``, ``timestamps``,
    ``union_path_ids()``, ``subset()``, and a shared ``paths`` table (paths
    are interned on first load, so path ids stay consistent across
    snapshots within one session).

    Parameters
    ----------
    on_error:
        Degradation policy for corrupt files (see module docstring).
    verify:
        ``"header"`` (default) validates headers + trailers at
        construction; ``"deep"`` additionally decodes every column block
        (catches mid-file bit flips up front; costs one extra full read
        per file).
    io_retries / io_backoff:
        Transient ``OSError`` loads are retried ``io_retries`` times with
        ``io_backoff * 2**attempt`` sleeps.  :class:`CorruptSnapshotError`
        is permanent and never retried.
    cache_bytes:
        Optional byte ceiling for the resident decoded column blocks.
        Loads are lazy (:func:`~repro.scan.columnar.open_columnar`), so a
        snapshot is charged for what its kernels have actually touched —
        the charge grows block-by-block as columns decode.  When set,
        eviction is byte-denominated: the LRU entry goes whenever the
        total exceeds the ceiling, down to a floor of one entry (a single
        snapshot larger than the ceiling is still served — the run
        degrades rather than refusing).  A
        :class:`~repro.core.runcontrol.MemoryBudget` supplies this as its
        ``cache_bytes`` share.
    """

    def __init__(
        self,
        directory: str | Path,
        paths: PathTable | None = None,
        cache_size: int = 2,
        on_error: str = "raise",
        verify: str = "header",
        io_retries: int = 2,
        io_backoff: float = 0.05,
        cache_bytes: int | None = None,
        files: list[str | Path] | None = None,
    ) -> None:
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        if cache_bytes is not None and cache_bytes < 1:
            raise ValueError("cache_bytes must be >= 1 (or None for unlimited)")
        if on_error not in ON_ERROR_POLICIES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_POLICIES}, got {on_error!r}"
            )
        if verify not in ("header", "deep"):
            raise ValueError(f"verify must be 'header' or 'deep', got {verify!r}")
        self.directory = Path(directory)
        self.on_error = on_error
        self.io_retries = max(0, int(io_retries))
        self.io_backoff = float(io_backoff)
        self.health = ArchiveHealthReport(
            quarantine_dir=str(self.directory / QUARANTINE_DIRNAME)
        )
        if files is None:
            files = sorted(self.directory.glob("*.rpq"))
        else:
            # an explicit (manifest-pinned) window: a reader following a
            # live archive sees exactly the published generation's files —
            # stray .rpq from a torn publish never enter the window, and a
            # listed-but-missing file is a typed fault, not a silent gap
            files = [Path(f) for f in files]
        if not files:
            raise FileNotFoundError(f"no .rpq snapshots under {self.directory}")
        survivors: list[Path] = []
        headers: list[dict] = []
        self.health.scanned = len(files)
        for f in files:
            try:
                if not f.exists():
                    raise CorruptSnapshotError(
                        f, "listed in the manifest but missing on disk"
                    )
                # deep verification decodes every block but interns
                # nothing: paths of a file that may later be dropped never
                # reach the shared table
                if verify == "deep":
                    header = verify_columnar(f)
                else:
                    header = read_columnar_header(f)
            except CorruptSnapshotError as exc:
                self._handle_fault(f, exc)
                continue
            survivors.append(f)
            # keep the block table's digest, not the table
            header["content_id"] = content_id(header)
            del header["columns"]
            headers.append(header)
        self.health.ok = len(survivors)
        if not survivors:
            raise CorruptSnapshotError(
                self.directory,
                f"all {len(files)} snapshot files are corrupt "
                f"(policy {self.on_error!r} left an empty window)",
            )
        order = np.argsort([h["timestamp"] for h in headers], kind="stable")
        self._files = [survivors[i] for i in order]
        self._headers = [headers[i] for i in order]
        self.paths = paths if paths is not None else PathTable()
        self._cache_size = cache_size
        self._cache_bytes_limit = cache_bytes
        self._fresh_cache()

    def _fresh_cache(self) -> None:
        """An empty snapshot cache, zeroed counters and a new lock."""
        self._cache: OrderedDict[int, Snapshot] = OrderedDict()
        self._cache_nbytes: dict[int, int] = {}
        # guards the cache, the byte accounting, and PathTable interning
        # (intern mutates unsynchronized dict/list/array state) for
        # concurrent readers sharing one collection (the serving layer).
        # Lock ordering: a snapshot's per-block decode lock may acquire
        # this lock (decode hooks); store code never acquires a snapshot
        # lock, so the order is acyclic.
        self._lock = threading.RLock()
        #: observability: how many loads hit the disk vs the cache
        self.loads = 0
        self.hits = 0
        #: block-level counters: first-touch decodes vs resident-block reuse
        self.block_misses = 0
        self.block_hits = 0
        #: decoded bytes currently resident / high-water mark across the run
        self.cache_bytes_used = 0
        self.peak_cache_bytes = 0

    # -- degradation policy --------------------------------------------------

    def _handle_fault(self, path: Path, exc: CorruptSnapshotError) -> None:
        """Apply the on_error policy to one corrupt file."""
        if self.on_error == "raise":
            raise exc
        action = self._quarantine_file(path)
        self.health.faults.append(
            SnapshotFault(
                path=str(path), reason=exc.reason, offset=exc.offset, action=action
            )
        )
        warnings.warn(
            f"corrupt snapshot {path}: {exc.reason} — {action}",
            RuntimeWarning,
            stacklevel=4,
        )

    # -- cache observability -------------------------------------------------

    @property
    def misses(self) -> int:
        """Disk loads — every cache miss is exactly one columnar read."""
        return self.loads

    def cache_info(self) -> CacheInfo:
        """Hit/miss counters in ``functools.lru_cache`` style.

        The fused-pass tests assert ``misses == len(collection)`` — each
        snapshot read from disk exactly once across a full ``analyze()``.
        """
        return CacheInfo(
            hits=self.hits,
            misses=self.loads,
            maxsize=self._cache_size,
            currsize=len(self._cache),
            bytes=self.cache_bytes_used,
            bytes_limit=self._cache_bytes_limit,
            block_hits=self.block_hits,
            block_misses=self.block_misses,
        )

    def health_report(self) -> ArchiveHealthReport:
        """The archive's :class:`ArchiveHealthReport` (``cache_info`` style)."""
        return self.health

    # -- collection interface ------------------------------------------------

    def __len__(self) -> int:
        return len(self._files)

    def _quarantine_file(self, path: Path) -> str:
        """Move ``path`` aside under the ``quarantine`` policy; returns the
        fault's action (``skipped`` under any other policy)."""
        if self.on_error != "quarantine":
            return "skipped"
        qdir = self.directory / QUARANTINE_DIRNAME
        qdir.mkdir(exist_ok=True)
        try:
            shutil.move(str(path), str(qdir / path.name))
        except OSError as exc:  # pragma: no cover - exotic fs state
            return f"skipped (quarantine failed: {exc})"
        return "quarantined"

    def _load(self, path: Path, idx: int) -> Snapshot:
        """One lazy columnar open with transient-I/O retry + backoff.

        The open itself decodes only the header and the path table; every
        numeric block decodes on first touch, reporting into this
        collection's byte accounting and block hit/miss counters.  A flaky
        open (``OSError``/EIO under load) gets ``io_retries`` chances with
        ``io_backoff * 2**attempt`` sleeps; a failed integrity check
        (:class:`CorruptSnapshotError`) is permanent — whether it surfaces
        at open time or on a later lazy block touch, under the
        ``quarantine`` policy the file is moved aside so the *next*
        construction sees a clean window, and the error is raised either
        way (a fused pass cannot drop an index mid-run).
        """
        def quarantine(exc: CorruptSnapshotError) -> None:
            self._quarantine_file(path)

        return retry_transient_io(
            lambda: open_columnar(
                path,
                self.paths,
                on_decode=lambda name, nbytes: self._on_block_decode(
                    idx, nbytes
                ),
                on_hit=lambda name: self._on_block_hit(),
                on_corrupt=quarantine,
                io_retries=self.io_retries,
                io_backoff=self.io_backoff,
                on_io_retry=self._note_io_retry,
            ),
            self.io_retries,
            self.io_backoff,
            on_retry=self._note_io_retry,
            on_corrupt=quarantine,
        )

    def _note_io_retry(self) -> None:
        """Count one transient-I/O retry (eager open or lazy block touch)."""
        with self._lock:
            self.health.io_retries += 1

    def _on_block_decode(self, idx: int, nbytes: int) -> None:
        """Account one first-touch block decode against the byte budget."""
        with self._lock:
            self.block_misses += 1
            if idx in self._cache_nbytes:
                self._cache_nbytes[idx] += nbytes
                self.cache_bytes_used += nbytes
                self._evict()
                self.peak_cache_bytes = max(
                    self.peak_cache_bytes, self.cache_bytes_used
                )
            # else: the snapshot was already evicted but a caller still holds
            # it — its blocks are no longer the cache's bytes to account

    def _on_block_hit(self) -> None:
        with self._lock:
            self.block_hits += 1

    def __getitem__(self, idx: int) -> Snapshot:
        if idx < 0:
            idx += len(self)
        if not 0 <= idx < len(self):
            raise IndexError(idx)
        # the lock spans the load: open_columnar interns path strings into
        # the shared PathTable, which is not safe under concurrent mutation
        with self._lock:
            cached = self._cache.get(idx)
            if cached is not None:
                self.hits += 1
                self._cache.move_to_end(idx)
                return cached
            snap = self._load(self._files[idx], idx)
            self.loads += 1
            self._cache[idx] = snap
            nbytes = getattr(snap, "resident_nbytes", snap.column_nbytes)()
            self._cache_nbytes[idx] = nbytes = int(nbytes)
            self.cache_bytes_used += nbytes
            self._evict()
            self.peak_cache_bytes = max(
                self.peak_cache_bytes, self.cache_bytes_used
            )
            return snap

    def _evict(self) -> None:
        """Drop LRU entries until both the entry and byte ceilings hold.

        Byte eviction floors at one resident entry: a single snapshot
        larger than ``cache_bytes`` is still served (degrade, don't
        refuse), which is why ``cache_info().bytes`` can exceed the limit
        only in that one-oversized-snapshot case.
        """
        limit = self._cache_bytes_limit
        while len(self._cache) > self._cache_size or (
            limit is not None
            and self.cache_bytes_used > limit
            and len(self._cache) > 1
        ):
            evicted, _ = self._cache.popitem(last=False)
            self.cache_bytes_used -= self._cache_nbytes.pop(evicted, 0)

    def warm_paths(self, idx: int) -> None:
        """Intern snapshot ``idx``'s path strings without a full load.

        Reproduces exactly the PathTable mutation ``self[idx]`` would make,
        at the cost of reading only the path-table block.  The resume path
        calls this for already-journaled snapshots, in index order, so path
        ids in restored kernel partials match the live interning.
        """
        if not 0 <= idx < len(self):
            raise IndexError(idx)
        read_columnar_paths(self._files[idx], self.paths)

    def __iter__(self) -> Iterator[Snapshot]:
        for i in range(len(self)):
            yield self[i]

    @property
    def labels(self) -> list[str]:
        return [h["label"] for h in self._headers]

    @property
    def files(self) -> list[Path]:
        """The window's .rpq paths in timestamp order (a copy)."""
        return list(self._files)

    @property
    def timestamps(self) -> np.ndarray:
        return np.array([h["timestamp"] for h in self._headers], dtype=np.int64)

    @property
    def row_counts(self) -> np.ndarray:
        """Entry counts per snapshot, from headers alone (no data load)."""
        return np.array([h["rows"] for h in self._headers], dtype=np.int64)

    def content_ids(self) -> list[int]:
        """Per-snapshot :func:`~repro.scan.columnar.content_id`, from
        headers alone (no load).

        The incremental path binds these into the journaled kernel state
        so a position rewritten with *different data under the same label*
        (the synthetic simulator is not prefix-stable across window
        lengths) discards the state instead of replaying deltas onto a
        mismatched base.
        """
        return [h["content_id"] for h in self._headers]

    def max_snapshot_nbytes(self) -> int:
        """Upper-bound decoded size of the largest snapshot, headers only.

        ``rows * len(NUMERIC_COLUMNS) * 8`` — every numeric column decodes
        to int64/float64, so this bounds ``column_nbytes`` without loading
        anything.  The engine sizes memory-budgeted dispatch waves with it.
        """
        if not self._headers:
            return 0
        rows = max(int(h["rows"]) for h in self._headers)
        return rows * len(NUMERIC_COLUMNS) * 8

    def total_decoded_nbytes_estimate(self) -> int:
        """Upper-bound decoded size of *all* snapshots, headers only.

        The engine uses this to decide whether a whole disk collection can
        ride the shared-memory transport (one decode, every worker and
        every wave reuses it) or must fall back to per-worker lazy reads.
        """
        return sum(
            int(h["rows"]) * len(NUMERIC_COLUMNS) * 8 for h in self._headers
        )

    def __getstate__(self) -> dict:
        """Pickle without the resident cache (spawn/pickle transport).

        Lazy snapshots hold mmap-backed views that cannot cross a process
        boundary; the receiving process re-opens lazily against the same
        files (sharing the OS page cache with the parent) and starts with
        fresh counters for its own accounting.
        """
        state = self.__dict__.copy()
        state["_cache"] = OrderedDict()
        state["_cache_nbytes"] = {}
        state["cache_bytes_used"] = 0
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    def quarantine_task_failure(self, idx: int, reason: str) -> None:
        """Record snapshot ``idx`` as quarantined by the engine's breaker.

        The circuit breaker calls this when a snapshot's *task* (not its
        bytes) failed — e.g. a kernel that raises on one input.  Tasks run
        once, so the first failure quarantines.  The existing ``on_error``
        policy applies: ``skip`` records the fault in the
        :class:`ArchiveHealthReport`; ``quarantine`` also moves the file
        aside so the next construction starts clean.  Under
        ``on_error="raise"`` the breaker is never armed, so this raises.
        """
        if self.on_error == "raise":
            raise RuntimeError(
                "quarantine_task_failure requires on_error='skip' or "
                "'quarantine' (breaker must not be armed under 'raise')"
            )
        if not 0 <= idx < len(self):
            raise IndexError(idx)
        path = self._files[idx]
        action = self._quarantine_file(path)
        with self._lock:
            self.health.faults.append(
                SnapshotFault(
                    path=str(path),
                    reason=f"task failures exhausted: {reason}",
                    offset=None,
                    action=action,
                )
            )
            if idx in self._cache:
                del self._cache[idx]
                self.cache_bytes_used -= self._cache_nbytes.pop(idx, 0)
        warnings.warn(
            f"snapshot {path.name} quarantined after repeated task "
            f"failures: {reason}",
            RuntimeWarning,
            stacklevel=3,
        )

    def pairs(self) -> Iterator[tuple[Snapshot, Snapshot]]:
        for i in range(1, len(self)):
            yield self[i - 1], self[i]

    def union_path_ids(self) -> np.ndarray:
        """Unique path ids across all snapshots, streamed one at a time."""
        seen: np.ndarray | None = None
        for snap in self:
            ids = snap.path_id
            seen = ids.copy() if seen is None else np.union1d(seen, ids)
        return seen if seen is not None else np.empty(0, dtype=np.int64)

    def subset(self, indices) -> "DiskSnapshotCollection":
        """A view over ``indices``, sharing the parent's PathTable.

        Sharing contract: ``subset().paths`` **is** the parent's mutable
        table — loads through either view intern into the same table, so a
        path string resolves to the same id no matter which view loaded it
        first (including after partial parent loads).  Cache and hit/miss
        counters are per-view and start fresh; the health report and the
        transient-I/O retry policy are inherited by reference/value
        respectively, so faults observed through a subset still land in the
        parent's :class:`ArchiveHealthReport`.
        """
        out = copy.copy(self)  # shares paths, health and the policy
        out._files = [self._files[i] for i in indices]
        out._headers = [self._headers[i] for i in indices]
        out._fresh_cache()
        return out
