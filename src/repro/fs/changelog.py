"""Optional metadata changelog — the road OLCF did not take.

Spider II deliberately runs *without* a changelog "due to the overhead it
imposes on regular file system operations" (§2.2), paying instead with a
nightly full-namespace scan whose weekly samples miss intra-interval churn
(files created and deleted between snapshots are invisible — §4.1.1's
stated limitation).

This module implements the changelog so the trade-off can be measured: the
``bench_ablation_changelog`` target compares snapshot-diff analysis against
changelog ground truth and reports both the hidden churn and the logging
overhead (records per operation), and the delta sidecar path (DESIGN.md
§11) leans on its completeness guarantee.

Storage is append-only numpy chunks — an int8 kind code, an int64 ino, and
an int64 timestamp per record, sealed in fixed-size blocks with per-block
time bounds.  Queries never re-materialize Python lists: ``events_between``
skips whole blocks outside the window, so repeated delta-window queries
cost O(window records + number of blocks).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class ChangeKind(Enum):
    CREATE = "create"
    MKDIR = "mkdir"
    UNLINK = "unlink"
    RMDIR = "rmdir"
    WRITE = "write"  # data modification (mtime/ctime)
    READ = "read"  # access (atime)
    SETATTR = "setattr"  # chown/chmod

#: dense int8 codes, in declaration order (the storage representation)
_KIND_BY_CODE: tuple[ChangeKind, ...] = tuple(ChangeKind)
_CODE_BY_KIND: dict[ChangeKind, int] = {k: i for i, k in enumerate(_KIND_BY_CODE)}

#: records per sealed block; small enough that a block is cache-friendly,
#: large enough that the per-block bookkeeping is noise
_BLOCK_RECORDS = 1 << 16


@dataclass(frozen=True)
class ChangeRecord:
    index: int  # monotonically increasing record number
    kind: ChangeKind
    ino: int
    timestamp: int


class Changelog:
    """Append-only event log, column-oriented for cheap aggregation."""

    def __init__(self) -> None:
        # sealed, immutable full blocks: (codes, inos, times) triples …
        self._blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        # … with (min_time, max_time) bounds for window skipping
        self._bounds: list[tuple[int, int]] = []
        # the active tail block, filled up to _tail_n then sealed
        self._tail_codes = np.empty(_BLOCK_RECORDS, dtype=np.int8)
        self._tail_inos = np.empty(_BLOCK_RECORDS, dtype=np.int64)
        self._tail_times = np.empty(_BLOCK_RECORDS, dtype=np.int64)
        self._tail_n = 0

    # -- producer side ------------------------------------------------------

    def _seal_tail(self) -> None:
        times = self._tail_times.copy()
        self._blocks.append((self._tail_codes.copy(), self._tail_inos.copy(), times))
        self._bounds.append((int(times.min()), int(times.max())))
        self._tail_n = 0

    def record(self, kind: ChangeKind, ino: int, timestamp: int) -> None:
        n = self._tail_n
        self._tail_codes[n] = _CODE_BY_KIND[kind]
        self._tail_inos[n] = int(ino)
        self._tail_times[n] = int(timestamp)
        self._tail_n = n + 1
        if self._tail_n == _BLOCK_RECORDS:
            self._seal_tail()

    def record_many(self, kind: ChangeKind, inos: np.ndarray,
                    timestamps: np.ndarray | int) -> None:
        inos = np.asarray(inos, dtype=np.int64)
        if inos.size == 0:
            return
        stamps = np.broadcast_to(
            np.asarray(timestamps, dtype=np.int64), inos.shape
        )
        code = _CODE_BY_KIND[kind]
        pos = 0
        while pos < inos.size:
            n = self._tail_n
            take = min(_BLOCK_RECORDS - n, inos.size - pos)
            self._tail_codes[n:n + take] = code
            self._tail_inos[n:n + take] = inos[pos:pos + take]
            self._tail_times[n:n + take] = stamps[pos:pos + take]
            self._tail_n = n + take
            pos += take
            if self._tail_n == _BLOCK_RECORDS:
                self._seal_tail()

    # -- consumer side ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._blocks) * _BLOCK_RECORDS + self._tail_n

    def __getitem__(self, index: int) -> ChangeRecord:
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(index)
        block, offset = divmod(index, _BLOCK_RECORDS)
        if block < len(self._blocks):
            codes, inos, times = self._blocks[block]
        else:
            codes, inos, times = self._tail_codes, self._tail_inos, self._tail_times
        return ChangeRecord(
            index=index,
            kind=_KIND_BY_CODE[int(codes[offset])],
            ino=int(inos[offset]),
            timestamp=int(times[offset]),
        )

    def _iter_blocks(self):
        """Yield ``(codes, inos, times, base_index)`` per non-empty block."""
        for i, (codes, inos, times) in enumerate(self._blocks):
            yield codes, inos, times, i * _BLOCK_RECORDS
        if self._tail_n:
            n = self._tail_n
            yield (self._tail_codes[:n], self._tail_inos[:n],
                   self._tail_times[:n], len(self._blocks) * _BLOCK_RECORDS)

    def counts_by_kind(self) -> dict[ChangeKind, int]:
        totals = np.zeros(len(_KIND_BY_CODE), dtype=np.int64)
        for codes, _, _, _ in self._iter_blocks():
            totals += np.bincount(codes, minlength=len(_KIND_BY_CODE))
        return {
            _KIND_BY_CODE[code]: int(count)
            for code, count in enumerate(totals)
            if count
        }

    def events_between(
        self, start: int, end: int, kinds: set[ChangeKind] | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(ino, timestamp) arrays of events in ``[start, end)``."""
        wanted = None
        if kinds is not None:
            wanted = np.zeros(len(_KIND_BY_CODE), dtype=bool)
            for kind in kinds:
                wanted[_CODE_BY_KIND[kind]] = True
        out_inos: list[np.ndarray] = []
        out_times: list[np.ndarray] = []
        for codes, inos, times, base in self._iter_blocks():
            if self._skip_block(base, start, end):
                continue
            mask = (times >= start) & (times < end)
            if wanted is not None:
                mask &= wanted[codes]
            out_inos.append(inos[mask])
            out_times.append(times[mask])
        if not out_inos:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        return np.concatenate(out_inos), np.concatenate(out_times)

    def _skip_block(self, base: int, start: int, end: int) -> bool:
        """True if the sealed block at ``base`` lies wholly outside [start, end)."""
        block = base // _BLOCK_RECORDS
        if block >= len(self._bounds):  # the tail has no sealed bounds yet
            return False
        lo, hi = self._bounds[block]
        return hi < start or lo >= end

    def churned_inos(self, start: int, end: int) -> np.ndarray:
        """Inodes created and then unlinked inside the interval.

        Exactly the population weekly snapshot diffs can never see — the
        measurement gap §4.1.1 concedes.  Event *order* is checked per
        inode: an inode churns only when some ``UNLINK`` record index is
        strictly greater than its first ``CREATE`` record index in the
        window, so recycled inode numbers — an unlink followed by an
        unrelated create — do not count.
        """
        create_inos: list[np.ndarray] = []
        create_idx: list[np.ndarray] = []
        unlink_inos: list[np.ndarray] = []
        unlink_idx: list[np.ndarray] = []
        create_code = _CODE_BY_KIND[ChangeKind.CREATE]
        unlink_code = _CODE_BY_KIND[ChangeKind.UNLINK]
        for codes, inos, times, base in self._iter_blocks():
            if self._skip_block(base, start, end):
                continue
            window = (times >= start) & (times < end)
            # record order is the file system's causal order (timestamps can
            # be backdated by workload models; the log sequence cannot lie)
            for code, out_inos, out_idx in (
                (create_code, create_inos, create_idx),
                (unlink_code, unlink_inos, unlink_idx),
            ):
                rows = np.flatnonzero(window & (codes == code))
                out_inos.append(inos[rows])
                out_idx.append(rows + base)
        if not create_inos:
            return np.empty(0, dtype=np.int64)
        c_ino = np.concatenate(create_inos)
        c_idx = np.concatenate(create_idx)
        u_ino = np.concatenate(unlink_inos)
        u_idx = np.concatenate(unlink_idx)
        if c_ino.size == 0 or u_ino.size == 0:
            return np.empty(0, dtype=np.int64)
        # first create index per ino (record order == ascending index order)
        uniq_c, first_pos = np.unique(c_ino, return_index=True)
        first_create = c_idx[first_pos]
        # last unlink index per ino (stable sort keeps index order per group)
        order = np.argsort(u_ino, kind="stable")
        sorted_u = u_ino[order]
        sorted_u_idx = u_idx[order]
        uniq_u, group_start = np.unique(sorted_u, return_index=True)
        group_end = np.r_[group_start[1:], sorted_u.size] - 1
        last_unlink = sorted_u_idx[group_end]
        common, c_pos, u_pos = np.intersect1d(
            uniq_c, uniq_u, assume_unique=True, return_indices=True
        )
        # strict ordering: some unlink must come after the first create
        return common[last_unlink[u_pos] > first_create[c_pos]]

    def estimated_bytes(self) -> int:
        """On-disk footprint estimate (Lustre changelog records ≈ 64 B)."""
        return 64 * len(self)


#: FileSystem public methods attach_changelog wraps directly.
WRAPPED_METHODS = frozenset({
    "create", "create_many", "mkdir",
    "unlink", "unlink_many", "unlink_inodes", "rmdir",
    "read", "read_many", "write", "write_many", "chown",
})

#: Methods that mutate only by delegating to a wrapped method through
#: instance-attribute dispatch (``self.mkdir`` / ``self.unlink``), so the
#: patched wrappers see every one of their events.
DELEGATING_METHODS = frozenset({"makedirs", "unlink_inode"})

#: Public methods that never touch inode state: pure queries, plus
#: ``setstripe``, which only edits the per-directory striping *default*
#: consulted at create time (no existing inode changes).
EXEMPT_METHODS = frozenset({"stat", "getstripe", "setstripe"})


def unclassified_methods(fs_cls) -> list[str]:
    """Public callables on ``fs_cls`` not covered by the changelog contract.

    The completeness guard: every public method must be wrapped, delegate
    to a wrapped method, or be explicitly exempt.  A new mutating method
    that is none of these makes :func:`attach_changelog` and
    :class:`~repro.synth.trace.TraceRecorder` fail loudly instead of
    silently missing its events (the ``unlink_inodes`` purge bypass, once
    in each).
    """
    classified = WRAPPED_METHODS | DELEGATING_METHODS | EXEMPT_METHODS
    missing = []
    for name in dir(fs_cls):
        if name.startswith("_") or name in classified:
            continue
        if callable(getattr(fs_cls, name, None)):
            missing.append(name)
    return sorted(missing)


def attach_changelog(fs) -> Changelog:
    """Instrument a :class:`~repro.fs.filesystem.FileSystem` in place.

    Wraps the mutating entry points so every namespace/data/access event
    lands in the returned :class:`Changelog`.  Monkey-patching (rather than
    a subclass) keeps the default file system changelog-free, like the real
    Spider II — the overhead exists only when someone asks for it.

    Raises :class:`RuntimeError` if the file system exposes a public method
    the wrapping contract does not account for.
    """
    missing = unclassified_methods(type(fs))
    if missing:
        raise RuntimeError(
            "attach_changelog does not cover public method(s) "
            f"{missing}; classify them as wrapped, delegating, or exempt "
            "in repro.fs.changelog so their events cannot bypass the log"
        )

    log = Changelog()

    orig_create_many = fs.create_many
    orig_create = fs.create
    orig_mkdir = fs.mkdir
    orig_unlink = fs.unlink
    orig_unlink_many = fs.unlink_many
    orig_unlink_inodes = fs.unlink_inodes
    orig_rmdir = fs.rmdir
    orig_read_many = fs.read_many
    orig_read = fs.read
    orig_write_many = fs.write_many
    orig_write = fs.write
    orig_chown = fs.chown

    def create(parent, name, uid, gid, timestamp=None, stripe_count=None,
               perm=0o664):
        ino = orig_create(parent, name, uid, gid, timestamp, stripe_count, perm)
        log.record(ChangeKind.CREATE, ino, int(fs.inodes.ctime[ino]))
        return ino

    def create_many(parent, names, uid, gid, timestamps, stripe_count=None,
                    perm=0o664):
        inos = orig_create_many(parent, names, uid, gid, timestamps,
                                stripe_count, perm)
        log.record_many(ChangeKind.CREATE, inos, fs.inodes.ctime[inos])
        return inos

    def mkdir(parent, name, uid, gid, timestamp=None, perm=0o775):
        ino = orig_mkdir(parent, name, uid, gid, timestamp, perm)
        log.record(ChangeKind.MKDIR, ino, int(fs.inodes.ctime[ino]))
        return ino

    def unlink(parent, name, timestamp=None):
        ino = fs.namespace.child(parent, name)
        orig_unlink(parent, name, timestamp)
        ts = fs.clock.now if timestamp is None else int(timestamp)
        log.record(ChangeKind.UNLINK, ino, ts)

    def unlink_many(parent, names, timestamp=None):
        inos = [fs.namespace.child(parent, n) for n in names]
        orig_unlink_many(parent, names, timestamp)
        ts = fs.clock.now if timestamp is None else int(timestamp)
        log.record_many(ChangeKind.UNLINK, np.asarray(inos, dtype=np.int64), ts)

    def unlink_inodes(inos, timestamp=None):
        # the purge sweep's hot path: every victim must hit the log, or the
        # largest deletion source on the system goes dark (§4.2.3's purge
        # share would be invisible to any changelog consumer)
        victims = np.asarray(inos, dtype=np.int64).copy()
        orig_unlink_inodes(victims, timestamp)
        ts = fs.clock.now if timestamp is None else int(timestamp)
        log.record_many(ChangeKind.UNLINK, victims, ts)

    def rmdir(parent, name, timestamp=None):
        ino = fs.namespace.child(parent, name)
        orig_rmdir(parent, name, timestamp)
        ts = fs.clock.now if timestamp is None else int(timestamp)
        log.record(ChangeKind.RMDIR, ino, ts)

    def read(ino, timestamp=None):
        orig_read(ino, timestamp)
        ts = fs.clock.now if timestamp is None else int(timestamp)
        log.record(ChangeKind.READ, ino, ts)

    def read_many(inos, timestamps):
        orig_read_many(inos, timestamps)
        log.record_many(ChangeKind.READ, np.asarray(inos, dtype=np.int64),
                        timestamps)

    def write(ino, timestamp=None):
        orig_write(ino, timestamp)
        ts = fs.clock.now if timestamp is None else int(timestamp)
        log.record(ChangeKind.WRITE, ino, ts)

    def write_many(inos, timestamps):
        orig_write_many(inos, timestamps)
        log.record_many(ChangeKind.WRITE, np.asarray(inos, dtype=np.int64),
                        timestamps)

    def chown(ino, uid, gid, timestamp=None):
        orig_chown(ino, uid, gid, timestamp)
        ts = fs.clock.now if timestamp is None else int(timestamp)
        log.record(ChangeKind.SETATTR, ino, ts)

    fs.create = create
    fs.create_many = create_many
    fs.mkdir = mkdir
    fs.unlink = unlink
    fs.unlink_many = unlink_many
    fs.unlink_inodes = unlink_inodes
    fs.rmdir = rmdir
    fs.read = read
    fs.read_many = read_many
    fs.write = write
    fs.write_many = write_many
    fs.chown = chown
    return log
