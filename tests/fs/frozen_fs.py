"""A frozen copy of the file-system primitives as they were before their
per-call overhead was cut: ``InodeTable``, ``Namespace``, ``OstAllocator``
and ``FileSystem``, reduced to the operations
``test_fs_reference.py`` drives and compares.

It is the reference those primitives must match operation for operation;
do not optimise it.  It leaks on a refused ``create_many`` (quota, OST
cursor and inode numbers are taken before the names are checked), so only
valid sequences are compared against it.
"""

from __future__ import annotations

import numpy as np

from repro.fs.clock import SimClock
from repro.fs.errors import (
    FileExistsError_,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
    NotFound,
)
from repro.fs.inode import (
    DEFAULT_DIR_PERM,
    DEFAULT_FILE_PERM,
    S_IFDIR,
    S_IFMT,
    S_IFREG,
)
from repro.fs.quota import QuotaManager

COLUMNS = ("mode", "uid", "gid", "atime", "mtime", "ctime", "stripe_count",
           "stripe_start", "allocated")


class InodeTable:
    def __init__(self, capacity: int = 1024) -> None:
        capacity = max(int(capacity), 16)
        self.mode = np.zeros(capacity, dtype=np.uint32)
        self.uid = np.zeros(capacity, dtype=np.int32)
        self.gid = np.zeros(capacity, dtype=np.int32)
        self.atime = np.zeros(capacity, dtype=np.int64)
        self.mtime = np.zeros(capacity, dtype=np.int64)
        self.ctime = np.zeros(capacity, dtype=np.int64)
        self.stripe_count = np.zeros(capacity, dtype=np.int32)
        self.stripe_start = np.zeros(capacity, dtype=np.int32)
        self.allocated = np.zeros(capacity, dtype=bool)
        self._free: list[int] = []
        self._next = 1
        self._live = 0

    @property
    def capacity(self) -> int:
        return self.mode.shape[0]

    def _grow_to(self, needed: int) -> None:
        cap = self.capacity
        if needed <= cap:
            return
        new_cap = cap
        while new_cap < needed:
            new_cap *= 2
        for name in COLUMNS:
            old = getattr(self, name)
            grown = np.zeros(new_cap, dtype=old.dtype)
            grown[:cap] = old
            setattr(self, name, grown)

    def alloc(self, mode, uid, gid, timestamp, stripe_count=0, stripe_start=0) -> int:
        if self._free:
            ino = self._free.pop()
        else:
            ino = self._next
            self._next += 1
            self._grow_to(self._next)
        self.mode[ino] = mode
        self.uid[ino] = uid
        self.gid[ino] = gid
        self.atime[ino] = timestamp
        self.mtime[ino] = timestamp
        self.ctime[ino] = timestamp
        self.stripe_count[ino] = stripe_count
        self.stripe_start[ino] = stripe_start
        self.allocated[ino] = True
        self._live += 1
        return ino

    def alloc_many(self, count, mode, uid, gid, timestamps, stripe_counts=0,
                   stripe_starts=0) -> np.ndarray:
        if count <= 0:
            raise InvalidArgument(f"count must be positive, got {count}")
        reuse = min(len(self._free), count)
        inos = np.empty(count, dtype=np.int64)
        if reuse:
            inos[:reuse] = self._free[-reuse:]
            del self._free[-reuse:]
        fresh = count - reuse
        if fresh:
            start = self._next
            self._next += fresh
            self._grow_to(self._next)
            inos[reuse:] = np.arange(start, start + fresh, dtype=np.int64)
        self.mode[inos] = mode
        self.uid[inos] = uid
        self.gid[inos] = gid
        self.atime[inos] = timestamps
        self.mtime[inos] = timestamps
        self.ctime[inos] = timestamps
        self.stripe_count[inos] = stripe_counts
        self.stripe_start[inos] = stripe_starts
        self.allocated[inos] = True
        self._live += count
        return inos

    def free(self, ino: int) -> None:
        self._check(ino)
        self.allocated[ino] = False
        self._free.append(int(ino))
        self._live -= 1

    def free_many(self, inos: np.ndarray) -> None:
        inos = np.asarray(inos, dtype=np.int64)
        if inos.size == 0:
            return
        if not self.allocated[inos].all():
            raise NotFound("free_many: some inodes are not allocated")
        self.allocated[inos] = False
        self._free.extend(int(i) for i in inos)
        self._live -= int(inos.size)

    def _check(self, ino: int) -> None:
        if ino <= 0 or ino >= self._next or not self.allocated[ino]:
            raise NotFound(f"inode {ino} is not allocated")

    def is_allocated(self, ino: int) -> bool:
        return 0 < ino < self._next and bool(self.allocated[ino])

    def is_dir(self, ino: int) -> bool:
        self._check(ino)
        return (int(self.mode[ino]) & S_IFMT) == S_IFDIR

    @property
    def live_count(self) -> int:
        return self._live

    @property
    def high_watermark(self) -> int:
        return self._next

    def live_inodes(self) -> np.ndarray:
        return np.flatnonzero(self.allocated[: self._next]).astype(np.int64)

    def touch_write(self, inos, timestamp: int) -> None:
        self.mtime[inos] = timestamp
        self.ctime[inos] = timestamp


def _validate_name(name: str) -> None:
    if not name or "/" in name or name in (".", ".."):
        raise InvalidArgument(f"illegal entry name {name!r}")


class Namespace:
    def __init__(self, inodes: InodeTable, root_uid=0, root_gid=0, timestamp=0) -> None:
        self.inodes = inodes
        self._parent = np.zeros(inodes.capacity, dtype=np.int64)
        self._name: list[str | None] = [None] * inodes.capacity
        self._children: dict[int, dict[str, int]] = {}
        self.root = inodes.alloc(S_IFDIR | DEFAULT_DIR_PERM, root_uid, root_gid, timestamp)
        self._ensure_capacity(self.root + 1)
        self._name[self.root] = "/"
        self._children[self.root] = {}

    def _ensure_capacity(self, needed: int) -> None:
        cap = self._parent.shape[0]
        if needed <= cap:
            return
        new_cap = cap
        while new_cap < needed:
            new_cap *= 2
        grown = np.zeros(new_cap, dtype=np.int64)
        grown[:cap] = self._parent
        self._parent = grown
        self._name.extend([None] * (new_cap - cap))

    def _require_dir(self, ino: int) -> dict[str, int]:
        if not self.inodes.is_allocated(ino):
            raise NotFound(f"inode {ino} does not exist")
        entries = self._children.get(ino)
        if entries is None:
            raise NotADirectory(f"inode {ino} is not a directory")
        return entries

    def is_dir(self, ino: int) -> bool:
        return ino in self._children

    def link(self, parent: int, name: str, child: int) -> None:
        _validate_name(name)
        entries = self._require_dir(parent)
        if name in entries:
            raise FileExistsError_(f"{name!r} already exists in inode {parent}")
        entries[name] = child
        self._ensure_capacity(child + 1)
        self._parent[child] = parent
        self._name[child] = name
        if self.inodes.is_dir(child):
            self._children.setdefault(child, {})

    def link_many(self, parent: int, names: list[str], children: np.ndarray) -> None:
        entries = self._require_dir(parent)
        if len(names) != len(children):
            raise InvalidArgument("names and children length mismatch")
        if not names:
            return
        for name in names:
            _validate_name(name)
        fresh = dict(zip(names, (int(c) for c in children)))
        if len(fresh) != len(names):
            raise FileExistsError_("duplicate names within one link_many batch")
        clash = entries.keys() & fresh.keys()
        if clash:
            raise FileExistsError_(f"{len(clash)} names already exist")
        entries.update(fresh)
        children = np.asarray(children, dtype=np.int64)
        self._ensure_capacity(int(children.max()) + 1)
        self._parent[children] = parent
        for name, child in fresh.items():
            self._name[child] = name

    def child(self, parent: int, name: str) -> int | None:
        return self._require_dir(parent).get(name)

    def parents_of(self, inos: np.ndarray) -> np.ndarray:
        return self._parent[np.asarray(inos, dtype=np.int64)]

    def unlink_inodes(self, inos: np.ndarray) -> None:
        inos = np.asarray(inos, dtype=np.int64)
        if inos.size == 0:
            return
        if np.unique(inos).size != inos.size:
            raise InvalidArgument("duplicate inodes in unlink batch")
        removals: list[tuple[dict[str, int], str]] = []
        for ino in inos:
            ino = int(ino)
            if ino in self._children:
                raise IsADirectory(f"inode {ino} is a directory; use rmdir")
            name = self._name[ino]
            if name is None or ino == self.root:
                raise NotFound(f"inode {ino} is not linked")
            removals.append((self._children[int(self._parent[ino])], name))
        for entries, name in removals:
            del entries[name]
        for ino in inos:
            self._name[int(ino)] = None
        self._parent[inos] = 0

    def linked_mask(self, inos: np.ndarray) -> np.ndarray:
        inos = np.asarray(inos, dtype=np.int64)
        mask = self._parent[inos] != 0
        mask |= inos == self.root
        return mask

    def walk(self, start: int | None = None):
        children = self._children
        stack = [self.root if start is None else start]
        while stack:
            ino = stack.pop()
            entries = children.get(ino)
            if entries is None:
                continue
            for name, child in entries.items():
                yield child, ino, name
                if child in children:
                    stack.append(child)

    @property
    def dir_count(self) -> int:
        return len(self._children)


class OstAllocator:
    def __init__(self, ost_count=2016, default_stripe=4, max_stripe=1008) -> None:
        self.ost_count = int(ost_count)
        self.default_stripe = int(default_stripe)
        self.max_stripe = int(min(max_stripe, ost_count))
        self._cursor = 0

    def validate(self, stripe_count: int) -> int:
        if stripe_count == -1:
            return self.max_stripe
        if not (1 <= stripe_count <= self.max_stripe):
            raise InvalidArgument(f"stripe count {stripe_count} outside [1, {self.max_stripe}]")
        return int(stripe_count)

    def assign_many(self, stripe_counts: np.ndarray) -> np.ndarray:
        stripe_counts = np.asarray(stripe_counts, dtype=np.int64)
        if stripe_counts.size == 0:
            return np.empty(0, dtype=np.int64)
        if (stripe_counts < 1).any() or (stripe_counts > self.max_stripe).any():
            raise InvalidArgument("stripe counts outside the allowed range")
        ends = np.cumsum(stripe_counts)
        starts = (self._cursor + ends - stripe_counts) % self.ost_count
        self._cursor = (self._cursor + int(ends[-1])) % self.ost_count
        return starts


class FileSystem:
    def __init__(self, clock=None, ost_count=2016, default_stripe=4, max_stripe=1008,
                 quota=None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.inodes = InodeTable()
        self.namespace = Namespace(self.inodes, timestamp=self.clock.now)
        self.osts = OstAllocator(ost_count, default_stripe, max_stripe)
        self.quota = quota if quota is not None else QuotaManager()
        self._dir_stripe: dict[int, int] = {}
        self.files_created = 0
        self.files_deleted = 0

    def mkdir(self, parent, name, uid, gid, timestamp=None, perm=DEFAULT_DIR_PERM) -> int:
        ts = self.clock.now if timestamp is None else int(timestamp)
        self.quota.charge(gid, 1)
        ino = self.inodes.alloc(S_IFDIR | perm, uid, gid, ts)
        self.namespace.link(parent, name, ino)
        self.inodes.touch_write(parent, ts)
        return ino

    def setstripe(self, dir_ino: int, stripe_count: int) -> None:
        if not self.namespace.is_dir(dir_ino):
            raise NotFound(f"inode {dir_ino} is not a directory")
        self._dir_stripe[dir_ino] = self.osts.validate(stripe_count)

    def getstripe(self, dir_ino: int) -> int:
        return self._dir_stripe.get(dir_ino, self.osts.default_stripe)

    def create_many(self, parent, names, uid, gid, timestamps, stripe_count=None,
                    perm=DEFAULT_FILE_PERM) -> np.ndarray:
        n = len(names)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        stripes = (
            self.getstripe(parent) if stripe_count is None
            else self.osts.validate(stripe_count)
        )
        self.quota.charge(gid, n)
        starts = self.osts.assign_many(np.full(n, stripes, dtype=np.int64))
        inos = self.inodes.alloc_many(
            n, S_IFREG | perm, uid, gid, timestamps, stripes, starts
        )
        self.namespace.link_many(parent, names, inos)
        ts_max = int(np.max(timestamps)) if np.ndim(timestamps) else int(timestamps)
        self.inodes.touch_write(parent, ts_max)
        self.files_created += n
        return inos

    def unlink_many(self, parent, names, timestamp=None) -> None:
        ts = self.clock.now if timestamp is None else int(timestamp)
        if not names:
            return
        inos = np.empty(len(names), dtype=np.int64)
        for i, name in enumerate(names):
            ino = self.namespace.child(parent, name)
            if ino is None:
                raise NotFound(f"{name!r} not found in inode {parent}")
            inos[i] = ino
        self.namespace.unlink_inodes(inos)
        self._drop_unlinked(inos, parent, ts)

    def unlink_inodes(self, inos, timestamp=None) -> None:
        ts = self.clock.now if timestamp is None else int(timestamp)
        inos = np.asarray(inos, dtype=np.int64)
        if inos.size == 0:
            return
        parents = self.namespace.parents_of(inos)
        self.namespace.unlink_inodes(inos)
        self._drop_unlinked(inos, np.unique(parents), ts)

    def _drop_unlinked(self, inos, parents, ts) -> None:
        gids, counts = np.unique(self.inodes.gid[inos], return_counts=True)
        for gid, count in zip(gids, counts):
            self.quota.refund(int(gid), int(count))
        self.inodes.free_many(inos)
        self.inodes.touch_write(parents, ts)
        self.files_deleted += int(inos.size)

    @property
    def entry_count(self) -> int:
        return self.inodes.live_count

    @property
    def file_count(self) -> int:
        return self.inodes.live_count - self.namespace.dir_count
