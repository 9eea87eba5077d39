"""Structure-of-arrays inode table.

The metadata study only ever touches POSIX attributes plus the Lustre stripe
layout, so the inode table stores exactly those fields, column-wise in NumPy
arrays.  Column storage makes the LustreDU scan (which must export every
attribute of up to millions of inodes) a handful of vectorized gathers
instead of a per-object attribute walk.
"""

from __future__ import annotations

import numpy as np

from repro.fs.errors import InvalidArgument, NotFound

# File type bits, matching the octal MODE field of LustreDU records
# (e.g. ``100664`` for a regular file — Figure 2 of the paper).
S_IFREG = 0o100000
S_IFDIR = 0o040000
S_IFMT = 0o170000

DEFAULT_FILE_PERM = 0o664
DEFAULT_DIR_PERM = 0o775

_INITIAL_CAPACITY = 1024


class InodeTable:
    """Growable SoA inode table with an explicit free list.

    Inode numbers are indices into the column arrays.  Inode 0 is reserved as
    the "nil" parent of the root directory; allocation starts at 1, which also
    means a zero entry in any inode-number array unambiguously means "none".
    """

    def __init__(self, capacity: int = _INITIAL_CAPACITY) -> None:
        capacity = max(int(capacity), 16)
        self.mode = np.zeros(capacity, dtype=np.uint32)
        self.uid = np.zeros(capacity, dtype=np.int32)
        self.gid = np.zeros(capacity, dtype=np.int32)
        self.atime = np.zeros(capacity, dtype=np.int64)
        self.mtime = np.zeros(capacity, dtype=np.int64)
        self.ctime = np.zeros(capacity, dtype=np.int64)
        # Lustre layout: how many OSTs the file is striped over and the index
        # of the first OST.  The full OST list is derived on demand.
        self.stripe_count = np.zeros(capacity, dtype=np.int32)
        self.stripe_start = np.zeros(capacity, dtype=np.int32)
        self.allocated = np.zeros(capacity, dtype=bool)
        self._free: list[int] = []
        self._next = 1  # inode 0 reserved
        self._live = 0

    # -- capacity -------------------------------------------------------

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
        for name in (
            "mode",
            "uid",
            "gid",
            "atime",
            "mtime",
            "ctime",
            "stripe_count",
            "stripe_start",
            "allocated",
        ):
            old = getattr(self, name)
            grown = np.zeros(new_cap, dtype=old.dtype)
            grown[:cap] = old
            setattr(self, name, grown)

    # -- allocation -----------------------------------------------------

    def alloc(
        self,
        mode: int,
        uid: int,
        gid: int,
        timestamp: int,
        stripe_count: int = 0,
        stripe_start: int = 0,
    ) -> int:
        """Allocate a single inode; all three timestamps start equal."""
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

    def alloc_many(
        self,
        count: int,
        mode: int,
        uid: int,
        gid: int,
        timestamps: np.ndarray | int,
        stripe_counts: np.ndarray | int = 0,
        stripe_starts: np.ndarray | int = 0,
    ) -> np.ndarray:
        """Allocate ``count`` inodes in one vectorized step.

        Freed inode numbers are recycled first, then fresh ones are taken
        from the tail.  Returns the inode numbers as an int64 array.
        """
        if count <= 0:
            raise InvalidArgument(f"count must be positive, got {count}")
        free = self._free
        reuse = min(len(free), count)
        start = self._next
        self._next = start + count - reuse
        self._grow_to(self._next)
        if reuse:
            inos = np.empty(count, dtype=np.int64)
            inos[:reuse] = free[-reuse:]
            del free[-reuse:]
            inos[reuse:] = np.arange(start, self._next, dtype=np.int64)
            at = inos
        else:
            # one fresh run: every column write is a slice
            inos = np.arange(start, self._next, dtype=np.int64)
            at = slice(start, self._next)
        self.mode[at] = mode
        self.uid[at] = uid
        self.gid[at] = gid
        self.atime[at] = timestamps
        self.mtime[at] = timestamps
        self.ctime[at] = timestamps
        self.stripe_count[at] = stripe_counts
        self.stripe_start[at] = stripe_starts
        self.allocated[at] = True
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
        if np.count_nonzero(self.allocated[inos]) != inos.size:
            raise NotFound("free_many: some inodes are not allocated")
        self.allocated[inos] = False
        self._free.extend(inos.tolist())
        self._live -= inos.size

    # -- queries --------------------------------------------------------

    def _check(self, ino: int) -> None:
        if ino <= 0 or ino >= self._next or not self.allocated[ino]:
            raise NotFound(f"inode {ino} is not allocated")

    def is_allocated(self, ino: int) -> bool:
        return 0 < ino < self._next and bool(self.allocated[ino])

    def is_dir(self, ino: int) -> bool:
        self._check(ino)
        return (int(self.mode[ino]) & S_IFMT) == S_IFDIR

    def is_file(self, ino: int) -> bool:
        self._check(ino)
        return (int(self.mode[ino]) & S_IFMT) == S_IFREG

    @property
    def live_count(self) -> int:
        """Number of currently allocated inodes."""
        return self._live

    @property
    def high_watermark(self) -> int:
        """One past the largest inode number ever allocated."""
        return self._next

    def live_inodes(self) -> np.ndarray:
        """Inode numbers of all allocated entries, ascending."""
        return np.flatnonzero(self.allocated[: self._next]).astype(np.int64)

    # -- timestamp semantics ---------------------------------------------

    def touch_read(self, inos: np.ndarray | int, timestamp: int) -> None:
        """A read access: updates atime only (POSIX relatime disabled)."""
        self.atime[inos] = np.maximum(self.atime[inos], timestamp)

    def touch_write(self, inos: np.ndarray | int, timestamp: int) -> None:
        """A data write: updates mtime and ctime (atime untouched)."""
        self.mtime[inos] = timestamp
        self.ctime[inos] = timestamp

    def touch_meta(self, inos: np.ndarray | int, timestamp: int) -> None:
        """A metadata change (chmod/chown/rename): updates ctime only."""
        self.ctime[inos] = timestamp

    def stat(self, ino: int) -> dict:
        """Return the POSIX view of one inode as a plain dict."""
        self._check(ino)
        return {
            "ino": int(ino),
            "mode": int(self.mode[ino]),
            "uid": int(self.uid[ino]),
            "gid": int(self.gid[ino]),
            "atime": int(self.atime[ino]),
            "mtime": int(self.mtime[ino]),
            "ctime": int(self.ctime[ino]),
            "stripe_count": int(self.stripe_count[ino]),
            "stripe_start": int(self.stripe_start[ino]),
        }
