"""FileSystem facade — the simulated Spider II scratch system.

Binds the inode table, namespace, OST allocator, clock, and quota manager
into the POSIX-flavored API the workload models drive:

* ``mkdir`` / ``makedirs`` — directory creation (mtime/ctime of the parent
  are bumped, as a real VFS would);
* ``create`` / ``create_many`` — regular-file creation with Lustre striping;
* ``read`` / ``write`` / ``overwrite_many`` — timestamp semantics only (no
  data is stored; LustreDU records carry no size, §2.2 of the paper);
* ``unlink`` / ``unlink_many`` / ``unlink_inodes`` — deletion, freeing
  inodes and refunding quota;
* ``setstripe`` — per-directory default stripe count, inherited at create
  time like ``lfs setstripe`` on a directory.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.fs.clock import SimClock
from repro.fs.errors import InvalidArgument, IsADirectory, NotFound
from repro.fs.inode import (
    DEFAULT_DIR_PERM,
    DEFAULT_FILE_PERM,
    S_IFDIR,
    S_IFREG,
    InodeTable,
)
from repro.fs.namespace import Namespace
from repro.fs.ost import OstAllocator
from repro.fs.quota import QuotaManager


class FileSystem:
    """In-memory Lustre-like parallel file system."""

    def __init__(
        self,
        clock: SimClock | None = None,
        ost_count: int = 2016,
        default_stripe: int = 4,
        max_stripe: int = 1008,
        quota: QuotaManager | None = None,
    ) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.inodes = InodeTable()
        self.namespace = Namespace(self.inodes, timestamp=self.clock.now)
        self.osts = OstAllocator(ost_count, default_stripe, max_stripe)
        self.quota = quota if quota is not None else QuotaManager()
        # per-directory default stripe count (``lfs setstripe`` on a dir)
        self._dir_stripe: dict[int, int] = {}
        # running counters, kept incrementally so status queries are O(1)
        self.files_created = 0
        self.files_deleted = 0

    # -- directories -----------------------------------------------------

    def mkdir(
        self,
        parent: int,
        name: str,
        uid: int,
        gid: int,
        timestamp: int | None = None,
        perm: int = DEFAULT_DIR_PERM,
    ) -> int:
        ts = self.clock.now if timestamp is None else int(timestamp)
        self.quota.charge(gid, 1)
        ino = self.inodes.alloc(S_IFDIR | perm, uid, gid, ts)
        self.namespace.link(parent, name, ino)
        self.inodes.touch_write(parent, ts)
        return ino

    def makedirs(
        self,
        path: str,
        uid: int,
        gid: int,
        timestamp: int | None = None,
    ) -> int:
        """Create all missing components of an absolute path; returns the leaf."""
        if not path.startswith("/"):
            raise InvalidArgument(f"path must be absolute, got {path!r}")
        ino = self.namespace.root
        for part in path.split("/"):
            if not part:
                continue
            child = self.namespace.child(ino, part)
            if child is None:
                child = self.mkdir(ino, part, uid, gid, timestamp)
            ino = child
        return ino

    def setstripe(self, dir_ino: int, stripe_count: int) -> None:
        """Set the default stripe count inherited by files created in ``dir_ino``."""
        if not self.namespace.is_dir(dir_ino):
            raise NotFound(f"inode {dir_ino} is not a directory")
        self._dir_stripe[dir_ino] = self.osts.validate(stripe_count)

    def getstripe(self, dir_ino: int) -> int:
        """Effective default stripe count for files created in ``dir_ino``."""
        return self._dir_stripe.get(dir_ino, self.osts.default_stripe)

    # -- files -----------------------------------------------------------

    def create(
        self,
        parent: int,
        name: str,
        uid: int,
        gid: int,
        timestamp: int | None = None,
        stripe_count: int | None = None,
        perm: int = DEFAULT_FILE_PERM,
    ) -> int:
        ts = self.clock.now if timestamp is None else int(timestamp)
        stripes = (
            self.getstripe(parent) if stripe_count is None
            else self.osts.validate(stripe_count)
        )
        self.quota.charge(gid, 1)
        start = self.osts.assign(stripes)
        ino = self.inodes.alloc(S_IFREG | perm, uid, gid, ts, stripes, start)
        self.namespace.link(parent, name, ino)
        self.inodes.touch_write(parent, ts)
        self.files_created += 1
        return ino

    def create_many(
        self,
        parent: int,
        names: list[str],
        uid: int,
        gid: int,
        timestamps: np.ndarray | int,
        stripe_count: int | None = None,
        perm: int = DEFAULT_FILE_PERM,
    ) -> np.ndarray:
        """Vectorized creation of a batch of files in one directory.

        This is the hot path of the workload driver — a bursty checkpoint
        writes thousands of files into one directory in one simulated
        session — so inode allocation, striping, and timestamps are all done
        array-wise.  A bad batch — an illegal, repeated or existing name,
        or timestamps that are neither one stamp nor one per name — raises
        before anything changes: no quota charged, no OST cursor moved, no
        inode number taken.
        """
        n = len(names)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        stripes = (
            self.getstripe(parent) if stripe_count is None
            else self.osts.validate(stripe_count)
        )
        entries = self.namespace.check_names(parent, names)
        stamps = np.asarray(timestamps, dtype=np.int64)
        if stamps.ndim and stamps.shape != (n,):
            raise InvalidArgument(
                f"timestamps of shape {stamps.shape} for {n} names"
            )
        self.quota.charge(gid, n)
        starts = self.osts.assign_many(stripes, n)
        inos = self.inodes.alloc_many(
            n, S_IFREG | perm, uid, gid, stamps, stripes, starts
        )
        # nothing between the check and here touches the namespace
        self.namespace._link_checked(entries, parent, names, inos)
        self.inodes.touch_write(parent, int(stamps.max() if stamps.ndim else stamps))
        self.files_created += n
        return inos

    def read(self, ino: int, timestamp: int | None = None) -> None:
        """Read access: bumps atime."""
        ts = self.clock.now if timestamp is None else int(timestamp)
        if self.namespace.is_dir(ino):
            raise IsADirectory(f"inode {ino} is a directory")
        self.inodes.touch_read(ino, ts)

    def read_many(self, inos: np.ndarray, timestamps: np.ndarray | int) -> None:
        inos = np.asarray(inos, dtype=np.int64)
        if inos.size == 0:
            return
        self.inodes.atime[inos] = np.maximum(self.inodes.atime[inos], timestamps)

    def write(self, ino: int, timestamp: int | None = None) -> None:
        """Data write (update-in-place): bumps mtime and ctime."""
        ts = self.clock.now if timestamp is None else int(timestamp)
        if self.namespace.is_dir(ino):
            raise IsADirectory(f"inode {ino} is a directory")
        self.inodes.touch_write(ino, ts)

    def write_many(self, inos: np.ndarray, timestamps: np.ndarray | int) -> None:
        inos = np.asarray(inos, dtype=np.int64)
        if inos.size == 0:
            return
        self.inodes.mtime[inos] = timestamps
        self.inodes.ctime[inos] = timestamps

    def chown(self, ino: int, uid: int, gid: int, timestamp: int | None = None) -> None:
        """Ownership change: bumps ctime only."""
        ts = self.clock.now if timestamp is None else int(timestamp)
        old_gid = int(self.inodes.gid[ino])
        if old_gid != gid:
            self.quota.charge(gid, 1)
            self.quota.refund(old_gid, 1)
        self.inodes.uid[ino] = uid
        self.inodes.gid[ino] = gid
        self.inodes.touch_meta(ino, ts)

    def unlink(self, parent: int, name: str, timestamp: int | None = None) -> None:
        ts = self.clock.now if timestamp is None else int(timestamp)
        ino = self.namespace.unlink(parent, name)
        self.quota.refund(int(self.inodes.gid[ino]), 1)
        self.inodes.free(ino)
        self.inodes.touch_write(parent, ts)
        self.files_deleted += 1

    def unlink_many(self, parent: int, names: list[str], timestamp: int | None = None) -> None:
        """Delete a batch of files from one directory.

        The whole batch is resolved and validated first: a missing name, a
        directory or a name given twice raises with nothing unlinked.
        Files are freed in ``names`` order, as ``unlink`` per name would.
        """
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

    def unlink_inode(self, ino: int, timestamp: int | None = None) -> None:
        """Delete one file by inode; ``unlink_inodes`` is the batched form."""
        parent = self.namespace.parent_of(ino)
        name = self.namespace.name_of(ino)
        if name is None:
            raise NotFound(f"inode {ino} not linked")
        self.unlink(parent, name, timestamp)

    def unlink_inodes(self, inos: np.ndarray, timestamp: int | None = None) -> None:
        """Batched file deletion by inode: the purge sweep's and the
        workload models' delete path.

        Equivalent to ``unlink_inode`` per victim, in order, at one shared
        timestamp; the freed numbers join the free list in victim order, so
        later allocations recycle the same inode numbers.
        """
        ts = self.clock.now if timestamp is None else int(timestamp)
        inos = np.asarray(inos, dtype=np.int64)
        if inos.size == 0:
            return
        parents = self.namespace.unlink_inodes(inos)
        self._drop_unlinked(inos, parents, ts)

    def _drop_unlinked(
        self, inos: np.ndarray, parents: np.ndarray | int, ts: int
    ) -> None:
        """Refund, free and count files whose dentries are already gone."""
        for gid, count in Counter(self.inodes.gid[inos].tolist()).items():
            self.quota.refund(gid, count)
        self.inodes.free_many(inos)
        # a parent listed twice is stamped twice with the same time
        self.inodes.touch_write(parents, ts)
        self.files_deleted += inos.size

    def rmdir(self, parent: int, name: str, timestamp: int | None = None) -> None:
        ts = self.clock.now if timestamp is None else int(timestamp)
        ino = self.namespace.rmdir(parent, name)
        self.quota.refund(int(self.inodes.gid[ino]), 1)
        self.inodes.free(ino)
        self.inodes.touch_write(parent, ts)

    # -- queries ------------------------------------------------------------

    def stat(self, path_or_ino: str | int) -> dict:
        ino = (
            self.namespace.lookup(path_or_ino)
            if isinstance(path_or_ino, str)
            else int(path_or_ino)
        )
        info = self.inodes.stat(ino)
        info["path"] = self.namespace.path(ino)
        info["is_dir"] = self.namespace.is_dir(ino)
        return info

    @property
    def entry_count(self) -> int:
        """Live files + directories (including the root)."""
        return self.inodes.live_count

    @property
    def file_count(self) -> int:
        return self.inodes.live_count - self.namespace.dir_count

    @property
    def directory_count(self) -> int:
        return self.namespace.dir_count
