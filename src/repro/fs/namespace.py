"""Hierarchical namespace (directory tree) over the inode table.

Directory entries are stored as per-directory dicts (name → inode), and every
inode additionally carries its parent inode and its own name, so that full
paths — the primary key of a LustreDU record — can be reconstructed without
a downward search.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator

import numpy as np

from repro.fs.errors import (
    DirectoryNotEmpty,
    FileExistsError_,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
    NotFound,
)
from repro.fs.inode import DEFAULT_DIR_PERM, S_IFDIR, InodeTable


class Namespace:
    """Directory tree bound to an :class:`InodeTable`.

    The namespace does not allocate file inodes itself — that is the
    :class:`repro.fs.filesystem.FileSystem` facade's job — it only maintains
    the (parent, name) ↔ inode mapping and enforces tree invariants.
    """

    def __init__(self, inodes: InodeTable, root_uid: int = 0, root_gid: int = 0,
                 timestamp: int = 0) -> None:
        self.inodes = inodes
        # parent inode per inode; 0 = no parent (root, or non-namespace inode)
        self._parent: np.ndarray = np.zeros(inodes.capacity, dtype=np.int64)
        # entry name per inode (index-aligned with the inode table)
        self._name: list[str | None] = [None] * inodes.capacity
        # children maps, only for directories
        self._children: dict[int, dict[str, int]] = {}
        self.root = inodes.alloc(
            S_IFDIR | DEFAULT_DIR_PERM, root_uid, root_gid, timestamp
        )
        self._ensure_capacity(self.root + 1)
        self._name[self.root] = "/"
        self._children[self.root] = {}

    # -- storage alignment ------------------------------------------------

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

    # -- predicates ---------------------------------------------------------

    def _require_dir(self, ino: int) -> dict[str, int]:
        if not self.inodes.is_allocated(ino):
            raise NotFound(f"inode {ino} does not exist")
        entries = self._children.get(ino)
        if entries is None:
            raise NotADirectory(f"inode {ino} is not a directory")
        return entries

    def is_dir(self, ino: int) -> bool:
        return ino in self._children

    # -- linking ------------------------------------------------------------

    def link(self, parent: int, name: str, child: int) -> None:
        """Insert a dentry ``name`` → ``child`` under directory ``parent``."""
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

    def check_names(self, parent: int, names: list[str]) -> dict[str, int]:
        """Raise what :meth:`link_many` would raise for ``names`` under
        ``parent``, changing nothing; returns the parent's entries.

        Legality is tested once over the joined names; a batch that fails
        it goes through the per-name check, which raises that name's error.
        """
        entries = self._require_dir(parent)
        joined = f"/{'/'.join(names)}/"
        if (
            joined.count("/") != len(names) + 1
            or "//" in joined
            or "/./" in joined
            or "/../" in joined
        ):
            for name in names:
                _validate_name(name)
        if len(set(names)) != len(names):
            raise FileExistsError_("duplicate names within one link_many batch")
        if not entries.keys().isdisjoint(names):
            clash = entries.keys() & set(names)
            raise FileExistsError_(f"{len(clash)} names already exist, e.g. {next(iter(clash))!r}")
        return entries

    def link_many(self, parent: int, names: list[str], children: np.ndarray) -> None:
        """Bulk dentry insertion: the whole batch is checked, then linked."""
        if len(names) != len(children):
            raise InvalidArgument("names and children length mismatch")
        entries = self.check_names(parent, names)
        if names:
            self._link_checked(entries, parent, names, children)

    def _link_checked(
        self, entries: dict[str, int], parent: int, names: list[str],
        children: np.ndarray,
    ) -> None:
        """Link a non-empty batch :meth:`check_names` has passed into
        ``entries``, the parent's entries it returned."""
        children = np.asarray(children, dtype=np.int64)
        kids = children.tolist()
        entries.update(zip(names, kids))
        self._ensure_capacity(max(kids) + 1)
        self._parent[children] = parent
        deque(map(self._name.__setitem__, kids, names), maxlen=0)

    def unlink(self, parent: int, name: str) -> int:
        """Remove a *file* dentry; returns the unlinked inode number."""
        entries = self._require_dir(parent)
        child = entries.get(name)
        if child is None:
            raise NotFound(f"{name!r} not found in inode {parent}")
        if child in self._children:
            raise IsADirectory(f"{name!r} is a directory; use rmdir")
        del entries[name]
        self._parent[child] = 0
        self._name[child] = None
        return child

    def rmdir(self, parent: int, name: str) -> int:
        """Remove an *empty* directory dentry."""
        entries = self._require_dir(parent)
        child = entries.get(name)
        if child is None:
            raise NotFound(f"{name!r} not found in inode {parent}")
        sub = self._children.get(child)
        if sub is None:
            raise NotADirectory(f"{name!r} is not a directory")
        if sub:
            raise DirectoryNotEmpty(f"{name!r} still has {len(sub)} entries")
        del entries[name]
        del self._children[child]
        self._parent[child] = 0
        self._name[child] = None
        return child

    # -- lookup ---------------------------------------------------------------

    def lookup(self, path: str) -> int:
        """Resolve an absolute path to an inode number."""
        if not path.startswith("/"):
            raise InvalidArgument(f"path must be absolute, got {path!r}")
        ino = self.root
        for part in path.split("/"):
            if not part:
                continue
            entries = self._children.get(ino)
            if entries is None:
                raise NotADirectory(f"component before {part!r} in {path!r}")
            nxt = entries.get(part)
            if nxt is None:
                raise NotFound(f"{path!r}: component {part!r} not found")
            ino = nxt
        return ino

    def child(self, parent: int, name: str) -> int | None:
        """Inode of ``name`` under ``parent``, or ``None``."""
        return self._require_dir(parent).get(name)

    def children(self, ino: int) -> dict[str, int]:
        """Read-only view of a directory's entries (copy)."""
        return dict(self._require_dir(ino))

    def child_count(self, ino: int) -> int:
        return len(self._require_dir(ino))

    def parent_of(self, ino: int) -> int:
        return int(self._parent[ino])

    def unlink_inodes(self, inos: np.ndarray) -> np.ndarray:
        """Batched *file* dentry removal (the purge sweep's hot path).

        Validates the whole batch before mutating anything, so a bad inode
        leaves the namespace untouched.  The per-dentry dict deletions are
        unavoidable (they are hash-map removals); the checks run over plain
        lists and the parent pointers are reset array-wise.  Returns each
        inode's former parent.
        """
        inos = np.asarray(inos, dtype=np.int64)
        batch = inos.tolist()
        if len(set(batch)) != len(batch):
            raise InvalidArgument("duplicate inodes in unlink batch")
        parents = self._parent[inos]
        names = self._name
        children = self._children
        removals: list[tuple[dict[str, int], str]] = []
        for ino, parent in zip(batch, parents.tolist()):
            if ino in children:
                raise IsADirectory(f"inode {ino} is a directory; use rmdir")
            name = names[ino]
            if name is None or ino == self.root:
                raise NotFound(f"inode {ino} is not linked")
            removals.append((children[parent], name))
        for entries, name in removals:
            del entries[name]
        for ino in batch:
            names[ino] = None
        self._parent[inos] = 0
        return parents

    def linked_mask(self, inos: np.ndarray) -> np.ndarray:
        """Vectorized: which of these inodes are linked into the tree.

        The root reports linked; everything else is linked iff it has a
        parent pointer (unlinked inodes get their parent reset to 0).
        """
        inos = np.asarray(inos, dtype=np.int64)
        mask = self._parent[inos] != 0
        mask |= inos == self.root
        return mask

    def name_of(self, ino: int) -> str | None:
        return self._name[ino]

    # -- paths ------------------------------------------------------------------

    def path(self, ino: int) -> str:
        """Reconstruct the absolute path of an inode."""
        if ino == self.root:
            return "/"
        parts: list[str] = []
        cur = ino
        while cur != self.root:
            name = self._name[cur]
            if name is None:
                raise NotFound(f"inode {ino} is not linked into the namespace")
            parts.append(name)
            cur = int(self._parent[cur])
        parts.reverse()
        return "/" + "/".join(parts)

    def depth(self, ino: int) -> int:
        """Number of path components below the root (root itself is 0)."""
        d = 0
        cur = ino
        while cur != self.root:
            parent = int(self._parent[cur])
            if parent == 0 and cur != self.root:
                raise NotFound(f"inode {ino} is not linked into the namespace")
            d += 1
            cur = parent
        return d

    # -- traversal ------------------------------------------------------------

    def walk(self, start: int | None = None) -> Iterator[tuple[int, int, str]]:
        """Depth-first traversal yielding ``(inode, parent inode, name)``.

        Every directory's entries come out before anything below them, so
        a parent is yielded before its children; the walk builds no path
        string (:meth:`path` does, on demand).  The root itself, and
        ``start``, are not yielded: the scan exports only entries below
        it, matching LustreDU which scans from the file system mount point.
        """
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

    def iter_dirs(self) -> Iterator[int]:
        """All live directory inodes, including the root."""
        return iter(self._children.keys())

    @property
    def dir_count(self) -> int:
        """Number of live directories, including the root."""
        return len(self._children)


def _validate_name(name: str) -> None:
    if not name or "/" in name or name in (".", ".."):
        raise InvalidArgument(f"illegal entry name {name!r}")
