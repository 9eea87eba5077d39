"""Collection-wide path interning, as a tree of ``(parent, name)`` pairs.

The same file appears in dozens of weekly snapshots; interning each
distinct path once and letting snapshots carry integer path ids turns the
paper's week-over-week set algebra ("intersection pathnames", §4.2.3) into
sorted-integer operations and cuts memory by the snapshot count.

The table stores no full path.  Like Robinhood's database (PAPERS.md),
which names an entry by its parent's id plus its own name, every string is
a *node*: a name under a parent node.  The decomposition is canonical — a
string's parent is its text up to the last ``/`` and its name the rest; a
string without a ``/`` (the root ``""`` among them) has no parent — so a
path reached as a full string and the same path reached as a pair are one
node.  Nodes that no snapshot row names (the root, a directory an ingest
dump never lists) are internal: they carry no path id.  Path ids are dense
and handed out in first-occurrence order of the rows interned, exactly as
a flat string table would hand them out.

Per-path *derived* attributes — component depth, file extension and the
path's length in characters — are computed once, when a path gets its id:
depth from the parent's ``/`` count, the extension from the name.  A full
string is built only when a caller asks for it (:meth:`PathTable.path_of`,
:meth:`PathTable.paths_of`: the PSV writer, the purge list, the path-block
encoder's rows whose parent is outside the block).

:meth:`PathTable.intern_rows` is the only code that assigns ids.  It takes
a block of :class:`PathRows` — each row a name under an earlier row, under
a directory string, or a ``/``-free string — which is what the scanner,
the path-block decoder and :func:`split_paths` (any full-string input)
produce.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence
from typing import NamedTuple

import numpy as np

from repro.scan.extensions import ExtensionTable, split_extension

_INITIAL = 1024
_DEPTH_MAX = int(np.iinfo(np.int16).max)

#: Items :func:`_gather` reads per slice.
_GATHER = 4096

#: Directory strings :meth:`PathTable.outside_names` keeps at a time.
_KNOWN_DIRS = 64

#: Parent of a node whose string holds no ``/``.
NO_PARENT = -1


class PathRows(NamedTuple):
    """One block of paths in tree form, ready to intern.

    Row ``r`` is ``names[r]`` under the path of row ``parents[r]`` when
    that is ``>= 0`` (always an earlier row), under the directory string
    ``dirs[-2 - parents[r]]`` when it is ``<= -2``, and the ``/``-free
    string ``names[r]`` when it is ``-1``.  Names under a row or a
    directory hold no ``/``.
    """

    parents: list[int]
    names: list[str]
    dirs: list[str]


def split_paths(paths: Iterable[str]) -> PathRows:
    """Full path strings as :class:`PathRows`, in the given order.

    Each path is split at its last ``/``; its parent is the earliest
    earlier row with that text, else a directory string.  In depth-first
    order nearly every parent is a row, so resolving a block costs one
    ``rpartition`` and one dict probe per path.
    """
    row_of: dict[str, int] = {}
    dir_of: dict[str, int] = {}
    parents: list[int] = []
    names: list[str] = []
    for row, path in enumerate(paths):
        head, sep, name = path.rpartition("/")
        if not sep:
            parents.append(NO_PARENT)
        else:
            parent = row_of.get(head)
            if parent is None:
                parent = -2 - dir_of.setdefault(head, len(dir_of))
            parents.append(parent)
        names.append(name)
        row_of.setdefault(path, row)
    return PathRows(parents, names, list(dir_of))


def _gather(values: array, index) -> np.ndarray:
    """``values[index]`` as int64, read item by item a slice at a time: a
    NumPy view of an ``array("q")`` would pin it, and the table must stay
    free to grow while a writer thread reads it."""
    index = np.asarray(index, dtype=np.int64)
    out = np.empty(index.size, dtype=np.int64)
    get = values.__getitem__
    for start in range(0, index.size, _GATHER):
        part = index[start : start + _GATHER].tolist()
        out[start : start + len(part)] = np.fromiter(map(get, part), np.int64, len(part))
    return out


class PathTable:
    """Interning table for paths, stored as a tree, with derived columns."""

    def __init__(self, extensions: ExtensionTable | None = None) -> None:
        self.extensions = extensions if extensions is not None else ExtensionTable()
        # nodes: every distinct string of the tree, path or prefix
        self._parent = array("q")   # parent node, NO_PARENT at the top
        self._names: list[str] = []
        self._slashes = array("q")  # "/" count of the node's string
        self._length = array("q")   # the node's string length, in characters
        self._pid = array("q")      # the node's path id, -1 when internal
        # parent node -> name -> node, for every parent whose children a
        # lookup has needed (all of them, in a table built here)
        self._kids: dict[int, dict[str, int]] = {}
        # nodes below this came from a pickle and reach _kids only as a
        # lookup needs their parent's children (see _children)
        self._loaded = 0
        self._by_parent: tuple[np.ndarray, np.ndarray] | None = None
        # paths: the node of each dense path id
        self._node = array("q")
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

    # -- nodes ---------------------------------------------------------------

    def _children(self, parent: int) -> dict[str, int]:
        """The name -> node dict of ``parent``'s children.  Children of an
        unpickled table are indexed one parent at a time, as lookups reach
        them, from the nodes sorted by parent: a table loaded to replay a
        delta indexes the directories the delta touches, not every node."""
        children = self._kids.get(parent)
        if children is None:
            children = self._kids[parent] = {}
            if self._loaded:
                if self._by_parent is None:
                    # shifted by one, so the top (NO_PARENT) sorts first
                    up = np.array(self._parent, dtype=np.int64)[: self._loaded] + 1
                    starts = np.concatenate(([0], np.cumsum(np.bincount(up))))
                    self._by_parent = (np.argsort(up, kind="stable"), starts)
                order, starts = self._by_parent
                if parent + 2 < starts.size:
                    lo, hi = starts[parent + 1 : parent + 3].tolist()
                    names = self._names
                    for node in order[lo:hi].tolist():
                        children[names[node]] = node
        return children

    def _child(self, parent: int, name: str) -> int:
        """The node ``name`` under ``parent``, created when missing."""
        children = self._children(parent)
        node = children.get(name)
        if node is None:
            node = children[name] = self._add_node(parent, name)
        return node

    def _add_node(self, parent: int, name: str) -> int:
        node = len(self._names)
        self._names.append(name)
        self._parent.append(parent)
        if parent == NO_PARENT:
            self._slashes.append(0)
            self._length.append(len(name))
        else:
            self._slashes.append(self._slashes[parent] + 1)
            self._length.append(self._length[parent] + 1 + len(name))
        self._pid.append(-1)
        return node

    def _walk(self, path: str) -> int:
        """The node of ``path``, creating every missing prefix."""
        node = NO_PARENT
        for part in path.split("/"):
            node = self._child(node, part)
        return node

    def _find(self, path: str) -> int | None:
        """The node of ``path``, or None; creates nothing."""
        node: int | None = NO_PARENT
        for part in path.split("/"):
            node = self._children(node).get(part)
            if node is None:
                return None
        return node

    def _string(self, node: int, known: dict[int, str] | None = None) -> str:
        """The full string of ``node``; ``known`` maps nodes to strings
        already built, and gains this one."""
        parts: list[str] = []
        head = ""
        cur = node
        while cur != NO_PARENT:
            if known is not None and cur in known:
                head = known[cur]
                break
            parts.append(self._names[cur])
            cur = self._parent[cur]
        parts.reverse()
        if cur != NO_PARENT:
            parts.insert(0, head)
        text = "/".join(parts)
        if known is not None:
            known[node] = text
        return text

    # -- interning -------------------------------------------------------------

    def intern(self, path: str) -> int:
        """Intern one path; returns its dense id."""
        return int(self.intern_many([path])[0])

    def intern_many(self, paths: Sequence[str]) -> np.ndarray:
        """Intern a batch of full path strings; returns the id array."""
        return self.intern_rows(split_paths(paths))

    def intern_rows(self, rows: PathRows) -> np.ndarray:
        """Intern a block of :class:`PathRows`; returns the id array.

        New paths get consecutive ids in first-occurrence order, and their
        extensions are interned in that same order, so the ids, ``depth``,
        ``ext_id`` and the :class:`ExtensionTable` come out exactly as
        interning the rows' full strings one at a time would leave them.
        """
        kids = self._kids
        dir_nodes = [self._walk(d) for d in rows.dirs]
        names, parent_of, slashes, length = (
            self._names, self._parent, self._slashes, self._length
        )
        pid_of, node_of = self._pid, self._node
        intern_ext = self.extensions.intern
        nodes: list[int] = []
        ids: list[int] = []
        depth: list[int] = []
        ext: list[int] = []
        last, children = None, None
        for parent, name in zip(rows.parents, rows.names):
            if parent >= 0:
                parent = nodes[parent]
            elif parent != NO_PARENT:
                parent = dir_nodes[-2 - parent]
            if parent != last:  # siblings share one lookup of their parent
                children = kids.get(parent)
                if children is None:
                    children = self._children(parent)
                last = parent
            node = children.get(name)
            if node is None:
                # a new node is a new path: _add_node, inlined for speed
                node = children[name] = len(names)
                names.append(name)
                parent_of.append(parent)
                if parent == NO_PARENT:
                    up = 0
                    length.append(len(name))
                else:
                    up = slashes[parent] + 1
                    length.append(length[parent] + 1 + len(name))
                slashes.append(up)
                pid = len(node_of)
                pid_of.append(pid)
            else:
                pid = pid_of[node]
                if pid >= 0:
                    nodes.append(node)
                    ids.append(pid)
                    continue
                pid = pid_of[node] = len(node_of)  # an internal node's first row
                up = slashes[node]
            node_of.append(node)
            depth.append(up - (not name and parent != NO_PARENT))
            ext.append(intern_ext(split_extension(name)))
            nodes.append(node)
            ids.append(pid)
        if depth:
            end = len(node_of)
            start = end - len(depth)
            self._grow_to(end)
            self.depth[start:end] = np.minimum(depth, _DEPTH_MAX)
            self.ext_id[start:end] = ext
        return np.array(ids, dtype=np.int64)

    # -- lookups -----------------------------------------------------------------

    def id_of(self, path: str) -> int | None:
        node = self._find(path)
        if node is None:
            return None
        pid = self._pid[node]
        return pid if pid >= 0 else None

    def path_of(self, pid: int) -> str:
        """The full string of path ``pid``, built on demand."""
        return self._string(self._node[pid])

    def paths_of(self, pids: Iterable[int]) -> list[str]:
        """Full strings of ``pids``, each directory's text built once."""
        known: dict[int, str] = {}
        string = self._string
        return [string(self._node[pid], known) for pid in np.asarray(pids).tolist()]

    def lineage(self, pid: int) -> list[int]:
        """``pid`` and the id of every ancestor that is a path, nearest
        first — the paths whose text, plus ``/``, prefixes ``pid``'s."""
        out = [int(pid)]
        node = self._parent[self._node[pid]]
        while node != NO_PARENT:
            if self._pid[node] >= 0:
                out.append(self._pid[node])
            node = self._parent[node]
        return out

    def depths_of(self, pids: np.ndarray) -> np.ndarray:
        return self.depth[pids].astype(np.int64)

    def ext_ids_of(self, pids: np.ndarray) -> np.ndarray:
        return self.ext_id[pids].astype(np.int64)

    def lengths_of(self, pids: np.ndarray) -> np.ndarray:
        """Character length of each path's full string."""
        return _gather(self._length, _gather(self._node, pids))

    # -- block encoding ------------------------------------------------------------

    def parent_rows(self, pids: np.ndarray) -> np.ndarray:
        """For a block of rows, the row of each row's parent path when that
        is an earlier row of the block, else -1 (int32)."""
        pids = np.asarray(pids, dtype=np.int64)
        here = np.arange(pids.size, dtype=np.int64)
        # copies, not views: a view would pin the arrays against growth
        up = np.array(self._parent, dtype=np.int64)[
            np.array(self._node, dtype=np.int64)[pids]
        ]
        up_pid = np.append(np.array(self._pid, dtype=np.int64), -1)[up]  # up -1: none
        row_of = np.full(len(self) + 1, -1, dtype=np.int64)
        row_of[pids[::-1]] = here[::-1]  # the first row of each path; -1 maps to -1
        rows = row_of[up_pid]
        rows[rows >= here] = -1  # a parent must precede its child
        return rows.astype(np.int32)

    def own_names(self, pids: Sequence[int]) -> list[str]:
        """Each path's own name, its string after the last ``/``."""
        return list(map(self._names.__getitem__, map(self._node.__getitem__, pids)))

    def outside_names(self, pids: Sequence[int]) -> list[str]:
        """Full strings of paths whose parent is not in their block.  The
        last :data:`_KNOWN_DIRS` directories' text is kept, so files
        sharing a directory build it once."""
        names, node_of, parent_of = self._names, self._node, self._parent
        known: dict[int, str] = {}
        out = []
        for pid in pids:
            node = node_of[pid]
            up = parent_of[node]
            if up == NO_PARENT:
                out.append(names[node])
                continue
            head = known.get(up)
            if head is None:
                if len(known) >= _KNOWN_DIRS:
                    known.clear()
                head = self._string(up, known)
            out.append(head + "/" + names[node])
        return out

    # -- pickling: compact arrays, not the index -----------------------------------

    def __getstate__(self) -> dict:
        n = len(self)
        return {
            "extensions": self.extensions,
            "parent": self._parent,
            "names": "/".join(self._names),
            "slashes": self._slashes,
            "length": self._length,
            "node": self._node,
            "depth": self.depth[:n].copy(),
            "ext_id": self.ext_id[:n].copy(),
        }

    def __setstate__(self, state: dict) -> None:
        self.extensions = state["extensions"]
        # copies: a state that is not pickled (``copy.copy``) shares nothing
        self._parent = array("q", state["parent"])
        self._names = state["names"].split("/") if len(self._parent) else []
        self._slashes = array("q", state["slashes"])
        self._length = array("q", state["length"])
        self._node = array("q", state["node"])
        pid = np.full(len(self._parent), -1, dtype=np.int64)
        pid[np.array(self._node, dtype=np.int64)] = np.arange(len(self._node))
        self._pid = array("q", pid.tobytes())
        self._kids = {}
        self._loaded = len(self._parent)
        self._by_parent = None
        n = len(self._node)
        self.depth = np.zeros(max(_INITIAL, n), dtype=np.int16)
        self.ext_id = np.zeros(max(_INITIAL, n), dtype=np.int32)
        self.depth[:n] = state["depth"]
        self.ext_id[:n] = state["ext_id"]

    def __len__(self) -> int:
        return len(self._node)

    def __contains__(self, path: str) -> bool:
        return self.id_of(path) is not None
