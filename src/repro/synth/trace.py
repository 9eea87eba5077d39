"""Workload trace capture and replay.

A portable, path-based event trace of everything a workload does to the
file system.  Two audiences:

* **reproducibility** — a simulated run can be captured once and replayed
  bit-identically on a fresh :class:`~repro.fs.filesystem.FileSystem`
  (timestamps included), decoupling workload generation from analysis;
* **adoption** — a center with *real* activity records (e.g. Lustre
  changelogs, Robinhood dumps) can translate them into this trace format
  and drive the whole snapshot + analysis pipeline with production data
  instead of the synthetic models.

Format: JSON Lines, one event per line, path-addressed (no inode numbers,
so traces survive allocation-order differences)::

    {"op": "mkdir",       "path": "/p/u/run1", "uid": 1, "gid": 9, "ts": 1420...}
    {"op": "create_many", "dir": "/p/u/run1", "names": [...], "uid": 1,
     "gid": 9, "ts": [...], "stripe": 8}
    {"op": "read_many",   "paths": [...], "ts": [...]}
    {"op": "unlink_inodes", "paths": [...], "ts": 1420...}
    ...

``TraceRecorder`` instruments a live file system (like
:func:`repro.fs.changelog.attach_changelog`, but capturing full call
arguments); ``replay_trace`` applies a trace to a fresh file system.
"""

from __future__ import annotations

import json
import io
from pathlib import Path
from typing import Any

import numpy as np

from repro.fs.changelog import WRAPPED_METHODS, unclassified_methods
from repro.fs.filesystem import FileSystem

#: FileSystem methods the recorder wraps: every mutator the changelog wraps,
#: plus ``setstripe`` (a replay needs the per-directory striping defaults)
TRACED_METHODS = WRAPPED_METHODS | {"setstripe"}


def _stamps(ts: int | list[int]) -> np.ndarray | int:
    return np.asarray(ts, dtype=np.int64) if isinstance(ts, list) else int(ts)


def _listify(value) -> int | list[int]:
    if np.ndim(value) == 0:
        return int(value)
    return [int(v) for v in np.asarray(value)]


class TraceRecorder:
    """Wraps a file system's mutating calls and records them path-addressed."""

    def __init__(self, fs: FileSystem) -> None:
        self.fs = fs
        self.events: list[dict[str, Any]] = []
        self._install()

    def _emit(self, **event) -> None:
        self.events.append(event)

    def _install(self) -> None:
        fs = self.fs
        orig = {name: getattr(fs, name) for name in TRACED_METHODS}
        ns = fs.namespace

        def mkdir(parent, name, uid, gid, timestamp=None, perm=0o775):
            ino = orig["mkdir"](parent, name, uid, gid, timestamp, perm)
            self._emit(op="mkdir", path=ns.path(ino), uid=uid, gid=gid,
                       ts=int(fs.inodes.ctime[ino]))
            return ino

        def create(parent, name, uid, gid, timestamp=None, stripe_count=None,
                   perm=0o664):
            ino = orig["create"](parent, name, uid, gid, timestamp,
                                 stripe_count, perm)
            self._emit(op="create", dir=ns.path(parent), name=name, uid=uid,
                       gid=gid, ts=int(fs.inodes.ctime[ino]),
                       stripe=int(fs.inodes.stripe_count[ino]))
            return ino

        def create_many(parent, names, uid, gid, timestamps,
                        stripe_count=None, perm=0o664):
            inos = orig["create_many"](parent, names, uid, gid, timestamps,
                                       stripe_count, perm)
            self._emit(op="create_many", dir=ns.path(parent),
                       names=list(names), uid=uid, gid=gid,
                       ts=_listify(fs.inodes.mtime[inos]),
                       stripe=int(fs.inodes.stripe_count[inos[0]]) if len(names) else 0)
            return inos

        def unlink(parent, name, timestamp=None):
            path_dir = ns.path(parent)
            orig["unlink"](parent, name, timestamp)
            ts = fs.clock.now if timestamp is None else int(timestamp)
            self._emit(op="unlink", dir=path_dir, name=name, ts=ts)

        def unlink_many(parent, names, timestamp=None):
            path_dir = ns.path(parent)
            orig["unlink_many"](parent, names, timestamp)
            ts = fs.clock.now if timestamp is None else int(timestamp)
            self._emit(op="unlink_many", dir=path_dir, names=list(names), ts=ts)

        def unlink_inodes(inos, timestamp=None):
            # resolve the paths first: the unlink forgets every name
            victims = np.asarray(inos, dtype=np.int64)
            paths = [ns.path(int(i)) for i in victims]
            orig["unlink_inodes"](victims, timestamp)
            ts = fs.clock.now if timestamp is None else int(timestamp)
            if paths:
                self._emit(op="unlink_inodes", paths=paths, ts=ts)

        def rmdir(parent, name, timestamp=None):
            path_dir = ns.path(parent)
            orig["rmdir"](parent, name, timestamp)
            ts = fs.clock.now if timestamp is None else int(timestamp)
            self._emit(op="rmdir", dir=path_dir, name=name, ts=ts)

        def read(ino, timestamp=None):
            path = ns.path(ino)
            orig["read"](ino, timestamp)
            ts = fs.clock.now if timestamp is None else int(timestamp)
            self._emit(op="read", path=path, ts=ts)

        def read_many(inos, timestamps):
            paths = [ns.path(int(i)) for i in np.asarray(inos)]
            orig["read_many"](inos, timestamps)
            self._emit(op="read_many", paths=paths, ts=_listify(timestamps))

        def write(ino, timestamp=None):
            path = ns.path(ino)
            orig["write"](ino, timestamp)
            ts = fs.clock.now if timestamp is None else int(timestamp)
            self._emit(op="write", path=path, ts=ts)

        def write_many(inos, timestamps):
            paths = [ns.path(int(i)) for i in np.asarray(inos)]
            orig["write_many"](inos, timestamps)
            self._emit(op="write_many", paths=paths, ts=_listify(timestamps))

        def chown(ino, uid, gid, timestamp=None):
            path = ns.path(ino)
            orig["chown"](ino, uid, gid, timestamp)
            ts = fs.clock.now if timestamp is None else int(timestamp)
            self._emit(op="chown", path=path, uid=uid, gid=gid, ts=ts)

        def setstripe(dir_ino, stripe_count):
            orig["setstripe"](dir_ino, stripe_count)
            self._emit(op="setstripe", path=ns.path(dir_ino),
                       stripe=int(stripe_count))

        wrappers = {
            fn.__name__: fn
            for fn in (
                mkdir, create, create_many, unlink, unlink_many, unlink_inodes,
                rmdir, read, read_many, write, write_many, chown, setstripe,
            )
        }
        # the completeness guard: a public mutator the changelog contract
        # does not classify, or one it wraps that no wrapper here records,
        # would let its events bypass the trace
        uncovered = unclassified_methods(type(fs)) + sorted(
            TRACED_METHODS - wrappers.keys()
        )
        if uncovered:
            raise RuntimeError(
                f"TraceRecorder does not record public method(s) {uncovered}; "
                "classify them in repro.fs.changelog and record them here"
            )
        for name, fn in wrappers.items():
            setattr(fs, name, fn)

    # -- persistence ---------------------------------------------------------

    def save(self, dest: str | Path | io.TextIOBase) -> int:
        """Write the trace as JSON Lines; returns the event count."""
        own = isinstance(dest, (str, Path))
        fh: io.TextIOBase = open(dest, "w") if own else dest  # type: ignore[assignment]
        try:
            for event in self.events:
                fh.write(json.dumps(event, separators=(",", ":")) + "\n")
        finally:
            if own:
                fh.close()
        return len(self.events)


def load_trace(source: str | Path | io.TextIOBase) -> list[dict[str, Any]]:
    """Read a JSON Lines trace back into memory."""
    own = isinstance(source, (str, Path))
    fh: io.TextIOBase = open(source) if own else source  # type: ignore[assignment]
    try:
        return [json.loads(line) for line in fh if line.strip()]
    finally:
        if own:
            fh.close()


def replay_trace(
    events: list[dict[str, Any]], fs: FileSystem, strict: bool = True
) -> int:
    """Apply a trace to a file system; returns events applied.

    ``strict=False`` skips events whose target path no longer resolves
    (useful when replaying a hand-edited or truncated trace).
    """
    ns = fs.namespace

    def lookup_many(paths: list[str]) -> np.ndarray:
        return np.array([ns.lookup(p) for p in paths], dtype=np.int64)

    applied = 0
    for event in events:
        op = event["op"]
        try:
            if op == "mkdir":
                parent_path, _, name = event["path"].rpartition("/")
                parent = ns.lookup(parent_path or "/")
                fs.mkdir(parent, name, event["uid"], event["gid"],
                         timestamp=event["ts"])
            elif op == "create":
                parent = ns.lookup(event["dir"])
                fs.create(parent, event["name"], event["uid"], event["gid"],
                          timestamp=event["ts"], stripe_count=event["stripe"])
            elif op == "create_many":
                fs.create_many(
                    ns.lookup(event["dir"]), event["names"], event["uid"],
                    event["gid"], timestamps=_stamps(event["ts"]),
                    stripe_count=event["stripe"] or None,
                )
            elif op == "unlink":
                fs.unlink(ns.lookup(event["dir"]), event["name"],
                          timestamp=event["ts"])
            elif op == "unlink_many":
                fs.unlink_many(ns.lookup(event["dir"]), event["names"],
                               timestamp=event["ts"])
            elif op == "unlink_inodes":
                fs.unlink_inodes(lookup_many(event["paths"]),
                                 timestamp=event["ts"])
            elif op == "rmdir":
                fs.rmdir(ns.lookup(event["dir"]), event["name"],
                         timestamp=event["ts"])
            elif op == "read":
                fs.read(ns.lookup(event["path"]), timestamp=event["ts"])
            elif op == "read_many":
                fs.read_many(lookup_many(event["paths"]), _stamps(event["ts"]))
            elif op == "write":
                fs.write(ns.lookup(event["path"]), timestamp=event["ts"])
            elif op == "write_many":
                fs.write_many(lookup_many(event["paths"]), _stamps(event["ts"]))
            elif op == "chown":
                fs.chown(ns.lookup(event["path"]), event["uid"], event["gid"],
                         timestamp=event["ts"])
            elif op == "setstripe":
                fs.setstripe(ns.lookup(event["path"]), event["stripe"])
            else:
                raise ValueError(f"unknown trace op {op!r}")
        except Exception:
            if strict:
                raise
            continue
        applied += 1
    return applied
