"""Checkpoint journal for fused kernel passes — crash-safe resume.

A killed 72-snapshot ``analyze_archive()`` used to restart from zero.  The
journal fixes that: as the fused pass completes each snapshot's map phase,
the per-snapshot partials are appended to a JSONL file (pickle payload,
base64-encoded, CRC-protected, fsynced per record).  A rerun pointed at the
same journal replays the completed rows instantly and the engine executes
only the remaining snapshot indices.

Integrity and invalidation:

* the first line is a fingerprint record (kernel names, snapshot count, a
  CRC of the snapshot labels, plus an optional caller-supplied config
  fingerprint); a journal whose fingerprint disagrees with the live run is
  discarded with a warning — stale checkpoints never feed wrong partials
  into a reduce;
* every data record carries a CRC32 of its pickle payload; a torn final
  line (the crash-mid-append case) or a bit-flipped record is dropped, so
  its snapshot simply re-runs;
* appends are flushed + fsynced before the engine moves on, so a SIGKILL
  between snapshots loses at most the in-flight row.

The payloads are pickles — the journal is local, trusted state (same
threat model as the ``.rpq`` files themselves), not an interchange format.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import warnings
import zlib
from pathlib import Path
from typing import Any

_VERSION = 1

#: :class:`KernelStateStore`'s file version.  2: the pickled path table is
#: the tree's compact arrays (``repro.scan.paths``), so a version-1 state,
#: which holds a flat table, is discarded once with a warning.
_STATE_VERSION = 2


def _labels_crc(labels: list[str]) -> int:
    return zlib.crc32("\n".join(labels).encode("utf-8"))


class KernelJournal:
    """Append-only per-snapshot checkpoint for one fused kernel pass.

    Parameters
    ----------
    path:
        JSONL journal file; created (with its fingerprint header) on the
        first append if absent.
    kernels:
        Kernel names of the pass (order-insensitive fingerprint input).
    labels:
        Snapshot labels of the collection, in index order.
    fingerprint:
        Optional extra identity (e.g. the archive config fingerprint); any
        JSON-serializable mapping.
    """

    def __init__(
        self,
        path: str | Path,
        kernels: list[str],
        labels: list[str],
        fingerprint: dict | None = None,
    ) -> None:
        self.path = Path(path)
        self._meta = {
            "kind": "repro-kernel-journal",
            "version": _VERSION,
            "kernels": sorted(kernels),
            "n": len(labels),
            "labels_crc": _labels_crc(list(labels)),
            "fingerprint": fingerprint or {},
        }
        self._fh = None
        self.restored = 0
        self.dropped = 0

    # -- read side ----------------------------------------------------------

    def load(self) -> dict[int, Any]:
        """Completed ``{snapshot index: row}`` from a prior run.

        Returns ``{}`` (and schedules a fresh journal) when the file is
        absent or its fingerprint does not match this pass.  Records that
        fail JSON parsing or the payload CRC are dropped individually — a
        torn tail only costs its own snapshot.
        """
        if not self.path.exists():
            return {}
        rows: dict[int, Any] = {}
        with open(self.path, encoding="utf-8") as fh:
            first = fh.readline()
            try:
                meta = json.loads(first)
            except ValueError:
                meta = None
            if not isinstance(meta, dict) or any(
                meta.get(k) != v for k, v in self._meta.items()
            ):
                warnings.warn(
                    f"checkpoint {self.path} belongs to a different run "
                    "(kernels, snapshot window, or config changed) — starting fresh",
                    RuntimeWarning,
                    stacklevel=3,
                )
                self.path.unlink()
                return {}
            for line in fh:
                row = self._decode_record(line)
                if row is None:
                    self.dropped += 1
                    continue
                index, value = row
                if 0 <= index < self._meta["n"]:
                    rows[index] = value
        self.restored = len(rows)
        return rows

    def _decode_record(self, line: str) -> tuple[int, Any] | None:
        try:
            rec = json.loads(line)
            payload = base64.b64decode(rec["data"])
            if zlib.crc32(payload) != rec["crc32"]:
                return None
            return int(rec["index"]), pickle.loads(payload)
        except Exception:
            return None

    # -- write side ---------------------------------------------------------

    def _open(self):
        if self._fh is None:
            fresh = not self.path.exists() or self.path.stat().st_size == 0
            self._fh = open(self.path, "a", encoding="utf-8")
            if fresh:
                self._fh.write(json.dumps(self._meta) + "\n")
                self._sync()
        return self._fh

    def _sync(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def append(self, index: int, value: Any) -> None:
        """Durably record one completed snapshot row (flush + fsync)."""
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        record = {
            "index": int(index),
            "crc32": zlib.crc32(payload),
            "data": base64.b64encode(payload).decode("ascii"),
        }
        fh = self._open()
        fh.write(json.dumps(record) + "\n")
        self._sync()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def discard(self) -> None:
        """Close and delete the journal (the pass completed successfully)."""
        self.close()
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "KernelJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class KernelStateStore:
    """Durable per-kernel reduced state for incremental (delta) analysis.

    Where :class:`KernelJournal` checkpoints *within* one pass, the state
    store carries reduced kernel states *across* runs: after a healthy
    ``analyze_archive()`` the store holds, for each delta-capable kernel,
    the state that summarizes every snapshot analyzed so far — plus the
    reader's :class:`~repro.scan.paths.PathTable`, so delta sidecars intern
    new strings onto exactly the ids a full load would have allocated.

    Invalidation mirrors the journal: the stored fingerprint binds the
    archive config fingerprint *and* the delta format config, and the
    stored labels must be a strict prefix of the live collection's labels.
    Any disagreement discards the state with a warning — stale states are
    never replayed against a mismatched archive.  Writes are atomic
    (same-directory tmp + fsync + rename), so a SIGKILL mid-save leaves
    the previous state intact.
    """

    def __init__(
        self,
        path: str | Path,
        fingerprint: dict | None = None,
    ) -> None:
        self.path = Path(path)
        self._fingerprint = fingerprint or {}

    def load(
        self, labels: list[str], content_ids: list[int] | None = None
    ) -> tuple[dict[str, Any], list[str], Any]:
        """Return ``(states, stored_labels, path_table)`` or empties.

        ``labels`` is the live collection's label list; stored labels must
        be a non-empty strict prefix of it (equal means nothing new to
        analyze — still returned, the caller decides).  ``content_ids``
        are the live per-snapshot content identities
        (:meth:`~repro.scan.store.DiskSnapshotCollection.content_ids`);
        when given, the stored ids must match position-for-position over
        the stored prefix — equal labels do *not* imply equal bytes when
        an archive is rewritten.  A missing file, fingerprint mismatch,
        label/content mismatch, or corrupt payload all reset to
        ``({}, [], None)`` — with a warning for every case except the
        missing file.
        """
        empty: tuple[dict[str, Any], list[str], Any] = ({}, [], None)
        if not self.path.exists():
            return empty
        try:
            with open(self.path, "rb") as fh:
                meta = json.loads(fh.readline())
                payload = fh.read()
            if (
                not isinstance(meta, dict)
                or meta.get("kind") != "repro-kernel-state"
                or meta.get("version") != _STATE_VERSION
                or zlib.crc32(payload) != meta.get("crc32")
            ):
                raise ValueError("bad header or payload CRC")
            stored = list(meta.get("labels", []))
            if meta.get("fingerprint") != self._fingerprint:
                stale = "was written under a different archive/delta config"
            elif not stored or stored != list(labels[: len(stored)]):
                stale = (
                    "covers labels that are not a prefix of the archive's "
                    "snapshots"
                )
            elif content_ids is not None and list(
                meta.get("snapshots", [])
            ) != [int(c) for c in content_ids[: len(stored)]]:
                stale = (
                    "was journaled against snapshot contents that have since "
                    "been rewritten (same labels, different data)"
                )
            else:
                states, table = pickle.loads(payload)
                return dict(states), stored, table
        except Exception:
            stale = "is unreadable or corrupt"
        warnings.warn(
            f"kernel state {self.path} {stale} — discarding it and "
            "re-analyzing from scratch",
            RuntimeWarning,
            stacklevel=3,
        )
        self._discard()
        return empty

    def save(
        self,
        states: dict[str, Any],
        labels: list[str],
        path_table: Any,
        content_ids: list[int] | None = None,
    ) -> None:
        """Atomically persist states + the interning table for ``labels``."""
        from repro.core.durable import atomic_write

        payload = pickle.dumps(
            (dict(states), path_table), protocol=pickle.HIGHEST_PROTOCOL
        )
        meta = {
            "kind": "repro-kernel-state",
            "version": _STATE_VERSION,
            "fingerprint": self._fingerprint,
            "labels": list(labels),
            "snapshots": [int(c) for c in content_ids or []],
            "kernels": sorted(states),
            "crc32": zlib.crc32(payload),
        }
        with atomic_write(self.path, "wb") as fh:
            fh.write(json.dumps(meta).encode("utf-8") + b"\n")
            fh.write(payload)

    def _discard(self) -> None:
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
