"""Streaming trace ingestion: foreign PSV dumps → validated ``.rpq`` files.

``ingest_trace`` is the one entry point.  It takes a directory (or list) of
plain/gzip LustreDU PSV dumps — huge, messy, untrusted — and produces an
archive directory the existing fused analysis pipeline consumes unchanged:
one ``.rpq`` file per source dump, a ``manifest.json``, and (under the
``quarantine`` policy) one machine-readable ``.bad`` sidecar per damaged
source.

Design rules, in priority order:

1. **Never silently wrong.**  Every record either passes the full
   validation layer (:mod:`repro.ingest.validate`) or is accounted for —
   raised, skipped-and-counted, or quarantined with a reason.  Totals are
   conserved: ``lines == rows + rejected`` per file, asserted by the fuzz
   suites.
2. **Bounded memory.**  Sources stream through fixed-size record chunks;
   numeric columns accumulate as per-chunk NumPy arrays (8 B/field, far
   below the text width) and path strings flow straight into an
   incremental zlib compressor — a multi-GB dump never exists in memory,
   neither as text nor as one :class:`~repro.scan.snapshot.Snapshot`.
3. **Crash-safe and resumable.**  Outputs are written atomically; with a
   ``checkpoint`` journal each completed source file is recorded durably
   (the same :class:`~repro.query.journal.KernelJournal` machinery the
   fused pass uses), so a SIGKILL'd multi-hour ingest re-invoked with the
   same journal redoes only the in-flight file and converges on
   byte-identical outputs.
4. **Cooperative cancellation.**  A :class:`~repro.core.runcontrol.
   RunController` is polled between chunks and between files; deadline or
   signal stops raise a typed ``RunInterrupted`` naming the exact resume
   invocation.
"""

from __future__ import annotations

import base64
import calendar
import json
import warnings
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.durable import atomic_write
from repro.ingest.reader import DEFAULT_CHUNK_RECORDS, RawRecord, TraceReader
from repro.ingest.validate import RecordValidator, ValidationLimits
from repro.scan.columnar import (
    column_block_meta,
    path_block_meta,
    read_columnar_header,
    write_columnar_blocks,
)
from repro.scan.errors import CorruptSnapshotError, IngestRecordError
from repro.scan.snapshot import COLUMN_DTYPES, NUMERIC_COLUMNS
from repro.scan.store import ON_ERROR_POLICIES, SnapshotFault

#: Source filename suffixes recognized when ingesting a directory.
TRACE_SUFFIXES = (".psv", ".psv.gz", ".txt", ".txt.gz")

#: Sidecar (quarantined-record) filename suffix.
SIDECAR_SUFFIX = ".bad"

_COMPRESSION_LEVEL = 6

#: Columns materialized per record (everything but the derived path_id).
_INGEST_COLUMNS = tuple(n for n in NUMERIC_COLUMNS if n != "path_id")


@dataclass
class IngestConfig:
    """Policy knobs for one ingest run."""

    #: degradation policy: ``raise`` stops at the first bad record,
    #: ``skip`` drops-and-counts, ``quarantine`` also writes ``.bad``
    #: sidecars with machine-readable reasons
    on_error: str = "quarantine"
    chunk_records: int = DEFAULT_CHUNK_RECORDS
    limits: ValidationLimits = field(default_factory=ValidationLimits)
    #: abort a source file (file-level fault) after this many bad records
    max_bad_records: int | None = None
    #: ... or when bad/(total) exceeds this ratio (checked per chunk after
    #: the first chunk, so a garbage file fails fast, not after gigabytes)
    max_bad_ratio: float | None = None

    def __post_init__(self) -> None:
        if self.on_error not in ON_ERROR_POLICIES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_POLICIES}, "
                f"got {self.on_error!r}"
            )
        if self.chunk_records < 1:
            raise ValueError("chunk_records must be >= 1")
        if self.max_bad_records is not None and self.max_bad_records < 0:
            raise ValueError("max_bad_records must be >= 0")
        if self.max_bad_ratio is not None and not 0 <= self.max_bad_ratio <= 1:
            raise ValueError("max_bad_ratio must be in [0, 1]")


@dataclass
class IngestFileStats:
    """Outcome of one source file (journal payload — keep it picklable)."""

    source: str  #: source basename
    output: str | None  #: produced ``.rpq`` basename (None on file fault)
    label: str
    timestamp: int
    lines: int  #: records seen
    rows: int  #: records accepted into the archive
    rejected: int  #: records dropped (skipped or quarantined)
    by_field: dict[str, int]  #: rejected count per offending field
    bytes_read: int  #: uncompressed source bytes consumed
    output_bytes: int  #: stored ``.rpq`` size
    sidecar: str | None = None  #: ``.bad`` basename when one was written
    sidecar_crc32: int | None = None  #: CRC of the sidecar body (determinism)
    resumed: bool = False  #: restored from a checkpoint, not re-ingested
    #: high-water estimate of resident ingest state while this file ran
    peak_resident_bytes: int = 0


@dataclass
class IngestHealthReport:
    """What ingestion found, rolled up across the whole run.

    Merged into the archive's :class:`~repro.scan.store.
    ArchiveHealthReport` (its ``ingest`` field) when the ingested
    directory is analyzed, so one report covers the full
    trace → archive → analysis chain.
    """

    files: list[IngestFileStats] = field(default_factory=list)
    #: file-level failures (corrupt gzip, all-records-bad, unreadable)
    faults: list[SnapshotFault] = field(default_factory=list)
    #: high-water estimate of resident ingest state (column chunks,
    #: compressor, dedup digests), for --memory-budget accounting
    peak_resident_bytes: int = 0

    @property
    def records(self) -> int:
        return sum(f.lines for f in self.files)

    @property
    def rows(self) -> int:
        return sum(f.rows for f in self.files)

    @property
    def rejected(self) -> int:
        return sum(f.rejected for f in self.files)

    @property
    def resumed(self) -> int:
        return sum(1 for f in self.files if f.resumed)

    @property
    def degraded(self) -> bool:
        return bool(self.faults) or any(f.rejected for f in self.files)

    def summary(self) -> str:
        lines = [
            f"{len(self.files)} source file(s): {self.rows}/{self.records} "
            f"records ingested, {self.rejected} rejected, "
            f"{len(self.faults)} file fault(s)"
            + (f", {self.resumed} restored from checkpoint" if self.resumed else "")
        ]
        for f in self.files:
            if f.rejected or f.output is None:
                detail = ", ".join(
                    f"{field}:{n}" for field, n in sorted(f.by_field.items())
                )
                where = f" → {f.sidecar}" if f.sidecar else ""
                lines.append(
                    f"  {f.source}: {f.rejected} rejected ({detail}){where}"
                )
        for fault in self.faults:
            where = f" @{fault.offset}" if fault.offset is not None else ""
            lines.append(f"  {fault.action}: {fault.path}{where} — {fault.reason}")
        return "\n".join(lines)

    def fold_into(self, archive_health) -> None:
        """Attach to an :class:`~repro.scan.store.ArchiveHealthReport`."""
        archive_health.ingest = self


@dataclass
class IngestResult:
    """Return value of :func:`ingest_trace`."""

    out_dir: Path
    outputs: list[Path]
    report: IngestHealthReport


class _QuarantineSidecar:
    """Lazy, atomic JSONL writer for one source file's rejected records.

    The file is created only when the first record is quarantined, written
    through the same tmp + fsync + rename path as every other output, and
    carries a running CRC32 so resume/determinism checks can compare
    sidecars without re-reading them.
    """

    def __init__(self, path: Path, source: str) -> None:
        self.path = path
        self.source = source
        self.count = 0
        self.crc32 = 0
        self._cm = None
        self._fh = None

    def write(self, err: IngestRecordError, rec: RawRecord) -> None:
        if self._fh is None:
            self._cm = atomic_write(self.path, "w", encoding="utf-8")
            self._fh = self._cm.__enter__()
            self._emit(
                {
                    "kind": "repro-ingest-sidecar",
                    "version": 1,
                    "source": self.source,
                }
            )
        entry = {
            "line": rec.lineno,
            "offset": rec.offset,
            "field": err.field,
            "reason": err.reason,
        }
        try:
            entry["raw"] = rec.raw.decode("utf-8")
        except UnicodeDecodeError:
            entry["raw_b64"] = base64.b64encode(rec.raw).decode("ascii")
        self._emit(entry)
        self.count += 1

    def _emit(self, obj: dict) -> None:
        line = json.dumps(obj, sort_keys=True) + "\n"
        self.crc32 = zlib.crc32(line.encode("utf-8"), self.crc32)
        self._fh.write(line)

    def commit(self) -> None:
        """Finish the atomic write (no-op when nothing was quarantined)."""
        if self._cm is not None:
            self._cm.__exit__(None, None, None)
            self._cm = self._fh = None

    def abort(self, exc: BaseException) -> None:
        """Discard the temp file after a failure mid-file."""
        if self._cm is not None:
            self._cm.__exit__(type(exc), exc, exc.__traceback__)
            self._cm = self._fh = None


class _ColumnAccumulator:
    """Bounded-memory columnar builder for one output snapshot.

    Records land row-by-row in preallocated dtype-correct NumPy chunk
    buffers — no boxed Python ints, so a chunk costs its array bytes, not
    ~30x that in object overhead and allocator churn.  Every ``flush()``
    (once per reader chunk, or when a buffer fills) feeds the filled
    prefix — and the chunk's path strings — into one incremental zlib
    compressor per block.  Nothing uncompressed outlives its chunk, so
    resident state scales with the *compressed* output (typically a small
    fraction of the source text), not with total rows.  ``finish()``
    flushes each stream and returns ready-to-write zlib blocks.

    Writing validated values straight into the final dtypes is safe
    precisely because :class:`~repro.ingest.validate.RecordValidator`
    range-checks every field against those dtypes before ``add()``.
    """

    def __init__(self, chunk_records: int = DEFAULT_CHUNK_RECORDS) -> None:
        self._cap = max(1, int(chunk_records))
        self._encoders = {
            name: zlib.compressobj(_COMPRESSION_LEVEL) for name in _INGEST_COLUMNS
        }
        self._pieces: dict[str, list[bytes]] = {
            name: [] for name in _INGEST_COLUMNS
        }
        self._raw_bytes = {name: 0 for name in _INGEST_COLUMNS}
        self._bufs = {
            name: np.empty(self._cap, dtype=COLUMN_DTYPES[name])
            for name in _INGEST_COLUMNS
        }
        self._n = 0
        self._pending_paths: list[str] = []
        self._compress = zlib.compressobj(_COMPRESSION_LEVEL)
        self._compressed: list[bytes] = []
        self._paths_raw_bytes = 0
        self._first_path = True
        self.rows = 0
        self.resident_bytes = 0

    def add(self, rec) -> None:
        i = self._n
        if i == self._cap:
            self.flush()
            i = 0
        b = self._bufs
        b["ino"][i] = rec.ino
        b["mode"][i] = rec.mode
        b["uid"][i] = rec.uid
        b["gid"][i] = rec.gid
        b["atime"][i] = rec.atime
        b["mtime"][i] = rec.mtime
        b["ctime"][i] = rec.ctime
        b["stripe_count"][i] = rec.stripe_count
        b["stripe_start"][i] = rec.stripe_start
        self._pending_paths.append(rec.path)
        self._n = i + 1
        self.rows += 1

    def flush(self) -> None:
        if not self._n:
            return
        for name in _INGEST_COLUMNS:
            filled = self._bufs[name][: self._n]
            piece = self._encoders[name].compress(filled.tobytes())
            if piece:
                self._pieces[name].append(piece)
                self.resident_bytes += len(piece)
            self._raw_bytes[name] += filled.nbytes
        self._n = 0
        text = "\n".join(self._pending_paths)
        if not self._first_path:
            text = "\n" + text
        self._first_path = False
        raw = text.encode("utf-8")
        self._paths_raw_bytes += len(raw)
        piece = self._compress.compress(raw)
        if piece:
            self._compressed.append(piece)
            self.resident_bytes += len(piece)
        self._pending_paths = []

    def finish(self) -> list[tuple[bytes, dict]]:
        self.flush()
        blocks: list[tuple[bytes, dict]] = []
        for name in _INGEST_COLUMNS:
            self._pieces[name].append(self._encoders[name].flush())
            blob = b"".join(self._pieces[name])
            self._pieces[name] = []  # free as we go
            blocks.append((
                blob,
                column_block_meta(
                    name, COLUMN_DTYPES[name], self.rows, blob,
                    self._raw_bytes[name],
                ),
            ))
        self._compressed.append(self._compress.flush())
        path_blob = b"".join(self._compressed)
        self._compressed = []
        blocks.append(
            (path_blob, path_block_meta(path_blob, self.rows, self._paths_raw_bytes))
        )
        return blocks


def _trace_label(path: Path) -> str:
    """Snapshot label from a source filename (suffixes stripped)."""
    name = path.name
    for suffix in sorted(TRACE_SUFFIXES, key=len, reverse=True):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return path.stem


def _label_timestamp(label: str, max_ctime: int) -> int:
    """Snapshot timestamp: the LustreDU date-stamped filename when
    parsable (``YYYYMMDD...``), else the newest ctime observed."""
    digits = label[:8]
    if len(digits) == 8 and digits.isdigit():
        year, month, day = int(digits[:4]), int(digits[4:6]), int(digits[6:8])
        if 1980 <= year <= 2100 and 1 <= month <= 12 and 1 <= day <= 31:
            try:
                return calendar.timegm((year, month, day, 0, 0, 0))
            except (ValueError, OverflowError):
                pass
    return max(max_ctime, 0)


def plan_sources(sources) -> list[Path]:
    """Normalize the ``sources`` argument into a sorted, validated list."""
    if isinstance(sources, (str, Path)):
        root = Path(sources)
        if root.is_dir():
            found = sorted(
                p
                for p in root.iterdir()
                if p.is_file()
                and any(p.name.endswith(s) for s in TRACE_SUFFIXES)
            )
            if not found:
                raise FileNotFoundError(
                    f"no trace files ({'/'.join(TRACE_SUFFIXES)}) under {root}"
                )
            paths = found
        else:
            paths = [root]
    else:
        paths = [Path(p) for p in sources]
    if not paths:
        raise ValueError("no source files given")
    missing = [str(p) for p in paths if not p.is_file()]
    if missing:
        raise FileNotFoundError(f"missing source file(s): {', '.join(missing)}")
    labels: dict[str, Path] = {}
    for p in paths:
        label = _trace_label(p)
        if label in labels:
            raise ValueError(
                f"sources {labels[label].name} and {p.name} both map to "
                f"snapshot label {label!r} — rename one"
            )
        labels[label] = p
    return paths


def ingest_file(
    source: str | Path,
    out_dir: str | Path,
    config: IngestConfig | None = None,
    controller=None,
) -> IngestFileStats:
    """Ingest one source dump into ``out_dir``; returns its stats.

    Raises :class:`~repro.scan.errors.IngestRecordError` on the first bad
    record under ``on_error="raise"``, and :class:`~repro.scan.errors.
    CorruptSnapshotError` for file-level damage (corrupt gzip, every
    record rejected, bad-record limits exceeded) under any policy — the
    *caller* (``ingest_trace``) applies the file-level degradation policy.
    """
    config = config if config is not None else IngestConfig()
    source = Path(source)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    label = _trace_label(source)
    reader = TraceReader(source, chunk_records=config.chunk_records)
    validator = RecordValidator(str(source), config.limits)
    sidecar = _QuarantineSidecar(
        out_dir / f"{label}{SIDECAR_SUFFIX}", source.name
    )
    acc = _ColumnAccumulator(chunk_records=config.chunk_records)
    quarantining = config.on_error == "quarantine"
    raising = config.on_error == "raise"
    max_ctime = 0
    peak_resident = 0
    try:
        for chunk in reader.chunks():
            if controller is not None:
                controller.cancellation_point(f"ingest of {source.name}")
            for rec in chunk:
                if not rec.raw:
                    continue  # blank line, not a record
                try:
                    parsed = validator.validate(rec)
                except IngestRecordError as err:
                    if raising:
                        raise
                    if quarantining:
                        sidecar.write(err, rec)
                    continue
                acc.add(parsed)
                if parsed.ctime > max_ctime:
                    max_ctime = parsed.ctime
            acc.flush()
            resident = acc.resident_bytes + validator.resident_bytes
            if resident > peak_resident:
                peak_resident = resident
            self_check_bad = validator.stats.rejected
            if (
                config.max_bad_records is not None
                and self_check_bad > config.max_bad_records
            ):
                raise CorruptSnapshotError(
                    source,
                    f"{self_check_bad} bad records exceed the "
                    f"--max-bad-records limit ({config.max_bad_records})",
                )
            if (
                config.max_bad_ratio is not None
                and validator.stats.records >= config.chunk_records
                and self_check_bad
                > config.max_bad_ratio * validator.stats.records
            ):
                raise CorruptSnapshotError(
                    source,
                    f"{self_check_bad}/{validator.stats.records} records bad "
                    f"exceeds the --max-bad-ratio limit ({config.max_bad_ratio})",
                )
        if acc.rows == 0:
            raise CorruptSnapshotError(
                source,
                f"no valid records ({validator.stats.rejected} rejected, "
                f"{reader.lines_read} lines)",
            )
    except BaseException as exc:
        sidecar.abort(exc)
        raise
    sidecar.commit()
    timestamp = _label_timestamp(label, max_ctime)
    blocks = acc.finish()
    output = out_dir / f"{label}.rpq"
    output_bytes = write_columnar_blocks(output, label, timestamp, acc.rows, blocks)
    return IngestFileStats(
        source=source.name,
        output=output.name,
        label=label,
        timestamp=timestamp,
        lines=validator.stats.records,
        rows=acc.rows,
        rejected=validator.stats.rejected,
        by_field=dict(validator.stats.by_field),
        bytes_read=reader.bytes_read,
        output_bytes=output_bytes,
        sidecar=sidecar.path.name if sidecar.count else None,
        sidecar_crc32=sidecar.crc32 if sidecar.count else None,
        peak_resident_bytes=peak_resident,
    )


def ingest_trace(
    sources,
    out_dir: str | Path,
    config: IngestConfig | None = None,
    checkpoint: str | Path | None = None,
    controller=None,
    manifest_config=None,
    deltas: bool = True,
) -> IngestResult:
    """Ingest foreign trace dump(s) into an analyzable archive directory.

    Parameters
    ----------
    sources:
        A directory (every ``.psv``/``.psv.gz``/``.txt``/``.txt.gz`` file
        inside), one file, or an explicit list of files.
    out_dir:
        Archive directory; created if needed.  Gets one ``.rpq`` per
        source, a ``manifest.json``, and ``.bad`` sidecars under the
        quarantine policy.
    config:
        :class:`IngestConfig` (policy, chunking, validation limits).
    checkpoint:
        Journal path for crash-safe resume; completed source files are
        recorded durably and skipped on re-invocation (the journal is
        deleted after a fully successful run).
    controller:
        Optional :class:`~repro.core.runcontrol.RunController`; its
        deadline/signals interrupt between chunks/files with a typed
        ``RunInterrupted``, and its memory budget shrinks the record
        chunk size and is checked against the resident-state estimate.
    manifest_config:
        :class:`~repro.synth.driver.SimulationConfig` whose fingerprint
        is written to the archive manifest (defaults to a default-config
        fingerprint, letting ``analyze_archive`` validate trivially).
    deltas:
        With ``True`` (the default) a post-pass chains ``.rpd`` delta
        sidecars between consecutive ingested snapshots (archive
        timestamp order, two snapshots resident at a time), so a foreign
        archive supports ``analyze_archive(incremental=True)`` exactly
        like a simulated one.  Needs at least two usable snapshots.
    """
    from repro.core.manifest import write_manifest
    from repro.query.journal import KernelJournal
    from repro.synth.driver import SimulationConfig

    config = config if config is not None else IngestConfig()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = plan_sources(sources)

    effective = config
    budget = getattr(controller, "memory_budget", None)
    if budget is not None:
        # a chunk record costs ~500 B transient (RawRecord + raw line
        # bytes + path string + numpy row) and allocator fragmentation
        # tracks the chunk high-water mark, so keep one chunk to a small
        # fraction of the budget
        cap = max(1024, int(budget.limit_bytes) // 8192)
        if cap < config.chunk_records:
            effective = IngestConfig(
                on_error=config.on_error,
                chunk_records=cap,
                limits=config.limits,
                max_bad_records=config.max_bad_records,
                max_bad_ratio=config.max_bad_ratio,
            )

    journal = None
    done: dict[int, IngestFileStats] = {}
    if checkpoint is not None:
        fingerprint = json.loads(
            json.dumps(
                {
                    "sizes": {p.name: p.stat().st_size for p in paths},
                    "on_error": effective.on_error,
                    "limits": {
                        k: list(v) if isinstance(v, tuple) else v
                        for k, v in vars(effective.limits).items()
                    },
                }
            )
        )
        journal = KernelJournal(
            checkpoint,
            kernels=["ingest"],
            labels=[p.name for p in paths],
            fingerprint=fingerprint,
        )
        done = journal.load()

    report = IngestHealthReport()
    outputs: list[Path] = []
    records: list[dict] = []
    resume_hint = (
        f"re-run the same ingest with --checkpoint {checkpoint} to resume "
        "at the first unfinished source file"
        if checkpoint is not None
        else "re-run the same ingest (completed outputs are overwritten "
        "deterministically)"
    )
    try:
        for index, source in enumerate(paths):
            if controller is not None:
                controller.cancellation_point(
                    f"ingest after {len(report.files)}/{len(paths)} files",
                    partial=report,
                    resume_hint=resume_hint,
                )
            prior = done.get(index)
            if prior is not None and _restorable(out_dir, prior):
                prior.resumed = True
                report.files.append(prior)
                if prior.output is not None:
                    outputs.append(out_dir / prior.output)
                    records.append(
                        {
                            "label": prior.label,
                            "file": prior.output,
                            "rows": prior.rows,
                        }
                    )
                continue
            try:
                stats = ingest_file(
                    source, out_dir, effective, controller=controller
                )
            except (CorruptSnapshotError, OSError) as exc:
                if effective.on_error == "raise" or not isinstance(
                    exc, CorruptSnapshotError
                ):
                    raise
                fault = SnapshotFault(
                    path=str(source),
                    reason=exc.reason,
                    offset=exc.offset,
                    action="skipped",
                )
                report.faults.append(fault)
                warnings.warn(
                    f"trace file {source.name} failed ingestion: "
                    f"{exc.reason} — skipped",
                    RuntimeWarning,
                    stacklevel=2,
                )
                stats = IngestFileStats(
                    source=source.name,
                    output=None,
                    label=_trace_label(source),
                    timestamp=0,
                    lines=0,
                    rows=0,
                    rejected=0,
                    by_field={},
                    bytes_read=0,
                    output_bytes=0,
                )
            report.files.append(stats)
            if stats.peak_resident_bytes > report.peak_resident_bytes:
                report.peak_resident_bytes = stats.peak_resident_bytes
            if (
                budget is not None
                and stats.peak_resident_bytes > budget.limit_bytes
            ):
                warnings.warn(
                    f"ingest of {stats.source} held an estimated "
                    f"{stats.peak_resident_bytes:,} B resident, over the "
                    f"{budget.limit_bytes:,} B memory budget (dedup table "
                    "grows with unique paths; raise the budget or split "
                    "the dump)",
                    RuntimeWarning,
                    stacklevel=2,
                )
            if stats.output is not None:
                outputs.append(out_dir / stats.output)
                records.append(
                    {"label": stats.label, "file": stats.output, "rows": stats.rows}
                )
            if journal is not None:
                journal.append(index, stats)
    finally:
        if journal is not None:
            journal.close()
    if not outputs:
        raise CorruptSnapshotError(
            out_dir,
            f"ingestion produced no usable snapshots "
            f"({len(report.faults)} file fault(s))",
        )
    manifest_config = (
        manifest_config if manifest_config is not None else SimulationConfig()
    )
    extra = {
        "ingest": {
            "sources": [f.source for f in report.files],
            "records": report.records,
            "rows": report.rows,
            "rejected": report.rejected,
            "file_faults": len(report.faults),
            "on_error": effective.on_error,
        }
    }
    if deltas and len(outputs) > 1:
        from repro.scan.delta import delta_config

        _write_delta_sidecars(out_dir, report.files, controller=controller)
        extra["deltas"] = delta_config()
    write_manifest(
        out_dir,
        manifest_config,
        snapshots=records,
        extra=extra,
    )
    if journal is not None:
        journal.discard()
    return IngestResult(out_dir=out_dir, outputs=outputs, report=report)


def _write_delta_sidecars(
    out_dir: Path, files: list[IngestFileStats], controller=None
) -> list[Path]:
    """Chain ``.rpd`` sidecars between consecutive ingested snapshots.

    Snapshots are visited in archive order — timestamp, ties broken by
    filename, matching :class:`~repro.scan.store.DiskSnapshotCollection` —
    and re-read sequentially into one fresh path table so the sidecars'
    id assignment mirrors an analysis-time load.  Only two snapshots are
    resident at any moment, preserving the ingest's bounded-memory
    contract; skipped file faults simply drop out of the chain (the
    surviving window is what the analyzer sees).  Deterministic and
    idempotent: a resumed or re-run ingest rewrites identical sidecars.
    """
    from repro.scan.columnar import read_columnar
    from repro.scan.delta import compute_delta, sidecar_path, write_delta
    from repro.scan.paths import PathTable

    ordered = sorted(
        (f for f in files if f.output is not None),
        key=lambda f: (f.timestamp, f.output),
    )
    table = PathTable()
    prev = None
    written: list[Path] = []
    for stats in ordered:
        if controller is not None:
            controller.cancellation_point(
                f"delta sidecars after {len(written)} of {len(ordered) - 1}",
                resume_hint="re-run the same ingest; outputs and sidecars "
                "are rewritten deterministically",
            )
        cur = read_columnar(out_dir / stats.output, table)
        if prev is not None:
            dest = sidecar_path(out_dir, cur.label)
            write_delta(compute_delta(prev, cur), dest)
            written.append(dest)
        prev = cur
    return written


def _restorable(out_dir: Path, stats: IngestFileStats) -> bool:
    """A journaled file counts as done only if its output still checks out."""
    if stats.output is None:
        return True  # the fault was recorded; nothing on disk to verify
    path = out_dir / stats.output
    try:
        header = read_columnar_header(path)
    except (OSError, CorruptSnapshotError):
        return False
    return int(header["rows"]) == stats.rows
