"""Typed errors for the snapshot data path.

The scan layer's reads must never surface a cryptic ``JSONDecodeError`` or
— worse — silently wrong arrays when a ``.rpq`` file is truncated or
bit-flipped.  Every integrity failure funnels into
:class:`CorruptSnapshotError`, which callers (the store's degradation
policy, the CLI, the chaos harness) can catch and attribute to a file,
offset, and reason.

``CorruptSnapshotError`` subclasses :class:`OSError` so existing
``except IOError`` call sites keep working, but it is *permanent*: the
store's transient-I/O retry loop explicitly re-raises it instead of
retrying (a checksum mismatch does not heal with backoff).
"""

from __future__ import annotations


class CorruptSnapshotError(OSError):
    """A columnar snapshot file failed an integrity check.

    Attributes
    ----------
    path:
        The offending file, as given by the caller.
    offset:
        Byte offset of the failing section when attributable, else None.
    reason:
        Human-readable description of the check that failed.
    """

    def __init__(self, path, reason: str, offset: int | None = None) -> None:
        self.path = str(path)
        self.offset = offset
        self.reason = reason
        where = f" at byte {offset}" if offset is not None else ""
        super().__init__(f"{self.path}{where}: {reason}")


class IngestRecordError(ValueError):
    """One untrusted trace record failed parsing or validation.

    The PSV parser and the :mod:`repro.ingest` validation layer both raise
    this instead of a bare ``ValueError``/unpack crash, so a malformed line
    in a multi-GB foreign dump is attributable to an exact file, line
    number, and field.  Subclasses :class:`ValueError` so pre-existing
    ``except ValueError`` call sites keep working.

    Attributes
    ----------
    file:
        The offending source file (or ``"<stream>"``).
    line:
        1-based line number of the record.
    field:
        The field that failed (``"path"``, ``"mode"``, ``"ost"``, ... or
        ``"record"`` for line-level failures like a wrong field count).
    reason:
        Human-readable description of the check that failed.
    """

    def __init__(self, file, line: int, field: str, reason: str) -> None:
        self.file = str(file)
        self.line = int(line)
        self.field = str(field)
        self.reason = str(reason)
        super().__init__(
            f"{self.file}:{self.line}: field {self.field!r}: {self.reason}"
        )


class ArchiveConfigError(ValueError):
    """The archive's recorded config fingerprint contradicts the caller's.

    Raised by :func:`repro.core.manifest.validate_manifest` when e.g. the
    caller's seed differs from the seed that produced the archive — for
    an archive without an accounts member, whose population is
    regenerated from that seed, previously a silent wrong-results mode.
    """

    def __init__(self, path, mismatches: dict[str, tuple]) -> None:
        self.path = str(path)
        self.mismatches = dict(mismatches)
        detail = ", ".join(
            f"{key}: archive={a!r} requested={b!r}"
            for key, (a, b) in sorted(self.mismatches.items())
        )
        super().__init__(
            f"{self.path}: archive config mismatch ({detail}); pass "
            "allow_config_mismatch=True / --allow-config-mismatch if intentional"
        )
