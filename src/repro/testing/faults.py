"""Fault-injection harness for the archive→analyze path.

Robinhood and Icicle exist because namespace scans over billions of
entries fail partway; this module makes those failures *reproducible* so
the data path's tolerance can be tested instead of hoped for.  It provides:

* **file corruption** — :func:`truncate_at` and :func:`bit_flip` damage a
  snapshot file in place; :func:`corruption_points` enumerates every
  section boundary of a ``.rpq`` so a sweep can hit them all, while
  :func:`block_edges` / :func:`padding_spans` expose the v3 layout's
  block-alignment edges and data-free pad gaps for boundary-exact sweeps;
* **transient I/O errors** — :class:`FlakyReader` wraps a loader so the
  first N calls raise ``OSError(EIO)`` and later ones succeed, exercising
  the store's retry-with-backoff;
* **process kills** — :func:`sigkill_after` wraps a loader so the process
  SIGKILLs itself after N successful loads, exercising checkpoint/resume
  with a *real* kill (no cooperative exception);
* **torn publishes** — :func:`torn_publish` runs a writer's data phase but
  rolls the manifest back to its pre-publish bytes, reproducing a crash
  between the data fsyncs and the manifest commit; a follower must keep
  serving the old generation and never read the stray files.

Both the pytest corruption suites and ``scripts/chaos_soak.py`` are built
on these primitives.
"""

from __future__ import annotations

import contextlib
import errno
import os
import signal
from pathlib import Path
from typing import Any, Callable


def truncate_at(path: str | Path, offset: int) -> None:
    """Truncate ``path`` to ``offset`` bytes in place (a partial write)."""
    size = os.path.getsize(path)
    if not 0 <= offset <= size:
        raise ValueError(f"offset {offset} outside file of {size} bytes")
    with open(path, "r+b") as fh:
        fh.truncate(offset)


def bit_flip(path: str | Path, offset: int, bit: int = 0) -> None:
    """Flip one bit of the byte at ``offset`` in place (silent corruption)."""
    if not 0 <= bit < 8:
        raise ValueError("bit must be in 0..7")
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        if len(byte) != 1:
            raise ValueError(f"offset {offset} beyond end of {path}")
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ (1 << bit)]))


def corruption_points(path: str | Path) -> list[tuple[str, int, int]]:
    """``(section, offset, length)`` for every section of a valid ``.rpq``.

    Truncating at any returned offset, or flipping any byte inside any
    returned span, must surface as a typed
    :class:`~repro.scan.errors.CorruptSnapshotError` — never as silently
    wrong data.  Enumerate *before* corrupting (the file must be valid).
    """
    from repro.scan.columnar import describe_sections

    return describe_sections(path)


def block_edges(path: str | Path) -> list[tuple[str, int, int]]:
    """``(section, first_byte, last_byte)`` of every stored section.

    The exact edge offsets of each block's stored bytes — for v3 these are
    the mmap block boundaries (the bytes adjacent to alignment padding),
    where an off-by-one in offset bookkeeping would corrupt or miss data.
    A bit flip at either returned offset must raise a typed
    :class:`~repro.scan.errors.CorruptSnapshotError` on read.
    """
    return [
        (name, offset, offset + max(1, length) - 1)
        for name, offset, length in corruption_points(path)
    ]


def padding_spans(path: str | Path) -> list[tuple[int, int]]:
    """``(offset, length)`` of every alignment-padding gap in a ``.rpq``.

    v3 block-aligns sections, leaving zero-filled gaps that carry no data
    and no CRC — the corruption sweep's only deliberate blind spots.
    Flipping a pad byte must leave every decoded array byte-identical
    (the pads are not data), while truncating inside one must still raise
    typed (the trailer's total-length check).  Empty for legacy v2 files,
    whose sections tile the file exactly.
    """
    size = os.path.getsize(path)
    sections = sorted(corruption_points(path), key=lambda s: s[1])
    spans: list[tuple[int, int]] = []
    offset = 0
    for _, start, length in sections:
        if start > offset:
            spans.append((offset, start - offset))
        offset = start + length
    if size > offset:
        spans.append((offset, size - offset))
    return spans


@contextlib.contextmanager
def torn_publish(directory: str | Path):
    """Simulate a publish that crashed before its manifest commit.

    The publish protocol writes data + sidecars first and commits
    ``manifest.json`` (with a bumped ``generation``) last.  This context
    manager snapshots the manifest's bytes, lets the body run a real
    publish (data files land on disk, manifest gets rewritten), then
    *restores the pre-publish manifest* — exactly the on-disk state left
    by a writer killed between its last data fsync and the manifest
    rename.  The stray data files remain, as they would after the crash.

    A generation-fenced reader must shrug: the generation never moved, so
    the new files are invisible and the old window keeps serving.

    Example::

        with torn_publish(archive_dir):
            pipeline.archive(archive_dir, max_snapshots=k + 1,
                             skip_existing=True)
        # archive_dir now has snapshot k's files but the old manifest
    """
    manifest = Path(directory) / "manifest.json"
    before = manifest.read_bytes() if manifest.exists() else None
    try:
        yield
    finally:
        if before is None:
            manifest.unlink(missing_ok=True)
        else:
            manifest.write_bytes(before)


def mutate_bytes(data: bytes, rng, mutations: int = 1) -> bytes:
    """Return ``data`` with ``mutations`` random byte-level edits.

    Each edit is one of: flip a bit, delete a byte, insert a random byte,
    or overwrite a byte — the damage profile of a trace dump mangled in
    transit.  Deterministic for a given ``rng`` (``random.Random``) state;
    the ingest fuzz suites assert every mutant either parses to the same
    values or dies with a *typed* error, never a silently different
    record.
    """
    if mutations < 0:
        raise ValueError("mutations must be >= 0")
    out = bytearray(data)
    for _ in range(mutations):
        op = rng.randrange(4)
        if not out:
            op = 2  # only insertion is possible on an empty buffer
        if op == 0:  # bit flip
            i = rng.randrange(len(out))
            out[i] ^= 1 << rng.randrange(8)
        elif op == 1:  # delete
            del out[rng.randrange(len(out))]
        elif op == 2:  # insert
            out.insert(rng.randrange(len(out) + 1), rng.randrange(256))
        else:  # overwrite
            out[rng.randrange(len(out))] = rng.randrange(256)
    return bytes(out)


class FlakyReader:
    """Wrap a loader: the first ``failures`` calls raise a transient error.

    The default exception is ``OSError(EIO)`` — the transient-media-error
    case the store's retry-with-backoff exists for.  Thread-unsafe by
    design (deterministic call counting).

    Example::

        flaky = FlakyReader(read_columnar, failures=2)
        collection._reader = flaky      # or monkeypatch the module function
        collection[0]                   # succeeds on the 3rd attempt
        assert flaky.calls == 3
    """

    def __init__(
        self,
        fn: Callable[..., Any],
        failures: int,
        exc_factory: Callable[[], BaseException] | None = None,
    ) -> None:
        self.fn = fn
        self.failures = failures
        self.exc_factory = exc_factory or (
            lambda: OSError(errno.EIO, "injected transient I/O error")
        )
        self.calls = 0

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc_factory()
        return self.fn(*args, **kwargs)


def sigkill_after(
    fn: Callable[..., Any], successes: int
) -> Callable[..., Any]:
    """Wrap a loader so the process SIGKILLs itself after N successes.

    A *real* ``SIGKILL`` — no atexit handlers, no finally blocks — which is
    exactly the crash the checkpoint journal must survive.  Use inside a
    sacrificial subprocess, not the test runner itself.
    """
    state = {"done": 0}

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if state["done"] >= successes:
            os.kill(os.getpid(), signal.SIGKILL)
        result = fn(*args, **kwargs)
        state["done"] += 1
        return result

    return wrapper


def kill_shard_worker(
    supervisor, shard: int | None = None, rng=None
) -> int | None:
    """SIGKILL one live shard worker under a running :class:`ShardSupervisor`.

    ``shard`` picks a specific worker; ``None`` picks one at random (pass
    ``rng``, a ``random.Random``, for reproducible chaos).  Returns the
    shard whose worker was killed, or ``None`` when no worker was running
    (the injector raced the run's natural completion — callers treat that
    as a no-op, not a failure).
    """
    pids = supervisor.worker_pids()
    if shard is None:
        if not pids:
            return None
        targets = sorted(pids)
        shard = targets[rng.randrange(len(targets))] if rng is not None else targets[0]
    pid = pids.get(shard)
    if pid is None:
        return None
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:  # pragma: no cover - exit race
        return None
    return shard


def shard_kill(shard: int, after_weeks: int = 1, attempts: int = 1):
    """A :class:`ShardFault` making the worker SIGKILL itself mid-shard.

    Deterministic crash injection: the worker dies after journaling
    ``after_weeks`` new weekly parts, on its first ``attempts`` attempts.
    """
    from repro.synth.sharding import ShardFault

    return ShardFault(
        shard=shard, kill_after_weeks=after_weeks, max_attempt=attempts
    )


def shard_stall(
    shard: int, week: int, seconds: float, attempts: int = 1
):
    """A :class:`ShardFault` injecting a progress stall (straggler).

    The worker sleeps ``seconds`` before processing ``week``, starving the
    supervisor's journal heartbeat — long enough stalls trip the watchdog
    warning and, past the shard deadline, a kill-and-restart.
    """
    from repro.synth.sharding import ShardFault

    return ShardFault(
        shard=shard, stall_week=week, stall_seconds=seconds, max_attempt=attempts
    )
