"""Archive-backed request handling: aggregates, slices, breaker, staleness.

:class:`ArchiveService` owns one analyzed archive.  Warm-up runs the full
batch analysis once (:func:`~repro.core.pipeline.analyze_archive`) and
keeps two things: the encoded per-figure aggregates (the "last good"
cache) and the live lazily-loading collection for parameterized slices.

Failure policy mirrors the batch path's, extended with a per-archive
circuit breaker:

* transient I/O inside a slice is retried at the block layer
  (``io_retries`` on the collection) — an exhausted retry ladder is a
  breaker failure and a typed 503;
* corruption is never retried — typed 503, breaker failure, and (policy
  permitting) quarantine exactly as in batch mode;
* once the breaker trips, slices fail fast (503 + Retry-After) and the
  figure aggregates serve *stale* from the last good cache, marked
  ``X-Degraded: stale`` — stale-while-revalidate;
* after the cooldown one request probes the archive (headers-only digest
  only — never a rebuild on the request path); a matching digest closes
  the breaker, a changed one hands the rebuild to the follower thread
  (or a one-shot background thread) while the breaker stays half-open
  and figures keep serving stale.

Live archives (DESIGN.md §14): every ``warm()`` reads the manifest once
and pins the window to exactly the files that *generation* lists, so a
torn publish (data files landed, manifest commit never happened) is
invisible.  With ``incremental=True`` the re-warm replays ``.rpd`` deltas
through the journaled kernel state — O(delta), zero snapshot loads for
any analysis selection — and the new aggregates + ETag swap in atomically
under the lock while in-flight requests keep reading last-good.

Everything here is synchronous and thread-safe; the asyncio server runs
these methods in worker threads.
"""

from __future__ import annotations

import json
import stat
import threading
import time
import warnings
import zlib
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.runcontrol import RunController, RunInterrupted
from repro.query.engine import (
    EngineConfig,
    ExecutionEngine,
    Kernel,
    QuarantinedRow,
    TaskError,
)
from repro.scan.columnar import content_id, read_columnar_header
from repro.scan.errors import CorruptSnapshotError
from repro.serve.encode import dumps, to_jsonable
from repro.serve.errors import ServeError

__all__ = ["ArchiveService", "CircuitBreaker", "SLICE_DIMENSIONS"]

#: Slice dimensions the service understands: ``/v1/slice/<dim>/<key>``.
SLICE_DIMENSIONS = ("user", "project", "domain")


class CircuitBreaker:
    """Per-archive failure breaker: closed → open → half-open → closed.

    ``threshold`` *consecutive* failures open the breaker; while open,
    :meth:`allow` refuses work until ``cooldown_s`` has elapsed, then
    admits exactly one probe (half-open).  The probe's outcome decides:
    success closes the breaker, failure re-opens it for another cooldown.
    Thread-safe; deadline expiries must NOT be recorded as failures (a
    slow archive is not a broken archive).
    """

    def __init__(
        self,
        threshold: int = 3,
        cooldown_s: float = 2.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")
        self.threshold = int(threshold)
        self.cooldown_s = float(cooldown_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._state = "closed"
        self._opened_at = 0.0
        #: observability: total open transitions across the run
        self.trips = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """May a fresh archive read proceed right now?

        While open, returns False until the cooldown elapses, then flips
        to half-open and returns True exactly once — the probe.  Other
        callers stay refused until the probe reports.
        """
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                if self._clock() - self._opened_at >= self.cooldown_s:
                    self._state = "half_open"
                    return True
                return False
            return False  # half_open: a probe is already in flight

    def retry_after(self) -> float:
        """Seconds until the next probe becomes possible (0 when closed)."""
        with self._lock:
            if self._state != "open":
                return 0.0
            return max(
                0.0, self.cooldown_s - (self._clock() - self._opened_at)
            )

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._state = "closed"

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if self._state == "half_open" or self._failures >= self.threshold:
                if self._state != "open":
                    self.trips += 1
                self._state = "open"
                self._opened_at = self._clock()

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._failures,
                "trips": self.trips,
                "threshold": self.threshold,
                "cooldown_s": self.cooldown_s,
            }


def _headers_digest(files: Sequence[Path]) -> str:
    """Headers-only content digest of an explicit ``.rpq`` window.

    The per-snapshot :func:`~repro.scan.columnar.content_id` the
    collection's ``content_ids()`` builds, folded across the listed files
    *in the given order*.  Callers pass the manifest-pinned window so
    stray files from a torn publish never perturb the digest.  Raises
    :class:`~repro.scan.errors.CorruptSnapshotError` on a damaged header
    and ``OSError`` on unreadable files — both are probe failures.
    """
    files = [Path(f) for f in files]
    if not files:
        raise CorruptSnapshotError(Path("."), "no .rpq snapshots")
    ids = [content_id(read_columnar_header(f)) for f in files]
    return format(zlib.crc32(json.dumps(ids).encode("utf-8")), "08x")


class ArchiveService:
    """One analyzed archive, served.

    Parameters
    ----------
    directory:
        The ``.rpq`` archive directory (must carry a ``manifest.json``).
    config:
        The :class:`~repro.core.pipeline.SimulationConfig` the archive was
        built under (defaults like the CLI's analyze path).
    analyses:
        Optional analysis subset forwarded to ``analyze_archive``.
    controller:
        Root :class:`~repro.core.runcontrol.RunController`; warm-up and
        re-warms run under it, and per-request controllers are derived
        from it by the server.
    breaker:
        The archive's :class:`CircuitBreaker` (a default one is built).
    on_error:
        Degradation policy for the warm-time collection (``"raise"`` by
        default: serving must not silently mutate the archive).
    incremental:
        ``True`` makes every warm journal/replay kernel state through the
        archive's ``kernel_state.bin``, so re-warms after an append cost
        O(delta) with zero snapshot loads for any ``analyses`` selection
        (a broken sidecar link costs its two snapshots) — the
        ``--follow`` mode.
    processes:
        Worker processes for the warm's fused pass (1 = serial).  A fresh
        executor is built per warm so ``warm_info()`` reports per-swap
        :class:`~repro.query.engine.ExecutionStats`.
    """

    def __init__(
        self,
        directory: str | Path,
        config: Any = None,
        analyses: list[str] | str | None = None,
        controller: RunController | None = None,
        breaker: CircuitBreaker | None = None,
        on_error: str = "raise",
        allow_config_mismatch: bool = False,
        incremental: bool = False,
        processes: int = 1,
    ) -> None:
        self.directory = Path(directory)
        self.config = config
        self.analyses = analyses
        self.controller = controller
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.on_error = on_error
        self.allow_config_mismatch = allow_config_mismatch
        self.incremental = incremental
        self.processes = max(1, int(processes))
        self._lock = threading.RLock()
        self.pipeline: Any = None
        self.report: Any = None
        self.etag: str | None = None
        self._figures: dict[str, bytes] = {}
        self._report_text: bytes = b""
        self._generation = 0
        self._warm_info: dict[str, Any] = {}
        #: bytes a re-warm may inflate beyond the served working set; the
        #: server adds this to its admission projection so a swap can
        #: never OOM live traffic (requests shed 429 instead)
        self.replay_reserved_bytes = 0
        #: serializes warms (request-path never holds this: re-warms run
        #: on the follower thread or a one-shot background thread)
        self._warm_mutex = threading.Lock()
        self._rewarm_thread: threading.Thread | None = None
        #: set by rewarm_async (a half-open probe saw changed content) and
        #: cleared when the next refresh completes — tells the follower a
        #: rebuild is owed even when the generation number did not move
        self._rewarm_requested = False
        self._follower: Any = None
        self._pub_cache: tuple[Any, int] = (None, 0)
        #: serial slices: a task runs once (the engine has no task retry);
        #: transient I/O retries at the block layer, and corruption
        #: surfaces on the first attempt
        self._engine = ExecutionEngine(
            EngineConfig(processes=1, start_method="serial")
        )

    # -- warm-up / revalidation ---------------------------------------------

    def _published_window(self) -> tuple[int, list[Path] | None]:
        """(generation, pinned file list) of the manifest on disk now.

        The manifest is read once so generation and file list are one
        consistent publish; ``None`` files means "no inventory" (pre-
        generation archives) and the collection falls back to globbing.
        """
        from repro.core.manifest import load_manifest

        manifest = load_manifest(self.directory)
        if manifest is None:
            return 0, None
        files = [
            self.directory / rec["file"]
            for rec in manifest.get("snapshots", [])
            if isinstance(rec, dict) and rec.get("file")
        ]
        return int(manifest.get("generation", 0)), files or None

    def _reserve_estimate(self, files: list[Path] | None) -> int:
        """Worst-case decoded bytes a re-warm may hold resident (2 snaps)."""
        try:
            if files:
                rows = max(
                    int(read_columnar_header(f).get("rows", 0)) for f in files
                )
                from repro.scan.snapshot import NUMERIC_COLUMNS

                return 2 * rows * (len(NUMERIC_COLUMNS) + 1) * 8
            if self.pipeline is not None:
                return 2 * self.collection.max_snapshot_nbytes()
        except (CorruptSnapshotError, OSError, ValueError):
            pass
        return 0

    def warm(self) -> None:
        """Analyze the published window and atomically swap the aggregates.

        Reads the manifest once (generation fencing: the window is exactly
        the files that generation lists), runs the analysis — incremental
        delta replay when ``incremental=True``, full batch otherwise —
        then swaps pipeline/figures/ETag under the lock.  In-flight
        requests keep reading the previous (last-good) cache until the
        swap lands.  Thread-safe: concurrent warms serialize.
        """
        with self._warm_mutex:
            self._warm_locked()

    def _warm_locked(self) -> None:
        from repro.core.pipeline import analyze_archive
        from repro.query.parallel import SnapshotExecutor

        started = time.monotonic()
        generation, files = self._published_window()
        serving = self.pipeline is not None
        if serving:
            # charge the rebuild against admission before any load happens
            self.replay_reserved_bytes = self._reserve_estimate(files)
        try:
            executor = (
                SnapshotExecutor(self.processes) if self.processes > 1 else None
            )
            pipeline, report = analyze_archive(
                self.directory,
                config=self.config,
                analyses=self.analyses,
                executor=executor,
                on_error=self.on_error,
                controller=self.controller,
                allow_config_mismatch=self.allow_config_mismatch,
                incremental=self.incremental,
                snapshot_files=files,
            )
            figures: dict[str, bytes] = {}
            import dataclasses

            for f in dataclasses.fields(type(report)):
                if f.name == "text":
                    continue
                value = getattr(report, f.name)
                if value is None:
                    continue
                figures[f.name] = dumps(
                    {"figure": f.name, "data": to_jsonable(value)}
                )
            digest = _headers_digest(pipeline.context.collection.files)
            stats = pipeline.executor.stats
            info = {
                "incremental": self.incremental,
                "generation": generation,
                "snapshot_loads": int(stats.snapshot_loads),
                "delta_kernels": int(stats.delta_kernels),
                "delta_updates": int(stats.delta_updates),
                "warm_seconds": round(time.monotonic() - started, 6),
                "warmed_unix": int(time.time()),
            }
            with self._lock:
                self.pipeline = pipeline
                self.report = report
                self._figures = figures
                self._report_text = report.text.encode("utf-8")
                self.etag = f'"{digest}"'
                self._generation = generation
                self._warm_info = info
        finally:
            self.replay_reserved_bytes = 0
        self.breaker.record_success()

    @property
    def collection(self) -> Any:
        return self.pipeline.context.collection

    @property
    def context(self) -> Any:
        return self.pipeline.context

    @property
    def generation(self) -> int:
        """Generation of the manifest the served aggregates were built from."""
        with self._lock:
            return self._generation

    def warm_info(self) -> dict[str, Any]:
        """Per-swap ExecutionStats extract for the last completed warm."""
        with self._lock:
            return dict(self._warm_info)

    # -- follower integration ------------------------------------------------

    def attach_follower(self, follower: Any) -> None:
        self._follower = follower

    @property
    def following(self) -> bool:
        return self._follower is not None

    def published_generation(self) -> int | None:
        """The manifest generation on disk right now (cheap, mtime-cached).

        ``None`` when the manifest is missing/unstattable — "unknown", so
        callers never mistake an unreadable archive for a fresh one.
        """
        from repro.core.manifest import MANIFEST_NAME, manifest_generation

        try:
            st = (self.directory / MANIFEST_NAME).stat()
        except OSError:
            return None
        key = (st.st_mtime_ns, st.st_size)
        with self._lock:
            if self._pub_cache[0] == key:
                return self._pub_cache[1]
        gen = manifest_generation(self.directory)
        with self._lock:
            self._pub_cache = (key, gen)
        return gen

    @property
    def rewarm_requested(self) -> bool:
        return self._rewarm_requested

    def refresh(self) -> bool:
        """One guarded warm: True on swap, False (warned + breaker) on fail.

        The follower's workhorse — also the async re-warm's.  Never
        raises: a failing archive keeps serving last-good aggregates
        behind the breaker rather than taking the server down.
        """
        try:
            self.warm()
            return True
        except Exception as exc:
            warnings.warn(
                f"archive re-warm failed ({type(exc).__name__}: {exc}) — "
                "serving last-good aggregates stale until it recovers",
                RuntimeWarning,
                stacklevel=2,
            )
            self.breaker.record_failure()
            return False
        finally:
            self._rewarm_requested = False

    def rewarm_async(self) -> None:
        """Rebuild the aggregate cache off the request path.

        With a follower attached the rebuild is its next poll (poked
        awake); otherwise a single-flight daemon thread runs one
        :meth:`refresh`.  Either way the caller returns immediately.
        """
        self._rewarm_requested = True
        follower = self._follower
        if follower is not None:
            follower.poke()
            return
        with self._lock:
            thread = self._rewarm_thread
            if thread is not None and thread.is_alive():
                return
            thread = threading.Thread(
                target=self.refresh, name="repro-rewarm", daemon=True
            )
            self._rewarm_thread = thread
        thread.start()

    def _current_digest(self) -> str:
        """Headers digest of the *published* window (manifest-pinned)."""
        from repro.scan.errors import ArchiveConfigError

        try:
            _, files = self._published_window()
        except ArchiveConfigError as exc:
            raise CorruptSnapshotError(
                self.directory / "manifest.json", f"unreadable manifest ({exc})"
            ) from exc
        if files is None:
            files = sorted(self.directory.glob("*.rpq"))
            if not files:
                raise CorruptSnapshotError(self.directory, "no .rpq snapshots")
        return _headers_digest(files)

    def maybe_revalidate(self) -> None:
        """Half-open probe: cheap headers digest; re-warms run off-path.

        Called by the server before archive-backed work.  When the breaker
        is closed this is free; when open it refuses instantly.  The one
        admitted half-open probe re-reads headers only: a matching digest
        means the archive healed with unchanged content — the breaker
        closes immediately.  A *different* digest means content changed;
        the rebuild is handed to the follower (or a one-shot background
        thread) via :meth:`rewarm_async`, the breaker stays half-open —
        slices keep failing fast, figures keep serving stale — and the
        rebuild's outcome closes or re-opens it.  No request ever stalls
        behind a re-warm.
        """
        if self.breaker.state == "closed":
            return
        if not self.breaker.allow():
            return
        try:
            digest = self._current_digest()
        except (CorruptSnapshotError, OSError):
            self.breaker.record_failure()
            return
        with self._lock:
            current = self.etag
        if current == f'"{digest}"':
            self.breaker.record_success()
        else:
            self.rewarm_async()

    # -- aggregates ----------------------------------------------------------

    def figure_names(self) -> list[str]:
        with self._lock:
            return sorted(self._figures)

    def figure(self, name: str) -> bytes:
        """Encoded aggregate for ``name`` (last good — never touches disk)."""
        with self._lock:
            payload = self._figures.get(name)
        if payload is None:
            raise ServeError(
                404, "unknown_figure",
                f"no figure {name!r}; see /v1/figures",
            )
        return payload

    def report_text(self) -> bytes:
        with self._lock:
            return self._report_text

    # -- slices --------------------------------------------------------------

    def _slice_mask_fn(self, dim: str, key: str, context: Any = None):
        """``snapshot -> bool mask`` selecting the requested slice."""
        if context is None:
            context = self.context
        if dim == "user":
            try:
                uid = int(key)
            except ValueError:
                raise ServeError(
                    400, "bad_slice_key", f"user key must be an integer uid, got {key!r}"
                ) from None
            return lambda snap: snap.uid == uid
        if dim == "project":
            try:
                gid = int(key)
            except ValueError:
                raise ServeError(
                    400, "bad_slice_key", f"project key must be an integer gid, got {key!r}"
                ) from None
            return lambda snap: snap.gid == gid
        if dim == "domain":
            domain_id = context.domain_index.get(key)
            if domain_id is None:
                raise ServeError(
                    404, "unknown_domain",
                    f"unknown domain {key!r}; one of {context.domain_codes}",
                )
            return lambda snap: (
                context.domain_ids_of_gids(snap.gid) == domain_id
            )
        raise ServeError(
            404, "unknown_dimension",
            f"unknown slice dimension {dim!r}; one of {list(SLICE_DIMENSIONS)}",
        )

    def slice(
        self, dim: str, key: str, controller: RunController | None = None
    ) -> tuple[list[dict], dict | None]:
        """Per-snapshot stats for one slice, through the query engine.

        Returns ``(rows, degraded)``: one row per snapshot in window
        order, and ``None`` or a typed degraded marker when the request's
        deadline (or a drain cancel) stopped the pass early — the rows
        then cover a *prefix* of the window and the marker says how much.
        """
        if not self.breaker.allow():
            raise ServeError(
                503, "breaker_open",
                f"archive {self.directory.name} is failing; serving "
                "aggregates stale until it recovers",
                retry_after=self.breaker.retry_after(),
            )
        # one pipeline reference for the whole request: a follower swap
        # mid-slice must not mix two windows' context and collection
        pipeline = self.pipeline
        mask_fn = self._slice_mask_fn(dim, key, pipeline.context)

        def map_fn(snap):
            mask = mask_fn(snap)
            entries = int(np.count_nonzero(mask))
            row = {
                "label": snap.label,
                "timestamp": int(snap.timestamp),
                "entries": entries,
                "directories": 0,
                "max_mtime": None,
                "max_atime": None,
            }
            if entries:
                row["directories"] = int(
                    np.count_nonzero(
                        (snap.mode[mask] & 0o170000) == stat.S_IFDIR
                    )
                )
                row["max_mtime"] = int(snap.mtime[mask].max())
                row["max_atime"] = int(snap.atime[mask].max())
            return row

        kernel = Kernel(name="slice", map_fn=map_fn, reduce_fn=list)
        collection = pipeline.context.collection
        n = len(collection)
        try:
            results, _stats = self._engine.run_kernels(
                collection, [kernel], controller=controller
            )
        except RunInterrupted as err:
            rows = []
            partial = err.partial if isinstance(err.partial, dict) else {}
            for i in sorted(partial):
                value = partial[i]
                if isinstance(value, QuarantinedRow):
                    continue
                rows.append(value[0]["slice"])
            reason = "deadline" if "deadline" in str(err.reason) else "cancelled"
            self.breaker.record_success()  # slow ≠ broken
            return rows, {"reason": reason, "covered": len(rows), "of": n}
        except TaskError as err:
            cause = err.__cause__
            self.breaker.record_failure()
            if isinstance(cause, CorruptSnapshotError) or isinstance(
                err.__context__, CorruptSnapshotError
            ):
                raise ServeError(
                    503, "archive_fault",
                    "snapshot failed its integrity check; the window is "
                    "degraded until the archive recovers",
                    retry_after=self.breaker.retry_after() or None,
                ) from None
            if isinstance(cause, OSError):
                raise ServeError(
                    503, "archive_io",
                    "transient archive I/O exhausted its retries",
                    retry_after=self.breaker.retry_after() or None,
                ) from None
            raise ServeError(
                500, "task_failed",
                f"slice task failed: {type(cause).__name__ if cause else 'unknown'}",
            ) from None
        self.breaker.record_success()
        return results["slice"], None
