"""The live-archive follower: track a growing archive off the request path.

Robinhood's policy engine survives petascale namespaces because it applies
incremental changelogs instead of rescanning; ``repro serve --follow``
makes the serving layer work the same way.  A writer publishes snapshots
with :meth:`~repro.core.pipeline.ReproPipeline.archive` (data + ``.rpd``
sidecars fsynced first, a generation-bumped ``manifest.json`` committed
last), and :class:`ArchiveFollower` — one daemon thread — polls that
generation:

* **new generation** → one guarded :meth:`ArchiveService.refresh`:
  validate the published window, replay the new deltas through the
  journaled kernel state (O(delta), zero snapshot loads for any analysis
  selection), atomically swap aggregates + ETag.  In-flight requests keep
  reading last-good throughout.
* **torn publish** (writer crashed before the manifest commit) → the
  generation never moved, the stray files are invisible, nothing happens.
* **corrupt/missing/mislinked sidecar** → the incremental loader
  recomputes just that interval's delta from its two snapshots (bounded,
  warned).
* **repeated failures** → the archive's :class:`CircuitBreaker` gates the
  retries; figures keep serving stale behind ``X-Degraded`` until a
  refresh succeeds.
* **mid-replay crash** → kernel state is journaled only after healthy
  runs, so a restarted server warms incrementally from the last durable
  state.

Replay memory is charged against the server's admission budget via
``service.replay_reserved_bytes``, so a swap sheds requests (429) rather
than OOMing live traffic.

The half-open revalidation probe integrates here too: when the breaker
is open and content changed, ``ArchiveService.rewarm_async`` pokes the
follower instead of rebuilding on the request path.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

__all__ = ["ArchiveFollower", "FollowerStats"]


@dataclass
class FollowerStats:
    """Cheap counters surfaced at ``/v1/stats`` and by the load bench."""

    polls: int = 0
    swaps: int = 0
    swap_failures: int = 0
    breaker_waits: int = 0
    #: wall seconds the last successful refresh took (validate + replay)
    last_swap_s: float = 0.0
    #: publish→visible window: manifest commit time to ETag swap complete
    last_staleness_s: float = 0.0
    last_generation: int = 0
    history: list[dict] = field(default_factory=list, repr=False)

    def snapshot(self) -> dict:
        return {
            "polls": self.polls,
            "swaps": self.swaps,
            "swap_failures": self.swap_failures,
            "breaker_waits": self.breaker_waits,
            "last_swap_s": self.last_swap_s,
            "last_staleness_s": self.last_staleness_s,
            "last_generation": self.last_generation,
        }


class ArchiveFollower:
    """One daemon thread keeping an :class:`ArchiveService` current.

    Parameters
    ----------
    service:
        The service to keep warm; the follower attaches itself so the
        service routes async re-warm requests here instead of spawning
        one-shot threads.
    poll_interval_s:
        Seconds between generation polls.  A :meth:`poke` (new request-
        path probe, tests) wakes the thread early.
    clock:
        Monotonic clock, injectable for tests.
    """

    def __init__(
        self,
        service: Any,
        poll_interval_s: float = 2.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be > 0")
        self.service = service
        self.poll_interval_s = float(poll_interval_s)
        self._clock = clock
        self.stats = FollowerStats()
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._thread: threading.Thread | None = None
        service.attach_follower(self)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-follow", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float | None = 10.0) -> None:
        self._stop.set()
        self._wake.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)

    def poke(self) -> None:
        """Wake the poll loop now (a probe saw changed content)."""
        self._wake.set()

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    # -- the loop ------------------------------------------------------------

    def _run(self) -> None:
        while not self._stop.is_set():
            self.poll_once()
            self._wake.wait(self.poll_interval_s)
            self._wake.clear()

    def poll_once(self) -> str:
        """One poll step; returns what happened (for tests/observability).

        ``"idle"`` — nothing published; ``"swapped"`` — refreshed to a new
        generation; ``"failed"`` — a refresh ran and failed (breaker
        recorded); ``"breaker"`` — work is pending but the breaker's
        cooldown gates the retry; ``"unreadable"`` — no manifest to poll.
        """
        service = self.service
        self.stats.polls += 1
        published = service.published_generation()
        if published is None:
            return "unreadable"
        self.stats.last_generation = max(
            self.stats.last_generation, published
        )
        # a poked rewarm (half-open probe saw changed content) is owed a
        # rebuild even when the generation number did not move — and it
        # already passed the breaker's gate, so it skips the pacing check
        pending_rewarm = service.rewarm_requested
        if published <= service.generation and not pending_rewarm:
            # nothing new; give the half-open probe a home off the request
            # path (same contract: requests never pay for a rebuild)
            service.maybe_revalidate()
            return "idle"
        # a new generation is pending — the breaker gates retry pacing so
        # a persistently broken archive backs off instead of spinning
        if not pending_rewarm and not service.breaker.allow():
            self.stats.breaker_waits += 1
            return "breaker"
        published_at = self._manifest_mtime()
        t0 = self._clock()
        ok = service.refresh()
        elapsed = self._clock() - t0
        if not ok:
            self.stats.swap_failures += 1
            return "failed"
        self.stats.swaps += 1
        self.stats.last_swap_s = elapsed
        staleness = (
            max(0.0, time.time() - published_at) if published_at else elapsed
        )
        self.stats.last_staleness_s = staleness
        self.stats.history.append(
            {
                "generation": service.generation,
                "swap_s": round(elapsed, 6),
                "staleness_s": round(staleness, 6),
                **{
                    k: service.warm_info().get(k)
                    for k in ("snapshot_loads", "delta_kernels", "delta_updates")
                },
            }
        )
        return "swapped"

    def _manifest_mtime(self) -> float | None:
        from repro.core.manifest import MANIFEST_NAME

        try:
            return (self.service.directory / MANIFEST_NAME).stat().st_mtime
        except OSError:
            return None
