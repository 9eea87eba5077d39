"""Run-level control plane: deadlines, cancellation, and memory budgets.

The pipeline is a long-running metadata job — 72 snapshots, 500 simulated
days, multi-GB archives at scale — and production metadata engines treat
interruptibility and resource ceilings as first-class (Robinhood's policy
runs, Lustre changelog consumers).  This module is the layer that ties the
per-task retries/watchdogs (engine) and the resumable kernel journal
together into *run-level* behavior:

* :class:`CancelToken` — a cooperative cancellation flag.  Signal handlers
  (and tests) set it; every long-running layer polls it at its natural
  boundary (between weeks, between snapshots, between dispatch waves) and
  stops *gracefully* — checkpoint flushed, workers drained, typed error.
* :class:`RunController` — carries a wall-clock deadline, the token, a
  byte-denominated :class:`MemoryBudget`, and the grace period granted to
  in-flight workers after a stop is requested.  Library callers construct
  one explicitly and pass it down; only the CLI installs signal handlers
  (:meth:`RunController.install_signal_handlers`), and only around
  ``main()`` — a library must never hijack its host's signal disposition.
* :class:`MemoryBudget` — one byte ceiling for the run, split between the
  snapshot cache (:class:`~repro.scan.store.DiskSnapshotCollection`
  evicts by bytes against ``cache_bytes``) and in-flight dispatch waves
  (the engine caps concurrent workers against ``wave_bytes``).
* :func:`usable_cpus` — the CPUs this process may run on, which sizes
  the engine's default pool and the block writer's deflate threads.
* :class:`RunInterrupted` — the typed stop.  Carries the reason, the
  partial result accumulated so far, the run's
  :class:`~repro.query.engine.ExecutionStats`, and a ``resume_hint``
  naming the exact ``--checkpoint`` invocation that resumes the run
  byte-identically.

Every check is cooperative: nothing here preempts a running task.  The
engine's bounded grace period (then pool termination) is what turns a
stuck worker into a stop anyway.
"""

from __future__ import annotations

import os
import re
import signal
import threading
import time
from collections.abc import Callable
from contextlib import contextmanager

__all__ = [
    "CancelToken",
    "MemoryBudget",
    "RunController",
    "RunInterrupted",
    "parse_bytes",
    "usable_cpus",
]

#: Suffix multipliers accepted by :func:`parse_bytes` (binary, like ulimit).
_UNITS = {"": 1, "k": 1 << 10, "m": 1 << 20, "g": 1 << 30, "t": 1 << 40}

_BYTES_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*([kmgt]?)i?b?\s*$", re.IGNORECASE)


def parse_bytes(value: int | float | str) -> int:
    """``"512M"`` / ``"2GiB"`` / ``"1048576"`` / ``1048576`` → bytes.

    Suffixes are binary (``K`` = 1024); a bare number is bytes.  Raises a
    typed ``ValueError`` on anything else (including negatives) so a CLI
    typo fails loudly instead of silently meaning "unlimited".
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        result = int(value)
        if result <= 0:
            raise ValueError(f"byte size must be positive, got {value!r}")
        return result
    match = _BYTES_RE.match(str(value))
    if not match:
        raise ValueError(
            f"unparsable byte size {value!r} (want e.g. 512M, 2G, or bytes)"
        )
    number, unit = match.groups()
    result = int(float(number) * _UNITS[unit.lower()])
    if result <= 0:
        raise ValueError(f"byte size must be positive, got {value!r}")
    return result


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask (``taskset``, a
    cgroup cpuset) where the platform has one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


class CancelToken:
    """Cooperative cancellation flag; the first reason sticks.

    Thread- and signal-safe by construction: ``cancel()`` only ever writes
    one attribute, and observers only read it.

    A token may be *linked* to a parent: cancelling the parent cancels
    every linked child (the serving layer's drain path — one root cancel
    stops all in-flight request controllers), while cancelling a child
    never touches the parent or its siblings.
    """

    __slots__ = ("_reason", "_parent")

    def __init__(self, parent: "CancelToken | None" = None) -> None:
        self._reason: str | None = None
        self._parent = parent

    def cancel(self, reason: str = "cancelled") -> None:
        """Request a stop.  Later calls keep the original reason."""
        if self._reason is None:
            self._reason = str(reason)

    @property
    def cancelled(self) -> bool:
        if self._reason is not None:
            return True
        return self._parent is not None and self._parent.cancelled

    @property
    def reason(self) -> str | None:
        if self._reason is not None:
            return self._reason
        return self._parent.reason if self._parent is not None else None


class MemoryBudget:
    """One byte-denominated ceiling for a run's working set.

    The budget is split between the two byte consumers a run has:

    * ``cache_bytes`` (half) — ceiling for the disk collection's snapshot
      LRU cache, enforced by byte-denominated eviction;
    * ``wave_bytes`` (the rest) — ceiling for in-flight dispatch waves;
      the engine caps concurrent workers so the decoded snapshots resident
      in workers at any instant fit inside it.

    The split is a policy default, not a hard partition — a single
    snapshot larger than a share is still loaded (the run degrades to a
    one-snapshot cache / serial waves rather than refusing to run).
    """

    __slots__ = ("limit_bytes",)

    def __init__(self, limit: int | float | str) -> None:
        self.limit_bytes = parse_bytes(limit)

    @property
    def cache_bytes(self) -> int:
        """Snapshot-cache share of the budget."""
        return self.limit_bytes // 2

    @property
    def wave_bytes(self) -> int:
        """Dispatch-wave (in-flight workers) share of the budget."""
        return self.limit_bytes - self.cache_bytes

    def __repr__(self) -> str:
        return f"MemoryBudget({self.limit_bytes} B)"


class RunInterrupted(RuntimeError):
    """A run was stopped gracefully (deadline, signal, or cancellation).

    Attributes
    ----------
    reason:
        Why the run stopped (``"received SIGTERM"``, ``"deadline
        expired..."``).
    partial:
        Whatever partial result the interrupted layer could hand back
        (completed week stats mid-simulation, archived snapshot records
        mid-archive, None mid-analysis — the checkpoint journal holds the
        analysis partials durably).
    resume_hint:
        Human-readable instruction for resuming — when a checkpoint
        journal was active, the exact ``--checkpoint`` invocation that
        resumes byte-identically.
    stats:
        The :class:`~repro.query.engine.ExecutionStats` accumulated up to
        the stop (engine-level interrupts only).
    """

    def __init__(
        self,
        message: str,
        reason: str = "",
        partial: object = None,
        resume_hint: str | None = None,
        stats: object = None,
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.partial = partial
        self.resume_hint = resume_hint
        self.stats = stats

    def __str__(self) -> str:
        base = super().__str__()
        if self.resume_hint:
            return f"{base}\nresume: {self.resume_hint}"
        return base


class RunController:
    """Deadline + cancellation + memory budget for one run.

    Parameters
    ----------
    max_seconds:
        Wall-clock budget for the run; ``None`` means no deadline.  The
        deadline starts at construction (build the controller right before
        the run).
    memory_budget:
        A :class:`MemoryBudget`, or anything :func:`parse_bytes` accepts.
    grace_seconds:
        How long in-flight workers may drain after a stop is requested
        before the engine terminates the pool.
    clock:
        Monotonic time source; injectable so deadline tests are
        deterministic instead of sleep-based.
    """

    def __init__(
        self,
        max_seconds: float | None = None,
        memory_budget: MemoryBudget | int | str | None = None,
        grace_seconds: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_seconds is not None and max_seconds < 0:
            raise ValueError("max_seconds must be >= 0")
        if grace_seconds < 0:
            raise ValueError("grace_seconds must be >= 0")
        if memory_budget is not None and not isinstance(memory_budget, MemoryBudget):
            memory_budget = MemoryBudget(memory_budget)
        self.token = CancelToken()
        self.memory_budget = memory_budget
        self.grace_seconds = float(grace_seconds)
        self.max_seconds = max_seconds
        self._clock = clock
        self.deadline: float | None = (
            None if max_seconds is None else clock() + float(max_seconds)
        )

    # -- observation ---------------------------------------------------------

    def remaining(self) -> float | None:
        """Seconds left on the deadline (``None`` when no deadline)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - self._clock())

    def should_stop(self) -> str | None:
        """The stop reason, or ``None`` to keep running.

        This is *the* cancellation point: every long-running layer calls
        it at its natural boundary.  Cancellation (signal) outranks the
        deadline so the reported reason matches what actually happened
        first.
        """
        if self.token.cancelled:
            return self.token.reason
        if self.deadline is not None and self._clock() >= self.deadline:
            return f"deadline expired (--max-seconds {self.max_seconds:g})"
        return None

    def cancellation_point(
        self,
        context: str,
        partial: object = None,
        resume_hint: str | None = None,
    ) -> None:
        """Raise :class:`RunInterrupted` here if a stop was requested.

        Sugar over :meth:`should_stop` for layers that have nothing to
        drain at their boundary (the ingest path checks between record
        chunks and between source files): ``context`` names where the run
        stopped, ``partial``/``resume_hint`` ride on the raised error.
        """
        reason = self.should_stop()
        if reason is not None:
            raise RunInterrupted(
                f"{context}: stopping ({reason})",
                reason=reason,
                partial=partial,
                resume_hint=resume_hint,
            )

    # -- derived controllers -------------------------------------------------

    def child(
        self,
        max_seconds: float | None = None,
        grace_seconds: float | None = None,
    ) -> "RunController":
        """A nested controller whose budget can only shrink the parent's.

        The child's deadline is ``min(parent remaining, max_seconds)`` —
        a request-scoped deadline can never outlive the run it belongs to
        — and its token is linked to the parent's, so cancelling the
        parent (SIGTERM drain) cancels every outstanding child while a
        child's own cancel (one request's deadline) stays local.  The
        memory budget and clock are shared; ``grace_seconds`` defaults to
        the parent's.  This is how the serving layer derives per-request
        deadlines from the run-level control plane.
        """
        remaining = self.remaining()
        if max_seconds is None:
            effective = remaining
        elif remaining is None:
            effective = float(max_seconds)
        else:
            effective = min(float(max_seconds), remaining)
        child = RunController(
            max_seconds=effective,
            memory_budget=self.memory_budget,
            grace_seconds=(
                self.grace_seconds if grace_seconds is None else grace_seconds
            ),
            clock=self._clock,
        )
        child.token = CancelToken(parent=self.token)
        return child

    # -- signal handling (process entry points only) -------------------------

    @contextmanager
    def install_signal_handlers(
        self, signals: tuple[int, ...] = (signal.SIGINT, signal.SIGTERM)
    ):
        """Route SIGINT/SIGTERM into :meth:`CancelToken.cancel` — CLI only.

        First signal: request a graceful stop.  Second SIGINT: raise
        ``KeyboardInterrupt`` (the user really means it).  Previous
        handlers are restored on exit.  Library callers must NOT use this
        — they pass a controller and keep their host's signal disposition;
        outside the main thread this is a documented no-op (CPython only
        allows signal handlers in the main thread).
        """
        if threading.current_thread() is not threading.main_thread():
            yield self
            return

        def _handler(signum: int, frame) -> None:
            name = signal.Signals(signum).name
            if self.token.cancelled and signum == signal.SIGINT:
                raise KeyboardInterrupt
            self.token.cancel(f"received {name}")

        previous = {}
        try:
            for signum in signals:
                previous[signum] = signal.signal(signum, _handler)
            yield self
        finally:
            for signum, old in previous.items():
                signal.signal(signum, old)
