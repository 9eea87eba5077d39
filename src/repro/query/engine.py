"""Crash-safe parallel execution engine for per-snapshot analyses.

The paper ran its analyses as per-snapshot-partition Spark jobs (§3); this
engine is the local equivalent: :meth:`ExecutionEngine.run_kernels` runs one
fused pass of analysis kernels over a snapshot collection — inline or with a
process pool — and gives the run the properties a scan subsystem needs in
production:

* **start-method portability** — under ``fork`` workers inherit the columns
  copy-on-write; under ``spawn`` (and ``forkserver``) the columns travel
  through a shared-memory segment (:mod:`repro.query.shm`) and only a small
  handle is pickled.  The engine works the same either way.
* **one task loop** — serial and pooled runs execute every snapshot task
  through the same function and hand its entry to the same parent-side
  result handler (stats, journaling, quarantine, failure capture), so a
  run's results, stats and quarantine records do not depend on the route.
* **re-entrant scheduling** — tasks are integer indices batched into chunks
  and submitted with ``apply_async`` in bounded waves; results are
  reassembled in snapshot order.  All run state lives in an engine-local
  context, so concurrent or nested passes never trample each other (the old
  module-global handoff could).  A pass issued *inside* a worker (daemonic
  processes cannot fork) transparently runs serial.
* **fault handling** — a task runs once.  Transient I/O is retried below
  it, at the block layer (the disk store's ``io_retries``).  A task that
  raises either quarantines its snapshot (the circuit breaker, below) or
  fails the run with a structured :class:`TaskError` carrying the snapshot
  index and the task traceback — never a hang, never a silent partial
  result.  A worker that dies outright trips the :data:`TASK_TIMEOUT_S`
  watchdog on every pooled pass.  Any *downgrade* to serial execution (no
  usable start method, unpicklable work under spawn) is warned about and
  recorded in the stats, never silent.
* **observability** — every run accumulates per-task wall time, bytes
  touched, I/O retry/failure counts, and pool utilization into an
  :class:`ExecutionStats`, exposed by
  :class:`~repro.query.parallel.SnapshotExecutor` and printed by the bench
  harness.
* **kernel fusion** — :meth:`ExecutionEngine.run_kernels` executes many
  analyses in a *single* pass over the collection.  Each :class:`Kernel`
  contributes a per-snapshot (or per-adjacent-pair) ``map_fn`` whose
  partials are gathered in the worker while the snapshot is resident, plus
  a parent-side ``reduce_fn`` folding the ordered partials into the final
  result.  One fused task per snapshot evaluates every registered kernel
  before the engine moves on, so a disk-backed collection is loaded once
  per snapshot instead of once per analysis; kernels that share a
  ``map_fn`` share one evaluation.  Per-kernel busy time and
  parent-visible snapshot loads land in the run's :class:`ExecutionStats`.

* **run control** — tasks are dispatched in bounded *waves* (one chunk per
  worker in flight) and a :class:`~repro.core.runcontrol.RunController` is
  polled between deliveries: an expired deadline or a received
  SIGINT/SIGTERM stops dispatch, lets in-flight workers drain for a
  bounded grace period (journaling every result that arrives), terminates
  the pool, and raises a typed
  :class:`~repro.core.runcontrol.RunInterrupted` whose message names the
  exact ``--checkpoint`` invocation that resumes byte-identically.  A
  :class:`~repro.core.runcontrol.MemoryBudget` caps the wave size so the
  decoded snapshots resident in workers never exceed the byte ceiling,
  and a per-snapshot **circuit breaker** — armed by a collection with a
  ``quarantine_task_failure`` hook and a non-``raise`` ``on_error``
  policy — quarantines a snapshot whose task fails into the collection's
  :class:`~repro.scan.store.ArchiveHealthReport` instead of sinking the
  whole run.

The start method comes from :func:`resolve_start_method`, which the shard
supervisor shares: the configured name, else ``$REPRO_START_METHOD``
(``fork`` / ``spawn`` / ``forkserver`` / ``serial``), else ``fork`` where
available, else ``spawn``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import queue
import signal
import time
import traceback
import warnings
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.core import runcontrol
from repro.core.runcontrol import RunController, RunInterrupted
from repro.query import shm as shm_transport
from repro.scan.snapshot import SnapshotCollection

#: Environment variable :func:`resolve_start_method` consults when no start
#: method is configured.
START_METHOD_ENV = "REPRO_START_METHOD"

#: Pseudo start method: run everything inline in the calling process.
SERIAL = "serial"

#: Chunks per worker a pooled pass aims for: tasks are batched so each
#: worker gets about this many scheduling units.
CHUNKS_PER_WORKER = 4

#: Dead-worker watchdog: seconds a pooled pass waits for the *next* chunk
#: result before declaring the pool dead.  A hard-crashed worker never
#: answers, and a plain ``Pool`` would wait on it forever while respawning
#: replacements.  Per-task analysis work here is sub-second to seconds, so a
#: legitimate run never trips it.
TASK_TIMEOUT_S = 300.0


def _identity(state: Any) -> Any:
    return state


@dataclass(frozen=True)
class Kernel:
    """One analysis expressed as a map/reduce pair over a snapshot series.

    Parameters
    ----------
    name:
        Unique key within one :meth:`ExecutionEngine.run_kernels` call; the
        result dict and the per-kernel stats are keyed by it.
    map_fn:
        ``snapshot -> partial`` (or ``(prev, cur) -> partial`` when
        ``pairwise``).  Runs in the workers, so it must be a module-level
        callable for the spawn transport; kernels passing the *same*
        function object share a single evaluation per snapshot, and the
        shared partial must therefore not be mutated by any reducer.
    reduce_fn:
        ``list[partial] -> state`` over the partials in snapshot order
        (pair kernels receive one partial per adjacent pair).  Runs in the
        parent, so closures — e.g. over an analysis context — are fine.
    pairwise:
        When True, ``map_fn`` sees adjacent ``(prev, cur)`` snapshot pairs
        riding the same sliding two-snapshot window the per-snapshot
        kernels keep resident.
    finish_fn:
        ``state -> result``; the kernel's result on every route is
        ``finish_fn`` of its state (the identity by default).
    update_fn:
        The optional incremental hook (DESIGN.md §11):
        ``update_fn(state, delta) -> state`` advances a journaled state by
        one :class:`~repro.scan.delta.SnapshotDelta` instead of re-mapping
        every snapshot.  Contract: one step must equal re-reducing with the
        new snapshot's partial appended — the delta route is
        byte-identical or it is wrong.  Every ``repro.analysis`` kernel
        carries one; a kernel without it (a serving slice, a test kernel)
        never replays, and under a plan with journaled states it sends the
        whole call down the full pass, warned-not-silent.
    """

    name: str
    map_fn: Callable[..., Any]
    reduce_fn: Callable[[list[Any]], Any]
    pairwise: bool = False
    finish_fn: Callable[[Any], Any] = _identity
    update_fn: Callable[[Any, Any], Any] | None = None


@dataclass
class DeltaPlan:
    """Instruction set for delta replay inside :meth:`~ExecutionEngine.run_kernels`.

    ``states`` maps kernel names to journaled states covering the analyzed
    prefix; ``deltas`` is the contiguous
    :class:`~repro.scan.delta.SnapshotDelta` chain from that prefix to the
    collection's end (empty when nothing new was appended).  A plan is
    all-or-nothing: when every kernel of the call has an ``update_fn`` and
    a state, all of them replay the deltas; otherwise all of them run the
    full pass.  Every kernel with an ``update_fn`` deposits its state into
    ``updated_states`` either way, so the *next* run can go incremental.
    ``replayed`` names the kernels that replayed.
    """

    states: dict[str, Any] = field(default_factory=dict)
    deltas: list[Any] = field(default_factory=list)
    #: outputs — filled in by the engine
    updated_states: dict[str, Any] = field(default_factory=dict)
    replayed: list[str] = field(default_factory=list)


class TaskError(RuntimeError):
    """A snapshot task failed (worker exception, crash, or watchdog timeout).

    Attributes
    ----------
    index:
        Snapshot index of the failing task (None if unattributable, e.g. a
        dead worker whose chunk never reported).
    traceback_text:
        The task's traceback, verbatim (captured where the task ran: in a
        pool worker, or inline on the serial route).
    stats:
        The :class:`ExecutionStats` accumulated up to the failure.
    """

    def __init__(
        self,
        message: str,
        index: int | None = None,
        traceback_text: str = "",
        stats: "ExecutionStats | None" = None,
    ) -> None:
        super().__init__(message)
        self.index = index
        self.traceback_text = traceback_text
        self.stats = stats

    def __str__(self) -> str:  # keep the worker traceback visible to callers
        base = super().__str__()
        if self.traceback_text:
            return f"{base}\n--- worker traceback ---\n{self.traceback_text}"
        return base


@dataclass
class ExecutionStats:
    """Accumulated observability for one run (or merged across runs)."""

    runs: int = 0
    n_tasks: int = 0
    processes: int = 1
    start_method: str = SERIAL
    transport: str = "inline"
    wall_seconds: float = 0.0
    task_seconds: float = 0.0
    bytes_touched: int = 0
    #: transient-I/O retries the collection's ``health`` report recorded
    #: in the parent process during the run (block layer; worker-side
    #: retries under fork/spawn are not visible here, like loads)
    retries: int = 0
    failures: int = 0
    #: fused runs: tasks restored from a checkpoint journal instead of run
    restored_tasks: int = 0
    #: tasks never run because the run was interrupted (deadline/signal)
    cancelled_tasks: int = 0
    #: snapshots quarantined by the per-snapshot circuit breaker
    quarantined_snapshots: int = 0
    #: high-water mark of the collection's snapshot cache, in bytes
    #: (parent-visible; 0 for collections without byte accounting)
    peak_cache_bytes: int = 0
    #: seconds left on the controller's deadline when the run ended
    #: (None when the run had no deadline)
    deadline_remaining_s: float | None = None
    downgraded: bool = False
    downgrade_reason: str = ""
    #: kernels whose result came from delta replay (``update``, not ``map``)
    delta_kernels: int = 0
    #: total ``update_fn`` invocations across the delta replay
    delta_updates: int = 0
    #: per-task wall seconds, in completion order
    task_wall: list[float] = field(default_factory=list)
    #: delta replay: per-kernel busy seconds in ``update_fn`` (parent-side)
    kernel_update_seconds: dict[str, float] = field(default_factory=dict)
    #: fused runs: per-kernel busy seconds in the map phase (worker-side)
    kernel_map_seconds: dict[str, float] = field(default_factory=dict)
    #: fused runs: per-kernel reduce seconds (parent-side)
    kernel_reduce_seconds: dict[str, float] = field(default_factory=dict)
    #: snapshot loads observed on the collection's ``loads`` counter in the
    #: parent process during the run (0 for collections without a counter;
    #: worker-side loads under fork/spawn are not visible here)
    snapshot_loads: int = 0
    #: column-block decodes/reuses observed on the collection's block
    #: counters in the parent during the run (lazy disk collections only;
    #: a hit means a kernel reused a block another kernel already decoded)
    block_hits: int = 0
    block_misses: int = 0

    @property
    def utilization(self) -> float:
        """Busy fraction of the pool: Σ task time / (wall × processes)."""
        denom = self.wall_seconds * max(1, self.processes)
        return self.task_seconds / denom if denom > 0 else 0.0

    def merge(self, other: "ExecutionStats") -> None:
        """Fold another run into this aggregate (lifetime executor stats)."""
        self.runs += other.runs
        self.n_tasks += other.n_tasks
        self.processes = max(self.processes, other.processes)
        self.start_method = other.start_method
        self.transport = other.transport
        self.wall_seconds += other.wall_seconds
        self.task_seconds += other.task_seconds
        self.bytes_touched += other.bytes_touched
        self.retries += other.retries
        self.failures += other.failures
        self.restored_tasks += other.restored_tasks
        self.cancelled_tasks += other.cancelled_tasks
        self.quarantined_snapshots += other.quarantined_snapshots
        self.peak_cache_bytes = max(self.peak_cache_bytes, other.peak_cache_bytes)
        if other.deadline_remaining_s is not None:
            self.deadline_remaining_s = (
                other.deadline_remaining_s
                if self.deadline_remaining_s is None
                else min(self.deadline_remaining_s, other.deadline_remaining_s)
            )
        self.downgraded = self.downgraded or other.downgraded
        if other.downgrade_reason:
            self.downgrade_reason = other.downgrade_reason
        self.delta_kernels += other.delta_kernels
        self.delta_updates += other.delta_updates
        for name, secs in other.kernel_update_seconds.items():
            self.kernel_update_seconds[name] = (
                self.kernel_update_seconds.get(name, 0.0) + secs
            )
        self.task_wall.extend(other.task_wall)
        for name, secs in other.kernel_map_seconds.items():
            self.kernel_map_seconds[name] = (
                self.kernel_map_seconds.get(name, 0.0) + secs
            )
        for name, secs in other.kernel_reduce_seconds.items():
            self.kernel_reduce_seconds[name] = (
                self.kernel_reduce_seconds.get(name, 0.0) + secs
            )
        self.snapshot_loads += other.snapshot_loads
        self.block_hits += other.block_hits
        self.block_misses += other.block_misses

    def kernel_totals(self) -> dict[str, float]:
        """Per-kernel busy seconds, map + reduce combined."""
        totals = dict(self.kernel_map_seconds)
        for name, secs in self.kernel_reduce_seconds.items():
            totals[name] = totals.get(name, 0.0) + secs
        return totals

    def summary(self) -> str:
        """One-paragraph human-readable digest (bench harness output)."""
        mean_task = self.task_seconds / self.n_tasks if self.n_tasks else 0.0
        max_task = max(self.task_wall) if self.task_wall else 0.0
        lines = [
            f"{self.n_tasks} tasks / {self.runs} runs | "
            f"{self.processes} proc via {self.start_method} ({self.transport})",
            f"wall {self.wall_seconds:.3f}s  busy {self.task_seconds:.3f}s  "
            f"utilization {self.utilization:.0%}",
            f"per-task mean {mean_task * 1e3:.1f}ms  max {max_task * 1e3:.1f}ms  "
            f"bytes touched {self.bytes_touched / 1e6:.1f}MB",
            f"I/O retries {self.retries}  failures {self.failures}",
        ]
        if self.restored_tasks:
            lines.append(
                f"restored from checkpoint: {self.restored_tasks} tasks"
            )
        if self.cancelled_tasks:
            lines.append(
                f"cancelled (graceful stop): {self.cancelled_tasks} tasks not run"
            )
        if self.quarantined_snapshots:
            lines.append(
                f"quarantined snapshots: {self.quarantined_snapshots} "
                "(circuit breaker)"
            )
        if self.peak_cache_bytes:
            lines.append(
                f"peak snapshot cache {self.peak_cache_bytes / 1e6:.1f}MB"
            )
        if self.deadline_remaining_s is not None:
            lines.append(
                f"deadline remaining {self.deadline_remaining_s:.1f}s at finish"
            )
        if self.snapshot_loads:
            lines.append(f"snapshot loads (parent-visible): {self.snapshot_loads}")
        if self.block_hits or self.block_misses:
            lines.append(
                f"column blocks: {self.block_misses} decoded, "
                f"{self.block_hits} reused resident"
            )
        if self.delta_kernels:
            lines.append(
                f"delta replay: {self.delta_kernels} kernels advanced via "
                f"update ({self.delta_updates} update calls)"
            )
        if self.kernel_map_seconds or self.kernel_reduce_seconds:
            totals = self.kernel_totals()
            cells = []
            for name in sorted(totals, key=totals.get, reverse=True):
                m = self.kernel_map_seconds.get(name, 0.0)
                r = self.kernel_reduce_seconds.get(name, 0.0)
                cells.append(f"{name} {m * 1e3:.1f}+{r * 1e3:.1f}ms")
            lines.append("per-kernel map+reduce: " + "  ".join(cells))
        if self.downgraded:
            lines.append(f"DOWNGRADED to serial: {self.downgrade_reason}")
        return "\n".join(lines)


class QuarantinedRow:
    """Placeholder row for a snapshot the circuit breaker quarantined.

    Lives at module level (and pickles cleanly) so quarantine decisions
    journal and restore like any other row — a resumed run skips the bad
    snapshot instead of tripping over it again.  Kernel reduces never see
    one: :meth:`ExecutionEngine.run_kernels` filters quarantined indices
    out of every kernel's partials, exactly like a snapshot the
    degradation policy dropped at construction.
    """

    __slots__ = ("reason",)

    def __init__(self, reason: str) -> None:
        self.reason = reason

    def __getstate__(self) -> str:
        return self.reason

    def __setstate__(self, state: str) -> None:
        self.reason = state


# -- worker side -----------------------------------------------------------
#
# Each worker process gets its context exactly once, via the pool
# initializer.  This is per-*worker* state, not parent-side handoff: the
# parent never mutates it, so engine runs are re-entrant and thread-safe.


@dataclass
class _WorkerContext:
    collection: Any
    #: the shipped ``(name, map_fn, pairwise)`` kernel triples
    specs: tuple
    segment: Any = None  # keeps the shm mapping alive for the views


_WORKER: _WorkerContext | None = None


def _init_worker(payload: tuple) -> None:
    global _WORKER
    # Ctrl-C is the *parent's* stop signal: the parent converts it into a
    # graceful drain (journal flushed, bounded grace, pool terminated).  A
    # terminal delivers SIGINT to the whole process group, so workers must
    # ignore it or they die mid-task and the drain collects nothing.
    # SIGTERM stays at its default — ``Pool.terminate()`` relies on it.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    specs, transport, data = payload
    segment = None
    if transport == "shm":
        collection, segment = shm_transport.attach_collection(data)
    else:
        collection = data
    _WORKER = _WorkerContext(collection=collection, specs=specs, segment=segment)


def _nbytes_of(snapshot: Any) -> int:
    sizer = getattr(snapshot, "column_nbytes", None)
    return int(sizer()) if callable(sizer) else 0


def _run_fused_task(ctx: _WorkerContext, index: int) -> tuple[Any, int]:
    """All kernels' map phases against one resident snapshot (+ its
    predecessor for pair kernels).

    The previous snapshot is fetched *before* the current one so an
    LRU-cached disk collection with a two-snapshot window serves the
    predecessor from cache and loads each snapshot exactly once across the
    pass.  Kernels sharing a map function share one evaluation; its cost
    is split evenly among them so per-kernel times still sum to the pass's
    busy time.
    """
    prev = ctx.collection[index - 1] if index > 0 else None
    cur = ctx.collection[index]
    groups: dict[tuple[Callable[..., Any], bool], list[str]] = {}
    for name, map_fn, pairwise in ctx.specs:
        groups.setdefault((map_fn, pairwise), []).append(name)
    partials: dict[str, Any] = {}
    times: dict[str, float] = {}
    nbytes = _nbytes_of(cur)
    counted_prev = False
    for (map_fn, pairwise), names in groups.items():
        if pairwise:
            if prev is None:
                continue
            if not counted_prev:
                nbytes += _nbytes_of(prev)
                counted_prev = True
            t0 = time.perf_counter()
            value = map_fn(prev, cur)
        else:
            t0 = time.perf_counter()
            value = map_fn(cur)
        share = (time.perf_counter() - t0) / len(names)
        for name in names:
            partials[name] = value
            times[name] = share
    return (partials, times), nbytes


def _run_task(ctx: _WorkerContext, index: int) -> tuple[tuple, Exception | None]:
    """One snapshot task, run once — the task loop of every route.

    Returns the task's entry ``(index, ok, value, secs, nbytes)`` — a
    failed task's ``value`` is its traceback text — plus its exception
    (None on success).  Pool workers send home only the entry (an
    exception need not pickle); the serial path chains the exception onto
    its :class:`TaskError`.
    """
    t0 = time.perf_counter()
    try:
        value, nbytes = _run_fused_task(ctx, index)
    except Exception as exc:
        return (index, False, traceback.format_exc(),
                time.perf_counter() - t0, 0), exc
    return (index, True, value, time.perf_counter() - t0, nbytes), None


def _run_chunk(indices: Sequence[int]) -> list[tuple]:
    """Pool entry point: run one chunk, return its task entries."""
    ctx = _WORKER
    assert ctx is not None, "worker context not initialized"
    return [_run_task(ctx, index)[0] for index in indices]


# -- parent side -----------------------------------------------------------


def _handle_result(
    entry: tuple,
    stats: ExecutionStats,
    results: dict[int, Any],
    on_result: Callable[[int, Any], None] | None,
    quarantine: Callable[[int, str], str] | None,
) -> tuple[int, str] | None:
    """Fold one task entry into the run — the result handler of every route.

    Accounts the task in ``stats``, stores its value in ``results`` and
    journals it through ``on_result``.  A failed task is quarantined when
    the circuit breaker is armed: a :class:`QuarantinedRow` takes its place
    and is journaled like any other row.  Otherwise the failure is returned
    as ``(index, traceback_text)`` for the caller to raise.
    """
    index, ok, value, secs, nbytes = entry
    stats.task_seconds += secs
    stats.task_wall.append(secs)
    if ok:
        stats.bytes_touched += nbytes
    else:
        stats.failures += 1
        if quarantine is None:
            return index, value
        # circuit breaker: quarantine the snapshot instead of sinking the run
        value = QuarantinedRow(_failure_digest(value))
        quarantine(index, value.reason)
    results[index] = value
    if on_result is not None:
        on_result(index, value)
    return None


def _task_error(failure: tuple[int, str], stats: ExecutionStats) -> TaskError:
    """The :class:`TaskError` for a captured failure (same shape on every route)."""
    index, tb_text = failure
    return TaskError(
        f"snapshot task {index} failed: {_failure_digest(tb_text)}",
        index=index,
        traceback_text=tb_text,
        stats=stats,
    )


def resolve_start_method(configured: str | None = None) -> str:
    """The start method a pooled pass or a sharded run uses.

    ``configured`` wins, then ``$REPRO_START_METHOD``, then ``fork`` where
    the platform offers it, else ``spawn``.  ``serial`` (run inline)
    passes through; any other name this platform lacks raises
    :class:`ValueError` naming the ones it has.
    """
    method = (configured or os.environ.get(START_METHOD_ENV) or "").strip().lower()
    available = mp.get_all_start_methods()
    if not method:
        return "fork" if "fork" in available else "spawn"
    if method != SERIAL and method not in available:
        raise ValueError(
            f"start method {method!r} not available here (have {available})"
        )
    return method


class ExecutionEngine:
    """Runs fused kernel passes over a snapshot collection under one policy.

    ``processes`` is the worker count: None picks half the CPUs this
    process may use (capped at the task count), 1 runs serial.
    ``start_method`` is ``fork`` / ``spawn`` / ``forkserver`` / ``serial``;
    None defers to :func:`resolve_start_method`.  A task runs once:
    transient I/O is retried below it, by the collection, and whether a
    failed task quarantines its snapshot or raises is the collection's
    ``on_error`` policy (see :meth:`run_kernels`).
    """

    def __init__(
        self, processes: int | None = None, start_method: str | None = None
    ) -> None:
        self.processes = processes
        self.start_method = start_method

    # -- public API --------------------------------------------------------

    def run_kernels(
        self,
        collection: Any,
        kernels: Sequence[Kernel],
        journal: Any = None,
        controller: RunController | None = None,
        delta_plan: DeltaPlan | None = None,
    ) -> tuple[dict[str, Any], ExecutionStats]:
        """Run every kernel in a single fused pass over the collection.

        Each snapshot is made resident once (loaded from disk once, exported
        to shared memory once) and every kernel's map phase runs against it
        before the pass moves on; pair kernels see the sliding
        ``(prev, cur)`` window.  Returns ``{kernel.name: reduced result}``
        plus the pass's :class:`ExecutionStats`, including per-kernel
        map/reduce seconds, the parent-visible snapshot-load count and the
        block-level I/O retries the collection recorded.

        ``journal`` (a :class:`~repro.query.journal.KernelJournal`) makes
        the pass resumable: completed snapshot rows are appended durably as
        they arrive, and a rerun restores them instead of re-executing —
        only the first unprocessed snapshot onward runs.  Before restored
        rows are trusted, the collection's path interning is replayed in
        index order (``warm_paths``) so path ids inside restored partials
        stay consistent with live loads.

        ``controller`` (a :class:`~repro.core.runcontrol.RunController`) is
        polled between dispatch waves; on an expired deadline or a
        cancelled token the pass stops gracefully — checkpoint flushed,
        in-flight workers drained within the grace period, pool terminated
        — and raises :class:`~repro.core.runcontrol.RunInterrupted` with
        the resume invocation in its message.

        A task runs once.  When the collection exposes a
        ``quarantine_task_failure`` hook and carries a non-``raise``
        ``on_error`` policy, the per-snapshot circuit breaker is armed: a
        snapshot whose task fails is quarantined through the hook on that
        first failure (recorded in its
        :class:`~repro.scan.store.ArchiveHealthReport` under the same
        policy) and excluded from every kernel's reduce, like a corrupt
        file dropped at construction.  Otherwise the failure raises a
        :class:`TaskError`.

        Every kernel reduces once, ``state = reduce_fn(partials)``, and
        its result is ``finish_fn(state)``.  ``delta_plan`` (a
        :class:`DeltaPlan`) picks one of two routes for the whole call.
        When every kernel carries an ``update_fn`` *and* a journaled state,
        each state comes from folding ``update_fn`` over the plan's delta
        chain and no snapshot is loaded.  Otherwise every kernel runs the
        full fused pass — warned, never silent, when the plan carried
        states — and kernels with an ``update_fn`` deposit their freshly
        reduced state into ``plan.updated_states`` for the next run.
        """
        kernels = list(kernels)
        names = [k.name for k in kernels]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise ValueError(f"duplicate kernel names: {sorted(duplicates)}")
        n = len(collection)
        if n == 0 or not kernels:
            stats = ExecutionStats(runs=1)
            _note_deadline(stats, controller)
            return {k.name: k.finish_fn(k.reduce_fn([])) for k in kernels}, stats
        if delta_plan is not None:
            unjournaled = sorted(
                k.name for k in kernels
                if k.update_fn is None or k.name not in delta_plan.states
            )
            if not unjournaled:
                # the O(delta) route: no snapshot is loaded
                if journal is not None:
                    journal.close()
                stats = ExecutionStats(runs=1)
                results = self._replay_deltas(
                    kernels, delta_plan, controller, stats
                )
                _note_deadline(stats, controller)
                return results, stats
            if delta_plan.states:
                warnings.warn(
                    "incremental analysis: no journaled state for "
                    f"{', '.join(unjournaled)} — running a full map pass "
                    f"for all {len(kernels)} kernel(s)",
                    RuntimeWarning,
                    stacklevel=2,
                )
        specs = tuple((k.name, k.map_fn, k.pairwise) for k in kernels)
        restored: dict[int, Any] = {}
        if journal is not None:
            restored = journal.load()
            warm = getattr(collection, "warm_paths", None)
            if restored and callable(warm):
                for index in sorted(restored):
                    warm(index)
        remaining = [i for i in range(n) if i not in restored]
        on_result = journal.append if journal is not None else None
        try:
            fresh, stats = self._run(
                collection,
                specs,
                remaining,
                on_result=on_result,
                controller=controller,
                quarantine=self._resolve_quarantine(collection),
            )
        except RunInterrupted as err:
            # merge journal-restored rows into the interrupt's partial so a
            # degraded consumer (the serving layer's deadline path) sees the
            # full completed prefix, not just what this invocation ran
            merged: dict[int, Any] = dict(restored)
            if isinstance(err.partial, dict):
                merged.update(err.partial)
            err.partial = merged
            if err.resume_hint is None:
                if journal is not None:
                    err.resume_hint = (
                        "re-run the same command with --checkpoint "
                        f"{journal.path} — completed snapshots are journaled "
                        "and the resumed report is byte-identical"
                    )
                else:
                    err.resume_hint = (
                        "no checkpoint journal was configured; pass "
                        "--checkpoint PATH to make runs resumable"
                    )
            if err.stats is not None:
                err.stats.restored_tasks = len(restored)
            raise
        finally:
            # flush the checkpoint: every journaled row is already fsynced,
            # this releases the file handle even on an interrupt/failure
            if journal is not None:
                journal.close()
        rows: dict[int, Any] = dict(restored)
        rows.update(zip(remaining, fresh))
        stats.restored_tasks = len(restored)
        quarantined_idx = {
            i for i, row in rows.items() if isinstance(row, QuarantinedRow)
        }
        stats.quarantined_snapshots = len(quarantined_idx)
        for i in remaining:
            if i in quarantined_idx:
                continue
            _, times = rows[i]
            for name, secs in times.items():
                stats.kernel_map_seconds[name] = (
                    stats.kernel_map_seconds.get(name, 0.0) + secs
                )
        results: dict[str, Any] = {}
        for kernel in kernels:
            start = 1 if kernel.pairwise else 0
            partials = [
                rows[i][0][kernel.name]
                for i in range(start, n)
                if i not in quarantined_idx
            ]
            t0 = time.perf_counter()
            state = kernel.reduce_fn(partials)
            if delta_plan is not None and kernel.update_fn is not None:
                # keep the state so the next run can replay deltas instead
                # of re-mapping every snapshot
                delta_plan.updated_states[kernel.name] = state
            results[kernel.name] = kernel.finish_fn(state)
            stats.kernel_reduce_seconds[kernel.name] = time.perf_counter() - t0
        return results, stats

    @staticmethod
    def _resolve_quarantine(collection: Any) -> Callable[[int, str], str] | None:
        """The circuit breaker's quarantine hook, when the collection arms it.

        Armed when the collection both exposes ``quarantine_task_failure``
        and carries a non-raise ``on_error`` policy — quarantining a
        snapshot behind the back of an ``on_error="raise"`` caller would be
        a silent partial result.
        """
        hook = getattr(collection, "quarantine_task_failure", None)
        if not callable(hook) or getattr(collection, "on_error", "raise") == "raise":
            return None
        return hook

    @staticmethod
    def _replay_deltas(
        kernels: list[Kernel],
        plan: DeltaPlan,
        controller: RunController | None,
        stats: ExecutionStats,
    ) -> dict[str, Any]:
        """Fold each kernel's ``update_fn`` over the plan's delta chain.

        Runs in the parent (deltas are small); the controller is polled
        between updates so deadlines/signals still interrupt gracefully.
        States land in ``plan.updated_states`` only after a kernel's full
        chain — an interrupt mid-chain persists nothing, so a rerun replays
        from the journaled prefix instead of trusting a half-advanced state.
        """
        results: dict[str, Any] = {}
        t0 = time.perf_counter()
        try:
            for kernel in kernels:
                state = plan.states[kernel.name]
                t_kernel = time.perf_counter()
                for delta in plan.deltas:
                    if controller is not None:
                        reason = controller.should_stop()
                        if reason is not None:
                            raise RunInterrupted(
                                f"run interrupted ({reason}) during delta "
                                "replay; journaled kernel state is untouched",
                                reason=reason,
                                stats=stats,
                            )
                    state = kernel.update_fn(state, delta)
                    stats.delta_updates += 1
                plan.updated_states[kernel.name] = state
                results[kernel.name] = kernel.finish_fn(state)
                plan.replayed.append(kernel.name)
                stats.kernel_update_seconds[kernel.name] = (
                    time.perf_counter() - t_kernel
                )
        finally:
            stats.wall_seconds += time.perf_counter() - t0
            stats.delta_kernels = len(plan.replayed)
        return results

    # -- policy resolution -------------------------------------------------

    def _resolve_processes(self, n_tasks: int) -> int:
        if self.processes is not None:
            return max(1, int(self.processes))
        return max(1, min(n_tasks, runcontrol.usable_cpus() // 2))

    # -- execution ---------------------------------------------------------

    def _run(
        self,
        collection: Any,
        specs: tuple,
        indices: list[int],
        on_result: Callable[[int, Any], None] | None = None,
        controller: RunController | None = None,
        quarantine: Callable[[int, str], str] | None = None,
    ) -> tuple[list[Any], ExecutionStats]:
        """Dispatch with parent-visible load, block and I/O-retry accounting.

        ``on_result(index, value)`` fires in the *parent* as each task's
        result arrives (completion order) — the checkpoint journal's hook.
        """
        loads_before = getattr(collection, "loads", None)
        block_hits_before = getattr(collection, "block_hits", None)
        block_misses_before = getattr(collection, "block_misses", None)
        health = getattr(collection, "health", None)
        io_retries_before = getattr(health, "io_retries", None)

        def finish(stats: ExecutionStats) -> None:
            if loads_before is not None:
                stats.snapshot_loads += int(collection.loads) - loads_before
            if io_retries_before is not None:
                stats.retries += int(health.io_retries) - io_retries_before
            if block_hits_before is not None:
                stats.block_hits += int(collection.block_hits) - block_hits_before
            if block_misses_before is not None:
                stats.block_misses += (
                    int(collection.block_misses) - block_misses_before
                )
            peak = getattr(collection, "peak_cache_bytes", 0)
            if peak:
                stats.peak_cache_bytes = max(stats.peak_cache_bytes, int(peak))
            _note_deadline(stats, controller)

        try:
            results, stats = self._dispatch(
                collection,
                specs,
                indices,
                on_result,
                controller=controller,
                quarantine=quarantine,
            )
        except (TaskError, RunInterrupted) as err:
            if err.stats is not None:
                finish(err.stats)
            raise
        finish(stats)
        return results, stats

    def _dispatch(
        self,
        collection: Any,
        specs: tuple,
        indices: list[int],
        on_result: Callable[[int, Any], None] | None = None,
        controller: RunController | None = None,
        quarantine: Callable[[int, str], str] | None = None,
    ) -> tuple[list[Any], ExecutionStats]:
        stats = ExecutionStats(runs=1)
        n = len(indices)
        if n == 0:
            return [], stats
        stats.n_tasks = n

        def run_serial() -> tuple[list[Any], ExecutionStats]:
            ctx = _WorkerContext(collection=collection, specs=specs)
            return self._run_serial(
                ctx, indices, stats, on_result, controller, quarantine
            )

        processes = self._resolve_processes(n)
        budget = controller.memory_budget if controller is not None else None
        if budget is not None:
            # memory pressure: shrink the dispatch wave so the decoded
            # snapshots resident in workers fit the budget's wave share —
            # degrade throughput, never OOM.  cap == 1 falls back to serial.
            per_task = _estimate_task_nbytes(collection)
            if per_task > 0:
                cap = max(1, budget.wave_bytes // per_task)
                processes = min(processes, int(cap))
        if processes <= 1:
            return run_serial()
        method = resolve_start_method(self.start_method)
        if method == SERIAL:
            # explicit policy choice (start_method or $REPRO_START_METHOD=serial)
            return run_serial()
        if mp.current_process().daemon:
            # nested run inside a pool worker: daemonic processes cannot
            # have children, run inline (recorded, not a parent-side warning)
            stats.downgraded = True
            stats.downgrade_reason = "nested run inside a daemonic worker"
            return run_serial()

        export: shm_transport.CollectionExport | None = None
        if method == "fork":
            transport, data = "inherit", collection
        elif isinstance(collection, SnapshotCollection) or _shm_affordable(
            collection, budget
        ):
            # in-memory collections always ride shared memory under spawn;
            # lazy disk collections do too when their full decoded size fits
            # the budget's wave share — every block is decoded exactly once
            # in the parent and reused by every kernel of every wave.  Too
            # big for the budget → fall through to pickling the (small)
            # collection object and let each worker decode lazily under its
            # own bounded cache.
            reason = _unpicklable_reason((specs,))
            if reason is not None:
                self._downgrade(stats, method, reason)
                return run_serial()
            export = shm_transport.export_collection(collection)
            transport, data = "shm", export.handle
        else:
            reason = _unpicklable_reason((specs, collection))
            if reason is not None:
                self._downgrade(stats, method, reason)
                return run_serial()
            transport, data = "pickle", collection
        if transport != "shm":
            # workers intern path strings into their own copies of the
            # collection's PathTable, and each sees only the snapshots its
            # chunks name: one that skipped a snapshot would number the
            # next one's new paths differently.  Interning every snapshot
            # here first, in index order, gives each worker (and the
            # parent, whose reduces resolve the ids) exactly the ids a
            # serial pass assigns.  shm needs nothing: the export interned
            # everything in the parent.
            warm = getattr(collection, "warm_paths", None)
            if callable(warm):
                for index in indices:
                    try:
                        warm(index)
                    except OSError:
                        # unreadable: the task that loads it reports the
                        # fault, and a serial pass interns nothing for it
                        continue

        stats.processes = processes
        stats.start_method = method
        stats.transport = transport
        chunk_size = max(1, -(-n // (processes * CHUNKS_PER_WORKER)))
        chunks = [indices[i : i + chunk_size] for i in range(0, n, chunk_size)]
        payload = (specs, transport, data)
        # Dispatch in bounded waves — at most ``wave`` chunks in flight,
        # the next submitted only as one completes.  Waves are what make
        # run control enforceable: a stop request halts *submission*
        # immediately (only in-flight chunks drain during the grace
        # period), and under a memory budget in-flight decoded snapshots
        # never exceed wave × window bytes.  Without a budget each worker
        # keeps one chunk queued behind the one it is executing.
        wave = min(len(chunks), processes if budget is not None else processes * 2)
        poll = 0.2  # controller polling cadence while waiting for results
        timeout = TASK_TIMEOUT_S if controller is None else min(poll, TASK_TIMEOUT_S)
        results: dict[int, Any] = {}
        failure: tuple[int, str] | None = None
        cancel_reason: str | None = None
        t0 = time.perf_counter()
        try:
            ctx = mp.get_context(method)
            with ctx.Pool(
                processes=min(processes, len(chunks)),
                initializer=_init_worker,
                initargs=(payload,),
            ) as pool:
                inbox: queue.SimpleQueue = queue.SimpleQueue()

                def submit(chunk: Sequence[int]) -> None:
                    pool.apply_async(
                        _run_chunk,
                        (chunk,),
                        callback=lambda entries: inbox.put(("ok", entries)),
                        error_callback=lambda exc: inbox.put(("err", exc)),
                    )

                next_chunk = 0
                while next_chunk < wave:
                    submit(chunks[next_chunk])
                    next_chunk += 1
                inflight = next_chunk
                waited = 0.0
                drain_deadline: float | None = None
                while inflight:
                    if controller is not None and cancel_reason is None:
                        cancel_reason = controller.should_stop()
                        if cancel_reason is not None:
                            drain_deadline = (
                                time.monotonic() + controller.grace_seconds
                            )
                    if (
                        drain_deadline is not None
                        and time.monotonic() >= drain_deadline
                    ):
                        break  # grace expired: abandon in-flight chunks
                    try:
                        kind, item = inbox.get(timeout=timeout)
                    except queue.Empty:
                        waited += timeout
                        if waited >= TASK_TIMEOUT_S:
                            pending = sorted(set(indices) - set(results))
                            stats.failures += 1
                            raise TaskError(
                                f"no result within {TASK_TIMEOUT_S}s — a worker "
                                f"crashed or a task is stuck; pending snapshot indices "
                                f"{pending[:8]}{'…' if len(pending) > 8 else ''}",
                                index=pending[0] if pending else None,
                                stats=stats,
                            ) from None
                        continue
                    waited = 0.0
                    inflight -= 1
                    if kind == "err":
                        stats.failures += 1
                        raise TaskError(
                            f"chunk execution failed in the pool: {item!r}",
                            stats=stats,
                        ) from item
                    for entry in item:
                        failed = _handle_result(
                            entry, stats, results, on_result, quarantine
                        )
                        if failure is None:
                            failure = failed
                    if cancel_reason is None and next_chunk < len(chunks):
                        submit(chunks[next_chunk])
                        next_chunk += 1
                        inflight += 1
        finally:
            stats.wall_seconds = time.perf_counter() - t0
            if export is not None:
                export.destroy()
        if cancel_reason is not None:
            stats.cancelled_tasks = sum(1 for i in indices if i not in results)
            done = n - stats.cancelled_tasks
            raise RunInterrupted(
                f"run interrupted ({cancel_reason}) after {done}/{n} tasks; "
                "in-flight workers drained, pool terminated",
                reason=cancel_reason,
                partial=dict(results),
                stats=stats,
            )
        if failure is not None:
            raise _task_error(failure, stats)
        return [results[i] for i in indices], stats

    @staticmethod
    def _downgrade(stats: ExecutionStats, method: str, reason: str) -> None:
        """Warn about and record a fallback to serial execution."""
        warnings.warn(
            f"parallel snapshot pass downgraded to serial under {method!r}: "
            f"{reason}",
            RuntimeWarning,
            stacklevel=4,
        )
        stats.downgraded = True
        stats.downgrade_reason = reason

    @staticmethod
    def _run_serial(
        ctx: _WorkerContext,
        indices: list[int],
        stats: ExecutionStats,
        on_result: Callable[[int, Any], None] | None = None,
        controller: RunController | None = None,
        quarantine: Callable[[int, str], str] | None = None,
    ) -> tuple[list[Any], ExecutionStats]:
        """Run the tasks inline, in index order, on the shared task loop.

        On top of :func:`_run_task` and :func:`_handle_result` it adds only
        a stop check before each task and a :class:`TaskError` at the first
        unquarantined failure, chained to the task's own exception.
        """
        results: dict[int, Any] = {}
        t0 = time.perf_counter()
        try:
            for pos, index in enumerate(indices):
                if controller is not None:
                    reason = controller.should_stop()
                    if reason is not None:
                        stats.cancelled_tasks = len(indices) - pos
                        raise RunInterrupted(
                            f"run interrupted ({reason}) after {pos}/"
                            f"{len(indices)} tasks; completed work journaled",
                            reason=reason,
                            partial=dict(results),
                            stats=stats,
                        )
                entry, exc = _run_task(ctx, index)
                failure = _handle_result(
                    entry, stats, results, on_result, quarantine
                )
                if failure is not None:
                    raise _task_error(failure, stats) from exc
        finally:
            stats.wall_seconds = time.perf_counter() - t0
        return [results[i] for i in indices], stats


def _note_deadline(
    stats: ExecutionStats, controller: RunController | None
) -> None:
    """Record the deadline remaining on ``stats``, uniformly.

    Every ``run_kernels`` exit path — the normal fused pass, the zero-task
    early return, and the replay-only delta fast path — reports
    ``deadline_remaining_s`` the same way: a float whenever the controller
    carries a deadline (even if no task ever consulted it), ``None`` when
    there is no deadline.  The serving layer logs this as one uniform
    field per request.
    """
    if controller is not None and controller.deadline is not None:
        stats.deadline_remaining_s = float(controller.remaining())


def _failure_digest(tb_text: str) -> str:
    """One-line reason for a quarantine record (last traceback line)."""
    lines = [ln.strip() for ln in str(tb_text).strip().splitlines() if ln.strip()]
    return lines[-1] if lines else "task failed"


def _estimate_task_nbytes(collection: Any) -> int:
    """Decoded bytes one in-flight task keeps resident (2-snapshot window).

    Collections expose ``max_snapshot_nbytes()`` when they can estimate a
    snapshot's decoded size without loading it (the disk store derives it
    from headers).  Returns 0 — "no adjustment" — when no estimate exists:
    an in-memory collection is already resident, so capping waves cannot
    reduce its footprint.
    """
    sizer = getattr(collection, "max_snapshot_nbytes", None)
    if not callable(sizer):
        return 0
    try:
        per_snap = int(sizer())
    except Exception:  # pragma: no cover - estimation must never sink a run
        return 0
    return 2 * max(0, per_snap)


def _shm_affordable(collection: Any, budget: Any) -> bool:
    """Can this disk-backed collection ride the shared-memory transport?

    True when the collection can estimate its full decoded size from
    headers alone and that size fits the memory budget's wave share (or no
    budget is set).  Exporting decodes every block exactly once in the
    parent; the segment then serves every kernel of every dispatch wave
    with zero further decode work.  When it does not fit, the engine
    pickles the collection object instead and workers decode lazily under
    their own bounded caches.
    """
    sizer = getattr(collection, "total_decoded_nbytes_estimate", None)
    if not callable(sizer):
        return False
    if budget is None:
        return True
    try:
        total = int(sizer())
    except Exception:  # pragma: no cover - estimation must never sink a run
        return False
    return total <= budget.wave_bytes


def _unpicklable_reason(objs: tuple) -> str | None:
    """None if all objects survive pickling, else a human-readable reason.

    Spawned workers receive their work by pickle (closures and lambdas
    cannot travel); fork inherits everything and skips this check.
    """
    try:
        pickle.dumps(objs)
        return None
    except Exception as exc:
        return f"work is not picklable for spawned workers ({exc})"
