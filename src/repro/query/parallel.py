"""Process-parallel execution of per-snapshot analyses (public API).

The paper's Spark jobs are per-snapshot-partition parallel; our equivalent
runs every analysis as a :class:`~repro.query.engine.Kernel` in one fused
pass over the snapshot collection, through
:meth:`SnapshotExecutor.run_kernels` (a thin policy-and-stats wrapper over
:class:`repro.query.engine.ExecutionEngine`).  Workers receive the columns
either by copy-on-write inheritance (``fork``) or through a shared-memory
segment (``spawn`` / ``forkserver`` — see :mod:`repro.query.shm`), so the
multi-gigabyte columns are never pickled under any start method.

Failure semantics are the engine's: a task runs once; one that raises
quarantines its snapshot when the collection's ``on_error`` policy allows
it and otherwise surfaces as a structured
:class:`~repro.query.engine.TaskError` carrying the snapshot index and the
task traceback; a worker that dies trips the engine's ``task_timeout``
watchdog on every pooled pass.  Any fallback to serial execution is warned
about and recorded in the run's :class:`~repro.query.engine.ExecutionStats`
— never silent.  Set ``$REPRO_START_METHOD`` to pin the start method
suite-wide (``fork`` / ``spawn`` / ``forkserver`` / ``serial``).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.core.runcontrol import RunController, RunInterrupted
from repro.query.engine import (
    DeltaPlan,
    EngineConfig,
    ExecutionEngine,
    ExecutionStats,
    Kernel,
    TaskError,
)
from repro.scan.snapshot import SnapshotCollection

__all__ = [
    "DeltaPlan",
    "EngineConfig",
    "ExecutionStats",
    "Kernel",
    "RunController",
    "RunInterrupted",
    "SnapshotExecutor",
    "TaskError",
]


class SnapshotExecutor:
    """Reusable executor with a fixed parallelism policy.

    The analysis suite takes one of these so callers choose the policy once
    (``SnapshotExecutor(processes=1)`` in unit tests, parallel in benches).
    It sets only the pool's size and start method; chunking and the
    dead-worker watchdog keep the :class:`EngineConfig` defaults.  After
    every pass the run's :class:`ExecutionStats` is available as
    ``last_stats``, and ``stats`` keeps the lifetime aggregate across runs.
    """

    def __init__(
        self, processes: int | None = 1, start_method: str | None = None
    ) -> None:
        self.processes = processes
        self._engine = ExecutionEngine(
            EngineConfig(processes=processes, start_method=start_method)
        )
        self.last_stats: ExecutionStats | None = None
        self.stats = ExecutionStats()

    @property
    def config(self) -> EngineConfig:
        return self._engine.config

    def _record(self, stats: ExecutionStats) -> None:
        self.last_stats = stats
        self.stats.merge(stats)

    def run_kernels(
        self,
        collection: SnapshotCollection,
        kernels: Sequence[Kernel],
        journal: Any = None,
        controller: RunController | None = None,
        delta_plan: DeltaPlan | None = None,
    ) -> dict[str, Any]:
        """Run every kernel against each snapshot in one fused pass.

        Each snapshot is loaded (and, under ``spawn``, exported to shared
        memory) exactly once; all kernel map functions evaluate against the
        resident snapshot before the pass moves on.  Returns
        ``{kernel.name: reduce result}``; per-kernel timings land in
        ``last_stats``.  ``journal`` (a
        :class:`~repro.query.journal.KernelJournal`) checkpoints completed
        snapshots durably and restores them on a rerun.  ``controller``
        makes the pass interruptible (deadline / signals → graceful
        :class:`RunInterrupted` with a flushed checkpoint);
        ``delta_plan`` (a :class:`DeltaPlan`) replays every kernel through
        the deltas when each one carries a journaled state (see
        :meth:`~repro.query.engine.ExecutionEngine.run_kernels`).
        """
        try:
            results, stats = self._engine.run_kernels(
                collection,
                kernels,
                journal=journal,
                controller=controller,
                delta_plan=delta_plan,
            )
        except (TaskError, RunInterrupted) as err:
            if err.stats is not None:
                self._record(err.stats)
            raise
        self._record(stats)
        return results
