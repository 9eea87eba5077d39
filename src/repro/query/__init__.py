"""Vectorized columnar query engine — the SparkSQL substitute.

The paper runs its analyses as SparkSQL jobs over Parquet snapshots on a
32-node cluster (§3).  The analyses themselves are column scans, filters,
group-by aggregations, and joins; :class:`~repro.query.table.ColumnTable`
provides exactly those, vectorized over NumPy arrays.  Every per-snapshot
scan is a :class:`Kernel` (a per-snapshot map plus a parent-side reduce),
and :meth:`SnapshotExecutor.run_kernels` runs a set of them in one fused
pass — inline, or over a process pool that is zero-copy under ``fork``
(copy-on-write) *and* under ``spawn`` (a shared-memory column transport,
:mod:`repro.query.shm`) — mirroring Spark's per-partition parallelism at
laptop scale.  The engine (:mod:`repro.query.engine`) surfaces task
failures as structured :class:`TaskError`\\ s and accumulates per-task
:class:`ExecutionStats`.
"""

from repro.query.engine import (
    EngineConfig,
    ExecutionEngine,
    ExecutionStats,
    Kernel,
    TaskError,
)
from repro.query.parallel import SnapshotExecutor
from repro.query.table import ColumnTable, GroupBy

__all__ = [
    "ColumnTable",
    "EngineConfig",
    "ExecutionEngine",
    "ExecutionStats",
    "GroupBy",
    "Kernel",
    "SnapshotExecutor",
    "TaskError",
]
