"""Fused kernel engine — the SparkSQL substitute.

The paper runs its analyses as SparkSQL jobs over Parquet snapshots on a
32-node cluster (§3).  Here every per-snapshot scan is a :class:`Kernel`
(a per-snapshot map plus a parent-side reduce), and
:meth:`SnapshotExecutor.run_kernels` runs a set of them in one fused pass
— inline, or over a process pool that is zero-copy under ``fork``
(copy-on-write) *and* under ``spawn`` (a shared-memory column transport,
:mod:`repro.query.shm`) — mirroring Spark's per-partition parallelism at
laptop scale.  The map functions themselves are vectorized NumPy over the
snapshot's columns.  The engine (:mod:`repro.query.engine`) surfaces task
failures as structured :class:`TaskError`\\ s and accumulates per-task
:class:`ExecutionStats`.
"""

from repro.query.engine import (
    ExecutionEngine,
    ExecutionStats,
    Kernel,
    TaskError,
)
from repro.query.parallel import SnapshotExecutor

__all__ = [
    "ExecutionEngine",
    "ExecutionStats",
    "Kernel",
    "SnapshotExecutor",
    "TaskError",
]
