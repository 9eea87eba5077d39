"""Kernel-protocol suite for the fused execution path.

run_kernels must agree with evaluating each kernel directly over the
snapshots under every start method, share map evaluations between kernels
that request the same function, and surface per-kernel timings in
ExecutionStats.
"""

import multiprocessing as mp

import pytest

from repro.query.engine import EngineConfig, ExecutionEngine, Kernel
from repro.query.parallel import SnapshotExecutor

from .test_engine import _build_collection, _pair_growth, _row_count

METHODS = [m for m in ("fork", "spawn") if m in mp.get_all_start_methods()]


def _depth_total(snapshot):
    return int(snapshot.depth().sum())


def _kernels():
    return [
        Kernel("rows", _row_count, sum),
        Kernel("rows_again", _row_count, max),
        Kernel("depths", _depth_total, sum),
        Kernel("growth", _pair_growth, list, pairwise=True),
    ]


def _expected(coll):
    rows = [_row_count(s) for s in coll]
    return {
        "rows": sum(rows),
        "rows_again": max(rows),
        "depths": sum(_depth_total(s) for s in coll),
        "growth": [rows[i] - rows[i - 1] for i in range(1, len(coll))],
    }


def test_run_kernels_serial_matches_direct():
    coll = _build_collection()
    engine = ExecutionEngine(EngineConfig(processes=1))
    results, stats = engine.run_kernels(coll, _kernels())
    assert results == _expected(coll)
    assert stats.n_tasks == len(coll)
    assert set(stats.kernel_map_seconds) == {
        "rows", "rows_again", "depths", "growth",
    }
    assert set(stats.kernel_reduce_seconds) == set(stats.kernel_map_seconds)
    assert all(v >= 0 for v in stats.kernel_totals().values())
    assert "per-kernel" in stats.summary()


@pytest.mark.parametrize("method", METHODS)
def test_run_kernels_parallel_matches_serial(method):
    coll = _build_collection()
    engine = ExecutionEngine(
        EngineConfig(processes=2, start_method=method)
    )
    results, stats = engine.run_kernels(coll, _kernels())
    assert results == _expected(coll)
    assert not stats.downgraded
    assert stats.start_method == method


def test_duplicate_kernel_names_rejected():
    coll = _build_collection(weeks=2)
    engine = ExecutionEngine(EngineConfig(processes=1))
    with pytest.raises(ValueError, match="duplicate kernel names"):
        engine.run_kernels(
            coll, [Kernel("k", _row_count, sum), Kernel("k", _depth_total, sum)]
        )


def test_no_kernels_and_empty_reduces():
    coll = _build_collection(weeks=2)
    engine = ExecutionEngine(EngineConfig(processes=1))
    results, _ = engine.run_kernels(coll, [])
    assert results == {}


def test_single_snapshot_pair_kernel_reduces_empty():
    coll = _build_collection(weeks=1)
    engine = ExecutionEngine(EngineConfig(processes=1))
    results, _ = engine.run_kernels(
        coll,
        [
            Kernel("rows", _row_count, sum),
            Kernel("growth", _pair_growth, list, pairwise=True),
        ],
    )
    assert results["rows"] == _row_count(coll[0])
    assert results["growth"] == []


def test_shared_map_fn_evaluated_once_per_snapshot():
    """Kernels naming the same map fn share one evaluation (serial path)."""
    calls = []

    def counted(snapshot):
        calls.append(1)
        return len(snapshot)

    coll = _build_collection()
    engine = ExecutionEngine(EngineConfig(processes=1))
    results, stats = engine.run_kernels(
        coll, [Kernel("a", counted, sum), Kernel("b", counted, max)]
    )
    assert len(calls) == len(coll)
    assert results["a"] == sum(len(s) for s in coll)
    assert results["b"] == max(len(s) for s in coll)
    # the shared evaluation's cost is split so per-kernel times stay additive
    assert stats.kernel_map_seconds["a"] == pytest.approx(
        stats.kernel_map_seconds["b"]
    )


@pytest.mark.skipif("spawn" not in mp.get_all_start_methods(), reason="no spawn")
def test_unpicklable_kernel_downgrades_with_warning():
    coll = _build_collection(weeks=3)
    engine = ExecutionEngine(EngineConfig(processes=2, start_method="spawn"))
    bonus = 7
    kernel = Kernel("closure", lambda s: len(s) + bonus, sum)
    with pytest.warns(RuntimeWarning, match="downgraded to serial"):
        results, stats = engine.run_kernels(coll, [kernel])
    assert results["closure"] == sum(len(s) + bonus for s in coll)
    assert stats.downgraded


def test_executor_run_kernels_records_stats():
    coll = _build_collection(weeks=3)
    executor = SnapshotExecutor(processes=1)
    results = executor.run_kernels(coll, [Kernel("rows", _row_count, sum)])
    assert results["rows"] == sum(len(s) for s in coll)
    assert executor.last_stats is not None
    assert "rows" in executor.last_stats.kernel_map_seconds
    assert executor.stats.runs == 1
    executor.run_kernels(coll, [Kernel("rows", _row_count, sum)])
    assert executor.stats.runs == 2
    assert executor.stats.kernel_totals()["rows"] >= 0
