"""Equivalence and fault-handling suite for the parallel execution engine.

Every start method must produce the same ordered results as serial
execution; task exceptions must surface a structured TaskError with the
failing snapshot index and traceback; nested passes (the old global-handoff
re-entrancy bug) must work; downgrades must warn and be recorded.  Each
case drives the engine through its one entry point, a one-kernel
``run_kernels`` pass whose ``list`` reduce returns the ordered partials.
"""

import multiprocessing as mp
import os
import time

import pytest

from repro.fs.filesystem import FileSystem
from repro.query.engine import EngineConfig, ExecutionEngine, Kernel, TaskError
from repro.query.parallel import SnapshotExecutor
from repro.scan.columnar import write_columnar
from repro.scan.lustredu import LustreDuScanner
from repro.scan.snapshot import SnapshotCollection
from repro.scan.store import DiskSnapshotCollection

#: fork / spawn, intersected with what this platform offers.
METHODS = [m for m in ("fork", "spawn") if m in mp.get_all_start_methods()]


def _build_collection(weeks=4, files_per_week=20, churn=False):
    """``churn``: each week's files after the first are deleted a week
    later, so no snapshot holds every earlier path."""
    fs = FileSystem(ost_count=32, default_stripe=2, max_stripe=8)
    scanner = LustreDuScanner()
    coll = SnapshotCollection(scanner.paths)
    d = fs.makedirs("/lustre/atlas1/cli/p1/u1", uid=1, gid=1)
    for week in range(weeks):
        names = [f"w{week}.f{i}.nc" for i in range(files_per_week)]
        fs.create_many(d, names, 1, 1, timestamps=fs.clock.now)
        coll.append(scanner.scan(fs, label=f"w{week}"))
        if churn and week:
            fs.unlink_many(d, names)
        fs.clock.advance_days(7)
    return coll


def _partials(ex, coll, fn, pairwise=False):
    """Ordered per-snapshot (or per-pair) partials of a one-kernel pass."""
    return ex.run_kernels(coll, [Kernel("k", fn, list, pairwise=pairwise)])["k"]


def _map(coll, fn, processes=1, start_method=None, pairwise=False):
    ex = SnapshotExecutor(processes=processes, start_method=start_method)
    return _partials(ex, coll, fn, pairwise=pairwise)


# module-level functions: picklable, so they travel under spawn too


def _row_count(snapshot):
    return len(snapshot)


def _depth_sum(snapshot):
    return int(snapshot.depth().sum())


def _ext_ids(snapshot):
    return snapshot.ext_id().tolist()


def _pair_growth(prev, cur):
    return len(cur) - len(prev)


def _fail_on_largest(snapshot):
    if len(snapshot) > 70:
        raise ValueError(f"rigged failure at {len(snapshot)} rows")
    return len(snapshot)


def _ids_slow_first(snapshot):
    # week 0 outlasts four later tasks, so with one-task chunks its worker
    # next takes week 5 having never loaded weeks 1-3
    time.sleep(1.4 if snapshot.label == "w0" else 0.4)
    return snapshot.path_id


def _nested_map(snapshot):
    # a pass issued inside a worker: daemonic processes cannot fork, so the
    # engine must transparently run this inner pass serial (and not trample
    # any engine state, which the old module-global handoff did)
    inner = _build_collection(weeks=2, files_per_week=3)
    return len(snapshot) + sum(_map(inner, _row_count, processes=2))


@pytest.mark.parametrize("method", METHODS)
def test_map_matches_serial_ordered(method):
    coll = _build_collection()
    serial = _map(coll, _row_count)
    parallel = _map(coll, _row_count, processes=2, start_method=method)
    assert parallel == serial
    assert parallel == sorted(parallel)  # snapshot order preserved


@pytest.mark.parametrize("method", METHODS)
def test_map_derived_columns_match(method):
    """Depth/extension gathers exercise the shared path table under spawn."""
    coll = _build_collection()
    assert _map(coll, _depth_sum, processes=2, start_method=method) == \
        _map(coll, _depth_sum)
    assert _map(coll, _ext_ids, processes=2, start_method=method) == \
        _map(coll, _ext_ids)


@pytest.mark.parametrize("method", METHODS)
def test_map_pairs_matches_serial(method):
    coll = _build_collection(weeks=4, files_per_week=5)
    serial = _map(coll, _pair_growth, pairwise=True)
    parallel = _map(coll, _pair_growth, processes=2, start_method=method,
                    pairwise=True)
    assert parallel == serial == [5, 5, 5]


@pytest.mark.parametrize("method", METHODS + ["serial"])
def test_worker_exception_surfaces_index_and_traceback(method):
    coll = _build_collection(weeks=4, files_per_week=20)  # rows: 21,41,61,81
    processes = 1 if method == "serial" else 2
    with pytest.raises(TaskError) as err:
        _map(coll, _fail_on_largest, processes=processes,
             start_method=None if method == "serial" else method)
    assert err.value.index == 3  # only the last snapshot exceeds 70 rows
    assert "ValueError" in err.value.traceback_text
    assert "rigged failure" in err.value.traceback_text
    # one message shape on every route: index, retries, the exception line
    assert str(err.value).startswith(
        "snapshot task 3 failed (after 0 retries): ValueError: rigged failure"
    )
    if method == "serial":
        # inline runs chain the task's own exception (the serving layer
        # maps it to a typed response)
        assert isinstance(err.value.__cause__, ValueError)


def test_nested_map_runs_serial_in_worker():
    coll = _build_collection(weeks=3, files_per_week=4)
    serial = _map(coll, _nested_map)
    parallel = _map(coll, _nested_map, processes=2)
    assert parallel == serial


def test_nested_map_in_parent_is_reentrant():
    # a serial outer pass whose map itself runs a pass (the old
    # module-global handoff was trampled by exactly this shape)
    outer = _build_collection(weeks=3, files_per_week=4)
    inner = _build_collection(weeks=2, files_per_week=2)

    def outer_fn(snapshot):
        return len(snapshot) + sum(_map(inner, _row_count, processes=2))

    expected = [len(s) + sum(len(t) for t in inner) for s in outer]
    assert _map(outer, outer_fn) == expected


def test_unpicklable_fn_under_spawn_downgrades_with_warning():
    if "spawn" not in mp.get_all_start_methods():
        pytest.skip("no spawn on this platform")
    coll = _build_collection(weeks=3)
    ex = SnapshotExecutor(processes=2, start_method="spawn")
    fn = lambda s: len(s)  # noqa: E731 - deliberately unpicklable
    with pytest.warns(RuntimeWarning, match="downgraded to serial"):
        results = _partials(ex, coll, fn)
    assert results == _map(coll, _row_count)
    assert ex.last_stats.downgraded
    assert "picklable" in ex.last_stats.downgrade_reason


def test_stats_populated_by_parallel_run():
    coll = _build_collection(weeks=4)
    ex = SnapshotExecutor(processes=2, start_method=METHODS[0])
    _partials(ex, coll, _row_count)
    stats = ex.last_stats
    assert stats.n_tasks == 4
    assert stats.processes == 2
    assert stats.start_method == METHODS[0]
    assert stats.transport in ("inherit", "shm")
    assert stats.bytes_touched > 0
    assert len(stats.task_wall) == 4
    assert stats.wall_seconds > 0
    assert 0.0 <= stats.utilization <= 1.5  # tiny tasks, loose bound
    assert "tasks" in stats.summary()


def test_stats_aggregate_across_runs():
    coll = _build_collection(weeks=3)
    ex = SnapshotExecutor(processes=1)
    _partials(ex, coll, _row_count)
    _partials(ex, coll, _pair_growth, pairwise=True)
    assert ex.stats.runs == 2
    # a pair kernel rides the per-snapshot pass: one task per snapshot,
    # the first of which has no pair to map
    assert ex.stats.n_tasks == 3 + 3


def test_retry_recovers_flaky_task(tmp_path):
    coll = _build_collection(weeks=3)
    marker = tmp_path / "attempted"

    def flaky(snapshot):
        if not marker.exists():
            marker.write_text("x")
            raise RuntimeError("first attempt always fails")
        return len(snapshot)

    ex = SnapshotExecutor(processes=1, retries=1)
    assert _partials(ex, coll, flaky) == _map(coll, _row_count)
    assert ex.last_stats.retries == 1
    assert ex.last_stats.failures == 0


def test_retry_exhaustion_still_raises():
    coll = _build_collection(weeks=2)

    def always_fails(snapshot):
        raise RuntimeError("permanent")

    ex = SnapshotExecutor(processes=1, retries=2)
    with pytest.raises(TaskError) as err:
        _partials(ex, coll, always_fails)
    assert err.value.index == 0
    assert "2 retries" in str(err.value)


def test_failed_run_still_records_stats():
    coll = _build_collection(weeks=4)
    ex = SnapshotExecutor(processes=2, start_method=METHODS[0])
    with pytest.raises(TaskError):
        _partials(ex, coll, _fail_on_largest)
    assert ex.last_stats is not None
    assert ex.last_stats.failures == 1


def test_crashed_worker_detected_by_watchdog():
    coll = _build_collection(weeks=4, files_per_week=20)

    def die_hard(snapshot):
        if len(snapshot) > 70:
            os._exit(13)  # hard crash, bypasses exception handling
        return len(snapshot)

    ex = SnapshotExecutor(
        processes=2, start_method="fork", chunk_size=1, task_timeout=3.0
    )
    if "fork" not in mp.get_all_start_methods():
        pytest.skip("fork required for the closure")
    with pytest.raises(TaskError, match="crashed or a task is stuck"):
        _partials(ex, coll, die_hard)


def test_empty_collection_all_methods():
    coll = SnapshotCollection()
    for method in METHODS:
        assert _map(coll, _row_count, processes=2, start_method=method) == []


def test_env_var_serial_override(monkeypatch):
    monkeypatch.setenv("REPRO_START_METHOD", "serial")
    coll = _build_collection(weeks=3)
    ex = SnapshotExecutor(processes=4)
    assert _partials(ex, coll, _row_count) == _map(coll, _row_count)
    assert ex.last_stats.start_method == "serial"
    assert not ex.last_stats.downgraded  # explicit policy, not a downgrade


def test_env_var_bad_method_raises(monkeypatch):
    monkeypatch.setenv("REPRO_START_METHOD", "telepathy")
    coll = _build_collection(weeks=2)
    with pytest.raises(ValueError, match="telepathy"):
        _map(coll, _row_count, processes=2)


def test_engine_config_chunking():
    coll = _build_collection(weeks=6, files_per_week=3)
    engine = ExecutionEngine(
        EngineConfig(processes=2, start_method=METHODS[0], chunk_size=2)
    )
    results, stats = engine.run_kernels(coll, [Kernel("k", _row_count, list)])
    assert results["k"] == _map(coll, _row_count)
    assert stats.n_tasks == 6


@pytest.mark.skipif("fork" not in METHODS, reason="fork required")
def test_pooled_disk_pass_path_ids_follow_serial_interning(tmp_path):
    """Path ids in pooled partials resolve against the parent's table.

    A disk collection interns paths as it loads, and forked workers load
    into their own copies of its path table; whatever chunks a worker is
    handed, the ids it returns must be the ones a serial pass assigns.
    """
    churned = _build_collection(weeks=6, files_per_week=5, churn=True)
    for i, snap in enumerate(churned):
        write_columnar(snap, tmp_path / f"{i:02d}.rpq")
    expected = [s.path_strings() for s in DiskSnapshotCollection(tmp_path)]
    disk = DiskSnapshotCollection(tmp_path)
    ex = SnapshotExecutor(processes=2, start_method="fork", chunk_size=1)
    ids = _partials(ex, disk, _ids_slow_first)
    assert [[disk.paths.paths[p] for p in pids] for pids in ids] == expected
