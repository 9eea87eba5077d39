"""Engine-level run-control tests: cancellation waves, budget capping,
breaker plumbing, and the new ExecutionStats fields.

The pipeline-level acceptance tests live in tests/core/test_interrupt.py;
this file exercises the engine directly with an in-memory collection.
"""

import multiprocessing as mp

import pytest

from repro.query.engine import (
    EngineConfig,
    ExecutionEngine,
    ExecutionStats,
    Kernel,
    TaskError,
)
from repro.query.parallel import RunController, RunInterrupted
from repro.scan.snapshot import SnapshotCollection

from .test_engine import _build_collection, _row_count

METHODS = [m for m in ("fork", "spawn") if m in mp.get_all_start_methods()]


class _TickingClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def _kernels():
    return [Kernel("rows", _row_count, sum)]


# -- cancellation -------------------------------------------------------------


def test_precancelled_controller_stops_before_first_task():
    coll = _build_collection(weeks=4)
    controller = RunController()
    controller.token.cancel("test cancel")
    engine = ExecutionEngine(EngineConfig(processes=1))
    with pytest.raises(RunInterrupted) as exc_info:
        engine.run_kernels(coll, _kernels(), controller=controller)
    err = exc_info.value
    assert err.reason == "test cancel"
    assert err.stats.cancelled_tasks == 4
    assert "no checkpoint journal" in err.resume_hint


def test_serial_deadline_cancels_remaining_tasks():
    coll = _build_collection(weeks=5)
    # t=1 at construction (deadline 4); one reading per task boundary ->
    # tasks 0 and 1 run, the check before task 2 reads t=4 and expires
    controller = RunController(max_seconds=3, clock=_TickingClock())
    engine = ExecutionEngine(EngineConfig(processes=1))
    with pytest.raises(RunInterrupted) as exc_info:
        engine.run_kernels(coll, _kernels(), controller=controller)
    stats = exc_info.value.stats
    assert stats.cancelled_tasks == 3
    assert stats.n_tasks == 5


@pytest.mark.parametrize("method", METHODS)
def test_pool_cancellation_stops_submission_and_drains(method):
    coll = _build_collection(weeks=6)
    # pre-expired deadline: the first poll in the dispatch loop cancels;
    # the already-submitted wave drains, unsubmitted chunks are cancelled
    controller = RunController(max_seconds=0)
    engine = ExecutionEngine(
        EngineConfig(processes=2, start_method=method, chunk_size=1)
    )
    with pytest.raises(RunInterrupted) as exc_info:
        engine.run_kernels(coll, _kernels(), controller=controller)
    err = exc_info.value
    assert "deadline expired" in err.reason
    assert "pool terminated" in str(err)
    stats = err.stats
    # wave = 2 * processes = 4 submitted up front, so at least the last
    # two chunks were never submitted (drained chunks may add more)
    assert stats.cancelled_tasks >= 2
    assert stats.cancelled_tasks + (6 - stats.cancelled_tasks) == 6


def test_uncancelled_run_unaffected_by_controller():
    coll = _build_collection(weeks=4)
    engine = ExecutionEngine(EngineConfig(processes=1))
    plain, _ = engine.run_kernels(coll, _kernels())
    governed, stats = engine.run_kernels(
        coll, _kernels(), controller=RunController(max_seconds=10_000)
    )
    assert governed == plain
    assert stats.cancelled_tasks == 0
    assert stats.deadline_remaining_s is not None


# -- memory budget wave capping -----------------------------------------------


class _SizedCollection(SnapshotCollection):
    """In-memory collection advertising a (huge) per-snapshot size so a
    byte budget forces the dispatch wave down to serial."""

    def max_snapshot_nbytes(self):
        return 1 << 40


def test_memory_budget_caps_waves_to_serial():
    base = _build_collection(weeks=4)
    coll = _SizedCollection(base.paths)
    for snap in base:
        coll.append(snap)
    engine = ExecutionEngine(EngineConfig(processes=4, start_method=METHODS[0]))
    plain, _ = engine.run_kernels(coll, _kernels())
    # wave share ~2MB vs 2*1TB per-task estimate -> cap = 1 -> serial path
    controller = RunController(memory_budget="4M")
    capped, stats = engine.run_kernels(coll, _kernels(), controller=controller)
    assert capped == plain
    assert stats.start_method == "serial" or stats.processes <= 1


def test_budget_ignored_without_size_estimate():
    # a plain collection has no max_snapshot_nbytes: the budget cannot
    # size waves, and the run must still complete correctly
    coll = _build_collection(weeks=3)
    engine = ExecutionEngine(EngineConfig(processes=1))
    results, _ = engine.run_kernels(
        coll, _kernels(), controller=RunController(memory_budget="1M")
    )
    assert results == engine.run_kernels(coll, _kernels())[0]


# -- ExecutionStats fields ----------------------------------------------------


def test_stats_merge_new_fields():
    a = ExecutionStats(
        cancelled_tasks=2, quarantined_snapshots=1, peak_cache_bytes=100,
        deadline_remaining_s=9.0,
    )
    b = ExecutionStats(
        cancelled_tasks=1, quarantined_snapshots=2, peak_cache_bytes=300,
        deadline_remaining_s=4.0,
    )
    a.merge(b)
    assert a.cancelled_tasks == 3
    assert a.quarantined_snapshots == 3
    assert a.peak_cache_bytes == 300  # high-water mark, not a sum
    assert a.deadline_remaining_s == 4.0  # closest approach to the limit
    c = ExecutionStats()
    c.merge(ExecutionStats(deadline_remaining_s=7.0))
    assert c.deadline_remaining_s == 7.0


def test_stats_summary_mentions_limits():
    stats = ExecutionStats(
        cancelled_tasks=2, quarantined_snapshots=1,
        peak_cache_bytes=4 << 20, deadline_remaining_s=1.5,
    )
    text = stats.summary()
    assert "cancelled" in text
    assert "quarantined" in text
    assert "peak snapshot cache 4.2MB" in text  # decimal MB, like bytes touched
    assert "deadline remaining 1.5s" in text


# -- breaker plumbing ---------------------------------------------------------


class _BreakerCollection(SnapshotCollection):
    """In-memory collection with the disk store's quarantine hook."""

    on_error = "skip"

    def __init__(self, paths=None):
        super().__init__(paths)
        self.quarantined: list[tuple[int, str]] = []

    def quarantine_task_failure(self, idx, reason):
        self.quarantined.append((idx, reason))


def _fail_on_small(snapshot):
    if len(snapshot) < 30:
        raise ValueError("rigged: too small")
    return len(snapshot)


@pytest.mark.parametrize("route", ["serial"] + METHODS)
def test_breaker_quarantines_and_reduces_over_survivors(route):
    base = _build_collection(weeks=4, files_per_week=20)  # week 0 has 21 rows
    coll = _BreakerCollection(base.paths)
    for snap in base:
        coll.append(snap)
    if route == "serial":
        config = EngineConfig(processes=1)
    else:
        config = EngineConfig(processes=2, start_method=route)
    engine = ExecutionEngine(config)
    # the collection's on_error="skip" arms the breaker
    results, stats = engine.run_kernels(
        coll, [Kernel("rows", _fail_on_small, sum)]
    )
    # every route records the same quarantine reason (it lands in the
    # archive health report, which must not depend on the route)
    assert coll.quarantined == [(0, "ValueError: rigged: too small")]
    assert stats.quarantined_snapshots == 1
    assert stats.failures == 1
    # the reduce sees only the surviving snapshots
    sizes = [len(s) for s in base]
    assert results["rows"] == sum(sizes[1:])


def test_breaker_requires_nonraise_policy():
    coll = _build_collection(weeks=2)  # plain collection: on_error absent
    engine = ExecutionEngine(EngineConfig(processes=1))
    with pytest.raises(TaskError):
        engine.run_kernels(coll, [Kernel("rows", _fail_on_small, sum)])


# -- deadline accounting (uniform deadline_remaining_s) -----------------------


def test_deadline_remaining_reported_on_zero_task_run():
    # an empty collection short-circuits before any task runs; the stats
    # must still report the deadline uniformly (a float, not None) so a
    # server can log one field for every request
    coll = SnapshotCollection(_build_collection(weeks=1).paths)
    controller = RunController(max_seconds=100, clock=_TickingClock())
    engine = ExecutionEngine(EngineConfig(processes=1))
    results, stats = engine.run_kernels(coll, _kernels(), controller=controller)
    assert results == {"rows": 0}
    assert isinstance(stats.deadline_remaining_s, float)
    assert 0.0 < stats.deadline_remaining_s <= 100.0


def test_deadline_remaining_none_without_deadline_on_zero_task_run():
    coll = SnapshotCollection(_build_collection(weeks=1).paths)
    engine = ExecutionEngine(EngineConfig(processes=1))
    _, stats = engine.run_kernels(coll, _kernels(), controller=RunController())
    assert stats.deadline_remaining_s is None


def test_deadline_remaining_reported_on_empty_kernel_list():
    coll = _build_collection(weeks=2)
    controller = RunController(max_seconds=100, clock=_TickingClock())
    engine = ExecutionEngine(EngineConfig(processes=1))
    results, stats = engine.run_kernels(coll, [], controller=controller)
    assert results == {}
    assert isinstance(stats.deadline_remaining_s, float)


# -- interrupt partials -------------------------------------------------------


def test_serial_interrupt_carries_completed_prefix_as_partial():
    coll = _build_collection(weeks=5)
    controller = RunController(max_seconds=3, clock=_TickingClock())
    engine = ExecutionEngine(EngineConfig(processes=1))
    with pytest.raises(RunInterrupted) as exc_info:
        engine.run_kernels(coll, _kernels(), controller=controller)
    partial = exc_info.value.partial
    assert isinstance(partial, dict)
    assert sorted(partial) == [0, 1]  # clock: tasks 0,1 ran before expiry
    # fused-mode rows are (partials_by_kernel, times) pairs
    for idx, value in partial.items():
        by_kernel, _times = value
        assert by_kernel["rows"] == len(coll[idx])


def test_child_controller_deadline_and_linked_cancel():
    clock = _TickingClock()
    parent = RunController(max_seconds=100, clock=clock)
    child = parent.child(max_seconds=5)
    assert child.remaining() <= 5.0
    # the child cannot outlive the parent
    tight = parent.child(max_seconds=1000)
    assert tight.max_seconds <= 100.0
    # parent cancel propagates; child cancel stays local
    other = parent.child()
    child.token.cancel("local")
    assert child.token.cancelled and not parent.token.cancelled
    assert not other.token.cancelled
    parent.token.cancel("drain")
    assert other.token.cancelled
    assert other.token.reason == "drain"
    assert child.token.reason == "local"  # own reason sticks
