"""DeltaPlan suite for the fused execution path.

run_kernels has two routes: it replays journaled state through deltas
when every kernel carries an ``update_fn`` and a state, and otherwise runs
the full pass for every kernel — capturing bootstrap state, warning (never
silently degrading) when the plan carried states — and it leaves journaled
state untouched on interruption.
"""

import warnings

import pytest

from repro.core.runcontrol import RunController, RunInterrupted
from repro.query.engine import DeltaPlan, ExecutionEngine, Kernel
from repro.scan.delta import compute_delta

from .test_engine import _build_collection, _depth_sum, _row_count


def _rowsum_kernel():
    """Delta-capable toy: total row count across the window."""
    return Kernel(
        "rowsum",
        _row_count,
        sum,
        update_fn=lambda state, delta: state + delta.cur_rows,
    )


def _depths_kernel():
    return Kernel("depths", _depth_sum, sum)


def _plan_for(coll, split):
    """States from the first ``split`` snapshots + deltas for the rest."""
    snaps = list(coll)
    states = {"rowsum": sum(len(s) for s in snaps[:split])}
    deltas = [
        compute_delta(snaps[i - 1], snaps[i])
        for i in range(split, len(snaps))
    ]
    return DeltaPlan(states=states, deltas=deltas)


def test_replay_matches_full_pass():
    coll = _build_collection()
    engine = ExecutionEngine(processes=1)
    full, _ = engine.run_kernels(coll, [_rowsum_kernel()])

    plan = _plan_for(coll, split=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a clean replay must not warn
        results, stats = engine.run_kernels(
            coll, [_rowsum_kernel()], delta_plan=plan
        )
    assert results == full
    assert plan.replayed == ["rowsum"]
    assert plan.updated_states["rowsum"] == full["rowsum"]
    assert stats.delta_kernels == 1
    assert stats.delta_updates == 2
    assert stats.kernel_update_seconds["rowsum"] >= 0
    # every kernel replayed: the fused pass (and its loads) never ran
    assert stats.n_tasks == 0
    assert "delta replay" in stats.summary()


def test_fallback_warns_only_on_genuine_incremental_attempt():
    """A kernel without ``update_fn`` under a stateful plan forces a warned
    full pass for *every* kernel — no kernel replays beside a mapped one."""
    coll = _build_collection()
    engine = ExecutionEngine(processes=1)
    plan = _plan_for(coll, split=2)
    with pytest.warns(RuntimeWarning, match="no journaled state for depths"):
        results, stats = engine.run_kernels(
            coll, [_rowsum_kernel(), _depths_kernel()], delta_plan=plan
        )
    assert results["rowsum"] == sum(len(s) for s in coll)
    assert results["depths"] == sum(_depth_sum(s) for s in coll)
    assert plan.replayed == []
    assert stats.delta_kernels == 0
    assert stats.n_tasks == len(coll)  # every kernel mapped every snapshot
    # the mapped state still lands for the next run
    assert plan.updated_states == {"rowsum": results["rowsum"]}


def test_bootstrap_capture_without_states_is_silent():
    coll = _build_collection()
    engine = ExecutionEngine(processes=1)
    plan = DeltaPlan()  # no journaled state: nothing to warn about
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results, stats = engine.run_kernels(
            coll, [_rowsum_kernel(), _depths_kernel()], delta_plan=plan
        )
    assert plan.updated_states["rowsum"] == results["rowsum"]
    assert "depths" not in plan.updated_states
    assert plan.replayed == []
    assert stats.delta_kernels == 0


def test_interrupt_mid_replay_leaves_states_untouched():
    coll = _build_collection()
    engine = ExecutionEngine(processes=1)
    plan = _plan_for(coll, split=2)
    controller = RunController(max_seconds=0)  # pre-expired deadline
    with pytest.raises(RunInterrupted, match="delta replay"):
        engine.run_kernels(
            coll, [_rowsum_kernel()], delta_plan=plan, controller=controller
        )
    # nothing recorded: the journaled state on disk stays valid for a rerun
    assert plan.updated_states == {}
    assert plan.replayed == []
