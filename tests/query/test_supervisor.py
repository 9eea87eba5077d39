"""Shard supervisor failure model: crashes, stragglers, quarantine, resume.

Every scenario here re-states the same contract: no matter what the
supervisor had to survive — SIGKILLed workers, stalled stragglers killed
by the per-shard deadline, a global interrupt halfway through — the final
merged archive is byte-identical to the inline (workers=0) reference run.
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
import os
import warnings
from pathlib import Path

import pytest

from repro.core.runcontrol import RunController, RunInterrupted
from repro.query.engine import SERIAL, START_METHOD_ENV
from repro.query.supervisor import (
    ShardFailedError,
    ShardSupervisor,
    SupervisorConfig,
)
from repro.synth.driver import SimulationConfig
from repro.synth.population import generate_population
from repro.synth.sharding import ShardPlan, run_sharded
from repro.testing.faults import shard_kill, shard_stall

CONFIG = SimulationConfig(
    seed=2015,
    scale=1.5e-6,
    weeks=4,
    min_project_files=4,
    stress_depths=False,
)
N_SHARDS = 3


def _worker_start_method() -> str:
    """A process start method for tests whose subject is a worker process.

    ``SupervisorConfig.start_method`` outranks ``REPRO_START_METHOD``, so
    pinning it keeps a real worker under the serial leg (which would run
    shards inline — and SIGKILL the test process itself), while the spawn
    leg keeps spawn coverage.
    """
    method = os.environ.get(START_METHOD_ENV, "").strip().lower()
    if method in mp.get_all_start_methods():
        return method
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def _population():
    return generate_population(seed=CONFIG.seed, n_users=CONFIG.n_users)


def archive_digest(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(directory).glob("*.rpq"))
        + sorted(Path(directory).glob("*.rpd"))
    }


@pytest.fixture(scope="module")
def baseline(tmp_path_factory) -> dict[str, str]:
    out = tmp_path_factory.mktemp("sup-baseline") / "archive"
    run_sharded(CONFIG, N_SHARDS, out, workers=0)
    return archive_digest(out)


def test_sigkill_mid_shard_resumes_byte_identical(tmp_path, baseline) -> None:
    """A worker SIGKILLed mid-window is restarted and the result is exact."""
    out = tmp_path / "archive"
    result = run_sharded(
        CONFIG,
        N_SHARDS,
        out,
        supervisor=SupervisorConfig(
            workers=2, start_method=_worker_start_method()
        ),
        faults=[shard_kill(1, after_weeks=2)],
    )
    assert result.stats.restarts >= 1
    assert result.stats.completed == N_SHARDS
    assert not result.degraded
    assert archive_digest(out) == baseline


def test_straggler_deadline_restart_byte_identical(tmp_path, baseline) -> None:
    """A stalled shard trips the heartbeat watchdog, is killed by its
    per-attempt deadline, and the restarted attempt completes exactly."""
    out = tmp_path / "archive"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_sharded(
            CONFIG,
            N_SHARDS,
            out,
            supervisor=SupervisorConfig(
                workers=2,
                start_method=_worker_start_method(),
                stall_timeout_seconds=0.3,
                shard_max_seconds=2.0,
                poll_seconds=0.02,
            ),
            faults=[shard_stall(2, week=1, seconds=30.0)],
        )
    assert result.stats.stall_warnings >= 1
    assert any("straggler" in str(w.message) for w in caught)
    assert result.stats.restarts >= 1
    assert result.stats.completed == N_SHARDS
    assert archive_digest(out) == baseline


def test_persistent_crash_quarantines_under_skip(tmp_path, baseline) -> None:
    out = tmp_path / "archive"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_sharded(
            CONFIG,
            N_SHARDS,
            out,
            supervisor=SupervisorConfig(
                workers=2, start_method=_worker_start_method(), max_attempts=2
            ),
            faults=[shard_kill(0, after_weeks=1, attempts=99)],
            on_error="skip",
        )
    assert result.stats.quarantined == [0]
    assert result.stats.completed == N_SHARDS - 1
    assert any("quarantined" in str(w.message) for w in caught)
    # the quarantine is part of the archive's health story
    assert result.degraded
    assert any(
        "shard 0 quarantined after 2 attempts" in f.reason
        for f in result.health.faults
    )
    assert all(f.action == "quarantined" for f in result.health.faults)
    # the surviving shards still merged, and differently from the full run
    assert result.records
    assert archive_digest(out) != baseline


def test_persistent_crash_fails_fast_under_raise(tmp_path) -> None:
    with pytest.raises(ShardFailedError) as excinfo:
        run_sharded(
            CONFIG,
            N_SHARDS,
            tmp_path / "archive",
            supervisor=SupervisorConfig(
                workers=2, start_method=_worker_start_method(), max_attempts=2
            ),
            faults=[shard_kill(1, after_weeks=1, attempts=99)],
        )
    assert excinfo.value.shard == 1
    assert excinfo.value.attempts == 2
    assert "exit code -9" in excinfo.value.reason


@pytest.mark.parametrize("workers", [0, 2])
def test_global_deadline_interrupts_then_resumes(
    tmp_path, baseline, workers
) -> None:
    """An expired global deadline cancels the run with a resume hint; the
    re-run picks up the journaled shards and lands on the baseline bytes.
    Inline (workers=0) and process runs stop with the same error."""
    out = tmp_path / "archive"
    with pytest.raises(RunInterrupted) as excinfo:
        run_sharded(
            CONFIG,
            N_SHARDS,
            out,
            workers=workers,
            controller=RunController(max_seconds=0),
        )
    assert "sharded simulation interrupted" in str(excinfo.value)
    assert f"0/{N_SHARDS} shards completed" in str(excinfo.value)
    assert excinfo.value.partial.n_shards == N_SHARDS
    assert excinfo.value.resume_hint
    assert "journals" in excinfo.value.resume_hint
    result = run_sharded(CONFIG, N_SHARDS, out, workers=workers)
    assert result.stats.completed == N_SHARDS
    assert archive_digest(out) == baseline


def test_inline_retry_then_success(tmp_path, monkeypatch) -> None:
    """Inline mode retries a failing shard with backoff, then succeeds."""
    plan = ShardPlan(config=CONFIG, n_shards=2)
    calls: list[tuple[int, int]] = []
    import repro.query.supervisor as supmod

    real = supmod.simulate_shard

    def flaky(p, population, shard, parts_root, *, attempt=1, **kwargs):
        calls.append((shard, attempt))
        if shard == 1 and attempt == 1:
            raise OSError("injected transient write failure")
        return real(p, population, shard, parts_root, attempt=attempt, **kwargs)

    monkeypatch.setattr(supmod, "simulate_shard", flaky)
    sup = ShardSupervisor(
        plan,
        _population(),
        tmp_path / "parts",
        config=SupervisorConfig(workers=0, backoff_seconds=0.01),
    )
    stats = sup.run()
    assert stats.completed == 2
    assert stats.restarts == 1
    assert (1, 2) in calls


def test_inline_quarantine_after_max_attempts(tmp_path, monkeypatch) -> None:
    plan = ShardPlan(config=CONFIG, n_shards=2)
    import repro.query.supervisor as supmod

    real = supmod.simulate_shard

    def broken(p, population, shard, parts_root, *, attempt=1, **kwargs):
        if shard == 0:
            raise OSError("disk on fire")
        return real(p, population, shard, parts_root, attempt=attempt, **kwargs)

    monkeypatch.setattr(supmod, "simulate_shard", broken)
    sup = ShardSupervisor(
        plan,
        _population(),
        tmp_path / "parts",
        config=SupervisorConfig(
            workers=0, max_attempts=2, backoff_seconds=0.01
        ),
        on_error="quarantine",
    )
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        stats = sup.run()
    assert stats.quarantined == [0]
    assert stats.completed == 1
    assert sup.quarantines[0].attempts == 2
    assert "disk on fire" in sup.quarantines[0].reason


def test_serial_env_forces_inline(tmp_path, monkeypatch, baseline) -> None:
    """REPRO_START_METHOD=serial runs shards inline even with workers set."""
    monkeypatch.setenv(START_METHOD_ENV, SERIAL)
    out = tmp_path / "archive"
    result = run_sharded(CONFIG, N_SHARDS, out, workers=4)
    assert result.stats.completed == N_SHARDS
    assert archive_digest(out) == baseline


def test_unknown_policy_and_start_method_rejected(tmp_path) -> None:
    plan = ShardPlan(config=CONFIG, n_shards=1)
    with pytest.raises(ValueError, match="on_error"):
        ShardSupervisor(plan, _population(), tmp_path, on_error="explode")
    sup = ShardSupervisor(
        plan,
        _population(),
        tmp_path,
        config=SupervisorConfig(workers=2, start_method="quantum"),
    )
    with pytest.raises(ValueError, match="not available"):
        sup.run()
