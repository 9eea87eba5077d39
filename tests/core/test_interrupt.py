"""Run-control acceptance suite: deadlines, SIGTERM, memory budgets, breaker.

Deadline tests use a ticking fake clock (one second per reading) so expiry
is deterministic and sleep-free.  The SIGTERM acceptance test delivers a
real signal to a real CLI subprocess mid-pass — the journal-append tripwire
runs in the parent process under every start method, so the test is
deterministic under serial, fork, and spawn alike — then resumes from the
flushed checkpoint and compares reports byte-for-byte.
"""

import multiprocessing as mp
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro.scan.store as store_mod
from repro.core.pipeline import ReproPipeline, analyze_archive
from repro.core.runcontrol import MemoryBudget, RunController, RunInterrupted
from repro.query.parallel import SnapshotExecutor
from repro.scan.store import DiskSnapshotCollection
from repro.synth.driver import SimulationConfig, SimulationDriver

TINY = SimulationConfig(
    seed=47, scale=1.5e-6, weeks=6, min_project_files=4, stress_depths=False
)
ANALYSES = "census,access,growth,ages"

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

#: start methods for the SIGTERM acceptance test (serial always works)
METHODS = ["serial"] + [
    m for m in ("fork", "spawn") if m in mp.get_all_start_methods()
]


class TickingClock:
    """Monotonic clock advancing one second per reading — deterministic
    deadline expiry after a known number of cancellation-point checks."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    directory = tmp_path_factory.mktemp("arch")
    pipeline = ReproPipeline(TINY)
    pipeline.simulate()
    pipeline.archive(directory)
    return directory


@pytest.fixture(scope="module")
def baseline(archive):
    _, report = analyze_archive(archive, config=TINY, analyses=ANALYSES)
    return report.text


# -- deadline expiry at each layer boundary -----------------------------------


def test_deadline_interrupts_mid_simulation():
    # construction reads the clock once (t=1, deadline=4); each week
    # boundary reads it once more -> expiry before week 3 starts
    controller = RunController(max_seconds=3, clock=TickingClock())
    with pytest.raises(RunInterrupted) as exc_info:
        SimulationDriver(TINY).run(controller=controller)
    err = exc_info.value
    assert "deadline expired" in err.reason
    assert "3/6 weeks" in str(err) or "2/6 weeks" in str(err)
    assert err.partial, "completed WeekStats should be handed back"
    assert all(w.week == i for i, w in enumerate(err.partial))
    assert "deterministic" in err.resume_hint


def test_deadline_interrupts_mid_archive(tmp_path):
    pipeline = ReproPipeline(TINY)
    pipeline.simulate()
    pipeline.controller = RunController(max_seconds=3, clock=TickingClock())
    with pytest.raises(RunInterrupted) as exc_info:
        pipeline.archive(tmp_path / "arch")
    err = exc_info.value
    assert "deadline expired" in err.reason
    assert "archive interrupted" in str(err)
    n_written = len(err.partial)
    assert 0 < n_written < 6
    # every archived file is complete: atomic writes, no torn .rpq
    assert len(list((tmp_path / "arch").glob("*.rpq"))) == n_written
    # clearing the controller lets the same pipeline finish the archive
    pipeline.controller = None
    stats = pipeline.archive(tmp_path / "arch")
    assert stats.columnar_bytes > 0
    assert len(list((tmp_path / "arch").glob("*.rpq"))) == 6


def test_deadline_interrupts_mid_analysis_and_resumes(archive, baseline,
                                                      tmp_path):
    journal = tmp_path / "ck.jsonl"
    controller = RunController(max_seconds=3, clock=TickingClock())
    with pytest.raises(RunInterrupted) as exc_info:
        analyze_archive(
            archive, config=TINY, analyses=ANALYSES, checkpoint=journal,
            controller=controller,
        )
    err = exc_info.value
    assert "deadline expired" in err.reason
    assert err.resume_hint is not None and str(journal) in err.resume_hint
    assert journal.exists(), "interrupt must leave the flushed checkpoint"
    completed = journal.read_text().count('"index"')
    assert 0 < completed < 6
    assert err.stats is not None
    assert err.stats.cancelled_tasks == 6 - completed

    executor = SnapshotExecutor(1)
    _, report = analyze_archive(
        archive, config=TINY, executor=executor, analyses=ANALYSES,
        checkpoint=journal,
    )
    assert report.text == baseline
    assert executor.last_stats.restored_tasks == completed
    assert not journal.exists()


def test_deadline_remaining_recorded_in_stats(archive):
    executor = SnapshotExecutor(1)
    controller = RunController(max_seconds=10_000)
    _, report = analyze_archive(
        archive, config=TINY, executor=executor, analyses=ANALYSES,
        controller=controller,
    )
    assert report.text
    assert executor.last_stats.deadline_remaining_s is not None
    assert 0 < executor.last_stats.deadline_remaining_s <= 10_000


def test_cli_deadline_prints_the_resume_hint_once(tmp_path, capsys):
    """Every CLI verb reports a graceful stop the same way: one
    ``# interrupted:`` line and, when there is a hint, one ``# resume:``
    line — no stderr line without the ``# `` prefix."""
    from repro.core.cli import EXIT_DEADLINE, main

    rc = main([
        "synth", "--out", str(tmp_path / "arch"), "--scale", "1e-6",
        "--weeks", "2", "--max-seconds", "0",
    ])
    assert rc == EXIT_DEADLINE == 124
    lines = capsys.readouterr().err.splitlines()
    assert sum(line.startswith("# interrupted:") for line in lines) == 1
    assert sum(line.startswith("# resume:") for line in lines) == 1
    assert not any(line.startswith("resume:") for line in lines)


# -- SIGTERM acceptance (real signal, real subprocess, every start method) ----


@pytest.mark.parametrize("method", METHODS)
def test_sigterm_exits_gracefully_and_resume_is_byte_identical(
    archive, baseline, tmp_path, method
):
    journal = tmp_path / f"ck-{method}.jsonl"
    extra_flags = "" if method == "serial" else (
        f'"--parallel", "--start-method", {method!r},'
    )
    # the tripwire self-delivers SIGTERM after the 3rd durable journal
    # append; appends always run in the parent, so this is deterministic
    # under serial, fork, and spawn alike
    child = textwrap.dedent(
        f"""
        import os, signal
        from repro.query.journal import KernelJournal

        real_append = KernelJournal.append
        state = {{"n": 0}}

        def tripwire(self, index, value):
            real_append(self, index, value)
            state["n"] += 1
            if state["n"] == 3:
                os.kill(os.getpid(), signal.SIGTERM)

        KernelJournal.append = tripwire

        from repro.core.cli import main
        raise SystemExit(main([
            "--seed", "47", "--scale", "1.5e-6", "--weeks", "6",
            "--from-archive", {str(archive)!r},
            "--analyses", {ANALYSES!r},
            "--checkpoint", {str(journal)!r},
            {extra_flags}
        ]))
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_START_METHOD", None)
    proc = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True,
        text=True, timeout=300,
    )
    # graceful stop: exit 130 (not killed by the signal), resume hint printed
    assert proc.returncode == 130, (proc.returncode, proc.stderr[-2000:])
    assert "interrupted" in proc.stderr
    assert "--checkpoint" in proc.stderr
    assert journal.exists(), "SIGTERM must leave the flushed checkpoint"
    records = journal.read_text().count('"index"')
    assert records >= 3  # the 3 tripwired appends, plus any drained results

    executor = SnapshotExecutor(1)
    _, report = analyze_archive(
        archive, config=TINY, executor=executor, analyses=ANALYSES,
        checkpoint=journal,
    )
    assert report.text == baseline
    assert executor.last_stats.restored_tasks == records
    assert not journal.exists()


# -- memory budget ------------------------------------------------------------


def test_memory_budget_below_working_set_completes_exactly(archive, baseline):
    # size the budget below the full working set: cache share fits ~1.5 of
    # the largest snapshot, so a full window (6) must evict by bytes
    probe = DiskSnapshotCollection(archive, cache_size=1)
    nb_max = max(int(probe[i].column_nbytes()) for i in range(len(probe)))
    budget = MemoryBudget(3 * nb_max)
    assert budget.cache_bytes < 6 * nb_max  # genuinely below the window

    executor = SnapshotExecutor(1)
    controller = RunController(memory_budget=budget)
    pipeline, report = analyze_archive(
        archive, config=TINY, executor=executor, analyses=ANALYSES,
        controller=controller,
    )
    assert report.text == baseline  # reduced cache, identical results
    collection = pipeline.context.collection
    info = collection.cache_info()
    assert info.bytes_limit == budget.cache_bytes
    assert info.bytes <= budget.cache_bytes
    # byte eviction actually engaged and was observed by the stats
    assert 0 < collection.peak_cache_bytes <= budget.cache_bytes
    assert executor.last_stats.peak_cache_bytes == collection.peak_cache_bytes


def test_store_cache_bytes_eviction(archive):
    unlimited = DiskSnapshotCollection(archive, cache_size=6)
    for i in range(len(unlimited)):
        unlimited[i]
    assert unlimited.cache_info().currsize == 6
    full_bytes = unlimited.cache_info().bytes
    assert full_bytes == unlimited.peak_cache_bytes > 0

    limit = full_bytes // 3
    bounded = DiskSnapshotCollection(archive, cache_size=6, cache_bytes=limit)
    for i in range(len(bounded)):
        bounded[i]
        assert bounded.cache_info().bytes <= limit
    info = bounded.cache_info()
    assert info.bytes_limit == limit
    assert info.currsize < 6
    assert bounded.peak_cache_bytes <= limit
    # oversized floor: a one-byte budget still serves snapshots, one at a time
    floor = DiskSnapshotCollection(archive, cache_size=6, cache_bytes=1)
    floor[0]
    assert floor.cache_info().currsize == 1


# -- per-snapshot circuit breaker ---------------------------------------------


def test_circuit_breaker_quarantines_failing_snapshot(archive, monkeypatch):
    """A snapshot whose task fails is quarantined into the health report on
    its first failure instead of sinking the run."""
    victim = sorted(archive.glob("*.rpq"))[-1].name  # last: no cascade
    real_open = store_mod.open_columnar
    attempts = {"n": 0}

    def failing_open(path, paths, **hooks):
        if Path(path).name == victim:
            attempts["n"] += 1
            raise RuntimeError("injected per-file task failure")
        return real_open(path, paths, **hooks)

    monkeypatch.setattr(store_mod, "open_columnar", failing_open)
    executor = SnapshotExecutor(1)
    with pytest.warns(RuntimeWarning, match="repeated task failures"):
        pipeline, report = analyze_archive(
            archive, config=TINY, executor=executor, analyses=ANALYSES,
            on_error="skip",
        )
    assert report.text  # the run completed over the survivors
    assert attempts["n"] == 1  # one attempt, then the breaker opened
    assert executor.last_stats.quarantined_snapshots == 1
    health = pipeline.context.collection.health_report()
    assert any("task failures exhausted" in f.reason for f in health.faults)
    assert any(victim in f.path for f in health.faults)


def test_breaker_disarmed_under_raise_policy(archive, monkeypatch):
    """Under on_error='raise' the same failure sinks the run (old
    behavior preserved)."""
    from repro.query.engine import TaskError

    victim = sorted(archive.glob("*.rpq"))[-1].name
    real_open = store_mod.open_columnar

    def failing_open(path, paths, **hooks):
        if Path(path).name == victim:
            raise RuntimeError("injected per-file task failure")
        return real_open(path, paths, **hooks)

    monkeypatch.setattr(store_mod, "open_columnar", failing_open)
    with pytest.raises(TaskError, match="injected per-file task failure"):
        analyze_archive(
            archive, config=TINY, executor=SnapshotExecutor(1),
            analyses=ANALYSES,
        )
