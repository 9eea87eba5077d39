"""Checkpoint/resume suite for ``analyze_archive()``.

Acceptance criterion from the hardening work: a run SIGKILLed partway
through the fused pass, re-invoked with the same ``checkpoint=`` path,
resumes at the first unprocessed snapshot and produces a report
*identical* to an uninterrupted run — including path-id-dependent results,
which exercises the interning replay (``warm_paths``).
"""

import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro.scan.store as store_mod
from repro.core.pipeline import ReproPipeline, analyze_archive
from repro.query.engine import TaskError
from repro.query.parallel import SnapshotExecutor
from repro.synth.driver import SimulationConfig

TINY = SimulationConfig(
    seed=31, scale=1.5e-6, weeks=6, min_project_files=4, stress_depths=False
)
#: kernels-only analyses: census/ages exercise path-id-dependent reduces,
#: access exercises the pairwise sliding window
ANALYSES = "census,access,growth,ages"

SRC_DIR = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    directory = tmp_path_factory.mktemp("arch")
    pipeline = ReproPipeline(TINY)
    pipeline.simulate()
    pipeline.archive(directory)
    return directory


@pytest.fixture(scope="module")
def baseline(archive):
    """The uninterrupted report every resumed run must reproduce exactly."""
    _, report = analyze_archive(archive, config=TINY, analyses=ANALYSES)
    return report.text


def test_uninterrupted_run_cleans_up_journal(archive, baseline, tmp_path):
    journal = tmp_path / "ck.jsonl"
    _, report = analyze_archive(
        archive, config=TINY, analyses=ANALYSES, checkpoint=journal
    )
    assert report.text == baseline
    assert not journal.exists()


def test_aborted_run_resumes_to_identical_report(archive, baseline, tmp_path,
                                                 monkeypatch):
    """In-process variant: the reader raises after 3 loads; the rerun
    restores the journaled prefix and only executes the remainder."""
    journal = tmp_path / "ck.jsonl"
    real_open = store_mod.open_columnar
    state = {"loads": 0}

    def aborting_open(path, paths, **hooks):
        if state["loads"] >= 3:
            raise RuntimeError("injected abort")
        state["loads"] += 1
        return real_open(path, paths, **hooks)

    monkeypatch.setattr(store_mod, "open_columnar", aborting_open)
    with pytest.raises(TaskError, match="injected abort"):
        analyze_archive(
            archive, config=TINY, analyses=ANALYSES, checkpoint=journal
        )
    monkeypatch.setattr(store_mod, "open_columnar", real_open)
    assert journal.exists()
    journaled = journal.read_text().count('"index"')
    assert journaled == 3

    executor = SnapshotExecutor(1)
    pipeline, report = analyze_archive(
        archive, config=TINY, executor=executor, analyses=ANALYSES,
        checkpoint=journal,
    )
    assert report.text == baseline
    assert executor.last_stats.restored_tasks == 3
    # resumed pass loads only the remainder (plus the restored prefix's
    # predecessor for the pairwise sliding window)
    n = pipeline.context.n_snapshots
    assert pipeline.context.collection.cache_info().misses == n - 3 + 1
    assert not journal.exists()


def test_sigkilled_run_resumes_to_identical_report(archive, baseline,
                                                   tmp_path):
    """Acceptance criterion, literally: SIGKILL a checkpointed run
    mid-pass in a real subprocess, resume, compare reports byte-for-byte."""
    journal = tmp_path / "ck.jsonl"
    child = textwrap.dedent(
        f"""
        import repro.scan.store as store_mod
        from repro.core.pipeline import analyze_archive
        from repro.synth.driver import SimulationConfig
        from repro.testing.faults import sigkill_after

        store_mod.open_columnar = sigkill_after(store_mod.open_columnar, 3)
        analyze_archive(
            {str(archive)!r},
            config=SimulationConfig(seed=31, scale=1.5e-6, weeks=6,
                                    min_project_files=4, stress_depths=False),
            analyses={ANALYSES!r},
            checkpoint={str(journal)!r},
        )
        raise SystemExit("unreachable: the reader should have killed us")
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert proc.returncode == -9, (proc.returncode, proc.stderr[-2000:])
    assert journal.exists(), "SIGKILL before the first fsynced record?"
    records = journal.read_text().count('"index"')
    assert records == 3  # three loads succeeded and were journaled

    executor = SnapshotExecutor(1)
    _, report = analyze_archive(
        archive, config=TINY, executor=executor, analyses=ANALYSES,
        checkpoint=journal,
    )
    assert report.text == baseline
    assert executor.last_stats.restored_tasks == 3
    assert not journal.exists()


def test_resume_ignores_stale_journal_from_other_window(archive, baseline,
                                                        tmp_path):
    """A checkpoint from a different archive/window is discarded, not
    trusted: the run recomputes everything and still matches."""
    other_dir = tmp_path / "other"
    shutil.copytree(archive, other_dir)
    # drop one snapshot: the labels fingerprint no longer matches
    victim = sorted(other_dir.glob("*.rpq"))[-1]
    victim.unlink()

    journal = tmp_path / "ck.jsonl"
    real_open = store_mod.open_columnar
    state = {"loads": 0}

    def aborting_open(path, paths, **hooks):
        if state["loads"] >= 2:
            raise RuntimeError("injected abort")
        state["loads"] += 1
        return real_open(path, paths, **hooks)

    store_mod.open_columnar = aborting_open
    try:
        with pytest.raises(TaskError):
            analyze_archive(
                other_dir, config=TINY, analyses=ANALYSES, checkpoint=journal
            )
    finally:
        store_mod.open_columnar = real_open
    assert journal.exists()

    executor = SnapshotExecutor(1)
    with pytest.warns(RuntimeWarning, match="different run"):
        _, report = analyze_archive(
            archive, config=TINY, executor=executor, analyses=ANALYSES,
            checkpoint=journal,
        )
    assert report.text == baseline
    assert executor.last_stats.restored_tasks == 0


def test_cli_checkpoint_flag(archive, tmp_path, capsys):
    from repro.core.cli import main

    journal = tmp_path / "ck.jsonl"
    rc = main(
        ["--seed", "31", "--scale", "1.5e-6", "--weeks", "6",
         "--from-archive", str(archive), "--analyses", "growth",
         "--checkpoint", str(journal)]
    )
    assert rc == 0
    assert "FIGURE 15" in capsys.readouterr().out
    assert not journal.exists()
