import io

import numpy as np
import pytest

from repro.fs.clock import SimClock
from repro.fs.filesystem import FileSystem
from repro.fs.purge import PurgePolicy
from repro.scan.lustredu import LustreDuScanner
from repro.synth.behavior import build_behaviors
from repro.synth.population import generate_population
from repro.synth.trace import TraceRecorder, load_trace, replay_trace


def _fresh_fs():
    return FileSystem(clock=SimClock(), ost_count=256, default_stripe=4,
                      max_stripe=128)


def _snapshot_view(fs):
    snap = LustreDuScanner().scan(fs, label="x")
    return sorted(
        zip(
            snap.path_strings(),
            snap.uid.tolist(),
            snap.gid.tolist(),
            snap.atime.tolist(),
            snap.mtime.tolist(),
            snap.ctime.tolist(),
            snap.mode.tolist(),
            snap.stripe_count.tolist(),
        )
    )


def test_manual_trace_round_trip():
    fs = _fresh_fs()
    recorder = TraceRecorder(fs)
    d = fs.makedirs("/lustre/atlas1/cli/p/u", uid=5, gid=9)
    fs.setstripe(d, 16)
    inos = fs.create_many(d, [f"f{i}.nc" for i in range(20)], 5, 9,
                          timestamps=fs.clock.now + np.arange(20))
    fs.read_many(inos[:5], fs.clock.now + 500)
    fs.write_many(inos[5:8], fs.clock.now + 600)
    fs.chown(int(inos[0]), uid=6, gid=9)
    fs.unlink_many(d, ["f0.nc", "f1.nc"])
    sub = fs.mkdir(d, "sub", 5, 9)
    fs.create(sub, "single.dat", 5, 9, stripe_count=2)
    fs.rmdir(d, "sub") if False else None  # keep sub for the view

    replayed = _fresh_fs()
    applied = replay_trace(recorder.events, replayed)
    assert applied == len(recorder.events)
    assert _snapshot_view(replayed) == _snapshot_view(fs)


def test_lenient_replay_skips_a_bad_create_many_with_nothing_changed():
    """``strict=False`` replays outside input: a ``create_many`` event whose
    ``ts`` list is one short is skipped, and leaves no quota charged, no OST
    cursor moved and no inode number taken."""
    fs = _fresh_fs()
    d = fs.makedirs("/p/u", uid=1, gid=2)
    fs.create(d, "f0", 1, 2)
    before = (fs.quota.usage(2), fs.osts._cursor, fs.inodes.high_watermark,
              fs.entry_count)
    events = [
        {"op": "create_many", "dir": "/p/u", "names": ["a", "b", "c"],
         "uid": 1, "gid": 2, "ts": [10, 11], "stripe": 2},
        {"op": "create_many", "dir": "/p/u", "names": ["f0", "d"],
         "uid": 1, "gid": 2, "ts": 12, "stripe": 2},
    ]
    assert replay_trace(events, fs, strict=False) == 0
    assert (fs.quota.usage(2), fs.osts._cursor, fs.inodes.high_watermark,
            fs.entry_count) == before
    assert fs.create(d, "next", 1, 2) == before[2]


def test_trace_save_load_round_trip():
    fs = _fresh_fs()
    recorder = TraceRecorder(fs)
    d = fs.makedirs("/p/u", uid=1, gid=2)
    fs.create(d, "a.h5", 1, 2)
    buf = io.StringIO()
    n = recorder.save(buf)
    assert n == len(recorder.events)
    buf.seek(0)
    events = load_trace(buf)
    assert events == recorder.events


def test_trace_file_round_trip(tmp_path):
    fs = _fresh_fs()
    recorder = TraceRecorder(fs)
    d = fs.makedirs("/p", uid=1, gid=2)
    fs.create_many(d, ["x", "y"], 1, 2, timestamps=fs.clock.now)
    dest = tmp_path / "trace.jsonl"
    recorder.save(dest)
    events = load_trace(dest)
    replayed = _fresh_fs()
    replay_trace(events, replayed)
    assert _snapshot_view(replayed) == _snapshot_view(fs)


def test_replay_strict_raises_on_missing_path():
    events = [{"op": "read", "path": "/does/not/exist", "ts": 1}]
    with pytest.raises(Exception):
        replay_trace(events, _fresh_fs(), strict=True)
    assert replay_trace(events, _fresh_fs(), strict=False) == 0


def test_replay_rejects_unknown_op():
    with pytest.raises(ValueError):
        replay_trace([{"op": "teleport"}], _fresh_fs(), strict=True)


def test_simulated_workload_trace_round_trip():
    """A real multi-project workload replays to an identical namespace.

    The backlog ages out of the purge window within the run, so the purge
    sweep's batched unlinks are part of the trace, beside the workload's
    own creates, updates, reads and deletes.
    """
    pop = generate_population(seed=17)
    fs = _fresh_fs()
    recorder = TraceRecorder(fs)
    rng = np.random.default_rng(17)
    behaviors = build_behaviors(pop, n_weeks=4, scale=1e-6, rng=rng,
                                min_project_files=4, stress_depths=False)
    for b in behaviors:
        b.setup(fs)
        b.seed_backlog(fs, fs.clock.now, backlog_files=10, age_days=500)
    purge = PurgePolicy(window_days=90)
    purged = 0
    for week in range(4):
        for b in behaviors:
            b.step_week(fs, week, fs.clock.now)
        fs.clock.advance_days(7)
        purged += purge.sweep(fs).purged
        for b in behaviors:
            b.reconcile(fs)
    assert purged > 0
    assert any(e["op"] == "unlink_inodes" for e in recorder.events)

    replayed = _fresh_fs()
    replay_trace(recorder.events, replayed)
    assert _snapshot_view(replayed) == _snapshot_view(fs)
    assert replayed.entry_count == fs.entry_count


def test_recorder_refuses_an_unclassified_mutator():
    """A public method the recorder cannot classify must fail loudly, like
    ``attach_changelog`` does, instead of bypassing the trace."""

    class GrowingFileSystem(FileSystem):
        def truncate_all(self):  # pragma: no cover - never called
            pass

    with pytest.raises(RuntimeError, match="truncate_all"):
        TraceRecorder(GrowingFileSystem(ost_count=8))
