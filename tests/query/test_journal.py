"""Checkpoint-journal suite: durability, invalidation, and engine resume.

The journal's contract: restored rows are exactly the rows a completed run
would have produced; a journal from a *different* run (kernels, window, or
config changed) is discarded, never trusted; a torn or bit-flipped record
costs only its own snapshot.
"""

import json

import pytest

from repro.fs.filesystem import FileSystem
from repro.query.engine import TaskError
from repro.query.journal import KernelJournal
from repro.query.parallel import Kernel, SnapshotExecutor
from repro.scan.lustredu import LustreDuScanner
from repro.scan.snapshot import SnapshotCollection


def _build_collection(weeks=4, files_per_week=8):
    fs = FileSystem(ost_count=32, default_stripe=2, max_stripe=8)
    scanner = LustreDuScanner()
    coll = SnapshotCollection(scanner.paths)
    d = fs.makedirs("/lustre/atlas1/cli/p1/u1", uid=1, gid=1)
    for week in range(weeks):
        fs.create_many(
            d,
            [f"w{week}.f{i}.nc" for i in range(files_per_week)],
            1, 1, timestamps=fs.clock.now,
        )
        coll.append(scanner.scan(fs, label=f"w{week}"))
        fs.clock.advance_days(7)
    return coll


def _row_count(snapshot):
    return len(snapshot)


def _growth(prev, cur):
    return len(cur) - len(prev)


def _kernels():
    return [
        Kernel(name="rows", map_fn=_row_count, reduce_fn=list),
        Kernel(name="growth", map_fn=_growth, reduce_fn=list, pairwise=True),
    ]


# -- journal unit behavior ---------------------------------------------------


def test_append_then_load_round_trip(tmp_path):
    path = tmp_path / "ck.jsonl"
    labels = ["w0", "w1", "w2"]
    j = KernelJournal(path, kernels=["rows"], labels=labels)
    j.append(0, {"rows": 10})
    j.append(2, {"rows": 30})
    j.close()

    j2 = KernelJournal(path, kernels=["rows"], labels=labels)
    rows = j2.load()
    assert rows == {0: {"rows": 10}, 2: {"rows": 30}}
    assert j2.restored == 2 and j2.dropped == 0


def test_missing_journal_loads_empty(tmp_path):
    j = KernelJournal(tmp_path / "absent.jsonl", kernels=["rows"], labels=["w0"])
    assert j.load() == {}


@pytest.mark.parametrize(
    "change",
    [
        {"kernels": ["rows", "extra"]},
        {"labels": ["w0", "wX", "w2"]},
        {"labels": ["w0", "w1"]},
        {"fingerprint": {"config": {"seed": 99}}},
    ],
)
def test_fingerprint_mismatch_discards_with_warning(tmp_path, change):
    path = tmp_path / "ck.jsonl"
    base = {"kernels": ["rows"], "labels": ["w0", "w1", "w2"],
            "fingerprint": {"config": {"seed": 1}}}
    j = KernelJournal(path, **base)
    j.append(0, {"rows": 10})
    j.close()

    j2 = KernelJournal(path, **{**base, **change})
    with pytest.warns(RuntimeWarning, match="different run"):
        assert j2.load() == {}
    # the stale file is gone: the rerun starts a fresh journal
    assert not path.exists()


def test_torn_tail_drops_only_its_own_record(tmp_path):
    path = tmp_path / "ck.jsonl"
    labels = ["w0", "w1", "w2"]
    j = KernelJournal(path, kernels=["rows"], labels=labels)
    j.append(0, {"rows": 10})
    j.append(1, {"rows": 20})
    j.close()
    # simulate a crash mid-append: a truncated final line
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"index": 2, "crc32": 123, "data": "QUJ')

    j2 = KernelJournal(path, kernels=["rows"], labels=labels)
    rows = j2.load()
    assert rows == {0: {"rows": 10}, 1: {"rows": 20}}
    assert j2.dropped == 1


def test_bitflipped_record_dropped(tmp_path):
    path = tmp_path / "ck.jsonl"
    labels = ["w0", "w1"]
    j = KernelJournal(path, kernels=["rows"], labels=labels)
    j.append(0, {"rows": 10})
    j.append(1, {"rows": 20})
    j.close()
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["crc32"] ^= 0xFF  # payload no longer matches its checksum
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")

    j2 = KernelJournal(path, kernels=["rows"], labels=labels)
    assert j2.load() == {1: {"rows": 20}}
    assert j2.dropped == 1


def test_out_of_range_indices_ignored(tmp_path):
    path = tmp_path / "ck.jsonl"
    j = KernelJournal(path, kernels=["rows"], labels=["w0"])
    j.append(0, {"rows": 1})
    j.append(7, {"rows": 9})  # window shrank? index no longer valid
    j.close()
    j2 = KernelJournal(path, kernels=["rows"], labels=["w0"])
    assert j2.load() == {0: {"rows": 1}}


def test_discard_removes_file(tmp_path):
    path = tmp_path / "ck.jsonl"
    j = KernelJournal(path, kernels=["rows"], labels=["w0"])
    j.append(0, {"rows": 1})
    j.discard()
    assert not path.exists()
    j.discard()  # idempotent


# -- engine integration ------------------------------------------------------


def test_fused_pass_journals_every_snapshot(tmp_path):
    coll = _build_collection()
    path = tmp_path / "ck.jsonl"
    ex = SnapshotExecutor(1)
    journal = KernelJournal(path, kernels=["rows", "growth"],
                            labels=list(coll.labels))
    results = ex.run_kernels(coll, _kernels(), journal=journal)
    assert results["rows"] == [len(s) for s in coll]
    # meta line + one record per snapshot, all fsynced to disk
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + len(coll)
    assert json.loads(lines[0])["kind"] == "repro-kernel-journal"
    assert ex.last_stats.restored_tasks == 0


def test_resume_restores_completed_rows(tmp_path):
    coll = _build_collection()
    path = tmp_path / "ck.jsonl"
    labels = list(coll.labels)
    baseline = SnapshotExecutor(1).run_kernels(coll, _kernels())

    # a "crashed" first run: journal only the first two snapshots
    j = KernelJournal(path, kernels=["rows", "growth"], labels=labels)
    full = path  # run fully, then truncate the journal to 2 records
    ex = SnapshotExecutor(1)
    ex.run_kernels(coll, _kernels(), journal=j)
    lines = full.read_text().splitlines()
    full.write_text("\n".join(lines[:3]) + "\n")  # meta + rows 0,1

    ex2 = SnapshotExecutor(1)
    j2 = KernelJournal(path, kernels=["rows", "growth"], labels=labels)
    resumed = ex2.run_kernels(coll, _kernels(), journal=j2)
    assert resumed["rows"] == baseline["rows"]
    assert resumed["growth"] == baseline["growth"]
    assert ex2.last_stats.restored_tasks == 2
    assert ex2.last_stats.n_tasks == len(coll) - 2


def test_fully_journaled_run_executes_nothing(tmp_path):
    coll = _build_collection()
    path = tmp_path / "ck.jsonl"
    labels = list(coll.labels)
    kernels = _kernels()
    baseline = SnapshotExecutor(1).run_kernels(
        coll, kernels,
        journal=KernelJournal(path, kernels=["rows", "growth"], labels=labels),
    )
    ex = SnapshotExecutor(1)
    replay = ex.run_kernels(
        coll, kernels,
        journal=KernelJournal(path, kernels=["rows", "growth"], labels=labels),
    )
    assert replay == baseline
    assert ex.last_stats.restored_tasks == len(coll)
    assert "restored from checkpoint" in ex.last_stats.summary()


def test_journal_closed_even_when_pass_fails(tmp_path):
    coll = _build_collection()
    path = tmp_path / "ck.jsonl"

    rows = [len(s) for s in coll]

    def explode(snapshot):
        if len(snapshot) >= rows[2]:
            raise RuntimeError("rigged")
        return len(snapshot)

    j = KernelJournal(path, kernels=["boom"], labels=list(coll.labels))
    ex = SnapshotExecutor(1)
    with pytest.raises(TaskError):
        ex.run_kernels(
            coll, [Kernel(name="boom", map_fn=explode, reduce_fn=list)],
            journal=j,
        )
    assert j._fh is None  # closed by the engine's finally
    # the completed prefix survived for the next run
    j2 = KernelJournal(path, kernels=["boom"], labels=list(coll.labels))
    assert set(j2.load()) == {0, 1}

