"""Ingestor suite: policies, sidecars, determinism, resume, wiring."""

import gzip
import json
import warnings

import pytest

from repro.core.runcontrol import RunController, RunInterrupted
from repro.ingest import IngestConfig, ValidationLimits, ingest_file, ingest_trace
from repro.ingest.ingestor import plan_sources
from repro.scan.columnar import read_columnar, read_columnar_header, write_columnar
from repro.scan.errors import CorruptSnapshotError, IngestRecordError
from repro.scan.paths import PathTable


def _rec(path, a=1420000000, c=1419000000, m=1419500000, uid=10, gid=20,
         mode="100644", ino=1, ost="3:1a"):
    return f"{path}|{a}|{c}|{m}|{uid}|{gid}|{mode}|{ino}|{ost}"


def _write_trace(path, lines):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def traces(tmp_path):
    src = tmp_path / "traces"
    good = [_rec(f"/s/p/u/f{i}.dat", ino=i + 1, c=1419000000 + i)
            for i in range(50)]
    bad = ["garbage", _rec("/s/p/u/badmode", mode="xyz", ino=99)]
    _write_trace(src / "20150105.psv", good + bad)
    with gzip.open(src / "20150112.psv.gz", "wt") as fh:
        fh.write("\n".join(
            _rec(f"/s/p/u/g{i}.dat", ino=i + 1) for i in range(30)) + "\n")
    return src


def test_quarantine_policy_writes_sidecar_and_conserves_counts(traces, tmp_path):
    out = tmp_path / "arch"
    result = ingest_trace(traces, out)
    by_src = {f.source: f for f in result.report.files}
    f1 = by_src["20150105.psv"]
    assert (f1.lines, f1.rows, f1.rejected) == (52, 50, 2)
    assert f1.rows + f1.rejected == f1.lines
    assert f1.sidecar == "20150105.bad"
    entries = [json.loads(line)
               for line in (out / "20150105.bad").read_text().splitlines()]
    assert entries[0]["kind"] == "repro-ingest-sidecar"
    assert {e["field"] for e in entries[1:]} == {"record", "mode"}
    assert all("line" in e and "reason" in e for e in entries[1:])
    # the clean gzip source gets no sidecar
    assert by_src["20150112.psv.gz"].sidecar is None
    assert not (out / "20150112.bad").exists()


def test_skip_policy_counts_but_writes_no_sidecar(traces, tmp_path):
    out = tmp_path / "arch"
    result = ingest_trace(traces, out, IngestConfig(on_error="skip"))
    f1 = {f.source: f for f in result.report.files}["20150105.psv"]
    assert f1.rejected == 2
    assert f1.sidecar is None
    assert not (out / "20150105.bad").exists()


def test_raise_policy_stops_at_first_bad_record(traces, tmp_path):
    with pytest.raises(IngestRecordError) as exc:
        ingest_trace(traces, tmp_path / "arch", IngestConfig(on_error="raise"))
    assert exc.value.field == "record"
    assert exc.value.line == 51


def test_archive_round_trips_values(traces, tmp_path):
    out = tmp_path / "arch"
    ingest_trace(traces, out)
    snap = read_columnar(out / "20150105.rpq", PathTable())
    assert len(snap) == 50
    assert snap.label == "20150105"
    row = {snap.paths.path_of(int(snap.path_id[i])): i for i in range(len(snap))}
    i = row["/s/p/u/f7.dat"]
    assert snap.ino[i] == 8
    assert snap.atime[i] == 1420000000
    assert snap.stripe_count[i] == 1 and snap.stripe_start[i] == 3


def test_outputs_and_sidecars_are_deterministic(traces, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    ra = ingest_trace(traces, a)
    rb = ingest_trace(traces, b)
    for name in ("20150105.rpq", "20150112.rpq", "20150105.bad"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    assert [f.sidecar_crc32 for f in ra.report.files] == \
        [f.sidecar_crc32 for f in rb.report.files]


def test_ingest_writes_delta_sidecar_chain(traces, tmp_path):
    from repro.scan.delta import read_delta, sidecar_path

    out = tmp_path / "arch"
    ingest_trace(traces, out)
    # one .rpd per snapshot after the first, linking archive order
    assert not sidecar_path(out, "20150105").exists()
    dest = sidecar_path(out, "20150112")
    assert dest.exists()
    delta = read_delta(dest, PathTable())
    assert delta.prev_label == "20150105"
    assert delta.cur_label == "20150112"
    # disjoint path sets: everything removed, everything added
    assert delta.added["path_id"].size == 30
    assert delta.removed["path_id"].size == 50
    manifest = json.loads((out / "manifest.json").read_text())
    assert "deltas" in manifest


def test_ingested_archive_supports_incremental_analysis(traces, tmp_path):
    """The sidecar chain is good enough for analyze_archive(incremental):
    bootstrap journals state, the second run replays deltas with zero
    snapshot loads and byte-identical output."""
    from repro.core.pipeline import analyze_archive
    from repro.query.parallel import SnapshotExecutor

    out = tmp_path / "arch"
    ingest_trace(traces, out)
    analyses = "census,access,growth,ages"
    _, expected = analyze_archive(out, analyses=analyses)
    analyze_archive(out, analyses=analyses, incremental=True)
    # nothing appended: state readout, but the chain must already verify
    executor = SnapshotExecutor(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pipeline, report = analyze_archive(
            out, analyses=analyses, executor=executor, incremental=True
        )
    assert report.text == expected.text


def test_timestamp_from_datestamped_name(traces, tmp_path):
    result = ingest_trace(traces, tmp_path / "arch")
    ts = {f.label: f.timestamp for f in result.report.files}
    assert ts["20150105"] == 1420416000  # 2015-01-05T00:00Z
    assert ts["20150112"] == 1421020800


def test_timestamp_falls_back_to_max_ctime(tmp_path):
    src = _write_trace(
        tmp_path / "t" / "weekly-dump.psv",
        [_rec("/s/a", ino=1, c=111), _rec("/s/b", ino=2, c=999)],
    )
    result = ingest_trace(src, tmp_path / "arch")
    assert result.report.files[0].timestamp == 999
    assert result.report.files[0].label == "weekly-dump"


def test_gzip_corruption_is_a_file_fault_not_partial_rows(tmp_path):
    src = tmp_path / "t"
    src.mkdir()
    _write_trace(src / "ok.psv", [_rec("/s/a", ino=1)])
    blob = bytearray(gzip.compress(
        ("\n".join(_rec(f"/s/g{i}", ino=i + 1) for i in range(500)) + "\n"
         ).encode()))
    blob[len(blob) // 2] ^= 0xFF
    (src / "broken.psv.gz").write_bytes(bytes(blob))

    out = tmp_path / "arch"
    with pytest.warns(RuntimeWarning, match="skipped"):
        result = ingest_trace(src, out)
    assert len(result.report.faults) == 1
    assert "gzip" in result.report.faults[0].reason
    assert not (out / "broken.rpq").exists()  # no torn partial output
    assert (out / "ok.rpq").exists()
    assert result.report.degraded

    with pytest.raises(CorruptSnapshotError):
        ingest_trace(src, tmp_path / "arch2", IngestConfig(on_error="raise"))


def test_all_records_bad_is_a_file_fault(tmp_path):
    src = tmp_path / "t"
    _write_trace(src / "junk.psv", ["x", "y", "z"])
    _write_trace(src / "ok.psv", [_rec("/s/a", ino=1)])
    with pytest.warns(RuntimeWarning, match="no valid records"):
        result = ingest_trace(src, tmp_path / "arch")
    assert [f.path.endswith("junk.psv") for f in result.report.faults] == [True]


def test_every_source_faulted_raises(tmp_path):
    src = tmp_path / "t"
    _write_trace(src / "junk.psv", ["x"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(CorruptSnapshotError, match="no usable snapshots"):
            ingest_trace(src, tmp_path / "arch")


def test_max_bad_records_aborts_the_file(tmp_path):
    src = tmp_path / "t"
    lines = [_rec(f"/s/f{i}", ino=i + 1) for i in range(10)] + ["junk"] * 5
    _write_trace(src / "noisy.psv", lines)
    config = IngestConfig(max_bad_records=2)
    with pytest.raises(CorruptSnapshotError, match="max-bad-records"):
        ingest_file(src / "noisy.psv", tmp_path / "arch", config)


def test_max_bad_ratio_aborts_fast(tmp_path):
    src = tmp_path / "t"
    lines = []
    for i in range(200):
        lines.append(_rec(f"/s/f{i}", ino=i + 1))
        lines.append(f"junk {i}")
    _write_trace(src / "half-bad.psv", lines)
    config = IngestConfig(max_bad_ratio=0.1, chunk_records=64)
    with pytest.raises(CorruptSnapshotError, match="max-bad-ratio"):
        ingest_file(src / "half-bad.psv", tmp_path / "arch", config)


def test_plan_sources_rejects_label_collision(tmp_path):
    src = tmp_path / "t"
    _write_trace(src / "a.psv", [_rec("/s/x", ino=1)])
    with gzip.open(src / "a.psv.gz", "wt") as fh:
        fh.write(_rec("/s/y", ino=2) + "\n")
    with pytest.raises(ValueError, match="label"):
        plan_sources(src)


def test_plan_sources_missing_and_empty(tmp_path):
    with pytest.raises(FileNotFoundError):
        plan_sources(tmp_path / "nope.psv")
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(FileNotFoundError, match="no trace files"):
        plan_sources(empty)


def test_manifest_carries_ingest_provenance(traces, tmp_path):
    out = tmp_path / "arch"
    ingest_trace(traces, out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["ingest"]["rejected"] == 2
    assert manifest["ingest"]["on_error"] == "quarantine"
    assert sorted(manifest["ingest"]["sources"]) == [
        "20150105.psv", "20150112.psv.gz"]
    assert {s["label"] for s in manifest["snapshots"]} == {
        "20150105", "20150112"}


def test_config_validation():
    with pytest.raises(ValueError, match="on_error"):
        IngestConfig(on_error="explode")
    with pytest.raises(ValueError):
        IngestConfig(chunk_records=0)
    with pytest.raises(ValueError):
        IngestConfig(max_bad_ratio=1.5)


def test_ost_limits_flow_through(tmp_path):
    src = _write_trace(tmp_path / "t" / "d.psv", [
        _rec("/s/a", ino=1, ost="3:1a"),
        _rec("/s/b", ino=2, ost="63:1a"),
        _rec("/s/c", ino=3, ost="64:1a"),  # out of range for 64 OSTs
    ])
    config = IngestConfig(limits=ValidationLimits(ost_count=64))
    result = ingest_trace(src, tmp_path / "arch", config)
    f = result.report.files[0]
    assert (f.rows, f.rejected) == (2, 1)
    assert f.by_field == {"ost": 1}


def test_interrupt_between_files_then_resume_is_byte_identical(traces, tmp_path):
    fresh = tmp_path / "fresh"
    ingest_trace(traces, fresh)

    out = tmp_path / "arch"
    journal = tmp_path / "ck.jsonl"
    clock = {"t": 0.0}

    def fake_clock():
        # checks land at t=40 (pre-file-0), t=60 (file 0's one chunk),
        # t=80 (pre-file-1, >= the t=20+60 deadline): file 0 completes and
        # is journaled, file 1 never starts
        clock["t"] += 20.0
        return clock["t"]

    controller = RunController(max_seconds=60, clock=fake_clock)
    with pytest.raises(RunInterrupted) as exc:
        ingest_trace(traces, out, checkpoint=journal, controller=controller)
    assert "--checkpoint" in exc.value.resume_hint
    assert journal.exists()

    result = ingest_trace(traces, out, checkpoint=journal)
    assert result.report.resumed >= 1
    resumed = [f for f in result.report.files if f.resumed]
    assert resumed and all(f.rows > 0 for f in resumed)
    for name in ("20150105.rpq", "20150112.rpq", "20150105.bad"):
        assert (out / name).read_bytes() == (fresh / name).read_bytes(), name
    assert not journal.exists()  # success cleans up


def test_resume_reingests_when_output_was_damaged(traces, tmp_path):
    out = tmp_path / "arch"
    journal = tmp_path / "ck.jsonl"
    clock = {"t": 0.0}

    def fake_clock():
        clock["t"] += 20.0
        return clock["t"]

    with pytest.raises(RunInterrupted):
        ingest_trace(traces, out, checkpoint=journal,
                     controller=RunController(max_seconds=60, clock=fake_clock))
    # damage the journaled output behind the journal's back
    victim = out / "20150105.rpq"
    victim.write_bytes(victim.read_bytes()[:64])
    result = ingest_trace(traces, out, checkpoint=journal)
    assert result.report.resumed == 0  # stale output re-ingested, not trusted
    snap = read_columnar(victim, PathTable())
    assert len(snap) == 50


def test_uninterrupted_run_leaves_no_journal(traces, tmp_path):
    journal = tmp_path / "ck.jsonl"
    ingest_trace(traces, tmp_path / "arch", checkpoint=journal)
    assert not journal.exists()


def test_memory_budget_shrinks_chunks_and_reports_peak(traces, tmp_path):
    controller = RunController(memory_budget="2M")
    result = ingest_trace(traces, tmp_path / "arch", controller=controller)
    assert result.report.peak_resident_bytes > 0
    assert result.report.peak_resident_bytes < 2 << 20


def test_ingest_report_folds_into_archive_health(traces, tmp_path):
    from repro.core.pipeline import analyze_archive

    out = tmp_path / "arch"
    result = ingest_trace(traces, out)
    with pytest.warns(RuntimeWarning, match="DEGRADED"):
        pipeline, report = analyze_archive(
            out, analyses="growth", ingest_report=result.report,
            allow_config_mismatch=True,
        )
    health = pipeline.context.collection.health_report()
    assert health.degraded
    assert health.ingest is result.report
    assert "rejected" in health.summary()
    assert "FIGURE 15" in report.text


def test_path_raw_bytes_count_characters_like_every_writer(tmp_path):
    """A ``strtab-zlib`` path table's ``raw_bytes`` is its joined text's
    length in characters whichever writer made it, non-ASCII names
    included: the ingest, and every flat writer before the tree codec
    (the oracle's ``strtab`` rewrite reproduces theirs).  A ``tree-zlib``
    table records its inflated stream's bytes."""
    from repro.testing.oracle import rewrite_as_strtab

    names = ["/s/p/u/données.nc", "/s/p/u/日本.h5"]
    src = _write_trace(tmp_path / "traces" / "20150105.psv",
                       [_rec(name, ino=i + 1) for i, name in enumerate(names)])
    ingest_file(src, tmp_path / "arch")
    ingested = tmp_path / "arch" / "20150105.rpq"
    rewritten = tmp_path / "rewritten.rpq"
    write_columnar(read_columnar(ingested, PathTable()), rewritten)
    flat = tmp_path / "flat.rpq"
    rewrite_as_strtab(rewritten, flat)

    def path_raw_bytes(f):
        (meta,) = [c for c in read_columnar_header(f)["columns"]
                   if c["name"] == "__paths__"]
        return meta["raw_bytes"]

    assert path_raw_bytes(ingested) == path_raw_bytes(flat) == len("\n".join(names))
    # two int32 parent rows (neither parent is a row), then the full paths
    assert path_raw_bytes(rewritten) == 8 + len("\n".join(names).encode("utf-8"))
