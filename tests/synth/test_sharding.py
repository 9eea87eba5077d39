"""Sharded synthesis: partition determinism, merge validation, byte-identity.

The guarantee under test: for a *fixed shard count*, the merged archive is
byte-identical regardless of worker count, scheduling order, or crash
history — the shard plan (not the execution) determines every byte.  The
merge is fenced like any publish: every part is CRC-probed before a single
merged file is written, corrupt parts surface typed errors or whole-shard
quarantine, and garbage rows never reach the merged archive.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.core.pipeline import analyze_archive
from repro.core.manifest import load_manifest
from repro.scan.columnar import read_columnar, write_columnar
from repro.scan.errors import CorruptSnapshotError
from repro.scan.merge import (
    INO_STRIDE,
    merge_shard_parts,
    probe_shard_parts,
    shard_part_path,
    write_shard_part,
)
from repro.scan.paths import PathTable
from repro.scan.store import ArchiveHealthReport
from repro.synth.driver import SimulationConfig, scan_labels
from repro.synth.population import generate_population
from repro.synth.sharding import ShardPlan, run_sharded, simulate_shard
from repro.testing.faults import bit_flip, truncate_at

CONFIG = SimulationConfig(
    seed=2015,
    scale=1.5e-6,
    weeks=4,
    min_project_files=4,
    stress_depths=False,
)
N_SHARDS = 3


def archive_digest(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(directory).glob("*.rpq"))
        + sorted(Path(directory).glob("*.rpd"))
    }


@pytest.fixture(scope="module")
def baseline(tmp_path_factory) -> tuple[Path, dict[str, str]]:
    """The inline (workers=0) run every execution must reproduce exactly."""
    out = tmp_path_factory.mktemp("shard-baseline") / "archive"
    run_sharded(CONFIG, N_SHARDS, out, workers=0)
    return out, archive_digest(out)


def test_plan_is_a_stable_partition() -> None:
    plan = ShardPlan(config=CONFIG, n_shards=4)
    population = generate_population(seed=CONFIG.seed, n_users=CONFIG.n_users)
    shards = [plan.project_gids(population, s) for s in range(4)]
    union: set[int] = set()
    for gids in shards:
        assert not union & gids  # disjoint
        union |= gids
    assert union == set(population.projects)
    # stable: recomputing yields the same assignment
    again = ShardPlan(config=CONFIG, n_shards=4)
    for gid in population.projects:
        assert plan.shard_of_gid(gid) == again.shard_of_gid(gid)


def test_plan_validates_shard_count() -> None:
    with pytest.raises(ValueError):
        ShardPlan(config=CONFIG, n_shards=0)


def test_shard_rng_substreams_are_independent_of_workers() -> None:
    plan = ShardPlan(config=CONFIG, n_shards=4)
    draws = [plan.shard_rng(s).integers(2**63) for s in range(4)]
    assert len(set(draws)) == 4
    assert [plan.shard_rng(s).integers(2**63) for s in range(4)] == draws


def test_worker_count_invariance(tmp_path, baseline) -> None:
    """N=1 vs N=8 workers: merged archives byte-identical to inline."""
    _, want = baseline
    for workers in (1, 8):
        out = tmp_path / f"w{workers}"
        result = run_sharded(CONFIG, N_SHARDS, out, workers=workers)
        assert result.stats.completed == N_SHARDS
        assert archive_digest(out) == want, f"workers={workers}"


def test_resume_skips_already_written_weeks(tmp_path, baseline) -> None:
    _, want = baseline
    parts_root = tmp_path / "parts"
    plan = ShardPlan(config=CONFIG, n_shards=N_SHARDS)
    population = generate_population(seed=CONFIG.seed, n_users=CONFIG.n_users)
    first = simulate_shard(plan, population, 0, parts_root)
    labels = plan.labels()
    before = {
        label: shard_part_path(parts_root, 0, label).stat().st_mtime_ns
        for label in labels
    }
    # a second attempt must not rewrite any journaled week
    second = simulate_shard(plan, population, 0, parts_root, attempt=2)
    assert second == first
    for label in labels:
        path = shard_part_path(parts_root, 0, label)
        assert path.stat().st_mtime_ns == before[label], label
    # a deleted part (journal intact) is re-created byte-identically
    victim = shard_part_path(parts_root, 0, labels[-1])
    original = victim.read_bytes()
    victim.unlink()
    simulate_shard(plan, population, 0, parts_root, attempt=3)
    assert victim.read_bytes() == original


def test_parts_of_an_older_build_are_resimulated(tmp_path, baseline, monkeypatch) -> None:
    """Journals without the part format, beside parts without shard-local
    ids — what a build before the id block left — are discarded on
    resume: each shard is re-simulated and its parts rewritten, so the
    merge takes them instead of quarantining every shard."""
    from repro.synth import sharding

    _, want = baseline
    plan = ShardPlan(config=CONFIG, n_shards=N_SHARDS)
    population = generate_population(seed=CONFIG.seed, n_users=CONFIG.n_users)
    parts_root = tmp_path / "parts"
    shards = list(range(N_SHARDS))
    fingerprint = ShardPlan.fingerprint

    def older(self, shard):
        return {k: v for k, v in fingerprint(self, shard).items() if k != "part_format"}

    with monkeypatch.context() as patch:
        patch.setattr(ShardPlan, "fingerprint", older)
        patch.setattr(sharding, "write_shard_part", write_columnar)
        for shard in shards:
            simulate_shard(plan, population, shard, parts_root)
    with pytest.raises(CorruptSnapshotError, match="no 'path_id' block"):
        probe_shard_parts(parts_root, plan.labels(), shards)
    with pytest.warns(RuntimeWarning, match="different run"):
        for shard in shards:
            simulate_shard(plan, population, shard, parts_root)
    merge_shard_parts(parts_root, tmp_path / "merged", CONFIG, plan.labels(), shards)
    assert archive_digest(tmp_path / "merged") == want


def test_merged_ino_spaces_do_not_collide(baseline) -> None:
    out, _ = baseline
    labels = scan_labels(CONFIG)
    snap = read_columnar(out / f"{labels[-1]}.rpq", PathTable())
    assert len(np.unique(snap.ino)) == len(snap.ino)
    shards_seen = np.unique(snap.ino // INO_STRIDE)
    assert len(shards_seen) == N_SHARDS


def test_merge_dedupes_shared_structure(baseline) -> None:
    out, _ = baseline
    labels = scan_labels(CONFIG)
    table = PathTable()
    snap = read_columnar(out / f"{labels[0]}.rpq", table)
    # path_ids are unique after the keep-first dedupe
    assert len(np.unique(snap.path_id)) == len(snap.path_id)
    paths = table.paths_of(snap.path_id[:50])
    assert any(p == "/lustre" for p in paths)
    # each directory several shards hold appears once, with the inode of
    # the lowest shard holding it
    merged = dict(zip(table.paths_of(snap.path_id), snap.ino.tolist()))
    assert len(merged) == len(snap)
    holders: dict[str, list[tuple[int, int]]] = {}
    for shard in range(N_SHARDS):
        part = read_columnar(shard_part_path(out / "parts", shard, labels[0]), PathTable())
        for path, ino in zip(part.path_strings(), part.ino.tolist()):
            holders.setdefault(path, []).append((shard, ino))
    shared = {path: min(held) for path, held in holders.items() if len(held) > 1}
    assert "/lustre" in shared
    for path, (shard, ino) in shared.items():
        assert merged[path] == shard * INO_STRIDE + ino, path


def test_merge_probe_raises_typed_on_corruption(tmp_path, baseline) -> None:
    src, _ = baseline
    parts_root = src / "parts"
    labels = scan_labels(CONFIG)
    victim = shard_part_path(parts_root, 1, labels[1])
    blob = victim.read_bytes()
    try:
        bit_flip(victim, len(blob) // 2)
        with pytest.raises(CorruptSnapshotError):
            merge_shard_parts(
                parts_root,
                tmp_path / "merged",
                CONFIG,
                labels,
                list(range(N_SHARDS)),
            )
    finally:
        victim.write_bytes(blob)


def _damage_sweep(victim: Path, blob: bytes) -> list:
    """``(name, damage)`` pairs, each corrupting ``victim`` (pristine
    bytes ``blob``) one way."""
    return [
        ("bitflip-mid", lambda: bit_flip(victim, len(blob) // 2)),
        ("truncate", lambda: truncate_at(victim, len(blob) // 3)),
        ("missing", victim.unlink),
    ]


def test_merge_quarantines_corrupt_shard_never_garbage(
    tmp_path, baseline
) -> None:
    """Corruption sweep: every damaged part drops its shard, typed + recorded.

    The merged archive must stay fully readable (never garbage rows) and
    contain only the surviving shards' namespaces.
    """
    src, _ = baseline
    parts_root = src / "parts"
    labels = scan_labels(CONFIG)
    victim = shard_part_path(parts_root, 2, labels[-1])
    blob = victim.read_bytes()
    try:
        for name, damage in _damage_sweep(victim, blob):
            victim.write_bytes(blob)
            damage()
            report = ArchiveHealthReport()
            out = tmp_path / f"merged-{name}"
            records = merge_shard_parts(
                parts_root,
                out,
                CONFIG,
                labels,
                list(range(N_SHARDS)),
                on_error="skip",
                report=report,
            )
            assert report.degraded, name
            assert any(
                "shard 2 dropped from merge" in f.reason for f in report.faults
            ), name
            # the merged window is complete and fully CRC-clean
            assert [rec["label"] for rec in records] == labels
            table = PathTable()
            for label in labels:
                snap = read_columnar(out / f"{label}.rpq", table)
                shards_seen = set(np.unique(snap.ino // INO_STRIDE).tolist())
                assert shards_seen == {0, 1}, name
            manifest = load_manifest(out)
            assert manifest["sharding"]["merged_shards"] == [0, 1], name
    finally:
        victim.write_bytes(blob)


def test_probe_interns_nothing(baseline, monkeypatch) -> None:
    """The probe checks every block without interning a single path: with
    interning disabled, each damage in the corruption sweep still drops
    shard 2 and keeps the others."""
    src, _ = baseline
    parts_root = src / "parts"
    labels = scan_labels(CONFIG)
    victim = shard_part_path(parts_root, 2, labels[-1])
    blob = victim.read_bytes()

    def refuse(self, paths):
        raise AssertionError("the probe interned paths")

    monkeypatch.setattr(PathTable, "intern_many", refuse)
    try:
        for name, damage in _damage_sweep(victim, blob):
            victim.write_bytes(blob)
            damage()
            report = ArchiveHealthReport()
            good = probe_shard_parts(
                parts_root, labels, list(range(N_SHARDS)),
                on_error="skip", report=report,
            )
            assert good == [0, 1], name
            [fault] = report.faults
            assert fault.path == str(victim), name
    finally:
        victim.write_bytes(blob)


def test_merge_names_the_disagreeing_part(tmp_path, baseline) -> None:
    """A part whose timestamp disagrees with its siblings is reported by
    its own path under the parts root, not a cwd-relative guess."""
    src, _ = baseline
    parts_root = src / "parts"
    labels = scan_labels(CONFIG)
    victim = shard_part_path(parts_root, 1, labels[1])
    blob = victim.read_bytes()
    part = read_columnar(victim, PathTable())
    part.timestamp += 1
    try:
        write_shard_part(part, victim)
        with pytest.raises(CorruptSnapshotError, match="disagrees") as err:
            merge_shard_parts(
                parts_root, tmp_path / "merged", CONFIG, labels,
                list(range(N_SHARDS)),
            )
        assert err.value.path == str(victim)
    finally:
        victim.write_bytes(blob)


def test_probe_all_shards_bad_raises(tmp_path, baseline) -> None:
    src, _ = baseline
    parts_root = src / "parts"
    labels = scan_labels(CONFIG)
    report = ArchiveHealthReport()
    good = probe_shard_parts(
        parts_root, labels, [99], on_error="skip", report=report
    )
    assert good == []
    with pytest.raises(CorruptSnapshotError, match="no healthy shard"):
        merge_shard_parts(
            parts_root, tmp_path / "m", CONFIG, labels, [99], on_error="skip"
        )


def test_manifest_carries_sharding_provenance(baseline) -> None:
    out, _ = baseline
    manifest = load_manifest(out)
    assert manifest["generation"] >= 1
    sharding = manifest["sharding"]
    assert sharding["n_shards"] == N_SHARDS
    assert sharding["merged_shards"] == list(range(N_SHARDS))
    assert sharding["quarantined"] == []
    assert sharding["ino_stride"] == INO_STRIDE


def test_merged_archive_analyzes_and_replays_deltas(baseline) -> None:
    out, _ = baseline
    _, full = analyze_archive(out, CONFIG, analyses="census,growth")
    _, incremental = analyze_archive(
        out, CONFIG, analyses="census,growth", incremental=True
    )
    assert incremental.text == full.text
    assert full.text
