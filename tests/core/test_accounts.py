"""The archive's accounts member: exact, the only population source, upgradable.

Three contracts:

* the member round-trips the population exactly — ``==``, the same dict
  order, the same order in every list — and its bytes are deterministic;
* an archive that carries the member never regenerates the population:
  with ``generate_population`` patched to raise everywhere, every reader
  route (full, incremental append + replay, service warm, follower swap,
  sharded merge) still completes and matches the regenerated-population
  report;
* an archive written before the member existed (``.psv`` files beside
  the ``.rpq``/``.rpd``, no member) analyzes silently and byte-identically,
  and one ``skip_existing`` append upgrades it in place — the member and
  the new week land, nothing else is rewritten, no ``.psv`` is written.
"""

import json
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accounts import ACCOUNTS_NAME, read_accounts, write_accounts
from repro.core.manifest import MANIFEST_NAME, load_manifest
from repro.core.pipeline import ReproPipeline, analyze_archive
from repro.scan.psv import write_psv
from repro.serve.follower import ArchiveFollower
from repro.serve.service import ArchiveService
from repro.synth import population as population_module
from repro.synth.driver import SimulationConfig
from repro.synth.population import generate_population
from repro.synth.sharding import run_sharded

TINY = SimulationConfig(
    seed=47, scale=1.5e-6, weeks=5, min_project_files=4, stress_depths=False
)
DELTA_ANALYSES = "census,access,growth,users,ages,depth"
SHARDED = SimulationConfig(
    seed=2015, scale=1.5e-6, weeks=3, min_project_files=4, stress_depths=False
)


def _assert_same_population(back, pop):
    assert back == pop
    assert back.seed == pop.seed
    assert list(back.users) == list(pop.users)
    assert list(back.projects) == list(pop.projects)
    for uid, user in pop.users.items():
        assert back.users[uid].projects == user.projects
    for gid, project in pop.projects.items():
        assert back.projects[gid].members == project.members


def _round_trip(pop):
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        record = write_accounts(a, pop)
        write_accounts(b, pop)
        body = (Path(a) / ACCOUNTS_NAME).read_bytes()
        assert body == (Path(b) / ACCOUNTS_NAME).read_bytes()
        assert record["bytes"] == len(body)
        assert (record["users"], record["projects"]) == (
            len(pop.users), len(pop.projects)
        )
        return read_accounts(a, record)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n_users=st.integers(1, 600))
def test_member_round_trips_the_population_exactly(seed, n_users):
    pop = generate_population(seed=seed, n_users=n_users)
    _assert_same_population(_round_trip(pop), pop)


def test_member_round_trips_20k_users():
    pop = generate_population(seed=3, n_users=20_000)
    _assert_same_population(_round_trip(pop), pop)


def test_reuse_leaves_a_matching_member_alone(tmp_path):
    pop = generate_population(seed=5, n_users=200)
    record = write_accounts(tmp_path, pop)
    member = tmp_path / ACCOUNTS_NAME
    stamp = (member.stat().st_ino, member.stat().st_mtime_ns)
    assert write_accounts(tmp_path, pop, reuse=record) == record
    assert (member.stat().st_ino, member.stat().st_mtime_ns) == stamp
    # a damaged member no longer matches its record: it is rewritten whole
    member.write_bytes(member.read_bytes()[:-1])
    assert write_accounts(tmp_path, pop, reuse=record) == record
    _assert_same_population(read_accounts(tmp_path, record), pop)


# -- the member is the only population source ------------------------------


@pytest.fixture(scope="module")
def sim():
    pipeline = ReproPipeline(TINY)
    pipeline.simulate()
    return pipeline


@pytest.fixture(scope="module")
def n_weeks(sim):
    return len(list(sim.simulation.collection))


def _strip_member(directory):
    """Rewrite ``directory`` into the layout archives had before the member."""
    (directory / ACCOUNTS_NAME).unlink()
    path = directory / MANIFEST_NAME
    manifest = json.loads(path.read_text())
    del manifest["accounts"]
    path.write_text(json.dumps(manifest, indent=2) + "\n")


def _regenerated_text(directory, tmp_path, config, analyses=DELTA_ANALYSES):
    """The report of ``directory`` joined against a regenerated population."""
    legacy = tmp_path / "regenerated"
    shutil.copytree(directory, legacy)
    (legacy / "kernel_state.bin").unlink(missing_ok=True)
    _strip_member(legacy)
    _, report = analyze_archive(legacy, config=config, analyses=analyses)
    return report.text


@pytest.fixture
def no_regeneration(monkeypatch):
    """Make ``generate_population`` raise in its module and every alias."""
    original = population_module.generate_population

    def refuse(*args, **kwargs):
        raise AssertionError("generate_population called on a member archive")

    for module in list(sys.modules.values()):
        if getattr(module, "generate_population", None) is original:
            monkeypatch.setattr(module, "generate_population", refuse)


def test_full_analysis_reads_only_the_member(sim, tmp_path, request):
    directory = tmp_path / "archive"
    sim.archive(directory)
    expected = _regenerated_text(directory, tmp_path, TINY)
    request.getfixturevalue("no_regeneration")
    _, report = analyze_archive(directory, config=TINY, analyses=DELTA_ANALYSES)
    assert report.text == expected


def test_incremental_append_and_replay_read_only_the_member(
    sim, n_weeks, tmp_path, request
):
    full = tmp_path / "full"
    sim.archive(full)
    expected = _regenerated_text(full, tmp_path, TINY)
    request.getfixturevalue("no_regeneration")
    directory = tmp_path / "archive"
    sim.archive(directory, max_snapshots=n_weeks - 1)
    analyze_archive(
        directory, config=TINY, analyses=DELTA_ANALYSES, incremental=True
    )
    sim.archive(directory, max_snapshots=n_weeks, skip_existing=True)
    pipeline, report = analyze_archive(
        directory, config=TINY, analyses=DELTA_ANALYSES, incremental=True
    )
    assert report.text == expected
    assert pipeline.executor.stats.delta_kernels > 0


def test_service_warm_and_follower_swap_read_only_the_member(
    sim, n_weeks, tmp_path, request
):
    full = tmp_path / "full"
    sim.archive(full)
    expected = _regenerated_text(full, tmp_path, TINY)
    request.getfixturevalue("no_regeneration")
    directory = tmp_path / "archive"
    sim.archive(directory, max_snapshots=n_weeks - 1)
    service = ArchiveService(
        directory, config=TINY, analyses=DELTA_ANALYSES, incremental=True
    )
    service.warm()
    assert service.generation == 1
    follower = ArchiveFollower(service, poll_interval_s=60.0)
    sim.archive(directory, max_snapshots=n_weeks, skip_existing=True)
    assert follower.poll_once() == "swapped"
    assert service.report_text().decode() == expected


def test_sharded_merge_lists_the_member(tmp_path, request):
    out = tmp_path / "merged"
    run_sharded(SHARDED, 2, out, workers=0)
    record = load_manifest(out)["accounts"]
    _assert_same_population(
        read_accounts(out, record),
        generate_population(seed=SHARDED.seed, n_users=SHARDED.n_users),
    )
    expected = _regenerated_text(out, tmp_path, SHARDED, analyses="census,users")
    request.getfixturevalue("no_regeneration")
    _, report = analyze_archive(out, config=SHARDED, analyses="census,users")
    assert report.text == expected


# -- archives written before the member existed -----------------------------


def _legacy_archive(sim, directory, n):
    """The pre-member layout: ``.psv`` beside every ``.rpq``, no member."""
    sim.archive(directory, max_snapshots=n)
    _strip_member(directory)
    for snap in list(sim.simulation.collection)[:n]:
        write_psv(
            snap, directory / f"{snap.label}.psv", ost_count=TINY.ost_count
        )


def test_legacy_archive_analyzes_silently_and_identically(sim, tmp_path):
    current = tmp_path / "current"
    sim.archive(current)
    _, expected = analyze_archive(current, config=TINY, analyses=DELTA_ANALYSES)
    legacy = tmp_path / "legacy"
    _legacy_archive(sim, legacy, len(list(sim.simulation.collection)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, report = analyze_archive(legacy, config=TINY, analyses=DELTA_ANALYSES)
    assert report.text == expected.text


def test_append_upgrades_a_legacy_archive_in_place(sim, n_weeks, tmp_path):
    directory = tmp_path / "legacy"
    _legacy_archive(sim, directory, n_weeks - 1)
    names_before = {p.name for p in directory.iterdir()}
    stamps = {
        p.name: (p.stat().st_ino, p.stat().st_mtime_ns)
        for pattern in ("*.rpq", "*.rpd", "*.psv")
        for p in directory.glob(pattern)
    }
    sim.archive(directory, max_snapshots=n_weeks, skip_existing=True)
    for name, stamp in stamps.items():
        path = directory / name
        assert (path.stat().st_ino, path.stat().st_mtime_ns) == stamp, (
            f"{name} was rewritten"
        )
    # the member and the new week land; no PSV is written for it
    label = list(sim.simulation.collection)[n_weeks - 1].label
    assert {p.name for p in directory.iterdir()} - names_before == {
        f"{label}.rpq", f"{label}.rpd", ACCOUNTS_NAME
    }
    manifest = load_manifest(directory)
    assert len(manifest["snapshots"]) == n_weeks
    _assert_same_population(
        read_accounts(directory, manifest["accounts"]), sim.simulation.population
    )
