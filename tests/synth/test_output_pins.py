"""The simulator's output bytes, pinned.

The sharding, supervisor and incremental suites compare routes of the same
code with each other, so a change that moves every route's bytes together
passes them all.  These digests are absolute: the sha256 of every ``.rpq``,
``.rpd`` and ``accounts.json`` that one unsharded archive and one 2-shard
merged archive hold — as written (``tree-zlib`` path blocks), and after
the oracle rewrites every path block to ``strtab-zlib``.  The ``strtab``
digests are the files every writer emitted before the tree codec, so they
also prove that codec lossless and path-id order kept.

The simulation itself is pinned too, before any writer sees it: every
snapshot column, every interned path string, the week stats and the purge
reports of ``run_simulation`` at the reproduce config (seeds 1 and 7), and
of one small run that also collects the job log, models HPSS and carries a
changelog — branches no archive pin takes, which draw from the same
per-project streams.  A simulator change that claims "bytes unchanged"
must pass these untouched, part by part.

Pinned with numpy 2.4.6 and zlib 1.2.13: the draws come from numpy's
``Generator`` streams and the blocks are zlib-compressed, so another
version of either may move a digest without any change here.  A change
that moves a byte on purpose re-pins these and records the move in
CHANGES.md, as ``test_fig18_degree_fit_pinned`` does for the degree fit.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.core.pipeline import ReproPipeline
from repro.fs.changelog import attach_changelog
from repro.fs.filesystem import FileSystem
from repro.scan.snapshot import NUMERIC_COLUMNS
from repro.synth import driver
from repro.synth.driver import SimulationConfig, run_simulation
from repro.synth.sharding import run_sharded
from repro.testing.oracle import rewrite_archive, rewrite_as_strtab

#: stress depths on (the default): the depth-2,030 chain is in the archive
PIPELINE = SimulationConfig(seed=1, scale=1e-6, weeks=3)
SHARDED = SimulationConfig(
    seed=1, scale=1.5e-6, weeks=3, min_project_files=4, stress_depths=False
)

#: the accounts member depends on the seed and user count only
ACCOUNTS = "eb0e4a5586bbcbb66d93099ccf0b2cbd2bb4ba867e41841eeec81380831d8e97"

PIPELINE_DIGESTS = {
    "20150112.rpq": "f3e23e0401f11cc576615b49f0732682895093ef3cf3aa4e800ab7366db38189",
    "20150119.rpq": "953560d87c0a6128d47529bb137b227d0e19f341c15113b20df01201a5c35c34",
    "20150126.rpq": "3f66ebfc0b75f59c2244d3bdabb1ffac23a55ee9893f317b3afc6c5f85344d68",
    "20150119.rpd": "9cf38f320974c9e3e86764b753ca79f69aec35943c7577774d49ea9e71920ece",
    "20150126.rpd": "2cc3cf81e9d1d6eafe196518b0a280ab4409f513d63c970ba40dd60d94be0540",
    "accounts.json": ACCOUNTS,
}

SHARDED_DIGESTS = {
    "20150112.rpq": "bbf622045e2176967276344e53a114cd61950f0306c5a12f51f80ed459444c75",
    "20150119.rpq": "3d2bac7a31a008f1c73225e20fb4d0080aeaaac41cd1428545f0e5f6c3d4773c",
    "20150126.rpq": "d73901d666d2f0148312bb19e220b3edc7c137e12efe40a06a217090309dca59",
    "20150119.rpd": "932ef700f2c754029605f8ab4e2d5e462e91e795f0cb7db0889ba23144d121c1",
    "20150126.rpd": "faa1397b715c76e6f4b84ae82a5842169a37376c4d7b5b95d3402b3dad16db6a",
    "accounts.json": ACCOUNTS,
}

#: the same archives with every path block rewritten flat: each file's
#: digest before the tree codec
PIPELINE_STRTAB_DIGESTS = {
    "20150112.rpq": "931fdb2559cc63acfe2bd5435705d41f2b28ab478b142c80f462fdf7789dfb1c",
    "20150119.rpq": "c4ed2d36dceb514954b7ff7da78bb59d3b4cecb59ea9ae3e28ed8a6c35ff4f86",
    "20150126.rpq": "805faa92d5ed7e8505d707887bbc80c8294e31b1596f301ae5edeb2ac8af7116",
    "20150119.rpd": "216a819c9a7a37345574e294a1615489c707c5ab005a9deebdc4adeeb3ff32d0",
    "20150126.rpd": "b5b3e381f1111175a19e17d921c8f9506690632b7de7202a165602dd6ebb4a35",
    "accounts.json": ACCOUNTS,
}

SHARDED_STRTAB_DIGESTS = {
    "20150112.rpq": "740dabacd09d8b7e80059ee8d015264c9624dc1e09655639d1c61eb548f5f0ca",
    "20150119.rpq": "d9a86c8e3031f985a7c429adffa17e7424fab66deeafc40066a2e07d9366b171",
    "20150126.rpq": "9ddb619cae4b72c49eb24adf9f7b0d61f188bb52fc6664ff19c864af1a8fa177",
    "20150119.rpd": "bb298122043a07d3a74e6212aefa1310e5ef13d1e03a52e5bb8782f92a538088",
    "20150126.rpd": "e30ac44df0e0c863457267834ae550a5fce7c6cec4e1ee7fe03572b0c776c25d",
    "accounts.json": ACCOUNTS,
}


def output_digests(directory: Path) -> dict[str, str]:
    files = [
        *sorted(directory.glob("*.rpq")),
        *sorted(directory.glob("*.rpd")),
        directory / "accounts.json",
    ]
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def test_pipeline_archive_bytes_pinned(tmp_path):
    pipeline = ReproPipeline(PIPELINE)
    pipeline.simulate()
    pipeline.archive(tmp_path / "written")
    assert output_digests(tmp_path / "written") == PIPELINE_DIGESTS
    flat = rewrite_archive(tmp_path / "written", tmp_path / "flat", rewrite_as_strtab)
    assert output_digests(flat) == PIPELINE_STRTAB_DIGESTS


def test_sharded_archive_bytes_pinned(tmp_path):
    # two workers: the shard phase runs on the active start method
    run_sharded(SHARDED, 2, tmp_path / "written", workers=2)
    assert output_digests(tmp_path / "written") == SHARDED_DIGESTS
    flat = rewrite_archive(tmp_path / "written", tmp_path / "flat", rewrite_as_strtab)
    assert output_digests(flat) == SHARDED_STRTAB_DIGESTS


# -- the simulation itself ------------------------------------------------------

#: perfbench's ``reproduce`` config: 6 weeks, stress depths on
REPRODUCE = SimulationConfig(scale=1e-6, weeks=6)
#: the job-log and HPSS branches, with a changelog on the file system
BRANCHES = SimulationConfig(
    seed=3, scale=1e-6, weeks=4, collect_job_log=True, enable_hpss=True
)

SIMULATION_DIGESTS = {
    1: {
        "columns": "b11dbd369189183febae65cb19fb0eccd2774c32867959771e047fdd3da292f3",
        "paths": "a0361545ac96afac4e1797abf0c964bd8acd84230a180e9d26f44202b2bc8d27",
        "week_stats": "47a5f36e60d6e83bb359f0e41f7de07b352c86c230cbb9673a883f2409a24900",
        "purge": "84dd3b8a2b7eac309510d30aa92d194c0a9569706fcf02f546b52072b98a4c03",
    },
    7: {
        "columns": "c3ee2867299b7234681698699e533f486c6fbc5beac7e1896b6d48fbb1c94990",
        "paths": "1e78a45fc0a72ed55f57d37c6361d3f25622cd301a2400bd14fe5b20a59181cf",
        "week_stats": "8a6f8130e8cd501df0497b297b1c974fbe16298324cafb55274d021f14c9736f",
        "purge": "7dafe50e285a4122edc0b3194cfb296c6891232717a605721fd315f115d12139",
    },
}

BRANCHES_DIGESTS = {
    "columns": "da2734ba45199ad356e026d122fd4cfcc08378fa79c01625be7c2f9a40099b1f",
    "paths": "63d3872aa7291cff8cc56c639074cea3cc8b7500c18a7acc1b0ecfc16764335c",
    "week_stats": "c39898789d96fb5554537dca87a4b3b723203d95fa157558d92980e2d0ab0253",
    "purge": "f25b70868d31ec79a4b30b9be426c536620a9fd9585ef9e547b9f281d7185742",
    "job_log": "916fdaade797bed9aba84f7ee0f19d228b183d6c4e78923762c7dce48b081666",
    "hpss": "d3f6ac64ffe11204ae0631f6e9a43bf7751c359d127988c5380d96ebbac3a9ac",
    "changelog": "a8aa592653f4956fa9b6faee77a9820329b8fb1f41aa589f62312610a68cdc5a",
}


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else repr(chunk).encode())
    return h.hexdigest()


def simulation_digests(result) -> dict[str, str]:
    """One sha256 per part of a finished run, so a failure names the part."""
    snaps = list(result.collection)
    paths = result.scanner.paths
    return {
        "columns": _sha(*(
            chunk
            for snap in snaps
            for chunk in (
                (snap.label, snap.timestamp),
                *(np.ascontiguousarray(getattr(snap, c)).tobytes()
                  for c in NUMERIC_COLUMNS),
            )
        )),
        "paths": _sha("\n".join(paths.paths_of(range(len(paths)))).encode()),
        "week_stats": _sha([dataclasses.astuple(w) for w in result.week_stats]),
        "purge": _sha(*(
            chunk
            for r in result.purge_reports
            for chunk in (
                (r.timestamp, r.window_days, r.scanned, r.purged),
                r.purged_inos.tobytes(),
                r.purged_ages_days.tobytes(),
            )
        )),
    }


@pytest.mark.parametrize("seed", sorted(SIMULATION_DIGESTS))
def test_simulation_pinned(seed):
    result = run_simulation(dataclasses.replace(REPRODUCE, seed=seed))
    assert simulation_digests(result) == SIMULATION_DIGESTS[seed]


def test_job_log_hpss_and_changelog_pinned(monkeypatch):
    logs = []

    def logged(*args, **kwargs):
        fs = FileSystem(*args, **kwargs)
        logs.append(attach_changelog(fs))
        return fs

    monkeypatch.setattr(driver, "FileSystem", logged)
    result = run_simulation(BRANCHES)
    (log,) = logs
    table = result.job_log.to_table()
    digests = simulation_digests(result)
    digests["job_log"] = _sha(*(table[k].tobytes() for k in sorted(table)))
    digests["hpss"] = _sha(
        [(gid, list(bucket.values())) for gid, bucket in result.hpss._holdings.items()],
        result.hpss.transfers,
    )
    digests["changelog"] = _sha(*(
        chunk
        for codes, inos, times, _ in log._iter_blocks()
        for chunk in (codes.tobytes(), inos.tobytes(), times.tobytes())
    ))
    assert digests == BRANCHES_DIGESTS
