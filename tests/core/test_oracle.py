"""The differential oracle's container axis.

One archive, three containers a reader must accept: the archive as
written (``RPQ3``, ``tree-zlib`` path blocks), its ``strtab-zlib`` rewrite
(the flat path blocks every archive before the tree codec holds) and that
rewrite's ``RPQ2`` rewrite (the legacy envelope).  Every route must give
one report digest — the text plus every figure body, as
``ArchiveService.warm`` serves it — from all three:

* a cold ``analyze_archive``;
* an incremental bootstrap over all but the last week, a ``skip_existing``
  append of the last week (written by this build into the older
  container), and the replay of its ``.rpd``.

Each container also interns every snapshot's paths onto the same ids.
The configs are the reproduce config at seeds 1 and 7 (stress depths on:
paths to 12 KB, a 2,030-deep chain) and a short window of the publish
config.  The in-memory route joins the oracle once Figure 15's
``snapshot_bytes`` is deleted: it reads the scanner's history, which only
the in-memory route has, so its ``fig15`` body differs by design today.
"""

from __future__ import annotations

import hashlib
import shutil
import warnings

import pytest

from repro.core.pipeline import ReproPipeline, analyze_archive
from repro.scan.columnar import read_columnar_paths
from repro.scan.paths import PathTable
from repro.synth.driver import SimulationConfig
from repro.testing.oracle import (
    report_digest,
    rewrite_archive,
    rewrite_as_rpq2,
    rewrite_as_strtab,
)

CONFIGS = {
    "reproduce-1": SimulationConfig(seed=1, scale=1e-6, weeks=6),
    "reproduce-7": SimulationConfig(seed=7, scale=1e-6, weeks=6),
    "publish-4": SimulationConfig(
        seed=1, scale=1.5e-6, weeks=4, min_project_files=4, stress_depths=False
    ),
}


def _containers(written, root):
    """The archive as written, its strtab rewrite, and that one's RPQ2."""
    strtab = rewrite_archive(written, root / "strtab", rewrite_as_strtab)
    return {
        "tree": written,
        "strtab": strtab,
        "rpq2": rewrite_archive(strtab, root / "rpq2", rewrite_as_rpq2),
    }


def _interning_digest(directory) -> str:
    """sha256 of the path strings in id order, after every snapshot's
    paths were interned in archive order."""
    table = PathTable()
    for path in sorted(directory.glob("*.rpq")):
        read_columnar_paths(path, table)
    text = "\n".join(table.paths_of(range(len(table))))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def case(request, tmp_path_factory):
    config = CONFIGS[request.param]
    pipeline = ReproPipeline(config)
    pipeline.simulate()
    root = tmp_path_factory.mktemp(request.param)
    full = root / "full"
    pipeline.archive(full)
    head = root / "head"  # every week but the last
    pipeline.archive(head, max_snapshots=config.weeks - 1)
    return config, pipeline, root, full, head


def test_cold_reports_agree_across_containers(case):
    config, _, root, full, _ = case
    digests = {
        name: report_digest(analyze_archive(directory, config=config)[1])
        for name, directory in _containers(full, root / "cold").items()
    }
    assert len(set(digests.values())) == 1, digests
    interned = {
        name: _interning_digest(directory)
        for name, directory in _containers(full, root / "ids").items()
    }
    assert len(set(interned.values())) == 1, interned


def test_incremental_replay_agrees_across_containers(case):
    config, pipeline, root, full, head = case
    want = report_digest(analyze_archive(full, config=config)[1])
    for name, directory in _containers(head, root / "inc").items():
        analyze_archive(directory, config=config, incremental=True)  # bootstrap
        pipeline.archive(directory, skip_existing=True)  # append the last week
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a replay, not a fallback
            run, report = analyze_archive(directory, config=config, incremental=True)
        assert run.context.collection.cache_info().misses == 0, name
        assert report_digest(report) == want, name
        shutil.rmtree(directory)
