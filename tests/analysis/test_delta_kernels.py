"""Per-kernel delta contract (DESIGN.md §11).

For every kernel the registry builds — the Figure 10, 14 and 17 kernels
among them — ``update_fn(reduce_fn(partials[:-1]), delta)`` must finish
bitwise equal to ``reduce_fn(partials)``: the delta route is
byte-identical or it is wrong.  Checked on simulated windows at
two seeds — partials from a pooled pass, so the job's start method applies
— and on hand-built windows where a path flips file ↔ directory and where
a file's stripe count and group change.
"""

import dataclasses
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.context import AnalysisContext
from repro.analysis.registry import AnalyzeOptions, resolve_specs
from repro.fs.inode import S_IFDIR, S_IFREG
from repro.query.engine import Kernel
from repro.query.parallel import SnapshotExecutor
from repro.scan.delta import compute_delta
from repro.scan.paths import PathTable
from repro.scan.snapshot import Snapshot, SnapshotCollection
from repro.synth.domains import DOMAINS
from repro.synth.driver import SimulationConfig, run_simulation

#: the hand-built windows' two projects, in two domains
GIDS = {7: sorted(DOMAINS)[0], 9: sorted(DOMAINS)[1]}


def _kernels(ctx):
    """Every kernel the registry builds, one each."""
    # min_files=2: the small windows must yield c_v samples to compare
    opts = AnalyzeOptions(ctx=ctx, burstiness_min_files=2)
    kernels = {}
    for spec in resolve_specs():
        for kernel in spec.build_kernels(opts):
            kernels.setdefault(kernel.name, kernel)
    return list(kernels.values())


def assert_bitwise(a, b, where="result"):
    """Equal values, dtypes, key orders and float bits, recursively."""
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray), where
        assert (a.dtype, a.shape) == (b.dtype, b.shape), where
        assert a.tobytes() == b.tobytes(), where
    elif dataclasses.is_dataclass(a):
        assert type(a) is type(b), where
        for f in dataclasses.fields(a):
            assert_bitwise(
                getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}"
            )
    elif isinstance(a, dict):
        assert list(a) == list(b), where
        for key in a:
            assert_bitwise(a[key], b[key], f"{where}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_bitwise(x, y, f"{where}[{i}]")
    elif isinstance(a, float):
        assert isinstance(b, float), where
        assert struct.pack("<d", a) == struct.pack("<d", b), where
    else:
        assert type(a) is type(b) and a == b, (where, a, b)


def _partials(collection, kernels, processes=1):
    """Every kernel's ordered partials, from one fused pass."""
    probes = [Kernel(k.name, k.map_fn, list, k.pairwise) for k in kernels]
    return SnapshotExecutor(processes).run_kernels(collection, probes)


def _check_contract(collection, kernels, processes=1):
    snaps = list(collection)
    delta = compute_delta(snaps[-2], snaps[-1])
    partials = _partials(collection, kernels, processes)
    results = {}
    for kernel in kernels:
        parts = partials[kernel.name]
        full = kernel.finish_fn(kernel.reduce_fn(parts))
        replayed = kernel.finish_fn(
            kernel.update_fn(kernel.reduce_fn(parts[:-1]), delta)
        )
        assert_bitwise(replayed, full, kernel.name)
        results[kernel.name] = full
    return results


@pytest.mark.parametrize("seed", [3, 11])
def test_update_matches_full_reduce_on_simulated_windows(seed):
    sim = run_simulation(SimulationConfig(
        seed=seed, scale=1.5e-6, weeks=5, min_project_files=4,
        stress_depths=False,
    ))
    ctx = AnalysisContext(sim.collection, sim.population)
    results = _check_contract(sim.collection, _kernels(ctx), processes=2)
    # non-trivial windows: every figure has data to disagree on
    assert results["stripes"].by_domain
    assert all(total for _, _, _, total in results["ext_hist"])
    assert results["burstiness"].write_samples
    assert results["burstiness"].read_samples


def test_every_registry_kernel_carries_update():
    ctx = AnalysisContext(SnapshotCollection(), SimpleNamespace(projects={}))
    kernels = _kernels(ctx)
    assert {k.name for k in kernels} == {
        "rows", "access", "growth", "active_ids", "ages",
        "ext_hist", "stripes", "burstiness",
    }
    assert all(k.update_fn is not None for k in kernels)


# -- hand-built windows -----------------------------------------------------


def _ctx(collection):
    projects = {gid: SimpleNamespace(domain=code) for gid, code in GIDS.items()}
    return AnalysisContext(collection, SimpleNamespace(projects=projects))


def _window(weeks):
    """A collection from ``{path: (is_dir, gid, stripe, atime, mtime)}``
    per week; snapshots one week apart, ctime = mtime."""
    paths = PathTable()
    collection = SnapshotCollection(paths)
    for week, rows in enumerate(weeks):
        names = sorted(rows)
        cols = np.array([rows[name] for name in names], dtype=np.int64).T
        is_dir, gid, stripe, atime, mtime = cols
        ids = paths.intern_many(names)
        collection.append(Snapshot.from_columns(
            f"w{week}", 1_000_000 + week * 604_800, paths, {
                "path_id": ids,
                "ino": ids + 1,
                "mode": np.where(is_dir, S_IFDIR | 0o755, S_IFREG | 0o644),
                "uid": np.ones(len(names)),
                "gid": gid,
                "atime": atime,
                "mtime": mtime,
                "ctime": mtime,
                "stripe_count": stripe,
                "stripe_start": np.zeros(len(names)),
            },
        ))
    return collection


def _files(prefix, gid, count, t, stripe=4, ext=".nc"):
    return {
        f"/p/{prefix}{i}{ext}": (0, gid, stripe, t + 13 * i * i, t + 7 * i)
        for i in range(count)
    }


def test_contract_holds_when_paths_flip_between_file_and_directory():
    base = 1_000_000
    w0 = {**_files("a", 7, 5, base), **_files("b", 9, 4, base, ext=".h5")}
    w0["/p/x.dat"] = (0, 7, 2, base, base)  # a file that becomes a dir
    w0["/p/y.log"] = (1, 9, 0, base, base)  # a dir that becomes a file
    w1 = dict(w0)
    w1.update(_files("c", 7, 6, base + 604_800, ext=".txt"))
    w1["/p/x.dat"] = (1, 7, 0, base + 604_900, base + 604_900)
    w1["/p/y.log"] = (0, 9, 8, base + 605_000, base + 605_000)
    for i in range(3):  # readonly: only atime moves
        path = f"/p/a{i}.nc"
        _, gid, stripe, _, mtime = w1[path]
        w1[path] = (0, gid, stripe, base + 604_800 + 50 * i + 9, mtime)
    w2 = dict(w1)
    w2["/p/x.dat"] = (0, 9, 16, base + 1_209_700, base + 1_209_700)
    w2["/p/y.log"] = (1, 9, 0, base + 1_209_800, base + 1_209_800)
    w2.update(_files("d", 9, 5, base + 1_209_600, ext=".dat"))
    for i in range(4):
        path = f"/p/b{i}.h5"
        _, gid, stripe, _, mtime = w2[path]
        w2[path] = (0, gid, stripe, base + 1_209_600 + 31 * i * i, mtime)
    del w2["/p/a4.nc"]
    collection = _window([w0, w1, w2])
    delta = compute_delta(collection[1], collection[2])
    assert (delta.changed_was_dir != delta.changed_is_dir).sum() == 2
    results = _check_contract(collection, _kernels(_ctx(collection)))
    assert results["burstiness"].read_samples


def test_contract_holds_when_a_file_changes_stripe_count_and_group():
    base = 1_000_000
    w0 = {**_files("a", 7, 6, base), **_files("b", 9, 3, base, stripe=1)}
    w1 = dict(w0)
    w1.update(_files("c", 9, 4, base + 604_800, stripe=32))
    w2 = dict(w1)
    _, _, _, atime, mtime = w2["/p/a0.nc"]
    # restriped by a rewrite that also read it: updated, not readonly
    w2["/p/a0.nc"] = (0, 7, 8, atime + 604_800, mtime + 604_800)
    w2["/p/a2.nc"] = (0, 7, 4, base + 1_209_650, base + 14)  # readonly
    _, _, _, atime, mtime = w2["/p/a1.nc"]
    w2["/p/a1.nc"] = (0, 9, 4, atime, mtime)  # chgrp: 7 → 9
    w2["/p/b0.nc"] = (0, 9, 1, base + 1_209_700, base)  # readonly
    collection = _window([w0, w1, w2])
    delta = compute_delta(collection[1], collection[2])
    moved = delta.changed_prev["stripe_count"] != delta.changed_cur["stripe_count"]
    assert moved.sum() == 1
    results = _check_contract(collection, _kernels(_ctx(collection)))
    stats = results["stripes"].by_domain
    assert stats[GIDS[7]][2] == 8 and stats[GIDS[9]][2] == 32
