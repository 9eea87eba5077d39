import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scan.extensions import ExtensionTable, split_extension
from repro.scan.paths import PathTable


def test_intern_is_stable():
    table = PathTable()
    a = table.intern("/lustre/atlas1/cli/p1/u1/data.nc")
    b = table.intern("/lustre/atlas1/cli/p1/u1/other.nc")
    assert table.intern("/lustre/atlas1/cli/p1/u1/data.nc") == a
    assert a != b
    assert len(table) == 2
    assert table.path_of(a) == "/lustre/atlas1/cli/p1/u1/data.nc"


def test_depth_derived_from_components():
    table = PathTable()
    pid = table.intern("/a/b/c/file.txt")
    assert table.depth[pid] == 4


def test_extension_derived():
    table = PathTable()
    a = table.intern("/p/x.nc")
    b = table.intern("/p/noext")
    exts = table.extensions
    assert exts.name_of(int(table.ext_id[a])) == "nc"
    assert table.ext_id[b] == exts.no_extension_id


def test_intern_many_round_trip():
    table = PathTable()
    paths = [f"/p/f{i}.dat" for i in range(100)]
    ids = table.intern_many(paths)
    assert len(np.unique(ids)) == 100
    again = table.intern_many(paths)
    assert (ids == again).all()


def test_vectorized_lookups():
    table = PathTable()
    ids = table.intern_many(["/a/x.h5", "/a/b/y.nc", "/a/b/c/z"])
    assert table.depths_of(ids).tolist() == [2, 3, 4]
    ext_names = [table.extensions.name_of(int(e)) for e in table.ext_ids_of(ids)]
    assert ext_names[:2] == ["h5", "nc"]


def test_component_accessor():
    table = PathTable()
    pid = table.intern("/lustre/atlas1/cli/p1/u1/f.nc")
    assert table.component(pid, 0) == "lustre"
    assert table.component(pid, 2) == "cli"
    assert table.component(pid, 99) is None


def test_contains_and_id_of():
    table = PathTable()
    table.intern("/x")
    assert "/x" in table
    assert "/y" not in table
    assert table.id_of("/y") is None


def test_growth_past_initial_capacity():
    table = PathTable()
    ids = table.intern_many([f"/f{i}.txt" for i in range(3000)])
    assert table.depth[ids[-1]] == 1
    assert len(table) == 3000


def test_shared_extension_table():
    ext = ExtensionTable()
    t1 = PathTable(ext)
    t2 = PathTable(ext)
    a = t1.intern("/a.nc")
    b = t2.intern("/b.nc")
    assert t1.ext_id[a] == t2.ext_id[b]


class _LoopTable:
    """Reference: the per-path interning loop ``intern_many`` replaced.

    Frozen here so the batched pass is always checked against it: one
    dict probe per path, and a new path's id, depth and extension id
    assigned the moment it is first seen.
    """

    def __init__(self, extensions: ExtensionTable) -> None:
        self._ids: dict[str, int] = {}
        self.paths: list[str] = []
        self.extensions = extensions
        self.depth: list[int] = []
        self.ext_id: list[int] = []

    def intern(self, path: str) -> int:
        pid = self._ids.get(path)
        if pid is not None:
            return pid
        pid = len(self.paths)
        self._ids[path] = pid
        self.paths.append(path)
        depth = path.count("/") - (1 if path.endswith("/") else 0)
        self.depth.append(min(depth, np.iinfo(np.int16).max))
        leaf = path.rsplit("/", 1)[-1]
        self.ext_id.append(self.extensions.intern(split_extension(leaf)))
        return pid

    def intern_many(self, paths: list[str]) -> list[int]:
        return [self.intern(p) for p in paths]


_component = st.text(
    alphabet=st.sampled_from("abcXYZ09._-é漢"), min_size=1, max_size=14
)
_SPECIAL_PATHS = [
    "/",
    "/proj/",
    "/proj/.bashrc",
    "/proj/Makefile",
    "/proj/run.0",
    "/proj/data.averyverylongsuffix",
    "/proj/trailing.",
    "/proj/naïve.résumé",
    "/proj/データ.日本",
    "/" + "d/" * 33_000 + "deep.h5",  # depth past the int16 clamp
]
_path = st.one_of(
    st.sampled_from(_SPECIAL_PATHS),
    st.builds(
        lambda parts, slash: "/" + "/".join(parts) + slash,
        st.lists(_component, min_size=1, max_size=5),
        st.sampled_from(["", "/"]),
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    pool=st.lists(_path, min_size=1, max_size=30),
    picks=st.lists(
        st.lists(st.integers(0, 29), max_size=40), min_size=1, max_size=6
    ),
)
def test_intern_many_matches_per_path_loop(pool, picks):
    """Batched interning leaves exactly the per-path loop's state: ids,
    paths, depth, ext_id and the shared extension table's order — with
    duplicates inside a batch and across batches, and two tables (batches
    alternate between them) sharing one ExtensionTable."""
    batches = [[pool[i % len(pool)] for i in pick] for pick in picks]
    shared, ref_shared = ExtensionTable(), ExtensionTable()
    tables = [PathTable(shared), PathTable(shared)]
    refs = [_LoopTable(ref_shared), _LoopTable(ref_shared)]
    for i, batch in enumerate(batches):
        got = tables[i % 2].intern_many(batch)
        assert got.dtype == np.int64
        assert got.tolist() == refs[i % 2].intern_many(batch)
    for table, ref in zip(tables, refs):
        n = len(ref.paths)
        assert table.paths == ref.paths
        assert len(table) == n
        assert table.depth[:n].tolist() == ref.depth
        assert table.ext_id[:n].tolist() == ref.ext_id
        assert [table.intern(p) for p in ref.paths] == list(range(n))
    assert shared.names == ref_shared.names
