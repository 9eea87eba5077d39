import pickle
import zlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scan import columnar
from repro.scan.extensions import ExtensionTable, split_extension
from repro.scan.paths import PathRows, PathTable


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
        assert [table.path_of(i) for i in range(n)] == ref.paths
        assert len(table) == n
        assert table.depth[:n].tolist() == ref.depth
        assert table.ext_id[:n].tolist() == ref.ext_id
        assert [table.intern(p) for p in ref.paths] == list(range(n))
    assert shared.names == ref_shared.names


# -- the tree against the flat table it replaced ---------------------------------


class _FlatTable:
    """The flat ``PathTable`` the tree replaced, frozen: one dict from each
    full string to its id, and its derived columns."""

    def __init__(self, extensions: ExtensionTable) -> None:
        self._ids: dict[str, int] = {}
        self.paths: list[str] = []
        self.extensions = extensions
        self.depth = np.zeros(0, dtype=np.int16)
        self.ext_id = np.zeros(0, dtype=np.int32)

    def intern_many(self, paths: list[str]) -> np.ndarray:
        ids = self._ids
        new = list(dict.fromkeys([p for p in paths if p not in ids]))
        if new:
            start = len(self.paths)
            ids.update(zip(new, range(start, start + len(new))))
            self.paths.extend(new)
            depth = np.fromiter(
                (p.count("/") - p.endswith("/") for p in new),
                np.int64, count=len(new),
            )
            self.depth = np.concatenate(
                [self.depth, np.minimum(depth, np.iinfo(np.int16).max).astype(np.int16)]
            )
            intern_ext = self.extensions.intern
            self.ext_id = np.concatenate([self.ext_id, np.fromiter(
                (intern_ext(split_extension(p.rpartition("/")[2])) for p in new),
                np.int32, count=len(new),
            )])
        return np.fromiter(map(ids.__getitem__, paths), np.int64, count=len(paths))


#: foreign strings: trailing "/", "//", relative, empty, "/" and non-ASCII
_FOREIGN = st.lists(
    st.sampled_from(["", "", "a", "b", "x.nc", ".h", "é.日本", "run.0", "c.tar.gz"]),
    min_size=1, max_size=6,
).map("/".join)


def _through_dirs(table: PathTable, batch: list[str]) -> np.ndarray:
    """Every row with a ``/`` named under its directory string."""
    dirs: dict[str, int] = {}
    parents, names = [], []
    for path in batch:
        head, sep, name = path.rpartition("/")
        parents.append(-2 - dirs.setdefault(head, len(dirs)) if sep else -1)
        names.append(name)
    return table.intern_rows(PathRows(parents, names, list(dirs)))


def _through_tree_block(table: PathTable, batch: list[str]) -> np.ndarray:
    """The batch encoded as a ``tree-zlib`` block from a scratch table,
    decoded, and interned."""
    scratch = PathTable()
    buffers, meta = columnar.path_table_block(
        "__paths__", scratch, scratch.intern_many(batch)
    )
    blob, crc = columnar._deflate(buffers)
    meta.update(stored_bytes=len(blob), crc32=crc)
    rows = columnar._decode_paths(blob, meta, len(batch), "t.rpq", 0)
    return table.intern_rows(rows)


def _through_strtab_block(table: PathTable, batch: list[str]) -> np.ndarray:
    if batch == [""]:  # the flat codec reads empty text as no rows
        return table.intern_many(batch)
    blob = zlib.compress("\n".join(batch).encode("utf-8"), 6)
    meta = {"name": "__paths__", "codec": "strtab-zlib", "crc32": zlib.crc32(blob)}
    return table.intern_rows(columnar._decode_paths(blob, meta, len(batch), "t.rpq", 0))


_ROUTES = {
    "strings": lambda table, batch: table.intern_many(batch),
    "dirs": _through_dirs,
    "tree-zlib": _through_tree_block,
    "strtab-zlib": _through_strtab_block,
    "pickled": lambda table, batch: table.intern_many(batch),
}


@settings(max_examples=150, deadline=None)
@given(
    batches=st.lists(
        st.tuples(
            st.sampled_from(sorted(_ROUTES)),
            st.lists(st.one_of(_FOREIGN, st.sampled_from(_SPECIAL_PATHS)), max_size=12),
        ),
        min_size=1, max_size=6,
    ),
)
def test_tree_table_equals_the_flat_table(batches):
    """Whatever mix of full strings, pairs and codec round trips a table
    is fed, its ids, ``len``, ``depth``, ``ext_id`` and the extension
    table's order equal the flat table's for the same strings — and so
    does a table that went through pickle between batches."""
    tree, flat = PathTable(), _FlatTable(ExtensionTable())
    for route, batch in batches:
        if route == "pickled":
            tree = pickle.loads(pickle.dumps(tree))
        got = _ROUTES[route](tree, batch)
        assert got.tolist() == flat.intern_many(batch).tolist(), route
    n = len(flat.paths)
    assert len(tree) == n
    assert [tree.path_of(i) for i in range(n)] == flat.paths
    assert tree.paths_of(np.arange(n)) == flat.paths
    assert tree.depth[:n].tolist() == flat.depth.tolist()
    assert tree.ext_id[:n].tolist() == flat.ext_id.tolist()
    assert tree.extensions.names == flat.extensions.names
    assert tree.lengths_of(np.arange(n)).tolist() == [len(p) for p in flat.paths]
    for pid, path in enumerate(flat.paths):
        assert tree.id_of(path) == pid
        # the parent-chain walk the depth analysis uses is the prefix test
        # it replaced
        chain = path + "/"
        prefixed = {q for q, other in enumerate(flat.paths)
                    if chain.startswith(other + "/")}
        assert set(tree.lineage(pid)) == prefixed


def test_lookups_create_nothing():
    table = PathTable()
    table.intern("/a/b/c.nc")
    assert table.id_of("/a/b") is None  # an internal node, not a path
    assert "/a/b/x" not in table
    assert len(table) == 1
    assert table.intern("/a/b") == 1
    assert table.lineage(0) == [0, 1]
