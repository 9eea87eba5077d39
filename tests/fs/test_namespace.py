import numpy as np
import pytest

from repro.fs.errors import (
    DirectoryNotEmpty,
    FileExistsError_,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
    NotFound,
)
from repro.fs.inode import S_IFDIR, S_IFREG, InodeTable
from repro.fs.namespace import Namespace


@pytest.fixture
def ns():
    table = InodeTable()
    return Namespace(table, timestamp=100)


def _mkdir(ns, parent, name):
    ino = ns.inodes.alloc(S_IFDIR | 0o775, 0, 0, 0)
    ns.link(parent, name, ino)
    return ino


def _mkfile(ns, parent, name):
    ino = ns.inodes.alloc(S_IFREG | 0o664, 0, 0, 0)
    ns.link(parent, name, ino)
    return ino


def test_root_path_is_slash(ns):
    assert ns.path(ns.root) == "/"
    assert ns.depth(ns.root) == 0


def test_link_and_lookup(ns):
    d = _mkdir(ns, ns.root, "proj")
    f = _mkfile(ns, d, "data.nc")
    assert ns.lookup("/proj") == d
    assert ns.lookup("/proj/data.nc") == f
    assert ns.path(f) == "/proj/data.nc"
    assert ns.depth(f) == 2


def test_lookup_missing_raises(ns):
    with pytest.raises(NotFound):
        ns.lookup("/nope")


def test_lookup_through_file_raises(ns):
    f = _mkfile(ns, ns.root, "f")
    assert f
    with pytest.raises(NotADirectory):
        ns.lookup("/f/child")


def test_lookup_requires_absolute_path(ns):
    with pytest.raises(InvalidArgument):
        ns.lookup("relative/path")


def test_duplicate_name_rejected(ns):
    _mkfile(ns, ns.root, "x")
    with pytest.raises(FileExistsError_):
        _mkfile(ns, ns.root, "x")


def test_illegal_names_rejected(ns):
    for bad in ("", "a/b", ".", ".."):
        with pytest.raises(InvalidArgument):
            ns.link(ns.root, bad, 99)


def test_link_many_bulk(ns):
    d = _mkdir(ns, ns.root, "bulk")
    names = [f"f{i:04d}" for i in range(500)]
    inos = ns.inodes.alloc_many(500, S_IFREG | 0o664, 1, 1, timestamps=0)
    ns.link_many(d, names, inos)
    assert ns.child_count(d) == 500
    assert ns.lookup("/bulk/f0123") == inos[123]
    assert ns.path(int(inos[7])) == "/bulk/f0007"


def test_link_many_rejects_existing_name(ns):
    d = _mkdir(ns, ns.root, "bulk")
    _mkfile(ns, d, "f0")
    inos = ns.inodes.alloc_many(2, S_IFREG, 1, 1, timestamps=0)
    with pytest.raises(FileExistsError_):
        ns.link_many(d, ["f0", "f1"], inos)


def test_link_many_rejects_internal_duplicates(ns):
    d = _mkdir(ns, ns.root, "bulk")
    inos = ns.inodes.alloc_many(2, S_IFREG, 1, 1, timestamps=0)
    with pytest.raises(FileExistsError_):
        ns.link_many(d, ["same", "same"], inos)


def test_unlink_removes_dentry(ns):
    f = _mkfile(ns, ns.root, "gone")
    assert ns.unlink(ns.root, "gone") == f
    with pytest.raises(NotFound):
        ns.lookup("/gone")


def test_unlink_directory_raises(ns):
    _mkdir(ns, ns.root, "d")
    with pytest.raises(IsADirectory):
        ns.unlink(ns.root, "d")


def test_rmdir_requires_empty(ns):
    d = _mkdir(ns, ns.root, "d")
    _mkfile(ns, d, "f")
    with pytest.raises(DirectoryNotEmpty):
        ns.rmdir(ns.root, "d")
    ns.unlink(d, "f")
    ns.rmdir(ns.root, "d")
    with pytest.raises(NotFound):
        ns.lookup("/d")


def test_rmdir_on_file_raises(ns):
    _mkfile(ns, ns.root, "f")
    with pytest.raises(NotADirectory):
        ns.rmdir(ns.root, "f")


def test_walk_yields_every_entry_with_depth(ns):
    a = _mkdir(ns, ns.root, "a")
    b = _mkdir(ns, a, "b")
    f1 = _mkfile(ns, ns.root, "top.txt")
    f2 = _mkfile(ns, b, "deep.txt")
    walked = list(ns.walk())
    seen = {ino: (parent, name) for ino, parent, name in walked}
    assert seen[a] == (ns.root, "a")
    assert seen[b] == (a, "b")
    assert seen[f1] == (ns.root, "top.txt")
    assert seen[f2] == (b, "deep.txt")
    assert ns.root not in seen
    # a parent comes out before its children, so paths and depths follow
    # from the pairs in one pass
    paths, depths = {ns.root: ""}, {ns.root: 0}
    for ino, parent, name in walked:
        paths[ino] = f"{paths[parent]}/{name}"
        depths[ino] = depths[parent] + 1
    assert (paths[f2], depths[f2]) == ("/a/b/deep.txt", 3)
    assert all(paths[i] == ns.path(i) and depths[i] == ns.depth(i) for i in seen)


def test_walk_subtree(ns):
    a = _mkdir(ns, ns.root, "a")
    b = _mkdir(ns, a, "b")
    _mkfile(ns, ns.root, "outside")
    f = _mkfile(ns, b, "inside")
    seen = {ino for ino, _, _ in ns.walk(a)}
    assert seen == {b, f}


def test_dir_count_tracks_mkdir_rmdir(ns):
    assert ns.dir_count == 1  # root
    _mkdir(ns, ns.root, "d1")
    d2 = _mkdir(ns, ns.root, "d2")
    assert d2
    assert ns.dir_count == 3
    ns.rmdir(ns.root, "d2")
    assert ns.dir_count == 2


def test_path_of_unlinked_inode_raises(ns):
    f = _mkfile(ns, ns.root, "f")
    ns.unlink(ns.root, "f")
    with pytest.raises(NotFound):
        ns.path(f)


def test_deep_tree_depth(ns):
    cur = ns.root
    for i in range(50):
        cur = _mkdir(ns, cur, f"level{i}")
    assert ns.depth(cur) == 50
    assert ns.path(cur).count("/") == 50


def test_parent_and_name_accessors(ns):
    d = _mkdir(ns, ns.root, "p")
    f = _mkfile(ns, d, "c")
    assert ns.parent_of(f) == d
    assert ns.name_of(f) == "c"
    assert ns.child(d, "c") == f
    assert ns.child(d, "zzz") is None


def test_children_returns_copy(ns):
    d = _mkdir(ns, ns.root, "d")
    _mkfile(ns, d, "f")
    snapshot = ns.children(d)
    snapshot["hacked"] = 999
    assert "hacked" not in ns.children(d)


def test_link_many_empty_batch_is_noop(ns):
    d = _mkdir(ns, ns.root, "d")
    ns.link_many(d, [], np.empty(0, dtype=np.int64))
    assert ns.child_count(d) == 0
