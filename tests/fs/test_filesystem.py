import numpy as np
import pytest

from repro.fs.clock import SECONDS_PER_DAY, SimClock
from repro.fs.errors import (
    FileExistsError_,
    InvalidArgument,
    IsADirectory,
    NotFound,
    QuotaExceeded,
)
from repro.fs.filesystem import FileSystem
from repro.fs.quota import QuotaManager


@pytest.fixture
def fs():
    return FileSystem(ost_count=64, default_stripe=4, max_stripe=32)


def test_makedirs_builds_chain(fs):
    leaf = fs.makedirs("/lustre/atlas1/cli/cli001/user1", uid=5, gid=7)
    assert fs.namespace.path(leaf) == "/lustre/atlas1/cli/cli001/user1"
    assert fs.directory_count == 6  # root + 5 components


def test_makedirs_is_idempotent(fs):
    a = fs.makedirs("/a/b/c", uid=1, gid=1)
    b = fs.makedirs("/a/b/c", uid=1, gid=1)
    assert a == b


def test_create_sets_default_stripe(fs):
    d = fs.makedirs("/p", uid=1, gid=1)
    f = fs.create(d, "file.dat", uid=1, gid=1)
    st = fs.stat(f)
    assert st["stripe_count"] == 4


def test_create_with_explicit_stripe(fs):
    d = fs.makedirs("/p", uid=1, gid=1)
    f = fs.create(d, "wide.h5", uid=1, gid=1, stripe_count=16)
    assert fs.stat(f)["stripe_count"] == 16


def test_create_rejects_illegal_stripe(fs):
    d = fs.makedirs("/p", uid=1, gid=1)
    with pytest.raises(InvalidArgument):
        fs.create(d, "bad", uid=1, gid=1, stripe_count=1000)


def test_setstripe_inherited_by_new_files(fs):
    d = fs.makedirs("/wide", uid=1, gid=1)
    fs.setstripe(d, 8)
    f = fs.create(d, "f", uid=1, gid=1)
    assert fs.stat(f)["stripe_count"] == 8
    assert fs.getstripe(d) == 8


def test_create_many_batch(fs):
    d = fs.makedirs("/bulk", uid=3, gid=9)
    names = [f"chk.{i}" for i in range(1000)]
    inos = fs.create_many(d, names, uid=3, gid=9, timestamps=fs.clock.now)
    assert inos.size == 1000
    assert fs.file_count == 1000
    assert fs.stat("/bulk/chk.567")["uid"] == 3


def test_create_many_with_timestamp_array(fs):
    d = fs.makedirs("/bulk", uid=1, gid=1)
    ts = fs.clock.now + np.arange(10) * 60
    inos = fs.create_many(d, [f"f{i}" for i in range(10)], 1, 1, timestamps=ts)
    assert (fs.inodes.mtime[inos] == ts).all()


def test_read_write_timestamp_semantics(fs):
    d = fs.makedirs("/p", uid=1, gid=1)
    t0 = fs.clock.now
    f = fs.create(d, "f", uid=1, gid=1, timestamp=t0)
    fs.read(f, t0 + 100)
    st = fs.stat(f)
    assert st["atime"] == t0 + 100 and st["mtime"] == t0
    fs.write(f, t0 + 200)
    st = fs.stat(f)
    assert st["mtime"] == t0 + 200 and st["ctime"] == t0 + 200
    assert st["atime"] == t0 + 100


def test_read_on_directory_raises(fs):
    d = fs.makedirs("/p", uid=1, gid=1)
    with pytest.raises(IsADirectory):
        fs.read(d)


def test_unlink_frees_resources(fs):
    d = fs.makedirs("/p", uid=1, gid=2)
    fs.create(d, "f", uid=1, gid=2)
    fs.unlink(d, "f")
    assert fs.file_count == 0
    assert fs.quota.usage(2) == 1  # the directory remains


def test_unlink_many(fs):
    d = fs.makedirs("/p", uid=1, gid=2)
    names = [f"f{i}" for i in range(100)]
    fs.create_many(d, names, 1, 2, timestamps=fs.clock.now)
    fs.unlink_many(d, names[:60])
    assert fs.file_count == 40
    assert fs.files_deleted == 60


@pytest.mark.parametrize(
    "batch, error",
    [
        (["a", "missing"], NotFound),
        (["a", "sub"], IsADirectory),
        (["a", "b", "a"], InvalidArgument),
    ],
    ids=["missing-name", "directory", "duplicate-name"],
)
def test_unlink_many_refuses_a_bad_batch_with_nothing_unlinked(fs, batch, error):
    d = fs.makedirs("/p", uid=1, gid=2)
    fs.create_many(d, ["a", "b", "c"], 1, 2, timestamps=fs.clock.now)
    fs.mkdir(d, "sub", uid=1, gid=2)
    before = (fs.entry_count, fs.file_count, fs.quota.usage(2), fs.files_deleted)
    with pytest.raises(error):
        fs.unlink_many(d, batch)
    assert sorted(fs.namespace.children(d)) == ["a", "b", "c", "sub"]
    assert (fs.entry_count, fs.file_count, fs.quota.usage(2), fs.files_deleted) == before
    fs.unlink_many(d, ["c", "a"])  # the same files still unlink cleanly
    assert sorted(fs.namespace.children(d)) == ["b", "sub"]
    assert fs.file_count == 1


def _fs_state(fs):
    """Everything a refused batch must leave as it was."""
    return (
        fs.entry_count, fs.file_count, fs.files_created, fs.quota.usage(2),
        fs.osts._cursor, fs.inodes.high_watermark, list(fs.inodes._free),
        [(ino, parent, name) for ino, parent, name in fs.namespace.walk()],
    )


@pytest.mark.parametrize(
    "names, stamps, error",
    [
        (["x", "x"], None, FileExistsError_),
        (["x", "bad/name"], None, InvalidArgument),
        (["x", "."], None, InvalidArgument),
        (["x", ""], None, InvalidArgument),
        (["x", "a"], None, FileExistsError_),
        (["x", "y", "z"], [5, 6], InvalidArgument),
        (["x", "y"], [[5, 6]], InvalidArgument),
    ],
    ids=["duplicate-name", "slash", "dot", "empty", "existing-name",
         "short-stamps", "stamps-shape"],
)
def test_create_many_refuses_a_bad_batch_with_nothing_changed(fs, names, stamps, error):
    d = fs.makedirs("/p", uid=1, gid=2)
    fs.create_many(d, ["a", "b", "c"], 1, 2, timestamps=fs.clock.now)
    fs.unlink_many(d, ["b"])  # a freed number waits on the free list
    before = _fs_state(fs)
    with pytest.raises(error):
        fs.create_many(d, names, 1, 2,
                       timestamps=fs.clock.now if stamps is None else np.array(stamps))
    assert _fs_state(fs) == before
    # the next create takes the numbers the refused batch would have
    again = fs.create_many(d, ["p", "q"], 1, 2, timestamps=fs.clock.now)
    assert again.tolist() == [before[6][-1], before[5]]


def test_unlink_many_frees_in_name_order(fs):
    d = fs.makedirs("/p", uid=1, gid=2)
    inos = [fs.create(d, name, uid=1, gid=2) for name in ("x", "y", "z")]
    fs.unlink_many(d, ["z", "x", "y"])
    again = [fs.create(d, name, uid=1, gid=2) for name in ("p", "q", "r")]
    loop = FileSystem(ost_count=64, default_stripe=4, max_stripe=32)
    d2 = loop.makedirs("/p", uid=1, gid=2)
    for name in ("x", "y", "z"):
        loop.create(d2, name, uid=1, gid=2)
    for name in ("z", "x", "y"):
        loop.unlink(d2, name)
    assert again == [loop.create(d2, name, uid=1, gid=2) for name in ("p", "q", "r")]
    assert sorted(again) == sorted(inos)


def test_unlink_inode_by_number(fs):
    d = fs.makedirs("/p", uid=1, gid=1)
    f = fs.create(d, "f", uid=1, gid=1)
    fs.unlink_inode(f)
    assert fs.file_count == 0


def test_chown_updates_ctime_and_quota(fs):
    d = fs.makedirs("/p", uid=1, gid=10)
    f = fs.create(d, "f", uid=1, gid=10, timestamp=fs.clock.now)
    before = fs.quota.usage(10)
    fs.chown(f, uid=2, gid=20, timestamp=fs.clock.now + 50)
    st = fs.stat(f)
    assert st["uid"] == 2 and st["gid"] == 20
    assert st["ctime"] == fs.clock.now + 50
    assert st["mtime"] == fs.clock.now
    assert fs.quota.usage(10) == before - 1
    assert fs.quota.usage(20) == 1


def test_quota_enforcement_blocks_creation():
    quota = QuotaManager()
    quota.set_limit(7, 5)
    fs = FileSystem(ost_count=16, quota=quota)
    d = fs.makedirs("/p", uid=1, gid=7)
    assert d
    for i in range(4):  # dir consumed 1 of the 5
        fs.create(d, f"f{i}", uid=1, gid=7)
    with pytest.raises(QuotaExceeded):
        fs.create(d, "f-over", uid=1, gid=7)


def test_entry_counts(fs):
    d = fs.makedirs("/p/q", uid=1, gid=1)
    fs.create(d, "f", uid=1, gid=1)
    # root + p + q = 3 dirs, 1 file
    assert fs.directory_count == 3
    assert fs.file_count == 1
    assert fs.entry_count == 4


def test_clock_is_shared():
    clock = SimClock()
    fs = FileSystem(clock=clock)
    clock.advance_days(10)
    d = fs.makedirs("/p", uid=1, gid=1)
    f = fs.create(d, "f", uid=1, gid=1)
    assert fs.stat(f)["mtime"] == clock.epoch + 10 * SECONDS_PER_DAY


def test_unlink_inodes_batched(fs):
    d1 = fs.makedirs("/p/a", uid=1, gid=1)
    d2 = fs.makedirs("/p/b", uid=1, gid=2)
    inos1 = fs.create_many(d1, ["f0", "f1", "f2"], 1, 1, timestamps=fs.clock.now)
    inos2 = fs.create_many(d2, ["g0", "g1"], 1, 2, timestamps=fs.clock.now)
    before_deleted = fs.files_deleted
    fs.clock.advance_days(1)
    ts = fs.clock.now
    victims = np.concatenate([inos1, inos2])
    fs.unlink_inodes(victims, timestamp=ts)
    assert fs.file_count == 0
    assert fs.files_deleted == before_deleted + 5
    assert fs.quota.usage(1) == 2  # only the /p and /p/a directories remain
    assert fs.quota.usage(2) == 1  # only the /p/b directory remains
    # parents' mtime bumped by the batch
    assert int(fs.inodes.mtime[d1]) == ts
    assert int(fs.inodes.mtime[d2]) == ts


def test_unlink_inodes_rejects_directories(fs):
    d = fs.makedirs("/p", uid=1, gid=1)
    with pytest.raises(IsADirectory):
        fs.unlink_inodes(np.array([d], dtype=np.int64))
    # nothing was mutated by the failed batch
    assert fs.directory_count == 2


def test_unlink_inodes_empty_batch_is_noop(fs):
    count = fs.entry_count
    fs.unlink_inodes(np.empty(0, dtype=np.int64))
    assert fs.entry_count == count
