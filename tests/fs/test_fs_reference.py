"""The file-system primitives against a frozen copy of themselves.

``frozen_fs`` keeps ``InodeTable``, ``Namespace``, ``OstAllocator`` and
``FileSystem`` as they were before their per-call NumPy overhead was cut.
Hypothesis drives random valid sequences — ``mkdir``, ``create_many``
(recycling freed inode numbers), ``unlink_inodes``, ``unlink_many``,
``setstripe`` and purge sweeps — through both, and after every operation
every inode column, the free list, the next fresh number, the OST cursor,
quota usage and the ``walk()`` order must be equal.  Refused batches are
``test_filesystem.py``'s: the frozen copy leaks on them.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.fs.clock import SECONDS_PER_DAY
from repro.fs.filesystem import FileSystem
from repro.fs.purge import PurgePolicy
from tests.fs import frozen_fs

GIDS = (10, 11)


def _fs_pair():
    kwargs = dict(ost_count=48, default_stripe=4, max_stripe=16)
    return FileSystem(**kwargs), frozen_fs.FileSystem(**kwargs)


class ReferenceMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self) -> None:
        self.real, self.ref = _fs_pair()
        self.now = self.real.clock.now
        self.dirs: list[int] = [self.real.namespace.root]
        self.files: dict[int, tuple[int, str]] = {}  # ino -> (parent, name)
        self.counter = 0

    def _both(self, method: str, *args, **kwargs):
        got = getattr(self.real, method)(*args, **kwargs)
        want = getattr(self.ref, method)(*args, **kwargs)
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want)
        else:
            assert got == want
        return want

    def _name(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    @rule(data=st.data(), gid=st.sampled_from(GIDS))
    def mkdir(self, data, gid) -> None:
        parent = data.draw(st.sampled_from(self.dirs))
        self.dirs.append(self._both("mkdir", parent, self._name("d"), 1, gid,
                                    timestamp=self.now))

    @rule(
        data=st.data(),
        count=st.integers(1, 30),
        gid=st.sampled_from(GIDS),
        stripes=st.one_of(st.none(), st.integers(1, 16), st.just(-1)),
        per_file=st.booleans(),
    )
    def create_many(self, data, count, gid, stripes, per_file) -> None:
        parent = data.draw(st.sampled_from(self.dirs))
        names = [self._name("f") for _ in range(count)]
        if per_file:
            offsets = data.draw(st.lists(st.integers(0, 7 * SECONDS_PER_DAY),
                                         min_size=count, max_size=count))
            stamps = self.now + np.array(offsets, dtype=np.int64)
        else:
            stamps = self.now
        inos = self._both("create_many", parent, names, 2, gid, stamps,
                          stripe_count=stripes)
        for ino, name in zip(inos.tolist(), names):
            self.files[ino] = (parent, name)

    @rule(data=st.data())
    def unlink_inodes(self, data) -> None:
        if not self.files:
            return
        victims = data.draw(st.lists(st.sampled_from(sorted(self.files)),
                                     min_size=1, max_size=12, unique=True))
        self._both("unlink_inodes", np.array(victims, dtype=np.int64),
                   timestamp=self.now)
        for ino in victims:
            del self.files[ino]

    @rule(data=st.data())
    def unlink_many(self, data) -> None:
        if not self.files:
            return
        parent = data.draw(st.sampled_from(sorted({p for p, _ in self.files.values()})))
        here = sorted(ino for ino, (p, _) in self.files.items() if p == parent)
        victims = data.draw(st.lists(st.sampled_from(here), min_size=1,
                                     max_size=len(here), unique=True))
        self._both("unlink_many", parent, [self.files[ino][1] for ino in victims],
                   timestamp=self.now)
        for ino in victims:
            del self.files[ino]

    @rule(data=st.data(), stripes=st.one_of(st.integers(1, 16), st.just(-1)))
    def setstripe(self, data, stripes) -> None:
        self._both("setstripe", data.draw(st.sampled_from(self.dirs)), stripes)

    @rule(days=st.integers(1, 40))
    def advance(self, days) -> None:
        self.now += days * SECONDS_PER_DAY

    @rule(window=st.integers(1, 60))
    def purge(self, window) -> None:
        policy = PurgePolicy(window_days=window)
        got = policy.sweep(self.real, now=self.now)
        want = policy.sweep(self.ref, now=self.now)
        assert np.array_equal(got.purged_inos, want.purged_inos)
        for ino in want.purged_inos.tolist():
            del self.files[ino]

    @invariant()
    def same_state(self) -> None:
        real, ref = self.real, self.ref
        for column in frozen_fs.COLUMNS:
            assert np.array_equal(getattr(real.inodes, column),
                                  getattr(ref.inodes, column)), column
        assert real.inodes._free == ref.inodes._free
        assert real.inodes._next == ref.inodes._next
        assert real.osts._cursor == ref.osts._cursor
        assert {g: (e.used, e.peak) for g, e in real.quota.entries.items()} == {
            g: (e.used, e.peak) for g, e in ref.quota.entries.items()
        }
        assert list(real.namespace.walk()) == list(ref.namespace.walk())
        assert (real.files_created, real.files_deleted, real.entry_count,
                real.file_count) == (ref.files_created, ref.files_deleted,
                                     ref.entry_count, ref.file_count)


ReferenceMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestReferenceMachine = ReferenceMachine.TestCase
