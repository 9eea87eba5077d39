"""Hypothesis stateful test: the file system's invariants under random ops.

Drives a random interleaving of mkdir/create/read/write/unlink/rmdir/purge
against a :class:`FileSystem` while checking the global invariants a real
VFS+LVM stack must keep:

* entry accounting: live inodes == files + directories;
* every live inode is reachable by its reconstructed path;
* quota usage per gid equals the live inode count per gid;
* timestamps: atime never decreases on reads, mtime == ctime after writes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.fs.clock import SECONDS_PER_DAY, SimClock
from repro.fs.errors import FsError
from repro.fs.filesystem import FileSystem
from repro.fs.purge import PurgePolicy


class FileSystemMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self) -> None:
        self.fs = FileSystem(clock=SimClock(), ost_count=64, default_stripe=4,
                             max_stripe=16)
        self.dirs: list[int] = [self.fs.namespace.root]
        self.files: dict[int, tuple[int, str]] = {}  # ino → (parent, name)
        self.counter = 0

    # -- operations ------------------------------------------------------

    @rule(data=st.data())
    def make_directory(self, data) -> None:
        parent = data.draw(st.sampled_from(self.dirs))
        self.counter += 1
        ino = self.fs.mkdir(parent, f"d{self.counter}", uid=1, gid=10)
        self.dirs.append(ino)

    @rule(data=st.data(), batch=st.integers(min_value=1, max_value=20))
    def create_files(self, data, batch) -> None:
        parent = data.draw(st.sampled_from(self.dirs))
        names = []
        for _ in range(batch):
            self.counter += 1
            names.append(f"f{self.counter}.dat")
        inos = self.fs.create_many(parent, names, uid=1, gid=10,
                                   timestamps=self.fs.clock.now)
        for ino, name in zip(inos, names):
            self.files[int(ino)] = (parent, name)

    @precondition(lambda self: self.files)
    @rule(data=st.data(), days=st.integers(min_value=0, max_value=30))
    def read_some(self, data, days) -> None:
        ino = data.draw(st.sampled_from(sorted(self.files)))
        before = int(self.fs.inodes.atime[ino])
        ts = self.fs.clock.now + days * SECONDS_PER_DAY
        self.fs.read(ino, timestamp=ts)
        assert self.fs.inodes.atime[ino] >= before

    @precondition(lambda self: self.files)
    @rule(data=st.data())
    def write_some(self, data) -> None:
        ino = data.draw(st.sampled_from(sorted(self.files)))
        ts = self.fs.clock.now + 100
        self.fs.write(ino, timestamp=ts)
        assert self.fs.inodes.mtime[ino] == self.fs.inodes.ctime[ino] == ts

    @precondition(lambda self: self.files)
    @rule(data=st.data())
    def unlink_some(self, data) -> None:
        ino = data.draw(st.sampled_from(sorted(self.files)))
        parent, name = self.files.pop(ino)
        self.fs.unlink(parent, name)

    @rule(days=st.integers(min_value=1, max_value=40))
    def advance_time(self, days) -> None:
        self.fs.clock.advance_days(days)

    @rule()
    def purge_sweep(self) -> None:
        report = PurgePolicy(window_days=90).sweep(self.fs)
        for ino in report.purged_inos:
            self.files.pop(int(ino), None)

    @precondition(lambda self: len(self.dirs) > 1)
    @rule(data=st.data())
    def try_rmdir_random(self, data) -> None:
        """rmdir may fail (non-empty) — the state must be unchanged then."""
        ino = data.draw(st.sampled_from(self.dirs[1:]))
        parent = self.fs.namespace.parent_of(ino)
        name = self.fs.namespace.name_of(ino)
        before = self.fs.entry_count
        try:
            self.fs.rmdir(parent, name)
        except FsError:
            assert self.fs.entry_count == before
        else:
            self.dirs.remove(ino)

    # -- invariants -----------------------------------------------------------

    @invariant()
    def entry_accounting(self) -> None:
        fs = self.fs
        assert fs.entry_count == fs.file_count + fs.directory_count
        assert fs.file_count == len(self.files)
        assert fs.directory_count == len(self.dirs)

    @invariant()
    def paths_resolve(self) -> None:
        fs = self.fs
        for ino in list(self.files)[:10]:
            path = fs.namespace.path(ino)
            assert fs.namespace.lookup(path) == ino

    @invariant()
    def quota_accounting(self) -> None:
        fs = self.fs
        live = fs.inodes.live_inodes()
        gids, counts = np.unique(fs.inodes.gid[live], return_counts=True)
        for gid, count in zip(gids, counts):
            if int(gid) == 0:  # the root directory's gid
                continue
            assert fs.quota.usage(int(gid)) == int(count)


TestFileSystemMachine = FileSystemMachine.TestCase
TestFileSystemMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
