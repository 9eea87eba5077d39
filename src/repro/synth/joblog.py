"""Batch-scheduler job log — the paper's stated future work.

§7: "combining multiple system logs (e.g., job logs) and publication data
will allow more interesting insights for understanding user behavior".
This module supplies the job-log half: the workload behaviors emit a job
record for every write session (a simulation run on Titan) and every read
campaign (an analysis/visualization job on the Rhea-like clusters), so the
combined file-plus-job analyses in :mod:`repro.analysis.joblog` have a
ground-truth correspondence to correlate against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class JobKind(Enum):
    SIMULATION = 0  # bulk-producing runs on the big machine
    ANALYSIS = 1  # post-processing / visualization
    STAGING = 2  # data movement (HPSS transfers, cleanup)


@dataclass(frozen=True)
class JobRecord:
    job_id: int
    kind: JobKind
    uid: int
    gid: int
    nodes: int
    submit_time: int
    start_time: int
    end_time: int

    @property
    def runtime(self) -> int:
        return self.end_time - self.start_time

    @property
    def queue_wait(self) -> int:
        return self.start_time - self.submit_time

    @property
    def node_seconds(self) -> int:
        return self.nodes * self.runtime


class JobLog:
    """Append-only scheduler log, column-oriented."""

    def __init__(self) -> None:
        self._kind: list[int] = []
        self._uid: list[int] = []
        self._gid: list[int] = []
        self._nodes: list[int] = []
        self._submit: list[int] = []
        self._start: list[int] = []
        self._end: list[int] = []

    def submit(
        self,
        kind: JobKind,
        uid: int,
        gid: int,
        nodes: int,
        start_time: int,
        runtime: int,
        queue_wait: int = 0,
    ) -> JobRecord:
        if runtime <= 0:
            raise ValueError(f"runtime must be positive, got {runtime}")
        if nodes <= 0:
            raise ValueError(f"nodes must be positive, got {nodes}")
        job_id = len(self._kind)
        self._kind.append(kind.value)
        self._uid.append(int(uid))
        self._gid.append(int(gid))
        self._nodes.append(int(nodes))
        self._submit.append(int(start_time) - int(queue_wait))
        self._start.append(int(start_time))
        self._end.append(int(start_time) + int(runtime))
        return self[job_id]

    def __len__(self) -> int:
        return len(self._kind)

    def __getitem__(self, job_id: int) -> JobRecord:
        return JobRecord(
            job_id=job_id,
            kind=JobKind(self._kind[job_id]),
            uid=self._uid[job_id],
            gid=self._gid[job_id],
            nodes=self._nodes[job_id],
            submit_time=self._submit[job_id],
            start_time=self._start[job_id],
            end_time=self._end[job_id],
        )

    def to_table(self) -> dict[str, np.ndarray]:
        """Columnar view for the analysis layer: eight int64 columns of one
        length, whose rows are selected with boolean masks."""
        return {
            "job_id": np.arange(len(self._kind), dtype=np.int64),
            "kind": np.asarray(self._kind, dtype=np.int64),
            "uid": np.asarray(self._uid, dtype=np.int64),
            "gid": np.asarray(self._gid, dtype=np.int64),
            "nodes": np.asarray(self._nodes, dtype=np.int64),
            "submit": np.asarray(self._submit, dtype=np.int64),
            "start": np.asarray(self._start, dtype=np.int64),
            "end": np.asarray(self._end, dtype=np.int64),
        }


def sample_job_shape(
    kind: JobKind, rng: np.random.Generator, files_in_session: int = 0
) -> tuple[int, int, int]:
    """(nodes, runtime_s, queue_wait_s) with Titan-flavored distributions.

    Simulation jobs are large and long; analysis jobs are small and short;
    node counts correlate loosely with how much output the session writes.
    """
    if kind is JobKind.SIMULATION:
        base = max(files_in_session, 1)
        nodes = int(np.clip(rng.lognormal(np.log(16 + base / 50.0), 1.0), 1, 18_688))
        runtime = int(np.clip(rng.lognormal(np.log(2 * 3600), 0.8), 300, 24 * 3600))
        wait = int(rng.exponential(1800))
    elif kind is JobKind.ANALYSIS:
        nodes = int(np.clip(rng.lognormal(np.log(2), 0.7), 1, 512))
        runtime = int(np.clip(rng.lognormal(np.log(1200), 0.7), 60, 8 * 3600))
        wait = int(rng.exponential(300))
    else:  # STAGING
        nodes = 1
        runtime = int(np.clip(rng.lognormal(np.log(600), 0.5), 30, 4 * 3600))
        wait = int(rng.exponential(120))
    return nodes, runtime, wait
