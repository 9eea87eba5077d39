"""The archive's accounts member: the population its snapshots join against.

The paper joins every snapshot against the centre's accounts database
(Figure 5: org type and science domain per UID; §4.3: project
memberships per GID).  An archive carries that table as one member,
``accounts.json``, written atomically next to the snapshots and listed in
the manifest with its size and CRC32, so ``analyze_archive`` reads the
accounts the archive was made with instead of regenerating a population
from the caller's seed.

The body is compact JSON::

    {"seed": S,
     "users": [[uid, org_type, primary_domain, role, [gid, ...]], ...],
     "projects": [[gid, name, domain, core, [uid, ...]], ...]}

with users and projects in the population's dict insertion order and
every list in its original order — the analyses iterate
``population.users`` and ``population.projects`` in order, so the rebuilt
:class:`~repro.synth.population.Population` must equal the generated one
exactly, order included.  The CRC32 is the member's content id.

A damaged member is never silently used: :func:`read_accounts` checks the
size, the CRC32, the shape and type of every row and the counts, and any
mismatch (or a listed member missing from disk) raises
:class:`~repro.scan.errors.CorruptSnapshotError` naming the file.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

from repro.core.durable import atomic_write
from repro.scan.errors import CorruptSnapshotError
from repro.synth.population import Population, ProjectRecord, UserRecord

ACCOUNTS_NAME = "accounts.json"

#: Fields of the manifest's ``accounts`` record, all non-negative ints
#: except ``file``.
_RECORD_COUNTS = ("bytes", "crc32", "users", "projects")


#: Row layouts by element type; the last element is a list of ints.
#: uid, org_type, primary_domain, role, project gids
_USER_ROW = (int, str, str, str, list)
#: gid, name, domain, core, member uids
_PROJECT_ROW = (int, str, str, bool, list)
_INTS = {int}


def _encode(population: Population) -> bytes:
    """The member body for ``population`` (deterministic bytes)."""
    doc = {
        "seed": int(population.seed),
        "users": [
            [u.uid, u.org_type, u.primary_domain, u.role, u.projects]
            for u in population.users.values()
        ],
        "projects": [
            [p.gid, p.name, p.domain, p.core, p.members]
            for p in population.projects.values()
        ],
    }
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def _valid_record(record) -> bool:
    return (
        type(record) is dict
        and record.get("file") == ACCOUNTS_NAME
        and all(
            type(record.get(key)) is int and record[key] >= 0
            for key in _RECORD_COUNTS
        )
    )


def _member_matches(path: Path, record) -> bool:
    """True when the member on disk has the size and CRC32 ``record`` lists."""
    if not _valid_record(record):
        return False
    try:
        if path.stat().st_size != record["bytes"]:
            return False
        return zlib.crc32(path.read_bytes()) == record["crc32"]
    except FileNotFoundError:
        return False


def write_accounts(
    directory: str | Path, population: Population, reuse: dict | None = None
) -> dict:
    """Write ``accounts.json`` atomically; returns its manifest record.

    The record is ``{"file", "bytes", "crc32", "users", "projects"}``.
    ``reuse`` is the record a previous publish listed for this same
    population: while the member on disk still has its recorded size and
    CRC32 it is returned as is and nothing is written, so an append
    publish leaves the member alone (a damaged member is rewritten).
    """
    path = Path(directory) / ACCOUNTS_NAME
    if reuse is not None and _member_matches(path, reuse):
        return reuse
    body = _encode(population)
    with atomic_write(path) as fh:
        fh.write(body)
    return {
        "file": ACCOUNTS_NAME,
        "bytes": len(body),
        "crc32": zlib.crc32(body),
        "users": len(population.users),
        "projects": len(population.projects),
    }


def _check_rows(path: Path, rows, shape: tuple, what: str) -> None:
    if type(rows) is not list:
        raise CorruptSnapshotError(path, f"accounts {what} is not a list")
    for i, row in enumerate(rows):
        # exact types: a JSON ``true`` is a bool, never an int id
        if (
            type(row) is not list
            or tuple(map(type, row)) != shape
            or not set(map(type, row[-1])) <= _INTS
        ):
            raise CorruptSnapshotError(
                path, f"accounts {what} row {i} is malformed: {row!r:.80}"
            )


def read_accounts(directory: str | Path, record: dict) -> Population:
    """Rebuild the population from the member the manifest ``record`` lists.

    Checks the size, then the CRC32, then every row's shape and types,
    then the user and project counts; any mismatch raises
    :class:`~repro.scan.errors.CorruptSnapshotError` naming the file, as
    does a listed member that is missing from disk.
    """
    path = Path(directory) / ACCOUNTS_NAME
    if not _valid_record(record):
        raise CorruptSnapshotError(
            path, f"the manifest's accounts record is malformed: {record!r:.120}"
        )
    try:
        data = path.read_bytes()
    except FileNotFoundError as exc:
        raise CorruptSnapshotError(
            path, "accounts member listed in the manifest is missing on disk"
        ) from exc
    if len(data) != record["bytes"]:
        raise CorruptSnapshotError(
            path,
            f"accounts member is {len(data)} bytes, the manifest records "
            f"{record['bytes']}",
        )
    crc = zlib.crc32(data)
    if crc != record["crc32"]:
        raise CorruptSnapshotError(
            path,
            f"accounts member CRC32 {crc:#010x} != recorded "
            f"{record['crc32']:#010x}",
        )
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise CorruptSnapshotError(
            path, f"accounts member is not valid JSON ({exc})"
        ) from exc
    if (
        type(doc) is not dict
        or set(doc) != {"seed", "users", "projects"}
        or type(doc["seed"]) is not int
    ):
        raise CorruptSnapshotError(
            path, "accounts member lacks the seed/users/projects layout"
        )
    _check_rows(path, doc["users"], _USER_ROW, "users")
    _check_rows(path, doc["projects"], _PROJECT_ROW, "projects")
    # positional, in dataclass field order (cheaper than keywords)
    users = {
        uid: UserRecord(uid, org, domain, gids, role)
        for uid, org, domain, role, gids in doc["users"]
    }
    projects = {
        gid: ProjectRecord(gid, name, domain, core, members)
        for gid, name, domain, core, members in doc["projects"]
    }
    counts = (len(users), len(projects))
    if counts != (len(doc["users"]), len(doc["projects"])) or counts != (
        record["users"], record["projects"]
    ):
        raise CorruptSnapshotError(
            path,
            f"accounts member holds {counts[0]} users / {counts[1]} projects "
            f"from {len(doc['users'])} / {len(doc['projects'])} rows; the "
            f"manifest records {record['users']} / {record['projects']}",
        )
    return Population(users=users, projects=projects, seed=doc["seed"])
