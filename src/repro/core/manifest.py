"""Archive manifest: inventory, accounts record and config fingerprint.

The manifest is the archive's commit point: JSON written atomically next
to the snapshots, *last*, with a monotonically increasing ``generation``.
It lists every published ``.rpq`` (``snapshots``) and the
``accounts.json`` member (``accounts``: file, bytes, CRC32 and counts —
see :mod:`repro.core.accounts`) that ``analyze_archive()`` joins the
snapshots against.  Archives written before the member existed, and
``repro ingest`` archives, list none; ``analyze_archive()`` then
regenerates the population from the caller's
:class:`~repro.synth.driver.SimulationConfig`.

The manifest also records the config fingerprint (seed, ``n_users``, and
the purge window an age analysis is judged against).  A caller whose seed
or purge window differs gets a typed
:class:`~repro.scan.errors.ArchiveConfigError` — with an explicit override
for intentional mismatches (e.g. re-judging ages against a different purge
window on purpose).  ``n_users`` is compared only when the manifest lists
no accounts member: an archive with one joins against its own accounts.
Archives produced before manifests existed simply have none; validation
then warns and proceeds (there is nothing to validate against).
"""

from __future__ import annotations

import json
import time
import warnings
from pathlib import Path

from repro.core.durable import atomic_write
from repro.scan.errors import ArchiveConfigError

MANIFEST_NAME = "manifest.json"
FORMAT = "repro-archive/1"

#: Config fields whose mismatch makes analysis results silently wrong.
FINGERPRINT_FIELDS = ("seed", "n_users", "purge_window_days")


def config_fingerprint(config) -> dict:
    """The identity-defining subset of a SimulationConfig, as plain JSON."""
    return {name: getattr(config, name) for name in FINGERPRINT_FIELDS}


def manifest_generation(directory: str | Path) -> int:
    """The archive's publish generation: 0 when absent or unreadable.

    Readers poll this to learn that a writer committed a new snapshot set;
    because the manifest is the *last* thing a publish writes (via
    ``atomic_write``), a generation bump guarantees every file it lists is
    complete on disk.  Pre-generation manifests and torn/missing manifests
    both read as 0 — "nothing published yet" — so followers never act on a
    half-published archive.
    """
    path = Path(directory) / MANIFEST_NAME
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        return int(manifest.get("generation", 0))
    except (OSError, ValueError, TypeError, AttributeError):
        return 0


def write_manifest(
    directory: str | Path,
    config,
    snapshots: list[dict] | None = None,
    extra: dict | None = None,
    generation: int | None = None,
    accounts: dict | None = None,
) -> Path:
    """Write (atomically) the archive manifest; returns its path.

    ``snapshots`` is an optional list of ``{"label", "file", "rows"}``
    records for operator-facing inventory; the fingerprint is what
    validation consumes.  ``accounts`` is the record
    :func:`~repro.core.accounts.write_accounts` returned for the member
    already on disk; the manifest lists it under ``accounts``.  ``extra``
    merges additional provenance sections into the manifest (e.g. the
    ``ingest`` summary for archives built from foreign traces); it may not
    shadow the reserved keys.

    Every manifest carries a monotonically increasing ``generation``.  By
    default it is the prior manifest's generation + 1, so each publish —
    data and sidecars fsynced first, manifest committed last — is fenced:
    a reader that observes generation N can trust every file the manifest
    lists.  Pass ``generation`` explicitly to pin it (tests, replication).
    """
    directory = Path(directory)
    if generation is None:
        generation = manifest_generation(directory) + 1
    manifest = {
        "format": FORMAT,
        "config": config_fingerprint(config),
        "scale": config.scale,
        "weeks": config.weeks,
        "generation": int(generation),
        "snapshots": snapshots or [],
        "created_unix": int(time.time()),
    }
    if accounts is not None:
        manifest["accounts"] = accounts
    if extra:
        clash = set(extra) & (set(manifest) | {"accounts"})
        if clash:
            raise ValueError(
                f"manifest extra section(s) {sorted(clash)} shadow reserved keys"
            )
        manifest.update(extra)
    path = directory / MANIFEST_NAME
    with atomic_write(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return path


def load_manifest(directory: str | Path) -> dict | None:
    """The parsed manifest, or None when the archive predates manifests."""
    path = Path(directory) / MANIFEST_NAME
    if not path.exists():
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ArchiveConfigError(
            path, {"manifest": (f"unreadable ({exc})", "valid JSON")}
        ) from exc
    if not isinstance(manifest, dict) or "config" not in manifest:
        raise ArchiveConfigError(
            path, {"manifest": ("missing 'config' fingerprint", "present")}
        )
    return manifest


def validate_manifest(
    directory: str | Path, config, allow_mismatch: bool = False
) -> dict | None:
    """Check the caller's config against the archive's fingerprint.

    Raises :class:`ArchiveConfigError` on mismatch unless
    ``allow_mismatch`` (then a RuntimeWarning is emitted instead);
    ``n_users`` counts only for an archive without an accounts member.  A
    missing manifest warns and returns None — old archives keep working,
    but without protection.
    """
    manifest = load_manifest(directory)
    if manifest is None:
        warnings.warn(
            f"archive {directory} has no {MANIFEST_NAME}: cannot verify the "
            "config fingerprint (seed/n_users/purge window) — results are "
            "wrong if they differ from the producing run",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    recorded = manifest["config"]
    requested = config_fingerprint(config)
    mismatches = {
        key: (recorded.get(key), requested[key])
        for key in FINGERPRINT_FIELDS
        if recorded.get(key) != requested[key]
        and not (key == "n_users" and "accounts" in manifest)
    }
    if mismatches:
        err = ArchiveConfigError(Path(directory) / MANIFEST_NAME, mismatches)
        if not allow_mismatch:
            raise err
        warnings.warn(str(err), RuntimeWarning, stacklevel=3)
    return manifest
