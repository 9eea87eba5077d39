"""Archive manifest suite: the config-fingerprint guard.

A seed or purge-window mismatch — and, for an archive without an accounts
member, whose population ``analyze_archive()`` regenerates from the
caller's config, an ``n_users`` mismatch — used to produce silently wrong
per-domain joins.  The manifest written by ``archive()`` turns that into a
typed :class:`ArchiveConfigError` with an explicit override.
"""

import json

import pytest

from repro.core.manifest import (
    FINGERPRINT_FIELDS,
    MANIFEST_NAME,
    config_fingerprint,
    load_manifest,
    validate_manifest,
    write_manifest,
)
from repro.core.pipeline import ReproPipeline, analyze_archive
from repro.scan.errors import ArchiveConfigError
from repro.synth.driver import SimulationConfig

TINY = SimulationConfig(
    seed=31, scale=1.5e-6, weeks=4, min_project_files=4, stress_depths=False
)


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    directory = tmp_path_factory.mktemp("arch")
    pipeline = ReproPipeline(TINY)
    pipeline.simulate()
    pipeline.archive(directory)
    return directory


def test_archive_writes_manifest(archive):
    manifest = load_manifest(archive)
    assert manifest is not None
    assert manifest["config"] == config_fingerprint(TINY)
    assert manifest["config"] == {
        "seed": 31, "n_users": TINY.n_users,
        "purge_window_days": TINY.purge_window_days,
    }
    # inventory: one record per archived snapshot, with row counts
    files = {r["file"] for r in manifest["snapshots"]}
    assert files == {p.name for p in archive.glob("*.rpq")}
    assert all(r["rows"] >= 0 and r["label"] for r in manifest["snapshots"])


def test_matching_config_validates_silently(archive, recwarn):
    assert validate_manifest(archive, TINY) is not None
    assert not [w for w in recwarn.list if "mismatch" in str(w.message)]


@pytest.fixture(scope="module")
def memberless(archive, tmp_path_factory):
    """The archive as written before the accounts member existed."""
    import shutil

    legacy = tmp_path_factory.mktemp("memberless") / "arch"
    shutil.copytree(archive, legacy)
    (legacy / "accounts.json").unlink()
    manifest = load_manifest(legacy)
    del manifest["accounts"]
    (legacy / MANIFEST_NAME).write_text(json.dumps(manifest))
    return legacy


def _with(field, value):
    return SimulationConfig(
        **{
            "seed": TINY.seed, "scale": TINY.scale, "weeks": TINY.weeks,
            "min_project_files": TINY.min_project_files,
            "stress_depths": False,
            field: value,
        }
    )


@pytest.mark.parametrize("field", FINGERPRINT_FIELDS)
def test_mismatch_raises_typed_error(archive, memberless, field):
    """Every field guards an archive without an accounts member; seed and
    purge window guard one with a member too (its joins never read
    ``n_users``: see the next test)."""
    bad = _with(field, getattr(TINY, field) + 1)
    targets = [memberless] if field == "n_users" else [archive, memberless]
    for target in targets:
        with pytest.raises(ArchiveConfigError) as err:
            validate_manifest(target, bad)
        assert field in err.value.mismatches
        assert field in str(err.value)
        assert "--allow-config-mismatch" in str(err.value) or \
            "allow_config_mismatch" in str(err.value)


def test_archive_with_accounts_member_ignores_requested_n_users(
    tmp_path_factory,
):
    """The joins use the archive's own accounts, so a 1,500-user archive
    analyzes under the default ``n_users`` exactly as under its own."""
    written = _with("n_users", 1500)
    directory = tmp_path_factory.mktemp("users1500")
    pipeline = ReproPipeline(written)
    pipeline.simulate()
    pipeline.archive(directory)

    default = _with("n_users", SimulationConfig().n_users)
    assert default.n_users != written.n_users
    assert validate_manifest(directory, default) is not None
    _, expected = analyze_archive(directory, config=written)
    _, report = analyze_archive(directory, config=default)
    assert report.text == expected.text
    with pytest.raises(ArchiveConfigError, match="seed"):
        analyze_archive(
            directory, config=_with("seed", TINY.seed + 1), analyses="growth"
        )


def test_mismatch_override_downgrades_to_warning(archive):
    bad = SimulationConfig(seed=TINY.seed + 1, scale=TINY.scale,
                           weeks=TINY.weeks)
    with pytest.warns(RuntimeWarning, match="config mismatch"):
        assert validate_manifest(archive, bad, allow_mismatch=True) is not None


def test_missing_manifest_warns_and_proceeds(archive, tmp_path):
    import shutil

    legacy = tmp_path / "legacy"
    shutil.copytree(archive, legacy)
    (legacy / MANIFEST_NAME).unlink()
    with pytest.warns(RuntimeWarning, match="no manifest.json"):
        assert validate_manifest(legacy, TINY) is None
    # analysis over a legacy archive still works (warned, not blocked)
    with pytest.warns(RuntimeWarning, match="no manifest.json"):
        _, report = analyze_archive(legacy, config=TINY, analyses="growth")
    assert "FIGURE 15" in report.text


def test_malformed_manifest_raises(tmp_path):
    tmp_path.joinpath(MANIFEST_NAME).write_text("{not json")
    with pytest.raises(ArchiveConfigError, match="unreadable"):
        load_manifest(tmp_path)
    tmp_path.joinpath(MANIFEST_NAME).write_text(json.dumps({"format": "x"}))
    with pytest.raises(ArchiveConfigError, match="config"):
        load_manifest(tmp_path)


def test_analyze_archive_enforces_fingerprint(archive):
    wrong_seed = SimulationConfig(seed=TINY.seed + 7, scale=TINY.scale,
                                  weeks=TINY.weeks)
    with pytest.raises(ArchiveConfigError):
        analyze_archive(archive, config=wrong_seed, analyses="growth")
    with pytest.warns(RuntimeWarning, match="config mismatch"):
        _, report = analyze_archive(
            archive, config=wrong_seed, analyses="growth",
            allow_config_mismatch=True,
        )
    assert "FIGURE 15" in report.text


def test_write_manifest_is_atomic_no_temp_left(tmp_path):
    write_manifest(tmp_path, TINY)
    leftovers = [p for p in tmp_path.iterdir() if p.name != MANIFEST_NAME]
    assert leftovers == []
    assert load_manifest(tmp_path)["format"] == "repro-archive/1"
