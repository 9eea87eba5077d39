"""Parse pins for the four CLI verbs.

Flags several verbs share are declared once (parent parsers for the
simulation and analysis flags, one spec per run-control flag), so each
verb's namespace is pinned for an argv that sets no optional flag and for
one that sets every flag: a dest, type, default or choice that drifts for
one verb fails here.
"""

import pytest

from repro.core import cli

BUILDERS = {
    "repro": cli.build_parser,
    "ingest": cli.build_ingest_parser,
    "serve": cli.build_serve_parser,
    "synth": cli.build_synth_parser,
}

REPRO_DEFAULTS = {
    "allow_config_mismatch": False,
    "analyses": "all",
    "archive_dir": None,
    "burstiness_min_files": 10,
    "checkpoint": None,
    "engine_stats": False,
    "export_dir": None,
    "from_archive": None,
    "grace_seconds": 5.0,
    "incremental": False,
    "max_seconds": None,
    "memory_budget": None,
    "on_error": "raise",
    "parallel": False,
    "purge_window": 90,
    "scale": 2.5e-05,
    "scorecard": False,
    "seed": 2015,
    "start_method": None,
    "verbose": False,
    "weeks": 72,
}

INGEST_DEFAULTS = {
    "allow_config_mismatch": False,
    "allow_relative": False,
    "analyses": "all",
    "analyze": False,
    "checkpoint": None,
    "chunk_records": None,
    "keep_duplicate_paths": False,
    "max_bad_ratio": None,
    "max_bad_records": None,
    "max_seconds": None,
    "memory_budget": None,
    "on_error": "quarantine",
    "ost_count": None,
    "out": "o",
    "purge_window": 90,
    "seed": 2015,
    "sources": ["t.psv"],
}

SERVE_DEFAULTS = {
    "allow_config_mismatch": False,
    "analyses": "all",
    "archive": "arch",
    "breaker_cooldown": 2.0,
    "breaker_threshold": 3,
    "follow": False,
    "grace_seconds": 5.0,
    "host": "127.0.0.1",
    "max_inflight": 4,
    "memory_budget": None,
    "poll_interval": 2.0,
    "port": 8765,
    "purge_window": 90,
    "queue_depth": 8,
    "request_timeout": 10.0,
    "scale": 2.5e-05,
    "seed": 2015,
    "tenant_limit": 64,
    "tenant_window": 1.0,
    "weeks": 72,
}

SYNTH_DEFAULTS = {
    "grace_seconds": 5.0,
    "max_attempts": 3,
    "max_seconds": None,
    "on_error": "raise",
    "out": "o",
    "purge_window": 90,
    "scale": 2.5e-05,
    "seed": 2015,
    "shard_max_seconds": None,
    "shards": 4,
    "stall_timeout": 30.0,
    "start_method": None,
    "users": 1362,
    "verbose": False,
    "weeks": 72,
    "workers": 0,
}

CASES = {
    "repro-defaults": ("repro", [], REPRO_DEFAULTS),
    "repro-every-flag": (
        "repro",
        [
            "--seed", "7", "--scale", "1e-6", "--weeks", "6",
            "--purge-window", "30", "--parallel", "--start-method", "spawn",
            "--archive-dir", "arch", "--from-archive", "src",
            "--on-error", "skip", "--checkpoint", "ck.j", "--incremental",
            "--max-seconds", "12.5", "--memory-budget", "512M",
            "--grace-seconds", "2", "--allow-config-mismatch",
            "--export-dir", "csv", "--analyses", "growth,access",
            "--engine-stats", "--burstiness-min-files", "3", "--scorecard",
            "--verbose",
        ],
        {
            "allow_config_mismatch": True,
            "analyses": "growth,access",
            "archive_dir": "arch",
            "burstiness_min_files": 3,
            "checkpoint": "ck.j",
            "engine_stats": True,
            "export_dir": "csv",
            "from_archive": "src",
            "grace_seconds": 2.0,
            "incremental": True,
            "max_seconds": 12.5,
            "memory_budget": "512M",
            "on_error": "skip",
            "parallel": True,
            "purge_window": 30,
            "scale": 1e-06,
            "scorecard": True,
            "seed": 7,
            "start_method": "spawn",
            "verbose": True,
            "weeks": 6,
        },
    ),
    "repro-serial-quarantine": (
        "repro",
        ["--start-method", "serial", "--on-error", "quarantine"],
        {**REPRO_DEFAULTS, "start_method": "serial", "on_error": "quarantine"},
    ),
    "ingest-defaults": ("ingest", ["t.psv", "--out", "o"], INGEST_DEFAULTS),
    "ingest-every-flag": (
        "ingest",
        [
            "a.psv", "b.psv.gz", "--out", "o", "--on-error", "skip",
            "--checkpoint", "ck", "--chunk-records", "100",
            "--max-bad-records", "5", "--max-bad-ratio", "0.25",
            "--ost-count", "32", "--allow-relative", "--keep-duplicate-paths",
            "--max-seconds", "9", "--memory-budget", "2G", "--analyze",
            "--analyses", "census", "--seed", "3", "--purge-window", "60",
            "--allow-config-mismatch",
        ],
        {
            "allow_config_mismatch": True,
            "allow_relative": True,
            "analyses": "census",
            "analyze": True,
            "checkpoint": "ck",
            "chunk_records": 100,
            "keep_duplicate_paths": True,
            "max_bad_ratio": 0.25,
            "max_bad_records": 5,
            "max_seconds": 9.0,
            "memory_budget": "2G",
            "on_error": "skip",
            "ost_count": 32,
            "out": "o",
            "purge_window": 60,
            "seed": 3,
            "sources": ["a.psv", "b.psv.gz"],
        },
    ),
    "ingest-raise": (
        "ingest",
        ["dir", "--out", "o", "--on-error", "raise"],
        {**INGEST_DEFAULTS, "sources": ["dir"], "on_error": "raise"},
    ),
    "serve-defaults": ("serve", ["arch"], SERVE_DEFAULTS),
    "serve-every-flag": (
        "serve",
        [
            "arch", "--host", "0.0.0.0", "--port", "0", "--max-inflight", "2",
            "--queue-depth", "3", "--request-timeout", "4.5",
            "--grace-seconds", "1.5", "--memory-budget", "64M",
            "--tenant-limit", "0", "--tenant-window", "2",
            "--breaker-threshold", "5", "--breaker-cooldown", "0.5",
            "--analyses", "users", "--seed", "1", "--scale", "1e-6",
            "--weeks", "6", "--purge-window", "45", "--allow-config-mismatch",
            "--follow", "--poll-interval", "0.25",
        ],
        {
            "allow_config_mismatch": True,
            "analyses": "users",
            "archive": "arch",
            "breaker_cooldown": 0.5,
            "breaker_threshold": 5,
            "follow": True,
            "grace_seconds": 1.5,
            "host": "0.0.0.0",
            "max_inflight": 2,
            "memory_budget": "64M",
            "poll_interval": 0.25,
            "port": 0,
            "purge_window": 45,
            "queue_depth": 3,
            "request_timeout": 4.5,
            "scale": 1e-06,
            "seed": 1,
            "tenant_limit": 0,
            "tenant_window": 2.0,
            "weeks": 6,
        },
    ),
    "synth-defaults": ("synth", ["--out", "o"], SYNTH_DEFAULTS),
    "synth-every-flag": (
        "synth",
        [
            "--out", "o", "--shards", "8", "--workers", "2",
            "--start-method", "fork", "--seed", "1", "--scale", "3e-5",
            "--weeks", "3", "--users", "20000", "--purge-window", "14",
            "--max-attempts", "5", "--stall-timeout", "7",
            "--shard-max-seconds", "60", "--on-error", "quarantine",
            "--max-seconds", "300", "--grace-seconds", "0", "--verbose",
        ],
        {
            "grace_seconds": 0.0,
            "max_attempts": 5,
            "max_seconds": 300.0,
            "on_error": "quarantine",
            "out": "o",
            "purge_window": 14,
            "scale": 3e-05,
            "seed": 1,
            "shard_max_seconds": 60.0,
            "shards": 8,
            "stall_timeout": 7.0,
            "start_method": "fork",
            "users": 20000,
            "verbose": True,
            "weeks": 3,
            "workers": 2,
        },
    ),
    "synth-forkserver-skip": (
        "synth",
        ["--out", "o", "--start-method", "forkserver", "--on-error", "skip"],
        {**SYNTH_DEFAULTS, "start_method": "forkserver", "on_error": "skip"},
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_parse_pins(case):
    verb, argv, expected = CASES[case]
    assert vars(BUILDERS[verb]().parse_args(argv)) == expected


def test_max_task_failures_flag_is_gone(capsys):
    """``on_error`` alone arms the breaker; the attempt-count flag is gone."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["--from-archive", "arch", "--max-task-failures", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
