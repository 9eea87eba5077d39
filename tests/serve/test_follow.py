"""Live-follower acceptance: track a growing archive under traffic.

The contract (DESIGN.md §14): a writer appends snapshots with the atomic
publish protocol (data + sidecar first, generation-bumped manifest last);
the follower notices the new generation off the request path, replays the
``.rpd`` deltas through the kernel ``update()`` protocol, and atomically
swaps aggregates + ETag.  Every post-swap figure must be byte-identical
to a cold analysis of the same prefix, swaps must load zero snapshots for
any analysis selection, and clients must never see a 500 — only the typed
ladder.
"""

import threading
import time
import warnings

import pytest

from repro.core.pipeline import ReproPipeline, analyze_archive
from repro.scan.delta import sidecar_path
from repro.serve.follower import ArchiveFollower
from repro.serve.server import AnalysisServer, ServerConfig
from repro.serve.service import ArchiveService, CircuitBreaker
from repro.serve.testing import BackgroundServer
from repro.testing.faults import bit_flip, torn_publish

from .conftest import TINY

#: the analyses most swaps here serve (every selection replays with zero
#: loads; the all-analyses swap has its own test)
FOLLOW_ANALYSES = "census,access,growth,users,ages,depth"


@pytest.fixture(scope="module")
def sim():
    pipeline = ReproPipeline(TINY)
    pipeline.simulate()
    return pipeline


@pytest.fixture(scope="module")
def n_weeks(sim):
    return len(list(sim.simulation.collection))


@pytest.fixture(scope="module")
def cold_full_text(sim, tmp_path_factory):
    """A cold, non-incremental analysis of the complete archive."""
    directory = tmp_path_factory.mktemp("cold-full")
    sim.archive(directory)
    _, report = analyze_archive(
        directory, config=TINY, analyses=FOLLOW_ANALYSES
    )
    return report.text


@pytest.fixture
def growing(sim, n_weeks, tmp_path):
    """A service warmed over the first n-1 snapshots, incremental mode on."""
    sim.archive(tmp_path, max_snapshots=n_weeks - 1)
    service = ArchiveService(
        tmp_path, config=TINY, analyses=FOLLOW_ANALYSES, incremental=True
    )
    service.warm()
    return service, tmp_path


def _server(service, **overrides):
    overrides.setdefault("tenant_limit", None)
    overrides.setdefault("grace_seconds", 2.0)
    return AnalysisServer(service, ServerConfig(port=0, **overrides))


def _wait_for_generation(service, generation, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while service.generation < generation and time.monotonic() < deadline:
        time.sleep(0.02)
    return service.generation


def test_swap_is_byte_identical_with_zero_snapshot_loads(
    growing, sim, n_weeks, cold_full_text
):
    service, directory = growing
    follower = ArchiveFollower(service, poll_interval_s=60.0)
    assert follower.poll_once() == "idle"
    etag_before = service.etag

    sim.archive(directory, max_snapshots=n_weeks, skip_existing=True)
    assert follower.poll_once() == "swapped"

    assert service.generation == 2
    assert service.etag != etag_before
    assert service.report_text().decode() == cold_full_text
    info = service.warm_info()
    assert info["generation"] == 2
    assert info["snapshot_loads"] == 0, "swap re-loaded a snapshot"
    assert info["delta_kernels"] > 0
    assert follower.stats.swaps == 1
    assert follower.stats.last_generation == 2
    assert follower.stats.last_staleness_s is not None
    # idempotent: nothing new published, nothing to do
    assert follower.poll_once() == "idle"


def test_swap_with_worker_pool_replays_without_loads(
    sim, n_weeks, tmp_path, cold_full_text
):
    """processes>1 exercises the fork/spawn matrix in the live-follow job."""
    sim.archive(tmp_path, max_snapshots=n_weeks - 1)
    service = ArchiveService(
        tmp_path, config=TINY, analyses=FOLLOW_ANALYSES,
        incremental=True, processes=2,
    )
    service.warm()
    follower = ArchiveFollower(service, poll_interval_s=60.0)
    sim.archive(tmp_path, max_snapshots=n_weeks, skip_existing=True)
    assert follower.poll_once() == "swapped"
    assert service.report_text().decode() == cold_full_text
    assert service.warm_info()["snapshot_loads"] == 0


def test_all_analyses_swap_matches_a_cold_warm_with_zero_loads(
    sim, n_weeks, tmp_path, tmp_path_factory
):
    """Every §4 kernel replays: an ``analyses=None`` swap loads nothing,
    warns nothing, and serves what a cold warm of the same window serves."""
    sim.archive(tmp_path, max_snapshots=n_weeks - 1)
    service = ArchiveService(
        tmp_path, config=TINY, analyses=None, incremental=True
    )
    service.warm()
    follower = ArchiveFollower(service, poll_interval_s=60.0)
    sim.archive(tmp_path, max_snapshots=n_weeks, skip_existing=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert follower.poll_once() == "swapped"
    assert [str(w.message) for w in caught] == []
    info = service.warm_info()
    assert info["snapshot_loads"] == 0, "swap re-loaded a snapshot"
    assert info["delta_kernels"] == 8

    cold_dir = tmp_path_factory.mktemp("cold-all")
    sim.archive(cold_dir)
    cold = ArchiveService(cold_dir, config=TINY, analyses=None)
    cold.warm()
    assert service.report_text() == cold.report_text()
    assert service.figure_names() == cold.figure_names()
    for name in cold.figure_names():
        assert service.figure(name) == cold.figure(name), name


def test_torn_publish_never_moves_the_served_window(growing, sim, n_weeks):
    service, directory = growing
    follower = ArchiveFollower(service, poll_interval_s=60.0)

    with torn_publish(directory):
        sim.archive(directory, max_snapshots=n_weeks, skip_existing=True)
    # stray .rpq/.rpd files landed, but the commit point (the manifest)
    # never moved: the follower must not pick them up
    assert len(list(directory.glob("*.rpq"))) == n_weeks
    assert follower.poll_once() == "idle"
    assert service.generation == 1

    # the writer retries; atomic per-file writes make this a pure
    # manifest commit, and the follower catches up
    sim.archive(directory, max_snapshots=n_weeks, skip_existing=True)
    assert follower.poll_once() == "swapped"
    assert service.generation == 2


def test_corrupt_sidecar_swap_repairs_warned_not_silent(
    growing, sim, n_weeks, cold_full_text
):
    service, directory = growing
    follower = ArchiveFollower(service, poll_interval_s=60.0)
    sim.archive(directory, max_snapshots=n_weeks, skip_existing=True)

    label = [s.label for s in sim.simulation.collection][-1]
    victim = sidecar_path(directory, label)
    bit_flip(victim, victim.stat().st_size // 2, bit=4)

    with pytest.warns(RuntimeWarning, match="recomputing"):
        assert follower.poll_once() == "swapped"
    assert service.generation == 2
    assert service.report_text().decode() == cold_full_text
    assert service.breaker.state == "closed"


def test_stale_header_surfaces_without_a_follower(sim, n_weeks, tmp_path):
    sim.archive(tmp_path, max_snapshots=n_weeks - 1)
    service = ArchiveService(tmp_path, config=TINY, analyses=FOLLOW_ANALYSES)
    service.warm()
    name = service.figure_names()[0]

    with BackgroundServer(_server(service)) as bg:
        fresh = bg.request(f"/v1/figures/{name}")
        assert fresh.status == 200
        assert "x-archive-stale" not in fresh.headers

        sim.archive(tmp_path, max_snapshots=n_weeks, skip_existing=True)
        stale = bg.request(f"/v1/figures/{name}")
        assert stale.status == 200  # still serves — the header is a hint
        assert stale.headers["x-archive-stale"] == "2"

        assert service.refresh()  # operator re-warms; the hint clears
        cleared = bg.request(f"/v1/figures/{name}")
        assert cleared.status == 200
        assert "x-archive-stale" not in cleared.headers


def test_revalidation_probe_returns_while_rewarm_runs_in_background(
    sim, n_weeks, tmp_path
):
    sim.archive(tmp_path, max_snapshots=n_weeks - 1)
    breaker = CircuitBreaker(threshold=1, cooldown_s=0.0)
    service = ArchiveService(
        tmp_path, config=TINY, analyses=FOLLOW_ANALYSES,
        breaker=breaker, incremental=True,
    )
    service.warm()
    first_warm_s = service.warm_info()["warm_seconds"]

    sim.archive(tmp_path, max_snapshots=n_weeks, skip_existing=True)
    breaker.record_failure()  # tripped: the next request probes half-open
    assert breaker.state == "open"

    t0 = time.monotonic()
    service.maybe_revalidate()  # digest changed → kicks an async re-warm
    probe_s = time.monotonic() - t0
    # the probe itself never pays for the rebuild
    assert probe_s < max(0.5, first_warm_s / 2)

    assert _wait_for_generation(service, 2) == 2
    deadline = time.monotonic() + 30.0
    while service.rewarm_requested and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not service.rewarm_requested
    assert breaker.state == "closed"


def test_storm_while_writer_appends_yields_only_typed_statuses(
    growing, sim, n_weeks, cold_full_text
):
    service, directory = growing
    follower = ArchiveFollower(service, poll_interval_s=0.05)
    server = _server(
        service, max_inflight=4, queue_depth=2, request_timeout_s=30.0
    )
    name = service.figure_names()[0]
    domain = service.context.domain_codes[0]
    n_clients = 16
    replies = [[] for _ in range(n_clients)]
    stop = threading.Event()

    with BackgroundServer(server) as bg:
        follower.start()
        try:
            barrier = threading.Barrier(n_clients + 1, timeout=30.0)

            def hammer(i):
                barrier.wait()
                path = f"/v1/figures/{name}" if i % 2 else f"/v1/slice/domain/{domain}"
                while not stop.is_set():
                    replies[i].append(bg.request(path, timeout=60.0))

            threads = [
                threading.Thread(target=hammer, args=(i,))
                for i in range(n_clients)
            ]
            for t in threads:
                t.start()
            barrier.wait()  # storm is live; publish mid-flight
            sim.archive(directory, max_snapshots=n_weeks, skip_existing=True)
            assert _wait_for_generation(service, 2) == 2
            stop.set()
            for t in threads:
                t.join(timeout=90.0)
            assert not any(t.is_alive() for t in threads), "hung client"
        finally:
            follower.stop()

    flat = [r for batch in replies for r in batch]
    assert flat
    # the full ladder is allowed — sheds during the swap included — but
    # nothing untyped
    assert {r.status for r in flat} <= {200, 429}
    for shed in (r for r in flat if r.status == 429):
        assert shed.json()["error"] in ("shed_queue", "shed_memory")
    assert 500 not in server.stats.responses
    assert service.generation == 2
    assert service.report_text().decode() == cold_full_text
    assert service.warm_info()["snapshot_loads"] == 0
    assert follower.stats.swaps >= 1
