"""The benchmark's own arithmetic: percentiles, self time, open-loop latency.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.loadgen import Request, run_open_loop  # noqa: E402
from perfbench.stats import min_samples, percentile, quartile_spread  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    LAYER_METRICS,
    Span,
    Tracer,
    covered,
    install,
    self_times,
)


# -- percentiles ---------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    assert min_samples(50) == 20
    assert min_samples(90) == 100
    assert min_samples(99) == 1000
    with pytest.raises(ValueError):
        percentile(range(999), 99)
    with pytest.raises(ValueError):
        percentile(range(99), 90)
    with pytest.raises(ValueError):
        percentile(range(19), 50)


def test_percentile_is_nearest_rank():
    assert percentile(range(1000), 99) == 989
    assert percentile(range(1, 101), 90) == 90
    assert percentile(list(reversed(range(20))), 50) == 9


def test_quartile_spread_matches_statistics_quantiles():
    values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    q1, q2, q3 = 11.75, 14.5, 17.25  # the default 'exclusive' method
    assert quartile_spread(values) == pytest.approx((q3 - q1) / q2)


# -- self time -----------------------------------------------------------------


def _span(name, sid, parent, start, end, pid=1, tid=1):
    return Span(name, sid, parent, start, end, pid, tid)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("root", 1, None, 0.0, 10.0),
        _span("child", 2, 1, 1.0, 4.0),
        _span("grandchild", 3, 2, 2.0, 3.0),
        _span("child", 4, 1, 5.0, 6.0),
        # same parent id, other process (a forked worker): runs concurrently,
        # so it must not be subtracted from the parent's self time
        _span("worker", 7, 1, 0.0, 9.0, pid=2),
    ]
    selfs = self_times(spans)
    assert selfs["root"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs["child"] == pytest.approx((3.0 - 1.0) + 1.0)
    assert selfs["grandchild"] == pytest.approx(1.0)
    assert selfs["worker"] == pytest.approx(9.0)


def test_covered_is_the_union_of_spans_in_the_window():
    spans = [
        _span("a", 1, None, 0.0, 2.0),
        _span("b", 2, 1, 0.5, 1.0),
        _span("c", 1, None, 1.5, 3.0, pid=2),
        _span("d", 3, None, 5.0, 9.0),
    ]
    assert covered(spans, 0.0, 6.0) == pytest.approx(3.0 + 1.0)
    assert covered(spans, 1.0, 2.5) == pytest.approx(1.5)


def test_wrapped_calls_nest_and_generators_span_each_step():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    traced_inner = tracer.wrap(inner, "inner")

    def outer():
        traced_inner()
        time.sleep(0.01)

    def weeks(n):
        for i in range(n):
            traced_inner()
            yield i

    tracer.wrap(outer, "outer")()
    assert list(tracer.wrap_generator(weeks, "step")(3)) == [0, 1, 2]
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    outer_span = by_name["outer"][0]
    assert by_name["inner"][0].parent == outer_span.id
    assert len(by_name["step"]) == 4  # three items plus the exhausting resume
    assert all(s.parent in {t.id for t in by_name["step"]} for s in by_name["inner"][1:])
    selfs = self_times(tracer.spans)
    assert selfs["outer"] == pytest.approx(0.01, abs=0.008)
    assert selfs["step"] < 0.01


def test_install_patches_every_alias_and_uninstall_restores():
    import repro.analysis.network as network
    import repro.graph as graph
    import repro.graph.centrality as centrality
    import repro.graph.traversal as traversal

    original = traversal.bfs_distances
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        assert traversal.bfs_distances is not original
        assert graph.bfs_distances is traversal.bfs_distances
        assert centrality.bfs_distances is traversal.bfs_distances
        assert network.closeness_centrality is centrality.closeness_centrality
        from repro.graph.core import Graph
        import numpy as np

        g = Graph.from_edges(3, np.array([[0, 1], [1, 2]], dtype=np.int64))
        network.closeness_centrality(g)
        names = [s.name for s in tracer.spans]
        assert names.count("graph.bfs") == 3 and names[-1] == "graph.closeness"
        assert sum(s.attrs.get("graph.bfs_calls", 0) for s in tracer.spans) == 3
    finally:
        uninstall()
    assert traversal.bfs_distances is original
    assert centrality.bfs_distances is original


# -- open-loop latency ---------------------------------------------------------


def _fake_connection(service_s):
    def send(path):
        time.sleep(service_s)
        return 200, path.encode()

    return send


def test_open_loop_latency_counts_the_wait_for_a_connection():
    schedule = [Request(0.0, "a", "/a"), Request(0.0, "b", "/b"), Request(0.3, "c", "/c")]
    start, outcomes = run_open_loop(
        schedule, lambda: _fake_connection(0.05), connections=1
    )
    first, second, third = outcomes
    assert first.due == second.due == start
    # lower bounds are exact (sleep never returns early); upper bounds only
    # guard against a wrong clock, since a busy host may run late
    assert 0.05 <= first.latency < 0.25
    # due together, one connection: the second waits out the first
    assert second.conn_wait >= first.latency - 0.01
    assert second.latency >= second.conn_wait + 0.05
    # an idle connection sends on schedule: no wait, latency is service time
    assert third.conn_wait == 0.0
    assert 0.05 <= third.latency < 0.25
    assert [o.body for o in outcomes] == [b"/a", b"/b", b"/c"]


def test_open_loop_records_send_errors():
    def connect():
        def send(path):
            raise ConnectionResetError("gone")

        return send

    _, outcomes = run_open_loop([Request(0.0, "a", "/a")], connect, connections=2)
    assert outcomes[0].status is None and "ConnectionResetError" in outcomes[0].error


# -- the contract file ---------------------------------------------------------


def test_benchmark_json_names_what_the_runner_reports():
    from perfbench.run import END_TO_END

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [unit for _, unit in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(metric) for metric in LAYER_METRICS
    ]
    assert {w["name"] for w in spec["workloads"]} == {
        "reproduce", "serve-mixed", "publish-week", "shard-merge"
    }
