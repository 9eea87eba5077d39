"""Per-layer attribution by wrapping the program's public entry points.

:func:`install` replaces each entry point in :data:`TARGETS` with a timing
wrapper.  It patches the attribute every caller resolves: a function is
replaced in its defining module *and* in every ``repro`` module that
imported it by name; a method is replaced on its class.  Spans (name,
start, end, parent) stay in memory and are written as JSONL by
:meth:`Tracer.dump`.  A layer's self time is its spans' durations minus the
part their child spans (same process and thread) cover.

Nothing here runs unless the benchmark is asked for a traced run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    id: int
    parent: int | None
    start: float
    end: float
    pid: int
    tid: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped entry points, one stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: where forked shard workers write their spans (see ``_worker_entry``)
        self.worker_dir: Path | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, hook=None):
        """``fn`` timed as span ``name`` (a string or ``name(args, kwargs)``).

        ``hook(result, args, kwargs)`` may return counters for the span.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = Span(
                name if isinstance(name, str) else name(args, kwargs),
                next(self._ids), stack[-1] if stack else None,
                time.perf_counter(), 0.0, os.getpid(), threading.get_ident(),
            )
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if hook is not None:
                span.attrs = hook(result, args, kwargs) or {}
            return result

        return wrapper

    def wrap_generator(self, fn, name):
        """A generator function whose every resumption is one span."""
        step = self.wrap(next, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    try:
                        item = step(gen)
                    except StopIteration:
                        return
                    yield item
            finally:
                gen.close()

        return wrapper

    def dump(self, path: str | Path) -> None:
        dump_spans(self.spans, path)


def dump_spans(spans, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s.__dict__) + "\n")


def load_spans(path: str | Path) -> list[Span]:
    with open(path, encoding="utf-8") as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]


# -- attribution ---------------------------------------------------------------


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus child coverage."""
    children: dict[tuple[int, int], float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            children[(s.pid, s.parent)] += s.duration
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s.name] += max(0.0, s.duration - children[(s.pid, s.id)])
    return dict(totals)


def covered(spans, t0: float, t1: float) -> float:
    """Length of ``[t0, t1]`` covered by at least one span (any thread)."""
    intervals = sorted(
        (max(s.start, t0), min(s.end, t1)) for s in spans if s.end > t0 and s.start < t1
    )
    total, reach = 0.0, t0
    for start, end in intervals:
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def within(spans, t0: float, t1: float) -> list[Span]:
    return [s for s in spans if t0 <= s.start < t1]


#: span names reported as self time, metric ``<name>_s``
SPAN_LAYERS = [
    "synth.population", "synth.build", "synth.step", "fs.purge",
    "scan.lustredu", "scan.psv_write", "scan.rpq_write", "scan.delta_compute",
    "scan.delta_write", "scan.delta_read", "scan.read", "scan.probe", "scan.merge",
    "scan.open", "query.run_kernels", "query.state_load", "query.state_save",
    "query.supervise", "analysis.finalize", "graph.components", "graph.closeness",
    "graph.diameter", "graph.betweenness", "graph.bfs", "stats.powerlaw",
    "core.manifest", "serve.figure", "serve.slice",
]

#: per-layer metrics: name, unit, which direction is better
LAYER_METRICS = [(f"{name}_s", "s", "lower") for name in SPAN_LAYERS] + [
    ("serve.warm_s", "s", "lower"),
    ("serve.wait_ms", "ms", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.degraded", "count", "lower"),
    ("serve.stale", "count", "lower"),
    ("fs.purged", "count", "higher"),
    ("scan.rows", "count", "higher"),
    ("scan.psv_bytes", "B", "lower"),
    ("scan.rpq_bytes", "B", "lower"),
    ("scan.opens", "count", "lower"),
    ("scan.cache_hit_ratio", "ratio", "higher"),
    ("scan.block_decodes", "count", "lower"),
    ("scan.block_reuse_ratio", "ratio", "higher"),
    ("query.map_s", "s", "lower"),
    ("query.reduce_s", "s", "lower"),
    ("query.update_s", "s", "lower"),
    ("query.snapshot_loads", "count", "lower"),
    ("query.retries", "count", "lower"),
    ("query.shard_restarts", "count", "lower"),
    ("graph.bfs_calls", "count", "lower"),
    ("core.atomic_writes", "count", "lower"),
    ("load.late_ms", "ms", "lower"),
    ("load.conn_wait_ms", "ms", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.other_s", "s", "lower"),
    ("trace.other_share", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def layer_metrics(spans, window, untraced_wall_s: float, readings: dict) -> dict:
    """Every per-layer metric for one traced timed part.

    Self times and counters cover spans that start inside ``window``;
    ``serve.warm_s`` is the set-up warm.  ``readings`` are values the
    workload read from the program's own stats (cache counters, server
    counters, load diagnostics); they fill the metrics spans cannot.
    """
    t0, t1 = window
    inside = within(spans, t0, t1)
    selfs = self_times(inside)
    metrics = {f"{name}_s": selfs.get(name, 0.0) for name in SPAN_LAYERS}
    metrics["serve.warm_s"] = sum(
        s.duration for s in spans if s.name == "serve.warm" and s.start < t0
    )
    counters: dict[str, float] = defaultdict(float)
    for s in inside:
        for key, value in s.attrs.items():
            counters[key] += value
    names = [name for name, _, _ in LAYER_METRICS]
    for name in names:
        if name not in metrics:
            metrics[name] = counters.get(name, 0.0)
    blocks = counters["scan.block_decodes"] + counters["scan.block_hits"]
    metrics["scan.block_reuse_ratio"] = counters["scan.block_hits"] / blocks if blocks else 0.0
    slices = sorted(s.duration for s in inside if s.name == "serve.slice")
    if slices and "slice_p50_ms" in readings:
        metrics["serve.wait_ms"] = readings["slice_p50_ms"] - slices[len(slices) // 2] * 1e3
    metrics.update({k: v for k, v in readings.items() if k in metrics})
    wall = t1 - t0
    metrics["trace.wall_s"] = wall
    metrics["trace.other_s"] = wall - covered(inside, t0, t1)
    metrics["trace.other_share"] = metrics["trace.other_s"] / wall
    metrics["trace.overhead_s"] = wall - untraced_wall_s
    return {name: metrics[name] for name in names}


# -- what gets wrapped ---------------------------------------------------------


def _rows(result, args, kwargs):
    return {"scan.rows": len(result)}


def _purged(result, args, kwargs):
    return {"fs.purged": result.purged}


def _psv_bytes(result, args, kwargs):
    return {"scan.psv_bytes": result}


def _blocks_dest(args, kwargs):
    dest = str(args[0] if args else kwargs["dest"])
    return "scan.delta_write" if dest.endswith(".rpd") else "scan.rpq_write"


def _rpq_bytes(result, args, kwargs):
    dest = str(args[0] if args else kwargs["dest"])
    return {} if dest.endswith(".rpd") else {"scan.rpq_bytes": result}


def _one(counter):
    return lambda result, args, kwargs: {counter: 1}


def _engine(result, args, kwargs):
    stats = result[1]
    return {
        "query.map_s": sum(stats.kernel_map_seconds.values()),
        "query.reduce_s": sum(stats.kernel_reduce_seconds.values()),
        "query.update_s": sum(stats.kernel_update_seconds.values()),
        "query.snapshot_loads": stats.snapshot_loads,
        "query.retries": stats.retries,
        "scan.block_decodes": stats.block_misses,
        "scan.block_hits": stats.block_hits,
    }


def _restarts(result, args, kwargs):
    return {"query.shard_restarts": result.restarts}


#: (module, attribute or Class.method, span name, counter hook)
TARGETS = [
    ("repro.synth.population", "generate_population", "synth.population", None),
    ("repro.synth.driver", "build_sim_state", "synth.build", None),
    ("repro.fs.purge", "PurgePolicy.sweep", "fs.purge", _purged),
    ("repro.scan.lustredu", "LustreDuScanner.scan", "scan.lustredu", _rows),
    ("repro.scan.psv", "write_psv", "scan.psv_write", _psv_bytes),
    ("repro.scan.columnar", "write_columnar", "scan.rpq_write", None),
    ("repro.scan.columnar", "write_columnar_blocks", _blocks_dest, _rpq_bytes),
    ("repro.scan.columnar", "read_columnar", "scan.read", None),
    ("repro.scan.columnar", "open_columnar", "scan.open", _one("scan.opens")),
    ("repro.scan.delta", "compute_delta", "scan.delta_compute", None),
    ("repro.scan.delta", "write_delta", "scan.delta_write", None),
    ("repro.scan.delta", "read_delta", "scan.delta_read", None),
    ("repro.scan.merge", "probe_shard_parts", "scan.probe", None),
    ("repro.scan.merge", "merge_shard_parts", "scan.merge", None),
    ("repro.query.engine", "ExecutionEngine.run_kernels", "query.run_kernels", _engine),
    ("repro.query.journal", "KernelStateStore.load", "query.state_load", None),
    ("repro.query.journal", "KernelStateStore.save", "query.state_save", None),
    ("repro.query.supervisor", "ShardSupervisor.run", "query.supervise", _restarts),
    ("repro.core.pipeline", "ReproPipeline.analyze", "analysis.finalize", None),
    ("repro.graph.components", "connected_components", "graph.components", None),
    ("repro.graph.centrality", "closeness_centrality", "graph.closeness", None),
    ("repro.graph.centrality", "betweenness_centrality", "graph.betweenness", None),
    ("repro.graph.traversal", "exact_diameter", "graph.diameter", None),
    ("repro.graph.traversal", "bfs_distances", "graph.bfs", _one("graph.bfs_calls")),
    ("repro.stats.powerlaw", "fit_power_law", "stats.powerlaw", None),
    ("repro.core.manifest", "write_manifest", "core.manifest", None),
    ("repro.core.manifest", "validate_manifest", "core.manifest", None),
    ("repro.core.durable", "atomic_write", "core.atomic_write", _one("core.atomic_writes")),
    ("repro.serve.service", "ArchiveService.warm", "serve.warm", None),
    ("repro.serve.service", "ArchiveService.figure", "serve.figure", None),
    ("repro.serve.service", "ArchiveService.slice", "serve.slice", None),
]

#: generator functions: each resumption is one span
GENERATOR_TARGETS = [("repro.synth.driver", "step_weeks", "synth.step")]


def _worker_entry(tracer: Tracer, original):
    """Shard-worker target that ships the worker's spans home as a file.

    Workers are forked with the wrappers already installed; the spans the
    parent had recorded so far are dropped so each file holds one worker.
    """

    @functools.wraps(original)
    def entry(*args, **kwargs):
        tracer.spans = []
        try:
            return original(*args, **kwargs)
        finally:
            if tracer.worker_dir is not None:
                tracer.dump(Path(tracer.worker_dir) / f"worker-{os.getpid()}.jsonl")

    return entry


def _replace_everywhere(original, wrapper, patches) -> None:
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "") or ""
        if name != "repro" and not name.startswith("repro."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
                patches.append((module, key, original))


def install(tracer: Tracer):
    """Wrap every target; returns a function that restores the originals."""
    patches: list[tuple[object, str, object]] = []
    wrapped = [(m, a, tracer.wrap, n, h) for m, a, n, h in TARGETS] + [
        (m, a, tracer.wrap_generator, n, None) for m, a, n in GENERATOR_TARGETS
    ]
    for module_name, attr, make, name, hook in wrapped:
        owner = importlib.import_module(module_name)
        cls_name, _, attr = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name)
            original = cls.__dict__[attr]
            args = (original, name) if hook is None else (original, name, hook)
            setattr(cls, attr, make(*args))
            patches.append((cls, attr, original))
        else:
            original = getattr(owner, attr)
            args = (original, name) if hook is None else (original, name, hook)
            _replace_everywhere(original, make(*args), patches)
    supervisor = importlib.import_module("repro.query.supervisor")
    original = supervisor.shard_worker_entry
    _replace_everywhere(original, _worker_entry(tracer, original), patches)

    def uninstall() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return uninstall
