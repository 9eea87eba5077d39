"""The reproduction pipeline.

``ReproPipeline`` mirrors the paper's Figure 4 flow:

1. **simulate** — generate the synthetic center and run the 500-day window
   (stands in for operating Spider II and collecting LustreDU snapshots);
2. **archive** (optional) — write PSV snapshots and convert them to the
   columnar format, measuring the footprint reduction the paper attributes
   to Parquet;
3. **analyze** — run the selected §4 analyses in one fused kernel pass
   over the snapshot collection (each snapshot loads once, every kernel
   runs against it — see :mod:`repro.analysis.registry`);
4. **report** — render the paper's tables and figure series as text.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis import report as rpt
from repro.analysis.context import AnalysisContext
from repro.analysis.registry import AnalyzeOptions, resolve_specs, run_analyses
from repro.core.runcontrol import RunController, RunInterrupted
from repro.query.parallel import SnapshotExecutor
from repro.scan.columnar import write_columnar
from repro.scan.psv import write_psv
from repro.synth.driver import SimulationConfig, SimulationResult, run_simulation


@dataclass
class ArchiveStats:
    """PSV vs columnar footprint (the paper's 119 GB → 28 GB stage)."""

    psv_bytes: int
    columnar_bytes: int

    @property
    def reduction(self) -> float:
        """PSV/columnar footprint ratio.

        An empty columnar archive is ``inf`` (or ``nan`` for the 0/0 case),
        never ``0.0`` — an empty archive must not masquerade as "no
        reduction".
        """
        if self.columnar_bytes:
            return self.psv_bytes / self.columnar_bytes
        return float("nan") if self.psv_bytes == 0 else float("inf")


@dataclass
class PaperReport:
    """The §4 result objects, plus the rendered text report.

    A field is None when its analysis was not selected (``analyze(
    analyses=...)`` / ``repro-pipeline --analyses``); the default full run
    fills every field.
    """

    table1: list | None = field(default=None, repr=False)
    table2: dict | None = field(default=None, repr=False)
    table3: object = field(default=None, repr=False)
    fig5: object = field(default=None, repr=False)
    fig6: object = field(default=None, repr=False)
    fig7: object = field(default=None, repr=False)
    fig8: object = field(default=None, repr=False)
    fig8_depth: object = field(default=None, repr=False)
    fig10: object = field(default=None, repr=False)
    fig11: object = field(default=None, repr=False)
    fig12: object = field(default=None, repr=False)
    fig13: object = field(default=None, repr=False)
    fig14: object = field(default=None, repr=False)
    fig15: object = field(default=None, repr=False)
    fig16: object = field(default=None, repr=False)
    fig17: object = field(default=None, repr=False)
    fig18: object = field(default=None, repr=False)
    fig20: object = field(default=None, repr=False)
    text: str = ""


#: Report layout: (PaperReport field, section title, renderer), in print order.
_SECTIONS = [
    ("table1", "TABLE 1 — per-domain summary", rpt.render_table1),
    ("table2", "TABLE 2 — extension popularity", rpt.render_table2),
    ("table3", "TABLE 3 — connected components", rpt.render_table3),
    ("fig5", "FIGURE 5 — user classification", rpt.render_user_profile),
    ("fig6", "FIGURE 6 — participation", rpt.render_participation),
    ("fig7", "FIGURE 7 — files/dirs per domain", rpt.render_entry_counts),
    ("fig8_depth", "FIGURE 8a/9 — directory depth", rpt.render_depths),
    ("fig8", "FIGURE 8b — file-count CDFs", rpt.render_file_count_cdfs),
    ("fig10", "FIGURE 10 — extension trend", rpt.render_extension_trend),
    ("fig11", "FIGURE 11 — language ranking", rpt.render_language_ranking),
    ("fig12", "FIGURE 12 — languages per domain", rpt.render_domain_languages),
    ("fig13", "FIGURE 13 — weekly access patterns", rpt.render_access),
    ("fig14", "FIGURE 14 — OST stripe counts", rpt.render_stripes),
    ("fig15", "FIGURE 15 — namespace growth", rpt.render_growth),
    ("fig16", "FIGURE 16 — file age", rpt.render_ages),
    ("fig17", "FIGURE 17 — burstiness", rpt.render_burstiness),
    ("fig18", "FIGURE 18 — degree distribution", rpt.render_degree),
    ("fig20", "FIGURE 20 — collaboration", rpt.render_collaboration),
]


class ReproPipeline:
    """One-object driver for the whole reproduction."""

    def __init__(
        self,
        config: SimulationConfig | None = None,
        executor: SnapshotExecutor | None = None,
        burstiness_min_files: int = 10,
        controller: RunController | None = None,
    ) -> None:
        self.config = config if config is not None else SimulationConfig()
        self.executor = executor if executor is not None else SnapshotExecutor(1)
        self.burstiness_min_files = burstiness_min_files
        self.controller = controller
        self.simulation: SimulationResult | None = None
        self.context: AnalysisContext | None = None

    # -- stages -----------------------------------------------------------

    def simulate(self, verbose: bool = False) -> SimulationResult:
        self.simulation = run_simulation(
            self.config, verbose=verbose, controller=self.controller
        )
        self.context = AnalysisContext(
            collection=self.simulation.collection,
            population=self.simulation.population,
            executor=self.executor,
            controller=self.controller,
        )
        return self.simulation

    def archive(
        self,
        directory: str | Path,
        max_snapshots: int | None = None,
        deltas: bool = True,
        skip_existing: bool = False,
    ) -> ArchiveStats:
        """Write PSV + columnar snapshot files; returns footprint stats.

        Every file (snapshots and the ``manifest.json`` config fingerprint)
        is written atomically — tmp + fsync + rename — so a crash mid-
        archive leaves only complete files plus, at worst, one stray temp
        file, never a torn ``.rpq`` that poisons the next analysis run.

        The manifest is committed *last* and carries a monotonically
        increasing ``generation``, which makes every archive() call an
        atomic publish: a reader (``repro serve --follow``) that observes
        the new generation can trust every listed file to be complete,
        and a crash before the manifest rename leaves the previous
        generation fully intact.  ``skip_existing=True`` turns a re-run
        into an append publish — snapshots whose files already exist are
        not rewritten (atomic writes guarantee an existing file is whole),
        so publishing week N+1 costs O(one snapshot), then the manifest
        commit flips readers to the new window.

        With ``deltas=True`` (the default) each snapshot after the first
        also gets a ``{label}.rpd`` sidecar — the exact change set since
        its predecessor — enabling ``analyze_archive(incremental=True)`` to
        advance journaled kernel state in O(delta) instead of re-scanning
        the window (DESIGN.md §11).
        """
        if self.simulation is None:
            raise RuntimeError("simulate() first")
        from repro.core.manifest import write_manifest
        from repro.scan.delta import (
            compute_delta,
            delta_config,
            sidecar_path,
            write_delta,
        )

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        psv_total = 0
        col_total = 0
        snaps = list(self.simulation.collection)
        if max_snapshots is not None:
            snaps = snaps[:max_snapshots]
        records = []
        for i, snap in enumerate(snaps):
            if self.controller is not None:
                reason = self.controller.should_stop()
                if reason is not None:
                    raise RunInterrupted(
                        f"archive interrupted ({reason}) after "
                        f"{len(records)}/{len(snaps)} snapshots",
                        reason=reason,
                        partial=records,
                        resume_hint=(
                            "every archived file is complete (atomic "
                            "writes); re-run the same command to finish — "
                            "already-written snapshots are overwritten "
                            "in place"
                        ),
                    )
            psv_path = directory / f"{snap.label}.psv"
            col_path = directory / f"{snap.label}.rpq"
            dpath = sidecar_path(directory, snap.label) if deltas and i > 0 else None
            published = (
                skip_existing
                and psv_path.exists()
                and col_path.exists()
                and (dpath is None or dpath.exists())
            )
            if published:
                psv_total += psv_path.stat().st_size
            else:
                psv_total += write_psv(
                    snap, psv_path, ost_count=self.config.ost_count
                )
                write_columnar(snap, col_path)
                if dpath is not None:
                    write_delta(compute_delta(snaps[i - 1], snap), dpath)
            col_total += col_path.stat().st_size
            records.append(
                {"label": snap.label, "file": col_path.name, "rows": len(snap)}
            )
        extra = {"deltas": delta_config()} if deltas else None
        write_manifest(directory, self.config, snapshots=records, extra=extra)
        return ArchiveStats(psv_bytes=psv_total, columnar_bytes=col_total)

    def analyze(
        self,
        analyses: list[str] | str | None = None,
    ) -> PaperReport:
        """Run the selected analyses and assemble the rendered report.

        ``analyses`` selects registry specs by name (None / ``"all"`` for
        everything; requirements like Table 1's inputs are pulled in
        automatically).  Every selected kernel runs in one pass per
        snapshot.
        """
        if self.context is None or self.simulation is None:
            raise RuntimeError("simulate() first")
        opts = AnalyzeOptions(
            ctx=self.context,
            scan_history=self.simulation.scanner.history,
            purge_window_days=self.config.purge_window_days,
            burstiness_min_files=self.burstiness_min_files,
        )
        values = run_analyses(opts, resolve_specs(analyses))
        sections = [
            (title, render(values[fld]))
            for fld, title, render in _SECTIONS
            if fld in values
        ]
        text = "\n\n".join(f"== {title} ==\n{body}" for title, body in sections)
        return PaperReport(**values, text=text)


#: Durable per-kernel state for ``analyze_archive(incremental=True)``,
#: living inside the archive directory it summarizes.
KERNEL_STATE_FILENAME = "kernel_state.bin"


def _load_delta_plan(directory, store, collection, labels, repair=False):
    """Build the run's DeltaPlan from journaled state + the sidecar chain.

    Returns a plan whose ``states``/``deltas`` drive replay when the chain
    is intact, or an empty-but-capturing plan (with a RuntimeWarning naming
    the reason) when it is not — degraded incremental runs are loud, never
    silent, mirroring the serial-downgrade convention.

    ``repair=True`` (the serving follower's mode) bounds the blast radius
    of a broken link: instead of abandoning replay for a full window
    re-scan, each missing/corrupt/mislinked sidecar is replaced by a delta
    recomputed from its two adjacent snapshots — O(suffix) snapshot loads,
    still byte-identical, still loudly warned.  The recompute is id-safe
    because the journaled table already covers every prefix path and a
    full snapshot load interns new paths in row order, exactly the order
    the sidecar's added-first contract would have used.
    """
    from repro.query.engine import DeltaPlan
    from repro.scan.delta import (
        compute_delta,
        find_delta_chain,
        read_delta,
        sidecar_path,
    )
    from repro.scan.errors import CorruptSnapshotError
    from repro.scan.paths import PathTable

    plan = DeltaPlan()

    def _fallback(reason: str) -> "DeltaPlan":
        warnings.warn(
            f"incremental analysis unavailable ({reason}) — running full "
            "maps and re-journaling kernel state",
            RuntimeWarning,
            stacklevel=3,
        )
        return DeltaPlan()

    states, stored_labels, table = store.load(labels, collection.content_ids())
    if not states:
        return plan  # first run (or discarded state): bootstrap via capture
    if collection.health.degraded:
        return _fallback("the archive window is degraded")
    if len(stored_labels) == len(labels):
        # nothing appended: replay is a no-op state readout; share the
        # journaled interning table so any full-map kernels agree on ids
        collection.paths = table
        plan.states = states
        return plan
    start = len(stored_labels)
    if not repair:
        files, reason = find_delta_chain(directory, labels, start)
        if files is None:
            return _fallback(reason)
        # validation pass against scratch tables: the shared table must stay
        # pristine unless the whole chain checks out (a bogus sidecar must
        # not poison id assignment for the full-map fallback)
        expected_prev = stored_labels[-1]
        for path, label in zip(files, labels[start:]):
            try:
                probe = read_delta(path, PathTable())
            except CorruptSnapshotError as exc:
                return _fallback(f"sidecar {path.name} is corrupt ({exc})")
            if probe.prev_label != expected_prev or probe.cur_label != label:
                return _fallback(
                    f"sidecar {path.name} links {probe.prev_label!r}->"
                    f"{probe.cur_label!r}, expected {expected_prev!r}->{label!r}"
                )
            expected_prev = probe.cur_label
        # commit: intern the chain into the journaled table, in order, and
        # make it the collection's table — replay and full loads then
        # allocate path ids against one object
        collection.paths = table
        plan.states = states
        plan.deltas = [read_delta(path, table) for path in files]
        return plan
    # repair mode: probe each link on a scratch table; a bad link becomes a
    # recompute from its two snapshots rather than sinking the whole chain
    links: list[tuple[str, object]] = []
    expected_prev = stored_labels[-1]
    for idx in range(start, len(labels)):
        label = labels[idx]
        path = sidecar_path(directory, label)
        entry = None
        if not path.exists():
            why = f"missing delta sidecar {path.name}"
        else:
            try:
                probe = read_delta(path, PathTable())
            except CorruptSnapshotError as exc:
                why = f"sidecar {path.name} is corrupt ({exc})"
            else:
                if probe.prev_label != expected_prev or probe.cur_label != label:
                    why = (
                        f"sidecar {path.name} links {probe.prev_label!r}->"
                        f"{probe.cur_label!r}, expected "
                        f"{expected_prev!r}->{label!r}"
                    )
                else:
                    entry = ("sidecar", path)
        if entry is None:
            warnings.warn(
                f"delta replay degraded ({why}) — recomputing that "
                "interval's delta from its two snapshots instead of "
                "re-scanning the window",
                RuntimeWarning,
                stacklevel=3,
            )
            entry = ("recompute", idx)
        links.append(entry)
        expected_prev = label
    collection.paths = table
    deltas = []
    try:
        for kind, ref in links:
            if kind == "sidecar":
                deltas.append(read_delta(ref, table))
            else:
                deltas.append(compute_delta(collection[ref - 1], collection[ref]))
    except CorruptSnapshotError as exc:
        # a snapshot itself is bad: the table only ever saw real paths in
        # chain order, so full maps against it remain id-consistent
        return _fallback(f"recomputing a delta failed ({exc})")
    plan.states = states
    plan.deltas = deltas
    return plan


def analyze_archive(
    directory: str | Path,
    config: SimulationConfig | None = None,
    executor: SnapshotExecutor | None = None,
    burstiness_min_files: int = 10,
    analyses: list[str] | str | None = None,
    on_error: str = "raise",
    verify: str | None = None,
    checkpoint: str | Path | None = None,
    allow_config_mismatch: bool = False,
    controller: RunController | None = None,
    max_task_failures: int | None = None,
    ingest_report=None,
    incremental: bool = False,
    repair_deltas: bool = False,
    snapshot_files: list | None = None,
) -> tuple[ReproPipeline, PaperReport]:
    """Out-of-core analysis: run every §4 analysis from archived snapshots.

    Loads ``.rpq`` files lazily (two resident snapshots at a time), which is
    how a multi-terabyte window — the paper's situation — stays analyzable
    on one node.  The population is regenerated deterministically from the
    config's seed; the archive's ``manifest.json`` fingerprint is validated
    against it, so a seed mismatch raises a typed
    :class:`~repro.scan.errors.ArchiveConfigError` instead of silently
    producing wrong per-domain joins (``allow_config_mismatch=True``
    downgrades that to a warning for intentional mismatches).

    Failure tolerance:

    * ``on_error`` — degradation policy for corrupt ``.rpq`` files
      (``"raise"`` / ``"skip"`` / ``"quarantine"``, see
      :class:`~repro.scan.store.DiskSnapshotCollection`); with a
      non-raise policy the fused pass runs over the surviving window and
      the collection's :class:`~repro.scan.store.ArchiveHealthReport` is
      surfaced with a loud warning;
    * ``verify`` — ``"header"`` or ``"deep"``; defaults to ``"deep"``
      whenever a non-raise policy is chosen (a skipped window must be
      *known* good, so every column block is checked up front) and
      ``"header"`` otherwise;
    * ``checkpoint`` — path of a resume journal: completed snapshots are
      checkpointed durably, a killed run resumes at the first unprocessed
      snapshot, and the journal is deleted after a successful run.

    Run control:

    * ``controller`` — a :class:`~repro.core.runcontrol.RunController`;
      its deadline/signals interrupt the kernel pass gracefully (flushed
      checkpoint, typed :class:`~repro.core.runcontrol.RunInterrupted`
      with a resume hint), and its
      :class:`~repro.core.runcontrol.MemoryBudget` caps the snapshot
      cache (``cache_bytes`` share, byte-denominated eviction) and the
      engine's dispatch waves (``wave_bytes`` share);
    * ``max_task_failures`` — per-snapshot circuit breaker: a snapshot
      whose task fails this many times across retries is quarantined into
      the :class:`~repro.scan.store.ArchiveHealthReport` instead of
      sinking the run.  Defaults to ``executor retries + 1`` whenever a
      non-raise ``on_error`` policy is chosen (degraded-mode runs keep
      going); under ``on_error="raise"`` the breaker stays disarmed.

    Incremental analysis (DESIGN.md §11):

    * ``incremental=True`` journals every delta-capable kernel's reduced
      state (plus the path-interning table) into the archive's
      ``kernel_state.bin`` after a healthy run.  The next run advances
      that state through the ``.rpd`` delta sidecars — appending snapshot
      N+1 to an analyzed archive costs O(delta) for converted kernels
      instead of an O(namespace) re-scan, with byte-identical results.
      The state is fingerprint-bound (archive config + delta layout) and
      label-prefix-checked; any mismatch, missing sidecar, or broken
      chain falls back to full maps with a RuntimeWarning, never a wrong
      answer.  State is never persisted from a degraded or
      quarantine-marred run.
    * ``repair_deltas=True`` (the serving follower's mode) narrows that
      fallback: a missing/corrupt/mislinked sidecar is replaced by a
      delta recomputed from its two adjacent snapshots — a bounded
      re-analysis of just the broken suffix link, warned, byte-identical.

    Serving/publish fencing:

    * ``snapshot_files`` pins the window to an explicit list of ``.rpq``
      paths (normally the manifest's ``snapshots`` inventory) instead of
      globbing the directory.  A live reader passes the file list of the
      generation it observed, so stray files from a torn publish — data
      written, manifest commit never happened — are invisible to it.
    """
    from repro.analysis.context import AnalysisContext
    from repro.core.manifest import config_fingerprint, validate_manifest
    from repro.scan.store import DiskSnapshotCollection
    from repro.synth.population import generate_population

    config = config if config is not None else SimulationConfig()
    validate_manifest(directory, config, allow_mismatch=allow_config_mismatch)
    pipeline = ReproPipeline(
        config=config, executor=executor,
        burstiness_min_files=burstiness_min_files,
    )
    pipeline.controller = controller
    if verify is None:
        verify = "deep" if on_error != "raise" else "header"
    cache_bytes = None
    if controller is not None and controller.memory_budget is not None:
        cache_bytes = controller.memory_budget.cache_bytes
    collection = DiskSnapshotCollection(
        directory, on_error=on_error, verify=verify, cache_bytes=cache_bytes,
        files=snapshot_files,
    )
    if ingest_report is not None:
        # archive built from foreign traces: one health report spans the
        # whole trace → archive → analysis chain
        ingest_report.fold_into(collection.health)
    if collection.health.degraded:
        warnings.warn(
            "analyzing a DEGRADED archive — report covers the surviving "
            f"window only:\n{collection.health.summary()}",
            RuntimeWarning,
            stacklevel=2,
        )
    population = generate_population(seed=config.seed, n_users=config.n_users)
    if max_task_failures is None and on_error != "raise":
        # degraded-mode default: one full retry cycle, then quarantine
        max_task_failures = pipeline.executor.config.retries + 1
    state_store = None
    delta_plan = None
    if incremental:
        from repro.query.journal import KernelStateStore
        from repro.scan.delta import delta_config

        state_store = KernelStateStore(
            Path(directory) / KERNEL_STATE_FILENAME,
            fingerprint={
                "config": config_fingerprint(config),
                "deltas": delta_config(),
            },
        )
        delta_plan = _load_delta_plan(
            directory, state_store, collection, collection.labels,
            repair=repair_deltas,
        )
    pipeline.context = AnalysisContext(
        collection=collection,  # type: ignore[arg-type]
        population=population,
        executor=pipeline.executor,
        checkpoint=Path(checkpoint) if checkpoint is not None else None,
        checkpoint_meta={"config": config_fingerprint(config)},
        controller=controller,
        max_task_failures=max_task_failures,
        delta_plan=delta_plan,
    )

    # a minimal stand-in simulation record (no scanner history: Figure 15's
    # optional snapshot-size series is simply absent in archive mode)
    from repro.scan.lustredu import LustreDuScanner

    pipeline.simulation = SimulationResult(
        config=config,
        population=population,
        fs=None,  # type: ignore[arg-type]
        scanner=LustreDuScanner(collection.paths),
        collection=collection,  # type: ignore[arg-type]
        purge_reports=[],
        week_stats=[],
    )
    report = pipeline.analyze(analyses=analyses)
    if checkpoint is not None:
        # the run completed: the journal has served its purpose
        Path(checkpoint).unlink(missing_ok=True)
    if state_store is not None and delta_plan is not None:
        healthy = (
            not collection.health.degraded
            and pipeline.executor.stats.quarantined_snapshots == 0
        )
        if healthy and delta_plan.updated_states:
            # the engine interned every snapshot parent-side in index order
            # on every route, so the table matches the states' path ids
            state_store.save(
                delta_plan.updated_states, collection.labels,
                collection.paths, collection.content_ids(),
            )
        elif not healthy:
            warnings.warn(
                "kernel state not journaled: the run was degraded or "
                "quarantined snapshots — the next incremental run will "
                "re-analyze from the last healthy state",
                RuntimeWarning,
                stacklevel=2,
            )
    return pipeline, report


def run_paper_report(
    config: SimulationConfig | None = None,
    executor: SnapshotExecutor | None = None,
    burstiness_min_files: int = 10,
    verbose: bool = False,
) -> tuple[ReproPipeline, PaperReport]:
    """Convenience: simulate + analyze in one call."""
    pipeline = ReproPipeline(
        config=config, executor=executor, burstiness_min_files=burstiness_min_files
    )
    pipeline.simulate(verbose=verbose)
    return pipeline, pipeline.analyze()
