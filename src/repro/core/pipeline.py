"""The reproduction pipeline.

``ReproPipeline`` mirrors the paper's Figure 4 flow:

1. **simulate** — generate the synthetic center and run the 500-day window
   (stands in for operating Spider II and collecting LustreDU snapshots);
2. **archive** (optional) — publish the snapshots as columnar ``.rpq``
   files (the paper's Parquet copy; the simulated route writes columnar
   directly, the PSV text stage belongs to ``repro ingest``), their
   ``.rpd`` delta sidecars, and the ``accounts.json`` member holding the
   population every analysis joins against;
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
from repro.synth.driver import SimulationConfig, SimulationResult, run_simulation


@dataclass
class ArchiveStats:
    """Columnar footprint of an archive: the ``.rpq`` bytes it lists.

    The paper's PSV → Parquet reduction is measured by
    ``benchmarks/bench_pipeline.py``, which writes PSV to a buffer;
    ``archive()`` itself writes no text.
    """

    columnar_bytes: int


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
        skip_existing: bool = False,
    ) -> ArchiveStats:
        """Publish the columnar snapshot files; returns footprint stats.

        Writes one ``.rpq`` per snapshot, a ``{label}.rpd`` sidecar for
        each snapshot after the first — the exact change set since its
        predecessor, which lets ``analyze_archive(incremental=True)``
        advance journaled kernel state in O(delta) instead of re-scanning
        the window (DESIGN.md §11) — the ``accounts.json`` member
        (the population the analyses join against, see
        :mod:`repro.core.accounts`) and the ``manifest.json`` that lists
        both.  Every file is written atomically — tmp + fsync + rename —
        so a crash mid-archive leaves only complete files plus, at worst,
        one stray temp file, never a torn ``.rpq`` that poisons the next
        analysis run.  No PSV text is written: export a snapshot with
        :func:`repro.scan.write_psv`.

        The manifest is committed *last* and carries a monotonically
        increasing ``generation``, which makes every archive() call an
        atomic publish: a reader (``repro serve --follow``) that observes
        the new generation can trust every listed file to be complete,
        and a crash before the manifest rename leaves the previous
        generation fully intact.  ``skip_existing=True`` turns a re-run
        into an append publish — snapshots whose ``.rpq`` (and ``.rpd``)
        already exist are not rewritten (atomic writes guarantee an
        existing file is whole), nor is an accounts member whose size and
        CRC32 match, so publishing week N+1 costs O(one snapshot), then
        the manifest commit flips readers to the new window.  Appending to
        an archive written before the accounts member existed adds the
        member and rewrites no snapshot file.
        """
        if self.simulation is None:
            raise RuntimeError("simulate() first")
        from repro.core.accounts import write_accounts
        from repro.core.manifest import write_manifest
        from repro.scan.delta import delta_config, sidecar_path, write_week

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
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
            col_path = directory / f"{snap.label}.rpq"
            dpath = sidecar_path(directory, snap.label) if i > 0 else None
            published = (
                skip_existing
                and col_path.exists()
                and (dpath is None or dpath.exists())
            )
            if not published:
                write_week(snap, snaps[i - 1] if i else None, directory)
            col_total += col_path.stat().st_size
            records.append(
                {"label": snap.label, "file": col_path.name, "rows": len(snap)}
            )
        reuse = _published_accounts(directory, self.config) if skip_existing else None
        accounts = write_accounts(directory, self.simulation.population, reuse=reuse)
        write_manifest(
            directory, self.config, snapshots=records,
            extra={"deltas": delta_config()}, accounts=accounts,
        )
        return ArchiveStats(columnar_bytes=col_total)

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


def _published_accounts(directory: Path, config) -> dict | None:
    """The accounts record the archive's manifest lists, when that manifest
    was published under ``config``'s fingerprint — the population is a
    function of it, so the member on disk holds this pipeline's accounts."""
    from repro.core.manifest import config_fingerprint, load_manifest
    from repro.scan.errors import ArchiveConfigError

    try:
        manifest = load_manifest(directory)
    except ArchiveConfigError:
        return None
    if manifest is None or manifest["config"] != config_fingerprint(config):
        return None
    return manifest.get("accounts")


#: Durable per-kernel state for ``analyze_archive(incremental=True)``,
#: living inside the archive directory it summarizes.
KERNEL_STATE_FILENAME = "kernel_state.bin"


def _load_delta_plan(directory, store, collection, labels):
    """Build the run's DeltaPlan from journaled state + the sidecar chain.

    Every appended label's ``.rpd`` is read once: parsed and validated
    without interning, so a bogus or mislinked sidecar never touches the
    journaled interning table, then interned in chain order.  A missing,
    corrupt or mislinked link is recomputed from its two adjacent
    snapshots instead — O(broken links) snapshot loads, still
    byte-identical, and loudly warned with the file and the reason.  The
    recompute is id-safe because the journaled table already covers every
    prefix path and a full snapshot load interns new paths in row order,
    exactly the order the sidecar's added-first contract would have used.

    Returns an empty plan — the run maps every snapshot and journals fresh
    state — on the first run or when the store discarded its state, and
    (with a RuntimeWarning naming the reason) when the window is degraded
    or a recompute hits a corrupt snapshot: degraded incremental runs are
    loud, never silent, mirroring the serial-downgrade convention.
    """
    from repro.query.engine import DeltaPlan
    from repro.scan.delta import compute_delta, parse_delta, sidecar_path
    from repro.scan.errors import CorruptSnapshotError

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
        return DeltaPlan()  # first run (or discarded state): bootstrap
    if collection.health.degraded:
        return _fallback("the archive window is degraded")
    links: list[tuple[str, object]] = []
    expected_prev = stored_labels[-1]
    for idx in range(len(stored_labels), len(labels)):
        label = labels[idx]
        path = sidecar_path(directory, label)
        entry = None
        if not path.exists():
            why = f"missing delta sidecar {path.name}"
        else:
            try:
                parsed = parse_delta(path)
            except CorruptSnapshotError as exc:
                why = f"sidecar {path.name} is corrupt ({exc})"
            else:
                if parsed.prev_label != expected_prev or parsed.cur_label != label:
                    why = (
                        f"sidecar {path.name} links {parsed.prev_label!r}->"
                        f"{parsed.cur_label!r}, expected "
                        f"{expected_prev!r}->{label!r}"
                    )
                else:
                    entry = ("sidecar", parsed)
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
    # commit: intern the chain into the journaled table, in order, and make
    # it the collection's table — replay and full loads then allocate path
    # ids against one object
    collection.paths = table
    deltas = []
    try:
        for kind, ref in links:
            if kind == "sidecar":
                deltas.append(ref.intern(table))
            else:
                deltas.append(compute_delta(collection[ref - 1], collection[ref]))
    except CorruptSnapshotError as exc:
        # a snapshot itself is bad: the table only ever saw real paths in
        # chain order, so full maps against it remain id-consistent
        return _fallback(f"recomputing a delta failed ({exc})")
    return DeltaPlan(states=states, deltas=deltas)


def analyze_archive(
    directory: str | Path,
    config: SimulationConfig | None = None,
    executor: SnapshotExecutor | None = None,
    burstiness_min_files: int = 10,
    analyses: list[str] | str | None = None,
    on_error: str = "raise",
    checkpoint: str | Path | None = None,
    allow_config_mismatch: bool = False,
    controller: RunController | None = None,
    ingest_report=None,
    incremental: bool = False,
    snapshot_files: list | None = None,
) -> tuple[ReproPipeline, PaperReport]:
    """Out-of-core analysis: run every §4 analysis from archived snapshots.

    Loads ``.rpq`` files lazily (two resident snapshots at a time), which is
    how a multi-terabyte window — the paper's situation — stays analyzable
    on one node.  The snapshots join against the archive's own
    ``accounts.json`` member (:mod:`repro.core.accounts`), which the
    manifest lists with its size and CRC32; a damaged or missing member
    raises :class:`~repro.scan.errors.CorruptSnapshotError` under every
    ``on_error`` policy (it is not a snapshot a window can drop).  Only an
    archive whose manifest lists no member — one written before the
    member existed, or by ``repro ingest`` — regenerates the population
    from the config's seed.  The archive's ``manifest.json`` fingerprint
    is validated against the config either way, so a seed or purge-window
    mismatch raises a typed :class:`~repro.scan.errors.ArchiveConfigError`
    (``allow_config_mismatch=True`` downgrades that to a warning, and the
    joins then use the archive's own accounts when it has them); the
    config's ``n_users`` is checked only when the archive has no member.

    Failure tolerance:

    * ``on_error`` — the one failure policy (``"raise"`` / ``"skip"`` /
      ``"quarantine"``, see :class:`~repro.scan.store.DiskSnapshotCollection`).
      ``"raise"`` header-verifies each file and fails the run on the first
      corrupt file or failed task.  A non-raise policy deep-verifies every
      file up front (a skipped window must be *known* good), drops the
      corrupt ones, and arms the engine's per-snapshot circuit breaker: a
      snapshot whose analysis task fails is quarantined into the
      :class:`~repro.scan.store.ArchiveHealthReport` on that first
      failure.  The fused pass then runs over the surviving window and
      the health report is surfaced with a loud warning;
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
      engine's dispatch waves (``wave_bytes`` share).

    Incremental analysis (DESIGN.md §11):

    * ``incremental=True`` journals every kernel's reduced state (plus
      the path-interning table) into the archive's ``kernel_state.bin``
      after a healthy run.  The next run advances that state through the
      ``.rpd`` delta sidecars — appending snapshot N+1 to an analyzed
      archive costs O(delta) and zero snapshot loads for any ``analyses``
      selection, with byte-identical results.  The state is bound to the
      archive config, the delta layout, the label prefix and each
      snapshot's content id; a mismatch, or a selection whose kernels the
      last run did not all journal, runs the full pass with a
      RuntimeWarning, never a wrong answer.  A missing, corrupt or
      mislinked sidecar is recomputed from its two adjacent snapshots — a
      bounded re-analysis of just that link, warned, byte-identical.
      State is never persisted from a degraded or quarantine-marred run.

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

    config = config if config is not None else SimulationConfig()
    manifest = validate_manifest(
        directory, config, allow_mismatch=allow_config_mismatch
    )
    accounts = manifest.get("accounts") if manifest is not None else None
    if accounts is not None:
        from repro.core.accounts import read_accounts

        population = read_accounts(directory, accounts)
    else:
        from repro.synth.population import generate_population

        population = generate_population(seed=config.seed, n_users=config.n_users)
    pipeline = ReproPipeline(
        config=config, executor=executor,
        burstiness_min_files=burstiness_min_files,
    )
    pipeline.controller = controller
    cache_bytes = None
    if controller is not None and controller.memory_budget is not None:
        cache_bytes = controller.memory_budget.cache_bytes
    collection = DiskSnapshotCollection(
        directory, on_error=on_error,
        verify="header" if on_error == "raise" else "deep",
        cache_bytes=cache_bytes, files=snapshot_files,
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
            directory, state_store, collection, collection.labels
        )
    pipeline.context = AnalysisContext(
        collection=collection,  # type: ignore[arg-type]
        population=population,
        executor=pipeline.executor,
        checkpoint=Path(checkpoint) if checkpoint is not None else None,
        checkpoint_meta={"config": config_fingerprint(config)},
        controller=controller,
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
    # the executor's stats are a lifetime aggregate: only this run's
    # quarantines may keep its kernel state out of the journal
    quarantined_before = pipeline.executor.stats.quarantined_snapshots
    report = pipeline.analyze(analyses=analyses)
    if checkpoint is not None:
        # the run completed: the journal has served its purpose
        Path(checkpoint).unlink(missing_ok=True)
    if state_store is not None and delta_plan is not None:
        healthy = (
            not collection.health.degraded
            and pipeline.executor.stats.quarantined_snapshots == quarantined_before
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
