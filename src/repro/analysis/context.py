"""Shared analysis context.

Bundles what every analysis needs — the snapshot collection, the population
(standing in for OLCF's user-accounts database), a parallelism policy, and
the memoized gid → domain-id lookup in both dict and vectorized form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.query.parallel import Kernel, SnapshotExecutor
from repro.scan.snapshot import SnapshotCollection
from repro.synth.domains import DOMAINS
from repro.synth.population import Population


@dataclass
class AnalysisContext:
    collection: SnapshotCollection
    population: Population
    executor: SnapshotExecutor = field(default_factory=lambda: SnapshotExecutor(1))
    #: optional checkpoint path (set by ``analyze_archive``'s resumable
    #: mode): consumed one-shot by the first kernel-bearing pass, so only
    #: the fused pass — which runs every kernel in one call — should set it
    checkpoint: object | None = None
    #: extra identity folded into the checkpoint fingerprint (e.g. the
    #: archive's config fingerprint); a journal written under a different
    #: fingerprint is discarded instead of trusted
    checkpoint_meta: dict = field(default_factory=dict)
    #: optional :class:`~repro.core.runcontrol.RunController` — threaded
    #: into every kernel pass so deadlines/signals interrupt gracefully
    controller: object | None = None
    #: per-snapshot circuit-breaker threshold (see
    #: :meth:`~repro.query.engine.ExecutionEngine.run_kernels`)
    max_task_failures: int | None = None
    #: optional :class:`~repro.query.engine.DeltaPlan` (set by
    #: ``analyze_archive``'s incremental mode): consumed one-shot by the
    #: first kernel-bearing pass, like ``checkpoint`` — only the fused pass
    #: should see it
    delta_plan: object | None = None

    # -- kernel execution ------------------------------------------------------

    def run_kernels(self, kernels: list[Kernel]) -> dict:
        """Run kernels in one fused pass over this context's collection.

        Every analysis routes its snapshot scans through here, so a single
        executor policy (and its stats) covers both the per-analysis
        one-kernel wrappers and the registry's fully fused pass.  If a
        ``checkpoint`` path is attached, the first non-empty pass consumes
        it (one-shot) and becomes resumable: completed snapshots are
        journaled durably and restored on a rerun instead of re-executed.
        """
        journal = None
        if kernels and self.checkpoint is not None:
            from repro.query.journal import KernelJournal

            path, self.checkpoint = self.checkpoint, None
            journal = KernelJournal(
                path,
                kernels=[k.name for k in kernels],
                labels=list(self.collection.labels),
                fingerprint=self.checkpoint_meta,
            )
        plan = None
        if kernels and self.delta_plan is not None:
            plan, self.delta_plan = self.delta_plan, None
        return self.executor.run_kernels(
            self.collection,
            kernels,
            journal=journal,
            controller=self.controller,
            max_task_failures=self.max_task_failures,
            delta_plan=plan,
        )

    # -- execution observability ----------------------------------------------

    @property
    def execution_stats(self):
        """Lifetime :class:`~repro.query.engine.ExecutionStats` of the
        executor driving this suite (tasks, wall/busy time, bytes touched,
        downgrades).  Render with
        :func:`repro.analysis.report.render_execution_stats`."""
        return self.executor.stats

    # -- domain indexing -----------------------------------------------------

    @cached_property
    def domain_codes(self) -> list[str]:
        """Stable domain order (Table 1 alphabetical)."""
        return sorted(DOMAINS)

    @cached_property
    def domain_index(self) -> dict[str, int]:
        return {code: i for i, code in enumerate(self.domain_codes)}

    @cached_property
    def gid_to_domain_id(self) -> dict[int, int]:
        idx = self.domain_index
        return {
            gid: idx[p.domain] for gid, p in self.population.projects.items()
        }

    @cached_property
    def _gid_lookup(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted gid array + parallel domain-id array for vectorized maps."""
        gids = np.array(sorted(self.gid_to_domain_id), dtype=np.int64)
        dom = np.array(
            [self.gid_to_domain_id[int(g)] for g in gids], dtype=np.int64
        )
        return gids, dom

    def domain_ids_of_gids(self, gids: np.ndarray) -> np.ndarray:
        """Vectorized gid → domain-id map; unknown gids get -1."""
        table, dom = self._gid_lookup
        pos = np.searchsorted(table, gids)
        pos_clipped = np.clip(pos, 0, table.size - 1)
        out = dom[pos_clipped].copy()
        out[table[pos_clipped] != gids] = -1
        return out

    @property
    def n_snapshots(self) -> int:
        return len(self.collection)
