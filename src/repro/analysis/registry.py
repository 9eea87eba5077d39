"""Declarative registry of the §4 analyses — the fused pass's wiring.

Each :class:`AnalysisSpec` names one paper artifact, the kernels it needs,
and a parent-side ``finalize`` that turns kernel results into the report's
result objects.  :func:`run_analyses` either

* **fused** (the default): collects every selected spec's kernels, dedupes
  them by name (six analyses share the ``rows`` census, and the engine
  additionally shares map evaluations), and runs them all in **one**
  pass over the snapshot collection; or
* **legacy passes**: runs each spec's kernels in its own pass, reproducing
  the old one-pass-per-analysis behavior for ablation.

Population-only analyses (participation, the file generation network,
collaboration) have no kernels — their finalizers never touch a snapshot.
Specs may ``require`` other specs (Table 1 assembles eight of them);
:func:`resolve_specs` expands requirements transitively and keeps the
declaration order, which is a valid topological order by construction.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.analysis.access import access_kernel, ages_kernel
from repro.analysis.burstiness import burstiness_kernel
from repro.analysis.collaboration import collaboration
from repro.analysis.context import AnalysisContext
from repro.analysis.depth import depths_from_census
from repro.analysis.extensions import (
    ext_hist_kernel,
    extensions_from_census,
    trend_from_census,
)
from repro.analysis.files import entries_from_census, file_count_cdfs_from_census
from repro.analysis.growth import growth_kernel
from repro.analysis.languages import (
    domain_languages_from_census,
    ranking_from_census,
)
from repro.analysis.network import (
    build_network,
    component_analysis,
    degree_distribution,
)
from repro.analysis.ost import stripes_kernel
from repro.analysis.rows import ROWS_KERNEL, rows_kernel
from repro.analysis.table1 import assemble_table1
from repro.analysis.users import (
    active_ids_kernel,
    participation,
    user_profile_from_active,
)
from repro.query.engine import Kernel


@dataclass
class AnalyzeOptions:
    """Everything an analysis finalizer may need besides kernel results."""

    ctx: AnalysisContext
    scan_history: list | None = None
    purge_window_days: int = 90
    burstiness_min_files: int = 10


@dataclass(frozen=True)
class AnalysisSpec:
    """One selectable analysis: its kernels plus a parent-side finalizer.

    ``finalize(opts, kernel_results, values)`` returns ``{field: result}``
    for the :class:`~repro.core.pipeline.PaperReport` fields in ``fields``;
    ``values`` holds the fields of already-finalized specs (``requires``
    guarantees they ran first).
    """

    name: str
    fields: tuple[str, ...]
    build_kernels: Callable[[AnalyzeOptions], list[Kernel]]
    finalize: Callable[[AnalyzeOptions, dict[str, Any], dict[str, Any]], dict[str, Any]]
    requires: tuple[str, ...] = ()


def _no_kernels(opts: AnalyzeOptions) -> list[Kernel]:
    return []


def _finalize_users(opts, kres, values):
    active_uids, _ = kres["active_ids"]
    return {"fig5": user_profile_from_active(opts.ctx, active_uids)}


def _finalize_participation(opts, kres, values):
    return {"fig6": participation(opts.ctx)}


def _finalize_census(opts, kres, values):
    return {"fig7": entries_from_census(opts.ctx, kres[ROWS_KERNEL])}


def _finalize_cdfs(opts, kres, values):
    return {"fig8": file_count_cdfs_from_census(opts.ctx, kres[ROWS_KERNEL])}


def _finalize_depth(opts, kres, values):
    return {"fig8_depth": depths_from_census(opts.ctx, kres[ROWS_KERNEL])}


def _finalize_extensions(opts, kres, values):
    return {"table2": extensions_from_census(opts.ctx, kres[ROWS_KERNEL])}


def _finalize_ext_trend(opts, kres, values):
    return {
        "fig10": trend_from_census(
            opts.ctx, kres[ROWS_KERNEL], kres["ext_hist"]
        )
    }


def _finalize_languages(opts, kres, values):
    census = kres[ROWS_KERNEL]
    return {
        "fig11": ranking_from_census(opts.ctx, census),
        "fig12": domain_languages_from_census(opts.ctx, census),
    }


def _finalize_network(opts, kres, values):
    network = build_network(opts.ctx)
    return {
        "table3": component_analysis(opts.ctx, network),
        "fig18": degree_distribution(network),
    }


def _finalize_collaboration(opts, kres, values):
    return {"fig20": collaboration(opts.ctx)}


def _finalize_table1(opts, kres, values):
    return {
        "table1": assemble_table1(
            opts.ctx,
            entries=values["fig7"],
            depths=values["fig8_depth"],
            exts=values["table2"],
            langs=values["fig12"],
            stripes=values["fig14"],
            cv=values["fig17"],
            comp=values["table3"],
            collab=values["fig20"],
        )
    }


def _result(kernel_name: str, f: str):
    def finalize(opts, kres, values):
        return {f: kres[kernel_name]}

    return finalize


#: Declaration order is a valid topological order (requires come first).
SPECS: dict[str, AnalysisSpec] = {
    spec.name: spec
    for spec in [
        AnalysisSpec(
            name="users",
            fields=("fig5",),
            build_kernels=lambda opts: [active_ids_kernel()],
            finalize=_finalize_users,
        ),
        AnalysisSpec(
            name="participation",
            fields=("fig6",),
            build_kernels=_no_kernels,
            finalize=_finalize_participation,
        ),
        AnalysisSpec(
            name="census",
            fields=("fig7",),
            build_kernels=lambda opts: [rows_kernel()],
            finalize=_finalize_census,
        ),
        AnalysisSpec(
            name="cdfs",
            fields=("fig8",),
            build_kernels=lambda opts: [rows_kernel()],
            finalize=_finalize_cdfs,
        ),
        AnalysisSpec(
            name="depth",
            fields=("fig8_depth",),
            build_kernels=lambda opts: [rows_kernel()],
            finalize=_finalize_depth,
        ),
        AnalysisSpec(
            name="extensions",
            fields=("table2",),
            build_kernels=lambda opts: [rows_kernel()],
            finalize=_finalize_extensions,
        ),
        AnalysisSpec(
            name="ext_trend",
            fields=("fig10",),
            build_kernels=lambda opts: [rows_kernel(), ext_hist_kernel()],
            finalize=_finalize_ext_trend,
        ),
        AnalysisSpec(
            name="languages",
            fields=("fig11", "fig12"),
            build_kernels=lambda opts: [rows_kernel()],
            finalize=_finalize_languages,
        ),
        AnalysisSpec(
            name="access",
            fields=("fig13",),
            build_kernels=lambda opts: [access_kernel()],
            finalize=_result("access", "fig13"),
        ),
        AnalysisSpec(
            name="ost",
            fields=("fig14",),
            build_kernels=lambda opts: [stripes_kernel(opts.ctx)],
            finalize=_result("stripes", "fig14"),
        ),
        AnalysisSpec(
            name="growth",
            fields=("fig15",),
            build_kernels=lambda opts: [growth_kernel(opts.scan_history)],
            finalize=_result("growth", "fig15"),
        ),
        AnalysisSpec(
            name="ages",
            fields=("fig16",),
            build_kernels=lambda opts: [ages_kernel(opts.purge_window_days)],
            finalize=_result("ages", "fig16"),
        ),
        AnalysisSpec(
            name="burstiness",
            fields=("fig17",),
            build_kernels=lambda opts: [
                burstiness_kernel(opts.ctx, opts.burstiness_min_files)
            ],
            finalize=_result("burstiness", "fig17"),
        ),
        AnalysisSpec(
            name="network",
            fields=("table3", "fig18"),
            build_kernels=_no_kernels,
            finalize=_finalize_network,
        ),
        AnalysisSpec(
            name="collaboration",
            fields=("fig20",),
            build_kernels=_no_kernels,
            finalize=_finalize_collaboration,
        ),
        AnalysisSpec(
            name="table1",
            fields=("table1",),
            build_kernels=_no_kernels,
            finalize=_finalize_table1,
            requires=(
                "census",
                "depth",
                "extensions",
                "languages",
                "ost",
                "burstiness",
                "network",
                "collaboration",
            ),
        ),
    ]
}


def resolve_specs(
    analyses: Sequence[str] | str | None = None,
) -> list[AnalysisSpec]:
    """Selected specs plus their transitive requirements, registry order.

    ``analyses`` may be None / ``"all"`` (everything), a comma-separated
    string (the CLI form), or a sequence of spec names.
    """
    if analyses is None or analyses == "all":
        return list(SPECS.values())
    if isinstance(analyses, str):
        analyses = [a.strip() for a in analyses.split(",") if a.strip()]
    unknown = sorted(set(analyses) - set(SPECS))
    if unknown:
        raise ValueError(
            f"unknown analyses {unknown}; available: {sorted(SPECS)}"
        )
    wanted = set(analyses)
    frontier = list(wanted)
    while frontier:
        spec = SPECS[frontier.pop()]
        for dep in spec.requires:
            if dep not in wanted:
                wanted.add(dep)
                frontier.append(dep)
    return [spec for spec in SPECS.values() if spec.name in wanted]


def run_analyses(
    opts: AnalyzeOptions,
    specs: Sequence[AnalysisSpec],
) -> dict[str, Any]:
    """Run the selected specs; returns ``{report field: result object}``.

    The union of all specs' kernels (deduped by name) executes in one pass
    over the collection; each spec then finalizes from the kernel results.
    """
    kernels: dict[str, Kernel] = {}
    for spec in specs:
        for kernel in spec.build_kernels(opts):
            kernels.setdefault(kernel.name, kernel)
    kres = opts.ctx.run_kernels(list(kernels.values())) if kernels else {}
    values: dict[str, Any] = {}
    for spec in specs:
        values.update(spec.finalize(opts, kres, values))
    return values
