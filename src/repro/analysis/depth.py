"""Directory-depth analysis (Figure 8(a), Figure 9, parts of Table 1).

Depth is the number of path components — the paper's CDF changes slope at
five because user-writable directories start at
``/lustre/atlas{1,2}/<domain>/<project>/<user>``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.context import AnalysisContext
from repro.analysis.rows import ROWS_KERNEL, RowCensus, rows_kernel
from repro.stats.cdf import Cdf, ecdf
from repro.stats.dispersion import five_number_summary


@dataclass
class DepthResult:
    """Directory-depth distributions."""

    #: Figure 8(a): CDF of each project's maximum directory depth.
    project_max_depth: Cdf
    #: CDF over all unique directories' depths.
    all_dirs: Cdf
    #: Figure 9 / Table 1: per-domain five-number summary of dir depths.
    by_domain: dict[str, dict[str, float]]
    #: overall deepest directory and the domain it belongs to (§4.1.2
    #: calls out a 2,030-deep stf stress tree and a 432-deep gen project)
    max_depth: int
    max_depth_domain: str

    def fraction_deeper_than(self, depth: int) -> float:
        """Share of projects with max depth > ``depth`` (paper: >30% at 10)."""
        return self.project_max_depth.tail_fraction(depth)

    def median_by_domain(self) -> dict[str, float]:
        return {code: s["median"] for code, s in self.by_domain.items()}


def depths_from_census(
    ctx: AnalysisContext,
    census: RowCensus,
    exclude_deepest_chain: bool = True,
) -> DepthResult:
    """Depth distributions over all unique directories ever observed.

    ``exclude_deepest_chain`` drops, per domain, the directories on the
    single deepest root-to-leaf chain from the *quartile* statistics (the
    ``max`` column always reports the raw maximum).  This is the paper's own
    convention — §4.1.2 reports the 432 maximum "excluding an experimental
    project in Staff (depth 2,030) for stress testing the metadata server".
    At reduced simulation scale the stress chains would otherwise dominate
    their domain's median; at OLCF scale they are invisible among millions
    of directories.
    """
    # unique directory paths with first-seen gid
    uniq, gid = census.dir_pid, census.dir_gid
    depths = ctx.collection.paths.depths_of(uniq)
    dom = ctx.domain_ids_of_gids(gid)

    by_domain: dict[str, dict[str, float]] = {}
    max_depth = 0
    max_domain = ""
    table = ctx.collection.paths
    for code in ctx.domain_codes:
        mask = dom == ctx.domain_index[code]
        if not mask.any():
            continue
        sample = depths[mask]
        top = int(sample.max())
        quartile_sample = sample
        if exclude_deepest_chain and sample.size > 1:
            # the deepest directory and its ancestors form the chain to drop
            deepest_pid = int(uniq[mask][np.argmax(sample)])
            chain = np.asarray(table.lineage(deepest_pid), dtype=np.int64)
            keep = ~np.isin(uniq[mask], chain)
            if keep.any():
                quartile_sample = sample[keep]
        summary = five_number_summary(quartile_sample)
        summary["max"] = float(top)  # max always reported raw
        by_domain[code] = summary
        if top > max_depth:
            max_depth, max_domain = top, code

    # per-project max depth (Figure 8(a))
    proj_max: dict[int, int] = {}
    for g, d in zip(gid, depths):
        g = int(g)
        if d > proj_max.get(g, 0):
            proj_max[g] = int(d)
    project_cdf = ecdf(np.array(list(proj_max.values())))

    return DepthResult(
        project_max_depth=project_cdf,
        all_dirs=ecdf(depths),
        by_domain=by_domain,
        max_depth=max_depth,
        max_depth_domain=max_domain,
    )


def directory_depths(
    ctx: AnalysisContext, exclude_deepest_chain: bool = True
) -> DepthResult:
    """Depth distributions over all unique directories (Figures 8a and 9)."""
    census = ctx.run_kernels([rows_kernel()])[ROWS_KERNEL]
    return depths_from_census(ctx, census, exclude_deepest_chain)
