"""File-type (extension) analysis — Table 2 and Figure 10 (§4.1.3).

Popularity is measured over unique files accumulated across snapshots; the
temporal trend recomputes shares per snapshot for the global top-20
extensions plus the paper's two explicit buckets, *no extension* and
*other*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.context import AnalysisContext
from repro.analysis.rows import ROWS_KERNEL, RowCensus, rows_kernel
from repro.query.engine import Kernel
from repro.scan.extensions import NO_EXTENSION
from repro.scan.snapshot import Snapshot
from repro.stats.dispersion import gini


@dataclass
class DomainExtensions:
    """Table 2 row: a domain's top extensions with popularity (%)."""

    domain: str
    top: list[tuple[str, float]]  # (extension, percent of domain files)
    n_files: int
    concentration: float  # gini over the extension count histogram

    @property
    def dominant(self) -> bool:
        """Is the #1 extension > 40% (Table 2 bold rows)?"""
        return bool(self.top and self.top[0][1] > 40.0)


def extensions_from_census(
    ctx: AnalysisContext, census: RowCensus, top_k: int = 3
) -> dict[str, DomainExtensions]:
    """Table 2 from the shared unique-row census."""
    ext = ctx.collection.paths.ext_ids_of(census.file_pid)
    dom = ctx.domain_ids_of_gids(census.file_gid)
    names = ctx.collection.paths.extensions.names

    out: dict[str, DomainExtensions] = {}
    for code in ctx.domain_codes:
        mask = dom == ctx.domain_index[code]
        if not mask.any():
            continue
        ids, counts = np.unique(ext[mask], return_counts=True)
        total = int(counts.sum())
        # the paper's Table 2 ranks real extensions; the no-extension
        # bucket is tracked separately in Figure 10
        order = np.argsort(counts)[::-1]
        top: list[tuple[str, float]] = []
        for idx in order:
            eid = int(ids[idx])
            if names[eid] == NO_EXTENSION:
                continue
            top.append((names[eid], 100.0 * counts[idx] / total))
            if len(top) == top_k:
                break
        out[code] = DomainExtensions(
            domain=code,
            top=top,
            n_files=total,
            concentration=gini(counts.astype(np.float64)),
        )
    return out


def extensions_by_domain(
    ctx: AnalysisContext, top_k: int = 3
) -> dict[str, DomainExtensions]:
    """Table 2: per-domain top-``top_k`` extensions over unique files."""
    census = ctx.run_kernels([rows_kernel()])[ROWS_KERNEL]
    return extensions_from_census(ctx, census, top_k)


@dataclass
class ExtensionTrend:
    """Figure 10: weekly share of the global top-20 extensions."""

    labels: list[str]  # snapshot labels, chronological
    extensions: list[str]  # top-20 extension names, by overall rank
    shares: np.ndarray  # (n_snapshots, 20) share per snapshot
    no_extension: np.ndarray  # share of files with no extension
    other: np.ndarray  # share of everything else

    @property
    def mean_other(self) -> float:
        """Paper: ≈35% on average."""
        return float(self.other.mean())

    @property
    def mean_no_extension(self) -> float:
        """Paper: ≈16% on average."""
        return float(self.no_extension.mean())

    def spike_week(self, extension: str) -> str:
        """Snapshot label where an extension's share peaks (e.g. ``bb``)."""
        idx = self.extensions.index(extension)
        return self.labels[int(np.argmax(self.shares[:, idx]))]


def _map_ext_hist(snapshot: Snapshot) -> tuple[str, np.ndarray, np.ndarray, int]:
    """Per-snapshot extension histogram over file rows."""
    ext = snapshot.ext_id()[snapshot.is_file]
    eids, counts = np.unique(ext, return_counts=True)
    return snapshot.label, eids, counts, int(ext.size)


def _update_ext_hist(state: list, delta) -> list:
    """Append the next snapshot's histogram: the last one minus the
    extensions of removed and changed-prev file rows, plus those of added
    and changed-cur file rows, in :func:`_map_ext_hist`'s shape."""
    _, eids, counts, _ = state[-1]
    ext_of = delta.paths.ext_ids_of
    gone = np.concatenate([
        ext_of(delta.removed["path_id"][~delta.removed_is_dir]),
        ext_of(delta.changed_prev["path_id"][~delta.changed_was_dir]),
    ])
    came = np.concatenate([
        ext_of(delta.added["path_id"][~delta.added_is_dir]),
        ext_of(delta.changed_cur["path_id"][~delta.changed_is_dir]),
    ])
    size = int(max(eids.max(initial=-1), came.max(initial=-1))) + 1
    hist = np.zeros(size, dtype=np.int64)
    hist[eids] = counts
    hist -= np.bincount(gone, minlength=size)
    hist += np.bincount(came, minlength=size)
    ids = np.flatnonzero(hist)
    return state + [(delta.cur_label, ids, hist[ids], int(delta.cur_files))]


def ext_hist_kernel() -> Kernel:
    """Figure 10's per-snapshot half: weekly extension histograms."""
    return Kernel(
        name="ext_hist", map_fn=_map_ext_hist, reduce_fn=list,
        update_fn=_update_ext_hist,
    )


def trend_from_census(
    ctx: AnalysisContext,
    census: RowCensus,
    hists: list[tuple[str, np.ndarray, np.ndarray, int]],
    top_k: int = 20,
) -> ExtensionTrend:
    """Figure 10 from the shared census (global ranking) plus the weekly
    histograms from :func:`ext_hist_kernel`."""
    paths = ctx.collection.paths
    names = paths.extensions.names
    noext_id = paths.extensions.no_extension_id

    # global ranking over unique files (census.file_pid is already the
    # sorted unique file-path census)
    ext_u = paths.ext_ids_of(census.file_pid)
    ids, counts = np.unique(ext_u, return_counts=True)
    order = np.argsort(counts)[::-1]
    top_ids = [int(ids[i]) for i in order if int(ids[i]) != noext_id][:top_k]
    top_names = [names[e] for e in top_ids]
    rank_of = {e: i for i, e in enumerate(top_ids)}

    n = len(hists)
    shares = np.zeros((n, len(top_ids)))
    noext = np.zeros(n)
    other = np.zeros(n)
    labels = []
    for i, (label, eids, ecounts, total) in enumerate(hists):
        labels.append(label)
        if total == 0:
            continue
        covered = 0
        for eid, cnt in zip(eids, ecounts):
            eid = int(eid)
            if eid == noext_id:
                noext[i] = cnt / total
                covered += cnt
            elif eid in rank_of:
                shares[i, rank_of[eid]] = cnt / total
                covered += cnt
        other[i] = (total - covered) / total
    return ExtensionTrend(
        labels=labels,
        extensions=top_names,
        shares=shares,
        no_extension=noext,
        other=other,
    )


def extension_trend(ctx: AnalysisContext, top_k: int = 20) -> ExtensionTrend:
    """Figure 10: global top-``top_k`` extension shares per snapshot."""
    results = ctx.run_kernels([rows_kernel(), ext_hist_kernel()])
    return trend_from_census(
        ctx, results[ROWS_KERNEL], results["ext_hist"], top_k
    )
