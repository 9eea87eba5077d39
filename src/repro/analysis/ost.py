"""OST stripe-count analysis (Figure 14, Observation 6, §4.2.1)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.context import AnalysisContext
from repro.query.engine import Kernel
from repro.scan.snapshot import Snapshot


@dataclass
class StripeStats:
    """Per-domain min / mean / max stripe counts over all file rows."""

    by_domain: dict[str, tuple[int, float, int]]
    default_stripe: int = 4

    def tuned_domains(self) -> list[str]:
        """Domains whose stripe counts deviate from the default anywhere."""
        return sorted(
            code
            for code, (lo, _, hi) in self.by_domain.items()
            if lo != self.default_stripe or hi != self.default_stripe
        )

    def untouched_domains(self) -> list[str]:
        """Domains that never left the default (paper: 11 of 35)."""
        return sorted(
            code
            for code, (lo, _, hi) in self.by_domain.items()
            if lo == self.default_stripe and hi == self.default_stripe
        )

    @property
    def max_observed(self) -> int:
        return max((hi for _, _, hi in self.by_domain.values()), default=0)


def _keys(gid: np.ndarray, stripe: np.ndarray) -> np.ndarray:
    """One int64 key per file row: ``gid << 32`` | the stripe count's bits."""
    return (gid.astype(np.int64) << 32) | (stripe.astype(np.int64) & 0xFFFFFFFF)


def _map_stripes(snapshot: Snapshot) -> tuple[np.ndarray, np.ndarray]:
    """``(keys, counts)``: the snapshot's file rows per (gid, stripe)."""
    mask = snapshot.is_file
    return np.unique(
        _keys(snapshot.gid[mask], snapshot.stripe_count[mask]),
        return_counts=True,
    )


def _update_stripes(state: list, delta) -> list:
    """Append the next snapshot's table: the last one, minus removed and
    changed-prev file rows, plus added and changed-cur file rows."""
    keys, weights = [state[-1][0]], [state[-1][1]]
    for rows, is_dir, sign in (
        (delta.removed, delta.removed_is_dir, -1),
        (delta.changed_prev, delta.changed_was_dir, -1),
        (delta.added, delta.added_is_dir, 1),
        (delta.changed_cur, delta.changed_is_dir, 1),
    ):
        keys.append(_keys(rows["gid"][~is_dir], rows["stripe_count"][~is_dir]))
        weights.append(np.full(keys[-1].size, sign, dtype=np.int64))
    table, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    counts = np.zeros(table.size, dtype=np.int64)
    np.add.at(counts, inverse, np.concatenate(weights))
    return state + [(table[counts > 0], counts[counts > 0])]


def stripes_kernel(ctx: AnalysisContext) -> Kernel:
    """Figure 14 as a kernel: per-snapshot (gid, stripe) file-row counts.

    The state is the list of per-snapshot tables, keyed by gid (the
    domain join happens in ``finish_fn``), and ``update`` appends the last
    table advanced by one delta."""

    def finish_stripes(tables: list) -> StripeStats:
        none = np.empty(0, dtype=np.int64)
        keys = np.concatenate([none, *(k for k, _ in tables)])
        counts = np.concatenate([none, *(c for _, c in tables)])
        dom = ctx.domain_ids_of_gids(keys >> 32)
        stripes = (keys & 0xFFFFFFFF).astype(np.uint32).view(np.int32)
        out: dict[str, tuple[int, float, int]] = {}
        for code in ctx.domain_codes:
            sel = dom == ctx.domain_index[code]
            if not sel.any():
                continue
            values, n = stripes[sel], counts[sel]
            # exact: every partial sum is an integer below 2**53, so this
            # is bit-for-bit np.mean over the pooled int32 rows
            mean = float(int((values * n).sum())) / int(n.sum())
            out[code] = (int(values.min()), mean, int(values.max()))
        return StripeStats(by_domain=out)

    return Kernel(
        name="stripes",
        map_fn=_map_stripes,
        reduce_fn=list,
        finish_fn=finish_stripes,
        update_fn=_update_stripes,
    )


def stripe_stats(ctx: AnalysisContext) -> StripeStats:
    """Figure 14: min/avg/max OST counts per domain, over all snapshots.

    Pools every file row from every snapshot (a file present across many
    weeks counts each week, like the paper's "OST counts of files from all
    snapshots").
    """
    return ctx.run_kernels([stripes_kernel(ctx)])["stripes"]
