"""User and project participation analysis (Figures 5 and 6, §4.1.1).

The paper identifies active users by gathering every UID present in any
snapshot, then joins against the user-accounts database for organization
type and science domain.  We do the same join against the synthetic
accounts table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.context import AnalysisContext
from repro.query.engine import Kernel
from repro.scan.snapshot import Snapshot
from repro.stats.cdf import Cdf, ecdf
from repro.stats.histogram import ratio_breakdown


@dataclass
class UserProfile:
    """Figure 5: the active-user census."""

    n_active: int
    n_registered_hint: int
    org_fractions: dict[str, float]  # Figure 5(a)
    domain_counts: dict[str, int]  # Figure 5(b)

    @property
    def domain_scientist_fraction(self) -> float:
        """Share of active users outside Computer Science (paper: >70%)."""
        total = sum(self.domain_counts.values())
        if total == 0:
            return 0.0
        return 1.0 - self.domain_counts.get("csc", 0) / total


def _map_active(snapshot: Snapshot) -> tuple[np.ndarray, np.ndarray]:
    return np.unique(snapshot.uid), np.unique(snapshot.gid)


def _reduce_active(
    partials: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    if not partials:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    uids = np.unique(np.concatenate([p[0] for p in partials])).astype(np.int64)
    gids = np.unique(np.concatenate([p[1] for p in partials])).astype(np.int64)
    return uids, gids


def _update_active(
    state: tuple[np.ndarray, np.ndarray], delta
) -> tuple[np.ndarray, np.ndarray]:
    """Fold one delta into the active-ID census.

    Unchanged rows carry the same owners as the previous snapshot (already
    in the census), so only ``added`` and ``changed`` current-side rows can
    introduce new UIDs/GIDs.
    """
    uids, gids = state
    new_uid = np.concatenate(
        [delta.added["uid"], delta.changed_cur["uid"]]
    ).astype(np.int64)
    new_gid = np.concatenate(
        [delta.added["gid"], delta.changed_cur["gid"]]
    ).astype(np.int64)
    return np.union1d(uids, new_uid), np.union1d(gids, new_gid)


def active_ids_kernel() -> Kernel:
    """UIDs/GIDs owning at least one entry in any snapshot (§4.1.1).

    Delta-capable: the census is a plain union, so ``update`` only has to
    union in the owners of added/changed rows."""
    return Kernel(
        name="active_ids",
        map_fn=_map_active,
        reduce_fn=_reduce_active,
        update_fn=_update_active,
    )


def user_profile_from_active(
    ctx: AnalysisContext, active_uids: np.ndarray
) -> UserProfile:
    """Figure 5 from an already-gathered active-UID census."""
    accounts = ctx.population.accounts_table()
    active = [int(u) for u in active_uids if int(u) in accounts]
    org_counts: dict[str, int] = {}
    domain_counts: dict[str, int] = {}
    for uid in active:
        org, domain = accounts[uid]
        org_counts[org] = org_counts.get(org, 0) + 1
        domain_counts[domain] = domain_counts.get(domain, 0) + 1
    from repro.synth.domains import TOTAL_REGISTERED_USERS

    return UserProfile(
        n_active=len(active),
        n_registered_hint=TOTAL_REGISTERED_USERS,
        org_fractions=ratio_breakdown(org_counts),
        domain_counts=dict(sorted(domain_counts.items())),
    )


def user_profile(ctx: AnalysisContext) -> UserProfile:
    """Join active snapshot UIDs against the accounts database (Figure 5)."""
    active_uids, _ = ctx.run_kernels([active_ids_kernel()])["active_ids"]
    return user_profile_from_active(ctx, active_uids)


@dataclass
class ParticipationResult:
    """Figure 6: user ↔ project participation distributions."""

    projects_per_user: Cdf  # Figure 6(a)
    users_per_project: Cdf  # Figure 6(b)
    median_users_by_domain: dict[str, float]  # Figure 6(c)
    mean_users_per_project: float

    @property
    def multi_project_fraction(self) -> float:
        """Users in more than one project (paper: >60%... our shape check)."""
        return self.projects_per_user.tail_fraction(1.0)

    @property
    def heavy_user_fraction(self) -> float:
        """Users in eight or more projects (paper: ~2%)."""
        return self.projects_per_user.tail_fraction(7.0)


def participation(ctx: AnalysisContext) -> ParticipationResult:
    """Membership distributions from the affiliation data (Figure 6)."""
    users = ctx.population.users
    projects = ctx.population.projects
    ppu = np.array([u.n_projects for u in users.values() if u.n_projects > 0])
    upp = np.array([p.n_users for p in projects.values()])
    medians: dict[str, float] = {}
    for code in ctx.domain_codes:
        sizes = [p.n_users for p in projects.values() if p.domain == code]
        if sizes:
            medians[code] = float(np.median(sizes))
    return ParticipationResult(
        projects_per_user=ecdf(ppu),
        users_per_project=ecdf(upp),
        median_users_by_domain=medians,
        mean_users_per_project=float(upp.mean()),
    )
