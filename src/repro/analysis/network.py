"""The file generation network (§4.3: Figure 18, Table 3, Figure 19).

Users and projects are vertices; an edge connects a user to every project
they participate in (the paper builds this from the affiliation data behind
the snapshots).  All graph algorithms come from :mod:`repro.graph`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.context import AnalysisContext
from repro.graph.centrality import betweenness_centrality
# not called here; perfbench's tracer self-test wraps this alias by name
from repro.graph.centrality import closeness_centrality  # noqa: F401
from repro.graph.components import ConnectedComponents, connected_components
from repro.graph.core import Graph
from repro.graph.traversal import distance_profile, radius_from
from repro.stats.powerlaw import PowerLawFit, fit_power_law


@dataclass
class FileGenerationNetwork:
    """The bipartite user–project graph with its label tables."""

    graph: Graph = field(repr=False)
    uids: np.ndarray = field(repr=False)  # vertex i < n_users ↔ uids[i]
    gids: np.ndarray = field(repr=False)  # vertex n_users + j ↔ gids[j]

    @property
    def n_users(self) -> int:
        return int(self.uids.size)

    @property
    def n_projects(self) -> int:
        return int(self.gids.size)

    def is_user_vertex(self, v: int) -> bool:
        return v < self.n_users

    def vertex_of_gid(self, gid: int) -> int:
        return self.n_users + int(np.searchsorted(self.gids, gid))

    def label(self, v: int) -> tuple[str, int]:
        """("user", uid) or ("project", gid)."""
        if v < self.n_users:
            return ("user", int(self.uids[v]))
        return ("project", int(self.gids[v - self.n_users]))


def build_network(
    ctx: AnalysisContext, exclude_domains: frozenset[str] = frozenset()
) -> FileGenerationNetwork:
    """Construct the graph from the population's affiliations."""
    population = ctx.population
    skip_gids = {
        gid
        for gid, p in population.projects.items()
        if p.domain in exclude_domains
    }
    uids = np.array(sorted(population.users), dtype=np.int64)
    gids = np.array(
        sorted(g for g in population.projects if g not in skip_gids),
        dtype=np.int64,
    )
    uidx = {int(u): i for i, u in enumerate(uids)}
    gidx = {int(g): uids.size + j for j, g in enumerate(gids)}
    edges = [
        (uidx[uid], gidx[gid])
        for uid, user in population.users.items()
        for gid in user.projects
        if gid in gidx
    ]
    graph = Graph.from_edges(
        uids.size + gids.size, np.array(edges, dtype=np.int64).reshape(-1, 2)
    )
    return FileGenerationNetwork(graph=graph, uids=uids, gids=gids)


@dataclass
class DegreeResult:
    """Figure 18(b): the degree distribution and its power-law fit."""

    degrees: np.ndarray
    fit: PowerLawFit

    @property
    def follows_power_law(self) -> bool:
        return self.fit.plausibly_power_law


def degree_distribution(network: FileGenerationNetwork) -> DegreeResult:
    degrees = network.graph.degree()
    positive = degrees[degrees > 0]
    return DegreeResult(degrees=degrees, fit=fit_power_law(positive))


@dataclass
class ComponentResult:
    """Table 3 + Figure 19 + the §4.3.2 centrality findings."""

    components: ConnectedComponents
    largest_users: int
    largest_projects: int
    diameter: int
    #: Figure 19(a): share of the largest component's projects per domain.
    domain_share_of_largest: dict[str, float]
    #: Figure 19(b): P(project in largest component) per domain.
    domain_inclusion_prob: dict[str, float]
    #: top central vertices [(kind, id, closeness)] in the largest component
    central_entities: list[tuple[str, int, float]]
    #: hops needed to reach the whole component from the central entities
    central_radius: int

    @property
    def size_distribution(self) -> dict[int, int]:
        return self.components.size_distribution()

    @property
    def coverage(self) -> float:
        return self.components.coverage()


def component_analysis(
    ctx: AnalysisContext,
    network: FileGenerationNetwork,
    n_central: int = 12,
) -> ComponentResult:
    """Connected components, diameter, and centrality of the largest CC."""
    cc = connected_components(network.graph)
    members = cc.largest_members()
    sub, verts = network.graph.subgraph(members)
    # one all-sources sweep gives both the diameter and the closeness
    profile = distance_profile(sub)

    user_members = members[members < network.n_users]
    project_members = members[members >= network.n_users]
    member_gids = network.gids[project_members - network.n_users]

    # Figure 19: domain composition / inclusion probabilities
    dom_ids = ctx.domain_ids_of_gids(member_gids)
    share: dict[str, float] = {}
    inclusion: dict[str, float] = {}
    in_largest = set(int(g) for g in member_gids)
    network_gids = set(int(g) for g in network.gids)
    for code in ctx.domain_codes:
        did = ctx.domain_index[code]
        n_in = int((dom_ids == did).sum())
        if member_gids.size:
            share[code] = n_in / member_gids.size
        domain_gids = [
            gid
            for gid, p in ctx.population.projects.items()
            if p.domain == code and gid in network_gids
        ]
        if domain_gids:
            inclusion[code] = sum(
                1 for g in domain_gids if g in in_largest
            ) / len(domain_gids)

    # §4.3.2 centrality: top closeness vertices within the largest CC
    closeness = profile.closeness()
    order = np.argsort(closeness)[::-1][:n_central]
    central: list[tuple[str, int, float]] = []
    central_sub_ids = []
    for idx in order:
        original = int(verts[idx])
        kind, ident = network.label(original)
        central.append((kind, ident, float(closeness[idx])))
        central_sub_ids.append(int(idx))
    radius = radius_from(sub, np.array(central_sub_ids)) if central_sub_ids else 0

    return ComponentResult(
        components=cc,
        largest_users=int(user_members.size),
        largest_projects=int(project_members.size),
        diameter=profile.diameter,
        domain_share_of_largest=share,
        domain_inclusion_prob=inclusion,
        central_entities=central,
        central_radius=radius,
    )


def brokerage_ranking(
    network: FileGenerationNetwork, top_k: int = 10
) -> list[tuple[str, int, float]]:
    """Betweenness ranking — the liaison-role view of §4.3.2."""
    bc = betweenness_centrality(network.graph)
    order = np.argsort(bc)[::-1][:top_k]
    return [
        (*network.label(int(v)), float(bc[v])) for v in order
    ]
