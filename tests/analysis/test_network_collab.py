import numpy as np

from repro.analysis.collaboration import collaboration
from repro.analysis.network import (
    brokerage_ranking,
    build_network,
    component_analysis,
    degree_distribution,
)
from repro.graph.centrality import closeness_centrality
from repro.graph.traversal import exact_diameter, radius_from


def test_network_vertex_counts(ctx):
    net = build_network(ctx)
    assert net.n_users == ctx.population.n_users
    assert net.n_projects == ctx.population.n_projects
    assert net.graph.n == net.n_users + net.n_projects


def test_network_edges_match_memberships(ctx):
    net = build_network(ctx)
    memberships = ctx.population.memberships()
    assert net.graph.n_edges == len(
        {(int(u), int(g)) for u, g in memberships}
    )


def test_network_is_bipartite(ctx):
    net = build_network(ctx)
    # user vertices only connect to project vertices
    for v in range(0, net.n_users, 97):
        for nbr in net.graph.neighbors(v):
            assert nbr >= net.n_users


def test_exclude_domains(ctx):
    net = build_network(ctx, exclude_domains=frozenset({"stf"}))
    stf_gids = {
        g for g, p in ctx.population.projects.items() if p.domain == "stf"
    }
    assert not (set(int(g) for g in net.gids) & stf_gids)


def test_degree_distribution_power_law(ctx):
    """Figure 18(b): the degree distribution follows a power law."""
    net = build_network(ctx)
    result = degree_distribution(net)
    assert result.fit.loglog_slope < -1.0
    assert 1.5 < result.fit.alpha < 4.0
    assert result.follows_power_law


def test_component_structure(ctx):
    """Table 3's shape: many tiny components + one giant one."""
    net = build_network(ctx)
    comp = component_analysis(ctx, net)
    assert 100 < comp.components.count < 250  # paper: 160
    assert 0.55 < comp.coverage < 0.9  # paper: 72%
    dist = comp.size_distribution
    assert dist.get(2, 0) > 30  # paper: 94 single-user-single-project
    assert comp.largest_users > comp.largest_projects  # 1051 vs 208


def test_component_diameter_sparse(ctx):
    net = build_network(ctx)
    comp = component_analysis(ctx, net)
    # sparsely connected: diameter well above a dense network's 2-4
    assert comp.diameter >= 6
    # central entities reach everything in far fewer hops (§4.3.2)
    assert comp.central_radius < comp.diameter
    assert comp.central_radius > 0


def test_component_figures_match_per_vertex_references(ctx):
    """The one-sweep diameter and closeness equal the per-vertex BFS references."""
    net = build_network(ctx)
    comp = component_analysis(ctx, net, n_central=12)
    sub, verts = net.graph.subgraph(comp.components.largest_members())
    closeness = closeness_centrality(sub)
    order = np.argsort(closeness)[::-1][:12]
    assert comp.diameter == exact_diameter(sub)
    assert comp.central_entities == [
        (*net.label(int(verts[i])), float(closeness[i])) for i in order
    ]
    assert comp.central_radius == radius_from(sub, order)


def test_domain_inclusion_probabilities(ctx):
    """Figure 19(b): chp/env/cli mostly inside; med/pss outside."""
    net = build_network(ctx)
    comp = component_analysis(ctx, net)
    inc = comp.domain_inclusion_prob
    assert inc["chp"] > 0.7
    assert inc["env"] > 0.7
    assert inc["cli"] > 0.5
    assert inc.get("med", 0.0) < 0.5
    # Figure 19(a): csc contributes the most projects
    share = comp.domain_share_of_largest
    assert max(share, key=share.get) == "csc"


def test_central_entities_include_liaisons(ctx):
    """§4.3.2: staff/csc liaison users sit at the center."""
    net = build_network(ctx)
    comp = component_analysis(ctx, net, n_central=12)
    central_users = [ident for kind, ident, _ in comp.central_entities if kind == "user"]
    liaison_uids = {
        uid
        for uid, u in ctx.population.users.items()
        if u.role in ("staff", "postdoc", "liaison")
    }
    assert set(central_users) & liaison_uids


def test_brokerage_ranking(ctx):
    net = build_network(ctx)
    rows = brokerage_ranking(net, top_k=5)
    assert len(rows) == 5
    scores = [s for _, _, s in rows]
    assert scores == sorted(scores, reverse=True)


def test_collaboration_sparse(ctx):
    """§4.3.3: only ~1% of user pairs share a project."""
    result = collaboration(ctx)
    assert result.n_possible_pairs > 900_000  # 1362 users
    assert 0.001 < result.sharing_fraction < 0.06


def test_collaboration_cli_leads(ctx):
    """Figure 20: cli tops the domain pair-sharing ranking."""
    result = collaboration(ctx)
    top3 = result.top_domains(3)
    assert "cli" in top3
    assert "csc" in top3 or "nfi" in top3


def test_extreme_pair_planted(ctx):
    result = collaboration(ctx)
    assert result.extreme_pair is not None
    _, _, n_shared = result.extreme_pair
    assert n_shared >= 5
    assert result.extreme_pair_domains.get("cli", 0) >= 4


def test_stf_excluded_from_collaboration(ctx):
    result = collaboration(ctx)
    assert "stf" not in result.domain_pair_share


def test_collaboration_graph_cross_checks_pairs(ctx):
    """The user projection's edge count equals the pair enumeration."""
    from repro.analysis.collaboration import collaboration, collaboration_graph

    pairs = collaboration(ctx)
    proj = collaboration_graph(ctx)
    assert proj.n_edges == pairs.n_sharing_pairs
    assert proj.n_users == ctx.population.n_users


def test_collaboration_graph_clustering(ctx):
    from repro.analysis.collaboration import collaboration_graph

    proj = collaboration_graph(ctx)
    # teams make collaborators' collaborators collaborate: high clustering
    assert 0.3 < proj.mean_clustering <= 1.0
    assert proj.clustering_by_domain
    for value in proj.clustering_by_domain.values():
        assert 0.0 <= value <= 1.0


def test_collaboration_graph_top_ties(ctx):
    from repro.analysis.collaboration import collaboration_graph

    proj = collaboration_graph(ctx)
    assert proj.top_ties
    strengths = [w for _, _, w in proj.top_ties]
    assert strengths == sorted(strengths, reverse=True)
    # the planted extreme pair tops the tie ranking
    assert strengths[0] >= 5
