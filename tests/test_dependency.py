"""Dependency graph construction and its structure lemmas."""

import itertools
import random

import pytest

from frugal import flows
from frugal.core import (
    KPathSystem,
    ROutOfKSystem,
    VertexCoverSystem,
    is_feasible,
    minimal_feasible_sets,
    restrict,
)
from frugal.dependency import (
    build_dependency,
    build_dependency_kpath,
    components,
)
from frugal.errors import MonopolyError, StructureError, ValidationError
from frugal.flows import (
    DiGraph,
    IntegralFlow,
    articulation_decomposition,
    cheapest_kplus1_subgraph,
    max_flow_value,
    min_cost_flow,
)

from fixtures import (
    DIAMOND_COSTS,
    brute_all_simple_paths,
    brute_dependency_kpath,
    brute_max_flow,
    diamond,
    layered_grid,
    para,
    para_costs,
    parallel_edges,
    random_digraph,
    star_graph,
    two_diamonds_in_series,
)


def test_diamond_dependency_is_four_cycle():
    g = diamond()
    gstar = min_cost_flow(g, DIAMOND_COSTS, 2)
    h = build_dependency_kpath(g, gstar, 1)
    assert h.adjacent(0, 1) and h.adjacent(0, 3)
    assert not h.adjacent(0, 2) and not h.adjacent(1, 3)
    assert h.adjacent(2, 1) and h.adjacent(2, 3)
    assert len(h.edges) == 4


def test_para_dependency_is_star():
    g = para(4)
    gstar = cheapest_kplus1_subgraph(g, para_costs(4), 1)
    h = build_dependency_kpath(g, gstar, 1)
    # The single direct edge is joined to every edge of the long path.
    direct = 0
    for e in range(1, 5):
        assert h.adjacent(direct, e)
    for a, b in itertools.combinations(range(1, 5), 2):
        assert not h.adjacent(a, b)


def test_vertex_cover_dependency_is_input_graph():
    g = star_graph(3)
    h = build_dependency(VertexCoverSystem(g))
    assert h.nodes == (0, 1, 2, 3)
    assert h.edges == frozenset(g.edges)


def test_r_out_of_k_dependency_is_multipartite():
    system = ROutOfKSystem(((0,), (1, 2), (3, 4, 5)), 2)
    restricted = restrict(system, {0, 1, 2, 3, 4, 5})
    h = build_dependency(restricted)
    groups = [(0,), (1, 2), (3, 4, 5)]
    for ga, gb in itertools.combinations(groups, 2):
        for a in ga:
            for b in gb:
                assert h.adjacent(a, b)
    for grp in groups:
        for a, b in itertools.combinations(grp, 2):
            assert not h.adjacent(a, b)


def test_generic_matches_kpath_fast_path():
    rng = random.Random(31)
    checked = 0
    while checked < 20:
        g = random_digraph(rng, rng.randint(3, 5), rng.randint(3, 9))
        mf = brute_max_flow(g)
        if mf < 2:
            continue
        k = rng.randint(1, mf - 1)
        costs = [float(rng.randint(0, 9)) for _ in range(g.n_edges)]
        gstar = cheapest_kplus1_subgraph(g, costs, k)
        fast = build_dependency_kpath(g, gstar, k)
        generic = build_dependency(restrict(KPathSystem(g, k), gstar.edge_ids))
        assert fast.nodes == generic.nodes
        assert fast.edges == generic.edges
        checked += 1


def test_kpath_builder_matches_pairwise_oracle(monkeypatch):
    # The reachability builder agrees edge for edge with one max-flow per
    # pair, and makes no max-flow call of its own.
    calls = []
    real = flows.max_flow_value

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(flows, "max_flow_value", counting)

    def check(g, costs, k):
        gstar = cheapest_kplus1_subgraph(g, costs, k)
        expected = brute_dependency_kpath(g, gstar, k)
        calls.clear()
        assert build_dependency_kpath(g, gstar, k) == expected
        assert calls == []

    rng = random.Random(47)
    checked = 0
    while checked < 300:
        # Random digraphs: cycles, parallel edges and tied integer costs.
        g = random_digraph(rng, rng.randint(3, 8), rng.randint(3, 16))
        mf = max_flow_value(g)
        if mf < 2:
            continue
        k = rng.randint(1, mf - 1)
        check(g, [float(rng.randint(0, 3)) for _ in range(g.n_edges)], k)
        checked += 1
    for layers, width, k in ((16, 3, 1), (12, 4, 2), (9, 5, 3), (12, 5, 3)):
        g = layered_grid(rng, layers, width)
        assert g.n_edges > 53
        check(g, [rng.uniform(1.0, 10.0) for _ in range(g.n_edges)], k)
        check(g, [float(rng.randint(1, 4)) for _ in range(g.n_edges)], k)


def test_kpath_builder_makes_no_scc_pass_on_wide_flows(monkeypatch):
    # Joined pairs come from one reachability sweep, not from a
    # strongly-connected-component pass per edge; checked on G* of up to
    # six paths and on G* with parallel edges.
    calls = []
    real = flows.strongly_connected_components

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(flows, "strongly_connected_components", counting)

    def check(g, costs, k):
        gstar = cheapest_kplus1_subgraph(g, costs, k)
        assert build_dependency_kpath(g, gstar, k) == brute_dependency_kpath(g, gstar, k)

    rng = random.Random(53)
    for layers, width in ((3, 4), (5, 5), (4, 6), (6, 6)):
        g = layered_grid(rng, layers, width)
        for k in range(1, width):
            check(g, [rng.uniform(1.0, 10.0) for _ in range(g.n_edges)], k)
            check(g, [float(rng.randint(1, 3)) for _ in range(g.n_edges)], k)
    check(parallel_edges(4), [1.0] * 4, 3)
    # s->a twice, a->t twice and s->t: the parallel pairs are joined to
    # each other and to s->t, but not across a.
    g = DiGraph(3, ((0, 1), (0, 1), (1, 2), (1, 2), (0, 2)), 0, 2)
    check(g, [1.0] * 5, 2)
    h = build_dependency_kpath(g, min_cost_flow(g, [1.0] * 5, 3), 2)
    assert h.edges == frozenset({(0, 1), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)})
    assert calls == []


def test_kpath_builder_rejects_wrong_path_count():
    g = diamond()
    gstar = min_cost_flow(g, DIAMOND_COSTS, 2)
    with pytest.raises(ValidationError):
        build_dependency_kpath(g, gstar, 2)


def test_kpath_builder_rejects_non_path_support():
    # Three diamond edges cannot split into two s-t paths.
    with pytest.raises(StructureError):
        build_dependency_kpath(diamond(), IntegralFlow(frozenset({0, 1, 2}), 2, 0.0), 1)
    # s->a->b->t and s->b->a->t split into two paths, but a<->b is a cycle.
    g = DiGraph(4, ((0, 1), (1, 2), (2, 3), (0, 2), (2, 1), (1, 3)), 0, 3)
    with pytest.raises(StructureError):
        build_dependency_kpath(g, IntegralFlow(frozenset(range(6)), 2, 0.0), 1)


def test_components_examples():
    g = diamond()
    gstar = min_cost_flow(g, DIAMOND_COSTS, 2)
    h = build_dependency_kpath(g, gstar, 1)
    assert len(components(h)) == 1

    g2 = two_diamonds_in_series()
    gstar2 = min_cost_flow(g2, [1.0] * 8, 2)
    h2 = build_dependency_kpath(g2, gstar2, 1)
    comps = components(h2)
    assert comps == [frozenset({0, 1, 2, 3}), frozenset({4, 5, 6, 7})]

    from frugal.dependency import DependencyGraph

    edgeless = DependencyGraph((0, 1, 2), frozenset())
    assert components(edgeless) == [frozenset({0}), frozenset({1}), frozenset({2})]


def test_monopoly_error():
    with pytest.raises(MonopolyError):
        build_dependency(restrict(KPathSystem(diamond(), 2), {0, 1, 2, 3}))


def test_feasible_sets_cover_dependency_edges():
    # Every minimal feasible set of the restricted system covers every edge of H.
    rng = random.Random(37)
    checked = 0
    while checked < 15:
        g = random_digraph(rng, rng.randint(3, 5), rng.randint(3, 9))
        mf = brute_max_flow(g)
        if mf < 2:
            continue
        k = rng.randint(1, mf - 1)
        costs = [float(rng.randint(0, 9)) for _ in range(g.n_edges)]
        gstar = cheapest_kplus1_subgraph(g, costs, k)
        restricted = restrict(KPathSystem(g, k), gstar.edge_ids)
        h = build_dependency(restricted)
        for m in minimal_feasible_sets(restricted):
            for a, b in h.edges:
                assert a in m or b in m
        checked += 1


def test_connectivity_iff_no_articulation():
    # Component count of H equals the part count of the articulation split.
    rng = random.Random(41)
    examples = 0
    while examples < 25:
        g = random_digraph(rng, rng.randint(3, 6), rng.randint(3, 10))
        mf = brute_max_flow(g)
        if mf < 2:
            continue
        k = rng.randint(1, mf - 1)
        costs = [float(rng.randint(0, 9)) for _ in range(g.n_edges)]
        gstar = cheapest_kplus1_subgraph(g, costs, k)
        h = build_dependency_kpath(g, gstar, k)
        dec = articulation_decomposition(g, gstar)
        assert len(components(h)) == len(dec.parts)
        examples += 1


def test_claim_interval_property():
    # Neighbours of any node along any s-t path of G* form one contiguous
    # run.  This is a corollary of the builder's incomparability rule:
    # along a path, the edges comparable with v form a prefix (those
    # that reach v) and a suffix (those v reaches).
    rng = random.Random(43)
    examples = 0
    while examples < 20:
        g = random_digraph(rng, rng.randint(3, 6), rng.randint(3, 10))
        mf = brute_max_flow(g)
        if mf < 2:
            continue
        k = rng.randint(1, mf - 1)
        costs = [float(rng.randint(0, 9)) for _ in range(g.n_edges)]
        gstar = cheapest_kplus1_subgraph(g, costs, k)
        h = build_dependency_kpath(g, gstar, k)
        for path in brute_all_simple_paths(g, gstar.edge_ids):
            for v in gstar.edge_ids - set(path):
                flags = [h.adjacent(v, e) for e in path]
                run = "".join("1" if f else "0" for f in flags).strip("0")
                assert "0" not in run
        examples += 1


def test_dependency_adjacency_symmetric_irreflexive():
    g = diamond()
    gstar = min_cost_flow(g, DIAMOND_COSTS, 2)
    h = build_dependency_kpath(g, gstar, 1)
    for a, b in h.edges:
        assert a < b
        assert h.adjacent(a, b) and h.adjacent(b, a)
        assert not h.adjacent(a, a)
