"""Flow primitives against exhaustive oracles and hand-checked fixtures."""

import math
import random

import pytest

from frugal.core import ExplicitSystem, KPathSystem, minimal_feasible_sets
from frugal.errors import GraphCycleError, InfeasibleFlowError, StructureError, ValidationError
from frugal.flows import (
    DiGraph,
    articulation_decomposition,
    cheapest_kplus1_subgraph,
    delta_kplus1,
    enumerate_flow_unions,
    flow_cost_curve,
    flow_paths,
    longest_path_dag,
    max_flow_value,
    min_cost_flow,
    residual_detour,
    residual_graph,
    tie_key,
)
from frugal.mechanisms import argmin_selector, kpath_mechanism

from fixtures import (
    DIAMOND_COSTS,
    brute_delta,
    brute_k_flows,
    brute_longest_path,
    brute_max_flow,
    brute_min_cost_flow_cost,
    diamond,
    para,
    para_costs,
    parallel_edges,
    random_digraph,
    two_diamonds_in_series,
    verify_shortest_path_flow,
)


def test_max_flow_diamond():
    g = diamond()
    assert max_flow_value(g) == 2
    assert max_flow_value(g, {1, 2, 3}) == 1        # minus s->a
    assert max_flow_value(g, {1, 2}) == 0           # minus s->a and b->t


def test_max_flow_matches_brute():
    rng = random.Random(7)
    for _ in range(40):
        g = random_digraph(rng, rng.randint(3, 5), rng.randint(2, 8))
        assert max_flow_value(g) == brute_max_flow(g)


def test_min_cost_flow_forced_parallel():
    g = parallel_edges(2)
    f = min_cost_flow(g, [1.0, 2.0], 2)
    assert f.edge_ids == frozenset({0, 1})
    assert f.cost == pytest.approx(3.0)


def test_min_cost_flow_diamond():
    g = diamond()
    f = min_cost_flow(g, DIAMOND_COSTS, 1)
    assert f.edge_ids == frozenset({0, 2})
    assert f.cost == pytest.approx(4.0)
    f2 = min_cost_flow(g, DIAMOND_COSTS, 2)
    assert f2.edge_ids == frozenset({0, 1, 2, 3})
    assert f2.cost == pytest.approx(10.0)


def test_min_cost_flow_tie_break_is_exact_past_53_edges():
    # s=0 -> a=1 is edge 1, a -> t=2 are the parallel edges 70 and 71, every
    # other id is a t -> s filler.  Both s-t paths cost 2.0; the tie goes to
    # the set that avoids the smaller differing id, so edge 71 wins.  A float
    # key 2^-(id+1) cannot tell them apart: 2^-2 + 2^-71 == 2^-2 + 2^-72.
    edges = [(2, 0)] * 72
    edges[1] = (0, 1)
    edges[70] = edges[71] = (1, 2)
    g = DiGraph(3, tuple(edges), 0, 2)
    costs = [1.0] * 72
    assert tie_key({1, 71}, 72) < tie_key({1, 70}, 72)
    f = min_cost_flow(g, costs, 1)
    assert f.edge_ids == frozenset({1, 71})
    assert f.cost == 2.0
    restricted = ExplicitSystem(72, tuple(minimal_feasible_sets(KPathSystem(g, 1))))
    assert argmin_selector(restricted, dict(enumerate(costs))) == f.edge_ids


def test_min_cost_flow_settles_on_rounded_costs():
    # Scaled costs of a lifted k-path instance whose only 2-flow is all 26
    # edges.  Summed as floats they round into a negative residual cycle,
    # whose parent pointers once sent the walk back to s round it forever;
    # exact integer costs have no such cycle.
    edges = (((0, 1), (0, 2)) + tuple((v, v + 2) for v in range(1, 17))
             + ((17, 19), (18, 19), (19, 21), (19, 20), (20, 22), (21, 23), (22, 24),
                (23, 24)))
    g = DiGraph(25, edges, 0, 24)
    costs = [1.0000000000000002, 1.3440178677269319, 3.0, 2.6880357354538624,
             1.0000000000000002, 4.032053603180794, 2.0, 1.3440178677269312,
             1.0000000000000002, 2.4880357354538623, 1.0, 4.9760714709077245,
             2.0000000000000004, 1.2440178677269311, 2.0000000000000004,
             1.2440178677269311, 3.0000000000000004, 1.2440178677269311,
             1.0000000000000002, 1.371077440961579, 5.3087844081637945,
             5.3087844081637945, 10.617568816327589, 10.617568816327589,
             21.235137632655178, 21.235137632655178]
    f = min_cost_flow(g, costs, 2)
    assert f.edge_ids == frozenset(range(len(edges)))


def test_residual_detour_matches_brute_resolve():
    # The cheapest flow of the same size without e costs
    # c(f) - c_e + residual_detour(...), or nothing exists and it is inf.
    rng = random.Random(97)
    checked = 0
    while checked < 80:
        g = random_digraph(rng, rng.randint(3, 6), rng.randint(3, 12))
        allowed = None
        if checked % 2:
            allowed = frozenset(a for a in range(g.n_edges) if rng.random() < 0.8)
        mf = max_flow_value(g, allowed)
        if mf == 0:
            continue
        k = rng.randint(1, mf)
        if checked % 4 < 2:
            costs = [float(rng.randint(0, 3)) for _ in range(g.n_edges)]
        else:
            costs = [rng.uniform(0.0, 5.0) for _ in range(g.n_edges)]
        f = min_cost_flow(g, costs, k, allowed=allowed)
        usable = frozenset(range(g.n_edges)) if allowed is None else allowed
        for e in sorted(f.edge_ids):
            best = brute_min_cost_flow_cost(g, costs, k, usable - {e})
            got = residual_detour(residual_graph(g, costs, f.edge_ids, allowed), e)
            if math.isinf(best):
                assert got == math.inf
            else:
                assert got == pytest.approx(best - f.cost + costs[e], rel=1e-9)
        checked += 1


def test_residual_detour_unreachable_and_invalid():
    g = diamond()
    f = residual_graph(g, DIAMOND_COSTS, min_cost_flow(g, DIAMOND_COSTS, 2).edge_ids)
    for e in range(4):
        assert residual_detour(f, e) == math.inf
    one = min_cost_flow(g, DIAMOND_COSTS, 1).edge_ids
    # s->b->t, then back over a->t: the 1-flow {1, 3} costs 6 = 4 - 1 + 3.
    assert residual_detour(residual_graph(g, DIAMOND_COSTS, one), 0) == pytest.approx(3.0)
    with pytest.raises(ValidationError):
        residual_detour(residual_graph(g, DIAMOND_COSTS, one), 1)
    with pytest.raises(ValidationError):
        residual_detour(residual_graph(g, DIAMOND_COSTS[:3], one), 0)
    # Valid costs whose total overflows: the exact detour once exceeded the
    # float range with an untyped OverflowError, and the flow cost read inf.
    with pytest.raises(ValidationError):
        min_cost_flow(g, [1e308] * 4, 2)
    with pytest.raises(ValidationError):
        kpath_mechanism(g, [1e300, 1.7e308, 1e300, 1.7e308], 1)


def test_residual_detour_settles_on_rounded_cycle():
    # Scaled costs of a lifted k-path instance (its pruned 3-flow) and its
    # cheapest scaled 2-flow.  Path 4->6->9->12->15->18 off the flow and
    # path 4->7->10->13->16->18 on it cost the same in exact arithmetic, so
    # the residual graph has a cycle of real cost 0.  Its rounded float sum
    # is negative, so a float Bellman-Ford without a margin would keep
    # relaxing it until its round limit; exact integer costs settle.
    edges = ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 5), (4, 6), (4, 7), (5, 8), (6, 9),
             (7, 10), (8, 11), (9, 12), (10, 13), (11, 14), (12, 15), (13, 16), (14, 17),
             (15, 18), (16, 18), (17, 19), (18, 21), (18, 20), (19, 22), (20, 23), (21, 24),
             (22, 25), (23, 26), (24, 27), (25, 28), (26, 29), (27, 30), (28, 31), (29, 32),
             (30, 33), (31, 34), (32, 35), (33, 35), (34, 35))
    g = DiGraph(36, edges, 0, 35)
    costs = [5.8806479527041535, 1.4701619881760384, 3.0000000000000004, 1.4701619881760384,
             2.9403239763520768, 1.0000000000000002, 3.71817827221933, 3.71817827221933,
             1.0000000000000002, 1.2393927574064434, 4.957571029625774, 1.0000000000000002,
             3.71817827221933, 2.478785514812887, 4.000000000000001, 3.71817827221933,
             1.2393927574064434, 3.0000000000000004, 2.478785514812887, 2.478785514812887,
             4.0, 4.649878721933067, 1.1624696804832668, 1.0000000000000002,
             2.3249393609665336, 2.3249393609665336, 3.0000000000000004, 1.1624696804832668,
             1.1624696804832668, 1.0, 1.1624696804832668, 2.3249393609665336, 2.0,
             4.649878721933067, 4.649878721933067, 2.0, 1.1624696804832675, 2.324939360966535,
             2.0]
    flow = frozenset({1, 2, 4, 5, 7, 8, 10, 11, 13, 14, 16, 17, 19, 20, 22, 23, 24, 26, 27,
                      29, 30, 32, 33, 35, 36, 38})
    cost = sum(costs[a] for a in flow)
    assert brute_min_cost_flow_cost(g, costs, 2) == pytest.approx(cost, rel=1e-12)
    residual = residual_graph(g, costs, flow)
    for e in (27, 30, 38):
        best = brute_min_cost_flow_cost(g, costs, 2, frozenset(range(g.n_edges)) - {e})
        got = residual_detour(residual, e)
        assert got == pytest.approx(best - cost + costs[e], rel=1e-9)


def test_min_cost_flow_infeasible():
    with pytest.raises(InfeasibleFlowError):
        min_cost_flow(diamond(), DIAMOND_COSTS, 3)


def test_min_cost_flow_matches_brute():
    rng = random.Random(21)
    checked = 0
    while checked < 60:
        g = random_digraph(rng, rng.randint(3, 5), rng.randint(3, 12))
        costs = [float(rng.randint(0, 9)) for _ in range(g.n_edges)]
        mf = brute_max_flow(g)
        if mf == 0:
            continue
        k = rng.randint(1, mf)
        f = min_cost_flow(g, costs, k)
        assert f.cost == pytest.approx(brute_min_cost_flow_cost(g, costs, k))
        assert f.size == k
        flow_paths(g, f)  # support decomposes exactly
        checked += 1


def test_cheapest_kplus1_examples():
    g = diamond()
    f = cheapest_kplus1_subgraph(g, DIAMOND_COSTS, 1)
    assert f.edge_ids == frozenset({0, 1, 2, 3})

    g4 = para(4)
    f4 = cheapest_kplus1_subgraph(g4, para_costs(4), 1)
    assert f4.edge_ids == frozenset(range(5))
    assert f4.cost == pytest.approx(1.0)

    g3 = parallel_edges(3)
    f3 = cheapest_kplus1_subgraph(g3, [5.0, 1.0, 3.0], 1)
    assert f3.edge_ids == frozenset({1, 2})
    assert f3.cost == pytest.approx(4.0)


def test_pruning_cost_equals_curve():
    rng = random.Random(5)
    checked = 0
    while checked < 30:
        g = random_digraph(rng, rng.randint(3, 5), rng.randint(3, 10))
        costs = [float(rng.randint(0, 9)) for _ in range(g.n_edges)]
        curve = flow_cost_curve(g, costs)
        if curve.max_flow < 2:
            continue
        k = rng.randint(1, curve.max_flow - 1)
        assert cheapest_kplus1_subgraph(g, costs, k).cost == pytest.approx(curve.values[k + 1])
        checked += 1


def test_flow_cost_curve_examples():
    c = flow_cost_curve(parallel_edges(3), [1.0, 2.0, 3.0])
    assert c.values == pytest.approx([0.0, 1.0, 3.0, 6.0])
    d = flow_cost_curve(diamond(), DIAMOND_COSTS)
    assert d.values == pytest.approx([0.0, 4.0, 10.0])
    assert d.values[0] == 0.0


def test_curve_convexity_random():
    # FlowCostCurve's constructor rejects non-convex curves, so construction
    # succeeding is the assertion.
    rng = random.Random(11)
    for _ in range(50):
        g = random_digraph(rng, rng.randint(3, 10), rng.randint(3, 25))
        costs = [float(rng.randint(0, 9)) for _ in range(g.n_edges)]
        curve = flow_cost_curve(g, costs)
        diffs = [b - a for a, b in zip(curve.values, curve.values[1:])]
        assert all(y >= x - 1e-9 for x, y in zip(diffs, diffs[1:]))


def test_longest_path_examples():
    assert longest_path_dag(diamond(), range(4), DIAMOND_COSTS) == pytest.approx(6.0)
    g4 = para(4)
    assert longest_path_dag(g4, range(5), para_costs(4)) == pytest.approx(1.0)
    chain = DiGraph(3, ((0, 1), (1, 2)), 0, 2)
    assert longest_path_dag(chain, range(2), [2.0, 3.0]) == pytest.approx(5.0)


def test_longest_path_cycle_error():
    g = DiGraph(4, ((0, 1), (1, 2), (2, 1), (2, 3)), 0, 3)
    with pytest.raises(GraphCycleError):
        longest_path_dag(g, range(4), [1.0] * 4)


def test_delta_examples():
    assert delta_kplus1(diamond(), DIAMOND_COSTS, 1) == pytest.approx(6.0)
    assert delta_kplus1(para(4), para_costs(4), 1) == pytest.approx(1.0)
    assert delta_kplus1(parallel_edges(3), [1.0, 2.0, 3.0], 1) == pytest.approx(2.0)


def test_delta_matches_brute():
    rng = random.Random(3)
    checked = 0
    while checked < 25:
        g = random_digraph(rng, rng.randint(3, 5), rng.randint(3, 9))
        costs = [float(rng.randint(0, 9)) for _ in range(g.n_edges)]
        mf = brute_max_flow(g)
        if mf < 2:
            continue
        k = rng.randint(1, mf - 1)
        got = delta_kplus1(g, costs, k)
        if math.isfinite(got):
            assert got == pytest.approx(brute_delta(g, costs, k))
        checked += 1


def test_delta_infeasible():
    with pytest.raises(InfeasibleFlowError):
        delta_kplus1(diamond(), DIAMOND_COSTS, 2)


def test_delta_bound_on_pruned_subgraph():
    # Longest path of the cheapest (k+1)-flow never exceeds (k+1) * delta.
    rng = random.Random(13)
    checked = 0
    while checked < 25:
        g = random_digraph(rng, rng.randint(3, 5), rng.randint(3, 10))
        costs = [float(rng.randint(0, 9)) for _ in range(g.n_edges)]
        mf = brute_max_flow(g)
        if mf < 2:
            continue
        k = rng.randint(1, mf - 1)
        gstar = cheapest_kplus1_subgraph(g, costs, k)
        lp = longest_path_dag(g, gstar.edge_ids, costs)
        assert lp <= (k + 1) * delta_kplus1(g, costs, k) + 1e-9
        checked += 1


def test_enumerate_flow_unions_matches_brute():
    rng = random.Random(17)
    for _ in range(20):
        g = random_digraph(rng, rng.randint(3, 5), rng.randint(3, 9))
        for size in (1, 2):
            assert enumerate_flow_unions(g, size) == brute_k_flows(g, size)


def test_articulation_diamond():
    g = diamond()
    f = min_cost_flow(g, DIAMOND_COSTS, 2)
    dec = articulation_decomposition(g, f)
    assert dec.points == (0, 3)
    assert dec.parts == (frozenset({0, 1, 2, 3}),)


def test_articulation_two_diamonds():
    g = two_diamonds_in_series()
    f = min_cost_flow(g, [1.0] * 8, 2)
    dec = articulation_decomposition(g, f)
    assert dec.points == (0, 3, 6)
    assert dec.parts == (frozenset({0, 1, 2, 3}), frozenset({4, 5, 6, 7}))


def test_articulation_parallel_direct():
    # s->u->t plus a direct s->t edge: the 2-flow shares no interior vertex.
    g = DiGraph(3, ((0, 1), (1, 2), (0, 2)), 0, 2)
    f = min_cost_flow(g, [1.0, 1.0, 1.0], 2)
    dec = articulation_decomposition(g, f)
    assert dec.points == (0, 2)
    assert len(dec.parts) == 1


def test_articulation_rejects_invalid_flow():
    g = diamond()
    from frugal.flows import IntegralFlow

    bogus = IntegralFlow(frozenset({0, 1}), 2, 3.0)
    with pytest.raises(StructureError):
        articulation_decomposition(g, bogus)


def test_decomposition_soundness():
    # Per-part longest paths concatenate to the longest path of the whole flow.
    rng = random.Random(29)
    graphs = [two_diamonds_in_series(), diamond(), para(5)]
    for g in graphs:
        for _ in range(5):
            costs = [float(rng.randint(0, 9)) for _ in range(g.n_edges)]
            f = cheapest_kplus1_subgraph(g, costs, 1)
            dec = articulation_decomposition(g, f)
            total = longest_path_dag(g, f.edge_ids, costs)
            parts_sum = sum(
                brute_longest_path(g, part, costs, src=a, dst=b)
                for part, a, b in zip(dec.parts, dec.points, dec.points[1:])
            )
            assert parts_sum == pytest.approx(total)


def test_verify_shortest_path_flow_symmetric():
    g = diamond()
    f = verify_shortest_path_flow(g, [3.0, 3.0, 3.0, 3.0], 1)
    assert f is not None
    assert f.edge_ids == frozenset(range(4))
    for p in flow_paths(g, f):
        assert sum(3.0 for _ in p) == pytest.approx(6.0)


def test_verify_shortest_path_flow_absent():
    assert verify_shortest_path_flow(diamond(), DIAMOND_COSTS, 1) is None


def test_flow_paths_roundtrip():
    g = two_diamonds_in_series()
    f = min_cost_flow(g, [1.0] * 8, 2)
    paths = flow_paths(g, f)
    assert len(paths) == 2
    assert frozenset(e for p in paths for e in p) == f.edge_ids
    assert len([e for p in paths for e in p]) == len(f.edge_ids)
