"""Flow primitives against exhaustive oracles and hand-checked fixtures."""

import math
import random

import pytest

from frugal.core import ExplicitSystem, KPathSystem, minimal_feasible_sets
from frugal.errors import GraphCycleError, InfeasibleFlowError, StructureError
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
    tie_key,
    verify_shortest_path_flow,
)
from frugal.mechanisms import argmin_selector

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
    two_diamonds_in_series,
)


def random_digraph(rng, n_vertices, n_edges):
    edges = []
    for _ in range(n_edges):
        u = rng.randrange(n_vertices)
        v = rng.randrange(n_vertices)
        while v == u:
            v = rng.randrange(n_vertices)
        edges.append((u, v))
    return DiGraph(n_vertices, tuple(edges), 0, n_vertices - 1)


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


def test_min_cost_flow_rounded_cycle_fails_loudly():
    # Scaled costs of a lifted k-path instance whose only 2-flow is all 26
    # edges.  Their rounding once made the residual parent pointers close a
    # cycle, and walking them back to s appended edges until memory ran out.
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
    try:
        f = min_cost_flow(g, costs, 2)
    except StructureError:
        return
    assert f.edge_ids == frozenset(range(len(edges)))


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
