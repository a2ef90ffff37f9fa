"""Mechanism outcomes, thresholds, truthfulness and the cross-implementation checks."""

import math
import random
import time

import pytest

from frugal import dependency, flows, spectral
from frugal.core import (
    GroupMap,
    KPathSystem,
    ROutOfKSystem,
    UndirectedGraph,
    VertexCoverSystem,
)
from frugal.dependency import build_dependency_kpath, components
from frugal.errors import (
    MonopolyError,
    MonotonicityError,
    SizeCapError,
    StructureError,
    ValidationError,
)
from frugal.flows import DiGraph, cheapest_kplus1_subgraph, max_flow_value, min_cost_flow
from frugal.mechanisms import (
    argmin_selector,
    kpath_mechanism,
    kpath_pruner,
    local_optimality_repair,
    primal_dual_cover,
    r_out_of_k_mechanism,
    run_pruning_lifting,
    sqrt_mechanism,
    threshold_bid,
    vcg,
    vertex_cover_mechanism,
)
from frugal.mechanisms import _cover_branch_and_bound, _pay
from frugal.spectral import PUBLIC_TOL, lift

from fixtures import (
    DIAMOND_COSTS,
    brute_max_flow,
    consecutive_parts,
    diamond,
    layered_grid,
    multipartite_dependency,
    para,
    para_costs,
    parallel_edges,
    random_digraph,
    resolve_kpath_thresholds,
    star_graph,
    triangle,
    two_diamonds_in_series,
)


def random_kpath_instance(rng, max_vertices=6, max_edges=12):
    while True:
        g = random_digraph(rng, rng.randint(3, max_vertices), rng.randint(3, max_edges))
        mf = brute_max_flow(g)
        if mf >= 2:
            k = rng.randint(1, mf - 1)
            return g, k


# ---------------------------------------------------------------------------
# k-path examples


def test_kpath_diamond_payments():
    out = kpath_mechanism(diamond(), DIAMOND_COSTS, 1)
    assert out.winners == frozenset({0, 2})
    assert out.t1[0] == math.inf and out.t1[2] == math.inf
    assert out.t2[0] == pytest.approx(3.0)
    assert out.t2[2] == pytest.approx(5.0)
    assert out.payments[0] == pytest.approx(3.0)
    assert out.payments[2] == pytest.approx(5.0)
    assert out.total_payment == pytest.approx(8.0)
    assert out.lift.alpha == pytest.approx(2.0, abs=1e-9)


def test_kpath_para4():
    g = para(4)
    out = kpath_mechanism(g, para_costs(4), 1)
    assert out.winners == frozenset({1, 2, 3, 4})
    for e in out.winners:
        assert out.payments[e] == pytest.approx(0.5, abs=1e-9)
    assert out.total_payment == pytest.approx(2.0, abs=1e-9)


def test_kpath_monopoly_is_infeasible():
    from frugal.errors import InfeasibleFlowError

    with pytest.raises(InfeasibleFlowError):
        kpath_mechanism(diamond(), DIAMOND_COSTS, 2)


def test_kpath_mechanism_rejects_k_below_one():
    # k = 0 once returned no winners and no payments; k = -1 failed later
    # with an unrelated dependency-graph error.
    for k in (0, -1):
        with pytest.raises(ValidationError):
            kpath_mechanism(diamond(), DIAMOND_COSTS, k)


def _kpath_thresholds(g, bids, k, e):
    out = kpath_mechanism(g, bids, k, payment_agents=[e])
    return out.t1[e], out.t2[e]


def test_analytic_thresholds_examples():
    t1, t2 = _kpath_thresholds(diamond(), DIAMOND_COSTS, 1, 0)
    assert t1 == math.inf
    assert t2 == pytest.approx(3.0)

    g3 = DiGraph(2, ((0, 1), (0, 1), (0, 1)), 0, 1)
    t1_e1, _ = _kpath_thresholds(g3, [1.0, 2.0, 9.0], 1, 0)
    assert t1_e1 == pytest.approx(9.0)  # (2+9) - (1+2) + 1


def test_tied_bids_at_a_billion_raise_no_spurious_payment_error():
    # Above about 8.4e6 one ulp exceeds PAY_TOL, and w * (b / w) for a
    # winner whose threshold equals its bid can round one ulp below b; the
    # payment check's slack grows with the total bid, so that is no error.
    rng = random.Random(11)
    for _ in range(200):
        g = layered_grid(rng, 6, 4)
        bids = [float(rng.randint(1, 4)) * 1e9 for _ in range(g.n_edges)]
        out = kpath_mechanism(g, bids, 2)
        assert all(out.payments[e] >= bids[e] * (1 - 1e-15) for e in out.winners)


def test_pay_rejects_a_payment_below_a_tiny_bid():
    # A threshold 10% below a bid of 1e-13 is a fault, however small.
    with pytest.raises(StructureError, match="below bid"):
        _pay(None, frozenset({0}), [1e-13, 1e-13], None, lambda e: (math.inf, 0.9e-13))
    out = _pay(None, frozenset({0}), [1e-13, 1e-13], None, lambda e: (math.inf, 1e-13))
    assert out.payments[0] == 1e-13


def test_voluntary_participation_kpath():
    rng = random.Random(61)
    for _ in range(25):
        g, k = random_kpath_instance(rng)
        bids = [float(rng.randint(0, 9)) for _ in range(g.n_edges)]
        out = kpath_mechanism(g, bids, k)
        for e in out.winners:
            assert out.payments[e] >= bids[e] - 1e-9


# ---------------------------------------------------------------------------
# Vertex cover examples


def test_vertex_cover_star():
    g = star_graph(4)
    bids = [1.0, 0.0, 0.0, 0.0, 0.0]
    out = vertex_cover_mechanism(g, bids)
    assert out.winners == frozenset({1, 2, 3, 4})
    for v in out.winners:
        assert out.payments[v] == pytest.approx(0.5, abs=1e-9)
    assert out.total_payment == pytest.approx(2.0, abs=1e-9)
    assert out.lift.alpha == pytest.approx(2.0, abs=1e-9)


def test_vertex_cover_single_edge():
    # Totals 1e-13 and 2e-13 once fell inside a 1e-12 tie window, which
    # bought vertex 1 and paid it 1e-13, below its bid.
    g = UndirectedGraph(2, ((0, 1),))
    for bids in ([0.0, 1.0], [1e-13, 2e-13]):
        out = vertex_cover_mechanism(g, bids)
        assert out.winners == frozenset({0})
        assert out.payments[0] == pytest.approx(bids[1], rel=1e-12)


def test_exact_cover_above_the_size_cap_raises():
    g = UndirectedGraph(31, tuple((v, v + 1) for v in range(30)))
    with pytest.raises(SizeCapError):
        vertex_cover_mechanism(g, [1.0] * 31, mode="exact")
    assert vertex_cover_mechanism(g, [1.0] * 31, mode="approx2").winners


def test_vertex_cover_triangle():
    out = vertex_cover_mechanism(triangle(), [0.0, 0.0, 5.0])
    assert out.winners == frozenset({0, 1})
    assert out.payments[0] == pytest.approx(5.0)
    assert out.payments[1] == pytest.approx(5.0)


def test_theorem_payment_bound_vertex_cover():
    # exact: total payment <= alpha * sum of costs outside the cover.
    # approx2 pays w_v * D_v, the dual its primal-dual pass raises on v's
    # edges with v priced out, and D_v <= s(N(v)); so it promises the
    # weaker bounds in the vertex_cover_mechanism docstring: each payment
    # <= w_v * sum of the scaled bids of v's neighbours, and the total
    # <= alpha * c(V).
    rng = random.Random(67)
    for _ in range(40):
        n = rng.randint(2, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        if not edges:
            continue
        g = UndirectedGraph(n, tuple(edges))
        bids = [float(rng.randint(0, 9)) for _ in range(n)]
        for mode in ("exact", "approx2"):
            out = vertex_cover_mechanism(g, bids, mode=mode)
            if mode == "exact":
                outside = sum(bids[v] for v in range(n) if v not in out.winners)
                assert out.total_payment <= out.lift.alpha * outside + 1e-7
            else:
                w = out.lift.weights
                for v, pay in out.payments.items():
                    assert pay <= w[v] * sum(bids[u] / w[u] for u in g.adjacency()[v]) + 1e-7
                assert out.total_payment <= out.lift.alpha * sum(bids) + 1e-7


def test_local_optimality_repair_examples():
    g = UndirectedGraph(2, ((0, 1),))
    scaled = {0: 3.0, 1: 1.0}
    fixed = local_optimality_repair(g, scaled, {0, 1})
    for v in fixed:
        outside = [u for u in g.adjacency()[v] if u not in fixed]
        assert scaled[v] <= sum(scaled[u] for u in outside) + 1e-9

    star = star_graph(3)
    scaled2 = {0: 10.0, 1: 1.0, 2: 1.0, 3: 1.0}
    assert local_optimality_repair(star, scaled2, {0}) == frozenset({1, 2, 3})

    scaled3 = {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}
    assert local_optimality_repair(star, scaled3, {0}) == frozenset({0})


def test_approx2_cover_quality():
    rng = random.Random(71)
    for _ in range(30):
        n = rng.randint(2, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        if not edges:
            continue
        g = UndirectedGraph(n, tuple(edges))
        bids = [float(rng.randint(0, 9)) for _ in range(n)]
        out = vertex_cover_mechanism(g, bids, mode="approx2")
        scaled = {v: bids[v] / out.lift.weights[v] for v in range(n)}
        assert out.winners == primal_dual_cover(g, scaled)
        for u, v in g.edges:
            assert u in out.winners or v in out.winners
        opt_cost = sum(scaled[v] for v in _cover_branch_and_bound(g, scaled))
        assert sum(scaled[v] for v in out.winners) <= 2.0 * opt_cost + 1e-9


def _primal_dual_bisection(g, bids, out, v):
    # Oracle for approx2's t2: bisect v's bid against primal_dual_cover, the
    # other scaled bids fixed.  D_v <= s(N(v)), so v loses at the upper end.
    w = out.lift.weights
    scaled = {u: bids[u] / w[u] for u in range(g.n_vertices)}
    upper = w[v] * (1.0 + sum(sc for u, sc in scaled.items() if u != v))
    return threshold_bid(
        lambda beta: v in primal_dual_cover(g, {**scaled, v: beta / w[v]}), upper, 1e-10)


def test_approx2_pays_the_bisected_threshold_where_the_repair_was_not_monotone():
    # With local-optimality repair after the primal-dual cover, approx2
    # bought {1, 4, 6} here, and vertex 1's win predicate lost and then won
    # again on the probe grid (MonotonicityError).
    g = UndirectedGraph(7, ((0, 1), (0, 4), (1, 3), (1, 6), (3, 6), (4, 5), (5, 6)))
    bids = [7.0, 5.0, 5.0, 7.0, 2.0, 4.0, 9.0]
    out = vertex_cover_mechanism(g, bids, mode="approx2")
    assert out.winners == frozenset({1, 3, 4, 6})
    for v in out.winners:
        assert out.t2[v] == pytest.approx(_primal_dual_bisection(g, bids, out, v), rel=1e-9)
    assert [round(out.t2[v], 4) for v in sorted(out.winners)] == [28.8602, 7.3822, 6.4880, 15.0061]


def test_approx2_thresholds_are_exact_on_random_graphs():
    rng = random.Random(103)
    graphs = 0
    while graphs < 300:
        n = rng.randint(3, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        if not edges:
            continue
        graphs += 1
        g = UndirectedGraph(n, tuple(edges))
        bids = [float(rng.randint(0, 9)) for _ in range(n)]
        out = vertex_cover_mechanism(g, bids, mode="approx2")
        for v in out.winners:
            t2 = out.t2[v]
            # abs: a threshold of 0 is bisected to within the tolerance 1e-10
            assert math.isclose(t2, _primal_dual_bisection(g, bids, out, v),
                                rel_tol=1e-9, abs_tol=1e-10)
            for beta, wins in ((t2 * (1 - 1e-9), True), (t2 * (1 + 1e-9) + 1e-12, False)):
                trial = list(bids)
                trial[v] = beta
                trial_out = vertex_cover_mechanism(g, trial, mode="approx2", payment_agents=[])
                assert (v in trial_out.winners) == wins


# ---------------------------------------------------------------------------
# r-out-of-k examples


def test_r_out_of_k_second_price_shape():
    system = ROutOfKSystem(((0,), (1,)), 1)
    out = r_out_of_k_mechanism(system, [3.0, 5.0])
    assert out.winners == frozenset({0})
    assert out.payments[0] == pytest.approx(5.0)


def test_r_out_of_k_three_singletons():
    system = ROutOfKSystem(((0,), (1,), (2,)), 2)
    out = r_out_of_k_mechanism(system, [1.0, 2.0, 4.0])
    assert out.winners == frozenset({0, 1})
    assert out.payments[0] == pytest.approx(4.0)
    assert out.payments[1] == pytest.approx(4.0)


def test_r_out_of_k_group_of_four():
    system = ROutOfKSystem(((0,), (1, 2, 3, 4)), 1)
    out = r_out_of_k_mechanism(system, [1.0, 0.0, 0.0, 0.0, 0.0])
    assert out.winners == frozenset({1, 2, 3, 4})
    assert out.total_payment == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("bids", [
    [0.3, 0.2, 0.1, 0.1, 0.2, 0.3, 5.0],
    [0.1, 0.2, 0.3, 0.3, 0.2, 0.1, 5.0],
], ids=["descending", "ascending"])
def test_r_out_of_k_tie_does_not_depend_on_the_order_within_a_group(bids):
    # Groups 0 and 1 hold the same three bids, so their totals tie; summed
    # left to right, 0.3 + 0.2 + 0.1 gives 0.6 but 0.1 + 0.2 + 0.3 gives
    # 0.6000000000000001.  The tie goes to the smaller group index.
    system = ROutOfKSystem(((0, 1, 2), (3, 4, 5), (6,)), 1)
    out = r_out_of_k_mechanism(system, bids)
    assert out.winners == frozenset({0, 1, 2})


def test_r_out_of_k_too_few_groups():
    with pytest.raises(ValidationError):
        r_out_of_k_mechanism(ROutOfKSystem(((0,), (1,)), 2), [1.0, 2.0])


def random_groups(rng, sizes):
    """Groups of the given sizes over a shuffled range of agent ids."""
    agents = list(range(sum(sizes)))
    rng.shuffle(agents)
    return tuple(tuple(agents[a] for a in part) for part in consecutive_parts(sizes))


def expanded_lift(system, kept):
    """Oracle for `spectral.multipartite_lift`: power iteration on the expanded graph.

    Swapping two equal-size groups is an automorphism of the graph, so the
    Perron vector depends only on group size; one weight is read per size,
    as power iteration's ulp noise would otherwise break exact ties
    between equal groups at random.
    """
    parts = [system.groups[i] for i in kept]
    lifted = spectral.lift(multipartite_dependency(parts))
    by_size = {}
    for part in parts:
        by_size.setdefault(len(part), lifted.weights[part[0]])
    by_group = [None] * len(system.groups)
    for i in kept:
        by_group[i] = by_size[len(system.groups[i])]
    weights = GroupMap(system, by_group)
    return spectral.SpectralLift(lifted.alpha, weights, lifted.component_alphas, lifted.residual)


def test_r_out_of_k_quotient_matches_expanded_lift(monkeypatch):
    # Integer bids in 0..3 tie group totals (among them zero totals) and
    # the scaled totals of equal-size groups; uniform bids do not.
    rng = random.Random(101)
    quotient_lift = spectral.multipartite_lift
    for trial in range(240):
        r = rng.randint(1, 4)
        sizes = [rng.randint(1, 6) for _ in range(rng.randint(r + 1, r + 3))]
        system = ROutOfKSystem(random_groups(rng, sizes), r)
        if trial % 2:
            bids = [rng.uniform(0.0, 5.0) for _ in range(sum(sizes))]
        else:
            bids = [float(rng.randint(0, 3)) for _ in range(sum(sizes))]
        monkeypatch.setattr(spectral, "multipartite_lift", quotient_lift)
        got = r_out_of_k_mechanism(system, bids)
        monkeypatch.setattr(spectral, "multipartite_lift", expanded_lift)
        want = r_out_of_k_mechanism(system, bids)
        assert got.pruned == want.pruned
        assert got.winners == want.winners
        assert got.payments.keys() == want.payments.keys()
        for e, pay in want.payments.items():
            assert got.payments[e] == pytest.approx(pay, rel=1e-9)


def test_r_out_of_k_builds_no_graph_and_runs_no_power_iteration(monkeypatch):
    # The weights come from the quotient alone: no DependencyGraph, no
    # `spectral.lift`, no `principal_eigen`.
    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(spectral, "principal_eigen",
                        counting("principal_eigen", spectral.principal_eigen))
    monkeypatch.setattr(spectral, "lift", counting("lift", spectral.lift))
    monkeypatch.setattr(dependency, "DependencyGraph",
                        counting("DependencyGraph", dependency.DependencyGraph))
    assert not hasattr(dependency, "multipartite_dependency")
    rng = random.Random(103)
    for _ in range(20):
        r = rng.randint(1, 4)
        sizes = [rng.randint(1, 9) for _ in range(rng.randint(r + 1, r + 3))]
        system = ROutOfKSystem(random_groups(rng, sizes), r)
        r_out_of_k_mechanism(system, [rng.uniform(0.0, 5.0) for _ in range(sum(sizes))])
    assert calls == []
    # The counters are live: a k-path auction goes through all three.
    kpath_mechanism(diamond(), DIAMOND_COSTS, 1)
    assert {"principal_eigen", "lift", "DependencyGraph"} <= set(calls)


def test_r_out_of_k_lifts_groups_of_tens_of_thousands():
    # The expanded graph of these groups has about 1.6e9 edges.
    rng = random.Random(107)
    sizes = (20_000, 30_000, 25_000)
    system = ROutOfKSystem(random_groups(rng, sizes), 2)
    bids = [rng.uniform(1.0, 2.0) for _ in range(sum(sizes))]
    start = time.perf_counter()
    out = r_out_of_k_mechanism(system, bids)
    elapsed = time.perf_counter() - start
    alpha = out.lift.alpha
    assert out.lift.residual <= PUBLIC_TOL * max(1.0, alpha)
    assert len(out.pruned) == sum(sizes)
    assert len(out.payments) == len(out.winners) >= 45_000
    assert all(out.payments[e] >= bids[e] for e in out.winners)
    assert elapsed < 1.0, f"{elapsed:.2f} s"


# ---------------------------------------------------------------------------
# VCG


def test_vcg_para():
    for n in (2, 5, 8):
        g = para(n)
        out = vcg(KPathSystem(g, 1), para_costs(n))
        assert out.winners == frozenset(range(1, n + 1))
        assert out.total_payment == pytest.approx(float(n))


def test_vcg_diamond():
    out = vcg(KPathSystem(diamond(), 1), DIAMOND_COSTS)
    assert out.winners == frozenset({0, 2})
    assert out.payments[0] == pytest.approx(3.0)
    assert out.payments[2] == pytest.approx(5.0)


def test_vcg_single_edge_cover():
    out = vcg(VertexCoverSystem(UndirectedGraph(2, ((0, 1),))), [0.0, 1.0])
    assert out.winners == frozenset({0})
    assert out.payments[0] == pytest.approx(1.0)


@pytest.mark.parametrize("mechanism", ["vcg", "generic"])
def test_parallel_edges_at_tiny_bids_buy_the_cheapest_edge(mechanism):
    # Bids (3, 1, 2) * 1e-13 differ by less than 1e-12: the generic engine
    # and VCG must still buy edge 1, as kpath_mechanism does, and pay it
    # no less than its bid.
    g = parallel_edges(3)
    bids = [3e-13, 1e-13, 2e-13]
    if mechanism == "vcg":
        out = vcg(KPathSystem(g, 1), bids)
    else:
        out = run_pruning_lifting(KPathSystem(g, 1), bids, kpath_pruner(g, 1), argmin_selector)
        assert out.payments == kpath_mechanism(g, bids, 1).payments
    assert out.winners == frozenset({1})
    assert out.payments[1] == pytest.approx(2e-13, rel=1e-12)


def test_vcg_monopoly():
    chain = DiGraph(3, ((0, 1), (1, 2)), 0, 2)
    with pytest.raises(MonopolyError):
        vcg(KPathSystem(chain, 1), [1.0, 1.0])


# ---------------------------------------------------------------------------
# payment_agents


SERIES_BIDS = [3.0, 1.0, 2.0, 2.0, 1.0, 5.0, 2.0, 0.0]

PAYMENT_AGENT_RUNS = {
    "kpath": lambda agents: kpath_mechanism(
        two_diamonds_in_series(), SERIES_BIDS, 1, payment_agents=agents),
    "sqrt": lambda agents: sqrt_mechanism(
        two_diamonds_in_series(), SERIES_BIDS, payment_agents=agents),
    "generic": lambda agents: run_pruning_lifting(
        KPathSystem(diamond(), 1), DIAMOND_COSTS, kpath_pruner(diamond(), 1),
        argmin_selector, payment_agents=agents),
    "cover-exact": lambda agents: vertex_cover_mechanism(
        UndirectedGraph(5, ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4))),
        [2.0, 1.0, 3.0, 1.0, 2.0], mode="exact", payment_agents=agents),
    "cover-approx2": lambda agents: vertex_cover_mechanism(
        star_graph(4), [1.0, 0.0, 0.0, 0.0, 0.0], mode="approx2", payment_agents=agents),
    "r-out-of-k": lambda agents: r_out_of_k_mechanism(
        ROutOfKSystem(((0,), (1, 2), (3,), (4, 5)), 2),
        [1.0, 0.5, 1.0, 2.0, 3.0, 1.0], payment_agents=agents),
    "vcg": lambda agents: vcg(
        KPathSystem(two_diamonds_in_series(), 1), SERIES_BIDS, payment_agents=agents),
}


@pytest.mark.parametrize("kind", sorted(PAYMENT_AGENT_RUNS))
def test_payment_agents_pays_only_the_named_winners(kind):
    run = PAYMENT_AGENT_RUNS[kind]
    full = run(None)
    assert full.winners and set(full.payments) == set(full.winners)
    for e in full.winners:
        single = run([e])
        assert single.winners == full.winners
        assert set(single.payments) == {e}
        assert single.t1[e] == full.t1[e]
        assert single.t2[e] == full.t2[e]
        assert single.payments[e] == full.payments[e]
        assert single.total_payment == full.payments[e]
    none = run([])
    assert none.winners == full.winners
    assert none.payments == {} and none.total_payment == 0.0


# ---------------------------------------------------------------------------
# threshold_bid


def test_threshold_second_price_shape():
    t = threshold_bid(lambda b: b < 5.0, 100.0)
    assert t == pytest.approx(5.0, abs=1e-7)


def test_threshold_sentinel():
    assert threshold_bid(lambda b: True, 1e6) == 1e6


def test_threshold_monotonicity_violation():
    with pytest.raises(MonotonicityError):
        threshold_bid(lambda b: 2.0 < b < 5.0, 10.0)


def test_threshold_matches_analytic_diamond():
    g = diamond()

    def wins(beta):
        bids = list(DIAMOND_COSTS)
        bids[0] = beta
        return 0 in kpath_mechanism(g, bids, 1, payment_agents=[]).winners

    t = threshold_bid(wins, 20.0, tol=1e-9)
    assert t == pytest.approx(3.0, abs=1e-7)


# ---------------------------------------------------------------------------
# Cross-implementation coherence


def test_sqrt_equals_kpath_on_fixtures():
    for g, bids in [
        (para(4), para_costs(4)),
        (diamond(), DIAMOND_COSTS),
        (two_diamonds_in_series(), [3.0, 1.0, 2.0, 2.0, 1.0, 5.0, 2.0, 0.0]),
    ]:
        a = kpath_mechanism(g, bids, 1)
        b = sqrt_mechanism(g, bids)
        assert a.winners == b.winners
        for e in a.winners:
            assert a.payments[e] == pytest.approx(b.payments[e], abs=1e-7)


def test_sqrt_weights_match_lift_per_component():
    g = two_diamonds_in_series()
    bids = [3.0, 1.0, 2.0, 2.0, 1.0, 5.0, 2.0, 0.0]
    a = kpath_mechanism(g, bids, 1)
    b = sqrt_mechanism(g, bids)
    gstar = cheapest_kplus1_subgraph(g, bids, 1)
    h = build_dependency_kpath(g, gstar, 1)
    for comp in components(h):
        ratios = {a.lift.weights[e] / b.lift.weights[e] for e in comp}
        lo, hi = min(ratios), max(ratios)
        assert hi - lo <= 1e-9


def test_r_out_of_k_equals_kpath_on_parallel_groups():
    rng = random.Random(73)
    for _ in range(12):
        r = rng.randint(1, 3)
        k = rng.randint(r + 1, r + 2)
        lengths = [rng.randint(1, 3) for _ in range(k)]
        # Build parallel paths; edge ids grouped per path.
        edges = []
        groups = []
        n_vertices = 2
        for ln in lengths:
            ids = []
            prev = 0
            for step in range(ln):
                head = 1 if step == ln - 1 else n_vertices
                if step < ln - 1:
                    n_vertices += 1
                ids.append(len(edges))
                edges.append((prev, head))
                prev = head
            groups.append(tuple(ids))
        g = DiGraph(n_vertices, tuple(edges), 0, 1)
        bids = [rng.random() * 5 for _ in range(len(edges))]
        out_group = r_out_of_k_mechanism(ROutOfKSystem(tuple(groups), r), bids)
        out_kpath = kpath_mechanism(g, bids, r)
        assert out_group.winners == out_kpath.winners
        for e in out_group.winners:
            assert out_group.payments[e] == pytest.approx(out_kpath.payments[e], abs=1e-7)


def test_analytic_equals_bisection_thresholds():
    rng = random.Random(79)
    for _ in range(10):
        g, k = random_kpath_instance(rng, max_vertices=5, max_edges=9)
        bids = [rng.random() * 4 for _ in range(g.n_edges)]
        out = kpath_mechanism(g, bids, k)
        e = min(out.winners)
        t1a, t2a = _kpath_thresholds(g, bids, k, e)

        def survives(beta):
            trial = list(bids)
            trial[e] = beta
            return e in cheapest_kplus1_subgraph(g, trial, k).edge_ids

        upper = 2.0 * sum(bids) + 10.0
        if survives(upper):
            assert t1a == math.inf
        else:
            assert threshold_bid(survives, upper) == pytest.approx(t1a, abs=1e-7)

        def wins(beta):
            trial = list(bids)
            trial[e] = beta
            trial_out = kpath_mechanism(g, trial, k, payment_agents=[])
            return (e in trial_out.winners
                    and trial_out.pruned == out.pruned)

        if not math.isinf(t2a) and t2a < min(t1a, upper):
            # below t1 the pruned set is unchanged, so the bisection sees
            # exactly the selection threshold
            assert threshold_bid(wins, upper) == pytest.approx(min(t1a, t2a), abs=1e-6)


def _assert_matches_resolve_oracle(g, bids, k, out):
    # Pruned set, winners, t1 and t2 of a kpath_mechanism outcome against
    # min-cost flows re-solved without each winner.
    def same(fast, slow):
        if math.isinf(slow):
            return math.isinf(fast)
        return math.isclose(fast, slow, rel_tol=1e-9)

    gstar = min_cost_flow(g, bids, k + 1)
    scaled = [0.0] * g.n_edges
    for e in gstar.edge_ids:
        scaled[e] = bids[e] / out.lift.weights[e]
    winner_flow = min_cost_flow(g, scaled, k, allowed=gstar.edge_ids)
    assert out.pruned == gstar.edge_ids
    assert out.winners == winner_flow.edge_ids
    for e in sorted(out.winners):
        t1, t2 = resolve_kpath_thresholds(g, bids, k, gstar, out.lift, winner_flow, e)
        assert same(out.t1[e], t1), (e, out.t1[e], t1)
        assert same(out.t2[e], t2), (e, out.t2[e], t2)


def test_kpath_thresholds_match_resolve_oracle(monkeypatch):
    # Each threshold is one residual shortest path; re-solving a min-cost
    # flow without the winner gives the same value, and the mechanism
    # solves only two flows (G* and the winning flow) per run.
    calls = []
    real = flows.min_cost_flow

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(flows, "min_cost_flow", counting)

    def check(g, bids, k):
        calls.clear()
        out = kpath_mechanism(g, bids, k)
        assert len(calls) == 2
        _assert_matches_resolve_oracle(g, bids, k, out)

    rng = random.Random(89)
    checked = 0
    while checked < 300:
        # Random digraphs: cycles, parallel edges and tied integer bids.
        g = random_digraph(rng, rng.randint(3, 8), rng.randint(3, 16))
        mf = max_flow_value(g)
        if mf < 2:
            continue
        k = rng.randint(1, mf - 1)
        check(g, [float(rng.randint(0, 3)) for _ in range(g.n_edges)], k)
        checked += 1
    for layers, width, k in ((16, 3, 1), (12, 4, 2), (9, 5, 3), (12, 5, 3)):
        g = layered_grid(rng, layers, width)
        assert g.n_edges >= 54
        check(g, [rng.uniform(1.0, 10.0) for _ in range(g.n_edges)], k)
        check(g, [float(rng.randint(1, 4)) for _ in range(g.n_edges)], k)


def test_kpath_tied_bids_on_92_edges_complete():
    # A 12-layer, 5-wide grid with tied integer bids (92 edges, k = 2).
    # Its Perron-scaled bids summed as floats round into a negative
    # residual cycle, where the winner flow's min-cost search once stopped
    # with "residual shortest path failed to settle".
    edges = (
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 6), (2, 7), (2, 6),
        (3, 8), (3, 7), (3, 9), (4, 9), (4, 8), (5, 10), (6, 11), (7, 12),
        (7, 13), (8, 13), (8, 12), (9, 14), (9, 13), (10, 15), (11, 16), (12, 17),
        (12, 16), (13, 18), (13, 19), (14, 19), (15, 20), (15, 19), (16, 21), (17, 22),
        (17, 21), (17, 23), (18, 23), (19, 24), (20, 25), (21, 26), (22, 27), (23, 28),
        (24, 29), (25, 30), (26, 31), (27, 32), (28, 33), (28, 34), (29, 34), (30, 35),
        (31, 36), (31, 37), (32, 37), (33, 38), (34, 39), (34, 38), (34, 40), (35, 40),
        (36, 41), (36, 42), (37, 42), (37, 43), (38, 43), (38, 42), (38, 44), (39, 44),
        (40, 45), (41, 46), (42, 47), (43, 48), (44, 49), (44, 50), (45, 50), (45, 49),
        (46, 51), (47, 52), (47, 51), (48, 53), (48, 52), (48, 54), (49, 54), (49, 53),
        (50, 55), (51, 56), (52, 57), (52, 58), (53, 58), (54, 59), (55, 60), (56, 61),
        (57, 61), (58, 61), (59, 61), (60, 61),
    )
    g = DiGraph(62, edges, 0, 61)
    bids = [float(b) for b in (
        1, 1, 2, 2, 1, 3, 4, 3, 1, 2, 2, 2, 4, 2, 3, 2, 2, 2, 2, 2, 4, 4, 1,
        1, 3, 3, 1, 2, 1, 1, 2, 1, 1, 1, 1, 4, 2, 1, 2, 3, 2, 2, 4, 3, 2, 4,
        1, 4, 3, 1, 4, 1, 4, 4, 3, 2, 4, 4, 3, 3, 1, 1, 4, 2, 3, 3, 2, 3, 2,
        1, 4, 3, 1, 3, 3, 2, 1, 4, 2, 2, 4, 4, 4, 3, 2, 1, 4, 3, 1, 2, 3, 4,
    )]
    _assert_matches_resolve_oracle(g, bids, 2, kpath_mechanism(g, bids, 2))


@pytest.mark.parametrize("scale", [1.0, 1e-13])
def test_generic_engine_matches_kpath(monkeypatch, scale):
    # Each generic threshold is one re-run of the pruner or the selector
    # with the winner priced out: the same values as kpath_mechanism's
    # residual detours, from one min-cost flow for pruning plus one per
    # winner for t1.
    calls = []
    real = flows.min_cost_flow

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    def same(generic, fast):
        if math.isinf(fast):
            return generic == fast
        return math.isclose(generic, fast, rel_tol=1e-12)

    monkeypatch.setattr(flows, "min_cost_flow", counting)
    rng = random.Random(83)
    for _ in range(8):
        g, k = random_kpath_instance(rng, max_vertices=5, max_edges=8)
        bids = [rng.randint(0, 9) * scale for _ in range(g.n_edges)]
        fast = kpath_mechanism(g, bids, k)
        calls.clear()
        generic = run_pruning_lifting(
            KPathSystem(g, k), bids, kpath_pruner(g, k), argmin_selector)
        assert len(calls) == 1 + len(generic.winners)
        assert fast.pruned == generic.pruned
        assert fast.winners == generic.winners
        for e in fast.winners:
            assert same(generic.t1[e], fast.t1[e]), (e, generic.t1[e], fast.t1[e])
            assert same(generic.t2[e], fast.t2[e]), (e, generic.t2[e], fast.t2[e])
            assert fast.payments[e] == pytest.approx(generic.payments[e], abs=1e-6 * scale)


def test_generic_engine_monopoly_error():
    g = DiGraph(3, ((0, 1), (1, 2), (0, 2)), 0, 2)

    def bad_pruner(bids):
        return frozenset({2})  # single surviving path edge

    with pytest.raises(MonopolyError):
        run_pruning_lifting(KPathSystem(g, 1), [1.0, 1.0, 1.0], bad_pruner, argmin_selector)


# ---------------------------------------------------------------------------
# Truthfulness, monotonicity, bid-independence (sampled here; bulk in acceptance)


def _utility(out, agent, cost):
    return out.payments.get(agent, 0.0) - cost if agent in out.winners else 0.0


def test_truthfulness_sampled_kpath():
    rng = random.Random(89)
    for _ in range(30):
        g, k = random_kpath_instance(rng)
        costs = [float(rng.randint(0, 6)) for _ in range(g.n_edges)]
        agent = rng.randrange(g.n_edges)
        truthful = kpath_mechanism(g, costs, k, payment_agents=[agent])
        dev = list(costs)
        dev[agent] = rng.random() * 12
        deviated = kpath_mechanism(g, dev, k, payment_agents=[agent])
        assert _utility(truthful, agent, costs[agent]) >= \
            _utility(deviated, agent, costs[agent]) - 1e-6


def test_winner_monotonicity_sampled():
    rng = random.Random(97)
    for _ in range(15):
        g, k = random_kpath_instance(rng, max_vertices=5, max_edges=9)
        bids = [float(rng.randint(0, 6)) for _ in range(g.n_edges)]
        out = kpath_mechanism(g, bids, k, payment_agents=[])
        losers = frozenset(range(g.n_edges)) - out.winners
        if not losers:
            continue
        agent = min(losers)
        higher = list(bids)
        higher[agent] = bids[agent] + rng.random() * 5 + 0.5
        out2 = kpath_mechanism(g, higher, k, payment_agents=[])
        assert agent not in out2.winners


def test_bid_independence_of_pruning():
    rng = random.Random(101)
    for _ in range(15):
        g, k = random_kpath_instance(rng, max_vertices=5, max_edges=9)
        bids = [float(rng.randint(1, 6)) for _ in range(g.n_edges)]
        pruned = cheapest_kplus1_subgraph(g, bids, k).edge_ids
        agent = min(pruned)
        lower = list(bids)
        lower[agent] = bids[agent] * rng.random()
        pruned2 = cheapest_kplus1_subgraph(g, lower, k).edge_ids
        if agent in pruned2:
            assert pruned2 == pruned


def test_weight_scale_invariance_of_winner_set():
    # Rescaling one component's weights leaves every argmin winner set unchanged.
    g = two_diamonds_in_series()
    bids = [3.0, 1.0, 2.0, 2.0, 1.0, 5.0, 2.0, 0.0]
    gstar = cheapest_kplus1_subgraph(g, bids, 1)
    h = build_dependency_kpath(g, gstar, 1)
    lifted = lift(h)
    comps = components(h)
    base_scaled = [0.0] * g.n_edges
    for e in gstar.edge_ids:
        base_scaled[e] = bids[e] / lifted.weights[e]
    base_winners = min_cost_flow(g, base_scaled, 1, allowed=gstar.edge_ids).edge_ids
    for scale in (0.25, 3.0):
        for target in comps:
            scaled = list(base_scaled)
            for e in target:
                scaled[e] = bids[e] / (lifted.weights[e] * scale)
            winners = min_cost_flow(g, scaled, 1, allowed=gstar.edge_ids).edge_ids
            assert winners == base_winners
