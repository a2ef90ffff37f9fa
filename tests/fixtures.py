"""Shared fixture graphs, brute-force oracles and test-only helpers.

The brute oracles enumerate exhaustively and never call the code paths
they check; they are the independent check.  The re-solve oracle
`resolve_kpath_thresholds` calls `flows.min_cost_flow`, which shares its
residual search with the detours it checks.
"""

from __future__ import annotations

import heapq
import itertools
import math

from frugal import flows
from frugal.core import UndirectedGraph
from frugal.dependency import DependencyGraph
from frugal.errors import InfeasibleFlowError
from frugal.flows import DiGraph


def diamond() -> DiGraph:
    # s=0, a=1, b=2, t=3; edges: 0: s->a, 1: s->b, 2: a->t, 3: b->t
    return DiGraph(4, ((0, 1), (0, 2), (1, 3), (2, 3)), 0, 3)


DIAMOND_COSTS = [1.0, 2.0, 3.0, 4.0]


def para(n: int) -> DiGraph:
    """Two parallel s-t paths: one direct edge, one with n edges."""
    verts = 2 + (n - 1)
    edges = [(0, verts - 1)]
    prev = 0
    for i in range(n - 1):
        edges.append((prev, 1 + i))
        prev = 1 + i
    edges.append((prev, verts - 1))
    return DiGraph(verts, tuple(edges), 0, verts - 1)


def para_costs(n: int) -> list[float]:
    return [1.0] + [0.0] * n


def parallel_edges(count: int) -> DiGraph:
    return DiGraph(2, tuple((0, 1) for _ in range(count)), 0, 1)


def two_diamonds_in_series() -> DiGraph:
    # s=0 .. v=3 (shared middle) .. t=6; two diamonds glued at v.
    edges = (
        (0, 1), (0, 2), (1, 3), (2, 3),   # first diamond
        (3, 4), (3, 5), (4, 6), (5, 6),   # second diamond
    )
    return DiGraph(7, edges, 0, 6)


def random_digraph(rng, n_vertices, n_edges) -> DiGraph:
    """Random edges between distinct vertices; parallel edges and cycles allowed."""
    edges = []
    for _ in range(n_edges):
        u = rng.randrange(n_vertices)
        v = rng.randrange(n_vertices)
        while v == u:
            v = rng.randrange(n_vertices)
        edges.append((u, v))
    return DiGraph(n_vertices, tuple(edges), 0, n_vertices - 1)


def layered_grid(rng, layers, width, p_diag=0.3) -> DiGraph:
    # Source, `layers` rows of `width` vertices, sink; straight edges between
    # rows plus random diagonals, so `width` disjoint s-t paths always exist.
    s, t = 0, 1 + layers * width
    edges = [(s, 1 + col) for col in range(width)]
    for row in range(layers - 1):
        for col in range(width):
            for nxt in (col - 1, col, col + 1):
                if 0 <= nxt < width and (nxt == col or rng.random() < p_diag):
                    edges.append((1 + row * width + col, 1 + (row + 1) * width + nxt))
    edges.extend((1 + (layers - 1) * width + col, t) for col in range(width))
    return DiGraph(t + 1, tuple(edges), s, t)


def star_graph(m: int) -> UndirectedGraph:
    return UndirectedGraph(m + 1, tuple((0, i) for i in range(1, m + 1)))


def triangle() -> UndirectedGraph:
    return UndirectedGraph(3, ((0, 1), (0, 2), (1, 2)))


# ---------------------------------------------------------------------------
# Brute-force oracles


def brute_all_simple_paths(g: DiGraph, allowed=None, src=None, dst=None) -> list[tuple[int, ...]]:
    allowed = set(range(g.n_edges)) if allowed is None else set(allowed)
    src = g.s if src is None else src
    dst = g.t if dst is None else dst
    out = [[] for _ in range(g.n_vertices)]
    for eid in allowed:
        out[g.edges[eid][0]].append(eid)
    paths = []

    def rec(v, used_vs, acc):
        if v == dst:
            paths.append(tuple(acc))
            return
        for eid in out[v]:
            h = g.edges[eid][1]
            if h in used_vs:
                continue
            rec(h, used_vs | {h}, acc + [eid])

    rec(src, {src}, [])
    return paths


def brute_k_flows(g: DiGraph, k: int, allowed=None) -> list[frozenset[int]]:
    """All unions of k pairwise edge-disjoint s-t paths, deduplicated."""
    paths = [frozenset(p) for p in brute_all_simple_paths(g, allowed)]
    unions = set()

    def rec(start, chosen, depth):
        if depth == k:
            unions.add(chosen)
            return
        for i in range(start, len(paths)):
            if not (chosen & paths[i]):
                rec(i + 1, chosen | paths[i], depth + 1)

    rec(0, frozenset(), 0)
    return sorted(unions, key=sorted)


def brute_min_cost_flow_cost(g: DiGraph, costs, k: int, allowed=None) -> float:
    """Minimum total cost over all integral k-flows, by exhaustive enumeration."""
    best = math.inf
    for union in brute_k_flows(g, k, allowed):
        c = sum(costs[e] for e in union)
        best = min(best, c)
    return best


def brute_max_flow(g: DiGraph, allowed=None) -> int:
    k = 0
    while brute_k_flows(g, k + 1, allowed):
        k += 1
    return k


def brute_longest_path(g: DiGraph, edge_ids, costs, src=None, dst=None) -> float:
    """Longest simple path within an edge subset between two endpoints."""
    best = -math.inf
    for p in brute_all_simple_paths(g, edge_ids, src, dst):
        best = max(best, sum(costs[e] for e in p))
    return best


def brute_delta(g: DiGraph, costs, k: int) -> float:
    """Reference minimum longest path over (k+1)-flows (cycle-free test graphs only)."""
    best = math.inf
    for union in brute_k_flows(g, k + 1):
        best = min(best, brute_longest_path(g, union, costs))
    return best


def brute_minimal_sets(universe: int, feasible_fn) -> list[frozenset[int]]:
    """Inclusion-minimal feasible sets by scanning all 2^universe subsets."""
    feas = [frozenset(s)
            for r in range(universe + 1)
            for s in itertools.combinations(range(universe), r)
            if feasible_fn(frozenset(s))]
    return sorted((s for s in feas if not any(o < s for o in feas)), key=sorted)


def consecutive_parts(sizes) -> list[tuple[int, ...]]:
    """Parts of the given sizes over agent ids 0, 1, ..., in order."""
    parts, nxt = [], 0
    for size in sizes:
        parts.append(tuple(range(nxt, nxt + size)))
        nxt += size
    return parts


def multipartite_dependency(parts) -> DependencyGraph:
    """Complete multipartite graph: agents in different parts are joined.

    The expanded dependency graph of an r-out-of-k system pruned to r+1
    groups, whose parts are the groups' agent ids; `spectral.lift` of it
    is the oracle for `spectral.multipartite_lift`.
    """
    edges = set()
    for i, part_a in enumerate(parts):
        for part_b in parts[i + 1:]:
            for u in part_a:
                for v in part_b:
                    edges.add((min(u, v), max(u, v)))
    return DependencyGraph(tuple(sorted(a for part in parts for a in part)), frozenset(edges))


def brute_dependency_kpath(g: DiGraph, gstar, k: int) -> DependencyGraph:
    """Pairwise dependency oracle for a k-path system pruned to `gstar`.

    Joins {a, b} when G* minus both carries less than k, testing every
    pair with its own max-flow: O(|G*|^2) calls, no minimum-cut structure.
    """
    nodes = tuple(sorted(gstar.edge_ids))
    edges = set()
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            if flows.max_flow_value(g, gstar.edge_ids - {a, b}) < k:
                edges.add((a, b))
    return DependencyGraph(nodes, frozenset(edges))


def _resolve_cost(g: DiGraph, costs, size: int, allowed) -> float:
    try:
        return flows.min_cost_flow(g, costs, size, allowed=allowed).cost
    except InfeasibleFlowError:
        return math.inf


def resolve_kpath_thresholds(g: DiGraph, bids, k: int, gstar, lifted, winner_flow,
                             e: int) -> tuple[float, float]:
    """t1 and t2 of k-path winner e, each from a min-cost flow re-solved without e.

    t1 prices the cheapest (k+1)-flow of G - e against G*; t2 prices the
    cheapest scaled k-flow of G* - e against the winning flow.
    """
    scaled = [0.0] * g.n_edges
    for a in gstar.edge_ids:
        scaled[a] = bids[a] / lifted.weights[a]
    without = _resolve_cost(g, bids, k + 1, frozenset(range(g.n_edges)) - {e})
    alt = _resolve_cost(g, scaled, k, gstar.edge_ids - {e})
    return (without - gstar.cost + bids[e],
            lifted.weights[e] * (alt - winner_flow.cost + scaled[e]))


def shortest_path_distances(g: DiGraph, weights) -> list[float]:
    """Dijkstra distances from s under non-negative edge weights."""
    assert len(weights) == g.n_edges and min(weights) >= 0
    adj = g.out_edges()
    dist = [math.inf] * g.n_vertices
    dist[g.s] = 0.0
    heap = [(0.0, g.s)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v] + flows.COST_TOL:
            continue
        for eid in adj[v]:
            head = g.edges[eid][1]
            nd = d + weights[eid]
            if nd < dist[head] - 1e-15:
                dist[head] = nd
                heapq.heappush(heap, (nd, head))
    return dist


def verify_shortest_path_flow(g: DiGraph, weights, k: int, tol: float = 1e-7):
    """Search the shortest-path subgraph for k+1 edge-disjoint s-t paths.

    Returns the flow when it exists, else None.  Every s-t path made of
    tight edges telescopes to distance(t), so a returned flow decomposes
    into equal-length shortest paths.
    """
    dist = shortest_path_distances(g, weights)
    tight = [
        eid for eid, (tail, head) in enumerate(g.edges)
        if math.isfinite(dist[tail])
        and abs(dist[tail] + weights[eid] - dist[head]) <= tol
    ]
    if flows.max_flow_value(g, tight) < k + 1:
        return None
    return flows.min_cost_flow(g, weights, k + 1, allowed=tight)
