"""Directed s-t network algorithms on unit-capacity graphs.

Everything here works on integral flows: a flow of size k is an edge set
that decomposes into exactly k edge-disjoint s-t paths.  Every selection
in the package, here and in `mechanisms`, ranks sets by one rule,
`exact_weights`: exact cost, then the smallest differing id.  No selector
uses a tolerance.  The weights are positive ints, so every optimum is
unique, optimal flow supports are cycle-free, and the auctions' pruning
is deterministic and independent of any surviving agent's bid.  Once a
cheapest flow is known, the cheapest flow of the same size that avoids
one of its edges e = (u, v) is one shortest u -> v path away in its
residual graph (`residual_detour`), so the k-path thresholds need no
second min-cost flow.  Max-flow augmenting paths (zero weights), min-cost
augmenting paths and the detours all run one Bellman-Ford,
`_residual_search`, on ints.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Optional, Sequence

from .errors import (
    EnumerationCapError,
    GraphCycleError,
    InfeasibleFlowError,
    StructureError,
    ValidationError,
)

COST_TOL = 1e-9
DEFAULT_ENUM_CAP = 100_000


@dataclass(frozen=True)
class DiGraph:
    """Directed graph with dense edge ids, a source and a sink.

    Every edge has capacity 1.  Parallel edges are allowed; self-loops are
    not.
    """

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    s: int
    t: int

    def __post_init__(self):
        if self.n_vertices < 2:
            raise ValidationError("graph needs at least the two terminals")
        if self.s == self.t:
            raise ValidationError("source and sink must differ")
        for v in (self.s, self.t):
            if not 0 <= v < self.n_vertices:
                raise ValidationError(f"terminal {v} out of range")
        for eid, (tail, head) in enumerate(self.edges):
            if not (0 <= tail < self.n_vertices and 0 <= head < self.n_vertices):
                raise ValidationError(f"edge {eid} references a missing vertex")
            if tail == head:
                raise ValidationError(f"edge {eid} is a self-loop")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def out_edges(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for eid, (tail, _) in enumerate(self.edges):
            adj[tail].append(eid)
        return adj


@dataclass(frozen=True)
class IntegralFlow:
    """Edge set of `size` edge-disjoint s-t paths with its total cost."""

    edge_ids: frozenset[int]
    size: int
    cost: float


@dataclass(frozen=True)
class FlowCostCurve:
    """Cheapest-flow cost C(x) for integer sizes x = 0..max_flow."""

    values: tuple[float, ...]
    max_flow: int

    def __post_init__(self):
        if len(self.values) != self.max_flow + 1:
            raise ValidationError("curve length must be max_flow + 1")
        if abs(self.values[0]) > COST_TOL:
            raise ValidationError("C(0) must be zero")
        diffs = [b - a for a, b in zip(self.values, self.values[1:])]
        for i in range(1, len(diffs)):
            if diffs[i] < diffs[i - 1] - COST_TOL:
                raise ValidationError("flow cost curve is not convex")


@dataclass(frozen=True)
class ArticulationDecomposition:
    """Ordered cut vertices of a flow subgraph and the edge parts between them."""

    points: tuple[int, ...]
    parts: tuple[frozenset[int], ...]


def exact_weights(costs: Iterable[float], ids: Iterable[int], m: int) -> list[int]:
    """Weight (c << (m+1)) + 2^(m-1-id) of each id of `ids` (all below m),
    c its entry of `costs` as an int over one shared power-of-two denominator.

    The package's single selection rule: no sum of weights rounds, and the
    tie part of a set is below 2^m (of a simple residual path, in
    (-2^m, 2^m)), so the smaller summed weight has the smaller cost or, at
    exactly equal cost, avoids the smallest id on which the two differ.
    """
    exact, _ = _exact_costs(costs)
    return [(c << (m + 1)) + (1 << (m - 1 - i)) for c, i in zip(exact, ids)]


def max_flow_value(g: DiGraph, allowed: Optional[Iterable[int]] = None) -> int:
    """Maximum integral s-t flow using only `allowed` edges (all by default)."""
    usable = range(g.n_edges) if allowed is None else frozenset(allowed)
    return _augment(g, usable, [0] * g.n_edges, len(usable))[1]


def min_cost_flow(g: DiGraph, costs: Sequence[float], k: int,
                  allowed: Optional[Iterable[int]] = None) -> IntegralFlow:
    """Cheapest integral flow of size exactly k under `exact_weights`, by
    successive shortest augmenting paths; unique, with a cycle-free support."""
    _check_costs(g, costs)
    if k < 0:
        raise ValidationError("flow size must be non-negative")
    usable = range(g.n_edges) if allowed is None else frozenset(allowed)
    weights = exact_weights(costs, range(g.n_edges), g.n_edges)
    carried, size = _augment(g, usable, weights, k)
    if size < k:
        raise InfeasibleFlowError(
            f"graph has no s-t flow of size {k} within the allowed edges")
    support = frozenset(carried)
    _assert_acyclic_support(g, support)
    total = float(sum(costs[eid] for eid in support))
    return IntegralFlow(support, k, total)


@dataclass(frozen=True)
class ResidualGraph:
    """Residual arcs of a flow under exact integer costs; see `residual_graph`."""

    graph: DiGraph
    flow_edges: frozenset[int]
    out: list[list[tuple[int, int, int]]]
    denominator: int


def residual_graph(g: DiGraph, costs: Sequence[float], flow_edges: frozenset[int],
                   allowed: Optional[Iterable[int]] = None) -> ResidualGraph:
    """Residual graph of the flow `flow_edges` within the `allowed` edges (all by default).

    Built once per flow and shared by every `residual_detour` on it.
    """
    _check_costs(g, costs)
    usable = range(g.n_edges) if allowed is None else allowed
    exact, denominator = _exact_costs(costs)
    return ResidualGraph(g, flow_edges, _residual_arcs(g, usable, flow_edges, exact),
                         denominator)


def residual_detour(residual: ResidualGraph, e: int) -> float:
    """Shortest tail(e) -> head(e) distance in a flow's residual graph without e.

    `residual.flow_edges` is the support of a cheapest flow within the
    allowed edges and carries e.  The cheapest flow of the same size
    within allowed - {e} then costs cost(flow) - costs[e] + the returned
    distance, which is math.inf when no such flow exists.  The only arc
    of e is head(e) -> tail(e), which no simple tail(e) -> head(e) path
    uses, so it stays.  The distance is exact until its one division by
    the shared denominator.
    """
    if e not in residual.flow_edges:
        raise ValidationError(f"edge {e} carries no flow")
    src, dst = residual.graph.edges[e]
    dist = _residual_search(residual.out, src)[0][dst]
    return dist if dist == math.inf else dist / residual.denominator


def _exact_costs(costs: Iterable[float]) -> tuple[list[int], int]:
    """Costs as ints over one shared power-of-two denominator, with no rounding.

    Every finite float is p / 2^j, so the largest denominator is a multiple
    of all the others.
    """
    ratios = [c.as_integer_ratio() for c in costs]
    denominator = max((d for _, d in ratios), default=1)
    return [p * (denominator // d) for p, d in ratios], denominator


def _residual_arcs(g: DiGraph, usable: Iterable[int], carried: AbstractSet[int],
                   weights: Sequence[int]) -> list[list[tuple[int, int, int]]]:
    """Successor lists (head, weight, edge id): forward arcs for free edges,
    negated backward arcs for the `carried` ones."""
    out: list[list[tuple[int, int, int]]] = [[] for _ in range(g.n_vertices)]
    edges = g.edges
    for eid in usable:
        tail, head = edges[eid]
        if eid in carried:
            out[head].append((tail, -weights[eid], eid))
        else:
            out[tail].append((head, weights[eid], eid))
    return out


def _augment(g: DiGraph, usable: Iterable[int], weights: Sequence[int],
             limit: int) -> tuple[set[int], int]:
    """Up to `limit` successive shortest s-t augmenting paths from the empty flow.

    Returns the carried edges and the flow size, which is below `limit`
    only when no further s-t path exists.
    """
    carried: set[int] = set()
    for size in range(limit):
        dist, parent = _residual_search(_residual_arcs(g, usable, carried, weights), g.s)
        if dist[g.t] == math.inf:
            return carried, size
        v = g.t
        while v != g.s:
            v, eid = parent[v]
            carried ^= {eid}
    return carried, limit


def _residual_search(out: list[list[tuple[int, int, int]]], src: int):
    """Bellman-Ford from `src` over successor lists with exact integer weights.

    Round r relaxes the arcs out of the vertices that changed in round
    r-1.  Without a negative cycle every distance settles within n-1
    rounds and the parent arcs form a tree rooted at `src`; a change in
    round n proves a negative cycle and raises StructureError.  Returns
    the distances (math.inf when unreachable) and each vertex's
    (predecessor, edge id).
    """
    n = len(out)
    dist: list = [math.inf] * n
    parent: list = [None] * n
    dist[src] = 0
    frontier = [src]
    last_round = [-1] * n
    for r in range(n):
        if not frontier:
            break
        changed: list[int] = []
        for u in frontier:
            du = dist[u]
            for v, w, eid in out[u]:
                if du + w < dist[v]:
                    dist[v] = du + w
                    parent[v] = (u, eid)
                    if last_round[v] != r:
                        last_round[v] = r
                        changed.append(v)
        frontier = changed
    if frontier:
        raise StructureError("residual graph has a negative cycle")
    return dist, parent


def _check_costs(g: DiGraph, costs: Sequence[float]):
    if len(costs) != g.n_edges:
        raise ValidationError("cost vector length must equal the edge count")
    if math.isfinite(sum(costs)) and min(costs, default=0.0) >= 0:
        return
    for eid, c in enumerate(costs):
        if c < 0 or not math.isfinite(c):
            raise ValidationError(f"edge {eid} has an invalid cost {c}")
    raise ValidationError("edge costs total more than the largest float")


def _assert_acyclic_support(g: DiGraph, support: frozenset[int]):
    try:
        _topological_order(g, support)
    except GraphCycleError:
        raise StructureError("optimal flow support unexpectedly contains a cycle")


def cheapest_kplus1_subgraph(g: DiGraph, bids: Sequence[float], k: int) -> IntegralFlow:
    """Cheapest flow of size k+1; failure doubles as the monopoly check."""
    return min_cost_flow(g, bids, k + 1)


def flow_paths(g: DiGraph, flow: IntegralFlow) -> list[tuple[int, ...]]:
    """Decompose a flow into its edge-disjoint s-t paths (smallest edge id first)."""
    remaining: dict[int, list[int]] = {}
    for eid in sorted(flow.edge_ids):
        remaining.setdefault(g.edges[eid][0], []).append(eid)
    paths = []
    for _ in range(flow.size):
        v = g.s
        path = []
        while v != g.t:
            out = remaining.get(v)
            if not out:
                raise StructureError("edge set does not decompose into s-t paths")
            eid = out.pop(0)
            path.append(eid)
            v = g.edges[eid][1]
            if len(path) > g.n_edges:
                raise StructureError("path extraction looped; support is not acyclic")
        paths.append(tuple(path))
    if any(remaining.values()):
        raise StructureError("edge set has surplus edges beyond its s-t paths")
    return paths


def flow_cost_curve(g: DiGraph, costs: Sequence[float]) -> FlowCostCurve:
    """C(i) for i = 0..max_flow; convexity is validated on construction."""
    _check_costs(g, costs)
    m = max_flow_value(g)
    values = [0.0]
    for i in range(1, m + 1):
        values.append(min_cost_flow(g, costs, i).cost)
    return FlowCostCurve(tuple(values), m)


def _topological_order(g: DiGraph, edge_ids: Iterable[int]) -> list[int]:
    edge_ids = list(edge_ids)
    verts = sorted({v for eid in edge_ids for v in g.edges[eid]})
    indeg = {v: 0 for v in verts}
    out: dict[int, list[int]] = {v: [] for v in verts}
    for eid in edge_ids:
        tail, head = g.edges[eid]
        indeg[head] += 1
        out[tail].append(head)
    ready = [v for v in verts if indeg[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if len(order) != len(verts):
        raise GraphCycleError("subgraph contains a directed cycle")
    return order


def longest_path_dag(g: DiGraph, edge_ids: Iterable[int], costs: Sequence[float]) -> float:
    """Maximum-cost s-t path in an acyclic subgraph, by topological DP."""
    edge_ids = sorted(set(edge_ids))
    order = _topological_order(g, edge_ids)
    incoming: dict[int, list[int]] = {}
    for eid in edge_ids:
        incoming.setdefault(g.edges[eid][1], []).append(eid)
    best: dict[int, float] = {g.s: 0.0}
    for v in order:
        for eid in incoming.get(v, ()):
            tail = g.edges[eid][0]
            if tail in best:
                cand = best[tail] + costs[eid]
                if v not in best or cand > best[v]:
                    best[v] = cand
    if g.t not in best:
        raise StructureError("subgraph has no s-t path")
    return best[g.t]


def _all_simple_paths(g: DiGraph, cap: int) -> list[tuple[int, ...]]:
    adj = g.out_edges()
    paths: list[tuple[int, ...]] = []
    stack_vs = {g.s}

    def rec(v: int, acc: list[int]):
        if v == g.t:
            paths.append(tuple(acc))
            if len(paths) > cap:
                raise EnumerationCapError("too many s-t paths", cap)
            return
        for eid in adj[v]:
            head = g.edges[eid][1]
            if head in stack_vs:
                continue
            stack_vs.add(head)
            acc.append(eid)
            rec(head, acc)
            acc.pop()
            stack_vs.remove(head)

    rec(g.s, [])
    return paths


def enumerate_flow_unions(g: DiGraph, size: int, cap: int = DEFAULT_ENUM_CAP) -> list[frozenset[int]]:
    """All edge sets that are unions of `size` edge-disjoint s-t paths.

    Exhaustive; intended for small verification instances only.
    """
    paths = _all_simple_paths(g, cap)
    path_sets = [frozenset(p) for p in paths]
    unions: set[frozenset[int]] = set()
    steps = 0

    def rec(start: int, chosen: frozenset[int], depth: int):
        nonlocal steps
        steps += 1
        if steps > cap:
            raise EnumerationCapError("too many path combinations", cap)
        if depth == size:
            unions.add(chosen)
            if len(unions) > cap:
                raise EnumerationCapError("too many flow unions", cap)
            return
        for i in range(start, len(path_sets)):
            ps = path_sets[i]
            if chosen & ps:
                continue
            rec(i + 1, chosen | ps, depth + 1)

    rec(0, frozenset(), 0)
    return sorted(unions, key=sorted)


def strongly_connected_components(vertices: Sequence[int],
                                  out: dict[int, list[int]]) -> list[list[int]]:
    """Strongly connected components of a digraph given by successor lists.

    Iterative Tarjan: one linear pass, no recursion, and components come
    out in reverse topological order of the condensation.  `out` may omit
    vertices that have no successors.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = itertools.count()
    for root in vertices:
        if root in index:
            continue
        work = [(root, iter(out.get(root, ())))]
        index[root] = low[root] = next(counter)
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = next(counter)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(out.get(w, ()))))
                    advanced = True
                    break
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.remove(w)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def _longest_path_with_cycles(g: DiGraph, edge_ids: frozenset[int],
                              costs: Sequence[float]) -> float:
    """Longest s-t path cost; +inf when the subgraph has a positive-cost cycle.

    Zero-cost cycles are contracted, so walks and simple paths agree.
    """
    verts = sorted({v for eid in edge_ids for v in g.edges[eid]})
    out: dict[int, list[int]] = {v: [] for v in verts}
    for eid in edge_ids:
        tail, head = g.edges[eid]
        out[tail].append(head)
    comps = strongly_connected_components(verts, out)
    comp_of = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    for eid in edge_ids:
        tail, head = g.edges[eid]
        if comp_of[tail] == comp_of[head] and costs[eid] > COST_TOL:
            return math.inf
    # DP on the condensation; intra-component edges cost ~0.
    cond_out: dict[int, list[tuple[int, float]]] = {}
    indeg = {ci: 0 for ci in range(len(comps))}
    for eid in edge_ids:
        tail, head = g.edges[eid]
        a, b = comp_of[tail], comp_of[head]
        if a != b:
            cond_out.setdefault(a, []).append((b, costs[eid]))
            indeg[b] += 1
    sc, tc = comp_of[g.s], comp_of[g.t]
    ready = [ci for ci in range(len(comps)) if indeg[ci] == 0]
    best = {sc: 0.0}
    order = []
    while ready:
        ci = ready.pop()
        order.append(ci)
        for b, c in cond_out.get(ci, ()):
            if ci in best:
                cand = best[ci] + c
                if b not in best or cand > best[b]:
                    best[b] = cand
            indeg[b] -= 1
            if indeg[b] == 0:
                ready.append(b)
    if tc not in best:
        raise StructureError("subgraph has no s-t path")
    return best[tc]


def delta_kplus1(g: DiGraph, costs: Sequence[float], k: int,
                 cap: int = DEFAULT_ENUM_CAP) -> float:
    """Minimum over all (k+1)-flows of the longest s-t path inside the flow.

    Exhaustive over unions of k+1 edge-disjoint paths; +inf only if every
    union carries a positive-cost cycle.
    """
    _check_costs(g, costs)
    if max_flow_value(g) < k + 1:
        raise InfeasibleFlowError(f"graph has no {k + 1} edge-disjoint s-t paths")
    best = math.inf
    for union in enumerate_flow_unions(g, k + 1, cap):
        val = _longest_path_with_cycles(g, union, costs)
        if val < best:
            best = val
    return best


def _reachable(g: DiGraph, edge_ids: frozenset[int], start: int,
               skip_vertex: Optional[int] = None, reverse: bool = False) -> set[int]:
    if start == skip_vertex:
        return set()
    out: dict[int, list[int]] = {}
    for eid in edge_ids:
        tail, head = g.edges[eid]
        if reverse:
            tail, head = head, tail
        if skip_vertex in (tail, head):
            continue
        out.setdefault(tail, []).append(head)
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for w in out.get(v, ()):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def articulation_decomposition(g: DiGraph, flow: IntegralFlow) -> ArticulationDecomposition:
    """Vertices lying on every s-t path of the flow subgraph, with the edge parts between them."""
    edge_ids = flow.edge_ids
    if max_flow_value(g, edge_ids) != flow.size:
        raise StructureError("edge set does not carry the declared flow size")
    flow_paths(g, flow)  # validates exact decomposition
    order = _topological_order(g, edge_ids)
    pos = {v: i for i, v in enumerate(order)}
    interior = [v for v in order if v not in (g.s, g.t)]
    points = [g.s]
    for v in interior:
        if g.t not in _reachable(g, edge_ids, g.s, skip_vertex=v):
            points.append(v)
    points.append(g.t)
    points.sort(key=lambda v: pos[v])
    parts = []
    for a, b in zip(points, points[1:]):
        from_a = _reachable(g, edge_ids, a)
        to_b = _reachable(g, edge_ids, b, reverse=True)
        parts.append(frozenset(
            eid for eid in edge_ids
            if g.edges[eid][0] in from_a and g.edges[eid][1] in to_b
        ))
    if sorted(itertools.chain.from_iterable(parts)) != sorted(edge_ids):
        raise StructureError("parts do not partition the flow edges")
    return ArticulationDecomposition(tuple(points), tuple(parts))
