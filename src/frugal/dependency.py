"""Dependency graph of a pruned system.

Two surviving agents are joined exactly when removing both of them
destroys feasibility, i.e. every remaining feasible set contains at
least one of the two.  Feasible sets are therefore vertex covers of this
graph.

For a k-path system pruned to a (k+1)-flow G*, the pairs come from the
structure of minimum cuts instead of one max-flow per pair: {a, b} is
joined exactly when b lies in some minimum s-t cut of G* - a, and one
strongly-connected-component pass over a residual graph finds every such
b at once (Picard & Queyranne, "On the structure of all minimum cuts in
a network", Math. Prog. Study 13, 1980).  `build_dependency_kpath` gives
the proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import core, flows
from .errors import MonopolyError, StructureError, ValidationError


@dataclass(frozen=True)
class DependencyGraph:
    """Undirected graph on the surviving agents; no self-loops."""

    nodes: tuple[int, ...]
    edges: frozenset[tuple[int, int]]  # pairs (a, b) with a < b

    def adjacent(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges


def components(h: DependencyGraph) -> list[frozenset[int]]:
    """Maximal connected node sets, ordered by their smallest agent id."""
    adj: dict[int, set[int]] = {v: set() for v in h.nodes}
    for a, b in h.edges:
        adj[a].add(b)
        adj[b].add(a)
    seen: set[int] = set()
    comps = []
    for v in sorted(h.nodes):
        if v in seen:
            continue
        comp = {v}
        frontier = [v]
        while frontier:
            u = frontier.pop()
            for w in adj[u]:
                if w not in comp:
                    comp.add(w)
                    frontier.append(w)
        seen |= comp
        comps.append(frozenset(comp))
    return sorted(comps, key=min)


def build_dependency(restricted: core.SetSystemInstance,
                     cap: int = flows.DEFAULT_ENUM_CAP) -> DependencyGraph:
    """Dependency graph of a monopoly-free (restricted) system.

    Vertex-cover systems are their own dependency graph.  The generic
    path tests every agent pair against the minimal feasible sets.
    """
    if isinstance(restricted, core.VertexCoverSystem):
        g = restricted.graph
        nodes = tuple(range(g.n_vertices))
        return DependencyGraph(nodes, frozenset(g.edges))
    agents = sorted(core.system_agents(restricted))
    minimal = core.minimal_feasible_sets(restricted, cap)
    inter = frozenset(agents)
    for m in minimal:
        inter &= m
    if not minimal or inter:
        raise MonopolyError("restricted system is not monopoly-free")
    edges = set()
    for i, a in enumerate(agents):
        for b in agents[i + 1:]:
            if not any(a not in m and b not in m for m in minimal):
                edges.add((a, b))
    return DependencyGraph(tuple(agents), frozenset(edges))


def multipartite_dependency(parts: Sequence[Sequence[int]]) -> DependencyGraph:
    """Complete multipartite graph: agents in different parts are joined.

    This is the dependency graph of an r-out-of-k system pruned to r+1
    groups, whose parts are the groups' agent ids.
    """
    edges = set()
    for i, part_a in enumerate(parts):
        for part_b in parts[i + 1:]:
            for u in part_a:
                for v in part_b:
                    edges.add((min(u, v), max(u, v)))
    return DependencyGraph(tuple(sorted(a for part in parts for a in part)), frozenset(edges))


def build_dependency_kpath(g: flows.DiGraph, gstar: flows.IntegralFlow,
                           k: int) -> DependencyGraph:
    """Dependency graph of a k-path system pruned to the (k+1)-flow `gstar`.

    {a, b} is joined exactly when G* - a - b carries no k-flow, i.e. when b
    lies in some minimum s-t cut of G* - a.  Split G* into its k+1 paths
    and let a lie on path P; then
      1. G* - a carries exactly k: the other k paths are a k-flow, and a
         (k+1)-flow avoiding a would leave a nonempty directed cycle in
         G*, whose support is acyclic;
      2. the residual graph of that k-flow has a reverse arc for each edge
         of the other paths and a forward arc for each edge of P - {a};
         a flow-carrying edge (u, v) lies in some minimum cut iff no
         residual path runs u -> v, since the set reachable from u holds
         everything reachable from s (reverse arcs lead from u back to s
         along u's path) and holds t only if it holds v (they lead from t
         back to v), so without v it is the source side of a minimum cut;
      3. edges of P - {a} carry no flow, so they lie in no minimum cut.
    A flow-carrying edge has the reverse arc v -> u, so the test in 2 is
    "u and v lie in different strongly connected components" (Picard &
    Queyranne, Math. Prog. Study 13, 1980): one linear pass per edge a,
    and no max-flow calls.

    Raises ValidationError unless `gstar` has k+1 paths, and
    StructureError when its support does not split into k+1 s-t paths
    or contains a directed cycle.
    """
    if gstar.size != k + 1:
        raise ValidationError(
            f"pruned flow has {gstar.size} paths; a k-path system with k={k} "
            f"is pruned to k+1")
    paths = flows.flow_paths(g, gstar)
    verts = sorted({v for eid in gstar.edge_ids for v in g.edges[eid]})
    support: dict[int, list[int]] = {v: [] for v in verts}
    for eid in gstar.edge_ids:
        tail, head = g.edges[eid]
        support[tail].append(head)
    if len(flows.strongly_connected_components(verts, support)) < len(verts):
        raise StructureError("support of the pruned flow contains a directed cycle")
    edges = set()
    for i, path in enumerate(paths):
        others = [b for j, other in enumerate(paths) if j != i for b in other]
        out: dict[int, list[int]] = {v: [] for v in verts}
        for b in others:
            tail, head = g.edges[b]
            out[head].append(tail)
        for eid in path:
            tail, head = g.edges[eid]
            out[tail].append(head)
        for a in path:
            tail, head = g.edges[a]
            out[tail].remove(head)
            comp_of = {}
            for ci, comp in enumerate(flows.strongly_connected_components(verts, out)):
                for v in comp:
                    comp_of[v] = ci
            out[tail].append(head)
            for b in others:
                tail_b, head_b = g.edges[b]
                if comp_of[tail_b] != comp_of[head_b]:
                    edges.add((min(a, b), max(a, b)))
    return DependencyGraph(tuple(sorted(gstar.edge_ids)), frozenset(edges))
