"""Dependency graph of a pruned system.

Two surviving agents are joined exactly when removing both of them
destroys feasibility, i.e. every remaining feasible set contains at
least one of the two.  Feasible sets are therefore vertex covers of this
graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import core, flows
from .errors import MonopolyError


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
    """Fast path for k-path systems pruned to a (k+1)-flow subgraph.

    A pair of edges is joined exactly when deleting both drops the max
    flow of the subgraph below k.
    """
    nodes = tuple(sorted(gstar.edge_ids))
    if flows.max_flow_value(g, gstar.edge_ids) < k:
        raise MonopolyError("pruned subgraph does not even carry a k-flow")
    edges = set()
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            if flows.max_flow_value(g, gstar.edge_ids - {a, b}) < k:
                edges.add((a, b))
    return DependencyGraph(nodes, frozenset(edges))
