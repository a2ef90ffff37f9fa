"""Dependency graph of a pruned system.

Two surviving agents are joined exactly when removing both of them
destroys feasibility, i.e. every remaining feasible set contains at
least one of the two.  Feasible sets are therefore vertex covers of this
graph.

For a k-path system pruned to a (k+1)-flow G*, the pairs come from the
structure of minimum cuts instead of one max-flow per pair: every edge of
G* carries flow, so its minimum s-t cuts are exactly its
predecessor-closed vertex sets (Picard & Queyranne, "On the structure of
all minimum cuts in a network", Math. Prog. Study 13, 1980), and two
edges are joined exactly when neither reaches the other in the acyclic
G*.  One reachability sweep in each direction finds every pair;
`build_dependency_kpath` gives the proof.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import core, flows
from .errors import GraphCycleError, StructureError, ValidationError


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
    """Dependency graph of a system restricted by `core.restrict`.

    Tests every agent pair against the minimal feasible sets; `restrict`
    has already rejected a monopoly among them.
    """
    agents = sorted(core.system_agents(restricted))
    minimal = core.minimal_feasible_sets(restricted, cap)
    edges = set()
    for i, a in enumerate(agents):
        for b in agents[i + 1:]:
            if not any(a not in m and b not in m for m in minimal):
                edges.add((a, b))
    return DependencyGraph(tuple(agents), frozenset(edges))


def build_dependency_kpath(g: flows.DiGraph, gstar: flows.IntegralFlow,
                           k: int) -> DependencyGraph:
    """Dependency graph of a k-path system pruned to the (k+1)-flow `gstar`.

    Edges a and b of G* are joined exactly when neither reaches the other
    in G*, that is, when no path of G* runs from head(a) to tail(b) or
    from head(b) to tail(a):
      1. {a, b} is joined <=> G* - a - b carries no k-flow <=> some
         minimum s-t cut of G* (k+1 edges) contains both a and b;
      2. every edge of G* carries flow, so |out(X)| - |in(X)| = k+1 for
         every s-t cut X, and X is minimum <=> no edge of G* enters X;
      3. the smallest such X holding tail(a) and tail(b) is the set of
         vertices that reach either tail (it holds s, since every vertex
         of G* lies on an s-t path); it leaves out head(a), head(b) and
         with them t <=> neither head reaches the other edge's tail, as
         acyclicity keeps head(a) from reaching tail(a);
      4. so a ~ b <=> a and b are incomparable under reachability in G*
         (the minimum cuts are the predecessor-closed vertex sets; Picard
         & Queyranne, Math. Prog. Study 13, 1980).
    One backward and one forward sweep in topological order give, per
    vertex, the bitset of edges below and above it; edge a is joined to
    every other edge outside below(head a) | above(tail a).

    Raises ValidationError unless `gstar` has k+1 paths, and
    StructureError when its support does not split into k+1 s-t paths
    or contains a directed cycle.
    """
    if gstar.size != k + 1:
        raise ValidationError(
            f"pruned flow has {gstar.size} paths; a k-path system with k={k} "
            f"is pruned to k+1")
    flows.flow_paths(g, gstar)  # validates the split into k+1 s-t paths
    try:
        order = flows._topological_order(g, gstar.edge_ids)
    except GraphCycleError:
        raise StructureError("support of the pruned flow contains a directed cycle")
    out: dict[int, list[int]] = {v: [] for v in order}
    for eid in gstar.edge_ids:
        out[g.edges[eid][0]].append(eid)
    # Bit e of below[v] (above[v]) is set when edge e is reachable from v
    # (reaches v).
    below = dict.fromkeys(order, 0)
    above = dict.fromkeys(order, 0)
    for v in order:
        for eid in out[v]:
            above[g.edges[eid][1]] |= above[v] | 1 << eid
    for v in reversed(order):
        for eid in out[v]:
            below[v] |= below[g.edges[eid][1]] | 1 << eid
    nodes = tuple(sorted(gstar.edge_ids))
    full = sum(1 << eid for eid in nodes)
    edges = set()
    for a in nodes:
        tail, head = g.edges[a]
        rest = (full & ~(below[head] | above[tail])) >> (a + 1)
        while rest:
            low = rest & -rest
            edges.add((a, a + low.bit_length()))
            rest ^= low
    return DependencyGraph(nodes, frozenset(edges))
