"""Set systems: agents plus an upward-closed family of feasible subsets.

A subset is feasible when it contains a team capable of the task, so any
superset of a feasible set is feasible too.  Four concrete kinds are
supported: an explicit family of generating sets, k edge-disjoint s-t
paths in a digraph, vertex covers of an undirected graph, and unions of
r out of k agent groups.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional, Union

from . import flows
from .errors import EnumerationCapError, MonopolyError, ValidationError


@dataclass(frozen=True)
class UndirectedGraph:
    """Simple undirected graph with dense vertex ids."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        norm = []
        for u, v in self.edges:
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ValidationError(f"edge ({u}, {v}) references a missing vertex")
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValidationError(f"duplicate edge {key}")
            seen.add(key)
            norm.append(key)
        object.__setattr__(self, "edges", tuple(norm))

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(self.n_vertices)}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


@dataclass(frozen=True)
class ExplicitSystem:
    """Feasible family given by explicit generating sets (upward closed)."""

    n_agents: int
    feasible: tuple[frozenset[int], ...]
    agents: frozenset[int] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.agents is None:
            object.__setattr__(self, "agents", frozenset(range(self.n_agents)))
        if not self.feasible:
            raise ValidationError("at least one feasible set is required")
        fam = tuple(frozenset(s) for s in self.feasible)
        if not frozenset().union(*fam) <= self.agents <= frozenset(range(self.n_agents)):
            raise ValidationError("feasible set or agent set lists an agent outside the system")
        object.__setattr__(self, "feasible", fam)


@dataclass(frozen=True)
class KPathSystem:
    """Agents are edges of a digraph; feasible sets contain k edge-disjoint s-t paths."""

    graph: flows.DiGraph
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("k must be at least 1")


@dataclass(frozen=True)
class VertexCoverSystem:
    """Agents are vertices; feasible sets are vertex covers of the graph."""

    graph: UndirectedGraph


@dataclass(frozen=True)
class ROutOfKSystem:
    """Agents are partitioned into groups; feasible sets contain r whole groups."""

    groups: tuple[tuple[int, ...], ...]
    r: int

    def __post_init__(self):
        if self.r < 1:
            raise ValidationError("r must be at least 1")
        if len(self.groups) < self.r:
            raise ValidationError("need at least r groups")
        flat = [a for grp in self.groups for a in grp]
        if not self.groups or any(len(grp) == 0 for grp in self.groups):
            raise ValidationError("groups must be non-empty")
        if sorted(flat) != list(range(len(flat))):
            raise ValidationError("groups must partition agent ids 0..n-1")
        object.__setattr__(self, "groups", tuple(tuple(grp) for grp in self.groups))

    @cached_property
    def group_of(self) -> tuple[int, ...]:
        """`group_of[a]` is the index of agent a's group; built on first use."""
        group_of = [0] * sum(map(len, self.groups))
        for i, grp in enumerate(self.groups):
            for a in grp:
                group_of[a] = i
        return tuple(group_of)


class GroupMembers(AbstractSet[int]):
    """Read-only set of the agents of some whole groups of an r-out-of-k system.

    It holds the system and a bitmask of the groups only, so its size does
    not grow with the groups.  Iteration is in increasing agent id.
    """

    __slots__ = ("system", "mask")

    def __init__(self, system: ROutOfKSystem, groups: Iterable[int]):
        self.system = system
        self.mask = 0
        for i in groups:
            self.mask |= 1 << i

    def __contains__(self, a) -> bool:
        of = self.system.group_of
        return isinstance(a, int) and 0 <= a < len(of) and self.mask >> of[a] & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(a for i, grp in enumerate(self.system.groups)
                           if self.mask >> i & 1 for a in grp))

    def __len__(self) -> int:
        return sum(len(grp) for i, grp in enumerate(self.system.groups) if self.mask >> i & 1)

    @classmethod
    def _from_iterable(cls, agents: Iterable[int]) -> frozenset[int]:
        return frozenset(agents)


class GroupMap(Mapping[int, float]):
    """Read-only map giving each agent of some groups of an r-out-of-k system
    its group's value.

    `by_group[i]` is group i's value, None for a group outside the map; the
    map holds that list and the system only.  `keys()` is the
    `GroupMembers` of its groups.
    """

    __slots__ = ("members", "by_group")

    def __init__(self, system: ROutOfKSystem, by_group: list[Optional[float]]):
        self.members = GroupMembers(system, (i for i, v in enumerate(by_group) if v is not None))
        self.by_group = by_group

    def __getitem__(self, a: int) -> float:
        if a not in self.members:
            raise KeyError(a)
        return self.by_group[self.members.system.group_of[a]]

    def __contains__(self, a) -> bool:
        return a in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def keys(self) -> GroupMembers:
        return self.members


SetSystemInstance = Union[ExplicitSystem, KPathSystem, VertexCoverSystem, ROutOfKSystem]


def system_agents(system: SetSystemInstance) -> frozenset[int]:
    """Ground set of agent ids for the instance."""
    if isinstance(system, ExplicitSystem):
        return system.agents
    if isinstance(system, KPathSystem):
        return frozenset(range(system.graph.n_edges))
    if isinstance(system, VertexCoverSystem):
        return frozenset(range(system.graph.n_vertices))
    if isinstance(system, ROutOfKSystem):
        return frozenset(a for grp in system.groups for a in grp)
    raise TypeError(f"not a set system: {system!r}")


def n_agents(system: SetSystemInstance) -> int:
    if isinstance(system, ExplicitSystem):
        return system.n_agents
    if isinstance(system, KPathSystem):
        return system.graph.n_edges
    if isinstance(system, VertexCoverSystem):
        return system.graph.n_vertices
    if isinstance(system, ROutOfKSystem):
        return sum(len(grp) for grp in system.groups)
    raise TypeError(f"not a set system: {system!r}")


def is_feasible(system: SetSystemInstance, subset: Iterable[int]) -> bool:
    """True when `subset` contains a feasible set."""
    subset = frozenset(subset)
    if any(not 0 <= e < n_agents(system) for e in subset):
        raise ValidationError("subset mentions agents outside the system")
    if isinstance(system, ExplicitSystem):
        return any(f <= subset for f in system.feasible)
    if isinstance(system, KPathSystem):
        return flows.max_flow_value(system.graph, subset) >= system.k
    if isinstance(system, VertexCoverSystem):
        return all(u in subset or v in subset for u, v in system.graph.edges)
    if isinstance(system, ROutOfKSystem):
        full = sum(1 for grp in system.groups if frozenset(grp) <= subset)
        return full >= system.r
    raise TypeError(f"not a set system: {system!r}")


def minimal_feasible_sets(system: SetSystemInstance,
                          cap: int = flows.DEFAULT_ENUM_CAP) -> list[frozenset[int]]:
    """Complete list of inclusion-minimal feasible sets, sorted lexicographically."""
    if isinstance(system, ExplicitSystem):
        sets = _inclusion_minima(list(system.feasible))
    elif isinstance(system, KPathSystem):
        unions = flows.enumerate_flow_unions(system.graph, system.k, cap)
        sets = _inclusion_minima(unions)
    elif isinstance(system, VertexCoverSystem):
        sets = _minimal_covers(system.graph, cap)
    elif isinstance(system, ROutOfKSystem):
        sets = _group_unions(system)
    else:
        raise TypeError(f"not a set system: {system!r}")
    if len(sets) > cap:
        raise EnumerationCapError("too many minimal feasible sets", cap)
    return sorted(sets, key=sorted)


def _inclusion_minima(sets: list[frozenset[int]]) -> list[frozenset[int]]:
    uniq = set(sets)
    return [s for s in uniq if not any(o < s for o in uniq)]


def _minimal_covers(graph: UndirectedGraph, cap: int) -> list[frozenset[int]]:
    covers: set[frozenset[int]] = set()
    edges = graph.edges
    steps = 0

    def rec(chosen: frozenset[int]):
        nonlocal steps
        steps += 1
        if steps > cap:
            raise EnumerationCapError("too many cover branches", cap)
        for u, v in edges:
            if u not in chosen and v not in chosen:
                rec(chosen | {u})
                rec(chosen | {v})
                return
        covers.add(chosen)
        if len(covers) > cap:
            raise EnumerationCapError("too many covers", cap)

    rec(frozenset())
    return _inclusion_minima(list(covers))


def _group_unions(system: ROutOfKSystem) -> list[frozenset[int]]:
    import itertools

    out = []
    for combo in itertools.combinations(range(len(system.groups)), system.r):
        out.append(frozenset(a for gi in combo for a in system.groups[gi]))
    return out


def restrict(system: SetSystemInstance, surviving: Iterable[int]) -> ExplicitSystem:
    """Explicit system generated by the minimal feasible sets inside `surviving`.

    Agent ids are preserved; the surviving set becomes the ground set.
    Raises `MonopolyError` unless those sets exist and share no agent, that
    is, unless `surviving` minus any one agent is still feasible.
    """
    surviving = frozenset(surviving)
    if not surviving <= system_agents(system):
        raise ValidationError("surviving set lists an agent outside the system")
    if isinstance(system, KPathSystem):
        # The minimal sets inside `surviving` are the minimal flow unions
        # of its subgraph; `kept` maps that subgraph's edge ids back, in
        # increasing order, so the lexicographic order carries over.
        kept = sorted(surviving)
        g = system.graph
        sub = flows.DiGraph(g.n_vertices, tuple(g.edges[e] for e in kept), g.s, g.t)
        inside = [frozenset(kept[i] for i in m)
                  for m in minimal_feasible_sets(KPathSystem(sub, system.k))]
    else:
        inside = [m for m in minimal_feasible_sets(system) if m <= surviving]
    if not inside or frozenset.intersection(*inside):
        raise MonopolyError("restriction is not monopoly-free")
    return ExplicitSystem(n_agents(system), tuple(inside), surviving)
