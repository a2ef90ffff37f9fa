"""Seeded instance generators and the benchmark's four workloads.

A workload turns a seed into a list of auctions before any timing starts.
Every auction calls one public mechanism of `frugal.mechanisms`, looked up
on the module at call time, so the traced run's patched attributes are the
ones that run.  Instance shapes cycle through a fixed schedule per
workload; the seed only draws the graph structure, the order of the
groups and the bids.  That keeps the size mix, and so the latency percentiles,
comparable across seeds.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable

from frugal import core, flows, mechanisms, spectral

# Probability of each diagonal edge between consecutive grid layers.
GRID_DIAGONAL_P = 0.3
# Mean degree of the G(n, p) graphs of `vcover-gnp`.
GNP_MEAN_DEGREE = 3.0
# Auctions generated per seed, more than the fastest workload attempts in
# 45 s, so a run's samples are distinct instances.
POOL_SIZE = 5000

# (layers, width, k) of the layered grids, cycled in this order.  Each
# shape's times form their own cluster; with an odd number of shapes the
# median falls inside the middle cluster, not in the gap between two.
KPATH_GRID_SHAPES = ((10, 3, 1), (8, 4, 2), (11, 4, 2), (6, 5, 3), (8, 5, 3))
# Grids of more than 53 edges, where the float tie-break key of
# `flows.min_cost_flow` can no longer separate every edge set.
KPATH_TIES_SHAPES = ((14, 4, 1), (18, 4, 1), (10, 5, 2), (12, 5, 2), (8, 6, 3))
# (mode, vertices); `exact` stays well under mechanisms.EXACT_COVER_CAP.
VCOVER_SHAPES = (("approx2", 24), ("approx2", 30), ("exact", 16), ("approx2", 36),
                 ("approx2", 27), ("exact", 20), ("approx2", 33), ("approx2", 40))
# ("groups", group sizes, r) for r_out_of_k_mechanism and ("generic", layers,
# width, k) for run_pruning_lifting on small k-path systems.  The group sizes
# are fixed, so the lifted multipartite graph, which sets the memory peak,
# varies with the seed only through the choice of kept groups.
GROUPS_GENERIC_SHAPES = (
    ("groups", (4, 5, 6, 5), 1),
    ("groups", (6, 8, 10, 9, 12), 2),
    ("generic", 4, 3, 1),
    ("groups", (8, 10, 12, 11, 14, 15), 2),
    ("groups", (12, 14, 16, 17, 19, 22), 3),
    ("groups", (5, 6, 7, 8, 9, 10, 7, 8), 3),
    ("generic", 3, 4, 2),
    ("groups", (9, 10, 11, 12, 13, 14, 16), 2),
)


@dataclass(frozen=True)
class Auction:
    """One mechanism call: its inputs and the set system its winners must cover."""

    kind: str
    system: core.SetSystemInstance
    bids: tuple[float, ...]
    call: Callable[[], mechanisms.MechanismOutcome] = field(compare=False, repr=False)


def layered_grid(rng: random.Random, layers: int, width: int,
                 p_diag: float = GRID_DIAGONAL_P) -> flows.DiGraph:
    """Source, `layers` rows of `width` vertices, sink.

    The source feeds the first row and the last row feeds the sink.  Each
    vertex has a straight edge to the next row and, with probability
    `p_diag` each, diagonal edges to its two neighbours there, so the
    grid always carries `width` edge-disjoint s-t paths.
    """
    s, t = 0, 1 + layers * width

    def vid(row: int, col: int) -> int:
        return 1 + row * width + col

    edges = [(s, vid(0, col)) for col in range(width)]
    for row in range(layers - 1):
        for col in range(width):
            edges.append((vid(row, col), vid(row + 1, col)))
            for nxt in (col - 1, col + 1):
                if 0 <= nxt < width and rng.random() < p_diag:
                    edges.append((vid(row, col), vid(row + 1, nxt)))
    edges.extend((vid(layers - 1, col), t) for col in range(width))
    return flows.DiGraph(t + 1, tuple(edges), s, t)


def gnp_graph(rng: random.Random, n: int, mean_degree: float = GNP_MEAN_DEGREE) -> core.UndirectedGraph:
    """G(n, p) with p = mean_degree / (n - 1), conditioned on its expected
    edge count round(n * mean_degree / 2), and made connected.

    Each component after the first is joined to the one before it by one
    random edge.  So the dependency graph that gets lifted always has all
    n vertices and about the same number of edges, and the memory peak of
    an instance shape does not vary with the seed.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = rng.sample(pairs, round(n * mean_degree / 2))
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen: set[int] = set()
    comps = []
    for root in range(n):
        if root in seen:
            continue
        comp, frontier = [root], [root]
        seen.add(root)
        while frontier:
            for w in adj[frontier.pop()]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    frontier.append(w)
        comps.append(comp)
    for prev, comp in zip(comps, comps[1:]):
        a, b = rng.choice(prev), rng.choice(comp)
        edges.append((min(a, b), max(a, b)))
    return core.UndirectedGraph(n, tuple(sorted(edges)))


def unequal_groups(rng: random.Random, sizes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Groups of the given sizes over agent ids 0..sum(sizes)-1, in a seeded order."""
    order = list(sizes)
    rng.shuffle(order)
    bounds = [0]
    for size in order:
        bounds.append(bounds[-1] + size)
    return tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:]))


def continuous_bids(rng: random.Random, n: int) -> tuple[float, ...]:
    return tuple(rng.uniform(1.0, 10.0) for _ in range(n))


def tied_bids(rng: random.Random, n: int) -> tuple[float, ...]:
    return tuple(float(rng.randint(1, 4)) for _ in range(n))


def _kpath(g: flows.DiGraph, k: int, bids: tuple[float, ...]) -> Auction:
    return Auction("kpath", core.KPathSystem(g, k), bids,
                   lambda: mechanisms.kpath_mechanism(g, bids, k))


def _vcover(g: core.UndirectedGraph, mode: str, bids: tuple[float, ...]) -> Auction:
    return Auction(f"vcover-{mode}", core.VertexCoverSystem(g), bids,
                   lambda: mechanisms.vertex_cover_mechanism(g, bids, mode))


def _groups(system: core.ROutOfKSystem, bids: tuple[float, ...]) -> Auction:
    return Auction("groups", system, bids, lambda: mechanisms.r_out_of_k_mechanism(system, bids))


def _generic_kpath(g: flows.DiGraph, k: int, bids: tuple[float, ...]) -> Auction:
    system = core.KPathSystem(g, k)
    return Auction("generic-kpath", system, bids,
                   lambda: mechanisms.run_pruning_lifting(
                       system, bids, mechanisms.kpath_pruner(g, k), mechanisms.argmin_selector))


def _kpath_grid(rng: random.Random, i: int) -> Auction:
    layers, width, k = KPATH_GRID_SHAPES[i % len(KPATH_GRID_SHAPES)]
    g = layered_grid(rng, layers, width)
    return _kpath(g, k, continuous_bids(rng, g.n_edges))


def _kpath_ties(rng: random.Random, i: int) -> Auction:
    layers, width, k = KPATH_TIES_SHAPES[i % len(KPATH_TIES_SHAPES)]
    g = layered_grid(rng, layers, width)
    return _kpath(g, k, tied_bids(rng, g.n_edges))


def _vcover_gnp(rng: random.Random, i: int) -> Auction:
    mode, n = VCOVER_SHAPES[i % len(VCOVER_SHAPES)]
    return _vcover(gnp_graph(rng, n), mode, continuous_bids(rng, n))


def _groups_generic(rng: random.Random, i: int) -> Auction:
    kind, *shape = GROUPS_GENERIC_SHAPES[i % len(GROUPS_GENERIC_SHAPES)]
    if kind == "groups":
        sizes, r = shape
        system = core.ROutOfKSystem(unequal_groups(rng, sizes), r)
        return _groups(system, continuous_bids(rng, sum(sizes)))
    layers, width, k = shape
    g = layered_grid(rng, layers, width)
    return _generic_kpath(g, k, continuous_bids(rng, g.n_edges))


WORKLOADS: dict[str, Callable[[random.Random, int], Auction]] = {
    "kpath-grid": _kpath_grid,
    "kpath-ties": _kpath_ties,
    "vcover-gnp": _vcover_gnp,
    "groups-generic": _groups_generic,
}


def build(workload: str, seed: int, size: int = POOL_SIZE) -> list[Auction]:
    """The workload's first `size` auctions for `seed`; equal seeds give equal lists."""
    make = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return [make(rng, i) for i in range(size)]


def check(auction: Auction, out: mechanisms.MechanismOutcome) -> str | None:
    """Why `out` is not a valid outcome of `auction`, or None when it is."""
    if not core.is_feasible(auction.system, out.winners):
        return "winners are not feasible"
    if not out.winners <= out.pruned:
        return "a winner was pruned"
    if set(out.payments) != set(out.winners):
        return "payments do not cover exactly the winners"
    for e, pay in out.payments.items():
        if pay < auction.bids[e] - mechanisms.PAY_TOL:
            return f"winner {e} is paid {pay} below its bid {auction.bids[e]}"
    if out.lift is not None and out.lift.residual > spectral.PUBLIC_TOL:
        return f"eigen residual {out.lift.residual} exceeds {spectral.PUBLIC_TOL}"
    return None


def digest(outcomes: list[mechanisms.MechanismOutcome | None]) -> str:
    """Short hash of winners and payments rounded to 1e-6; None marks a failed auction."""
    h = hashlib.sha256()
    for out in outcomes:
        if out is None:
            h.update(b"failed;")
            continue
        pays = ",".join(f"{e}:{round(out.payments[e], 6)!r}" for e in sorted(out.payments))
        h.update(f"{sorted(out.winners)}|{pays};".encode())
    return h.hexdigest()[:16]
