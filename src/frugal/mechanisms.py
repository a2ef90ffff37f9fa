"""Truthful set-system auctions built from pruning, lifting and threshold payments.

The engine prunes agents with a monotone bid-independent rule, scales the
survivors' bids by the Perron weights of their dependency graph, picks
the feasible set with the smallest scaled total, and pays each winner
min(t1, t2): t1 is the highest bid that still survives pruning, t2 the
highest bid that still wins selection with the pruned set and weights
held fixed.  Infinite thresholds are represented by math.inf, never by a
large float.

Every mechanism ends in `_pay`, the single payment path: it picks the
winners to pay, asks the mechanism's own `thresholds(e) -> (t1, t2)` for
each of them, checks payment >= bid and builds the `MechanismOutcome`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from . import core, dependency, flows, spectral
from .errors import (
    MonopolyError,
    MonotonicityError,
    SizeCapError,
    StructureError,
    ValidationError,
)

PAY_TOL = 1e-9
EXACT_COVER_CAP = 30
THRESHOLD_PROBES = 32


@dataclass(frozen=True)
class MechanismOutcome:
    """Winners, per-winner thresholds and payments of one mechanism run."""

    pruned: frozenset[int]
    lift: Optional[spectral.SpectralLift]
    winners: frozenset[int]
    t1: dict[int, float]
    t2: dict[int, float]
    payments: dict[int, float]
    total_payment: float


def _check_bids(bids: Sequence[float], n: int):
    if len(bids) != n:
        raise ValidationError("bid vector length does not match the agent count")
    for e, b in enumerate(bids):
        if b < 0 or not math.isfinite(b):
            raise ValidationError(f"agent {e} has an invalid bid {b}")


def _pay(pruned: Iterable[int], lifted: Optional[spectral.SpectralLift],
         winners: frozenset[int], bids: Sequence[float],
         payment_agents: Optional[Iterable[int]],
         thresholds: Callable[[int], tuple[float, float]]) -> MechanismOutcome:
    """Pay each winner in `payment_agents` (all winners by default) min(t1, t2).

    `thresholds` is called once per paid winner, in increasing id order.
    """
    targets = winners if payment_agents is None else winners & frozenset(payment_agents)
    t1: dict[int, float] = {}
    t2: dict[int, float] = {}
    payments: dict[int, float] = {}
    for e in sorted(targets):
        t1[e], t2[e] = thresholds(e)
        payments[e] = min(t1[e], t2[e])
        if payments[e] < bids[e] - PAY_TOL:
            raise StructureError(
                f"payment {payments[e]} below bid {bids[e]} for winner {e}")
    return MechanismOutcome(
        frozenset(pruned), lifted, frozenset(winners), t1, t2,
        payments, float(sum(payments.values())))


def threshold_bid(win_predicate: Callable[[float], bool], upper: float,
                  tol: float = 1e-9) -> float:
    """Supremum of winning bids in [0, upper] for a monotone predicate.

    Samples THRESHOLD_PROBES points first and rejects predicates that win
    after losing; returns `upper` itself when the agent wins everywhere.
    """
    if upper <= 0:
        raise ValidationError("upper bound for the threshold search must be positive")
    xs = [upper * i / (THRESHOLD_PROBES - 1) for i in range(THRESHOLD_PROBES)]
    vals = [bool(win_predicate(x)) for x in xs]
    for earlier, later in zip(vals, vals[1:]):
        if later and not earlier:
            raise MonotonicityError("win predicate is not monotone on the probe grid")
    if vals[-1]:
        return upper
    if not vals[0]:
        return 0.0
    hi_idx = max(i for i, v in enumerate(vals) if v)
    lo, hi = xs[hi_idx], xs[hi_idx + 1]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if win_predicate(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _threshold_or_inf(win_predicate, upper, tol=1e-9) -> float:
    value = threshold_bid(win_predicate, upper, tol)
    return math.inf if value == upper else value


def _selection_threshold(select: Callable[[dict[int, float]], frozenset[int]],
                         scaled: dict[int, float], e: int, w_e: float, bid: float,
                         tol: float) -> float:
    """Highest bid with which `e` is still selected, the other scaled bids fixed.

    The bisection runs up to max(w_e * (1 + sum of the other scaled bids),
    bid + 1); an agent still selected there gets an infinite threshold.
    """
    upper = w_e * (1.0 + sum(sc for o, sc in scaled.items() if o != e))

    def selected(beta: float) -> bool:
        trial = dict(scaled)
        trial[e] = beta / w_e
        return e in select(trial)

    return _threshold_or_inf(selected, max(upper, bid + 1.0), tol)


# ---------------------------------------------------------------------------
# Generic engine


def _wins_tie(cost: float, cand: Iterable[int], best_cost: float,
              best: Iterable[int], m: int) -> bool:
    # Totals within 1e-12 tie; `flows.tie_key` is only computed then.
    return (abs(cost - best_cost) <= 1e-12
            and flows.tie_key(cand, m) < flows.tie_key(best, m))


def argmin_selector(restricted: core.ExplicitSystem, scaled: dict[int, float]) -> frozenset[int]:
    """Feasible generating set with the smallest scaled total.

    Ties go to the smaller `flows.tie_key`, the rule `flows.min_cost_flow`
    uses, so the generic engine and the k-path mechanism pick the same set.
    """
    best = None
    for cand in restricted.feasible:
        cost = sum(scaled[e] for e in cand)
        if best is None or cost < best[0] - 1e-12 or _wins_tie(
                cost, cand, best[0], best[1], restricted.n_agents):
            best = (cost, cand)
    if best is None:
        raise MonopolyError("restricted system has no feasible set")
    return frozenset(best[1])


def kpath_pruner(g: flows.DiGraph, k: int) -> Callable[[Sequence[float]], frozenset[int]]:
    def prune(bids: Sequence[float]) -> frozenset[int]:
        return flows.cheapest_kplus1_subgraph(g, bids, k).edge_ids

    return prune


def run_pruning_lifting(instance: core.SetSystemInstance, bids: Sequence[float],
                        pruner: Callable[[Sequence[float]], frozenset[int]],
                        selector: Callable[[core.ExplicitSystem, dict[int, float]], frozenset[int]],
                        payment_agents: Optional[Iterable[int]] = None) -> MechanismOutcome:
    """Run the full scheme with caller-supplied pruning and selection rules.

    Thresholds are found by bisection against the two stages, so any
    monotone bid-independent pruner works.  `payment_agents` limits the
    threshold computation (the totals then cover only those agents).
    """
    n = core.n_agents(instance)
    _check_bids(bids, n)
    surviving = frozenset(pruner(bids))
    restricted = core.restrict(instance, surviving)
    h = dependency.build_dependency(restricted)
    lifted = spectral.lift(h)
    scaled = {e: bids[e] / lifted.weights[e] for e in surviving}
    winners = frozenset(selector(restricted, scaled))
    if not core.is_feasible(instance, winners) or not winners <= surviving:
        raise StructureError("selector returned a non-feasible winner set")

    upper_prune = 1.0 + 2.0 * float(sum(bids))

    def thresholds(e: int) -> tuple[float, float]:
        def survives(beta: float) -> bool:
            trial = list(bids)
            trial[e] = beta
            return e in pruner(trial)

        return (_threshold_or_inf(survives, upper_prune),
                _selection_threshold(lambda sc: selector(restricted, sc), scaled,
                                     e, lifted.weights[e], bids[e], 1e-9))

    return _pay(surviving, lifted, winners, bids, payment_agents, thresholds)


# ---------------------------------------------------------------------------
# k-path instantiation


def _kpath_outcome(g: flows.DiGraph, bids: Sequence[float], k: int,
                   gstar: flows.IntegralFlow, lifted: spectral.SpectralLift,
                   payment_agents: Optional[Iterable[int]]) -> MechanismOutcome:
    """Buy the cheapest scaled k-flow inside the pruned (k+1)-flow `gstar`.

    Both thresholds are one residual shortest path each
    (`flows.residual_detour`), over one `flows.residual_graph` built per
    flow.  For a winner e = (u, v) carried by a cheapest flow f, the
    cheapest flow of the same size avoiding e costs c(f) - c_e + d(u -> v),
    with d the shortest distance in f's residual graph without e's two
    arcs:
      1. any such flow differs from f - e by one u -> v path plus cycles,
         all made of residual arcs of f;
      2. f is cheapest, so those cycles cost at least 0;
      3. f - e plus a shortest u -> v path is such a flow.
    So t1 = d(u -> v) under the bids in residual(G*) over all edges, math.inf
    when v is unreachable (no (k+1)-flow avoids e), and
    t2 = w_e * d(u -> v) under the scaled bids in residual(winner flow)
    within G*.
    """
    scaled = [0.0] * g.n_edges
    for e in gstar.edge_ids:
        scaled[e] = bids[e] / lifted.weights[e]
    winner_flow = flows.min_cost_flow(g, scaled, k, allowed=gstar.edge_ids)
    pruned = flows.residual_graph(g, bids, gstar.edge_ids)
    winning = flows.residual_graph(g, scaled, winner_flow.edge_ids, gstar.edge_ids)

    def thresholds(e: int) -> tuple[float, float]:
        return (flows.residual_detour(pruned, e),
                lifted.weights[e] * flows.residual_detour(winning, e))

    return _pay(gstar.edge_ids, lifted, winner_flow.edge_ids, bids, payment_agents, thresholds)


def kpath_mechanism(g: flows.DiGraph, bids: Sequence[float], k: int,
                    payment_agents: Optional[Iterable[int]] = None) -> MechanismOutcome:
    """Prune to the cheapest (k+1)-flow, lift, and buy the cheapest scaled k-flow."""
    core.KPathSystem(g, k)  # rejects k < 1
    _check_bids(bids, g.n_edges)
    gstar = flows.cheapest_kplus1_subgraph(g, bids, k)
    lifted = spectral.lift(dependency.build_dependency_kpath(g, gstar, k))
    return _kpath_outcome(g, bids, k, gstar, lifted, payment_agents)


# ---------------------------------------------------------------------------
# Vertex cover instantiation


def _cover_branch_and_bound(graph: core.UndirectedGraph, scaled: dict[int, float],
                            exclude: Optional[int] = None) -> tuple[float, frozenset[int]]:
    """Minimum scaled-cost vertex cover; ties go to the smaller `flows.tie_key`."""
    edges = graph.edges
    best: list = [math.inf, None]

    def rec(idx: int, chosen: set[int], cost: float):
        if cost > best[0] + 1e-12:
            return
        while idx < len(edges):
            u, v = edges[idx]
            if u in chosen or v in chosen:
                idx += 1
                continue
            if u != exclude:
                rec(idx + 1, chosen | {u}, cost + scaled[u])
            if v != exclude:
                rec(idx + 1, chosen | {v}, cost + scaled[v])
            return
        if best[1] is None or cost < best[0] - 1e-12 or _wins_tie(
                cost, chosen, best[0], best[1], graph.n_vertices):
            best[0] = cost
            best[1] = frozenset(chosen)

    rec(0, set(), 0.0)
    if best[1] is None:
        raise MonopolyError("no vertex cover avoids the excluded vertex")
    return best[0], best[1]


def primal_dual_cover(graph: core.UndirectedGraph, scaled: dict[int, float]) -> frozenset[int]:
    """Classic factor-2 cover: raise each edge's dual until an endpoint is paid for."""
    residual = dict(scaled)
    cover: set[int] = set()
    for u, v in graph.edges:
        if u in cover or v in cover:
            continue
        eps = min(residual[u], residual[v])
        residual[u] -= eps
        residual[v] -= eps
        if residual[u] <= 1e-12:
            cover.add(u)
        if residual[v] <= 1e-12:
            cover.add(v)
    return frozenset(cover)


def local_optimality_repair(graph: core.UndirectedGraph, scaled: dict[int, float],
                            cover: Iterable[int]) -> frozenset[int]:
    """Swap out any member whose scaled bid exceeds its out-of-cover neighbourhood.

    Each swap strictly lowers the scaled cost, so the loop terminates.
    """
    cover = set(cover)
    for u, v in graph.edges:
        if u not in cover and v not in cover:
            raise ValidationError("input is not a vertex cover")
    adj = graph.adjacency()
    changed = True
    while changed:
        changed = False
        for v in sorted(cover):
            outside = [u for u in adj[v] if u not in cover]
            if scaled[v] > sum(scaled[u] for u in outside) + 1e-12:
                cover.remove(v)
                cover.update(outside)
                changed = True
                break
    return frozenset(cover)


def vertex_cover_mechanism(graph: core.UndirectedGraph, bids: Sequence[float],
                           mode: str = "exact",
                           payment_agents: Optional[Iterable[int]] = None) -> MechanismOutcome:
    """Buy a vertex cover; no pruning is possible, so t1 is infinite.

    Write s_u = b_u / w_u for the scaled bids, S for the winning cover and
    N(v) for the neighbours of v.  The lift is the Perron vector of the
    graph itself, so sum over v in N(u) of w_v <= alpha * w_u.

    `exact` selects the scaled-cost optimum by branch and bound, with ties
    going to the smaller `flows.tie_key`.  Its total payment is at most
    alpha * c(V - S):
      1. (S - {v}) + (N(v) - S) is a cover avoiding v, so the cheapest such
         cover costs at most s(S) - s_v + s(N(v) - S);
      2. hence t_v = w_v * (avoid_cost - s(S) + s_v) <= w_v * s(N(v) - S);
      3. summing over v in S and swapping the sums gives at most
         sum over u outside S of s_u * alpha * w_u = alpha * c(V - S).

    `approx2` runs the factor-2 primal-dual cover, then local-optimality
    repair, and finds each threshold by bisection.  On some graphs the pair
    is not monotone in a winner's bid; `threshold_bid` then raises
    `MonotonicityError`.  The rest of the cover may change while v raises
    its bid, so only weaker bounds hold: each t_v <= w_v * s(N(v)), and
    the total is at most alpha * c(V):
      1. every cover the repair returns is locally optimal, so at any
         winning bid beta, beta / w_v <= s(N(v) - S_beta) <= s(N(v));
      2. the other scaled bids do not move, so t_v <= w_v * s(N(v));
      3. summing over v in S and swapping the sums gives at most
         sum over u of s_u * alpha * w_u = alpha * c(V).
    """
    _check_bids(bids, graph.n_vertices)
    if not graph.edges:
        raise ValidationError("vertex cover auctions need at least one edge")
    if mode not in ("exact", "approx2"):
        raise ValidationError(f"unknown mode {mode!r}")
    if mode == "exact" and graph.n_vertices > EXACT_COVER_CAP:
        raise SizeCapError(
            f"{graph.n_vertices} vertices exceeds the exact-mode cap of {EXACT_COVER_CAP}")
    h = dependency.build_dependency(core.VertexCoverSystem(graph))
    lifted = spectral.lift(h)
    scaled = {v: bids[v] / lifted.weights[v] for v in range(graph.n_vertices)}

    def select(sc: dict[int, float]) -> frozenset[int]:
        if mode == "exact":
            return _cover_branch_and_bound(graph, sc)[1]
        return local_optimality_repair(graph, sc, primal_dual_cover(graph, sc))

    winners = select(scaled)
    cover_cost = sum(scaled[v] for v in winners)

    def thresholds(v: int) -> tuple[float, float]:
        w_v = lifted.weights[v]
        if mode == "exact":
            avoid_cost, _ = _cover_branch_and_bound(graph, scaled, exclude=v)
            return math.inf, w_v * (avoid_cost - cover_cost + scaled[v])
        return math.inf, _selection_threshold(select, scaled, v, w_v, bids[v], 1e-10)

    return _pay(range(graph.n_vertices), lifted, winners, bids, payment_agents, thresholds)


# ---------------------------------------------------------------------------
# r-out-of-k instantiation


def r_out_of_k_mechanism(system: core.ROutOfKSystem, bids: Sequence[float],
                         payment_agents: Optional[Iterable[int]] = None) -> MechanismOutcome:
    """Keep the r+1 cheapest groups, lift by the group-balance weights,
    then drop the group with the highest scaled total."""
    groups = system.groups
    r = system.r
    k = len(groups)
    if k < r + 1:
        raise ValidationError(f"need at least {r + 1} groups, got {k}")
    _check_bids(bids, core.n_agents(system))
    group_bid = [sum(bids[a] for a in grp) for grp in groups]
    order = sorted(range(k), key=lambda i: (group_bid[i], i))
    kept = order[: r + 1]
    boundary = order[r + 1] if k > r + 1 else None

    h = dependency.multipartite_dependency([groups[i] for i in kept])
    lifted = spectral.lift(h)
    x = {i: lifted.weights[groups[i][0]] for i in kept}
    scaled_group = {i: group_bid[i] / x[i] for i in kept}
    discard = max(kept, key=lambda i: (scaled_group[i], i))
    winner_groups = [i for i in kept if i != discard]
    winners = frozenset(a for i in winner_groups for a in groups[i])

    def thresholds(e: int) -> tuple[float, float]:
        gi = next(i for i in winner_groups if e in groups[i])
        rest = group_bid[gi] - bids[e]
        rival = max(scaled_group[j] for j in kept if j != gi)
        t1 = math.inf if boundary is None else group_bid[boundary] - rest
        return t1, x[gi] * rival - rest

    return _pay(h.nodes, lifted, winners, bids, payment_agents, thresholds)


# ---------------------------------------------------------------------------
# Square-root reference for single paths


def sqrt_mechanism(g: flows.DiGraph, bids: Sequence[float],
                   payment_agents: Optional[Iterable[int]] = None) -> MechanismOutcome:
    """Single-path auction with explicit per-segment square-root weights.

    Exists as an independent cross-check of the k=1 path mechanism; the
    weights keep the classic 1/sqrt(segment length) scaling instead of
    max-normalization, which leaves winners and payments unchanged.
    """
    _check_bids(bids, g.n_edges)
    gstar = flows.cheapest_kplus1_subgraph(g, bids, 1)
    dec = flows.articulation_decomposition(g, gstar)
    path_a, path_b = flows.flow_paths(g, gstar)
    weights = {}
    alphas = []
    for part in dec.parts:
        side_a = part & frozenset(path_a)
        side_b = part & frozenset(path_b)
        if not side_a or not side_b:
            raise StructureError("each segment must contain edges of both paths")
        for e in side_a:
            weights[e] = 1.0 / math.sqrt(len(side_a))
        for e in side_b:
            weights[e] = 1.0 / math.sqrt(len(side_b))
        alphas.append(math.sqrt(len(side_a) * len(side_b)))
    lifted = spectral.SpectralLift(max(alphas), weights, tuple(alphas), 0.0)
    return _kpath_outcome(g, bids, 1, gstar, lifted, payment_agents)


# ---------------------------------------------------------------------------
# VCG baseline


def vcg(instance: core.SetSystemInstance, bids: Sequence[float],
        payment_agents: Optional[Iterable[int]] = None) -> MechanismOutcome:
    """Cheapest feasible set wins; winners get their threshold bids."""
    n = core.n_agents(instance)
    _check_bids(bids, n)
    minimal = core.minimal_feasible_sets(instance)
    if not minimal:
        raise MonopolyError("instance has no feasible set")
    if frozenset.intersection(*minimal):
        raise MonopolyError("instance is not monopoly-free")
    winners = argmin_selector(core.ExplicitSystem(n, tuple(minimal)), dict(enumerate(bids)))
    cost = sum(bids[e] for e in winners)

    def thresholds(e: int) -> tuple[float, float]:
        alt = min(sum(bids[o] for o in cand) for cand in minimal if e not in cand)
        return math.inf, alt - (cost - bids[e])

    return _pay(range(n), None, winners, bids, payment_agents, thresholds)
