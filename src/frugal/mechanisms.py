"""Truthful set-system auctions built from pruning, lifting and threshold payments.

The engine prunes agents with a monotone bid-independent rule, scales the
survivors' bids by the Perron weights of their dependency graph, picks
the feasible set with the smallest scaled total, and pays each winner
min(t1, t2): the highest bids with which it still survives pruning and,
pruned set and weights held fixed, still wins selection.  Infinite
thresholds are math.inf, never a large float.

A stage that picks the cheapest member S of a bid-independent family pays
e in S c(A) - c(S - e), A the cheapest member avoiding e, or math.inf if
none does (Archer & Tardos, SODA 2002).  `_cheapest_threshold` finds A by
one re-run with e priced out, `_kpath_outcome` by one residual detour.
  1. bidding beta moves every member with e by the same amount, so the
     cheapest of them stays S, at c(S - e) + beta;
  2. members without e do not move, so the cheapest of them stays A;
  3. so e wins below c(A) - c(S - e) and loses above it.

Every threshold is a closed form, one re-run or one residual detour, never
a bisection: vertex covers re-run branch and bound or read one primal-dual
pass (`vertex_cover_mechanism`), and r-out-of-k pays a closed form.

Every mechanism ends in `_pay`, the single payment path: it picks the
winners to pay, asks the mechanism's own `thresholds(e) -> (t1, t2)` for
each of them, checks payment >= bid and builds the `MechanismOutcome`.
"""

from __future__ import annotations

import functools
import math
import sys
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
# Bids total at most this, so a bid priced out at 1 + 2 * total and every
# sum of a threshold re-run stay finite.
BID_TOTAL_CAP = sys.float_info.max / 4


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
    if sum(bids) > BID_TOTAL_CAP:
        raise ValidationError(f"bids total more than {BID_TOTAL_CAP}")


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
    No mechanism calls it: it serves only as the tests' oracle for the
    closed-form thresholds and as the benchmark harness's probe counter.
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


def _cheapest_threshold(rule: Callable[[dict[int, float]], Iterable[int]],
                        costs: dict[int, float], chosen: frozenset[int], e: int) -> float:
    """Threshold of `e` in `chosen`, the cheapest set `rule` picks under `costs`.

    Priced at 1 + 2 * (sum of all costs), e makes every set that has it
    dearer than every set that lacks it (module docstring)."""
    trial = dict(costs)
    trial[e] = 1.0 + 2.0 * sum(costs.values())
    alt = frozenset(rule(trial))
    if e in alt:
        return math.inf
    return math.fsum([costs[o] for o in alt] + [-costs[o] for o in chosen if o != e])


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

    `pruner(bids)` returns the cheapest member of a bid-independent family
    (as `kpath_pruner`), `selector(restricted, scaled)` the cheapest
    feasible set of `restricted` (as `argmin_selector`).  Then t1 and
    t2 / w_e are one re-run of each with the winner priced out (module
    docstring); `_pay`'s payment >= bid check rejects rules that break
    this.  `payment_agents` limits the threshold computation (the totals
    then cover only those agents).
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

    bid_costs = dict(enumerate(bids))
    select = functools.partial(selector, restricted)

    def thresholds(e: int) -> tuple[float, float]:
        return (_cheapest_threshold(lambda c: pruner(list(c.values())), bid_costs, surviving, e),
                lifted.weights[e] * _cheapest_threshold(select, scaled, winners, e))

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


def _primal_dual_pass(graph: core.UndirectedGraph,
                      scaled: dict[int, float]) -> tuple[frozenset[int], dict[int, float]]:
    """Primal-dual cover and the dual raised on each vertex's edges.

    Each uncovered edge, in order, raises its dual by the smaller residual of
    its endpoints, cutting that one to exactly 0; endpoints at 0 join the cover.
    """
    residual = dict(scaled)
    dual = dict.fromkeys(scaled, 0.0)
    cover: set[int] = set()
    for u, v in graph.edges:
        if u in cover or v in cover:
            continue
        eps = min(residual[u], residual[v])
        for x in (u, v):
            residual[x] -= eps
            dual[x] += eps
            if residual[x] <= 0.0:
                cover.add(x)
    return frozenset(cover), dual


def primal_dual_cover(graph: core.UndirectedGraph, scaled: dict[int, float]) -> frozenset[int]:
    """Classic factor-2 cover: raise each edge's dual until an endpoint is paid for."""
    return _primal_dual_pass(graph, scaled)[0]


def local_optimality_repair(graph: core.UndirectedGraph, scaled: dict[int, float],
                            cover: Iterable[int]) -> frozenset[int]:
    """Swap out any member whose scaled bid exceeds its out-of-cover neighbourhood.

    Each swap strictly lowers the scaled cost, so the loop terminates.  No
    mechanism calls it, as it makes `primal_dual_cover` non-monotone; it
    stays public while the benchmark harness's per-layer metrics name it.
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

    `approx2` buys the factor-2 primal-dual cover (`primal_dual_cover`;
    Calinescu, ISAAC 2004; Elkind, Goldberg & Goldberg, EC 2007).  Let D_v
    be the dual raised on v's edges by one pass with s_v = +inf.  Then v
    wins iff s_v <= D_v, so t2 = w_v * D_v:
      1. until v joins, each of its uncovered edges (u, v) raises its dual
         by u's residual, as with s_v = +inf, and no other step reads s_v;
      2. so v joins at the first of its edges where s_v, less the dual
         raised on its earlier edges, is at most this edge's dual;
      3. that happens at some edge iff s_v <= D_v.
    Each dual on an edge (u, v) is at most what is left of s_u, so
    D_v <= s(N(v)) and each t_v <= w_v * s(N(v)); summing over v in S and
    swapping the sums bounds the total by
    sum over u of s_u * alpha * w_u = alpha * c(V).  The exact-mode bound
    alpha * c(V - S) does not carry over to this cover.
    """
    _check_bids(bids, graph.n_vertices)
    if not graph.edges:
        raise ValidationError("vertex cover auctions need at least one edge")
    if mode not in ("exact", "approx2"):
        raise ValidationError(f"unknown mode {mode!r}")
    if mode == "exact" and graph.n_vertices > EXACT_COVER_CAP:
        raise SizeCapError(
            f"{graph.n_vertices} vertices exceeds the exact-mode cap of {EXACT_COVER_CAP}")
    # A vertex-cover system is its own dependency graph.
    lifted = spectral.lift(dependency.DependencyGraph(
        tuple(range(graph.n_vertices)), frozenset(graph.edges)))
    scaled = {v: bids[v] / lifted.weights[v] for v in range(graph.n_vertices)}

    if mode == "exact":
        winners = _cover_branch_and_bound(graph, scaled)[1]
        cover_cost = sum(scaled[v] for v in winners)

        def thresholds(v: int) -> tuple[float, float]:
            avoid_cost, _ = _cover_branch_and_bound(graph, scaled, exclude=v)
            return math.inf, lifted.weights[v] * (avoid_cost - cover_cost + scaled[v])
    else:
        winners = primal_dual_cover(graph, scaled)

        def thresholds(v: int) -> tuple[float, float]:
            _, dual = _primal_dual_pass(graph, {**scaled, v: math.inf})
            return math.inf, lifted.weights[v] * dual[v]

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
    """Cheapest feasible set wins; each winner is paid by one re-run of
    `argmin_selector` with it priced out (module docstring)."""
    n = core.n_agents(instance)
    _check_bids(bids, n)
    select = functools.partial(argmin_selector, core.restrict(instance, range(n)))
    costs = dict(enumerate(bids))
    winners = select(costs)

    def thresholds(e: int) -> tuple[float, float]:
        return math.inf, _cheapest_threshold(select, costs, winners, e)

    return _pay(range(n), None, winners, bids, payment_agents, thresholds)
