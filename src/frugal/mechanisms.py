"""Truthful set-system auctions built from pruning, lifting and threshold payments.

The engine prunes agents with a monotone bid-independent rule, scales the
survivors' bids by the Perron weights of their dependency graph, picks
the feasible set with the smallest scaled total, and pays each winner
min(t1, t2): the highest bids with which it still survives pruning and,
pruned set and weights held fixed, still wins selection.  Infinite
thresholds are math.inf, never a large float.

Every selector ranks sets by their summed `flows.exact_weights`: exact
cost, then the smallest differing id.  None uses a tolerance, so each
stage buys the same set at any bid magnitude.

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
each of them, checks payment >= bid - PAY_TOL * (total bid) and builds
the `MechanismOutcome`.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

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
    """Winners, per-winner thresholds and payments of one mechanism run.

    Each value and set is stored once (`_pay`), so that callers can keep
    many outcomes: several fields are read-only views.  `payments`
    computes min(t1, t2), `winners` is the key set of the payments and
    `pruned` that of the lift's weights.  An r-out-of-k outcome also
    computes t1 and t2 from its group totals and holds no per-agent value,
    so its size does not grow with the groups.
    """

    pruned: AbstractSet[int]
    lift: Optional[spectral.SpectralLift]
    winners: AbstractSet[int]
    t1: Mapping[int, float]
    t2: Mapping[int, float]
    payments: Mapping[int, float]
    total_payment: float


def _check_bids(bids: Sequence[float], n: int):
    if len(bids) != n:
        raise ValidationError("bid vector length does not match the agent count")
    for e, b in enumerate(bids):
        if b < 0 or not math.isfinite(b):
            raise ValidationError(f"agent {e} has an invalid bid {b}")
    if sum(bids) > BID_TOTAL_CAP:
        raise ValidationError(f"bids total more than {BID_TOTAL_CAP}")


class _Recomputed(Mapping[int, float]):
    """t1 (`pick` 0) or t2 (`pick` 1) of each agent of `targets`, read from
    `thresholds` on each access."""

    __slots__ = ("targets", "thresholds", "pick")

    def __init__(self, targets: AbstractSet[int],
                 thresholds: Callable[[int], tuple[float, float]], pick: int):
        self.targets = targets
        self.thresholds = thresholds
        self.pick = pick

    def __getitem__(self, e: int) -> float:
        if e not in self.targets:
            raise KeyError(e)
        return self.thresholds(e)[self.pick]

    def __contains__(self, e) -> bool:
        return e in self.targets

    def __iter__(self):
        return iter(sorted(self.targets))

    def __len__(self) -> int:
        return len(self.targets)

    def keys(self) -> AbstractSet[int]:
        return self.targets


class _Payments(Mapping[int, float]):
    """min(t1[e], t2[e]) for each agent e of `t1`, computed on each access."""

    __slots__ = ("t1", "t2")

    def __init__(self, t1: Mapping[int, float], t2: Mapping[int, float]):
        self.t1 = t1
        self.t2 = t2

    def __getitem__(self, e: int) -> float:
        return min(self.t1[e], self.t2[e])

    def __contains__(self, e) -> bool:
        return e in self.t1

    def __iter__(self):
        return iter(self.t1)

    def __len__(self) -> int:
        return len(self.t1)

    def keys(self) -> AbstractSet[int]:
        return self.t1.keys()


def _pay(lifted: Optional[spectral.SpectralLift], winners: AbstractSet[int],
         bids: Sequence[float], payment_agents: Optional[Iterable[int]],
         thresholds: Callable[[int], tuple[float, float]],
         recompute: bool = False) -> MechanismOutcome:
    """Pay each winner in `payment_agents` (all winners by default) min(t1, t2).

    `thresholds` is called once per paid winner, in increasing id order.
    The outcome stores each value and set once: payments is the view
    min(t1, t2), `pruned` the key set of the lift's weights (every agent
    when there is no lift, as in VCG) and `winners`, when all of them are
    paid, that of the payments.  With `recompute`, t1 and t2 are
    `_Recomputed` maps that call `thresholds` again on each access instead
    of storing a value per winner.
    """
    targets = winners if payment_agents is None else winners & frozenset(payment_agents)
    found = {e: thresholds(e) for e in sorted(targets)}
    slack = PAY_TOL * sum(bids)
    for e, (t1, t2) in found.items():
        if min(t1, t2) < bids[e] - slack:
            raise StructureError(
                f"payment {min(t1, t2)} below bid {bids[e]} for winner {e}")
    total = float(sum(min(t1, t2) for t1, t2 in found.values()))
    if recompute:
        first, second = _Recomputed(targets, thresholds, 0), _Recomputed(targets, thresholds, 1)
    else:
        first = {e: t[0] for e, t in found.items()}
        second = {e: t[1] for e, t in found.items()}
    payments = _Payments(first, second)
    pruned = frozenset(range(len(bids))) if lifted is None else lifted.weights.keys()
    paid = payments.keys() if payment_agents is None else frozenset(winners)
    return MechanismOutcome(pruned, lifted, paid, first, second, payments, total)


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
    return math.inf if e in alt else _avoid_gap(costs, alt, chosen, e)


def _avoid_gap(costs: Mapping[int, float], alt: Iterable[int], chosen: Iterable[int],
               e: int) -> float:
    """c(alt) - c(chosen - e), correctly rounded."""
    return math.fsum([costs[o] for o in alt] + [-costs[o] for o in chosen if o != e])


# ---------------------------------------------------------------------------
# Generic engine


def argmin_selector(restricted: core.ExplicitSystem, scaled: dict[int, float]) -> frozenset[int]:
    """Feasible generating set of smallest summed `flows.exact_weights`: exact
    scaled cost, then the smallest differing id, with no tolerance.  It is
    `flows.min_cost_flow`'s rule, so the generic engine buys what
    `kpath_mechanism` buys at any bid magnitude."""
    weight = dict(zip(scaled, flows.exact_weights(scaled.values(), scaled, restricted.n_agents)))
    return min(restricted.feasible, key=lambda cand: sum(weight[e] for e in cand))


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

    return _pay(lifted, winners, bids, payment_agents, thresholds)


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

    return _pay(lifted, winner_flow.edge_ids, bids, payment_agents, thresholds)


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
                            exclude: Optional[int] = None) -> frozenset[int]:
    """Vertex cover without `exclude` of smallest summed `flows.exact_weights`
    (exact scaled cost, then the smallest differing vertex; no tolerance).
    Weights are positive, so a branch is cut once it reaches the best cover."""
    weight = dict(zip(scaled, flows.exact_weights(scaled.values(), scaled, graph.n_vertices)))
    edges = graph.edges
    best: list = [math.inf, None]

    def rec(idx: int, chosen: set[int], cost: int):
        if cost >= best[0]:
            return
        while idx < len(edges):
            u, v = edges[idx]
            if u in chosen or v in chosen:
                idx += 1
                continue
            if u != exclude:
                rec(idx + 1, chosen | {u}, cost + weight[u])
            if v != exclude:
                rec(idx + 1, chosen | {v}, cost + weight[v])
            return
        best[0], best[1] = cost, frozenset(chosen)

    rec(0, set(), 0)
    if best[1] is None:
        raise MonopolyError("no vertex cover avoids the excluded vertex")
    return best[1]


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

    `exact` buys, by branch and bound, the cover of smallest summed
    `flows.exact_weights`: exact scaled cost, then the smallest differing
    vertex, with no tolerance.  Winner v is paid w_v * (s(A) - s(S - v)),
    A the cheapest cover avoiding v.  The total is at most alpha * c(V - S):
      1. (S - {v}) + (N(v) - S) is a cover avoiding v, so
         s(A) <= s(S) - s_v + s(N(v) - S);
      2. hence t_v <= w_v * s(N(v) - S);
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
        winners = _cover_branch_and_bound(graph, scaled)

        def thresholds(v: int) -> tuple[float, float]:
            avoid = _cover_branch_and_bound(graph, scaled, exclude=v)
            return math.inf, lifted.weights[v] * _avoid_gap(scaled, avoid, winners, v)
    else:
        winners = primal_dual_cover(graph, scaled)

        def thresholds(v: int) -> tuple[float, float]:
            _, dual = _primal_dual_pass(graph, {**scaled, v: math.inf})
            return math.inf, lifted.weights[v] * dual[v]

    return _pay(lifted, winners, bids, payment_agents, thresholds)


# ---------------------------------------------------------------------------
# r-out-of-k instantiation


def r_out_of_k_mechanism(system: core.ROutOfKSystem, bids: Sequence[float],
                         payment_agents: Optional[Iterable[int]] = None) -> MechanismOutcome:
    """Keep the r+1 cheapest groups, lift by the group-balance weights,
    then drop the group with the highest scaled total.

    The pruned dependency graph is complete (r+1)-partite on the kept
    groups, so its Perron vector is constant on each group, and with
    g_i = |group i| (`spectral.multipartite_lift`):
      1. alpha x_i = sum over j != i of g_j x_j = S - g_i x_i, S = sum g_j x_j;
      2. so x_i = S / (alpha + g_i);
      3. multiplying by g_i and summing over i, alpha is the root of
         f(alpha) = sum g_i / (alpha + g_i) - 1.
    f is decreasing and convex on alpha >= 0, with f(0) = r > 0, so Newton's
    method from alpha = 0 climbs monotonically to the root: left of the
    root f > 0 > f', so each step goes forward, and the tangent lies below
    the convex f, so f >= 0 where it meets zero and the next iterate is
    still left of the root.  In floats it stops at the first step that
    does not increase alpha; no tolerance or round cap is needed.

    Winner e of group i pays min(t1, t2), with c_i the bids of group i
    less e's: t1 = c(boundary group) - c_i, the bid at which group i
    falls behind the cheapest pruned group (math.inf when no group is
    pruned), and t2 = x_i * (largest scaled total of the other kept
    groups) - c_i, the bid at which group i is the one discarded.  That
    largest total is the discarded group's, the same for every winner.
    """
    groups = system.groups
    r = system.r
    k = len(groups)
    if k < r + 1:
        raise ValidationError(f"need at least {r + 1} groups, got {k}")
    _check_bids(bids, core.n_agents(system))
    group_bid = [math.fsum(bids[a] for a in grp) for grp in groups]
    order = sorted(range(k), key=lambda i: (group_bid[i], i))
    kept = order[: r + 1]
    boundary = order[r + 1] if k > r + 1 else None

    lifted = spectral.multipartite_lift(system, kept)
    x = lifted.weights.by_group
    discard = max(kept, key=lambda i: (group_bid[i] / x[i], i))
    winners = core.GroupMembers(system, [i for i in kept if i != discard])
    thresholds = _GroupThresholds(system.group_of, tuple(bids), group_bid, boundary, x,
                                  group_bid[discard] / x[discard])
    return _pay(lifted, winners, bids, payment_agents, thresholds, recompute=True)


class _GroupThresholds:
    """(t1, t2) of a winner of `r_out_of_k_mechanism`, from the group totals.

    `rival` is the discarded group's scaled total; the outcome's maps call
    this on each access, so it holds a copy of the bids.
    """

    __slots__ = ("group_of", "bids", "group_bid", "boundary", "x", "rival")

    def __init__(self, group_of: Sequence[int], bids: tuple[float, ...],
                 group_bid: list[float], boundary: Optional[int],
                 x: list[Optional[float]], rival: float):
        self.group_of, self.bids, self.group_bid = group_of, bids, group_bid
        self.boundary, self.x, self.rival = boundary, x, rival

    def __call__(self, e: int) -> tuple[float, float]:
        gi = self.group_of[e]
        rest = self.group_bid[gi] - self.bids[e]
        t1 = math.inf if self.boundary is None else self.group_bid[self.boundary] - rest
        return t1, self.x[gi] * self.rival - rest


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

    return _pay(None, winners, bids, payment_agents, thresholds)
