"""Principal eigenpairs of dependency-graph components and the lifting weights.

r-out-of-k weights come from the (r+1)x(r+1) quotient of the complete
multipartite dependency graph (`multipartite_lift`), with no graph built.
Every other lift (k-paths, vertex covers, the generic engine) runs power
iteration on each component of an explicit `DependencyGraph` (`lift`).

Power iteration runs on A + I so bipartite components cannot oscillate
with period two; the reported eigenvalue subtracts the shift.  Weights
are normalized to maximum 1 within each component, which leaves the
downstream winner selection unchanged because feasible choices decompose
across components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from . import core
from .dependency import DependencyGraph, components
from .errors import ConvergenceError, ValidationError

INTERNAL_TOL = 1e-12
PUBLIC_TOL = 1e-9
MAX_ITERATIONS = 1_000_000


@dataclass(frozen=True)
class SpectralLift:
    """Per-agent positive weights with the per-component principal eigenvalues."""

    alpha: float
    weights: Mapping[int, float]
    component_alphas: tuple[float, ...]
    residual: float


def principal_eigen(nodes: Sequence[int], edges: set[tuple[int, int]] | frozenset):
    """Perron pair (largest eigenvalue, positive max-normalized eigenvector).

    The component must be connected; a single node yields (0, [1]).
    """
    nodes = sorted(nodes)
    n = len(nodes)
    if n == 0:
        raise ValidationError("component must have at least one node")
    if n == 1:
        return 0.0, {nodes[0]: 1.0}
    index = {v: i for i, v in enumerate(nodes)}
    a = np.zeros((n, n))
    for u, v in edges:
        a[index[u], index[v]] = 1.0
        a[index[v], index[u]] = 1.0
    shifted = a + np.eye(n)
    w = np.ones(n)
    alpha = 0.0
    for _ in range(MAX_ITERATIONS):
        nxt = shifted @ w
        norm = np.max(np.abs(nxt))
        if norm == 0.0:
            raise ConvergenceError("iteration collapsed to zero")
        nxt /= norm
        alpha = float(w @ (a @ w) / (w @ w))
        residual = float(np.max(np.abs(a @ nxt - alpha * nxt)))
        w = nxt
        if residual <= INTERNAL_TOL * max(1.0, alpha):
            break
    else:
        raise ConvergenceError(
            f"power iteration missed tolerance after {MAX_ITERATIONS} rounds")
    alpha = float(w @ (a @ w) / (w @ w))
    w = w / np.max(w)
    if np.any(w <= 0.0):
        raise ConvergenceError("eigenvector is not strictly positive")
    return alpha, {v: float(w[index[v]]) for v in nodes}


def eigen_residual(weights: dict[int, float], alpha: float,
                   edges: frozenset[tuple[int, int]]) -> float:
    """Infinity-norm of A w - alpha w, for reporting and assertions."""
    worst = 0.0
    neigh: dict[int, list[int]] = {v: [] for v in weights}
    for u, v in edges:
        neigh[u].append(v)
        neigh[v].append(u)
    for v, ns in neigh.items():
        worst = max(worst, abs(sum(weights[u] for u in ns) - alpha * weights[v]))
    return worst


def lift(h: DependencyGraph) -> SpectralLift:
    """Assemble per-component Perron weights over all surviving agents."""
    weights: dict[int, float] = {}
    alphas = []
    residual = 0.0
    for comp in components(h):
        comp_edges = {e for e in h.edges if e[0] in comp}
        alpha_j, w_j = principal_eigen(sorted(comp), comp_edges)
        alphas.append(alpha_j)
        weights.update(w_j)
        residual = max(residual, eigen_residual(w_j, alpha_j, frozenset(comp_edges)))
    if not alphas:
        raise ValidationError("dependency graph has no nodes")
    return SpectralLift(max(alphas), weights, tuple(alphas), residual)


def multipartite_lift(system: core.ROutOfKSystem, kept: Sequence[int]) -> SpectralLift:
    """Perron weights of the complete multipartite graph on the `kept` groups, from its quotient.

    Every agent of group i gets x_i = (alpha + g_min) / (alpha + g_i), with
    g_i = |group i| and alpha the root of sum_i g_i / (alpha + g_i) = 1,
    found by Newton's method (`mechanisms.r_out_of_k_mechanism` derives
    both).  The smallest group gets exactly 1.0.  The residual is that of
    the expanded eigenproblem, which is the same for every agent of a
    group.  The weights are a `core.GroupMap`, which holds one weight per group.
    """
    if len(kept) < 2:
        raise ValidationError("need at least two groups")
    sizes = [len(system.groups[i]) for i in kept]
    alpha = 0.0
    while True:
        excess = math.fsum([-1.0] + [g / (alpha + g) for g in sizes])
        slope = math.fsum([g / (alpha + g) ** 2 for g in sizes])
        nxt = alpha + excess / slope
        if not nxt > alpha:
            break
        alpha = nxt
    g_min = min(sizes)
    x = [(alpha + g_min) / (alpha + g) for g in sizes]
    total = math.fsum([g * xi for g, xi in zip(sizes, x)])
    residual = max(abs(total - g * xi - alpha * xi) for g, xi in zip(sizes, x))
    by_group: list[Optional[float]] = [None] * len(system.groups)
    for i, xi in zip(kept, x):
        by_group[i] = xi
    return SpectralLift(alpha, core.GroupMap(system, by_group), (alpha,), residual)
