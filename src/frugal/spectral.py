"""Principal eigenpairs of dependency-graph components and the lifting weights.

Power iteration runs on A + I so bipartite components cannot oscillate
with period two; the reported eigenvalue subtracts the shift.  Weights
are normalized to maximum 1 within each component, which leaves the
downstream winner selection unchanged because feasible choices decompose
across components.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dependency import DependencyGraph, components, multipartite_dependency
from .errors import ConvergenceError, ValidationError

INTERNAL_TOL = 1e-12
PUBLIC_TOL = 1e-9
MAX_ITERATIONS = 1_000_000


@dataclass(frozen=True)
class SpectralLift:
    """Per-agent positive weights with the per-component principal eigenvalues."""

    alpha: float
    weights: dict[int, float]
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


def solve_lozenge(part_sizes: Sequence[int], r: int):
    """Balance equations of the r-out-of-k lifting, via the expanded eigenproblem.

    Returns (beta, per-part weights); beta * r equals the principal
    eigenvalue of the complete (r+1)-partite dependency graph and the
    expanded weight vector is its Perron vector, max-normalized.
    """
    if r < 1:
        raise ValidationError("r must be at least 1")
    if len(part_sizes) != r + 1:
        raise ValidationError("need exactly r+1 part sizes")
    parts = []
    nxt = 0
    for size in part_sizes:
        if size < 1:
            raise ValidationError("part sizes must be positive")
        parts.append(tuple(range(nxt, nxt + size)))
        nxt += size
    lifted = lift(multipartite_dependency(parts))
    x = tuple(float(np.mean([lifted.weights[v] for v in part])) for part in parts)
    return lifted.alpha / r, x
