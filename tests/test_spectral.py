"""Perron pairs, lifting weights, and the group-balance equations."""

import itertools
import math
import random

import pytest

from frugal.core import ROutOfKSystem
from frugal.dependency import DependencyGraph, components
from frugal.errors import ValidationError
from frugal.spectral import (
    PUBLIC_TOL,
    eigen_residual,
    lift,
    multipartite_lift,
    principal_eigen,
)

from fixtures import consecutive_parts, multipartite_dependency


def complete_bipartite(a, b):
    left = range(a)
    right = range(a, a + b)
    return DependencyGraph(
        tuple(range(a + b)),
        frozenset((u, v) for u in left for v in right),
    )


def test_k23_eigenpair():
    h = complete_bipartite(2, 3)
    alpha, w = principal_eigen(h.nodes, set(h.edges))
    assert alpha == pytest.approx(math.sqrt(6.0), abs=1e-9)
    # Side of two vertices carries the maximum weight.
    assert w[0] == pytest.approx(1.0) and w[1] == pytest.approx(1.0)
    for v in (2, 3, 4):
        assert w[v] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-9)


def test_single_node():
    alpha, w = principal_eigen([7], set())
    assert alpha == 0.0
    assert w == {7: 1.0}


def test_path_three_nodes():
    h = DependencyGraph((0, 1, 2), frozenset({(0, 1), (1, 2)}))
    alpha, w = principal_eigen(h.nodes, set(h.edges))
    assert alpha == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert w[1] == pytest.approx(1.0)
    assert w[0] == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-9)
    assert w[2] == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-9)


def test_lift_star():
    h = complete_bipartite(1, 4)
    lifted = lift(h)
    assert lifted.alpha == pytest.approx(2.0, abs=1e-9)
    assert lifted.weights[0] == pytest.approx(1.0)
    for v in range(1, 5):
        assert lifted.weights[v] == pytest.approx(0.5, abs=1e-9)
    assert lifted.residual <= 1e-9


def test_lift_two_components():
    # K22 on {0..3} plus a single edge {4,5}.
    edges = {(u, v) for u in (0, 1) for v in (2, 3)} | {(4, 5)}
    h = DependencyGraph(tuple(range(6)), frozenset(edges))
    lifted = lift(h)
    assert lifted.alpha == pytest.approx(2.0, abs=1e-9)
    assert sorted(lifted.component_alphas) == pytest.approx([1.0, 2.0], abs=1e-9)
    assert all(w > 0 for w in lifted.weights.values())
    # Per-component max normalization.
    assert max(lifted.weights[v] for v in (0, 1, 2, 3)) == pytest.approx(1.0)
    assert max(lifted.weights[v] for v in (4, 5)) == pytest.approx(1.0)


def lift_all_groups(parts):
    """`multipartite_lift` of a system whose groups are `parts`, all kept."""
    return multipartite_lift(ROutOfKSystem(tuple(parts), len(parts) - 1), range(len(parts)))


def group_balance(sizes):
    """(beta, per-part weights) of `multipartite_lift`; beta * r is its alpha."""
    parts = consecutive_parts(sizes)
    lifted = lift_all_groups(parts)
    return lifted.alpha / (len(sizes) - 1), tuple(lifted.weights[p[0]] for p in parts)


def test_single_edge_multipartite():
    beta, x = group_balance((1, 1))
    assert beta == pytest.approx(1.0, abs=1e-9)
    assert x == pytest.approx((1.0, 1.0), abs=1e-9)


def test_lozenge_examples():
    beta, _ = group_balance((1, 4))
    assert beta == pytest.approx(2.0, abs=1e-9)
    beta3, _ = group_balance((1, 1, 1))
    assert beta3 == pytest.approx(1.0, abs=1e-9)
    for a, b in [(2, 3), (1, 5), (4, 4)]:
        beta_ab, _ = group_balance((a, b))
        assert beta_ab == pytest.approx(math.sqrt(a * b), abs=1e-8)


def test_lozenge_balance_equations():
    # beta = (1 / (r x_i)) * sum_{j != i} x_j * |S_j| for every part i.
    rng = random.Random(19)
    for _ in range(25):
        r = rng.randint(1, 4)
        sizes = tuple(rng.randint(1, 6) for _ in range(r + 1))
        beta, x = group_balance(sizes)
        for i in range(r + 1):
            rhs = sum(x[j] * sizes[j] for j in range(r + 1) if j != i) / (r * x[i])
            assert rhs == pytest.approx(beta, abs=1e-8)
        # Agreement with the expanded eigenproblem.
        lifted = lift(multipartite_dependency(consecutive_parts(sizes)))
        assert abs(beta * r - lifted.alpha) <= 1e-8
        assert max(x) == pytest.approx(1.0, abs=1e-9)


def test_multipartite_lift_matches_expanded_power_iteration():
    rng = random.Random(97)
    for _ in range(200):
        r = rng.randint(1, 7)
        parts = consecutive_parts([rng.randint(1, 25) for _ in range(r + 1)])
        quotient = lift_all_groups(parts)
        expanded = lift(multipartite_dependency(parts))
        assert quotient.alpha == pytest.approx(expanded.alpha, rel=1e-9)
        assert quotient.component_alphas == (quotient.alpha,)
        assert quotient.weights.keys() == expanded.weights.keys()
        assert list(quotient.weights) == sorted(expanded.weights)
        for a, w in expanded.weights.items():
            assert abs(quotient.weights[a] - w) <= 1e-9
        assert quotient.residual <= PUBLIC_TOL
        assert max(quotient.weights.values()) == 1.0
        for part in parts:
            assert len({quotient.weights[a] for a in part}) == 1


def test_multipartite_lift_rejects_a_single_group():
    with pytest.raises(ValidationError):
        multipartite_lift(ROutOfKSystem(((0, 1), (2,)), 1), [0])


def test_degree_bounds_on_alpha():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(2, 9)
        edges = set()
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < 0.5:
                edges.add((u, v))
        h = DependencyGraph(tuple(range(n)), frozenset(edges))
        for comp in components(h):
            comp_edges = {e for e in h.edges if e[0] in comp}
            alpha, w = principal_eigen(sorted(comp), comp_edges)
            deg = {v: 0 for v in comp}
            for a, b in comp_edges:
                deg[a] += 1
                deg[b] += 1
            if len(comp) == 1:
                assert alpha == 0.0
                continue
            d_avg = sum(deg.values()) / len(comp)
            d_max = max(deg.values())
            assert d_avg - 1e-9 <= alpha <= d_max + 1e-9
            assert eigen_residual(w, alpha, frozenset(comp_edges)) <= 1e-9 * max(1.0, alpha)


def test_residual_tolerance_documented():
    h = complete_bipartite(3, 5)
    alpha, w = principal_eigen(h.nodes, set(h.edges))
    assert eigen_residual(w, alpha, h.edges) <= 1e-9 * max(1.0, alpha)
    assert alpha == pytest.approx(math.sqrt(15.0), abs=1e-9)
