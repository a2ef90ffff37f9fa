"""Set-system semantics: feasibility, monopoly-freeness, minimal sets, restriction."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frugal.core import (
    ExplicitSystem,
    KPathSystem,
    ROutOfKSystem,
    UndirectedGraph,
    VertexCoverSystem,
    is_feasible,
    minimal_feasible_sets,
    restrict,
    system_agents,
)
from frugal.errors import EnumerationCapError, MonopolyError, ValidationError
from frugal.flows import min_cost_flow

from fixtures import DIAMOND_COSTS, brute_minimal_sets, diamond, star_graph


def three_groups():
    return ROutOfKSystem(((0,), (1, 2), (3,)), 2)


def test_feasible_r_out_of_k():
    sys3 = three_groups()
    assert is_feasible(sys3, {0, 1, 2})            # groups 1 and 2 complete
    assert not is_feasible(sys3, {0, 1})           # group 2 is partial
    assert not is_feasible(sys3, set())


def test_feasible_kpath_diamond():
    sysd = KPathSystem(diamond(), 1)
    assert is_feasible(sysd, {0, 2})
    assert not is_feasible(sysd, {0, 3})
    assert not is_feasible(sysd, set())


def test_feasible_vertex_cover():
    vc = VertexCoverSystem(star_graph(3))
    assert is_feasible(vc, {0})
    assert is_feasible(vc, {1, 2, 3})
    assert not is_feasible(vc, {1, 2})


def test_monopoly_free_examples():
    sysd = KPathSystem(diamond(), 1)
    restrict(sysd, {0, 1, 2, 3})
    with pytest.raises(MonopolyError):
        restrict(sysd, {0, 2})
    vc = VertexCoverSystem(UndirectedGraph(2, ((0, 1),)))
    restrict(vc, {0, 1})


def test_minimal_sets_examples():
    sysd = KPathSystem(diamond(), 1)
    assert minimal_feasible_sets(sysd) == [frozenset({0, 2}), frozenset({1, 3})]

    vc = VertexCoverSystem(star_graph(3))
    assert minimal_feasible_sets(vc) == [frozenset({0}), frozenset({1, 2, 3})]

    sys3 = three_groups()
    assert minimal_feasible_sets(sys3) == [
        frozenset({0, 1, 2}),
        frozenset({0, 3}),
        frozenset({1, 2, 3}),
    ]


def test_minimal_sets_match_brute():
    systems = [
        KPathSystem(diamond(), 1),
        KPathSystem(diamond(), 2),
        VertexCoverSystem(star_graph(3)),
        VertexCoverSystem(UndirectedGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))),
        three_groups(),
        ExplicitSystem(4, (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 1, 3}))),
    ]
    for system in systems:
        n = max(system_agents(system)) + 1
        expected = brute_minimal_sets(n, lambda s: is_feasible(system, s))
        assert minimal_feasible_sets(system) == expected


def test_minimal_sets_cap():
    vc = VertexCoverSystem(UndirectedGraph(6, tuple(itertools.combinations(range(6), 2))))
    with pytest.raises(EnumerationCapError):
        minimal_feasible_sets(vc, cap=3)


def test_restrict_identity_diamond():
    sysd = KPathSystem(diamond(), 1)
    r = restrict(sysd, {0, 1, 2, 3})
    assert isinstance(r, ExplicitSystem)
    assert sorted(r.feasible, key=sorted) == [frozenset({0, 2}), frozenset({1, 3})]
    assert r.agents == frozenset({0, 1, 2, 3})


def test_restrict_r_out_of_k():
    sys3 = three_groups()
    r = restrict(sys3, {0, 1, 2, 3})
    assert len(r.feasible) == 3
    r2 = restrict(sys3, {0, 3, 1, 2})
    assert r2.agents == frozenset({0, 1, 2, 3})


def test_restrict_kpath_flow_subgraph():
    g = diamond()
    sysd = KPathSystem(g, 1)
    gstar = min_cost_flow(g, DIAMOND_COSTS, 2)
    r = restrict(sysd, gstar.edge_ids)
    assert sorted(r.feasible, key=sorted) == [frozenset({0, 2}), frozenset({1, 3})]


def test_restrict_monopoly_error():
    with pytest.raises(MonopolyError):
        restrict(KPathSystem(diamond(), 1), {0, 2})


def test_restrict_rejects_agents_outside_the_system():
    with pytest.raises(ValidationError):
        restrict(KPathSystem(diamond(), 1), {0, 1, 2, 3, 9})
    with pytest.raises(ValidationError):
        ExplicitSystem(3, (frozenset({0, 1}),), frozenset({0, 1, 5}))
    with pytest.raises(ValidationError):
        ExplicitSystem(3, (frozenset({0, 4}),))


def test_upward_closure_exhaustive():
    systems = [
        KPathSystem(diamond(), 1),
        VertexCoverSystem(star_graph(3)),
        three_groups(),
    ]
    for system in systems:
        n = max(system_agents(system)) + 1
        for bits in range(2 ** n):
            s = frozenset(i for i in range(n) if bits >> i & 1)
            if is_feasible(system, s):
                for extra in range(n):
                    assert is_feasible(system, s | {extra})


def test_minimality_invariant():
    for system in [KPathSystem(diamond(), 1), VertexCoverSystem(star_graph(4)), three_groups()]:
        for m in minimal_feasible_sets(system):
            assert is_feasible(system, m)
            for e in m:
                assert not is_feasible(system, m - {e})


def test_domination_invariant():
    system = VertexCoverSystem(UndirectedGraph(5, ((0, 1), (1, 2), (3, 4))))
    minimal = minimal_feasible_sets(system)
    n = 5
    for bits in range(2 ** n):
        s = frozenset(i for i in range(n) if bits >> i & 1)
        if is_feasible(system, s):
            assert any(m <= s for m in minimal)


@st.composite
def explicit_systems(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    n_sets = draw(st.integers(min_value=1, max_value=4))
    fam = []
    for _ in range(n_sets):
        fam.append(frozenset(draw(
            st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n))))
    return ExplicitSystem(n, tuple(fam))


@settings(max_examples=60, deadline=None)
@given(explicit_systems())
def test_explicit_upward_closure_and_minimality(system):
    n = system.n_agents
    minimal = minimal_feasible_sets(system)
    for bits in range(2 ** n):
        s = frozenset(i for i in range(n) if bits >> i & 1)
        feasible = is_feasible(system, s)
        assert feasible == any(m <= s for m in minimal)
        if feasible:
            for extra in range(n):
                assert is_feasible(system, s | {extra})


def test_r_out_of_k_restrict_to_cheapest_groups():
    # Restricting to r+1 groups leaves the complete system on those groups.
    rng = random.Random(2)
    for _ in range(10):
        k = rng.randint(3, 5)
        r = rng.randint(1, k - 1)
        sizes = [rng.randint(1, 3) for _ in range(k)]
        groups, nxt = [], 0
        for sz in sizes:
            groups.append(tuple(range(nxt, nxt + sz)))
            nxt += sz
        system = ROutOfKSystem(tuple(groups), r)
        keep = set()
        for grp in groups[: r + 1]:
            keep.update(grp)
        restricted = restrict(system, keep)
        assert len(restricted.feasible) == len(
            list(itertools.combinations(range(r + 1), r)))
