from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import c5, digon, doubled_triangle, k3, k4, nested_optimal, petersen
from covdex import (
    BadSet,
    DisjointnessViolation,
    TooLarge,
    all_min_optimal_sets,
    boundary_counts,
    build,
    codensity,
    gupta_bound,
    is_optimal,
    min_optimal_containing,
)
from covdex.oracle import FuzzConfig, random_multigraph


def exhaustive_optimal_sets(g, k):
    """Reference enumeration: every odd set hitting the bound exactly."""
    out = []
    for size in range(3, g.vertex_count + 1, 2):
        for subset in combinations(range(g.vertex_count), size):
            _, _, plus = boundary_counts(g, subset)
            if 2 * plus == k * (size + 1):
                out.append(frozenset(subset))
    return out


def test_codensity_c5():
    value, witness = codensity(c5())
    assert value == Fraction(5, 3)
    assert sorted(witness.vertices) == [0, 1, 2, 3, 4]
    assert witness.e_plus == 5


def test_codensity_k4():
    value, witness = codensity(k4())
    assert value == Fraction(3)
    assert witness.vertices == (0, 1, 2)  # first minimizer in (size, lex) order
    assert witness.e_plus == 6


def test_codensity_single_edge_has_no_odd_set():
    value, witness = codensity(build(2, [(0, 1)]))
    assert value is None and witness is None


def test_codensity_cap():
    g = build(30, [(i, i + 1) for i in range(29)])
    with pytest.raises(TooLarge):
        codensity(g)
    with pytest.raises(TooLarge):
        codensity(c5(), cap=4)
    assert codensity(c5(), cap=5)[0] == Fraction(5, 3)


@pytest.mark.parametrize(
    "graph,delta,rho,k",
    [
        (c5(), 2, Fraction(5, 3), 1),
        (k4(), 3, Fraction(3), 2),
        (k3(), 2, Fraction(3, 2), 1),
        (digon(), 2, None, 1),
        (petersen(), 3, Fraction(3), 2),
        (doubled_triangle(), 4, Fraction(3), 3),
    ],
)
def test_gupta_bound_named_instances(graph, delta, rho, k):
    b = gupta_bound(graph)
    assert (b.delta, b.codensity, b.k) == (delta, rho, k)


def test_gupta_bound_checks_the_cap_before_building_tables():
    g = build(10**6, [])
    with pytest.raises(TooLarge):
        gupta_bound(g)
    assert "_incidence" not in vars(g)  # no per-vertex table was built


def test_gupta_bound_clamps_at_zero():
    assert gupta_bound(build(2, [(0, 1)])).k == 0
    assert gupta_bound(build(1, [])).k == 0
    assert gupta_bound(build(0, [])).k == 0


def test_is_optimal_counterexamples():
    assert not is_optimal(k4(), {0, 1, 2}, 2)  # e+ = 6, need 4
    assert not is_optimal(c5(), {0, 1, 2, 3, 4}, 1)  # e+ = 5, need 3


def test_is_optimal_positive_instances():
    assert is_optimal(doubled_triangle(), {0, 1, 2}, 3)
    g = nested_optimal()
    assert is_optimal(g, {2, 3, 4}, 5)
    assert is_optimal(g, {0, 1, 2, 3, 4}, 5)


def test_is_optimal_rejects_bad_sets():
    with pytest.raises(BadSet):
        is_optimal(k4(), {0, 1}, 2)
    with pytest.raises(BadSet):
        is_optimal(k4(), {0}, 2)


def test_min_optimal_containing_none_for_k4():
    for x in range(4):
        assert min_optimal_containing(k4(), x, 2) is None


def test_min_optimal_containing_spec_sketch_graph():
    # Triangle 0,1,2 with pendants 0-3, 1-3, 2-4, 0-4: co-density 7/3, k=1,
    # and no odd set is tight, so every query comes back empty.
    g = build(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 4), (0, 4)])
    b = gupta_bound(g)
    assert (b.delta, b.codensity, b.k) == (2, Fraction(7, 3), 1)
    assert all(min_optimal_containing(g, x, b.k) is None for x in range(5))


def test_min_optimal_containing_picks_smallest():
    g = nested_optimal()
    inner = min_optimal_containing(g, 2, 5)
    assert inner.vertices == (2, 3, 4)
    outer = min_optimal_containing(g, 0, 5)
    assert outer.vertices == (0, 1, 2, 3, 4)


def test_all_min_optimal_sets_empty_when_none_exist():
    assert all_min_optimal_sets(k4(), 2, range(4)) == []


def test_all_min_optimal_sets_keeps_inclusion_minimal_only():
    g = nested_optimal()
    certs = all_min_optimal_sets(g, 5, range(5))
    assert [c.vertices for c in certs] == [(2, 3, 4)]


def test_all_min_optimal_sets_single_block():
    certs = all_min_optimal_sets(doubled_triangle(), 3, range(3))
    assert [c.vertices for c in certs] == [(0, 1, 2)]


def test_all_min_optimal_sets_ties_at_a_vertex_whose_set_is_collected():
    # At k = 3 the tight 3-sets are {0,1,2} and {1,3,4}.  Vertex 0 collects
    # {0,1,2}; vertex 1's least set is that same set, and the tie with
    # {1,3,4} must still be caught there.
    g = build(5, [(0, 2)] * 3 + [(1, 3), (2, 3), (2, 4)] + [(3, 4)] * 3)
    with pytest.raises(DisjointnessViolation) as caught:
        all_min_optimal_sets(g, 3, range(5))
    assert str(caught.value) == (
        "two minimum optimal sets of size 3 contain vertex 1: (0, 1, 2) and (1, 3, 4)"
    )


def test_fuzzed_optimal_families_are_disjoint_and_exhaustively_confirmed():
    hits = 0
    for seed in range(400):
        g = random_multigraph(
            FuzzConfig(n=3 + seed % 3, max_multiplicity=3, edge_probability=0.8, seed=seed)
        )
        if not g.edges:
            continue
        b = gupta_bound(g)
        certs = all_min_optimal_sets(g, b.k, range(g.vertex_count))
        reference = exhaustive_optimal_sets(g, b.k)
        for cert in certs:
            assert cert.as_set() in reference
            assert not any(other < cert.as_set() for other in reference)
        for a, bb in combinations(certs, 2):
            assert not (a.as_set() & bb.as_set())
        hits += bool(certs)
    assert hits >= 5  # the corpus genuinely exercises the positive path


def test_optimal_set_arithmetic_identity():
    # For an optimal set in a minimum-degree >= k+1 graph:
    # k >= |U| + boundary, with equality when all inside degrees are k+1.
    for g, k in [(doubled_triangle(), 3), (nested_optimal(), 5)]:
        for cert in all_min_optimal_sets(g, k, range(g.vertex_count)):
            _, border, _ = boundary_counts(g, cert.as_set())
            assert k >= cert.size + border
            if sum(g.degree(v) for v in cert.vertices) == (k + 1) * cert.size:
                assert k == cert.size + border


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=5000), st.permutations(list(range(6))))
def test_codensity_invariant_under_relabeling(seed, perm):
    g = random_multigraph(FuzzConfig(n=6, max_multiplicity=2, seed=seed))
    relabeled = build(6, [(perm[e.u], perm[e.v]) for e in g.edges])
    assert codensity(g)[0] == codensity(relabeled)[0]


@given(st.integers(min_value=0, max_value=5000))
def test_floor_of_codensity_never_below_k(seed):
    g = random_multigraph(FuzzConfig(n=7, max_multiplicity=2, seed=seed))
    b = gupta_bound(g)
    if b.codensity is not None:
        assert b.codensity >= b.k
    assert b.k <= max(b.delta - 1, 0)
