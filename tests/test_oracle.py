from fractions import Fraction
from itertools import product

import pytest

from conftest import c5, digon, k3, k4, petersen
from covdex import (
    TooLarge,
    brute_codensity,
    brute_cover_index,
    build,
    codensity,
    random_multigraph,
    verify_decomposition,
)
from covdex.oracle import FuzzConfig


def naive_cover_index(g):
    """Reference for small graphs: try every assignment of edges to parts."""
    m = len(g.edges)
    delta = g.min_degree()
    if delta == 0:
        return 0
    for t in range(delta, 0, -1):
        for assignment in product(range(t), repeat=m):
            touched = [set() for _ in range(t)]
            for e, part in zip(g.edges, assignment):
                touched[part].add(e.u)
                touched[part].add(e.v)
            if all(len(s) == g.vertex_count for s in touched):
                return t
    return 0


def test_verify_decomposition_accepts_full_cover(k3):
    assert verify_decomposition(k3, [[0, 1, 2]]).ok


def test_verify_decomposition_rejects_uncovered_vertex(k3):
    verdict = verify_decomposition(k3, [[0]])
    assert not verdict.ok
    assert any("misses vertex 2" in p for p in verdict.problems)


def test_verify_decomposition_rejects_overlap(k3):
    verdict = verify_decomposition(k3, [[0, 1, 2], [0, 1, 2]])
    assert not verdict.ok
    assert any("share edge" in p for p in verdict.problems)


def test_verify_decomposition_rejects_unknown_ids(k3):
    verdict = verify_decomposition(k3, [[0, 1, 9]])
    assert not verdict.ok
    assert any("unknown edge ids" in p for p in verdict.problems)


@pytest.mark.parametrize(
    "maker,xi",
    [(c5, 1), (k3, 1), (k4, 3), (digon, 2)],
)
def test_brute_cover_index_named(maker, xi):
    assert brute_cover_index(maker()) == xi


def test_brute_cover_index_petersen():
    assert brute_cover_index(petersen()) == 2


def test_brute_cover_index_isolated_vertex_and_cap():
    assert brute_cover_index(build(2, [])) == 0
    with pytest.raises(TooLarge):
        brute_cover_index(build(10, [(0, 1)] * 17))


def test_brute_cover_index_answers_isolated_vertices_before_any_table():
    # One edge among a million declared vertices: 0 at once, without the
    # per-vertex incidence table.
    g = build(10**6, [(0, 1)])
    assert brute_cover_index(g) == 0
    assert "_incidence" not in vars(g)


def test_brute_cover_index_matches_naive_reference():
    checked = 0
    for seed in range(300):
        g = random_multigraph(
            FuzzConfig(n=3 + seed % 2, max_multiplicity=2, edge_probability=0.7, seed=seed)
        )
        if len(g.edges) > 7:
            continue
        assert brute_cover_index(g) == naive_cover_index(g)
        checked += 1
    assert checked >= 50


@pytest.mark.parametrize(
    "maker,expected",
    [(c5, Fraction(5, 3)), (k4, Fraction(3)), (k3, Fraction(3, 2))],
)
def test_brute_codensity_named(maker, expected):
    assert brute_codensity(maker()) == expected


def test_brute_codensity_no_odd_set():
    assert brute_codensity(build(2, [(0, 1)])) is None
    with pytest.raises(TooLarge):
        brute_codensity(build(25, []))


def test_brute_codensity_agrees_with_production():
    for seed in range(200):
        g = random_multigraph(FuzzConfig(n=4 + seed % 5, max_multiplicity=2, seed=seed))
        assert brute_codensity(g) == codensity(g)[0]


def test_random_multigraph_is_seed_stable():
    cfg = FuzzConfig(n=6, max_multiplicity=2, edge_probability=0.5, seed=99)
    a = random_multigraph(cfg)
    b = random_multigraph(cfg)
    assert [(e.id, e.u, e.v) for e in a.edges] == [(e.id, e.u, e.v) for e in b.edges]
    different = random_multigraph(FuzzConfig(n=6, max_multiplicity=2, seed=100))
    assert [(e.u, e.v) for e in a.edges] != [(e.u, e.v) for e in different.edges]


def test_random_multigraph_respects_multiplicity_cap():
    for seed in range(30):
        g = random_multigraph(
            FuzzConfig(n=5, max_multiplicity=3, edge_probability=0.9, seed=seed)
        )
        assert g.max_multiplicity() <= 3
        assert all(e.u != e.v for e in g.edges)


def test_random_multigraph_simple_when_cap_is_one():
    g = random_multigraph(FuzzConfig(n=8, max_multiplicity=1, edge_probability=0.8, seed=3))
    assert g.max_multiplicity() <= 1


def test_random_multigraph_target_edges_mode():
    g = random_multigraph(FuzzConfig(n=6, max_multiplicity=2, target_edges=9, seed=11))
    assert len(g.edges) == 9
    capped = random_multigraph(FuzzConfig(n=3, max_multiplicity=1, target_edges=50, seed=4))
    assert len(capped.edges) == 3  # clamped at the slot count


def test_sandwich_bounds_on_fuzz_corpus():
    from covdex import gupta_bound

    checked = 0
    for seed in range(250):
        g = random_multigraph(
            FuzzConfig(n=4 + seed % 4, max_multiplicity=2, edge_probability=0.5, seed=seed)
        )
        if not (1 <= len(g.edges) <= 14):
            continue
        b = gupta_bound(g)
        xi = brute_cover_index(g)
        upper = b.delta if b.codensity is None else min(b.delta, int(b.codensity))
        assert b.k <= xi <= upper
        checked += 1
    assert checked >= 100
