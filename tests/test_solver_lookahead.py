"""The odd-set look-ahead against the plain search, and its bookkeeping.

The look-ahead may only cut subtrees that hold no coloring, so on every
case of the solver equivalence suite it must return the same assignment
(or None) within the plain search's node count N.  The switch-on
threshold is forced to 0 here, so the look-ahead starts at the first dead
end and every case that reaches one exercises it.
"""

import random
from itertools import combinations

import pytest

from conftest import petersen
from covdex import BudgetExhausted, build, coloring, find_coloring
from covdex.coloring import LOOKAHEAD_SIZES, OddSetLookahead
from covdex.oracle import FuzzConfig, random_multigraph
from test_solver_equivalence import (
    REFERENCE_BUDGET,
    equivalence_cases,
    reference_search,
    same_outcome,
)


@pytest.fixture
def eager(monkeypatch):
    monkeypatch.setattr(coloring, "LOOKAHEAD_NODES_PER_SET", 0)


def test_same_assignment_within_the_plain_node_count(eager):
    checked = pruned = fewer = 0
    for g, m in equivalence_cases():
        try:  # cases past the reference budget are skipped
            find_coloring(g, m, budget=REFERENCE_BUDGET)
        except BudgetExhausted:
            continue
        expected, nodes = reference_search(g, m, REFERENCE_BUDGET)
        counters = {}
        got = find_coloring(g, m, budget=nodes, lookahead=True, counters=counters)
        assert same_outcome(got, expected), (g, m)
        assert counters["nodes"] <= nodes
        checked += 1
        pruned += counters["prunes"] > 0
        fewer += counters["nodes"] < nodes
    assert checked >= 900
    assert pruned >= 70 and fewer >= 30


def test_petersen_is_still_refuted_within_the_plain_node_count(eager):
    _, nodes = reference_search(petersen(), 3, REFERENCE_BUDGET)
    counters = {}
    assert find_coloring(petersen(), 3, budget=nodes, lookahead=True, counters=counters) is None
    assert counters["prunes"] > 0 and counters["nodes"] < nodes


def test_switch_on_jumps_back_to_the_shallowest_violated_prefix(eager):
    # A 7-vertex multigraph at m = 16.  The plain search needs 1416 nodes;
    # at its first dead end a prefix of the stack already violates, and
    # jumping back to it finishes in 53.  Kept on the violated prefix, the
    # search would walk that subtree node by node.
    g, m = list(equivalence_cases())[371]
    assert (g.vertex_count, len(g.edges), m) == (7, 45, 16)
    assert reference_search(g, m, REFERENCE_BUDGET)[1] == 1416
    counters = {}
    assert find_coloring(g, m, lookahead=True, counters=counters) is not None
    assert counters == {"nodes": 53, "prunes": 1}


def test_a_set_over_the_bound_from_the_start_refutes_at_once(eager):
    # Each triangle edge doubled: degree 4, but six edges on three vertices
    # need six colors, so h/2 = 4 - 6 < 0 before anything is colored.
    g = build(3, [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)])
    counters = {}
    assert find_coloring(g, 4, lookahead=True, counters=counters) is None
    assert counters["prunes"] == 1


def test_default_threshold_gives_the_same_results():
    switched_on = 0
    for g, m in list(equivalence_cases())[::9]:
        try:
            plain = find_coloring(g, m, budget=REFERENCE_BUDGET)
        except BudgetExhausted:
            continue
        counters = {}
        pruned = find_coloring(
            g, m, budget=REFERENCE_BUDGET, lookahead=True, counters=counters
        )
        assert (plain is None) == (pruned is None)
        if plain is not None:
            assert list(plain.assignment.items()) == list(pruned.assignment.items())
        switched_on += counters["prunes"] > 0
    assert switched_on >= 10


def _pairs(g):
    return [(e.u, e.v) for e in g.edges]


def _tracked(n, pairs, m):
    degree = [0] * n
    for u, v in pairs:
        degree[u] += 1
        degree[v] += 1
    return [
        members
        for size in range(3, n + 1, 2)
        for members in combinations(range(n), size)
        if sum(degree[x] for x in members) > m * (size - 1)
    ]


def _half_h(members, pairs, colors, m):
    """h(U)/2 from scratch: m(|U|-1)/2 - e_in - (cbd - popcount(X))/2."""
    inside = set(members)
    e_in = cbd = 0
    odd = set()
    for index, (u, v) in enumerate(pairs):
        ends = (u in inside) + (v in inside)
        e_in += ends == 2
        if index in colors:
            cbd += ends == 1
            for x in (u, v):
                if x in inside:
                    odd ^= {colors[index]}
    twice = m * (len(members) - 1) - 2 * e_in - (cbd - len(odd))
    assert twice % 2 == 0
    return twice // 2


def test_tracked_sets_are_the_small_odd_sets_that_can_fire():
    g = random_multigraph(FuzzConfig(n=9, max_multiplicity=2, edge_probability=0.7, seed=5))
    pairs = _pairs(g)
    m = g.max_degree()
    look = OddSetLookahead(g.vertex_count, pairs, m)
    expected = [u for u in _tracked(g.vertex_count, pairs, m) if len(u) in LOOKAHEAD_SIZES]
    assert LOOKAHEAD_SIZES == (3, 5)
    assert look.sets == expected
    assert any(len(u) == 5 for u in look.sets)


@pytest.mark.parametrize("seed", range(6))
def test_bit_sliced_h_matches_a_recount(seed):
    rng = random.Random(seed)
    g = random_multigraph(
        FuzzConfig(n=7 + seed % 3, max_multiplicity=2, edge_probability=0.7, seed=seed)
    )
    pairs = _pairs(g)
    m = g.max_degree() + seed % 2
    look = OddSetLookahead(g.vertex_count, pairs, m)
    assert not look.refuted and look.sets
    colors: dict[int, int] = {}
    used = [set() for _ in range(g.vertex_count)]
    fired = 0

    def free(index):
        u, v = pairs[index]
        return [c for c in range(1, m + 1) if c not in used[u] and c not in used[v]]

    def paint(index, c):
        u, v = pairs[index]
        colors[index] = c
        used[u].add(c)
        used[v].add(c)
        return look.color(u, v, 1 << (c - 1))

    def scrape(index):
        u, v = pairs[index]
        c = colors.pop(index)
        used[u].discard(c)
        used[v].discard(c)
        look.uncolor(u, v, 1 << (c - 1))

    for _ in range(400):
        move = rng.random()
        blank = [i for i in range(len(pairs)) if i not in colors and free(i)]
        if colors and (move < 0.3 or not blank):
            scrape(rng.choice(sorted(colors)))
        elif colors and move < 0.5:
            index = rng.choice(sorted(colors))
            scrape(index)
            if not paint(index, rng.choice(free(index))):
                fired += 1
                scrape(index)
        elif blank:
            index = rng.choice(blank)
            if not paint(index, rng.choice(free(index))):
                fired += 1
                truth = [_half_h(u, pairs, colors, m) for u in look.sets]
                assert min(truth) < 0
                scrape(index)
        truth = [_half_h(u, pairs, colors, m) for u in look.sets]
        assert min(truth) >= 0
        assert look.halves() == truth
    assert fired
