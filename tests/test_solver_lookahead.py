"""The odd-set look-ahead against the plain search, and its bookkeeping.

The look-ahead may only cut subtrees that hold no coloring, so on every
case of the solver equivalence suite it must return the same assignment
(or None) within the plain search's node count N.  The switch-on
thresholds are forced to 0 here, so the look-ahead starts at the first dead
end and every case that reaches one exercises it.
"""

import random
from itertools import combinations
from math import comb

import pytest

from conftest import petersen
from covdex import BudgetExhausted, build, coloring, decomposer, find_coloring
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
    monkeypatch.setattr(coloring, "LOOKAHEAD_LARGE_NODES_PER_SET", 0)


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
    assert counters == {"nodes": 53, "prunes": 1, "lookahead_builds": 1}


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


def combination_loop_build(n, pairs, m):
    """The earlier set-by-set build, kept as the reference: the odd sets of
    3 and 5 vertices whose degree sum exceeds m(|U|-1), and their h/2 at
    the empty coloring, m(|U|-1)/2 - e_in(U)."""
    degree = [0] * n
    mult = [[0] * n for _ in range(n)]
    for u, v in pairs:
        degree[u] += 1
        degree[v] += 1
        mult[u][v] += 1
        mult[v][u] += 1
    halves = {}
    for size in LOOKAHEAD_SIZES:
        limit = m * (size - 1)
        for members in combinations(range(n), size):
            if sum(degree[x] for x in members) > limit:
                inside = sum(mult[a][b] for a, b in combinations(members, 2))
                halves[members] = limit // 2 - inside
    return halves


def test_tracked_sets_are_the_small_odd_sets_that_can_fire():
    # Every odd set of 3 and 5 vertices, in combinations order: a superset
    # of those that can fire.
    g = random_multigraph(FuzzConfig(n=9, max_multiplicity=2, edge_probability=0.7, seed=5))
    pairs = _pairs(g)
    m = g.max_degree()
    look = OddSetLookahead(g.vertex_count, pairs, m)
    assert LOOKAHEAD_SIZES == (3, 5)
    assert look.sets == tuple(
        u for size in (3, 5) for u in combinations(range(g.vertex_count), size)
    )
    can_fire = [u for u in _tracked(g.vertex_count, pairs, m) if len(u) in LOOKAHEAD_SIZES]
    assert any(len(u) == 5 for u in can_fire)
    assert set(can_fire) <= set(look.sets)


def test_bit_sliced_build_matches_the_combination_loop():
    rng = random.Random(3)
    checked = refuted = dropped = 0
    for trial in range(60):
        n = 3 + trial % 10
        g = random_multigraph(
            FuzzConfig(n=n, max_multiplicity=3, edge_probability=rng.choice((0.4, 0.7, 0.9)),
                       seed=trial)
        )
        pairs = _pairs(g)
        m = max(g.max_degree() + rng.choice((-1, 0, 0, 1, 3)), 1)
        reference = combination_loop_build(n, pairs, m)
        look = OddSetLookahead(n, pairs, m)
        assert look.refuted == any(h < 0 for h in reference.values()), (trial, m)
        truth = {u: _half_h(u, pairs, {}, m) for u in look.sets}
        assert look.refuted == (min(truth.values(), default=0) < 0)
        refuted += look.refuted
        dropped += len(reference) < len(truth)
        if not look.refuted:
            assert look.halves() == list(truth.values())
            assert all(truth[u] == h for u, h in reference.items())
            checked += 1
    assert checked >= 30 and refuted >= 5 and dropped >= 30


def test_a_long_odd_cycle_never_builds_the_layout():
    # 1001 vertices: about 8.3e12 odd sets of size 3 and 5, so the switch-on
    # point is far past the 1001 nodes the plain search needs.
    n = 1001
    g = build(n, [(i, (i + 1) % n) for i in range(n)])
    cached = coloring._lookahead_layout.cache_info().currsize
    counters = {}
    assert find_coloring(g, 2, lookahead=True, counters=counters) is None
    assert counters["lookahead_builds"] == 0 and counters["nodes"] == 1001
    assert coloring._lookahead_layout.cache_info().currsize == cached


def test_a_hard_search_on_40_vertices_never_builds():
    # 11 random perfect matchings on 40 vertices at 12 colors: the plain
    # search needs 29 976 nodes, past 1/32 node per odd set of size 3 and 5
    # but short of the 2 per set that cores past 16 vertices wait for.
    rng = random.Random(0)
    pairs = []
    for _ in range(11):
        order = list(range(40))
        rng.shuffle(order)
        pairs += [(order[i], order[i + 1]) for i in range(0, 40, 2)]
    g = build(40, pairs)
    sets = sum(comb(40, size) for size in LOOKAHEAD_SIZES)
    cached = coloring._lookahead_layout.cache_info().currsize
    counters = {}
    assert find_coloring(g, 12, lookahead=True, counters=counters) is not None
    assert counters == {"nodes": 29_976, "prunes": 0, "lookahead_builds": 0}
    assert sets / 32 < counters["nodes"] < 2 * sets
    assert coloring._lookahead_layout.cache_info().currsize == cached


class _Core(Exception):
    pass


def _chi_prime_core(n, edge_probability, seed):
    """The punctured core that decompose hands to chi-prime, and its palette."""

    def stop(core, m, *args, **kwargs):
        raise _Core(core, m)

    g = random_multigraph(
        FuzzConfig(n=n, max_multiplicity=2, edge_probability=edge_probability, seed=seed)
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decomposer, "find_coloring", stop)
        with pytest.raises(_Core) as caught:
            decomposer.decompose(g)
    return caught.value.args


# Cores of 17 to 20 touched vertices whose plain search meets dead ends.
LARGE_CORES = [(17, 0.85, 127), (17, 0.85, 128), (18, 0.9, 122), (19, 0.85, 109), (20, 0.9, 104)]


def test_large_cores_keep_the_plain_outcome_within_its_node_count(eager):
    pruned = 0
    for spec in LARGE_CORES:
        g, m = _chi_prime_core(*spec)
        expected, nodes = reference_search(g, m, REFERENCE_BUDGET)
        counters = {}
        got = find_coloring(g, m, budget=nodes, lookahead=True, counters=counters)
        assert same_outcome(got, expected), spec
        assert counters["nodes"] <= nodes and counters["lookahead_builds"] == 1
        pruned += counters["prunes"] > 0
    assert pruned == len(LARGE_CORES)


def test_a_large_core_tracks_the_sets_the_combination_loop_kept():
    # Past 16 vertices the table keeps only the sets whose degree sum
    # exceeds m(|U|-1), in combinations order, and no layout is cached.
    cached = coloring._lookahead_layout.cache_info().currsize
    for spec in LARGE_CORES[:3]:
        g, m = _chi_prime_core(*spec)
        pairs = _pairs(g)
        reference = combination_loop_build(g.vertex_count, pairs, m)
        look = OddSetLookahead(g.vertex_count, pairs, m)
        assert not look.refuted
        assert look.sets == tuple(reference)
        assert look.halves() == list(reference.values())
        assert max(look.member).bit_length() <= len(reference)
    assert coloring._lookahead_layout.cache_info().currsize == cached


def test_a_large_core_answers_as_the_full_table_does(monkeypatch):
    # Color greedily, denser endpoints first as the search does, then
    # uncolor in random order: the squeezed table fires exactly when the
    # full one does and holds the same h/2 on the sets it keeps.
    g, m = _chi_prime_core(*LARGE_CORES[0])
    pairs = _pairs(g)
    n = g.vertex_count
    look = OddSetLookahead(n, pairs, m)
    monkeypatch.setattr(coloring, "LOOKAHEAD_SMALL_CORE", n)
    full = OddSetLookahead(n, pairs, m)
    assert len(look.sets) < len(full.sets)
    position = {u: i for i, u in enumerate(full.sets)}
    kept = [position[u] for u in look.sets]
    degree = [0] * n
    for u, v in pairs:
        degree[u] += 1
        degree[v] += 1
    order = sorted(pairs, key=lambda e: -(degree[e[0]] + degree[e[1]]))
    used = [0] * n
    colored = []
    fired = 0
    for step, (u, v) in enumerate(order):
        free = ~(used[u] | used[v]) & ((1 << m) - 1)
        if free:
            bit = free & -free
            used[u] |= bit
            used[v] |= bit
            colored.append((u, v, bit))
            fine = look.color(u, v, bit)
            assert fine == full.color(u, v, bit)
            fired += not fine
        if step % 40 == 0:
            halves = full.halves()
            assert look.halves() == [halves[i] for i in kept]
    assert fired
    random.Random(1).shuffle(colored)
    for step, (u, v, bit) in enumerate(colored):
        look.uncolor(u, v, bit)
        full.uncolor(u, v, bit)
        if step % 40 == 0:
            halves = full.halves()
            assert look.halves() == [halves[i] for i in kept]
    assert look.halves() == list(combination_loop_build(n, pairs, m).values())


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
