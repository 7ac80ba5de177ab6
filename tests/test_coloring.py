import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import c5, digon, k3, k4, k5, petersen
from covdex import (
    BudgetExhausted,
    build,
    chain,
    chains,
    color_masks,
    find_coloring,
    is_proper,
    is_s_dense,
    kempe_swap,
)
from covdex.coloring import EdgeColoring
from covdex.oracle import FuzzConfig, random_multigraph
from reference import missing, present


def k3_coloring():
    # edges 0:(0,1) 1:(1,2) 2:(0,2) colored 1,2,3
    return EdgeColoring(3, {0: 1, 1: 2, 2: 3})


def test_present_missing_k3():
    g, c = k3(), k3_coloring()
    for v in range(3):
        assert len(missing(c, g, v)) == 1
        assert present(c, g, v) | missing(c, g, v) == {1, 2, 3}
        assert not present(c, g, v) & missing(c, g, v)


def test_missing_at_isolated_vertex_is_whole_palette():
    g = build(3, [(0, 1)])
    c = EdgeColoring(4, {0: 2})
    assert missing(c, g, 2) == {1, 2, 3, 4}


def test_digon_with_two_colors_misses_nothing():
    g = digon()
    c = EdgeColoring(2, {0: 1, 1: 2})
    assert missing(c, g, 0) == frozenset()
    assert missing(c, g, 1) == frozenset()


def test_chain_path_through_k3():
    g, c = k3(), k3_coloring()
    ch = chain(c, g, 0, 1, 2)
    assert ch.kind == "path"
    assert ch.vertices == (0, 1, 2)
    assert ch.edges == (0, 1)


def test_chain_trivial_when_both_colors_missing():
    g = k3()
    ch = chain(EdgeColoring(5, {0: 1, 1: 2, 2: 3}), g, 0, 4, 5)
    assert not ch.edges and ch.vertices == (0,) and ch.kind == "path"


def test_chain_even_cycle():
    g = build(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    c = EdgeColoring(2, {0: 1, 1: 2, 2: 1, 3: 2})
    ch = chain(c, g, 2, 1, 2)
    assert ch.kind == "cycle"
    assert len(ch.edges) == 4
    assert ch.vertices[0] == 0  # canonical rotation


def test_chain_digon_is_two_cycle():
    g = digon()
    c = EdgeColoring(2, {0: 1, 1: 2})
    ch = chain(c, g, 0, 1, 2)
    assert ch.kind == "cycle"
    assert len(ch.edges) == 2


def test_chain_oriented_from():
    g, c = k3(), k3_coloring()
    ch = chain(c, g, 0, 1, 2)
    verts, eids = ch.oriented_from(2)
    assert verts == (2, 1, 0)
    assert eids == (1, 0)
    with pytest.raises(ValueError):
        ch.oriented_from(1)


def test_kempe_swap_trivial_chain_is_identity():
    g, c = k3(), k3_coloring()
    ch = chain(EdgeColoring(5, c.assignment), g, 0, 4, 5)
    swapped = kempe_swap(EdgeColoring(5, c.assignment), ch)
    assert swapped.assignment == c.assignment


def test_kempe_swap_involution_and_endpoint_flip():
    g, c = k3(), k3_coloring()
    ch = chain(c, g, 0, 1, 2)
    assert missing(c, g, 0) == {2} and missing(c, g, 2) == {1}
    once = kempe_swap(c, ch)
    assert is_proper(g, once)
    # path endpoints exchange their missing chain color
    assert missing(once, g, 0) == {1} and missing(once, g, 2) == {2}
    twice = kempe_swap(once, ch)
    assert twice.assignment == c.assignment


def test_kempe_swap_rejects_stale_chain():
    g, c = k3(), k3_coloring()
    ch = chain(c, g, 0, 1, 2)
    recolored = c.with_colors({0: 3, 2: 1})
    with pytest.raises(ValueError):
        kempe_swap(recolored, ch)


def test_find_coloring_k3():
    assert find_coloring(k3(), 3) is not None
    assert find_coloring(k3(), 2) is None


def test_find_coloring_petersen():
    g = petersen()
    assert find_coloring(g, 3) is None  # exhaustive: no 3-edge-coloring exists
    four = find_coloring(g, 4)
    assert four is not None and is_proper(g, four)


def test_find_coloring_budget_is_a_distinct_outcome():
    with pytest.raises(BudgetExhausted):
        find_coloring(petersen(), 3, budget=5)


def test_find_coloring_empty_and_zero_palette():
    g = build(3, [])
    assert find_coloring(g, 0) is not None
    assert find_coloring(k3(), 0) is None


def chromatic_index(g):
    """Smallest m admitting a proper m-edge-coloring, by the solver itself
    (so not an independent reference)."""
    if not g.edges:
        return 0
    for m in range(g.max_degree(), len(g.edges) + 1):
        if find_coloring(g, m) is not None:
            return m
    raise AssertionError("unreachable: |E| colors always suffice")


@pytest.mark.parametrize(
    "graph,chi",
    [(k3(), 3), (digon(), 2), (k4(), 3), (c5(), 3), (k5(), 5), (petersen(), 4)],
)
def test_chromatic_index_named(graph, chi):
    assert chromatic_index(graph) == chi


def test_is_s_dense():
    assert is_s_dense(k3()) == 3
    assert is_s_dense(k5()) == 5
    assert is_s_dense(k4()) is None  # even order
    assert is_s_dense(build(3, [(0, 1), (1, 2)])) == 2
    assert is_s_dense(build(3, [])) is None  # s = 0 does not count
    assert is_s_dense(c5()) is None  # 2|E|/(n-1) = 10/4


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=9999))
def test_solver_output_is_proper_and_swaps_preserve_it(seed):
    rng = random.Random(seed)
    g = random_multigraph(FuzzConfig(n=rng.randint(3, 8), max_multiplicity=2, seed=seed))
    if not g.edges:
        return
    m = g.max_degree() + 2
    coloring = find_coloring(g, m)
    assert coloring is not None
    assert is_proper(g, coloring)
    v = rng.randrange(g.vertex_count)
    a, b = rng.sample(range(1, m + 1), 2)
    ch = chain(coloring, g, v, a, b)
    swapped = kempe_swap(coloring, ch)
    assert is_proper(g, swapped)
    assert kempe_swap(swapped, ch).assignment == coloring.assignment


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=9999))
def test_chains_partition_two_color_subgraph(seed):
    rng = random.Random(seed)
    g = random_multigraph(FuzzConfig(n=rng.randint(3, 8), max_multiplicity=2, seed=seed))
    if not g.edges:
        return
    m = g.max_degree() + 2  # enough colors for multiplicity 2
    coloring = find_coloring(g, m)
    if m < 2:
        return
    a, b = 1, 2
    covered = set()
    edge_sets = []
    for v in g.vertices():
        ch = chain(coloring, g, v, a, b)
        if not ch.edges:
            continue
        if frozenset(ch.edges) not in edge_sets:
            assert not (set(ch.vertices) & covered)
            covered |= set(ch.vertices)
            edge_sets.append(frozenset(ch.edges))
    two_colored = {e.id for e in g.edges if coloring.assignment[e.id] in (a, b)}
    assert set().union(*edge_sets) == two_colored if edge_sets else not two_colored
    # chains() lists each nontrivial component once, as chain() gives it
    # from any of its vertices: the paths, then the cycles, by first vertex.
    listed = chains(coloring, g, a, b)
    assert len(listed) == len(edge_sets)
    assert {frozenset(ch.edges) for ch in listed} == set(edge_sets)
    assert listed == sorted(listed, key=lambda ch: (ch.kind == "cycle", ch.vertices[0]))
    for ch in listed:
        for v in ch.vertices:
            assert chain(coloring, g, v, a, b) == ch


def list_and_set_is_proper(g, coloring):
    """is_proper as it was written before its one-pass form: a range check
    over the edges, then a list and a set of the colors at each vertex."""
    for e in g.edges:
        c = coloring.assignment.get(e.id)
        if c is None or not (1 <= c <= coloring.palette):
            return False
    for v in g.vertices():
        seen = [coloring.assignment[e.id] for e in g.incident(v)]
        if len(seen) != len(set(seen)):
            return False
    return True


def test_is_proper_matches_the_list_and_set_check():
    rng = random.Random(31)
    verdicts = {True: 0, False: 0}
    faults = {"missing": 0, "out of range": 0, "repeated": 0}
    for seed in range(600):
        g = random_multigraph(
            FuzzConfig(n=rng.randint(1, 8), max_multiplicity=rng.randint(1, 3), seed=seed)
        )
        # A greedy proper coloring, then at most one fault of each kind.
        assignment = {}
        for e in g.edges:
            near = {assignment.get(f.id) for w in (e.u, e.v) for f in g.incident(w)}
            assignment[e.id] = min(c for c in range(1, len(near) + 2) if c not in near)
        palette = max(assignment.values(), default=1) + rng.choice((0, 0, 1))
        if len(g.edges) >= 2 and rng.random() < 0.3:
            e = rng.choice(g.edges)
            neighbors = [f for w in (e.u, e.v) for f in g.incident(w) if f.id != e.id]
            if neighbors:
                assignment[e.id] = assignment[rng.choice(neighbors).id]
                faults["repeated"] += 1
        if g.edges and rng.random() < 0.2:
            del assignment[rng.choice(g.edges).id]
            faults["missing"] += 1
        if g.edges and rng.random() < 0.2:
            assignment[rng.choice(g.edges).id] = rng.choice((0, -1, palette + 1, palette + 7))
            faults["out of range"] += 1
        coloring = EdgeColoring(palette, assignment)
        verdict = is_proper(g, coloring)
        assert verdict == list_and_set_is_proper(g, coloring)
        verdicts[verdict] += 1
    assert min(verdicts.values()) >= 100
    assert min(faults.values()) >= 50


@st.composite
def colored_multigraphs(draw):
    """A multigraph on 2..6 vertices with an arbitrary partial coloring:
    ids may be uncolored, colors may fall outside the palette, and a
    vertex may repeat a color."""
    n = draw(st.integers(min_value=2, max_value=6))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(
                lambda p: (p[0], (p[0] + p[1]) % n)
            ),
            max_size=12,
        )
    )
    palette = draw(st.integers(min_value=1, max_value=6))
    colors = draw(
        st.lists(
            st.one_of(st.none(), st.integers(-1, palette + 2)),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    assignment = {i: c for i, c in enumerate(colors) if c is not None}
    return build(n, pairs), EdgeColoring(palette, assignment)


def greedy_coloring(g):
    """A proper coloring: each edge in id order takes the least color free
    at both ends; the palette is the largest color used."""
    assignment = {}
    for e in g.edges:
        near = {assignment.get(f.id) for w in (e.u, e.v) for f in g.incident(w)}
        assignment[e.id] = min(c for c in range(1, len(near) + 2) if c not in near)
    return EdgeColoring(max(assignment.values(), default=1), assignment)


def mask_of(colors):
    return sum(1 << c for c in colors)


@settings(max_examples=150, deadline=None)
@given(colored_multigraphs())
def test_color_masks_are_the_present_sets_of_a_proper_coloring(case):
    g, _ = case
    coloring = greedy_coloring(g)
    masks = color_masks(g, coloring)
    assert masks is not None
    assert masks == [mask_of(present(coloring, g, v)) for v in g.vertices()]


@settings(max_examples=300, deadline=None)
@given(colored_multigraphs())
def test_color_masks_verdict_is_is_proper_on_any_coloring(case):
    g, coloring = case
    masks = color_masks(g, coloring)
    assert (masks is not None) == is_proper(g, coloring) == list_and_set_is_proper(g, coloring)
    if masks is not None:
        assert masks == [mask_of(present(coloring, g, v)) for v in g.vertices()]
