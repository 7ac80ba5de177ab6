import gc
import itertools
import random

import pytest

from conftest import doubled_triangle, k3, k5
from covdex import dense_lift
from covdex import (
    DensityMismatch,
    LiftInvariantViolated,
    NoFeasiblePermutation,
    assemble_lift,
    build,
    decompose,
    find_coloring,
    is_proper,
    is_s_dense,
    make_block,
    permute_block_palette,
)
from covdex.coloring import EdgeColoring, color_masks, two_color_incidence
from covdex.decomposer import DecomposeOptions
from covdex.dense_lift import BlockColoring, check_lift_properties
from covdex.multigraph import Edge, Multigraph, induced_subgraph
from reference import color_class, missing, without_edge
from test_output_digests import planted_five_block, planted_two_triangles


def matching_union(n, s, seed):
    """An s-dense graph built as a union of s near-perfect matchings.

    Its chromatic index is exactly s: the construction gives s classes, and
    s(n-1)/2 edges cannot fit into fewer matchings of size (n-1)/2.
    """
    rng = random.Random(seed)
    pairs = []
    for _ in range(s):
        verts = list(range(n))
        rng.shuffle(verts)
        verts.pop()  # the missed vertex
        for i in range(0, len(verts), 2):
            pairs.append((verts[i], verts[i + 1]))
    return build(n, pairs)


def checked_block(block, s, initial):
    """The s-coloring ``initial`` of a whole graph taken as a block, after
    ``make_block``'s checks."""
    return make_block(block, block.vertices(), 0, 1, s, initial=initial).coloring


def test_color_dense_block_k3():
    coloring = checked_block(k3(), 3, initial=find_coloring(k3(), 3))
    for c in range(1, 4):
        assert len(color_class(coloring, c)) == 1
    g = k3()
    for v in range(3):
        assert len(missing(coloring, g, v)) == 1


def test_color_dense_block_k5():
    g = k5()
    coloring = checked_block(g, 5, initial=find_coloring(g, 5))
    for c in range(1, 6):
        assert len(color_class(coloring, c)) == 2  # near-perfect on 5 vertices


def test_color_dense_block_path():
    g = build(3, [(0, 1), (1, 2)])
    coloring = checked_block(g, 2, initial=find_coloring(g, 2))
    assert color_class(coloring, 1) != color_class(coloring, 2)
    assert missing(coloring, g, 1) == frozenset()


def test_color_dense_block_rejects_wrong_counts():
    with pytest.raises(DensityMismatch):
        checked_block(k3(), 4, initial=find_coloring(k3(), 4))  # 3 edges != 4*(3-1)/2
    with pytest.raises(DensityMismatch):
        even = build(4, [(0, 1), (2, 3)])
        checked_block(even, 1, initial=find_coloring(even, 1))  # even order


def test_color_dense_block_accepts_matching_unions():
    for seed in range(25):
        n = (5, 7, 9)[seed % 3]
        s = 2 + seed % 4
        g = matching_union(n, s, seed)
        assert is_s_dense(g) == s
        coloring = checked_block(g, s, initial=find_coloring(g, s))
        miss = [missing(coloring, g, v) for v in g.vertices()]
        for a, b in itertools.combinations(range(n), 2):
            assert not (miss[a] & miss[b])
        for v in g.vertices():
            assert len(miss[v]) == s - g.degree(v)


def fixed_k3_block(x=1, y=2):
    return BlockColoring(
        vertices=(0, 1, 2),
        graph=k3(),
        coloring=EdgeColoring(3, {0: 1, 1: 2, 2: 3}),
        x=x,
        y=y,
    )


def test_permute_without_boundary_steers_top_class_off_x():
    host = k3()
    bc = fixed_k3_block(x=1)
    out = permute_block_palette(bc, {}, host, 1)  # palette s = k+2 = 3
    top_edges = color_class(out.coloring, 3)
    assert all(not host.edge(e).touches(1) for e in top_edges)
    assert is_proper(bc.graph, out.coloring)


def test_permute_single_boundary_requirement_is_forced():
    # Host: triangle 0,1,2 plus an outside vertex with one edge at 0.
    host = build(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    bc = fixed_k3_block(x=1)
    # vertex 0 misses local class 2 (its edges carry 1 and 3), so requiring
    # color 1 on the boundary edge forces the bijection to send 2 -> 1.
    out = permute_block_palette(bc, {3: 1}, host, 1)
    assert color_class(out.coloring, 1) == color_class(bc.coloring, 2)
    top_edges = color_class(out.coloring, 3)
    assert all(not host.edge(e).touches(1) for e in top_edges)


def test_permute_requires_distinct_boundary_colors():
    host = build(4, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3)])
    bc = fixed_k3_block()
    from covdex import PreconditionViolated

    with pytest.raises(PreconditionViolated):
        permute_block_palette(bc, {3: 1, 4: 1}, host, 1)


def test_permute_rejects_an_improper_block_coloring():
    from covdex import PreconditionViolated

    bc = BlockColoring((0, 1, 2), k3(), EdgeColoring(3, {0: 1, 1: 1, 2: 3}), 1, 2)
    with pytest.raises(PreconditionViolated, match="block coloring is not proper"):
        permute_block_palette(bc, {}, k3(), 1)


def test_permute_infeasible_when_one_vertex_needs_two_colors():
    # two boundary edges at vertex 0, but a degree-2 vertex of a 3-dense
    # block misses only one class: no bijection can serve both.
    host = build(4, [(0, 1), (1, 2), (0, 2), (0, 3), (0, 3)])
    bc = fixed_k3_block()
    with pytest.raises(NoFeasiblePermutation):
        permute_block_palette(bc, {3: 1, 4: 2}, host, 1)


def brute_force_feasible(bc, requirements, host, s):
    inside = set(bc.vertices)
    local_missing = {
        v: missing(bc.coloring, bc.graph, v) for v in bc.graph.vertices()
    }
    for perm in itertools.permutations(range(1, s + 1)):
        to_global = {local: perm[local - 1] for local in range(1, s + 1)}
        ok = True
        for eid, color in requirements.items():
            e = host.edge(eid)
            w = e.u if e.u in inside else e.v
            local_w = bc.vertices.index(w)
            if color not in {to_global[loc] for loc in local_missing[local_w]}:
                ok = False
                break
        if ok:
            x_local = bc.vertices.index(bc.x)
            if s not in {to_global[loc] for loc in local_missing[x_local]}:
                ok = False
        if ok:
            return True
    return False


def test_permute_agrees_with_exhaustive_bijection_search():
    rng = random.Random(7)
    agreements = feasible_count = 0
    while agreements < 40:
        n, s = 5, rng.randint(3, 5)
        block_graph = matching_union(n, s, rng.randrange(10**6))
        coloring = checked_block(block_graph, s, initial=find_coloring(block_graph, s))
        outside = n + 2
        boundary = []
        used_colors = rng.sample(range(1, s + 1), min(s - 1, rng.randint(0, 3)))
        host_pairs = [(e.u, e.v) for e in block_graph.edges]
        requirements = {}
        next_eid = len(host_pairs)
        for color in used_colors:
            w = rng.randrange(n)
            host_pairs.append((w, n + len(boundary) % 2))
            boundary.append(w)
            requirements[next_eid] = color
            next_eid += 1
        host = build(outside, host_pairs)
        bc = BlockColoring(
            vertices=tuple(range(n)),
            graph=block_graph,
            coloring=coloring,
            x=rng.randrange(n),
            y=0,
        )
        expected = brute_force_feasible(bc, requirements, host, s)
        k = s - 2
        try:
            out = permute_block_palette(bc, requirements, host, k)
            got = True
        except NoFeasiblePermutation:
            got = False
        assert got == expected
        if got:
            feasible_count += 1
            inside = set(bc.vertices)
            for eid, color in requirements.items():
                e = host.edge(eid)
                w = e.u if e.u in inside else e.v
                assert color in missing(out.coloring, bc.graph, bc.vertices.index(w))
            x_local = bc.vertices.index(bc.x)
            assert s in missing(out.coloring, bc.graph, x_local)
        agreements += 1
    assert feasible_count > 0


def test_assemble_lift_without_blocks_returns_outer():
    g = k3()
    outer = EdgeColoring(3, {0: 1, 1: 2, 2: 3})
    psi, masks, incidence = assemble_lift(g, outer, [], 1)
    assert psi.assignment == outer.assignment
    # The lift check's masks come back with psi; with no block it walks no
    # chain, so it builds no (k+1, k+2) incidence.
    assert masks == color_masks(g, psi)
    assert incidence is None


def test_assemble_lift_single_block_no_boundary():
    # The doubled triangle punctured at its first edge: one block, nothing
    # outside, so the assembled coloring is the permuted block coloring.
    h1 = without_edge(doubled_triangle(), 0)
    block_graph = induced_subgraph(h1, {0, 1, 2})
    coloring = checked_block(block_graph, 5, initial=find_coloring(block_graph, 5))
    bc = BlockColoring(vertices=(0, 1, 2), graph=block_graph, coloring=coloring, x=0, y=1)
    fixed = permute_block_palette(bc, {}, h1, 3)
    outer = EdgeColoring(5, {})
    psi, masks, _ = assemble_lift(h1, outer, [fixed], 3)
    assert masks == color_masks(h1, psi)
    assert is_proper(h1, psi)
    assert all(not h1.edge(e).touches(0) for e in color_class(psi, 5))


# --- the lift checks ------------------------------------------------------
#
# Each crafted coloring below is proper, so the checks are reached in the
# order the pipeline reaches them; each test pins the property number and
# the message of the check that fires.


def lift_violation(h1, psi, blocks, k):
    with pytest.raises(LiftInvariantViolated) as caught:
        check_lift_properties(h1, psi, blocks, k)
    return caught.value.prop, str(caught.value)


def host_block(vertices, x):
    # check_lift_properties reads a block's host vertices and x alone.
    return BlockColoring(vertices=vertices, graph=None, coloring=None, x=x, y=vertices[-1])


def test_lift_property_1_boundary_edge_with_the_top_color():
    # Triangle 0,1,2 with boundary edge 3 = (0,3) colored s = 3.
    h1 = build(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    psi = EdgeColoring(3, {0: 1, 1: 3, 2: 2, 3: 3})
    assert lift_violation(h1, psi, [host_block((0, 1, 2), 1)], 1) == (
        1,
        "lift property 1: boundary edge 3 carries color 3",
    )


def test_lift_property_2_chain_through_a_boundary_edge_is_a_cycle():
    # The (2,3)-chain 0 -2- 3 -3- 4 -2- 1 -3- 0 leaves block {0,1,2} by
    # edge 2 and comes back by edge 4.
    h1 = build(5, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 1)])
    psi = EdgeColoring(3, {0: 3, 1: 1, 2: 2, 3: 3, 4: 2})
    assert lift_violation(h1, psi, [host_block((0, 1, 2), 2)], 1) == (
        2,
        "lift property 2: chain through edge 2 is a cycle",
    )


def test_lift_property_2_chain_ending_inside_another_block():
    # Edge 2 = (0,3) joins blocks {0,1,2} and {3,4,5}; neither end sees
    # color 3, so its (2,3)-chain is that one edge, with no outside end.
    h1 = build(6, [(0, 1), (1, 2), (0, 3), (3, 4), (4, 5)])
    psi = EdgeColoring(3, {0: 1, 1: 2, 2: 2, 3: 1, 4: 2})
    blocks = [host_block((0, 1, 2), 2), host_block((3, 4, 5), 5)]
    assert lift_violation(h1, psi, blocks, 1) == (
        2,
        "lift property 2: chain through edge 2 ends at (0, 3), "
        "not outside the blocks",
    )


def test_lift_property_2_block_vertex_without_the_color_k_plus_1():
    # k = 2: the (3,4)-chain 3 -3- 0 -4- 2 ends outside, but vertices 1
    # and 2 of block {0,1,2} see no edge colored 3.
    h1 = build(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    psi = EdgeColoring(4, {0: 1, 1: 2, 2: 4, 3: 3})
    assert lift_violation(h1, psi, [host_block((0, 1, 2), 1)], 2) == (
        2,
        "lift property 2: block vertex 1 does not present color 3",
    )


def test_lift_property_3_top_class_at_the_designated_vertex():
    h1 = k3()
    psi = EdgeColoring(3, {0: 1, 1: 2, 2: 3})  # edge 2 = (0,2) carries s = 3
    assert lift_violation(h1, psi, [host_block((0, 1, 2), 0)], 1) == (
        3,
        "lift property 3: top class touches designated vertex 0",
    )
    check_lift_properties(h1, psi, [host_block((0, 1, 2), 1)], 1)  # x = 1 is missed


def test_lift_check_returns_the_masks_and_the_incidence_of_its_chain_walks():
    # Boundary edge 3 = (0,3) carries k+1 = 2; its (2,3)-chain 3-0-2-1 ends
    # outside at 3, and every block vertex presents color 2.
    h1 = build(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    psi = EdgeColoring(3, {0: 1, 1: 2, 2: 3, 3: 2})
    masks, incidence = check_lift_properties(h1, psi, [host_block((0, 1, 2), 1)], 1)
    assert masks == color_masks(h1, psi)
    assert incidence == two_color_incidence(psi, h1, 2, 3)


def test_lift_check_reads_given_boundaries_instead_of_finding_them(monkeypatch):
    h1 = build(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    psi = EdgeColoring(3, {0: 1, 1: 2, 2: 3, 3: 2})
    blocks = [host_block((0, 1, 2), 1)]
    found = check_lift_properties(h1, psi, blocks, 1)
    _, boundaries = dense_lift.block_edges(h1, [(0, 1, 2)])
    monkeypatch.setattr(dense_lift, "block_edges", None)
    assert check_lift_properties(h1, psi, blocks, 1, boundaries=boundaries) == found
    # Given boundaries are trusted: without edge 3 no chain is walked.
    assert check_lift_properties(h1, psi, blocks, 1, boundaries=[[]])[1] is None


def test_decompose_finds_each_graph_s_block_edges_once(monkeypatch):
    # puncture on the regularized graph, then chi-prime on the punctured
    # one; the lift check reuses chi-prime's boundaries.
    calls = []
    real = dense_lift.block_edges

    def counting(host, blocks):
        calls.append(host.vertex_count)
        return real(host, blocks)

    monkeypatch.setattr(dense_lift, "block_edges", counting)
    for g in (planted_two_triangles(), planted_five_block()):
        calls.clear()
        result = decompose(g)
        assert result.stages["blocks"] == 2 and len(calls) == 2


# A certify-dense benchmark instance (seed 1, instance 3) whose chi-prime
# search builds the look-ahead.
CERTIFY_DENSE = [
    (0, 1), (0, 1), (0, 2), (0, 2), (0, 3), (0, 3), (0, 4), (0, 4), (0, 5), (0, 5), (0, 6),
    (0, 6), (0, 7), (0, 7), (1, 2), (1, 3), (1, 4), (1, 4), (1, 5), (1, 6), (1, 6), (1, 7),
    (1, 7), (2, 3), (2, 3), (2, 4), (2, 4), (2, 5), (2, 5), (2, 6), (2, 6), (2, 7), (2, 7),
    (3, 4), (3, 5), (3, 5), (3, 6), (3, 6), (3, 7), (3, 7), (4, 5), (4, 5), (4, 6), (4, 6),
    (4, 7), (4, 7), (5, 6), (5, 6), (5, 7), (5, 7), (6, 7), (6, 7),
]


def test_decompose_leaves_no_cyclic_garbage():
    # The palette matching once recursed through a closure: one
    # function-cell cycle per call, left for the cyclic collector.
    graphs = [planted_two_triangles(), planted_five_block(), build(8, CERTIFY_DENSE)]
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        results = [decompose(g, DecomposeOptions(color_budget=5_000)) for g in graphs]
        gc.collect()
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert [r.run["counters"]["lookahead_builds"] for r in results] == [0, 1, 1]
    assert all(r.k for r in results) and garbage == 0


class UncheckedGraph(Multigraph):
    """A Multigraph built without validation.  On any valid s-dense block
    a proper s-coloring already forces the right missing counts and
    disjoint missing sets, so only a loop, which ``Multigraph`` rejects,
    reaches those two checks."""

    def __post_init__(self):
        pass


def block_violation(block, s, initial):
    with pytest.raises(LiftInvariantViolated) as caught:
        dense_lift._dense_block_masks(block, s, initial)
    return caught.value.prop, str(caught.value)


def test_color_dense_block_property_0_class_size():
    # Edge id 9 is not in the block, but it still counts toward class 1.
    initial = EdgeColoring(3, {0: 1, 1: 2, 2: 3, 9: 1})
    assert block_violation(k3(), 3, initial) == (
        0,
        "lift property 0: class 1 is not a near-perfect matching",
    )


def test_color_dense_block_property_0_missing_count():
    # The loop at vertex 0 counts twice in its degree but brings one color.
    block = UncheckedGraph(3, (Edge(0, 0, 0), Edge(1, 1, 2)))
    assert block_violation(block, 2, EdgeColoring(2, {0: 1, 1: 2})) == (
        0,
        "lift property 0: vertex 0 missed by 1 classes",
    )


def test_color_dense_block_property_0_shared_missing_class():
    # Class 2 sits on the loop at vertex 2, so vertices 0 and 1 both miss it.
    block = UncheckedGraph(3, (Edge(0, 0, 1), Edge(1, 2, 2)))
    assert block_violation(block, 2, EdgeColoring(2, {0: 1, 1: 2})) == (
        0,
        "lift property 0: vertices 0,1 share a missing class",
    )
