import itertools
import random

import pytest

from conftest import doubled_triangle, k3, k5
from covdex import (
    DensityMismatch,
    NoFeasiblePermutation,
    assemble_lift,
    build,
    color_dense_block,
    find_coloring,
    is_proper,
    is_s_dense,
    make_block,
    missing,
    permute_block_palette,
)
from covdex.coloring import EdgeColoring
from covdex.dense_lift import BlockColoring
from covdex.multigraph import induced_subgraph


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


def test_color_dense_block_k3():
    coloring = color_dense_block(k3(), 3, initial=find_coloring(k3(), 3))
    for c in range(1, 4):
        assert len(coloring.color_class(c)) == 1
    g = k3()
    for v in range(3):
        assert len(missing(coloring, g, v)) == 1


def test_color_dense_block_k5():
    g = k5()
    coloring = color_dense_block(g, 5, initial=find_coloring(g, 5))
    for c in range(1, 6):
        assert len(coloring.color_class(c)) == 2  # near-perfect on 5 vertices


def test_color_dense_block_path():
    g = build(3, [(0, 1), (1, 2)])
    coloring = color_dense_block(g, 2, initial=find_coloring(g, 2))
    assert coloring.color_class(1) != coloring.color_class(2)
    assert missing(coloring, g, 1) == frozenset()


def test_color_dense_block_rejects_wrong_counts():
    with pytest.raises(DensityMismatch):
        color_dense_block(k3(), 4, initial=find_coloring(k3(), 4))  # 3 edges != 4*(3-1)/2
    with pytest.raises(DensityMismatch):
        even = build(4, [(0, 1), (2, 3)])
        color_dense_block(even, 1, initial=find_coloring(even, 1))  # even order


def test_color_dense_block_accepts_matching_unions():
    for seed in range(25):
        n = (5, 7, 9)[seed % 3]
        s = 2 + seed % 4
        g = matching_union(n, s, seed)
        assert is_s_dense(g) == s
        coloring = color_dense_block(g, s, initial=find_coloring(g, s))
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
    top_edges = out.coloring.color_class(3)
    assert all(not host.edge(e).touches(1) for e in top_edges)
    assert is_proper(bc.graph, out.coloring)


def test_permute_single_boundary_requirement_is_forced():
    # Host: triangle 0,1,2 plus an outside vertex with one edge at 0.
    host = build(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    bc = fixed_k3_block(x=1)
    # vertex 0 misses local class 2 (its edges carry 1 and 3), so requiring
    # color 1 on the boundary edge forces the bijection to send 2 -> 1.
    out = permute_block_palette(bc, {3: 1}, host, 1)
    assert out.coloring.color_class(1) == bc.coloring.color_class(2)
    top_edges = out.coloring.color_class(3)
    assert all(not host.edge(e).touches(1) for e in top_edges)


def test_permute_requires_distinct_boundary_colors():
    host = build(4, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3)])
    bc = fixed_k3_block()
    from covdex import PreconditionViolated

    with pytest.raises(PreconditionViolated):
        permute_block_palette(bc, {3: 1, 4: 1}, host, 1)


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
        coloring = color_dense_block(block_graph, s, initial=find_coloring(block_graph, s))
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
    psi = assemble_lift(g, outer, [], 1)
    assert psi.assignment == outer.assignment


def test_assemble_lift_single_block_no_boundary():
    # The doubled triangle punctured at its first edge: one block, nothing
    # outside, so the assembled coloring is the permuted block coloring.
    h1 = doubled_triangle().without_edge(0)
    block_graph = induced_subgraph(h1, {0, 1, 2})
    coloring = color_dense_block(block_graph, 5, initial=find_coloring(block_graph, 5))
    bc = BlockColoring(vertices=(0, 1, 2), graph=block_graph, coloring=coloring, x=0, y=1)
    fixed = permute_block_palette(bc, {}, h1, 3)
    outer = EdgeColoring(5, {})
    psi = assemble_lift(h1, outer, [fixed], 3)
    assert is_proper(h1, psi)
    assert all(not h1.edge(e).touches(0) for e in psi.color_class(5))
