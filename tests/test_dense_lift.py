import gc
import itertools
import random
from collections import Counter

import pytest

from conftest import doubled_triangle, k3, k5
from covdex import dense_lift
from covdex import (
    CovdexError,
    DensityMismatch,
    LiftInvariantViolated,
    NoFeasiblePermutation,
    PreconditionViolated,
    assemble_lift,
    build,
    decompose,
    find_coloring,
    is_proper,
    is_s_dense,
    make_block,
    permute_block_palette,
)
from covdex.coloring import EdgeColoring, chains, color_masks
from covdex.decomposer import DecomposeOptions
from covdex.dense_lift import BlockColoring, check_lift_properties
from covdex.multigraph import Edge, induced_subgraph
from reference import (
    color_class,
    induced_block_masks,
    lift_verdict,
    max_bipartite_matching,
    missing,
    without_edge,
)
from test_output_digests import PINNED, planted_five_block, planted_two_triangles


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
    return make_block(block, block.vertices(), block.edges, 0, 1, s, initial=initial).coloring


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


def fixed_k3_block(host, x=1, y=2):
    """The triangle 0,1,2 of ``host`` (its edges 0, 1, 2) colored 1, 2, 3,
    as ``make_block`` checks it."""
    inside = [e for e in host.edges if e.id < 3]
    initial = EdgeColoring(3, {0: 1, 1: 2, 2: 3})
    return make_block(host, (0, 1, 2), inside, x, y, 3, initial=initial)


def outer_colors(host, requirements):
    """(edge, outer color) pairs for a map from host edge ids to colors."""
    return [(host.edge(eid), color) for eid, color in requirements.items()]


def test_permute_without_boundary_steers_top_class_off_x():
    host = k3()
    bc = fixed_k3_block(host, x=1)
    out = permute_block_palette(bc, [], 1)  # palette s = k+2 = 3
    top_edges = color_class(out.coloring, 3)
    assert all(not host.edge(e).touches(1) for e in top_edges)
    assert is_proper(host, out.coloring)


def test_permute_single_boundary_requirement_is_forced():
    # Host: triangle 0,1,2 plus an outside vertex with one edge at 0.
    host = build(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    bc = fixed_k3_block(host, x=1)
    # vertex 0 misses local class 2 (its edges carry 1 and 3), so requiring
    # color 1 on the boundary edge forces the bijection to send 2 -> 1.
    out = permute_block_palette(bc, outer_colors(host, {3: 1}), 1)
    assert color_class(out.coloring, 1) == color_class(bc.coloring, 2)
    top_edges = color_class(out.coloring, 3)
    assert all(not host.edge(e).touches(1) for e in top_edges)


def test_permute_requires_distinct_boundary_colors():
    host = build(4, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3)])
    bc = fixed_k3_block(host)
    with pytest.raises(PreconditionViolated):
        permute_block_palette(bc, outer_colors(host, {3: 1, 4: 1}), 1)


def test_permute_rejects_a_block_without_masks():
    # make_block sets the masks; its own checks reject an improper coloring.
    bc = BlockColoring((0, 1, 2), EdgeColoring(3, {0: 1, 1: 2, 2: 3}), 1, 2)
    with pytest.raises(PreconditionViolated, match="block has no color masks"):
        permute_block_palette(bc, [], 1)


def test_permute_infeasible_when_one_vertex_needs_two_colors():
    # two boundary edges at vertex 0, but a degree-2 vertex of a 3-dense
    # block misses only one class: no bijection can serve both.
    host = build(4, [(0, 1), (1, 2), (0, 2), (0, 3), (0, 3)])
    bc = fixed_k3_block(host)
    with pytest.raises(NoFeasiblePermutation):
        permute_block_palette(bc, outer_colors(host, {3: 1, 4: 2}), 1)


def brute_force_feasible(bc, requirements, host, s):
    inside = set(bc.vertices)
    block_graph = induced_subgraph(host, bc.vertices)
    local_missing = {
        v: missing(bc.coloring, block_graph, v) for v in block_graph.vertices()
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
        inside = host.edges[: len(block_graph.edges)]
        bc = make_block(host, range(n), inside, rng.randrange(n), 0, s, initial=coloring)
        expected = brute_force_feasible(bc, requirements, host, s)
        k = s - 2
        try:
            out = permute_block_palette(bc, outer_colors(host, requirements), k)
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
                assert color in missing(out.coloring, block_graph, bc.vertices.index(w))
            x_local = bc.vertices.index(bc.x)
            assert s in missing(out.coloring, block_graph, x_local)
        agreements += 1
    assert feasible_count > 0


def test_permute_refuses_a_boundary_edge_without_one_end_in_the_block():
    # Edge 4 = (3,4) has no end in the triangle 0,1,2; edge 0 = (0,1) both.
    host = build(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4)])
    bc = fixed_k3_block(host)
    for eid in (4, 0):
        with pytest.raises(
            PreconditionViolated,
            match=f"^boundary edge {eid} must have just one end in the block$",
        ):
            permute_block_palette(bc, outer_colors(host, {eid: 2}), 1)


def test_permute_refuses_masks_with_a_shared_missing_class():
    # Hand-built masks: vertex 0 misses classes 2 and 3, vertex 2 misses
    # class 2 as well, which no proper coloring of a dense block gives.
    host = build(5, [(0, 1), (1, 2), (0, 2), (0, 3), (2, 4)])
    masks = [0b0010, 0b0110, 0b1010, 0, 0]
    bc = BlockColoring((0, 1, 2), EdgeColoring(3, {0: 1, 1: 2, 2: 3}), 1, 2, masks)
    with pytest.raises(PreconditionViolated, match="^block vertices share a missing class$"):
        permute_block_palette(bc, outer_colors(host, {3: 1, 4: 2}), 1)


def test_permute_gives_the_reference_matching_bijection():
    # On seeded dense blocks with random boundary colors, the bijection is
    # the one the augmenting-path matching finds, or both find none.
    rng = random.Random(29)
    seen = Counter()
    for case in range(240):
        n, s = rng.choice((3, 5, 7)), rng.randint(3, 6)
        block_graph = matching_union(n, s, case)
        half = (n - 1) // 2
        # matching_union lays the classes out in order, half edges each.
        coloring = EdgeColoring(s, {e.id: e.id // half + 1 for e in block_graph.edges})
        miss = [missing(coloring, block_graph, v) for v in range(n)]
        classes = [sum(1 << c for c in m) for m in miss]
        multi = [v for v in range(n) if len(miss[v]) >= 2]
        x = rng.randrange(n)
        pairs = [(e.u, e.v) for e in block_graph.edges]
        ends = {}  # boundary edge id -> (block end, outer color)
        for color in rng.sample(range(1, s + 1), rng.randint(0, s - 1)):
            w = rng.choice(multi) if multi and rng.random() < 0.5 else rng.randrange(n)
            ends[len(pairs)] = (w, color)
            pairs.append((w, n + len(pairs) % 2))
        host = build(n + 2, pairs)
        inside = host.edges[: len(block_graph.edges)]
        bc = make_block(host, range(n), inside, x, 0, s, initial=coloring)
        requirements = {eid: color for eid, (_, color) in ends.items()}
        wants = {color: classes[w] for w, color in ends.values()}
        wants[s] = wants.get(s, classes[x]) & classes[x]
        matching = max_bipartite_matching(wants)
        # Colors wanting each vertex's classes; a top color that is also a
        # boundary color is counted once, at its boundary edge's end.
        at = Counter(w for w, _ in ends.values())
        at[x] += s not in requirements.values()
        seen["two colors at one vertex", bool(matching)] += max(at.values()) >= 2
        seen["top color at x", bool(matching)] += (x, s) in ends.values()
        if not matching:
            seen["infeasible"] += 1
            with pytest.raises(NoFeasiblePermutation, match="^no palette bijection satisfies"):
                permute_block_palette(bc, outer_colors(host, requirements), s - 2)
            continue
        to_global = {local: glob for glob, local in matching.items()}
        free_local = [c for c in range(1, s + 1) if c not in to_global]
        to_global.update(zip(free_local, [c for c in range(1, s + 1) if c not in matching]))
        out = permute_block_palette(bc, outer_colors(host, requirements), s - 2)
        assert out.coloring == EdgeColoring(
            s, {eid: to_global[c] for eid, c in coloring.assignment.items()}
        )
        seen["feasible"] += 1
    # Feasible and infeasible cases, each with two colors wanting one
    # vertex's classes and with the top color on a boundary edge at x.
    assert min(seen.values()) >= 5 and len(seen) == 6, seen


def test_assemble_lift_without_blocks_returns_outer():
    g = k3()
    outer = EdgeColoring(3, {0: 1, 1: 2, 2: 3})
    psi, masks, reserve = assemble_lift(g, outer, [], 1, [])
    assert psi.assignment == outer.assignment
    # The lift check's masks and (k+1, k+2) chains come back with psi, also
    # with no block.
    assert masks == color_masks(g, psi)
    assert reserve == chains(psi, g, 2, 3)


def test_assemble_lift_single_block_no_boundary():
    # The doubled triangle punctured at its first edge: one block, nothing
    # outside, so the assembled coloring is the permuted block coloring.
    h1 = without_edge(doubled_triangle(), 0)
    block_graph = induced_subgraph(h1, {0, 1, 2})
    initial = find_coloring(block_graph, 5)
    bc = make_block(h1, (0, 1, 2), h1.edges, 0, 1, 5, initial=initial)
    fixed = permute_block_palette(bc, [], 3)
    outer = EdgeColoring(5, {})
    psi, masks, _ = assemble_lift(h1, outer, [fixed], 3, [[]])
    assert masks == color_masks(h1, psi)
    assert is_proper(h1, psi)
    assert all(not h1.edge(e).touches(0) for e in color_class(psi, 5))


# --- the lift checks ------------------------------------------------------
#
# Each crafted coloring below is proper, so the checks are reached in the
# order the pipeline reaches them; each test pins the property number and
# the message of the check that fires.


def lift_check(h1, psi, blocks, k):
    _, boundaries = dense_lift.block_edges(h1, [bc.vertices for bc in blocks])
    return check_lift_properties(h1, psi, blocks, k, boundaries)


def lift_violation(h1, psi, blocks, k):
    with pytest.raises(LiftInvariantViolated) as caught:
        lift_check(h1, psi, blocks, k)
    return caught.value.prop, str(caught.value)


def host_block(vertices, x):
    # check_lift_properties reads a block's host vertices and x alone.
    return BlockColoring(vertices=vertices, coloring=None, x=x, y=vertices[-1])


def test_lift_property_1_boundary_edge_with_the_top_color():
    # Triangle 0,1,2 with boundary edge 3 = (0,3) colored s = 3.
    h1 = build(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    psi = EdgeColoring(3, {0: 1, 1: 3, 2: 2, 3: 3})
    assert lift_violation(h1, psi, [host_block((0, 1, 2), 1)], 1) == (
        1,
        "lift property 1: boundary edge 3 carries color 3",
    )


def boundary_chain_cycle():
    # The (2,3)-chain 0 -2- 3 -3- 4 -2- 1 -3- 0 leaves block {0,1,2} by
    # edge 2 and comes back by edge 4.
    h1 = build(5, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 1)])
    psi = EdgeColoring(3, {0: 3, 1: 1, 2: 2, 3: 3, 4: 2})
    return h1, psi, [host_block((0, 1, 2), 2)], 1


def boundary_chain_into_another_block():
    # Edge 2 = (0,3) joins blocks {0,1,2} and {3,4,5}; neither end sees
    # color 3, so its (2,3)-chain is that one edge, with no outside end.
    h1 = build(6, [(0, 1), (1, 2), (0, 3), (3, 4), (4, 5)])
    psi = EdgeColoring(3, {0: 1, 1: 2, 2: 2, 3: 1, 4: 2})
    return h1, psi, [host_block((0, 1, 2), 2), host_block((3, 4, 5), 5)], 1


def boundary_chain_with_an_end_in_another_block():
    # The (2,3)-chain 3 -2- 0 -3- 1 -2- 7 leaves block {0,1,2} by edges 0
    # and 2; it ends outside at 7, but also in block {3,4,5} at 3.
    h1 = build(8, [(0, 3), (0, 1), (1, 7), (1, 2), (3, 4), (4, 5)])
    psi = EdgeColoring(3, {0: 2, 1: 3, 2: 2, 3: 1, 4: 1, 5: 2})
    return h1, psi, [host_block((0, 1, 2), 2), host_block((3, 4, 5), 5)], 1


def block_vertices_without_k_plus_1():
    # k = 2: the (3,4)-chain 3 -3- 0 -4- 2 ends outside, but vertices 1
    # and 2 of block {0,1,2} see no edge colored 3.
    h1 = build(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    psi = EdgeColoring(4, {0: 1, 1: 2, 2: 4, 3: 3})
    return h1, psi, [host_block((0, 1, 2), 1)], 2


PROPERTY_2_VIOLATIONS = [
    boundary_chain_cycle,
    boundary_chain_into_another_block,
    boundary_chain_with_an_end_in_another_block,
    block_vertices_without_k_plus_1,
]


def test_lift_property_2_chain_through_a_boundary_edge_is_a_cycle():
    assert lift_violation(*boundary_chain_cycle()) == (
        2,
        "lift property 2: chain through edge 2 is a cycle",
    )


def test_lift_property_2_chain_ending_inside_another_block():
    assert lift_violation(*boundary_chain_into_another_block()) == (
        2,
        "lift property 2: chain through edge 2 ends at (0, 3), "
        "not outside the blocks",
    )


def test_lift_property_2_chain_with_an_end_in_another_block():
    assert lift_violation(*boundary_chain_with_an_end_in_another_block()) == (
        2,
        "lift property 2: chain through edge 0 ends at (3, 7), "
        "not outside the blocks",
    )


def test_lift_property_2_block_vertex_without_the_color_k_plus_1():
    # Both 1 and 2 miss color 3; the least of them is named.
    assert lift_violation(*block_vertices_without_k_plus_1()) == (
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
    lift_check(h1, psi, [host_block((0, 1, 2), 1)], 1)  # x = 1 is missed


def test_lift_check_returns_the_masks_and_the_chains():
    # Boundary edge 3 = (0,3) carries k+1 = 2; its (2,3)-chain 3-0-2-1 ends
    # outside at 3, and every block vertex presents color 2.
    h1 = build(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    psi = EdgeColoring(3, {0: 1, 1: 2, 2: 3, 3: 2})
    masks, reserve = lift_check(h1, psi, [host_block((0, 1, 2), 1)], 1)
    assert masks == color_masks(h1, psi)
    assert reserve == chains(psi, h1, 2, 3)


def test_lift_check_reads_given_boundaries_instead_of_finding_them(monkeypatch):
    h1 = build(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    psi = EdgeColoring(3, {0: 1, 1: 2, 2: 3, 3: 2})
    blocks = [host_block((0, 1, 2), 1)]
    found = color_masks(h1, psi), chains(psi, h1, 2, 3)
    _, boundaries = dense_lift.block_edges(h1, [(0, 1, 2)])
    monkeypatch.setattr(dense_lift, "block_edges", None)
    assert check_lift_properties(h1, psi, blocks, 1, boundaries) == found
    # Given boundaries are trusted: without edge 3 the check still passes.
    assert check_lift_properties(h1, psi, blocks, 1, [[]]) == found


def test_lift_check_rejects_a_boundary_list_of_another_length():
    # Boundary edge 3 = (0,3) carries the top color 3 (property 1); a
    # shorter list of boundaries must not skip the block's checks.
    h1 = build(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    psi = EdgeColoring(3, {0: 1, 1: 3, 2: 2, 3: 3})
    blocks = [host_block((0, 1, 2), 1)]
    with pytest.raises(PreconditionViolated, match="^1 blocks but 0 boundary lists$"):
        check_lift_properties(h1, psi, blocks, 1, [])
    assert lift_violation(h1, psi, blocks, 1)[0] == 1
    with pytest.raises(PreconditionViolated, match="^0 blocks but 1 boundary lists$"):
        assemble_lift(h1, psi, [], 1, [[]])


def recorded_lifts(monkeypatch, makers):
    """Every lift check that ``decompose`` makes on the graphs of the
    makers, as (h1, psi, blocks, k, boundaries)."""
    seen = []
    real = dense_lift.check_lift_properties

    def recording(h1, psi, blocks, k, boundaries):
        seen.append((h1, psi, blocks, k, boundaries))
        return real(h1, psi, blocks, k, boundaries)

    monkeypatch.setattr(dense_lift, "check_lift_properties", recording)
    for maker in makers:
        decompose(maker())
    return seen


def recolored_lifts(lifts, rng):
    """Each lift, then the lift with colors c and k+1 swapped for every
    low color c (the top class stays, so property 2 is what may break),
    and two palette permutations of it."""
    for h1, psi, blocks, k, boundaries in lifts:
        yield h1, psi, blocks, k, boundaries
        s = k + 2
        perms = []
        for c in range(1, k + 1):
            perm = list(range(s + 1))
            perm[c], perm[k + 1] = k + 1, c
            perms.append(perm)
        for _ in range(2):
            perms.append([0] + rng.sample(range(1, s + 1), s))
        for perm in perms:
            swapped = EdgeColoring(s, {eid: perm[c] for eid, c in psi.assignment.items()})
            yield h1, swapped, blocks, k, boundaries


def test_lift_check_matches_an_independent_chain_walker(monkeypatch):
    rng = random.Random(3)
    lifts = recorded_lifts(monkeypatch, [maker for maker, _ in PINNED])
    monkeypatch.undo()
    crafted = []
    for case in PROPERTY_2_VIOLATIONS:
        h1, psi, blocks, k = case()
        _, boundaries = dense_lift.block_edges(h1, [bc.vertices for bc in blocks])
        crafted.append((h1, psi, blocks, k, boundaries))
    verdicts = []
    for h1, psi, blocks, k, boundaries in [*recolored_lifts(lifts, rng), *crafted]:
        pairs = [(bc.vertices, bc.x) for bc in blocks]
        expected = check_outcome(lambda: lift_verdict(h1, psi, pairs, k, boundaries))
        got = check_outcome(lambda: check_lift_properties(h1, psi, blocks, k, boundaries))
        if expected is None:
            assert got == (color_masks(h1, psi), chains(psi, h1, k + 1, k + 2))
        else:
            assert got == expected
        verdicts.append(expected)
    failed = [message for verdict in verdicts if verdict is not None for message in verdict[1:]]
    # Lifts with blocks from at least three graphs, and many passing cases;
    # properties 1 to 3 each break, property 2 in each of its three ways.
    assert len({id(lift[0]) for lift in lifts if lift[2]}) >= 3
    assert sum(verdict is None for verdict in verdicts) >= 10
    for needle in ("property 1:", "property 3:", "is a cycle", "not outside", "not present"):
        assert any(needle in message for message in failed), needle


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


# On any valid s-dense block a proper s-coloring already forces the right
# missing counts and disjoint missing sets, so only a loop, which
# ``Multigraph`` rejects, reaches those two checks: the block check reads a
# raw list of host edges, and the cases below pass loops in it.


def block_violation(inside, s, initial):
    with pytest.raises(LiftInvariantViolated) as caught:
        dense_lift._dense_block_masks(build(3, []), (0, 1, 2), inside, s, initial)
    return caught.value.prop, str(caught.value)


def test_color_dense_block_property_0_class_size():
    # Edge id 9 is not in the block, but it still counts toward class 1.
    initial = EdgeColoring(3, {0: 1, 1: 2, 2: 3, 9: 1})
    assert block_violation(k3().edges, 3, initial) == (
        0,
        "lift property 0: class 1 is not a near-perfect matching",
    )


def test_color_dense_block_property_0_missing_count():
    # The loop at vertex 0 counts twice in its degree but brings one color.
    inside = [Edge(0, 0, 0), Edge(1, 1, 2)]
    assert block_violation(inside, 2, EdgeColoring(2, {0: 1, 1: 2})) == (
        0,
        "lift property 0: vertex 0 missed by 1 classes",
    )


def test_color_dense_block_property_0_shared_missing_class():
    # Class 2 sits on the loop at vertex 2, so vertices 0 and 1 both miss it.
    inside = [Edge(0, 0, 1), Edge(1, 2, 2)]
    assert block_violation(inside, 2, EdgeColoring(2, {0: 1, 1: 2})) == (
        0,
        "lift property 0: vertices 0,1 share a missing class",
    )


def decompose_blocks(monkeypatch, makers):
    """Every block that ``decompose`` checks on the graphs of the makers,
    as ``make_block`` receives it: (host, vertices, inside edges, s,
    initial coloring)."""
    seen = []
    real = dense_lift.make_block

    def recording(host, vertices, inside, x, y, s, *, initial):
        seen.append((host, tuple(sorted(vertices)), inside, s, initial))
        return real(host, vertices, inside, x, y, s, initial=initial)

    monkeypatch.setattr(dense_lift, "make_block", recording)
    for maker in makers:
        decompose(maker())
    return seen


def crafted_colorings(inside, s, initial, rng):
    """The block's own coloring, two palette permutations of it, and
    colorings that each break one of the block checks, with the palette
    each is checked at."""
    colors = dict(initial.assignment)
    perm = list(range(1, s + 1))
    for _ in range(2):
        rng.shuffle(perm)
        yield s, EdgeColoring(s, {eid: perm[c - 1] for eid, c in colors.items()})
    yield s, initial
    yield s + 1, initial  # the edge count is not (s+1)(|V|-1)/2
    yield s - 1, initial
    yield s, EdgeColoring(s + 1, colors)  # palette is not s
    a, b = inside[0], inside[-1]
    yield s, EdgeColoring(s, {eid: c for eid, c in colors.items() if eid != a.id})
    yield s, EdgeColoring(s, {**colors, a.id: s + 1})  # out of range
    clash = [e for e in inside if e.id != a.id and {e.u, e.v} & {a.u, a.v}]
    if clash:
        yield s, EdgeColoring(s, {**colors, a.id: colors[clash[0].id]})  # improper
    yield s, EdgeColoring(s, {**colors, max(colors) + 1: colors[b.id]})  # a class too big


def check_outcome(check):
    try:
        return check()
    except CovdexError as exc:
        return type(exc), str(exc)


def test_host_edge_block_check_matches_the_induced_graph_reference(monkeypatch):
    rng = random.Random(5)
    blocks = decompose_blocks(monkeypatch, [maker for maker, _ in PINNED])
    outcomes = []
    for host, verts, inside, s, initial in blocks:
        for palette, coloring in crafted_colorings(inside, s, initial, rng):
            expected = check_outcome(lambda: induced_block_masks(host, verts, palette, coloring))
            got = check_outcome(
                lambda: dense_lift._dense_block_masks(host, verts, inside, palette, coloring)
            )
            if isinstance(got, list):
                # Host-wide masks: the block's vertices carry the reference's.
                assert not any(got[v] for v in host.vertices() if v not in verts)
                got = [got[v] for v in verts]
            assert got == expected
            outcomes.append(expected if isinstance(expected, tuple) else list)
    kinds = {kind if kind is list else kind[0] for kind in outcomes}
    # Blocks of 3 and of 5 vertices, from at least four graphs.
    assert {len(b[1]) for b in blocks} == {3, 5} and len({id(b[0]) for b in blocks}) >= 4
    assert kinds == {list, DensityMismatch, PreconditionViolated, LiftInvariantViolated}
