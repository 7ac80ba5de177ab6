import random

import pytest

from conftest import c5, digon, doubled_triangle, k4, k5, nested_optimal, petersen
from covdex import (
    AugmentationFailed,
    CoverDecomposition,
    FailureReport,
    StageAssertionFailed,
    VertexOutOfRange,
    build,
    decompose,
    gupta_bound,
    map_back,
    regularize,
    verify_decomposition,
)
from covdex.coloring import EdgeColoring
from covdex.decomposer import (
    DecomposeOptions,
    Puncture,
    _extend_to_pendants,
    contract_blocks,
    orient_and_augment,
    puncture,
)
from covdex.density import OddSetTable, SplitCandidates
from covdex.multigraph import Edge, Multigraph, SplitRecord, SplitTrace
from covdex.oracle import FuzzConfig, random_multigraph
from reference import boundary_counts, is_connected


def decomposed_ok(g):
    result = decompose(g)
    assert isinstance(result, CoverDecomposition), getattr(result, "message", None)
    verdict = verify_decomposition(g, [sorted(c) for c in result.covers])
    assert verdict.ok, verdict.problems
    return result


def test_regularize_no_splits_when_already_regular(k4):
    h, trace = regularize(OddSetTable(k4, range(4)), 2)
    assert h is k4 or h.edges == k4.edges
    assert trace.records == ()


def test_regularize_brings_degrees_down_to_k_plus_one():
    # 5-cycle with doubled edges, plus two extra parallel edges at vertex 0:
    # k = 3 and vertex 0 starts at degree k+3.
    base = [(i, (i + 1) % 5) for i in range(5)] * 2
    g = build(5, base + [(0, 1), (0, 4)])
    b = gupta_bound(g)
    assert b.k == 3
    assert g.degree(0) == b.k + 3
    h, trace = regularize(OddSetTable(g, range(5)), b.k)
    assert len(trace.records) == sum(max(0, d - (b.k + 1)) for d in g.degrees())
    for v in range(5):
        assert h.degree(v) == b.k + 1
    for record in trace.records:
        assert h.degree(record.new_vertex) == 1
    assert sum(h.degrees()) == 2 * len(h.edges)


def test_regularize_rebuild_catches_what_the_split_checks_miss(monkeypatch):
    # Six parallel edges per pair: degree 12 and co-density 9.  At k = 10
    # the triangle starts below the bound; with the first-split check and
    # the candidates' answers blinded, only the recounted table is left.
    g = build(3, [(0, 1), (1, 2), (0, 2)] * 6)
    below = OddSetTable.below
    asked = []

    def blind_first(self, k):
        asked.append(k)
        return len(asked) > 1 and below(self, k)

    monkeypatch.setattr(OddSetTable, "below", blind_first)
    monkeypatch.setattr(SplitCandidates, "split", lambda self, x, y: (False, []))
    with pytest.raises(StageAssertionFailed, match="fell below the bound 10 unnoticed"):
        regularize(OddSetTable(g, range(3)), 10)
    assert asked == [10, 10]


def test_regularize_recount_catches_slacks_the_candidates_missed(monkeypatch):
    # Candidates that never see their splits keep their starting slacks.
    g = random_multigraph(FuzzConfig(n=8, max_multiplicity=2, edge_probability=0.7, seed=0))
    monkeypatch.setattr(SplitCandidates, "split", lambda self, x, y: (False, []))
    with pytest.raises(StageAssertionFailed, match="tracked across the splits differ"):
        regularize(OddSetTable(g, range(8)), gupta_bound(g).k)


def test_regularize_rejects_low_degree():
    with pytest.raises(StageAssertionFailed):
        regularize(OddSetTable(c5(), range(5)), 2)


def test_regularize_rejects_a_table_over_other_vertices():
    g = doubled_triangle()
    for universe in ((0, 1), (2, 1, 0)):
        with pytest.raises(StageAssertionFailed, match="not the graph's vertices 0..2"):
            regularize(OddSetTable(g, universe), 3)
    # A universe past the graph's vertices is refused by the table itself.
    with pytest.raises(VertexOutOfRange, match="universe vertex 3 out of range for n=3"):
        OddSetTable(g, (0, 1, 2, 3))
    assert regularize(OddSetTable(g, range(3)), 3)[0] is g


def test_puncture_nothing_without_optimal_sets(k4):
    h1, punctures = puncture(OddSetTable(k4, range(4)), 2)
    assert punctures == ()
    assert h1.edges == k4.edges


def test_puncture_removes_one_internal_edge_per_block():
    g = doubled_triangle()
    h1, punctures = puncture(OddSetTable(g, range(3)), 3)
    assert len(punctures) == 1
    p = punctures[0]
    assert p.block == frozenset({0, 1, 2})
    assert p.edge == 0  # smallest internal edge id
    assert (p.x, p.y) == (0, 1)
    internal, _, _ = boundary_counts(h1, p.block)
    assert internal == (3 + 2) * (3 - 1) // 2  # (k+2)(|U|-1)/2


def test_contract_blocks_merges_and_checks_degree():
    g = doubled_triangle()
    h1, punctures = puncture(OddSetTable(g, range(3)), 3)
    h2, vmap, merged, degree_ok = contract_blocks(h1, punctures, 3, True)
    assert h2.vertex_count == 1
    assert h2.edges == ()
    assert merged == [0]
    assert degree_ok
    assert set(vmap.values()) == {0}


@pytest.mark.parametrize(
    "maker,expect_k",
    [
        (c5, 1),
        (k4, 2),
        (k5, 3),
        (digon, 1),
        (petersen, 2),
        (doubled_triangle, 3),
        (nested_optimal, 5),
    ],
)
def test_decompose_named_instances(maker, expect_k):
    g = maker()
    result = decomposed_ok(g)
    assert result.k == expect_k
    assert len(result.covers) == expect_k


def test_decompose_two_disjoint_blocks():
    # two doubled triangles side by side: both vertex sets are optimal, so
    # the pipeline punctures and contracts two blocks at once
    pairs = [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)]
    pairs += [(3, 4), (3, 4), (4, 5), (4, 5), (3, 5), (3, 5)]
    g = build(6, pairs)
    result = decomposed_ok(g)
    assert result.k == 3
    assert result.stages["blocks"] == 2


def test_decompose_trivial_inputs():
    assert decompose(build(2, [(0, 1)])).k == 0  # single edge: k = 0
    assert decompose(build(0, [])).covers == ()
    assert decompose(build(3, [(0, 1)])).k == 0  # isolated vertex forces delta 0


def test_decompose_covers_are_original_edge_ids():
    g = nested_optimal()
    result = decomposed_ok(g)
    all_ids = {e.id for e in g.edges}
    used = set()
    for cover in result.covers:
        assert cover <= all_ids
        assert not (cover & used)
        used |= cover


def test_decompose_reports_failure_outside_hypotheses():
    g = random_multigraph(
        FuzzConfig(n=5, max_multiplicity=5, edge_probability=0.7, seed=200000)
    )
    b = gupta_bound(g)
    assert g.max_multiplicity() > 2 and b.k > 6  # outside both hypotheses
    result = decompose(g)
    assert isinstance(result, FailureReport)
    assert result.stage == "special-coloring"
    assert not result.hypotheses_held
    assert result.state is not None
    assert result.to_dict()["failed_stage"] == "special-coloring"


def test_map_back_identity_without_splits():
    sets = [frozenset({1, 2}), frozenset({3})]
    assert map_back(sets, SplitTrace()) == sets


def test_map_back_resolves_chains():
    trace = SplitTrace(
        (
            SplitRecord(new_vertex=5, original_vertex=0, moved_edge=2, new_edge=10),
            SplitRecord(new_vertex=6, original_vertex=1, moved_edge=10, new_edge=11),
        )
    )
    assert map_back([frozenset({11, 3})], trace) == [frozenset({2, 3})]


def test_decompose_handles_disconnected_graphs():
    # two triangles side by side, doubled edges in one of them
    pairs = [(0, 1), (1, 2), (0, 2)] + [(3, 4), (4, 5), (3, 5)] * 2
    g = build(6, pairs)
    assert not is_connected(g)
    result = decomposed_ok(g)
    assert result.k == gupta_bound(g).k


def test_decompose_stage_report_is_deterministic():
    g = nested_optimal()
    first = decompose(g)
    second = decompose(g)
    assert first.to_dict() == second.to_dict()


def test_end_to_end_fuzz_within_hypotheses():
    done = 0
    seed = 31_000
    while done < 150:
        n = 3 + seed % 5
        g = random_multigraph(
            FuzzConfig(n=n, max_multiplicity=2, edge_probability=0.6, seed=seed)
        )
        seed += 1
        if not g.edges:
            continue
        done += 1
        decomposed_ok(g)


def test_end_to_end_fuzz_small_k_hypothesis():
    done = 0
    seed = 77_000
    while done < 100:
        n = 3 + seed % 4
        g = random_multigraph(
            FuzzConfig(n=n, max_multiplicity=3, edge_probability=0.7, seed=seed)
        )
        seed += 1
        if not g.edges or gupta_bound(g).k > 6:
            continue
        done += 1
        decomposed_ok(g)


@pytest.mark.parametrize("seed", [7, 28, 34, 37])
def test_dense_cores_that_exhausted_the_plain_solver_decompose(seed):
    # n = 8 at edge probability 0.93, k = 11: without the odd-set look-ahead
    # the chi-prime search on these cores ran past 10^7 nodes.
    g = random_multigraph(
        FuzzConfig(n=8, max_multiplicity=2, edge_probability=0.93, seed=seed)
    )
    result = decompose(g, DecomposeOptions(color_budget=50_000))
    assert isinstance(result, CoverDecomposition), getattr(result, "message", None)
    assert result.k == 11 == gupta_bound(g).k
    verdict = verify_decomposition(g, [sorted(c) for c in result.covers])
    assert verdict.ok, verdict.problems


def test_run_record_counts_moves_and_stays_out_of_the_payload():
    # Two planted tight blocks of five vertices each, k = 6: the recoloring
    # of the contracted graph makes one move.
    pairs = [(0, 2), (0, 3), (0, 3), (0, 4), (1, 0), (1, 0), (1, 2), (1, 3), (1, 4)]
    pairs += [(1, 4), (2, 1), (2, 3), (2, 4), (3, 0), (3, 2), (4, 2), (4, 3), (4, 6)]
    pairs += [(5, 6), (5, 7), (5, 7), (5, 8), (5, 9), (5, 9), (5, 9), (6, 7), (6, 7)]
    pairs += [(6, 8), (6, 8), (6, 9), (7, 8), (7, 8), (7, 9), (8, 9), (8, 9)]
    g = build(10, pairs)
    first = decomposed_ok(g)
    assert first.k == 6 and first.stages["blocks"] == 2
    counters = first.run["counters"]
    assert counters["moves.recolor-first"] == 1
    assert counters["nodes"] > 0 and counters["prunes"] >= 0
    assert counters["lookahead_builds"] == 1  # chi-prime reached a dead end
    second = decompose(g)
    assert first == second  # spans differ, but the run record is not compared
    assert "run" not in first.to_dict()


# orient_and_augment on crafted colorings with k = 1: palette 3, the low
# color 1 and the reserve colors 2 and 3.  A Puncture's block is not read
# there, and its edge id only joins a cover.


def oriented(pairs, colors, punctures=()):
    g = build(1 + max(max(p) for p in pairs), pairs)
    psi = EdgeColoring(3, dict(enumerate(colors)))
    return orient_and_augment(g, psi, list(punctures), 1, g.vertex_count)


def designated(x, y=None):
    return Puncture(frozenset({x}), x, x if y is None else y, 99)


def test_orient_two_edge_reserve_cycle_starts_along_smaller_edge_id():
    # Edges 1 and 2 join 0 and 1 in colors 3 and 2; edge 0 carries color 1.
    covers, orientation = oriented([(0, 1)] * 3, [1, 3, 2])
    assert orientation.arcs == ((0, 1, 1), (1, 0, 2))
    assert covers == [frozenset({0})]


def test_orient_even_cycle_starts_at_smallest_vertex_toward_smaller_neighbor():
    # The 4-cycle 0-3-1-2-0: from 0 the smaller neighbor is 2, over edge 3.
    _, orientation = oriented([(0, 3), (3, 1), (1, 2), (2, 0)], [2, 3, 2, 3])
    assert orientation.arcs == ((0, 2, 3), (2, 1, 2), (1, 3, 1), (3, 0, 0))


def test_orient_reverses_a_path_whose_smaller_endpoint_is_designated():
    # The reserve path 0-1-2 with 0 designated (its punctured edge ends at 3)
    # runs from 2 to 0, so vertex 0, which misses color 1, gets an in-arc.
    pairs = [(0, 1), (1, 2), (1, 3), (2, 4)]
    covers, orientation = oriented(pairs, [2, 3, 1, 1], [designated(0, 3)])
    assert orientation.arcs == ((2, 1, 1), (1, 0, 0))
    assert covers == [frozenset({0, 2, 3})]


def test_orient_rejects_a_reserve_path_between_designated_vertices():
    punctures = [designated(0), designated(2)]
    with pytest.raises(AugmentationFailed, match="reserve path joins designated vertices 0 and 2"):
        oriented([(0, 1), (1, 2)], [2, 3], punctures)


def test_orient_rejects_a_designated_vertex_with_both_reserve_colors():
    with pytest.raises(AugmentationFailed, match="designated vertex 1 has reserve degree 2"):
        oriented([(0, 1), (1, 2)], [2, 3], [designated(1)])


def augment_failure(pairs, colors, k, punctures=()):
    g = build(1 + max(max(p) for p in pairs), pairs)
    psi = EdgeColoring(k + 2, dict(enumerate(colors)))
    with pytest.raises(AugmentationFailed) as caught:
        orient_and_augment(g, psi, list(punctures), k, g.vertex_count)
    return str(caught.value)


def test_augment_gap_checks():
    # k = 2: vertex 0 sees only the reserve color 3, so both low classes miss it.
    assert augment_failure([(0, 1)], [3], 2) == "vertex 0 missed by 2 classes"
    # k = 1: the reserve path 0-1 runs from 0, so 0 has no in-arc to patch with.
    assert augment_failure([(0, 1)], [2], 1) == "missed vertex 0 has no in-arc"
    # k = 3: a punctured edge's end may be missed twice, not three times.
    assert augment_failure([(0, 1)], [4], 3, [designated(1, 0)]) == (
        "vertex 0 missed by 3 classes"
    )
    # k = 2: the punctured edge's end 0 is missed twice, and the reserve
    # path 0-1 runs away from it.
    assert augment_failure([(0, 1)], [3], 2, [designated(1, 0)]) == (
        "doubly-missed vertex 0 has no in-arc"
    )


def test_augment_rejects_an_improper_coloring():
    assert augment_failure([(0, 1), (1, 2)], [2, 2], 1) == "lifted coloring is not proper"


def test_orient_emits_paths_before_cycles():
    # The reserve digon on 0 and 1 comes after the path 2-3-4.
    pairs = [(0, 1), (0, 1), (2, 3), (3, 4), (2, 5)]
    _, orientation = oriented(pairs, [2, 3, 2, 3, 1])
    assert orientation.arcs == ((2, 3, 2), (3, 4, 3), (0, 1, 0), (1, 0, 1))


def listed_extend_to_pendants(h1, core, palette):
    """The pendant extension as it was: per uncolored edge, in edge-id
    order, the set of colors on the colored edges at both of its ends."""
    colors = dict(core.assignment)
    for e in sorted(h1.edges, key=lambda e: e.id):
        if e.id in colors:
            continue
        used = {colors[f.id] for w in (e.u, e.v) for f in h1.incident(w) if f.id in colors}
        for c in range(1, palette + 1):
            if c not in used:
                colors[e.id] = c
                break
        else:
            raise StageAssertionFailed("chi-prime", f"no free color for pendant edge {e.id}")
    return EdgeColoring(palette, colors)


def test_extend_to_pendants_matches_the_per_edge_color_sets():
    rng = random.Random(3)
    extended = failed = 0
    for seed in range(300):
        g = random_multigraph(
            FuzzConfig(
                n=4 + seed % 9, max_multiplicity=1 + seed % 3, edge_probability=0.6, seed=seed
            )
        )
        # Edge ids out of order, as splits append them, and a core of
        # colored edges (not always properly) with the rest left open.
        ids = rng.sample(range(3 * len(g.edges) + 1), len(g.edges))
        h1 = Multigraph(g.vertex_count, tuple(Edge(i, e.u, e.v) for i, e in zip(ids, g.edges)))
        palette = rng.randrange(1, 9)
        core = EdgeColoring(
            palette,
            {e.id: rng.randrange(1, palette + 1) for e in h1.edges if rng.random() < 0.6},
        )
        try:
            expected = listed_extend_to_pendants(h1, core, palette)
        except StageAssertionFailed as exc:
            with pytest.raises(StageAssertionFailed) as info:
                _extend_to_pendants(h1, core, palette)
            assert str(info.value) == str(exc)
            failed += 1
        else:
            assert _extend_to_pendants(h1, core, palette) == expected
            extended += 1
    assert extended >= 50 and failed >= 50
