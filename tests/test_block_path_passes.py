"""The block path's one-pass stages against their chained references, and
the work each ``decompose`` does per coloring.

``puncture`` drops every victim edge from one graph and ``contract_blocks``
contracts every block in one pass; both must give exactly what chained
``without_edge`` and ``contract_set`` calls give.  The coloring stages
build each coloring's color masks once and hand them on; the lift check
walks each (k+1, k+2) chain of the lifted coloring once, and the
orientation reads those chains.
"""

import importlib
import random
from collections import Counter
from functools import cached_property

import pytest

import covdex
from conftest import nested_optimal, petersen
from covdex import build, decompose, dense_lift
from covdex.coloring import chains
from covdex.decomposer import Puncture, contract_blocks, puncture, regularize
from covdex.density import OddSetTable, all_min_optimal_sets, gupta_bound
from covdex.multigraph import Multigraph
from covdex.oracle import FuzzConfig, random_multigraph
from reference import contract_set, without_edge
from test_output_digests import (
    planted_five_block,
    planted_two_triangles,
    two_doubled_triangles,
)


def chained_puncture(table, k):
    h1 = table.graph
    punctures = []
    for cert in all_min_optimal_sets(h1, k, table.universe, table=table):
        members = cert.as_set()
        victim = min(
            (e for e in h1.edges if e.u in members and e.v in members), key=lambda e: e.id
        )
        x, y = sorted((victim.u, victim.v))
        h1 = without_edge(h1, victim.id)
        punctures.append(Puncture(members, x, y, victim.id))
    return h1, tuple(punctures)


def chained_contract(h1, punctures, k):
    current = h1
    total_map = {v: v for v in h1.vertices()}
    merged = []
    for p in punctures:
        result = contract_set(current, {total_map[v] for v in p.block})
        current = result.graph
        total_map = {v: result.vertex_map[w] for v, w in total_map.items()}
        merged = [result.vertex_map[u] for u in merged] + [result.merged_vertex]
    degree_ok = all(2 * current.degree(u) <= k for u in merged)
    return current, total_map, merged, degree_ok


def edge_rows(g):
    return g.vertex_count, [(e.id, e.u, e.v) for e in g.edges]


def interleaved_copies(g, copies, seed):
    """``copies`` disjoint copies of g, each under a seeded vertex
    permutation, with their vertices interleaved and the edges shuffled,
    so block and outside vertices alternate in the vertex order."""
    rng = random.Random(seed)
    pairs = []
    for c in range(copies):
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        pairs += [(copies * perm[e.u] + c, copies * perm[e.v] + c) for e in g.edges]
    rng.shuffle(pairs)
    return build(copies * g.vertex_count, pairs)


def fuzz_sweep():
    # Random graphs almost never hold two tight blocks, so each block-bearing
    # fuzz graph is taken in two or three interleaved copies.
    for seed in range(100):
        g = random_multigraph(
            FuzzConfig(n=5, max_multiplicity=3, edge_probability=0.8, seed=seed)
        )
        yield interleaved_copies(g, 2 + seed % 2, seed)


def after_regularize(g):
    table = OddSetTable(g, g.vertices())
    k = gupta_bound(g, table=table).k
    if k <= 0:
        return None, k
    try:
        regularize(table, k)
    except covdex.CovdexError:
        return None, k
    return table, k


def block_graphs():
    named = [planted_two_triangles(), planted_five_block(), two_doubled_triangles()]
    named.append(nested_optimal())
    return named + list(fuzz_sweep())


def test_one_pass_puncture_and_contract_match_the_chained_references():
    checked = multi_block = 0
    for g in block_graphs():
        table, k = after_regularize(g)
        if table is None:
            continue
        expected_h1, expected_punctures = chained_puncture(table, k)
        if not expected_punctures:
            continue
        h1, punctures = puncture(table, k)
        assert punctures == expected_punctures
        assert edge_rows(h1) == edge_rows(expected_h1)

        _, boundaries = dense_lift.block_edges(h1, [p.block for p in punctures])
        h2, vmap, merged, degree_ok = contract_blocks(h1, punctures, boundaries, k, False)
        ref_h2, ref_map, ref_merged, ref_ok = chained_contract(h1, punctures, k)
        assert edge_rows(h2) == edge_rows(ref_h2)
        assert vmap == ref_map
        assert merged == ref_merged
        assert degree_ok == ref_ok
        checked += 1
        multi_block += len(punctures) >= 2
    # The four named graphs and at least eight sweep graphs; all but
    # nested_optimal have two or three blocks.
    assert checked >= 12
    assert multi_block >= checked - 1


def test_contract_without_blocks_returns_the_graph_itself():
    g = petersen()
    assert contract_blocks(g, [], [], 2, True) == (g, {v: v for v in g.vertices()}, [], True)


@pytest.fixture(name="counted")
def counted_fixture(monkeypatch):
    """Record every ``color_masks`` call by its coloring object and every
    ``_two_color_incidence`` call by its coloring object and color pair,
    holding the objects so that no id is reused."""
    calls = {"masks": [], "incidence": []}
    original_masks = covdex.coloring.color_masks
    original_incidence = covdex.coloring._two_color_incidence

    def masks(g, coloring, **kwargs):
        calls["masks"].append((coloring,))
        return original_masks(g, coloring, **kwargs)

    def incidence(coloring, g, alpha, beta):
        calls["incidence"].append((coloring, alpha, beta))
        return original_incidence(coloring, g, alpha, beta)

    # covdex.special_coloring is the re-exported function, not the module.
    for name in ("coloring", "decomposer", "dense_lift", "special_coloring"):
        module = importlib.import_module(f"covdex.{name}")
        for attr, wrapper in (("color_masks", masks), ("_two_color_incidence", incidence)):
            if getattr(module, attr, None) in (original_masks, original_incidence):
                monkeypatch.setattr(module, attr, wrapper)
    return calls


def distinct(calls):
    return len({(id(call[0]), *call[1:]) for call in calls})


@pytest.mark.parametrize(
    "maker,masks",
    [(planted_two_triangles, 5), (planted_five_block, 5), (petersen, 3)],
)
def test_each_coloring_is_masked_once_per_decompose(counted, maker, masks):
    # Planted (two blocks): the certified coloring, the contracted start,
    # the two block colorings and the lift; without blocks, the certified
    # coloring, the contracted start and the lift.  No move is made.
    result = decompose(maker())
    assert isinstance(result, covdex.CoverDecomposition)
    assert result.stages["blocks"] == (0 if maker is petersen else 2)
    assert not any(key.startswith("moves.") for key in result.run["counters"])
    assert len(counted["masks"]) == masks
    assert distinct(counted["masks"]) == masks
    assert distinct(counted["incidence"]) == len(counted["incidence"])


def test_each_coloring_is_masked_once_with_a_recoloring_move(counted):
    # One block and one Kempe move: the certified coloring, the contracted
    # start, the moved coloring, the block coloring and the lift.
    result = decompose(nested_optimal())
    assert isinstance(result, covdex.CoverDecomposition)
    assert result.run["counters"]["moves.endpoint-swap"] == 1
    assert len(counted["masks"]) == distinct(counted["masks"]) == 5
    assert distinct(counted["incidence"]) == len(counted["incidence"])


@pytest.mark.parametrize("maker", [planted_two_triangles, planted_five_block])
def test_block_path_builds_no_graph_per_block(monkeypatch, maker):
    # Without splits decompose builds the punctured and the contracted
    # graph and no other: the chi-prime core is the punctured graph itself,
    # and each block is checked on the punctured graph's edges.
    g = maker()
    built = []
    validate = Multigraph.__post_init__

    def counting(self):
        built.append(self.vertex_count)
        validate(self)

    monkeypatch.setattr(Multigraph, "__post_init__", counting)
    result = decompose(g)
    assert result.stages["splits"] == 0 and result.stages["blocks"] == 2
    contracted = g.vertex_count - sum(result.stages["block_sizes"]) + 2
    assert built == [g.vertex_count, contracted]


@pytest.mark.parametrize("maker", [planted_two_triangles, planted_five_block])
def test_each_reserve_chain_of_the_lift_is_walked_once(monkeypatch, maker):
    # The lift check walks every (k+1, k+2) component of the lifted
    # coloring once, and the orientation walks none again.  No edge is
    # looked up by id on the punctured graph: the one id map built is the
    # oracle's, on the input graph.
    coloring = importlib.import_module("covdex.coloring")
    tables, walks, lifts, id_maps = [], [], [], []
    real_incidence, real_component = coloring._two_color_incidence, coloring._component
    real_assemble = dense_lift.assemble_lift
    build_id_map = Multigraph.__dict__["_by_id"].func

    def incidence(psi, g, alpha, beta):
        table = real_incidence(psi, g, alpha, beta)
        tables.append((table, psi, alpha, beta))
        return table

    def component(table, v, alpha, beta):
        ch = real_component(table, v, alpha, beta)
        walks.append((table, ch))
        return ch

    def assemble(h1, *args):
        out = real_assemble(h1, *args)
        lifts.append((h1, out[0]))
        return out

    def id_map(self):
        id_maps.append(self)
        return build_id_map(self)

    counted = cached_property(id_map)
    counted.__set_name__(Multigraph, "_by_id")
    monkeypatch.setattr(Multigraph, "_by_id", counted)
    monkeypatch.setattr(coloring, "_two_color_incidence", incidence)
    monkeypatch.setattr(coloring, "_component", component)
    monkeypatch.setattr(dense_lift, "assemble_lift", assemble)
    g = maker()
    result = decompose(g)
    monkeypatch.undo()

    assert result.stages["blocks"] == 2
    ((h1, psi),) = lifts
    k = result.k
    lifted = [t for t, c, alpha, beta in tables if c is psi and (alpha, beta) == (k + 1, k + 2)]
    walked = Counter(ch for t, ch in walks if any(t is table for table in lifted))
    assert len(lifted) == 1
    assert walked == Counter(chains(psi, h1, k + 1, k + 2))
    assert set(walked.values()) == {1}
    assert [id(graph) for graph in id_maps] == [id(g)]
