"""regularize at sizes where a per-split pass over every odd set would show.

The comparison uses ``reference_regularize`` from the equivalence tests,
which rebuilds a table and scans every odd set after each split.  The
counting tests pin the number of 2^n passes one ``decompose`` makes.
"""

from functools import cached_property

from conftest import doubled_triangle, k4, petersen
from test_output_digests import planted_five_block, planted_two_triangles
from test_regularize_equivalence import graph_key, reference_regularize

from covdex import CoverDecomposition, decompose, gupta_bound, regularize
from covdex.decomposer import puncture
from covdex.density import OddSetTable, SplitCandidates
from covdex.multigraph import Multigraph
from covdex.oracle import FuzzConfig, random_multigraph


def test_regularize_matches_the_reference_at_fifty_splits_and_more():
    for n, p, seed in ((12, 0.7, 2), (13, 0.5, 2), (14, 0.7, 0)):
        g = random_multigraph(
            FuzzConfig(n=n, max_multiplicity=2, edge_probability=p, seed=seed)
        )
        k = gupta_bound(g).k
        table = OddSetTable(g, range(n))
        h, trace = regularize(table, k)
        ref_h, ref_trace = reference_regularize(g, k)
        assert len(trace.records) >= 50
        assert graph_key(h) == graph_key(ref_h)
        assert trace.records == ref_trace.records
        # The table passed in now counts the regularized graph.
        assert table.graph is h
        assert table.e_plus == OddSetTable(h, range(n)).e_plus
        assert puncture(table, k) == puncture(OddSetTable(h, range(n)), k)


def count_passes(monkeypatch):
    """Lists that collect the table builds, the co-density passes, the
    lane passes (a selection with or without planned splits, or the bound
    and tight sets read with no splits), the candidate passes, and every
    pass over a table's chunks, of the calls made after this."""
    counts = {"built": [], "ratio": [], "lanes": [], "candidates": [], "chunks": []}

    def counting(cls, name, key):
        method = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            counts[key].append(args)
            return method(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counting(OddSetTable, "__init__", "built")
    counting(OddSetTable, "_ratio_pass", "ratio")
    counting(OddSetTable, "_lanes", "lanes")
    counting(OddSetTable, "_chunks", "chunks")
    counting(SplitCandidates, "__init__", "candidates")
    return counts


def test_decompose_makes_two_tables_two_scans_and_no_candidate_pass(monkeypatch):
    counts = count_passes(monkeypatch)
    g = random_multigraph(FuzzConfig(n=16, max_multiplicity=2, edge_probability=0.5, seed=0))
    result = decompose(g)
    assert isinstance(result, CoverDecomposition) and result.stages["splits"] >= 50
    # The shared table and its recount after the planned splits; one
    # co-density pass for the bound, and one selection with no splits over
    # the recount, which finds no set at slack 0 or below: the plan stands,
    # no candidates are selected, and the puncture reads the same pass.  No
    # pass over all 2^16 sets per split.
    assert len(counts["built"]) == 2
    assert result.run["counters"]["odd_set_tables"] == 2
    assert result.run["counters"]["regularize_tracked"] == 0
    assert len(counts["ratio"]) == 1
    assert len(counts["candidates"]) == 0
    assert len(counts["lanes"]) == 2
    ratio, recounted = counts["lanes"]
    assert not any(ratio[1])
    assert recounted == (result.k, [0] * 16)
    assert len(counts["chunks"]) == 2


def test_decompose_makes_four_tables_on_a_tracked_run(monkeypatch):
    counts = count_passes(monkeypatch)
    # The least-id plan brings an odd set of this graph to slack 0.
    g = random_multigraph(FuzzConfig(n=8, max_multiplicity=2, edge_probability=0.93, seed=23))
    result = decompose(g)
    assert isinstance(result, CoverDecomposition) and result.stages["splits"] > 0
    # The shared table; its recount after the plan; a recount from the
    # input for the tracked run, which selects candidates and reads the
    # tight sets off them; and its recount after the splits, whose check
    # the puncture reads.
    assert len(counts["built"]) == result.run["counters"]["odd_set_tables"] == 4
    assert result.run["counters"]["regularize_tracked"] == 1
    assert len(counts["candidates"]) == 1
    ratio, planned, candidates, recounted = counts["lanes"]
    assert not any(ratio[1]) and any(candidates[1])
    assert planned == recounted == (result.k, [0] * 8)


def test_decompose_without_splits_makes_no_fused_pass(monkeypatch):
    counts = count_passes(monkeypatch)
    # A triangle with every edge doubled is 4-regular with k = 3: no split,
    # and one tight block, read off the bound's co-density pass.  Its
    # selection with no splits is the only one: neither candidates nor a
    # check after a recount.
    result = decompose(doubled_triangle())
    assert result.stages["splits"] == 0 and result.stages["blocks"] == 1
    assert len(counts["built"]) == 1
    assert len(counts["ratio"]) == 1
    assert len(counts["candidates"]) == 0
    assert counts["lanes"] == [(3, [0, 0, 0])]
    assert len(counts["chunks"]) == 1


def test_decompose_counts_each_graph_once(monkeypatch):
    """delta, mu and regularize's degree checks read the odd-set table,
    and the block checks read the host's edges: no ``decompose``, with
    blocks or without, builds a graph's incidence or counts its
    multiplicities."""
    counts = {"incidence": 0, "max_multiplicity": 0}
    build_incidence = Multigraph.__dict__["_incidence"].func
    max_multiplicity = Multigraph.max_multiplicity

    def incidence(self):
        counts["incidence"] += 1
        return build_incidence(self)

    def multiplicity(self):
        counts["max_multiplicity"] += 1
        return max_multiplicity(self)

    counted = cached_property(incidence)
    counted.__set_name__(Multigraph, "_incidence")
    monkeypatch.setattr(Multigraph, "_incidence", counted)
    monkeypatch.setattr(Multigraph, "max_multiplicity", multiplicity)
    # Fresh graphs: a graph's incidence is cached once built.
    splits = FuzzConfig(n=6, max_multiplicity=2, edge_probability=0.8, seed=0)
    cases = [(k4, 0, 0), (petersen, 0, 0), (lambda: random_multigraph(splits), 0, 0)]
    cases += [(planted_two_triangles, 2, 0), (planted_five_block, 2, 0)]
    split = []
    for make, blocks, builds in cases:
        g = make()
        counts.update(incidence=0, max_multiplicity=0)
        result = decompose(g)
        assert isinstance(result, CoverDecomposition)
        assert result.stages["blocks"] == blocks
        assert counts == {"incidence": builds, "max_multiplicity": 0}
        split.append(result.stages["splits"] > 0)
    # With and without splits: the split graph's degrees come from the recount.
    assert any(split) and not all(split)
