"""regularize at sizes where a per-split pass over every odd set would show.

The comparison uses ``reference_regularize`` from the equivalence tests,
which rebuilds a table and scans every odd set after each split.  The
counting tests pin the number of 2^n passes one ``decompose`` makes.
"""

from conftest import doubled_triangle
from test_regularize_equivalence import graph_key, reference_regularize

from covdex import CoverDecomposition, decompose, gupta_bound, regularize
from covdex.decomposer import puncture
from covdex.density import OddSetTable, SplitCandidates
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
    selections (with or without planned splits), the candidate passes, and
    every pass over a table's chunks, of the calls made after this."""
    counts = {"built": [], "ratio": [], "select": [], "candidates": [], "chunks": []}

    def counting(cls, name, key):
        method = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            counts[key].append(args)
            return method(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counting(OddSetTable, "__init__", "built")
    counting(OddSetTable, "_ratio_pass", "ratio")
    counting(OddSetTable, "select", "select")
    counting(OddSetTable, "_chunks", "chunks")
    counting(SplitCandidates, "__init__", "candidates")
    return counts


def test_decompose_makes_two_tables_two_scans_and_one_candidate_pass(monkeypatch):
    counts = count_passes(monkeypatch)
    g = random_multigraph(FuzzConfig(n=16, max_multiplicity=2, edge_probability=0.5, seed=0))
    result = decompose(g)
    assert isinstance(result, CoverDecomposition) and result.stages["splits"] >= 50
    # The shared table and its recount after the splits; one co-density
    # pass for the bound, a selection with no splits, one selection of
    # split candidates, and one selection with no splits over the recount,
    # whose tight sets the puncture reads: no pass over all 2^16 sets per
    # split.
    assert len(counts["built"]) == 2
    assert len(counts["ratio"]) == 1
    assert len(counts["candidates"]) == 1
    assert len(counts["select"]) == 3
    ratio, candidates, recounted = counts["select"]
    assert not any(ratio[1]) and any(candidates[1])
    assert recounted == (result.k, [0] * 16)
    assert len(counts["chunks"]) == 3


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
    assert counts["select"] == [(3, [0, 0, 0])]
    assert len(counts["chunks"]) == 1
