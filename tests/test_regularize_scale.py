"""regularize at sizes where a per-split pass over every odd set would show.

The comparison uses ``reference_regularize`` from the equivalence tests,
which rebuilds a table and scans every odd set after each split.  The
counting test pins the number of 2^n passes one ``decompose`` makes.
"""

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
        h, trace = regularize(g, k, table=table)
        ref_h, ref_trace = reference_regularize(g, k)
        assert len(trace.records) >= 50
        assert graph_key(h) == graph_key(ref_h)
        assert trace.records == ref_trace.records
        # The table passed in now describes the regularized graph.
        assert table.e_plus == OddSetTable(h, range(n)).e_plus
        assert puncture(h, k, n, table=table) == puncture(h, k, n)


def test_decompose_makes_two_tables_two_scans_and_one_candidate_pass(monkeypatch):
    built, scans, passes = [], [], []
    init = OddSetTable.__init__
    minima = OddSetTable._size_minima
    collect = SplitCandidates.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def counting_minima(self):
        if self._minima is None:
            scans.append(self)
        return minima(self)

    def counting_collect(self, *args, **kwargs):
        passes.append(args)
        collect(self, *args, **kwargs)

    monkeypatch.setattr(OddSetTable, "__init__", counting_init)
    monkeypatch.setattr(OddSetTable, "_size_minima", counting_minima)
    monkeypatch.setattr(SplitCandidates, "__init__", counting_collect)
    g = random_multigraph(FuzzConfig(n=16, max_multiplicity=2, edge_probability=0.5, seed=0))
    result = decompose(g)
    assert isinstance(result, CoverDecomposition) and result.stages["splits"] >= 50
    # The shared table and the rebuild after regularize, one scan of each,
    # and one collection of split candidates: no pass over all 2^16 sets
    # per split.
    assert len(built) == 2
    assert len(scans) <= 2
    assert len(passes) == 1
