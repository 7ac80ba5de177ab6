import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import c5, digon, k3, k4
from covdex import (
    EdgeNotIncident,
    GraphFormatError,
    LoopEdge,
    Multigraph,
    VertexOutOfRange,
    build,
    format_graph,
    induced_subgraph,
    parse_graph,
    split_off,
)
from covdex.multigraph import Edge, SplitTrace
from covdex.oracle import FuzzConfig, random_multigraph
from reference import boundary_counts, contract_set, is_connected


def test_build_triangle_degrees():
    g = k3()
    assert g.vertex_count == 3
    assert g.degrees() == [2, 2, 2]
    assert [e.id for e in g.edges] == [0, 1, 2]


def test_build_digon_multiplicity():
    g = digon()
    assert g.multiplicity(0, 1) == 2
    assert g.degrees() == [2, 2]


def test_build_rejects_loops_and_bad_vertices():
    with pytest.raises(LoopEdge):
        build(2, [(0, 0)])
    with pytest.raises(VertexOutOfRange):
        build(2, [(0, 2)])


def test_boundary_counts_k3():
    assert boundary_counts(k3(), {0, 1}) == (1, 2, 3)


def test_boundary_counts_k4_against_enumeration():
    g = k4()
    inside = {0, 1, 2}
    internal = sum(1 for e in g.edges if e.u in inside and e.v in inside)
    border = sum(1 for e in g.edges if (e.u in inside) != (e.v in inside))
    assert (internal, border) == (3, 3)
    assert boundary_counts(g, inside) == (3, 3, 6)


def test_boundary_counts_whole_vertex_set():
    g = c5()
    assert boundary_counts(g, set(g.vertices())) == (5, 0, 5)


def test_boundary_counts_degree_identity():
    g = k4()
    for inside in ({0}, {0, 1}, {1, 2, 3}):
        internal, border, plus = boundary_counts(g, inside)
        assert 2 * internal + border == sum(g.degree(v) for v in inside)
        assert plus == internal + border


def test_split_off_digon_becomes_path():
    g, record = split_off(digon(), 0, 0)
    assert g.vertex_count == 3
    assert g.degree(0) == 1 and g.degree(1) == 2 and g.degree(2) == 1
    assert record.new_vertex == 2
    assert record.moved_edge == 0
    assert record.new_edge == 2


def test_split_off_conserves_edge_count():
    g, _ = split_off(k4(), 0, 0)
    assert len(g.edges) == 6
    assert g.degree(0) == 2
    assert g.degree(4) == 1


def test_split_off_twice_gets_fresh_vertices():
    g1, r1 = split_off(k4(), 0, 0)
    g2, r2 = split_off(g1, 0, 1)
    assert r1.new_vertex != r2.new_vertex
    assert r1.new_edge != r2.new_edge


def test_split_off_requires_incidence():
    with pytest.raises(EdgeNotIncident):
        split_off(k3(), 2, 0)  # edge 0 joins vertices 0 and 1


def test_split_then_merge_back_restores_graph():
    g = k4()
    split, record = split_off(g, 1, 3)
    restored = []
    for e in split.edges:
        u = record.original_vertex if e.u == record.new_vertex else e.u
        v = record.original_vertex if e.v == record.new_vertex else e.v
        eid = record.moved_edge if e.id == record.new_edge else e.id
        restored.append((eid, frozenset((u, v))))
    original = [(e.id, frozenset((e.u, e.v))) for e in g.edges]
    assert sorted(restored) == sorted(original)


def test_contract_k3_pair_gives_digon():
    result = contract_set(k3(), {0, 1})
    g = result.graph
    assert g.vertex_count == 2
    assert g.multiplicity(0, 1) == 2
    assert result.merged_vertex == 1
    # both boundary edges survive with their ids
    assert g.edge_ids() == frozenset({1, 2})


def test_contract_k4_triple_gives_parallel_edges():
    result = contract_set(k4(), {0, 1, 2})
    g = result.graph
    assert g.vertex_count == 2
    assert len(g.edges) == 3
    assert g.multiplicity(0, 1) == 3
    assert g.degree(result.merged_vertex) == 3


def test_contract_everything_leaves_one_vertex():
    result = contract_set(k3(), {0, 1, 2})
    assert result.graph.vertex_count == 1
    assert result.graph.edges == ()


def test_contract_preserves_boundary_edge_ids():
    g = c5()
    inside = {1, 2}
    _, border, _ = boundary_counts(g, inside)
    boundary_ids = {e.id for e in g.edges if (e.u in inside) != (e.v in inside)}
    result = contract_set(g, inside)
    merged = result.merged_vertex
    assert {e.id for e in result.graph.incident(merged)} == boundary_ids
    assert result.graph.degree(merged) == border


def test_induced_subgraph_examples():
    g = k4()
    sub = induced_subgraph(g, {0, 1, 2})
    assert sub.vertex_count == 3
    assert len(sub.edges) == 3
    assert induced_subgraph(g, set()).vertex_count == 0
    full = induced_subgraph(g, set(g.vertices()))
    assert sorted(e.id for e in full.edges) == sorted(e.id for e in g.edges)


def test_induced_subgraph_keeps_edge_ids():
    g = c5()
    sub = induced_subgraph(g, {1, 2, 3})
    assert sorted(e.id for e in sub.edges) == [1, 2]


def test_induced_subgraph_on_a_prefix_keeps_the_host_edges():
    g = k4()
    sub = induced_subgraph(g, [2, 0, 1])
    assert sub.vertex_count == 3
    assert [e.id for e in sub.edges] == [0, 1, 3]
    host = {e.id: e for e in g.edges}
    assert all(e is host[e.id] for e in sub.edges)


def test_induced_subgraph_off_a_prefix_renumbers_the_edges():
    g = k4()  # edges 0:(0,1) 1:(0,2) 2:(0,3) 3:(1,2) 4:(1,3) 5:(2,3)
    sub = induced_subgraph(g, {1, 2, 3})
    assert sub.edges == (Edge(3, 0, 1), Edge(4, 0, 2), Edge(5, 1, 2))
    host = {e.id: e for e in g.edges}
    assert all(e is not host[e.id] for e in sub.edges)


def test_duplicate_edge_ids_rejected():
    with pytest.raises(ValueError):
        Multigraph(2, (Edge(0, 0, 1), Edge(0, 1, 0)))


graph_seeds = st.integers(min_value=0, max_value=10_000)


@given(graph_seeds, st.integers(min_value=2, max_value=9))
def test_handshake_after_transformations(seed, n):
    g = random_multigraph(FuzzConfig(n=n, max_multiplicity=2, seed=seed))
    assert sum(g.degrees()) == 2 * len(g.edges)
    if g.edges:
        e = g.edges[seed % len(g.edges)]
        split, _ = split_off(g, e.u, e.id)
        assert sum(split.degrees()) == 2 * len(split.edges)
    contracted = contract_set(g, {v for v in g.vertices() if v % 2 == 0}).graph
    assert sum(contracted.degrees()) == 2 * len(contracted.edges)


def test_split_trace_resolve_chains():
    trace = SplitTrace()
    g = digon()
    g, r1 = split_off(g, 0, 0)
    trace = trace.extend(r1)
    # split the replacement edge again, off its surviving endpoint
    g, r2 = split_off(g, 1, r1.new_edge)
    trace = trace.extend(r2)
    assert trace.resolve(r2.new_edge) == 0
    assert trace.resolve(1) == 1


def test_is_connected():
    assert is_connected(k4())
    assert is_connected(build(1, []))
    assert not is_connected(build(3, [(0, 1)]))


def test_graph_text_roundtrip():
    g = build(4, [(0, 1), (0, 1), (2, 3)])
    text = format_graph(g)
    back = parse_graph(text)
    assert back.vertex_count == g.vertex_count
    assert [(e.id, e.u, e.v) for e in back.edges] == [(e.id, e.u, e.v) for e in g.edges]


def test_parse_graph_comments_and_blanks():
    g = parse_graph("# header\n\nv 3\ne 0 1  # trailing\ne 1 2\n")
    assert g.vertex_count == 3
    assert len(g.edges) == 2


@pytest.mark.parametrize(
    "text",
    [
        "e 0 1",  # edge before header
        "v 2\nv 2",  # duplicate header
        "v x",  # bad count
        "v 2\ne 0",  # short edge line
        "v 2\ne 0 2",  # vertex out of range
        "v 2\ne 1 1",  # loop
        "v 2\nq 1 1",  # unknown directive
        "",  # missing header
    ],
)
def test_parse_graph_rejects_malformed(text):
    with pytest.raises(GraphFormatError):
        parse_graph(text)
