"""Plain references the tests check the pipeline against.

Like ``covdex.oracle``, nothing here shares code with the pipeline: it
imports from ``covdex`` only the graph value types and the errors, and
answers each question by a direct scan of the edges.  ``present`` and
``missing`` read one vertex's colors, ``color_class`` one class,
``boundary_counts`` one vertex set's edges, ``without_edge`` and
``contract_set`` the graphs that ``puncture`` and ``contract_blocks``
build in one pass, and ``is_connected`` picks connected test graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from covdex.errors import VertexOutOfRange
from covdex.multigraph import Edge, Multigraph


def present(coloring, g: Multigraph, v: int) -> frozenset[int]:
    """Colors appearing on edges at v."""
    return frozenset(coloring.assignment[e.id] for e in g.incident(v))


def missing(coloring, g: Multigraph, v: int) -> frozenset[int]:
    """Palette colors not appearing at v."""
    return frozenset(range(1, coloring.palette + 1)) - present(coloring, g, v)


def color_class(coloring, color: int) -> frozenset[int]:
    """The ids of the edges the coloring gives the color."""
    return frozenset(e for e, c in coloring.assignment.items() if c == color)


def _check_vertices(g: Multigraph, inside: set[int]) -> None:
    for v in inside:
        if not (0 <= v < g.vertex_count):
            raise VertexOutOfRange(f"vertex {v} out of range")


def boundary_counts(g: Multigraph, vertex_set: Iterable[int]) -> tuple[int, int, int]:
    """Return (internal, boundary, incident) edge counts for a vertex set.

    internal  = edges with both endpoints in the set,
    boundary  = edges with exactly one endpoint in the set,
    incident  = internal + boundary.
    """
    inside = set(vertex_set)
    _check_vertices(g, inside)
    internal = boundary = 0
    for e in g.edges:
        hits = (e.u in inside) + (e.v in inside)
        if hits == 2:
            internal += 1
        elif hits == 1:
            boundary += 1
    return internal, boundary, internal + boundary


def without_edge(g: Multigraph, edge_id: int) -> Multigraph:
    """New graph with one edge removed; everything else unchanged."""
    if edge_id not in g.edge_ids():
        raise KeyError(f"no edge with id {edge_id}")
    return Multigraph(g.vertex_count, tuple(e for e in g.edges if e.id != edge_id))


@dataclass(frozen=True)
class Contraction:
    """Result of contracting a vertex set into a single vertex.

    Boundary edges keep their ids; ``vertex_map`` sends every old vertex
    (contracted ones included) to its index in the new graph.
    """

    graph: Multigraph
    vertex_map: dict[int, int]
    merged_vertex: int


def contract_set(g: Multigraph, vertex_set: Iterable[int]) -> Contraction:
    """Contract a vertex set into one vertex, dropping its internal edges.

    Surviving vertices are renumbered densely (outside vertices first, in
    increasing order, then the merged vertex last); boundary edges keep
    their ids with the inside endpoint replaced by the merged vertex.
    """
    inside = set(vertex_set)
    _check_vertices(g, inside)
    outside = [v for v in g.vertices() if v not in inside]
    merged = len(outside)
    vertex_map = {v: i for i, v in enumerate(outside)}
    vertex_map.update({v: merged for v in inside})
    edges = []
    for e in g.edges:
        hits = (e.u in inside) + (e.v in inside)
        if hits == 2:
            continue
        edges.append(Edge(e.id, vertex_map[e.u], vertex_map[e.v]))
    n = merged + 1 if inside else merged
    return Contraction(Multigraph(n, tuple(edges)), vertex_map, merged)


def is_connected(g: Multigraph) -> bool:
    """True when every vertex is reachable from vertex 0 (vacuously for n<=1)."""
    if g.vertex_count <= 1:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for e in g.incident(v):
            w = e.other(v)
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.vertex_count
