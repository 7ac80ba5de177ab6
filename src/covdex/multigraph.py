"""Loopless multigraph values with stable edge identities.

Graphs are immutable; every structural transformation returns a new graph
(plus a trace record where applicable) so that several derived graphs can
coexist during a pipeline run.  Edge identity, not endpoint pairs, is the
unit of accounting everywhere: parallel edges get distinct ids and derived
graphs keep the ids of the edges they inherit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import (
    EdgeNotIncident,
    GraphFormatError,
    LoopEdge,
    VertexOutOfRange,
)


@dataclass(frozen=True, slots=True)
class Edge:
    """One edge instance: a stable id plus its two (distinct) endpoints.

    Edges are the most numerous objects of a run; slots keep each one at
    56 bytes instead of 96."""

    id: int
    u: int
    v: int

    def other(self, w: int) -> int:
        if w == self.u:
            return self.v
        if w == self.v:
            return self.u
        raise EdgeNotIncident(f"edge {self.id} ({self.u},{self.v}) not at vertex {w}")

    def touches(self, w: int) -> bool:
        return w == self.u or w == self.v


@dataclass(frozen=True)
class Multigraph:
    """A loopless multigraph on vertices 0..vertex_count-1."""

    vertex_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for e in self.edges:
            if e.u == e.v:
                raise LoopEdge(f"edge {e.id} is a loop at vertex {e.u}")
            if not (0 <= e.u < self.vertex_count and 0 <= e.v < self.vertex_count):
                raise VertexOutOfRange(f"edge {e.id} endpoints ({e.u},{e.v}) out of range")
            if e.id in seen:
                raise ValueError(f"duplicate edge id {e.id}")
            seen.add(e.id)

    @cached_property
    def _incidence(self) -> dict[int, tuple[Edge, ...]]:
        table: dict[int, list[Edge]] = {v: [] for v in range(self.vertex_count)}
        for e in self.edges:
            table[e.u].append(e)
            table[e.v].append(e)
        return {v: tuple(lst) for v, lst in table.items()}

    @cached_property
    def _by_id(self) -> dict[int, Edge]:
        return {e.id: e for e in self.edges}

    def vertices(self) -> range:
        return range(self.vertex_count)

    def edge(self, edge_id: int) -> Edge:
        return self._by_id[edge_id]

    def edge_ids(self) -> frozenset[int]:
        return frozenset(self._by_id)

    def incident(self, v: int) -> tuple[Edge, ...]:
        return self._incidence[v]

    def degree(self, v: int) -> int:
        return len(self._incidence[v])

    def degrees(self) -> list[int]:
        return [self.degree(v) for v in self.vertices()]

    def min_degree(self) -> int:
        return min(self.degrees(), default=0)

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def multiplicity(self, u: int, v: int) -> int:
        return sum(1 for e in self._incidence[u] if e.touches(v))

    def max_multiplicity(self) -> int:
        counts: dict[tuple[int, int], int] = {}
        for e in self.edges:
            key = (min(e.u, e.v), max(e.u, e.v))
            counts[key] = counts.get(key, 0) + 1
        return max(counts.values(), default=0)

    def next_edge_id(self) -> int:
        return max(self._by_id, default=-1) + 1


@dataclass(frozen=True)
class SplitRecord:
    """One split-off event: which edge moved from where to a fresh vertex."""

    new_vertex: int
    original_vertex: int
    moved_edge: int
    new_edge: int


@dataclass(frozen=True)
class SplitTrace:
    """Reversible record of split-off operations, in application order."""

    records: tuple[SplitRecord, ...] = ()

    def extend(self, record: SplitRecord) -> "SplitTrace":
        return SplitTrace(self.records + (record,))

    @cached_property
    def _back(self) -> dict[int, int]:
        return {r.new_edge: r.moved_edge for r in self.records}

    def resolve(self, edge_id: int) -> int:
        """Map a derived-graph edge id back to the original edge id."""
        while edge_id in self._back:
            edge_id = self._back[edge_id]
        return edge_id


def build(n: int, edge_list: Iterable[tuple[int, int]]) -> Multigraph:
    """Build a multigraph from vertex pairs; ids are assigned 0,1,2,... in order."""
    edges = []
    for i, (u, v) in enumerate(edge_list):
        if u == v:
            raise LoopEdge(f"pair {i} is a loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRange(f"pair {i} ({u},{v}) out of range for n={n}")
        edges.append(Edge(i, u, v))
    return Multigraph(n, tuple(edges))


def split_off(g: Multigraph, x: int, edge_id: int) -> tuple[Multigraph, SplitRecord]:
    """Detach one edge from x onto a fresh degree-1 vertex.

    The edge (x, y) is deleted and replaced by (y, x') where x' is a new
    vertex; the replacement carries a fresh id that traces back to the
    original via the returned record.

    ``decompose`` does not call it: ``regularize`` makes the same splits on
    its own edge dict.  It stays only as a layer of the benchmark's tracer
    and as the one-split reference that the tests check ``regularize``
    against.
    """
    e = g.edge(edge_id)
    if not e.touches(x):
        raise EdgeNotIncident(f"edge {edge_id} not incident to vertex {x}")
    y = e.other(x)
    new_vertex = g.vertex_count
    new_id = g.next_edge_id()
    edges = tuple(f for f in g.edges if f.id != edge_id) + (Edge(new_id, y, new_vertex),)
    record = SplitRecord(new_vertex=new_vertex, original_vertex=x, moved_edge=edge_id, new_edge=new_id)
    return Multigraph(g.vertex_count + 1, edges), record


def induced_subgraph(g: Multigraph, vertex_set: Iterable[int]) -> Multigraph:
    """Subgraph on a vertex set, keeping edge ids.

    Vertices are renumbered in increasing order to 0..|S|-1, so inducing on
    a prefix 0..s-1 leaves vertex names unchanged, and the subgraph keeps
    the host's own ``Edge`` objects.
    """
    inside = sorted(set(vertex_set))
    for v in inside:
        if not (0 <= v < g.vertex_count):
            raise VertexOutOfRange(f"vertex {v} out of range")
    size = len(inside)
    if not inside or inside[-1] == size - 1:
        return Multigraph(size, tuple(e for e in g.edges if e.u < size and e.v < size))
    remap = {v: i for i, v in enumerate(inside)}
    edges = tuple(
        Edge(e.id, remap[e.u], remap[e.v])
        for e in g.edges
        if e.u in remap and e.v in remap
    )
    return Multigraph(size, edges)


def parse_graph(text: str) -> Multigraph:
    """Parse the text edge-list format.

    One ``v <n>`` line, then one ``e <u> <v>`` line per edge instance
    (parallel edges are repeated lines); ``#`` starts a comment; vertices
    are 0-indexed.
    """
    n: int | None = None
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "v":
            if n is not None:
                raise GraphFormatError(f"line {lineno}: duplicate 'v' line")
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: expected 'v <n>'")
            try:
                n = int(parts[1])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: bad vertex count {parts[1]!r}") from None
            if n < 0:
                raise GraphFormatError(f"line {lineno}: negative vertex count")
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError(f"line {lineno}: 'e' before 'v' line")
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: bad endpoints") from None
            pairs.append((u, v))
        else:
            raise GraphFormatError(f"line {lineno}: unknown directive {parts[0]!r}")
    if n is None:
        raise GraphFormatError("missing 'v <n>' line")
    try:
        return build(n, pairs)
    except (LoopEdge, VertexOutOfRange) as exc:
        raise GraphFormatError(str(exc)) from exc


def format_graph(g: Multigraph) -> str:
    """Serialize to the text edge-list format, edges ordered by id."""
    lines = [f"v {g.vertex_count}"]
    lines.extend(f"e {e.u} {e.v}" for e in sorted(g.edges, key=lambda e: e.id))
    return "\n".join(lines) + "\n"


def read_graph(path: str) -> Multigraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def write_graph(g: Multigraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g))
