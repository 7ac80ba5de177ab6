"""Plain references the tests check the pipeline against.

Like ``covdex.oracle``, nothing here shares code with the pipeline: it
imports from ``covdex`` only the graph value types and the errors, and
answers each question by a direct scan of the edges.  ``present`` and
``missing`` read one vertex's colors, ``color_class`` one class,
``boundary_counts`` one vertex set's edges, ``without_edge`` and
``contract_set`` the graphs that ``puncture`` and ``contract_blocks``
build in one pass, ``induced_block_masks`` the block check that
``make_block`` makes on the host's edges, ``lift_verdict`` the lift check
that ``check_lift_properties`` makes on the chains it walks once,
``reference_chain`` and ``reference_chains`` the two-color components
that ``chain`` and ``chains`` walk from their canonical starts,
``max_bipartite_matching`` the palette bijection that
``permute_block_palette`` assigns vertex by vertex, and ``is_connected``
picks connected test graphs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from covdex.errors import (
    DensityMismatch,
    LiftInvariantViolated,
    PreconditionViolated,
    StageAssertionFailed,
    VertexOutOfRange,
)
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


def induced_block_masks(host: Multigraph, vertices: Iterable[int], s: int, initial) -> list[int]:
    """The block check on the block's induced graph, as ``make_block`` made
    it before it read the host's edges.  The block's vertices are
    renumbered 0..|V|-1 in increasing order, and the checks run in the
    same order with the same messages: the block has s(|V|-1)/2 edges, the
    coloring is a proper s-coloring, every class has (|V|-1)/2 edges, each
    vertex is missed by s - d(v) classes, and no two vertices miss a
    common class.  Returns the color masks (bit c for color c) of the
    renumbered vertices."""
    local = {v: i for i, v in enumerate(sorted(set(vertices)))}
    edges = [(e.id, local[e.u], local[e.v]) for e in host.edges if e.u in local and e.v in local]
    n = len(local)
    twice = 2 * len(edges)
    dense = twice // (n - 1) if n >= 3 and n % 2 and not twice % (n - 1) else None
    if not dense or dense != s:
        raise DensityMismatch(
            f"block has {len(edges)} edges on {n} vertices; expected {s}*({n}-1)/2"
        )
    masks = [0] * n
    degree = [0] * n
    for eid, a, b in edges:
        c = initial.assignment.get(eid)
        if (
            initial.palette != s
            or c is None
            or not 1 <= c <= s
            or (masks[a] | masks[b]) >> c & 1
        ):
            raise PreconditionViolated("supplied block coloring is not a proper s-coloring")
        masks[a] |= 1 << c
        masks[b] |= 1 << c
        degree[a] += 1
        degree[b] += 1
    sizes = Counter(initial.assignment.values())
    for c in range(1, s + 1):
        if sizes[c] != (n - 1) // 2:
            raise LiftInvariantViolated(0, f"class {c} is not a near-perfect matching")
    miss = [{c for c in range(1, s + 1) if not mask >> c & 1} for mask in masks]
    for v in range(n):
        if len(miss[v]) != s - degree[v]:
            raise LiftInvariantViolated(0, f"vertex {v} missed by {len(miss[v])} classes")
        for w in range(v + 1, n):
            if miss[v] & miss[w]:
                raise LiftInvariantViolated(0, f"vertices {v},{w} share a missing class")
    return masks


def _two_color_ends(g: Multigraph, coloring, v: int, alpha: int, beta: int):
    """The ends, smaller first, of the alpha/beta path through v, found by
    walking out of v along each of its alpha/beta edges; None when a walk
    comes back to v (a cycle).  The coloring is proper, so a vertex has at
    most one edge of each color."""
    at: dict[int, list[Edge]] = {}
    for e in g.edges:
        if coloring.assignment[e.id] in (alpha, beta):
            at.setdefault(e.u, []).append(e)
            at.setdefault(e.v, []).append(e)
    ends = []
    for first in at[v]:
        prev, cur = first, first.other(v)
        while cur != v:
            onward = [f for f in at[cur] if f.id != prev.id]
            if not onward:
                break
            prev = onward[0]
            cur = prev.other(cur)
        else:
            return None
        ends.append(cur)
    if len(ends) == 1:
        ends.append(v)
    return tuple(sorted(ends))


def _reference_incidence(coloring, g: Multigraph, alpha: int, beta: int) -> dict[int, list[Edge]]:
    table: dict[int, list[Edge]] = {}
    for e in g.edges:
        if coloring.assignment[e.id] in (alpha, beta):
            table.setdefault(e.u, []).append(e)
            table.setdefault(e.v, []).append(e)
    return table


def reference_chain(coloring, g: Multigraph, v: int, alpha: int, beta: int):
    """The alpha/beta component through v as (vertices, edges, kind),
    walked from v itself and then put in canonical order: from an interior
    vertex the two half-walks are joined, a path is turned to run from its
    smaller end, and a cycle is rotated to its least vertex and turned
    toward the smaller neighbor (the smaller edge id on a tie)."""
    return _reference_component(_reference_incidence(coloring, g, alpha, beta), v)


def reference_chains(coloring, g: Multigraph, alpha: int, beta: int) -> list:
    """Every nontrivial component as ``reference_chain`` gives it, walked
    from the first of its vertices in increasing order, then sorted: the
    paths, then the cycles, each by first vertex."""
    table = _reference_incidence(coloring, g, alpha, beta)
    found = []
    seen: set[int] = set()
    for v in sorted(table):
        if v not in seen:
            component = _reference_component(table, v)
            seen.update(component[0])
            found.append(component)
    found.sort(key=lambda component: (component[2] == "cycle", component[0][0]))
    return found


def _reference_component(table: dict[int, list[Edge]], v: int):
    here = table.get(v, [])
    if not here:
        return (v,), (), "path"

    def walk(start_edge: Edge) -> tuple[list[int], list[int], bool]:
        verts = [v]
        eids: list[int] = []
        cur, e = v, start_edge
        while True:
            eids.append(e.id)
            cur = e.other(cur)
            verts.append(cur)
            if cur == v:
                return verts, eids, True
            options = [f for f in table[cur] if f.id != e.id]
            if not options:
                return verts, eids, False
            e = options[0]

    if len(here) == 1:
        verts, eids, closed = walk(here[0])
        if closed:
            raise StageAssertionFailed("chain", "a walk from a path endpoint closed a cycle")
        vertices, edges = tuple(verts), tuple(eids)
    else:
        verts1, eids1, closed = walk(here[0])
        if closed:
            if len(eids1) % 2:
                raise StageAssertionFailed("chain", "two-color cycles are even")
            return _reference_cycle(verts1[:-1], eids1)
        verts2, eids2, _ = walk(here[1])
        vertices = tuple(reversed(verts1)) + tuple(verts2[1:])
        edges = tuple(reversed(eids1)) + tuple(eids2)
    if vertices[0] > vertices[-1]:
        vertices = tuple(reversed(vertices))
        edges = tuple(reversed(edges))
    return vertices, edges, "path"


def _reference_cycle(verts: list[int], eids: list[int]):
    # verts[i] -- eids[i] -- verts[i+1 mod L]; rotate to the smallest vertex,
    # then pick the direction with the smaller successor (edge id on a tie).
    size = len(verts)
    start = verts.index(min(verts))
    fwd_v = [verts[(start + i) % size] for i in range(size)]
    fwd_e = [eids[(start + i) % size] for i in range(size)]
    bwd_v = [verts[(start - i) % size] for i in range(size)]
    bwd_e = [eids[(start - 1 - i) % size] for i in range(size)]
    if (bwd_v[1], bwd_e[0]) < (fwd_v[1], fwd_e[0]):
        return tuple(bwd_v), tuple(bwd_e), "cycle"
    return tuple(fwd_v), tuple(fwd_e), "cycle"


def lift_verdict(h1: Multigraph, psi, blocks, k: int, boundaries) -> None:
    """The lift check by direct scans, with the same errors and messages in
    the same order; ``blocks`` are (vertices, x) pairs and ``boundaries``
    each block's boundary edges.  psi is a proper coloring of h1 (property
    0).  Per block: no boundary edge carries k+2 (1); then for each
    boundary edge colored k+1, in order, the path walked from its block
    end has an end outside every block and none in another block, and the
    block's vertices, least first, all present k+1 (2); x sees no k+2 (3).
    Returns None when every property holds."""
    s = k + 2
    present: list[set[int]] = [set() for _ in range(h1.vertex_count)]
    for e in h1.edges:
        c = psi.assignment.get(e.id)
        if c is None or not 1 <= c <= psi.palette or c in present[e.u] | present[e.v]:
            raise LiftInvariantViolated(0, "assembled coloring is not proper")
        present[e.u].add(c)
        present[e.v].add(c)
    block_of = {v: i for i, (vertices, _) in enumerate(blocks) for v in vertices}
    for i, ((vertices, x), boundary) in enumerate(zip(blocks, boundaries)):
        for e in boundary:
            if psi.assignment[e.id] == s:
                raise LiftInvariantViolated(1, f"boundary edge {e.id} carries color {s}")
        for e in boundary:
            if psi.assignment[e.id] != k + 1:
                continue
            ends = _two_color_ends(h1, psi, e.u if e.u in vertices else e.v, k + 1, s)
            if ends is None:
                raise LiftInvariantViolated(2, f"chain through edge {e.id} is a cycle")
            owners = [block_of.get(p) for p in ends]
            if None not in owners or any(o not in (None, i) for o in owners):
                raise LiftInvariantViolated(
                    2, f"chain through edge {e.id} ends at {ends}, not outside the blocks"
                )
            for w in sorted(vertices):
                if k + 1 not in present[w]:
                    raise LiftInvariantViolated(
                        2, f"block vertex {w} does not present color {k + 1}"
                    )
        if s in present[x]:
            raise LiftInvariantViolated(3, f"top class touches designated vertex {x}")
    return None


def max_bipartite_matching(wants: dict[int, int]) -> dict[int, int]:
    """Augmenting-path matching: each key, least first, gets one of its
    allowed targets (the set bits of its mask), or {} when no complete
    matching exists."""
    matched_to: dict[int, int] = {}  # target -> key
    for key in sorted(wants):
        if not _try_assign(wants, matched_to, key, set()):
            return {}
    return {key: t for t, key in matched_to.items()}


def _try_assign(wants: dict[int, int], taken: dict[int, int], key: int, banned: set[int]) -> bool:
    # An augmenting path from key, trying its targets in increasing order.
    allowed = wants[key]
    for t in range(allowed.bit_length()):
        if not allowed >> t & 1 or t in banned:
            continue
        banned.add(t)
        if t not in taken or _try_assign(wants, taken, taken[t], banned):
            taken[t] = key
            return True
    return False


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
