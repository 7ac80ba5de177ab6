"""Color punctured dense blocks and splice them into the outer coloring.

A punctured block has exactly s(|U|-1)/2 edges for palette s = k+2, so in
any proper s-coloring every class is a near-perfect matching and the
missing sets of distinct vertices are disjoint.  That freedom is spent in
two ways: a palette bijection aligns each block's missing colors with the
colors its boundary edges received outside, and the class colored k+2 is
steered to miss the block's designated vertex.  The bijection is found by
bipartite matching between constrained global colors and local classes;
infeasibility is dumped, never patched.

The block and lift checks read missing sets, and whether a vertex
presents a color, from per-vertex color masks that ``coloring.color_masks``
builds in the one pass over the edges that also decides properness; class
sizes come from one count over the assignment.  Each coloring's masks are
built once: ``make_block`` keeps a block's for the palette matching, and
the lift check hands the lifted coloring's masks and its (k+1, k+2)
incidence, which all its chain walks share, on to the orientation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Collection, Mapping, Sequence

from .coloring import (
    EdgeColoring,
    chain,
    color_masks,
    is_s_dense,
    mask_colors,
    palette_mask,
    two_color_incidence,
)
from .errors import (
    DensityMismatch,
    LiftInvariantViolated,
    NoFeasiblePermutation,
    PreconditionViolated,
)
from .multigraph import Edge, Multigraph, induced_subgraph


@dataclass(frozen=True)
class BlockColoring:
    """A colored punctured block inside a host graph.

    ``vertices`` lists the block's host vertex ids in increasing order;
    position in the list is the local vertex id in ``graph``.  The coloring
    is keyed by host edge ids (induced subgraphs keep them).  ``x`` and
    ``y`` are the endpoints of the punctured edge, as host ids.  ``masks``,
    when set, are the coloring's per-vertex color masks on ``graph``.
    """

    vertices: tuple[int, ...]
    graph: Multigraph
    coloring: EdgeColoring
    x: int
    y: int
    masks: list[int] | None = field(default=None, compare=False)

    def local_vertex(self, host_vertex: int) -> int:
        return self.vertices.index(host_vertex)

    def host_set(self) -> frozenset[int]:
        return frozenset(self.vertices)


def _dense_block_masks(block: Multigraph, s: int, initial: EdgeColoring) -> list[int]:
    """Check a proper s-coloring ``initial`` of a block with exactly
    s(|V|-1)/2 edges: every class is a near-perfect matching, missing sets
    of distinct vertices are disjoint, and each vertex is missed by exactly
    s - d(v) classes.  Returns the coloring's color masks."""
    n = block.vertex_count
    if is_s_dense(block) != s:
        raise DensityMismatch(
            f"block has {len(block.edges)} edges on {n} vertices; expected {s}*({n}-1)/2"
        )
    masks = color_masks(block, initial) if initial.palette == s else None
    if masks is None:
        raise PreconditionViolated("supplied block coloring is not a proper s-coloring")
    half = (n - 1) // 2
    # Class sizes count every id of the assignment, as the classes do.
    sizes = Counter(initial.assignment.values())
    for c in range(1, s + 1):
        if sizes[c] != half:
            raise LiftInvariantViolated(0, f"class {c} is not a near-perfect matching")
    colors = palette_mask(s)
    miss = [colors & ~mask for mask in masks]
    for v in block.vertices():
        count = miss[v].bit_count()
        if count != s - block.degree(v):
            raise LiftInvariantViolated(0, f"vertex {v} missed by {count} classes")
        for w in range(v + 1, n):
            if miss[v] & miss[w]:
                raise LiftInvariantViolated(0, f"vertices {v},{w} share a missing class")
    return masks


def make_block(
    host: Multigraph, block_vertices: Sequence[int], x: int, y: int, s: int,
    *,
    initial: EdgeColoring,
) -> BlockColoring:
    """Induce and density-check one block of the host graph, and check its
    s-coloring ``initial``, keeping the masks that check built."""
    verts = tuple(sorted(block_vertices))
    graph = induced_subgraph(host, verts)
    return BlockColoring(verts, graph, initial, x, y, _dense_block_masks(graph, s, initial))


def _max_bipartite_matching(wants: dict[int, int]) -> dict[int, int]:
    """Augmenting-path matching: each key gets one of its allowed targets
    (the set bits of its mask), or {} when no complete matching exists."""
    matched_to: dict[int, int] = {}  # target -> key
    for key in sorted(wants):
        if not _try_assign(wants, matched_to, key, set()):
            return {}
    return {key: t for t, key in matched_to.items()}


def _try_assign(wants: dict[int, int], taken: dict[int, int], key: int, banned: set[int]) -> bool:
    # An augmenting path from key; not a closure, which would leave a cycle.
    for t in mask_colors(wants[key]):
        if t in banned:
            continue
        banned.add(t)
        if t not in taken or _try_assign(wants, taken, taken[t], banned):
            taken[t] = key
            return True
    return False


def permute_block_palette(
    bc: BlockColoring,
    boundary_requirements: Mapping[int, int],
    host: Multigraph,
    k: int,
) -> BlockColoring:
    """Apply a palette bijection meeting the boundary and top-color needs.

    ``boundary_requirements`` maps each host boundary edge id to the color
    it carries outside; the bijection must leave that color missing at the
    edge's block endpoint, and must route the top color k+2 to a class that
    misses the designated vertex x.
    """
    s = k + 2
    required = list(boundary_requirements.values())
    if len(required) != len(set(required)):
        raise PreconditionViolated("boundary colors at one block must be distinct")

    masks = color_masks(bc.graph, bc.coloring) if bc.masks is None else bc.masks
    if masks is None:
        raise PreconditionViolated("block coloring is not proper")
    colors = palette_mask(bc.coloring.palette)
    local_missing = [colors & ~mask for mask in masks]
    inside = bc.host_set()
    wants: dict[int, int] = {}
    for eid, color in sorted(boundary_requirements.items()):
        edge = host.edge(eid)
        w_host = edge.u if edge.u in inside else edge.v
        allowed = local_missing[bc.local_vertex(w_host)]
        wants[color] = wants.get(color, allowed) & allowed
    top_allowed = local_missing[bc.local_vertex(bc.x)]
    wants[s] = wants.get(s, top_allowed) & top_allowed

    matching = _max_bipartite_matching(wants)
    if not matching:
        detail = {c: mask_colors(a) for c, a in wants.items()}
        raise NoFeasiblePermutation(f"no palette bijection satisfies {detail}")

    to_global = {local: glob for glob, local in matching.items()}
    free_local = [c for c in range(1, s + 1) if c not in to_global]
    free_global = [c for c in range(1, s + 1) if c not in matching]
    to_global.update(zip(free_local, free_global))

    recolored = {eid: to_global[c] for eid, c in bc.coloring.assignment.items()}
    return BlockColoring(bc.vertices, bc.graph, EdgeColoring(s, recolored), bc.x, bc.y)


def assemble_lift(
    h1: Multigraph,
    outer: EdgeColoring,
    blocks: Sequence[BlockColoring],
    k: int,
    *,
    boundaries: Sequence[Sequence[Edge]] | None = None,
) -> tuple[EdgeColoring, list[int], dict[int, list[Edge]] | None]:
    """Merge the outer coloring with the permuted block colorings.

    Every edge inside a block takes its block color; every other edge keeps
    the outer color (ids are shared with the contracted graph).  Properness
    and the three lift properties are then re-verified globally, and the
    merged coloring is returned with what ``check_lift_properties`` returns.
    """
    combined = {eid: c for bc in blocks for eid, c in bc.coloring.assignment.items()}
    colors = outer.assignment
    for e in h1.edges:
        if e.id not in combined:
            combined[e.id] = colors[e.id]
    psi = EdgeColoring(k + 2, combined)
    return (psi, *check_lift_properties(h1, psi, blocks, k, boundaries=boundaries))


def block_edges(
    host: Multigraph, blocks: Sequence[Collection[int]]
) -> tuple[list[list[Edge]], list[list[Edge]]]:
    """Per block, in edge order, the host's edges inside it and on its
    boundary, from one pass over the edges (none without blocks).  The
    blocks are disjoint (``all_min_optimal_sets`` checks it)."""
    if not blocks:
        return [], []
    owner: list[int | None] = [None] * host.vertex_count
    for i, block in enumerate(blocks):
        for v in block:
            owner[v] = i
    inside, boundary = [[] for _ in blocks], [[] for _ in blocks]
    for e in host.edges:
        a, b = owner[e.u], owner[e.v]
        if a is not None:
            (inside if a == b else boundary)[a].append(e)
        if b is not None and b != a:
            boundary[b].append(e)
    return inside, boundary


def check_lift_properties(
    h1: Multigraph,
    psi: EdgeColoring,
    blocks: Sequence[BlockColoring],
    k: int,
    *,
    boundaries: Sequence[Sequence[Edge]] | None = None,
) -> tuple[list[int], dict[int, list[Edge]] | None]:
    """Verify that psi is a proper coloring of h1 (property 0) and the
    three properties the downstream orientation relies on; return psi's
    masks and (k+1, k+2) incidence on h1 (None if no chain was walked).
    ``boundaries``, if given, are the blocks' as ``block_edges`` returns them.

    1. No block boundary edge carries the top color k+2.
    2. A (k+1, k+2)-chain through a boundary edge is a path reaching a
       vertex outside every block, and the block's vertices all present
       color k+1.
    3. The top color class misses each block's designated vertex x.
    """
    s = k + 2
    masks = color_masks(h1, psi)
    if masks is None:
        raise LiftInvariantViolated(0, "assembled coloring is not proper")
    reserve = None  # the (k+1, k+2) incidence, built for the first chain walk
    all_block_vertices = {v for bc in blocks for v in bc.vertices}

    if boundaries is None:
        _, boundaries = block_edges(h1, [bc.vertices for bc in blocks])
    for bc, boundary in zip(blocks, boundaries):
        inside = bc.host_set()
        for e in boundary:
            if psi.assignment[e.id] == s:
                raise LiftInvariantViolated(1, f"boundary edge {e.id} carries color {s}")
        for e in boundary:
            if psi.assignment[e.id] != k + 1:
                continue
            anchor = e.u if e.u in inside else e.v
            if reserve is None:
                reserve = two_color_incidence(psi, h1, k + 1, s)
            ch = chain(psi, h1, anchor, k + 1, s, incidence=reserve)
            if ch.kind != "path":
                raise LiftInvariantViolated(2, f"chain through edge {e.id} is a cycle")
            ends_outside = [p for p in ch.endpoints if p not in all_block_vertices]
            ends_elsewhere = [p for p in ch.endpoints if p in all_block_vertices - inside]
            if not ends_outside or ends_elsewhere:
                raise LiftInvariantViolated(
                    2,
                    f"chain through edge {e.id} ends at {ch.endpoints}, "
                    f"not outside the blocks",
                )
            for w in inside:
                if not masks[w] >> (k + 1) & 1:
                    raise LiftInvariantViolated(
                        2, f"block vertex {w} does not present color {k + 1}"
                    )
        if masks[bc.x] >> s & 1:
            raise LiftInvariantViolated(3, f"top class touches designated vertex {bc.x}")
    return masks, reserve
