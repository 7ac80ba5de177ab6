"""Color punctured dense blocks and splice them into the outer coloring.

A punctured block has exactly s(|U|-1)/2 edges for palette s = k+2, so in
any proper s-coloring every class is a near-perfect matching and the
missing sets of distinct vertices are disjoint.  That freedom is spent in
two ways: a palette bijection aligns each block's missing colors with the
colors its boundary edges received outside, and the class colored k+2 is
steered to miss the block's designated vertex.  The bijection is found by
bipartite matching between constrained global colors and local classes;
infeasibility is dumped, never patched.

A block is read on the host's edges: ``make_block`` checks it from its
internal host edges, which ``block_edges`` sorts out for every block in
one pass, and builds no graph of its own.  Its density comes from the
edge count, and each vertex's degree from one count over those edges.

The block and lift checks read missing sets, and whether a vertex
presents a color, from per-vertex color masks that ``coloring.color_masks``
builds in the one pass over the edges that also decides properness; class
sizes come from one count over the assignment.  Every mask list runs over
the host's vertices.  Each coloring's masks are built once: ``make_block``
keeps a block's for the palette matching, which reads the boundary edges
``block_edges`` gave as edges, and the lift check hands the lifted
coloring's masks on to the orientation.  The lift check also walks every
(k+1, k+2) chain of the lifted coloring once, checks property 2 on the
chains through the boundary edges, and hands the whole list on: the
orientation orients exactly those chains.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Collection, Sequence

from .coloring import (
    EdgeColoring,
    Chain,
    chains,
    color_masks,
    dense_palette,
    mask_colors,
    palette_mask,
)
from .errors import (
    DensityMismatch,
    LiftInvariantViolated,
    NoFeasiblePermutation,
    PreconditionViolated,
)
from .multigraph import Edge, Multigraph


@dataclass(frozen=True)
class BlockColoring:
    """A colored punctured block inside a host graph.

    ``vertices`` lists the block's host vertex ids in increasing order.  The
    coloring is keyed by host edge ids.  ``x`` and ``y`` are the endpoints
    of the punctured edge, as host ids.  ``masks``, which ``make_block``
    sets, are the coloring's per-vertex color masks over the host's
    vertices (0 outside the block).
    """

    vertices: tuple[int, ...]
    coloring: EdgeColoring
    x: int
    y: int
    masks: list[int] | None = field(default=None, compare=False)


def _dense_block_masks(
    host: Multigraph,
    vertices: Sequence[int],
    inside: Sequence[Edge],
    s: int,
    initial: EdgeColoring,
) -> list[int]:
    """Check a proper s-coloring ``initial`` of a block, the host's sorted
    ``vertices`` and its ``inside`` edges, which must number exactly
    s(|V|-1)/2: every class is a near-perfect matching, missing sets of
    distinct vertices are disjoint, and each vertex is missed by exactly
    s - d(v) classes, d(v) counted from the edges.  Messages name a vertex
    by its position in ``vertices``.  Returns the coloring's color masks
    over the host's vertices."""
    n = len(vertices)
    if dense_palette(n, len(inside)) != s:
        raise DensityMismatch(
            f"block has {len(inside)} edges on {n} vertices; expected {s}*({n}-1)/2"
        )
    masks = color_masks(host, initial, edges=inside) if initial.palette == s else None
    if masks is None:
        raise PreconditionViolated("supplied block coloring is not a proper s-coloring")
    half = (n - 1) // 2
    # Class sizes count every id of the assignment, as the classes do.
    sizes = Counter(initial.assignment.values())
    for c in range(1, s + 1):
        if sizes[c] != half:
            raise LiftInvariantViolated(0, f"class {c} is not a near-perfect matching")
    degree = [0] * host.vertex_count
    for e in inside:
        degree[e.u] += 1
        degree[e.v] += 1
    colors = palette_mask(s)
    miss = [colors & ~masks[v] for v in vertices]
    for i, v in enumerate(vertices):
        count = miss[i].bit_count()
        if count != s - degree[v]:
            raise LiftInvariantViolated(0, f"vertex {i} missed by {count} classes")
        for j in range(i + 1, n):
            if miss[i] & miss[j]:
                raise LiftInvariantViolated(0, f"vertices {i},{j} share a missing class")
    return masks


def make_block(
    host: Multigraph,
    block_vertices: Sequence[int],
    inside: Sequence[Edge],
    x: int,
    y: int,
    s: int,
    *,
    initial: EdgeColoring,
) -> BlockColoring:
    """Density-check one block of the host graph from its internal host
    edges ``inside`` (as ``block_edges`` gives them), and check its
    s-coloring ``initial``, keeping the masks that check built."""
    verts = tuple(sorted(block_vertices))
    return BlockColoring(verts, initial, x, y, _dense_block_masks(host, verts, inside, s, initial))


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
    boundary: Sequence[tuple[Edge, int]],
    k: int,
) -> BlockColoring:
    """Apply a palette bijection meeting the boundary and top-color needs.

    ``boundary`` pairs each host boundary edge of the block with the color
    it carries outside; the bijection must leave that color missing at the
    edge's block endpoint, and must route the top color k+2 to a class that
    misses the designated vertex x.  It reads the block's masks
    ``bc.masks``, which ``make_block`` sets.
    """
    s = k + 2
    required = [color for _, color in boundary]
    if len(required) != len(set(required)):
        raise PreconditionViolated("boundary colors at one block must be distinct")
    masks = bc.masks
    if masks is None:
        raise PreconditionViolated("block has no color masks; build it with make_block")
    colors = palette_mask(bc.coloring.palette)
    wants: dict[int, int] = {}
    for edge, color in sorted(boundary, key=lambda pair: pair[0].id):
        allowed = colors & ~masks[edge.u if edge.u in bc.vertices else edge.v]
        wants[color] = wants.get(color, allowed) & allowed
    top_allowed = colors & ~masks[bc.x]
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
    return BlockColoring(bc.vertices, EdgeColoring(s, recolored), bc.x, bc.y)


def assemble_lift(
    h1: Multigraph,
    outer: EdgeColoring,
    blocks: Sequence[BlockColoring],
    k: int,
    boundaries: Sequence[Sequence[Edge]],
) -> tuple[EdgeColoring, list[int], list[Chain]]:
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
    return (psi, *check_lift_properties(h1, psi, blocks, k, boundaries))


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
    boundaries: Sequence[Sequence[Edge]],
) -> tuple[list[int], list[Chain]]:
    """Verify that psi is a proper coloring of h1 (property 0) and the
    three properties the downstream orientation relies on; return psi's
    masks and its (k+1, k+2) chains, as ``chains`` lists them.
    ``boundaries`` are the blocks' as ``block_edges`` returns them, one
    list per block.

    1. No block boundary edge carries the top color k+2.
    2. A (k+1, k+2)-chain through a boundary edge is a path reaching a
       vertex outside every block, and the block's vertices all present
       color k+1.
    3. The top color class misses each block's designated vertex x.
    """
    if len(boundaries) != len(blocks):
        raise PreconditionViolated(
            f"{len(blocks)} blocks but {len(boundaries)} boundary lists"
        )
    s = k + 2
    masks = color_masks(h1, psi)
    if masks is None:
        raise LiftInvariantViolated(0, "assembled coloring is not proper")
    reserve = chains(psi, h1, k + 1, s)
    through = {v: ch for ch in reserve for v in ch.vertices}
    owner = {v: i for i, bc in enumerate(blocks) for v in bc.vertices}

    for i, (bc, boundary) in enumerate(zip(blocks, boundaries)):
        for e in boundary:
            if psi.assignment[e.id] == s:
                raise LiftInvariantViolated(1, f"boundary edge {e.id} carries color {s}")
        for e in boundary:
            if psi.assignment[e.id] != k + 1:
                continue
            ch = through[e.u if owner.get(e.u) == i else e.v]
            if ch.kind != "path":
                raise LiftInvariantViolated(2, f"chain through edge {e.id} is a cycle")
            ends = {owner.get(p) for p in ch.endpoints}
            if None not in ends or not ends <= {None, i}:
                raise LiftInvariantViolated(
                    2,
                    f"chain through edge {e.id} ends at {ch.endpoints}, "
                    f"not outside the blocks",
                )
            for w in bc.vertices:
                if not masks[w] >> (k + 1) & 1:
                    raise LiftInvariantViolated(
                        2, f"block vertex {w} does not present color {k + 1}"
                    )
        if masks[bc.x] >> s & 1:
            raise LiftInvariantViolated(3, f"top class touches designated vertex {bc.x}")
    return masks, reserve
