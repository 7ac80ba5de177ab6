"""Proper edge colorings: missing sets, two-color chains, Kempe swaps,
and an exact fixed-palette coloring solver.

``color_masks`` gives, for every vertex, the colors on its edges as a
bitmask (bit c for color c), from the one pass over the edges that also
decides properness (``is_proper`` is that pass).  The lift and augment
checks read these masks instead of rebuilding a present or missing set,
or scanning a color class, per question.

The solver is a backtracking search with fail-first edge selection,
per-vertex color bitmasks and color-symmetry breaking.  It runs as a loop
over flat per-edge lists with an explicit stack of frames, so it has no
recursion-depth limit, and its memory grows with the edge count rather
than the declared vertex count.  It visits the same nodes in the same order
as the earlier recursive version (kept as the reference in the tests), so
colorings and node counts are unchanged.  At desk scale it both finds
colorings and proves impossibility, and a node budget keeps either verdict
honest (running out of budget is a distinct outcome, never reported as
impossibility).

Odd-set look-ahead (``find_coloring(..., lookahead=True)``).  The
obstruction that forces extra colors is odd-set density (Goldberg-Seymour,
proved by Chen, Jing and Zang, arXiv:1901.10316), and it also bounds a
partial coloring.  Let U be an odd vertex set and m the palette.  Each
color class is a matching, so color c can still take at most
floor(free_c(U)/2) of the uncolored edges inside U, where free_c(U) counts
the vertices of U at which c is unused.  Summing over the palette, with
used[v] the colors at v, e_in(U) the edges inside U (colored or not) and
cbd(U) the colored edges with exactly one end in U:

    sum_c free_c(U) = m|U| - 2 (colored edges inside U) - cbd(U),

and because |U| is odd, free_c(U) is odd exactly when c is on an even
number of U's vertices, so the colors with free_c(U) even are the set
bits of X(U) = XOR of used[v] over v in U.  The uncolored edges of E[U]
fit only if

    h(U) = m(|U|-1) - 2 e_in(U) - (cbd(U) - popcount(X(U))) >= 0.

h is even (popcount(X) has the parity of cbd), and a coloring that
reaches h(U) < 0 has no extension, so the subtree below it can be cut.
Coloring edge ab with c changes h only on the sets that hold exactly one
of a and b: cbd rises by one and bit c of X flips, so h drops by 2 where
c was already odd on U and stays put where it was even.  Uncoloring is
the mirror image, and recoloring is an uncoloring then a coloring.  Since
cbd - popcount(X) >= 0, h(U) >= m(|U|-1) - (degree sum of U), so a set
whose degree sum is at most m(|U|-1) never fires, and neither does a
single vertex (h = 0).  ``OddSetLookahead`` tracks the odd sets with
3 <= |U| <= 5 over the touched vertices whose degree sum exceeds
m(|U|-1) (larger sets solved no more instances in trials), holding h/2
bit-sliced: one int per bit plane with a bit per set, one parity int per
color, one membership int per vertex.  An update is a borrow or carry
chain over a few planes, and a borrow out of the top plane means some
set went negative.

The look-ahead is lazy.  The plain search runs until, at a dead end, it
has visited ``LOOKAHEAD_NODES_PER_SET`` times as many nodes as there are
odd sets of size 3 and 5 to enumerate, so building the table never costs
much more than the search already spent; most calls end before that.
At switch-on the stack is replayed into the table, and the search jumps
back to the shallowest prefix that already violates.  From then on a
color that drives some h negative is treated as tried and failed, without
counting a node.  Every cut subtree holds no coloring, and the search
order is unchanged, so the depth-first search visits a subsequence of the
plain search's nodes: it returns the same first coloring, or the same
None, within at most the plain search's node count, and the budget still
counts nodes.  Nothing is kept between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Mapping, Sequence

from .errors import BudgetExhausted, StageAssertionFailed
from .multigraph import Edge, Multigraph

COLOR_BUDGET_DEFAULT = 10_000_000
# The look-ahead switches on at the first dead end after the plain search
# has visited this many nodes per odd set of size 3 and 5 to enumerate.
LOOKAHEAD_NODES_PER_SET = 2
# Odd set sizes the look-ahead tracks.
LOOKAHEAD_SIZES = (3, 5)


@dataclass(frozen=True)
class EdgeColoring:
    """A total assignment edge id -> color in [1, palette].

    Treated as an immutable value: updates go through with_colors(), which
    returns a new coloring.
    """

    palette: int
    assignment: Mapping[int, int]

    def color_of(self, edge_id: int) -> int:
        return self.assignment[edge_id]

    def with_colors(self, updates: Mapping[int, int]) -> "EdgeColoring":
        merged = dict(self.assignment)
        merged.update(updates)
        return EdgeColoring(self.palette, merged)

    def color_class(self, color: int) -> frozenset[int]:
        return frozenset(e for e, c in self.assignment.items() if c == color)


@dataclass(frozen=True)
class Chain:
    """A connected component of the subgraph spanned by two color classes.

    Paths list vertices end to end; cycles list each vertex once, with
    edges[i] joining vertices[i] and vertices[(i+1) % len].  A vertex seeing
    neither color yields a trivial single-vertex path.
    """

    alpha: int
    beta: int
    vertices: tuple[int, ...]
    edges: tuple[int, ...]
    kind: str  # "path" | "cycle"

    @property
    def is_trivial(self) -> bool:
        return not self.edges

    @property
    def endpoints(self) -> tuple[int, int]:
        if self.kind != "path":
            raise ValueError("cycles have no endpoints")
        return self.vertices[0], self.vertices[-1]

    def oriented_from(self, v: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Vertex and edge sequences of a path chain, starting at endpoint v."""
        if self.kind != "path":
            raise ValueError("cycles have no orientation anchor")
        if self.vertices[0] == v:
            return self.vertices, self.edges
        if self.vertices[-1] == v:
            return tuple(reversed(self.vertices)), tuple(reversed(self.edges))
        raise ValueError(f"vertex {v} is not an endpoint of this chain")


def color_masks(g: Multigraph, coloring: EdgeColoring) -> list[int] | None:
    """Per vertex, the colors on its edges as a bitmask (bit c for color c),
    from one pass over the edges; None when the coloring is not proper: an
    edge is uncolored or colored outside [1, palette], or a vertex repeats
    a color.  Its missing colors are ``palette_mask(palette) & ~mask``."""
    assignment, palette = coloring.assignment, coloring.palette
    used = [0] * g.vertex_count
    for e in g.edges:
        c = assignment.get(e.id)
        if c is None or not (1 <= c <= palette):
            return None
        bit = 1 << c
        if (used[e.u] | used[e.v]) & bit:
            return None
        used[e.u] |= bit
        used[e.v] |= bit
    return used


def is_proper(g: Multigraph, coloring: EdgeColoring) -> bool:
    """True when every edge has a color in range and no vertex repeats one."""
    return color_masks(g, coloring) is not None


def palette_mask(palette: int) -> int:
    """The colors 1..palette as a color mask."""
    return (1 << (palette + 1)) - 2


def mask_colors(mask: int) -> list[int]:
    """The colors of a color mask, in increasing order."""
    return [c for c in range(mask.bit_length()) if mask >> c & 1]


def present(coloring: EdgeColoring, g: Multigraph, v: int) -> frozenset[int]:
    """Colors appearing on edges at v."""
    return frozenset(coloring.assignment[e.id] for e in g.incident(v))


def missing(coloring: EdgeColoring, g: Multigraph, v: int) -> frozenset[int]:
    """Palette colors not appearing at v."""
    return frozenset(range(1, coloring.palette + 1)) - present(coloring, g, v)


def _two_color_incidence(
    coloring: EdgeColoring, g: Multigraph, alpha: int, beta: int
) -> dict[int, list[Edge]]:
    if alpha == beta:
        raise ValueError("chain colors must differ")
    for c in (alpha, beta):
        if not (1 <= c <= coloring.palette):
            raise ValueError(f"color {c} outside palette [1,{coloring.palette}]")
    table: dict[int, list[Edge]] = {}
    for e in g.edges:
        if coloring.assignment[e.id] in (alpha, beta):
            table.setdefault(e.u, []).append(e)
            table.setdefault(e.v, []).append(e)
    return table


def chain(coloring: EdgeColoring, g: Multigraph, v: int, alpha: int, beta: int) -> Chain:
    """The two-color component containing v, canonically ordered.

    Paths run from their smaller endpoint; cycles start at their smallest
    vertex and head toward the smaller neighbor (smaller edge id on a tie,
    which covers the two-vertex parallel-edge cycle).
    """
    return _component(_two_color_incidence(coloring, g, alpha, beta), v, alpha, beta)


def chains(coloring: EdgeColoring, g: Multigraph, alpha: int, beta: int) -> list[Chain]:
    """Every nontrivial two-color component, each ordered as by chain():
    the paths, then the cycles, each by first vertex."""
    table = _two_color_incidence(coloring, g, alpha, beta)
    found: list[Chain] = []
    seen: set[int] = set()
    for v in sorted(table):
        if v not in seen:
            ch = _component(table, v, alpha, beta)
            seen.update(ch.vertices)
            found.append(ch)
    found.sort(key=lambda ch: (ch.kind == "cycle", ch.vertices[0]))
    return found


def _component(table: dict[int, list[Edge]], v: int, alpha: int, beta: int) -> Chain:
    here = table.get(v, [])
    if not here:
        return Chain(alpha, beta, (v,), (), "path")

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
            cyc_verts = verts1[:-1]
            if len(eids1) % 2:
                raise StageAssertionFailed("chain", "two-color cycles are even")
            return _canonical_cycle(alpha, beta, cyc_verts, eids1)
        verts2, eids2, _ = walk(here[1])
        vertices = tuple(reversed(verts1)) + tuple(verts2[1:])
        edges = tuple(reversed(eids1)) + tuple(eids2)
    if vertices[0] > vertices[-1]:
        vertices = tuple(reversed(vertices))
        edges = tuple(reversed(edges))
    return Chain(alpha, beta, vertices, edges, "path")


def _canonical_cycle(alpha: int, beta: int, verts: list[int], eids: list[int]) -> Chain:
    # verts[i] -- eids[i] -- verts[i+1 mod L]; rotate to the smallest vertex,
    # then pick the direction with the smaller successor (edge id on a tie).
    size = len(verts)
    start = verts.index(min(verts))
    fwd_v = [verts[(start + i) % size] for i in range(size)]
    fwd_e = [eids[(start + i) % size] for i in range(size)]
    bwd_v = [verts[(start - i) % size] for i in range(size)]
    bwd_e = [eids[(start - 1 - i) % size] for i in range(size)]
    if (bwd_v[1], bwd_e[0]) < (fwd_v[1], fwd_e[0]):
        return Chain(alpha, beta, tuple(bwd_v), tuple(bwd_e), "cycle")
    return Chain(alpha, beta, tuple(fwd_v), tuple(fwd_e), "cycle")


def kempe_swap(coloring: EdgeColoring, ch: Chain) -> EdgeColoring:
    """Exchange the chain's two colors along its edges (an involution)."""
    updates: dict[int, int] = {}
    for eid in ch.edges:
        c = coloring.assignment[eid]
        if c == ch.alpha:
            updates[eid] = ch.beta
        elif c == ch.beta:
            updates[eid] = ch.alpha
        else:
            raise ValueError(f"stale chain: edge {eid} now colored {c}")
    return coloring.with_colors(updates)


def linked(
    coloring: EdgeColoring, g: Multigraph, u: int, v: int, alpha: int, beta: int
) -> bool:
    """True iff u and v lie on the same (alpha, beta)-chain."""
    if u == v:
        raise ValueError("linkedness is asked of two distinct vertices")
    return u in chain(coloring, g, v, alpha, beta).vertices


class OddSetLookahead:
    """h(U)/2 for every odd set U that can refute a partial m-coloring,
    bit-sliced across the sets (see the module docstring).

    Vertices are 0..n-1 and ``pairs`` lists the edges' endpoints.  Set i is
    bit i of every int: ``planes[j]`` holds bit j of each h/2, ``member[v]``
    the sets that contain v, and ``parity[bit]`` the sets on which that
    color sits at an odd number of vertices.
    """

    def __init__(self, n: int, pairs: Sequence[tuple[int, int]], m: int) -> None:
        degree = [0] * n
        mult = [[0] * n for _ in range(n)]
        for u, v in pairs:
            degree[u] += 1
            degree[v] += 1
            mult[u][v] += 1
            mult[v][u] += 1
        sets: list[tuple[int, ...]] = []
        halves: list[int] = []
        for size in LOOKAHEAD_SIZES:
            limit = m * (size - 1)
            for members in combinations(range(n), size):
                if sum(degree[x] for x in members) > limit:
                    inside = sum(mult[a][b] for a, b in combinations(members, 2))
                    sets.append(members)
                    halves.append(limit // 2 - inside)
        self.sets = sets
        # Some set is over the bound before any edge is colored: no m-coloring.
        self.refuted = any(h < 0 for h in halves)
        # Each int is written as a row of binary digits, set i at digit
        # count - i; the leading "0" keeps a row parseable with no sets.
        count = len(sets)
        width = max(halves, default=0).bit_length() or 1
        planes = [bytearray(b"0" * (count + 1)) for _ in range(width)]
        member = [bytearray(b"0" * (count + 1)) for _ in range(n)]
        one = ord("1")
        for i, (members, h) in enumerate(zip(sets, halves)):
            for j in range(width):
                if h >> j & 1:
                    planes[j][count - i] = one
            for x in members:
                member[x][count - i] = one
        self.planes = [int(row, 2) for row in planes]
        self.member = [int(row, 2) for row in member]
        self.parity: dict[int, int] = {}

    def color(self, u: int, v: int, bit: int) -> bool:
        """Color edge uv with the color ``bit``.  False when that drives some
        h negative; the update is made either way, so uncolor() undoes it."""
        moved = self.member[u] ^ self.member[v]
        parity = self.parity.get(bit, 0)
        self.parity[bit] = parity ^ moved
        borrow = moved & parity
        planes = self.planes
        for j, plane in enumerate(planes):
            if not borrow:
                return True
            planes[j] = plane ^ borrow
            borrow &= ~plane
        return not borrow

    def uncolor(self, u: int, v: int, bit: int) -> None:
        """Undo color(u, v, bit)."""
        moved = self.member[u] ^ self.member[v]
        parity = self.parity[bit] ^ moved
        self.parity[bit] = parity
        carry = moved & parity
        planes = self.planes
        for j, plane in enumerate(planes):
            if not carry:
                return
            planes[j] = plane ^ carry
            carry &= plane

    def halves(self) -> list[int]:
        """h(U)/2 of every tracked set, in the order of ``sets``."""
        return [
            sum((plane >> i & 1) << j for j, plane in enumerate(self.planes))
            for i in range(len(self.sets))
        ]


def find_coloring(
    g: Multigraph,
    m: int,
    budget: int = COLOR_BUDGET_DEFAULT,
    *,
    lookahead: bool = False,
    counters: dict[str, int] | None = None,
) -> EdgeColoring | None:
    """Search for a proper m-edge-coloring.

    Returns a coloring, or None when exhaustive search proves none exists.
    Raises BudgetExhausted when the node budget runs out first.  With
    ``lookahead`` the odd-set look-ahead cuts subtrees that hold no coloring
    (see the module docstring); the result is the same.  ``counters``, when
    given, gains the search's "nodes" and "prunes".
    """
    if m < 0:
        raise ValueError("palette size must be non-negative")
    if not g.edges:
        return EdgeColoring(m, {})
    # Degrees and color masks only for the vertices that edges touch, so the
    # work grows with |E| and not with the declared vertex count.
    degree: dict[int, int] = {}
    for e in g.edges:
        degree[e.u] = degree.get(e.u, 0) + 1
        degree[e.v] = degree.get(e.v, 0) + 1
    if max(degree.values()) > m:
        return None  # pigeonhole at a max-degree vertex

    # Denser endpoints first, then smaller id.  pending stays a subsequence
    # of this order, so its first edge with the fewest admissible colors is
    # the fail-first choice by (count, -degree sum, id).
    edges = sorted(g.edges, key=lambda e: (-(degree[e.u] + degree[e.v]), e.id))
    slot = {v: i for i, v in enumerate(degree)}
    eu = [slot[e.u] for e in edges]
    ev = [slot[e.v] for e in edges]
    used = [0] * len(slot)
    # Symmetry breaking: with colors 1..j in use, only colors 1..j+1 are tried.
    # Each colored edge brings in at most one new color, so j <= |E|.
    caps = [(1 << min(m, j + 1)) - 1 for j in range(min(m, len(edges)) + 1)]
    pending = list(range(len(edges)))
    # One frame per colored edge: (position in pending, edge, its endpoints,
    # untried color bits, the parent's ncolors, the color bit on the edge).
    stack: list[tuple[int, int, int, int, int, int, int]] = []
    ncolors = 0
    nodes = prunes = 0
    look: OddSetLookahead | None = None
    switch_at = None
    if lookahead and len(slot) >= 3:
        switch_at = LOOKAHEAD_NODES_PER_SET * sum(comb(len(slot), s) for s in LOOKAHEAD_SIZES)
    try:
        while pending:
            nodes += 1
            if nodes > budget:
                raise BudgetExhausted(f"coloring search exceeded {budget} nodes")
            cap = caps[ncolors]
            best_count = m + 1
            for i in pending:
                allowed = cap & ~(used[eu[i]] | used[ev[i]])
                count = allowed.bit_count()
                if count < best_count:
                    best, best_allowed, best_count = i, allowed, count
                    if not count:
                        break
            if best_count:
                # Descend: take the edge out of pending, try its lowest color.
                pos = pending.index(best)
                del pending[pos]
                u, v = eu[best], ev[best]
                bit = best_allowed & -best_allowed
                stack.append((pos, best, u, v, best_allowed ^ bit, ncolors, bit))
                used[u] |= bit
                used[v] |= bit
                c = bit.bit_length()
                if c > ncolors:
                    ncolors = c
                if look is None or look.color(u, v, bit):
                    continue
                prunes += 1  # the dead-end loop below undoes the refuted color
            elif switch_at is not None and nodes >= switch_at:
                switch_at = None
                look = OddSetLookahead(len(slot), list(zip(eu, ev)), m)
                if look.refuted:
                    prunes += 1
                    return None
                # Replay the stack; jump back to the shallowest frame whose
                # coloring already violates, dropping the frames above it.
                for depth, frame in enumerate(stack):
                    if not look.color(frame[2], frame[3], frame[6]):
                        prunes += 1
                        while len(stack) > depth + 1:
                            pos, i, u, v, _, _, bit = stack.pop()
                            used[u] ^= bit
                            used[v] ^= bit
                            pending.insert(pos, i)
                        break
            # Dead end: move the deepest frame with an untried color to its
            # next color, putting every exhausted edge back where it was.
            while stack:
                pos, i, u, v, untried, parent_ncolors, bit = stack[-1]
                used[u] ^= bit
                used[v] ^= bit
                if look is not None:
                    look.uncolor(u, v, bit)
                if untried:
                    bit = untried & -untried
                    stack[-1] = (pos, i, u, v, untried ^ bit, parent_ncolors, bit)
                    used[u] |= bit
                    used[v] |= bit
                    c = bit.bit_length()
                    ncolors = c if c > parent_ncolors else parent_ncolors
                    if look is None or look.color(u, v, bit):
                        break
                    prunes += 1
                    continue
                stack.pop()
                pending.insert(pos, i)
            else:
                return None
        return EdgeColoring(m, {edges[f[1]].id: f[6].bit_length() for f in stack})
    finally:
        if counters is not None:
            counters["nodes"] = counters.get("nodes", 0) + nodes
            counters["prunes"] = counters.get("prunes", 0) + prunes


def chromatic_index(g: Multigraph, budget: int = COLOR_BUDGET_DEFAULT) -> int:
    """Smallest m admitting a proper m-edge-coloring (exhaustively bracketed)."""
    if not g.edges:
        return 0
    for m in range(g.max_degree(), len(g.edges) + 1):
        if find_coloring(g, m, budget) is not None:
            return m
    raise AssertionError("unreachable: |E| colors always suffice")


def is_s_dense(g: Multigraph) -> int | None:
    """The integer s >= 1 with |E| = s(|V|-1)/2, for odd |V| >= 3; else None."""
    n = g.vertex_count
    if n < 3 or n % 2 == 0:
        return None
    twice = 2 * len(g.edges)
    if twice % (n - 1):
        return None
    s = twice // (n - 1)
    return s if s >= 1 else None
