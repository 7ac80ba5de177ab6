"""Proper edge colorings: missing sets, two-color chains, Kempe swaps,
and an exact fixed-palette coloring solver.

``color_masks`` gives, for every vertex, the colors on its edges as a
bitmask (bit c for color c), from the one pass over the edges that also
decides properness (``is_proper`` is that pass).  The block path builds
them once per coloring and hands them on through recoloring, lift and
augment, instead of rebuilding a present or missing set per question.

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
single vertex (h = 0).  The look-ahead tracks the odd sets with
3 <= |U| <= 5 over the touched vertices (larger sets solved no more
instances in trials) in ``OddSetLookahead``: one int holds h/2 + 2^(w-1)
in a w-bit lane per set, with one parity int per color and one membership
int per vertex laid out alike.  w is the narrowest of 8, 16, 32, ... bits
with 2m < 2^(w-1), so 8 below m = 64.  Coloring ab with c subtracts
(member[a] ^ member[b]) & parity[c], and a lane whose bit w-1 clears went
negative.  The build starts each lane at 2^(w-1) + m(|U|-1)/2, subtracts
member[a] & member[b] per edge, and stops at the first negative lane, so
no lane ever borrows from the next.  The table keeps no refuted color: it
is undone before the next.  Lanes cost time in proportion to the width of
the ints: on chi-prime cores of 14 to 16 vertices a bit-sliced table (a
bit per set in each of a few planes) ran the same searches in 0.5 to 1.0
times the time, median 0.8.  No benchmark workload has cores that large,
so the table has this one form.

The look-ahead is lazy, and how soon it starts depends on the core's
size.  On at most ``LOOKAHEAD_SMALL_CORE`` (16) touched vertices the
table holds every odd set of size 3 and 5 (by the bound above, the sets
that cannot fire change no cut), and the plain search runs until, at a
dead end, it has visited ``LOOKAHEAD_NODES_PER_SET`` (1/32) times as many
nodes as there are such sets; a build there takes about 77 us at n = 12
(1012 sets, 42 edges, 8 colors).  On more vertices it waits for
``LOOKAHEAD_LARGE_NODES_PER_SET`` (2) nodes per set, and the table then
keeps only the lanes of the sets whose degree sum exceeds m(|U|-1),
squeezed out of the full ints once per build (a quarter to four fifths
of the sets drop on fuzz cores of 17 to 24 vertices; the early start
lost tenfold at 24).
At switch-on the stack is replayed into the table, and the search jumps
back to the shallowest prefix that already violates.  From then on a
color that drives some h negative is treated as tried and failed, without
counting a node.  Every cut subtree holds no coloring, and the search
order is unchanged, so the search visits a subsequence of the plain
search's nodes: the same first coloring, or the same None, within at
most the plain search's node count (the budget still counts nodes).
Only the layouts of the sets are kept between calls, one per n to 16 and
lane width.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress
from math import comb
from typing import Mapping, Sequence

from .errors import BudgetExhausted, StageAssertionFailed
from .multigraph import Edge, Multigraph

COLOR_BUDGET_DEFAULT = 10_000_000
# The look-ahead switches on at the first dead end after the plain search
# has visited this many nodes per odd set of size 3 and 5 ...
LOOKAHEAD_NODES_PER_SET = 1 / 32
# ... on at most this many touched vertices, and past that at this many.
LOOKAHEAD_SMALL_CORE = 16
LOOKAHEAD_LARGE_NODES_PER_SET = 2
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

    def with_colors(self, updates: Mapping[int, int]) -> "EdgeColoring":
        merged = dict(self.assignment)
        merged.update(updates)
        return EdgeColoring(self.palette, merged)


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


def color_masks(
    g: Multigraph, coloring: EdgeColoring, *, edges: Sequence[Edge] | None = None
) -> list[int] | None:
    """Per vertex, the colors on its edges as a bitmask (bit c for color c),
    from one pass over the edges; None when the coloring is not proper: an
    edge is uncolored or colored outside [1, palette], or a vertex repeats
    a color.  Its missing colors are ``palette_mask(palette) & ~mask``.
    ``edges``, when given, are read in place of g's, such as a block's
    internal edges; the masks still run over g's vertices."""
    assignment, palette = coloring.assignment, coloring.palette
    used = [0] * g.vertex_count
    for e in g.edges if edges is None else edges:
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


def _two_color_incidence(
    coloring: EdgeColoring, g: Multigraph, alpha: int, beta: int
) -> dict[int, list[Edge]]:
    """Per vertex, its edges colored alpha or beta, in edge order."""
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


@lru_cache(maxsize=None)
def _lookahead_layout(n: int, w: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The tracked odd sets over vertices 0..n-1: those of each size in
    LOOKAHEAD_SIZES, in ``combinations`` order, set i in the w-bit lane i
    (bits w*i to w*i + w-1).  Returns per vertex a 1 in the lanes of the
    sets that hold it, and per size a 1 in the lanes of its sets."""
    top = max(LOOKAHEAD_SIZES)
    # rows[s][x]: the s-sets of the last k vertices, in combinations order,
    # that hold the x-th of them.  The s-sets holding the first of the k
    # come first, then the s-sets of the other k-1.
    rows: list[list[int]] = [[] for _ in range(top + 1)]
    for k in range(1, n + 1):
        for s in range(top, 0, -1):
            first = comb(k - 1, s - 1)
            rows[s] = [_ones(first, w)] + [a | b << w * first for a, b in zip(rows[s - 1], rows[s])]
        rows[0] = [0] * k
    member = [0] * n
    masks = []
    offset = 0
    for size in LOOKAHEAD_SIZES:
        for x, row in enumerate(rows[size]):
            member[x] |= row << w * offset
        count = comb(n, size)
        masks.append(_ones(count, w) << w * offset)
        offset += count
    return tuple(member), tuple(masks)


def _set_count(n: int) -> int:
    """The number of odd sets over n vertices of a size in LOOKAHEAD_SIZES."""
    return sum(comb(n, size) for size in LOOKAHEAD_SIZES)


def _ones(count: int, w: int) -> int:
    """A 1 in each of the lowest ``count`` w-bit lanes."""
    return ((1 << w * count) - 1) // ((1 << w) - 1)


class OddSetLookahead:
    """h(U)/2 for every odd set U of a size in LOOKAHEAD_SIZES, against a
    partial m-coloring, one w-bit lane per set (see the module docstring).

    Vertices are 0..n-1 and ``pairs`` lists the edges' endpoints; no vertex
    is on more than m of them.  Set i is lane i of every int: ``h`` holds
    h/2 + 2^(w-1), ``member[v]`` a 1 in the lanes of the sets that contain
    v, and ``parity[bit]`` a 1 in the lanes of the sets on which that color
    sits at an odd number of vertices.
    """

    def __init__(self, n: int, pairs: Sequence[tuple[int, int]], m: int) -> None:
        # The narrowest lanes of 8, 16, 32, ... bits with 2m < 2^(w-1):
        # h/2 is at most m(|U|-1)/2 = 2m, and a refuted color is undone
        # before the next, so no lane leaves 2^(w-1) - 1 .. 2^w - 1, and
        # bit w-1 of a lane is set exactly while its h/2 >= 0.
        w = 8
        while 2 * m >= 1 << (w - 1):
            w *= 2
        self.width = w
        self.sign_bit = sign_bit = w - 1
        # Only the layouts of small cores are kept; a larger one is cheap
        # next to the search that ran before it was asked for.
        layout = _lookahead_layout if n <= LOOKAHEAD_SMALL_CORE else _lookahead_layout.__wrapped__
        member, masks = layout(n, w)
        self.member = member
        # h/2 starts at m(|U|-1)/2 and loses each edge inside U.  The build
        # stops at the first negative lane, so no lane borrows from the next:
        # some set is over the bound before any edge is colored.
        h = sum(
            ((1 << sign_bit) + m * (size - 1) // 2) * mask
            for size, mask in zip(LOOKAHEAD_SIZES, masks)
        )
        self.parity: dict[int, int] = {}
        self.refuted = False
        for u, v in pairs:
            both = member[u] & member[v]
            h -= both
            if h >> sign_bit & both != both:
                self.refuted = True
                break
        self.h = h
        # The layout's sets that the table tracks, a 1 in their lanes.
        self.tracked = sum(masks)
        if n > LOOKAHEAD_SMALL_CORE and not self.refuted:
            # Keep only the sets that can fire, those whose degree sum
            # exceeds m(|U|-1).  With x = h/2 now and b the edges with one
            # end in U, that is 2x < b, or x < ceil(b/2): every other such
            # edge takes one off a copy of the lane, and the lanes that go
            # negative stay.  2x - b >= -m, as no vertex has more than m
            # edges, so no lane borrows here either.  An update costs time
            # in proportion to the width of the ints, and past small cores
            # that outweighs the squeeze, run once.
            rest, odd = h, 0
            for u, v in pairs:
                moved = member[u] ^ member[v]
                rest -= moved & ~odd
                odd ^= moved
            fire = ~(rest >> sign_bit) & self.tracked
            keep = (fire * ((1 << w) - 1)).to_bytes(w // 8 * _set_count(n), "little")

            def squeeze(x: int) -> int:
                kept = compress(x.to_bytes(len(keep), "little"), keep)
                return int.from_bytes(bytes(kept), "little")

            self.member = [squeeze(x) for x in member]
            self.h = squeeze(h)
            self.tracked = fire

    @property
    def sets(self) -> tuple[tuple[int, ...], ...]:
        """The tracked sets, set i in lane i."""
        n = len(self.member)
        every = [u for size in LOOKAHEAD_SIZES for u in combinations(range(n), size)]
        step = self.width // 8
        return tuple(compress(every, self.tracked.to_bytes(step * len(every), "little")[::step]))

    def color(self, u: int, v: int, bit: int) -> bool:
        """Color edge uv with the color ``bit``.  False when that drives some
        h negative; the update is made either way, so uncolor() undoes it."""
        moved = self.member[u] ^ self.member[v]
        parity = self.parity.get(bit, 0)
        self.parity[bit] = parity ^ moved
        dec = moved & parity
        self.h -= dec
        return self.h >> self.sign_bit & dec == dec

    def uncolor(self, u: int, v: int, bit: int) -> None:
        """Undo color(u, v, bit)."""
        moved = self.member[u] ^ self.member[v]
        parity = self.parity[bit] ^ moved
        self.parity[bit] = parity
        self.h += moved & parity

    def halves(self) -> list[int]:
        """h(U)/2 of every tracked set, in the order of ``sets``."""
        step = self.width // 8
        raw = self.h.to_bytes(step * len(self.sets), "little")
        bias = 1 << self.sign_bit
        return [
            int.from_bytes(raw[i : i + step], "little") - bias for i in range(0, len(raw), step)
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
    given, gains the search's "nodes" and "prunes", and "lookahead_builds"
    (1 when the look-ahead was switched on, else 0).
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
    # Symmetry breaking: with colors 1..j in use, only the colors 1..tops[j]
    # (j+1, or m) are tried.  Each colored edge brings in at most one new
    # color, so j <= |E|.
    tops = [min(m, j + 1) for j in range(min(m, len(edges)) + 1)]
    pending = list(range(len(edges)))
    # One frame per colored edge: (position in pending, edge, its endpoints,
    # untried color bits, the parent's ncolors, the color bit on the edge).
    stack: list[tuple[int, int, int, int, int, int, int]] = []
    ncolors = 0
    nodes = prunes = 0
    look: OddSetLookahead | None = None
    switch_at = None
    if lookahead and len(slot) >= 3:
        rate = LOOKAHEAD_NODES_PER_SET
        if len(slot) > LOOKAHEAD_SMALL_CORE:
            rate = LOOKAHEAD_LARGE_NODES_PER_SET
        switch_at = rate * _set_count(len(slot))
    try:
        while pending:
            nodes += 1
            if nodes > budget:
                raise BudgetExhausted(f"coloring search exceeded {budget} nodes")
            # Every color in use lies inside the cap, so the fewest admissible
            # colors are the most colors taken at the edge's two ends.
            top = tops[ncolors]
            best_taken = -1
            for i in pending:
                taken = (used[eu[i]] | used[ev[i]]).bit_count()
                if taken > best_taken:
                    best, best_taken = i, taken
                    if taken == top:
                        break
            if best_taken < top:
                # Descend: take the edge out of pending, try its lowest color.
                pos = pending.index(best)
                del pending[pos]
                u, v = eu[best], ev[best]
                best_allowed = ((1 << top) - 1) & ~(used[u] | used[v])
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
            counters["lookahead_builds"] = counters.get("lookahead_builds", 0) + (look is not None)


def is_s_dense(g: Multigraph) -> int | None:
    """The integer s >= 1 with |E| = s(|V|-1)/2, for odd |V| >= 3; else None."""
    return dense_palette(g.vertex_count, len(g.edges))


def dense_palette(n: int, edge_count: int) -> int | None:
    """``is_s_dense`` of a graph with n vertices and edge_count edges."""
    if n < 3 or n % 2 == 0:
        return None
    twice = 2 * edge_count
    if twice % (n - 1):
        return None
    s = twice // (n - 1)
    return s if s >= 1 else None
