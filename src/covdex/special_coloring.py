"""Recolor a (k+2)-edge-coloring so the top color avoids a protected set.

Given Delta(g) <= k+1, a vertex set S whose members have degree at most
k/2, and chromatic index at most k+2, the loop below reaches a proper
(k+2)-coloring where (1) the top color k+2 is missing at every vertex of S
and (2) every (k+1, k+2) path-chain with an endpoint in S ends outside S.

The procedure is a sequence of local moves (single-edge recolorings and
Kempe swaps).  Phase 1 drives the count of S-vertices presenting the top
color to zero: each move either lowers that count or keeps it while
strictly lowering the working chain index, so it terminates.  Phase 2 does
the same for the count of (k+1, k+2) chains joining two S-vertices, using
swap colors drawn from [1, k] only, so phase 1's achievement is never
undone.  A move cap of 10·|E|·(k+2)² guards against implementation bugs:
exceeding it raises instead of looping forever.

Every move is returned as a dict: its phase, its kind ("endpoint-swap",
"recolor-first", "linked-swap" or "detach"), the chain index it worked at,
its step number and both potentials after it.  The main loop checks each
round's progress from those potentials instead of computing them again.

Which colors a vertex presents or misses is read from per-vertex color
masks (``coloring.color_masks``), built once per coloring: by the entry
check for the start coloring, which is returned as it is when no move is
made, and after each move for the new coloring.  Building them also checks
that coloring proper, so an improper move is refused where it is made.  A
proper start's masks also give the entry check its degrees, as popcounts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .coloring import (
    Chain, EdgeColoring, chain, chains, color_masks, kempe_swap, mask_colors, palette_mask,
)
from .errors import BudgetExhausted, PreconditionViolated, StageAssertionFailed, VertexOutOfRange
from .multigraph import Multigraph


@dataclass(frozen=True)
class Potentials:
    """The two quantities the recoloring drives to zero.

    exposed: S-vertices presenting the top color k+2.
    bridges: (k+1, k+2) path-chains with both endpoints in S.
    """

    exposed: int
    bridges: int


# Stage named by the invariant failures raised here (decompose's name for it).
_STAGE = "special-coloring"

# A move's coloring with its potentials and color masks.
_State = tuple[EdgeColoring, Potentials, list[int]]


def potentials(
    g: Multigraph, coloring: EdgeColoring, k: int, S: Iterable[int], masks: list[int] | None = None
) -> Potentials:
    """Recompute both counters from scratch, reading exposure from the
    proper coloring's per-vertex color ``masks`` (built here unless given).
    Raises PreconditionViolated when the coloring is not proper."""
    protected = set(S)
    masks = color_masks(g, coloring) if masks is None else masks
    if masks is None:
        raise PreconditionViolated("coloring is not a proper edge coloring")
    exposed = sum(masks[v] >> (k + 2) & 1 for v in protected)
    return Potentials(exposed, len(_bridges(g, coloring, k, protected)))


def _bridges(g: Multigraph, coloring: EdgeColoring, k: int, protected: set[int]) -> list[Chain]:
    """The (k+1, k+2) path-chains joining two protected vertices, in
    ``chains`` order; with fewer than two protected, none is walked."""
    if len(protected) < 2:
        return []
    walks = chains(coloring, g, k + 1, k + 2)
    return [ch for ch in walks if ch.kind == "path" and protected.issuperset(ch.endpoints)]


def special_coloring(
    g: Multigraph,
    k: int,
    S: Iterable[int],
    *,
    initial: EdgeColoring,
) -> tuple[EdgeColoring, list[dict]]:
    """Produce a proper (k+2)-coloring with both potentials at zero, and
    the moves that led to it from the proper (k+2)-coloring ``initial``.

    Raises PreconditionViolated when k < 1, when Delta(g) > k+1, when some
    S-vertex has degree above k/2, or when ``initial`` is not a proper
    (k+2)-coloring, and VertexOutOfRange for an S-vertex outside g, in the
    order of the S-vertices' degree checks.  A move that leaves an improper
    coloring raises StageAssertionFailed at that move, and hitting the move
    cap raises BudgetExhausted (both bug indicators, since every move keeps
    the coloring proper and termination is otherwise guaranteed).
    """
    protected = sorted(set(S))
    top = k + 2
    masks = color_masks(g, initial) if initial.palette == top else None
    # A proper coloring puts a different color on each edge at a vertex.
    degree = dict(enumerate(g.degrees() if masks is None else map(int.bit_count, masks)))
    if k < 1:
        raise PreconditionViolated(f"need k >= 1, got {k}")
    if max(degree.values(), default=0) > k + 1:
        raise PreconditionViolated(f"max degree {max(degree.values())} exceeds k+1 = {k + 1}")
    for v in protected:
        if v not in degree:
            raise VertexOutOfRange(f"protected vertex {v} out of range for n={g.vertex_count}")
        if 2 * degree[v] > k:
            raise PreconditionViolated(f"vertex {v} has degree {degree[v]} > k/2")
    if masks is None:
        raise PreconditionViolated("initial coloring is not a proper (k+2)-coloring")
    cur = initial

    budget = max(1, 10 * len(g.edges) * top * top)
    moves: list[dict] = []

    def spend(move: dict, after: EdgeColoring) -> _State:
        if len(moves) >= budget:
            raise BudgetExhausted(f"recoloring exceeded {budget} moves")
        after_masks = color_masks(g, after)
        if after_masks is None:
            raise StageAssertionFailed(_STAGE, f"{move['move']} move left an improper coloring")
        pot = potentials(g, after, k, protected, after_masks)
        move.update(step=len(moves) + 1, exposed=pot.exposed, bridges=pot.bridges)
        moves.append(move)
        return after, pot, after_masks

    pot = potentials(g, cur, k, protected, masks)
    while pot.exposed or pot.bridges:
        phase = 1 if pot.exposed else 2
        cur, after, masks = _lower(g, cur, masks, k, protected, phase, spend)
        if phase == 1 and after.exposed >= pot.exposed:
            raise StageAssertionFailed(_STAGE, "phase-1 round must lower the exposed count")
        if phase == 2 and after.exposed:
            raise StageAssertionFailed(_STAGE, "phase 2 must not re-expose the top color")
        if phase == 2 and after.bridges >= pot.bridges:
            raise StageAssertionFailed(_STAGE, "phase-2 round must lower the bridge count")
        pot = after
    return cur, moves


def _lower(
    g: Multigraph,
    cur: EdgeColoring,
    masks: list[int],
    k: int,
    protected: list[int],
    phase: int,
    spend: Callable[[dict, EdgeColoring], _State],
) -> _State:
    """One outer round: the move that should lower the exposed count (phase
    1, on the (alpha, k+2) chain at the smallest exposed vertex) or the
    bridge count (phase 2, on the (k+1, k+2) chain at the smallest endpoint
    of any bridge, sharing and swapping only colors in [1, k])."""
    top = k + 2
    palette = palette_mask(top)
    if phase == 1:
        x = min(v for v in protected if masks[v] >> top & 1)
        alpha, shared = min(mask_colors(palette_mask(k) & ~masks[x])), palette
    else:
        bridges = _bridges(g, cur, k, set(protected))
        if not bridges:
            raise StageAssertionFailed(_STAGE, "a positive bridge count implies a bridge")
        x, alpha, shared = bridges[0].vertices[0], k + 1, palette_mask(k)
    prev_index: int | None = None

    while True:
        ch = chain(cur, g, x, alpha, top)
        verts, eids = ch.oriented_from(x)
        y = verts[-1]
        if phase == 1 and (y not in protected or masks[y] >> top & 1):
            nxt = kempe_swap(cur, ch)
            return spend({"phase": 1, "move": "endpoint-swap", "index": None}, nxt)

        # In phase 1, y is protected and misses the top color: work inward.
        miss_x = shared & ~masks[x]
        index = beta = None
        for j in range(1, len(verts)):
            common = ~masks[verts[j]] & miss_x
            if common:
                index, beta = j, min(mask_colors(common))
                break
        if index is None:
            shares = "always shares a missing" if phase == 1 else "shares a low missing"
            raise StageAssertionFailed(_STAGE, f"the far endpoint {shares} color")
        if prev_index is not None and index >= prev_index:
            raise StageAssertionFailed(_STAGE, "chain index must drop between rounds")
        prev_index = index

        if index == 1:
            nxt = cur.with_colors({eids[0]: beta})
            return spend({"phase": phase, "move": "recolor-first", "index": index}, nxt)

        vi, vim1 = verts[index], verts[index - 1]
        if phase == 1:
            gamma = min(mask_colors(palette & ~masks[vim1] & ~(1 << alpha | 1 << beta | 1 << top)))
        else:
            gamma = min(mask_colors(palette & ~masks[vim1]))
            if gamma > k or gamma == beta:
                raise StageAssertionFailed(_STAGE, "interior vertices only miss low colors")
        side = chain(cur, g, vi, beta, gamma)
        if vim1 in side.vertices:
            cur = kempe_swap(cur, side)
            _, _, masks = spend({"phase": phase, "move": "linked-swap", "index": index}, cur)
            continue

        # Unlinked: one composite move (side swap, edge recolor, and in phase
        # 1 the closing chain swap unless the recolor alone paid off), asking
        # the recolored coloring one question at vim1, from vim1's edges.
        nxt = kempe_swap(cur, side).with_colors({eids[index - 1]: gamma})
        if phase == 1 and (
            alpha not in {nxt.assignment[e.id] for e in g.incident(vim1)}
            or vim1 not in protected
        ):
            nxt = kempe_swap(nxt, chain(nxt, g, x, alpha, top))
        return spend({"phase": phase, "move": "detach", "index": index}, nxt)
