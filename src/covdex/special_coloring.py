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
its step number and both potentials after it.  Each round's progress check
and the main loop read those potentials instead of computing them again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .coloring import Chain, EdgeColoring, chain, chains, is_proper, kempe_swap, missing, present
from .errors import BudgetExhausted, PreconditionViolated, StageAssertionFailed
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


def potentials(g: Multigraph, coloring: EdgeColoring, k: int, S: Iterable[int]) -> Potentials:
    """Recompute both counters from scratch."""
    protected = set(S)
    top = k + 2
    exposed = sum(1 for v in protected if top in present(coloring, g, v))
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
    (k+2)-coloring.  Raises BudgetExhausted if the move cap is hit (a bug
    indicator, since termination is otherwise guaranteed).
    """
    protected = sorted(set(S))
    top = k + 2
    if k < 1:
        raise PreconditionViolated(f"need k >= 1, got {k}")
    if g.max_degree() > k + 1:
        raise PreconditionViolated(f"max degree {g.max_degree()} exceeds k+1 = {k + 1}")
    for v in protected:
        if 2 * g.degree(v) > k:
            raise PreconditionViolated(f"vertex {v} has degree {g.degree(v)} > k/2")

    if initial.palette != top or not is_proper(g, initial):
        raise PreconditionViolated("initial coloring is not a proper (k+2)-coloring")
    cur = initial

    budget = max(1, 10 * len(g.edges) * top * top)
    moves: list[dict] = []

    def spend(move: dict, after: EdgeColoring) -> Potentials:
        if len(moves) >= budget:
            raise BudgetExhausted(f"recoloring exceeded {budget} moves")
        pot = potentials(g, after, k, protected)
        move.update(step=len(moves) + 1, exposed=pot.exposed, bridges=pot.bridges)
        moves.append(move)
        return pot

    pot = potentials(g, cur, k, protected)
    while pot.exposed or pot.bridges:
        if pot.exposed:
            cur, pot = _lower_exposed(g, cur, k, protected, pot, spend)
        else:
            cur, pot = _lower_bridges(g, cur, k, protected, pot, spend)

    if not is_proper(g, cur):
        raise StageAssertionFailed(_STAGE, "final coloring is improper")
    return cur, moves


def _lower_exposed(
    g: Multigraph,
    cur: EdgeColoring,
    k: int,
    protected: list[int],
    pot: Potentials,
    spend: Callable[[dict, EdgeColoring], Potentials],
) -> tuple[EdgeColoring, Potentials]:
    """One outer phase-1 round: return a coloring with fewer exposed vertices."""
    top = k + 2
    x = min(v for v in protected if top in present(cur, g, v))
    alpha = min(c for c in missing(cur, g, x) if c <= k)
    start = pot.exposed
    prev_index: int | None = None

    while True:
        ch = chain(cur, g, x, alpha, top)
        verts, eids = ch.oriented_from(x)
        y = verts[-1]
        if y not in protected or top in present(cur, g, y):
            nxt = kempe_swap(cur, ch)
            after = spend({"phase": 1, "move": "endpoint-swap", "index": None}, nxt)
            return _checked_progress(g, nxt, after, start)

        # y is protected, presents alpha, misses the top color: work inward.
        miss_x = missing(cur, g, x)
        index = None
        beta = None
        for j in range(1, len(verts)):
            common = missing(cur, g, verts[j]) & miss_x
            if common:
                index, beta = j, min(common)
                break
        if index is None:
            raise StageAssertionFailed(_STAGE, "the far endpoint always shares a missing color")
        if prev_index is not None and index >= prev_index:
            raise StageAssertionFailed(_STAGE, "chain index must drop between rounds")
        prev_index = index

        if index == 1:
            nxt = cur.with_colors({eids[0]: beta})
            after = spend({"phase": 1, "move": "recolor-first", "index": index}, nxt)
            return _checked_progress(g, nxt, after, start)

        vi, vim1 = verts[index], verts[index - 1]
        gamma = min(missing(cur, g, vim1) - {alpha, beta, top})
        side = chain(cur, g, vi, beta, gamma)
        if vim1 in side.vertices:
            cur = kempe_swap(cur, side)
            spend({"phase": 1, "move": "linked-swap", "index": index}, cur)
            continue

        # Unlinked: one composite move (side swap, edge recolor, and the
        # closing chain swap unless the recolor alone already paid off).
        nxt = kempe_swap(cur, side)
        nxt = nxt.with_colors({eids[index - 1]: gamma})
        if alpha in missing(nxt, g, vim1) or vim1 not in protected:
            tail = chain(nxt, g, x, alpha, top)
            nxt = kempe_swap(nxt, tail)
        after = spend({"phase": 1, "move": "detach", "index": index}, nxt)
        return _checked_progress(g, nxt, after, start)


def _checked_progress(
    g: Multigraph, nxt: EdgeColoring, after: Potentials, start: int
) -> tuple[EdgeColoring, Potentials]:
    if after.exposed >= start:
        raise StageAssertionFailed(_STAGE, "phase-1 round must lower the exposed count")
    if not is_proper(g, nxt):
        raise StageAssertionFailed(_STAGE, "phase-1 round left an improper coloring")
    return nxt, after


def _lower_bridges(
    g: Multigraph,
    cur: EdgeColoring,
    k: int,
    protected: list[int],
    pot: Potentials,
    spend: Callable[[dict, EdgeColoring], Potentials],
) -> tuple[EdgeColoring, Potentials]:
    """One outer phase-2 round: return a coloring with fewer bridge chains."""
    top = k + 2
    bridges = _bridges(g, cur, k, set(protected))
    if not bridges:
        raise StageAssertionFailed(_STAGE, "a positive bridge count implies a bridge")
    x = bridges[0].vertices[0]  # the smallest endpoint of any bridge
    start = pot.bridges
    prev_index: int | None = None

    while True:
        ch = chain(cur, g, x, k + 1, top)
        verts, eids = ch.oriented_from(x)
        miss_x = missing(cur, g, x)
        index = None
        beta = None
        for j in range(1, len(verts)):
            common = {c for c in missing(cur, g, verts[j]) & miss_x if c <= k}
            if common:
                index, beta = j, min(common)
                break
        if index is None:
            raise StageAssertionFailed(_STAGE, "the far endpoint shares a low missing color")
        if prev_index is not None and index >= prev_index:
            raise StageAssertionFailed(_STAGE, "chain index must drop between rounds")
        prev_index = index

        if index == 1:
            nxt = cur.with_colors({eids[0]: beta})
            after = spend({"phase": 2, "move": "recolor-first", "index": index}, nxt)
            return _checked_bridge_progress(g, nxt, after, start)

        vi, vim1 = verts[index], verts[index - 1]
        gamma = min(missing(cur, g, vim1))
        if gamma > k or gamma == beta:
            raise StageAssertionFailed(_STAGE, "interior vertices only miss low colors")
        side = chain(cur, g, vi, beta, gamma)
        if vim1 in side.vertices:
            cur = kempe_swap(cur, side)
            spend({"phase": 2, "move": "linked-swap", "index": index}, cur)
            continue

        nxt = kempe_swap(cur, side)
        nxt = nxt.with_colors({eids[index - 1]: gamma})
        after = spend({"phase": 2, "move": "detach", "index": index}, nxt)
        return _checked_bridge_progress(g, nxt, after, start)


def _checked_bridge_progress(
    g: Multigraph, nxt: EdgeColoring, after: Potentials, start: int
) -> tuple[EdgeColoring, Potentials]:
    if after.exposed:
        raise StageAssertionFailed(_STAGE, "phase 2 must not re-expose the top color")
    if after.bridges >= start:
        raise StageAssertionFailed(_STAGE, "phase-2 round must lower the bridge count")
    if not is_proper(g, nxt):
        raise StageAssertionFailed(_STAGE, "phase-2 round left an improper coloring")
    return nxt, after
