"""Independent brute-force ground truth.

Nothing here shares enumeration or search code with the production
modules: the point of this module is that agreement between the two sides
is evidence, so each side must get there on its own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import TooLarge
from .multigraph import Multigraph, build

XI_EDGE_CAP_DEFAULT = 16
CODENSITY_CAP_DEFAULT = 24


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of checking a claimed decomposition, with diagnostics."""

    ok: bool
    problems: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class FuzzConfig:
    """Deterministic random-multigraph recipe.

    Exactly one of edge_probability / target_edges drives generation;
    with neither set, edge_probability defaults to 0.5.
    """

    n: int
    max_multiplicity: int = 1
    edge_probability: float | None = None
    target_edges: int | None = None
    seed: int = 0


def verify_decomposition(g: Multigraph, covers: list) -> VerificationResult:
    """Check edge ids, pairwise disjointness, and per-cover saturation."""
    problems: list[str] = []
    valid_ids = g.edge_ids()
    sets = [frozenset(c) for c in covers]
    for i, cover in enumerate(sets):
        stray = cover - valid_ids
        if stray:
            problems.append(f"cover {i} uses unknown edge ids {sorted(stray)}")
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            shared = sets[i] & sets[j]
            if shared:
                problems.append(f"covers {i} and {j} share edge {min(shared)}")
    for i, cover in enumerate(sets):
        touched = set()
        for eid in cover & valid_ids:
            e = g.edge(eid)
            touched.add(e.u)
            touched.add(e.v)
        for v in g.vertices():
            if v not in touched:
                problems.append(f"cover {i} misses vertex {v}")
                break
    return VerificationResult(not problems, tuple(problems))


def brute_cover_index(g: Multigraph, cap: int = XI_EDGE_CAP_DEFAULT) -> int:
    """Largest t such that t pairwise-disjoint edge covers exist.

    Searched as a partition of all edges into exactly t parts, each part
    saturating every vertex (supersets of covers are covers, so leftovers
    can always be absorbed).  Returns 0 when some vertex is isolated.
    """
    if len(g.edges) > cap:
        raise TooLarge(f"{len(g.edges)} edges exceeds cover-search cap {cap}")
    # Answered before any per-vertex table: the declared vertex count can
    # be far above what at most cap edges touch.
    if len({w for e in g.edges for w in (e.u, e.v)}) < g.vertex_count:
        return 0
    delta = g.min_degree()
    if g.vertex_count == 0:
        return 0
    for t in range(delta, 0, -1):
        if _partitions_into_covers(g, t):
            return t
    return 0


def _partitions_into_covers(g: Multigraph, t: int) -> bool:
    edges = list(g.edges)
    m = len(edges)
    remaining = [g.degree(v) for v in g.vertices()]
    unsat = [t] * g.vertex_count  # per-vertex count of parts still missing it
    part_missing = [set(g.vertices()) for _ in range(t)]

    def place(idx: int, parts_used: int) -> bool:
        if idx == m:
            return all(not miss for miss in part_missing)
        e = edges[idx]
        remaining[e.u] -= 1
        remaining[e.v] -= 1
        limit = min(t, parts_used + 1)  # parts are interchangeable
        for p in range(limit):
            news = []
            for w in (e.u, e.v):
                if w in part_missing[p]:
                    part_missing[p].remove(w)
                    unsat[w] -= 1
                    news.append(w)
            if unsat[e.u] <= remaining[e.u] and unsat[e.v] <= remaining[e.v]:
                if place(idx + 1, max(parts_used, p + 1)):
                    return True
            for w in news:
                part_missing[p].add(w)
                unsat[w] += 1
        remaining[e.u] += 1
        remaining[e.v] += 1
        return False

    return place(0, 0)


def brute_codensity(g: Multigraph, cap: int = CODENSITY_CAP_DEFAULT) -> Fraction | None:
    """Naive recount of the odd-set ratio minimum; None means no odd set."""
    if g.vertex_count > cap:
        raise TooLarge(f"{g.vertex_count} vertices exceeds cap {cap}")
    best: Fraction | None = None
    for size in range(3, g.vertex_count + 1, 2):
        for subset in combinations(range(g.vertex_count), size):
            members = set(subset)
            count = 0
            for e in g.edges:
                if e.u in members or e.v in members:
                    count += 1
            ratio = Fraction(count, (size + 1) // 2)
            if best is None or ratio < best:
                best = ratio
    return best


def random_multigraph(cfg: FuzzConfig) -> Multigraph:
    """Seed-deterministic loopless multigraph with bounded multiplicities."""
    rng = random.Random(cfg.seed)
    slots = [
        (u, v)
        for u in range(cfg.n)
        for v in range(u + 1, cfg.n)
        for _ in range(cfg.max_multiplicity)
    ]
    if cfg.target_edges is not None:
        want = min(cfg.target_edges, len(slots))
        chosen = sorted(rng.sample(range(len(slots)), want))
        pairs = [slots[i] for i in chosen]
    else:
        p = 0.5 if cfg.edge_probability is None else cfg.edge_probability
        pairs = [pair for pair in slots if rng.random() < p]
    return build(cfg.n, pairs)
