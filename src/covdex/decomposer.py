"""End-to-end construction of k edge-disjoint edge covers.

Stages: compute the bound k; split high-degree vertices down to degree
k+1; puncture one internal edge of every inclusion-minimal optimal set;
certify the core is (k+2)-edge-colorable; contract the punctured blocks;
recolor the contracted graph so the two reserve colors avoid the block
vertices; check each block's coloring and splice; orient the reserve
chains and patch the first k color classes into covers; map split edges
back.

Every stage re-verifies the counting identities it relies on.  The k-cover
guarantee is proven under either of two hypotheses: maximum multiplicity
at most 2, or k at most 6.  Failures are returned as a report carrying the
failed stage and whether a hypothesis held (a hypothesis-satisfying
failure means a bug; a hypothesis-violating one is a data point on open
territory), and with a dump of every artifact built up to the failure.

Both outcomes also carry ``run``: the wall time of each stage reached, in
``perf_counter_ns`` (``spans_ns``, from "bound" on), and work counters
(the chi-prime solver's "nodes" and "prunes", and "moves.<kind>" for each
kind of recoloring move).  It varies between runs, so it is left out of
equality and of ``to_dict()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable, Mapping, Sequence

from . import dense_lift
from .coloring import (
    COLOR_BUDGET_DEFAULT,
    EdgeColoring,
    chains,
    color_masks,
    find_coloring,
    is_proper,
    mask_colors,
    palette_mask,
)
from .density import (
    SUBSET_CAP_DEFAULT,
    OddSetTable,
    SplitCandidates,
    all_min_optimal_sets,
    codensity,
    gupta_bound,
)
from .errors import (
    AugmentationFailed,
    BudgetExhausted,
    CodensityDropped,
    CovdexError,
    DegreeBoundFailed,
    NoInternalEdge,
    StageAssertionFailed,
    TooLarge,
)
from .multigraph import (
    Edge,
    Multigraph,
    SplitRecord,
    SplitTrace,
    induced_subgraph,
)
from .oracle import verify_decomposition
from .special_coloring import special_coloring


@dataclass(frozen=True)
class Puncture:
    """One optimal set with its removed internal edge (x < y)."""

    block: frozenset[int]
    x: int
    y: int
    edge: int


@dataclass(frozen=True)
class Orientation:
    """Arcs (tail, head, edge id) over the reserve-color subgraph."""

    arcs: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class CoverDecomposition:
    """k pairwise-disjoint edge covers over the original edge ids."""

    k: int
    covers: tuple[frozenset[int], ...]
    stages: Mapping[str, object] = field(default_factory=dict)
    run: Mapping[str, object] | None = field(default=None, compare=False)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "covers": [sorted(c) for c in self.covers],
            "stages": dict(self.stages),
        }


@dataclass(frozen=True)
class FailureReport:
    """A pipeline failure: which stage, why, and under which hypotheses."""

    stage: str
    error: str
    message: str
    hypotheses_held: bool
    stages: Mapping[str, object] = field(default_factory=dict)
    state: Mapping[str, object] | None = None
    run: Mapping[str, object] | None = field(default=None, compare=False)

    def to_dict(self) -> dict:
        out = {
            "failed_stage": self.stage,
            "error": self.error,
            "message": self.message,
            "hypotheses_held": self.hypotheses_held,
            "stages": dict(self.stages),
        }
        if self.state is not None:
            out["state"] = dict(self.state)
        return out


@dataclass(frozen=True)
class DecomposeOptions:
    subset_cap: int = SUBSET_CAP_DEFAULT
    color_budget: int = COLOR_BUDGET_DEFAULT


def _graph_obj(g: Multigraph) -> dict:
    return {"n": g.vertex_count, "edges": [[e.id, e.u, e.v] for e in g.edges]}


def _coloring_obj(c: EdgeColoring) -> dict:
    return {"palette": c.palette, "assignment": sorted(c.assignment.items())}


class _Run:
    """The record of one ``decompose`` run: the stage it is in, with a
    ``perf_counter_ns`` span per stage reached, the payload's ``stages``
    summary, work counters (solver nodes and prunes, Kempe moves by kind),
    and the failure dump's artifacts as thunks, serialized only if a stage
    fails.  Thunks are called late, so none may read a name that is bound
    again after it is stored."""

    def __init__(self) -> None:
        self.stage = "bound"
        self.spans_ns: dict[str, int] = {}
        self.stages: dict[str, object] = {}
        self.counters: dict[str, int] = {}
        self.dump: dict[str, Callable[[], object]] = {}
        self._since = perf_counter_ns()

    def enter(self, stage: str) -> None:
        now = perf_counter_ns()
        self.spans_ns[self.stage] = now - self._since
        self.stage, self._since = stage, now

    def report(self) -> dict:
        """Spans (the current stage's up to now) and counters."""
        spans = {**self.spans_ns, self.stage: perf_counter_ns() - self._since}
        return {"spans_ns": spans, "counters": dict(self.counters)}

    def state(self) -> dict:
        return {key: thunk() for key, thunk in self.dump.items()}


def regularize(table: OddSetTable, k: int) -> tuple[Multigraph, SplitTrace]:
    """Split edges off high-degree vertices of ``table.graph``, a table
    over its vertices 0..n-1, until every original vertex has degree
    exactly k+1, re-verifying the odd-set bound after each split.

    Degrees are the table's, e+ of each singleton.  The splits are those
    of chained ``split_off`` calls (the moved edge leaves the edge order,
    its replacement is appended with the next id), kept in an edge dict
    and per-vertex incidence; the graph and its trace are built once at
    the end.  At the first split the table gives the tight sets and the
    split candidates: deg(x) - (k+1) splits are made at each vertex x, so
    only the odd sets U whose slack is at most twice the sum of that over
    U, the dense sets, can reach slack 0 or drop below it (see
    ``SplitCandidates``).  Each split is checked over the candidates it
    changes; a k above the bound fails at the first split.  The table is
    then counted again from the final graph (``OddSetTable.recount``):
    each original vertex must have degree k+1, no odd set may be below the
    bound, which clears every graph in between as no slack ever rises, and
    every tracked candidate slack must agree."""
    g = table.graph
    n = g.vertex_count
    original = range(n)
    if table.universe != tuple(original):
        raise StageAssertionFailed(
            "regularize",
            f"odd-set table over {list(table.universe)}, not the graph's vertices 0..{n - 1}",
        )
    if min(table.degrees, default=0) < k + 1:
        raise StageAssertionFailed("regularize", f"minimum degree below {k + 1}")
    if all(degree == k + 1 for degree in table.degrees):
        return g, SplitTrace()
    incidence: dict[int, dict[int, int]] = {v: {} for v in original}
    for e in g.edges:
        incidence[e.u][e.id] = e.v
        incidence[e.v][e.id] = e.u
    edges = {e.id: e for e in g.edges}
    next_id = max(edges, default=-1) + 1
    records: list[SplitRecord] = []
    candidates: SplitCandidates | None = None
    tight: list[int] = []
    for x in original:
        mine = incidence[x]
        while len(mine) >= k + 2:
            if candidates is None:
                candidates = SplitCandidates(
                    table, k, [len(incidence[v]) - (k + 1) for v in table.universe]
                )
                tight = table.tight_sets(k)
            cert = table.min_containing(x, tight) if tight else None
            if cert is None:
                eid = min(mine)
            else:
                members = cert.as_set()
                partners = [w for w in mine.values() if w in members]
                if not partners:
                    raise StageAssertionFailed(
                        "regularize", f"vertex {x} has no neighbor inside {sorted(members)}"
                    )
                partner = min(partners)
                eid = min(f for f, w in mine.items() if w == partner)
            y = mine.pop(eid)
            new_vertex = n + len(records)
            del edges[eid]
            edges[next_id] = Edge(next_id, y, new_vertex)
            if y < n:
                del incidence[y][eid]
                incidence[y][next_id] = new_vertex
            records.append(SplitRecord(new_vertex, x, eid, next_id))
            next_id += 1
            dropped, became_tight = candidates.split(x, y)
            if dropped or (len(records) == 1 and table.below(k)):
                h = Multigraph(n + len(records), tuple(edges.values()))
                value, witness = codensity(h, restrict_to=original, cap=table.cap)
                raise CodensityDropped(
                    f"splitting edge {eid} off {x} dropped the odd-set bound: "
                    f"{value} < {k} at {witness.vertices if witness else ()}"
                )
            tight += became_tight
    h = Multigraph(n + len(records), tuple(edges.values()))
    candidates.end_splits()
    table.recount(h)
    for v, degree in enumerate(table.degrees):
        if degree != k + 1:
            raise StageAssertionFailed("regularize", f"vertex {v} ended at degree {degree}")
    if table.below(k):
        raise StageAssertionFailed(
            "regularize", f"an odd set fell below the bound {k} unnoticed by the split checks"
        )
    if not candidates.agrees_with(table):
        raise StageAssertionFailed(
            "regularize", "candidate slacks tracked across the splits differ from a rebuild"
        )
    return h, SplitTrace(tuple(records))


def puncture(table: OddSetTable, k: int) -> tuple[Multigraph, tuple[Puncture, ...]]:
    """Remove the smallest-id internal edge of every inclusion-minimal
    optimal set of ``table.graph`` over the table's universe (sorted), and
    re-verify the resulting internal edge counts.  The sets are disjoint,
    so one pass sorts the internal edges by set, and one graph drops every
    victim, as deleting the victims one at a time would."""
    g = table.graph
    certs = all_min_optimal_sets(g, k, table.universe, table=table)
    if not certs:
        return g, ()
    inside, _ = dense_lift.block_edges(g, [cert.vertices for cert in certs])
    punctures = []
    for cert, internal in zip(certs, inside):
        members = cert.as_set()
        if not internal:
            raise NoInternalEdge(f"optimal set {cert.vertices} has no internal edge")
        expected_before = (k + 2) * (len(members) - 1) // 2 + 1
        if len(internal) != expected_before:
            raise StageAssertionFailed(
                "puncture",
                f"set {cert.vertices} has {len(internal)} internal edges, "
                f"expected {expected_before}",
            )
        victim = min(internal, key=lambda e: e.id)
        x, y = sorted((victim.u, victim.v))
        punctures.append(Puncture(members, x, y, victim.id))
    victims = {p.edge for p in punctures}
    h1 = Multigraph(g.vertex_count, tuple(e for e in g.edges if e.id not in victims))
    return h1, tuple(punctures)


def contract_blocks(
    h1: Multigraph,
    punctures: Sequence[Puncture],
    k: int,
    hypotheses_held: bool,
) -> tuple[Multigraph, dict[int, int], list[int], bool]:
    """Contract every punctured block; returns the graph, the composed
    vertex map, the merged vertex ids (aligned with punctures), and whether
    every merged vertex met the k/2 degree bound.

    One pass gives what contracting the blocks in turn gives: the r vertices
    outside every block keep their order, block i becomes vertex r+i, edges
    inside a block drop out; each block's boundary and degree are counted."""
    owner = {v: i for i, p in enumerate(punctures) for v in p.block}
    r = h1.vertex_count - len(owner)
    outside = iter(range(r))
    vmap = {v: r + owner[v] if v in owner else next(outside) for v in h1.vertices()}
    if not punctures:
        return h1, vmap, [], True
    merged = list(range(r, r + len(punctures)))
    boundary = [0] * len(punctures)
    degree = [0] * (r + len(punctures))
    edges = []
    for e in h1.edges:
        a, b = owner.get(e.u), owner.get(e.v)
        if a is not None and a == b:
            continue
        if a is not None:
            boundary[a] += 1
        if b is not None:
            boundary[b] += 1
        f = Edge(e.id, vmap[e.u], vmap[e.v])
        degree[f.u] += 1
        degree[f.v] += 1
        edges.append(f)
    h2 = Multigraph(r + len(punctures), tuple(edges))
    degree_ok = True
    for p, u, count in zip(punctures, merged, boundary):
        if degree[u] != count:
            raise StageAssertionFailed(
                "contract", f"merged vertex {u} has degree {degree[u]} != {count}"
            )
        if 2 * degree[u] > k:
            if hypotheses_held:
                raise DegreeBoundFailed(
                    f"block {sorted(p.block)} has boundary {count} > k/2 = {k}/2"
                )
            degree_ok = False
    return h2, vmap, merged, degree_ok


def orient_and_augment(
    h1: Multigraph,
    psi: EdgeColoring,
    punctures: Sequence[Puncture],
    k: int,
    n_original: int,
    *,
    masks: Sequence[int] | None = None,
    incidence: dict[int, list[Edge]] | None = None,
) -> tuple[list[frozenset[int]], Orientation]:
    """Orient the two reserve color classes and patch classes 1..k into
    sets that each saturate the original vertices.

    The reserve subgraph is the union of the (k+1, k+2)-chains.  Each is
    oriented as ``chains`` orders it (paths, then cycles, each by first
    vertex), except that a path whose smaller endpoint is designated is
    reversed, so no designated vertex starts a path.  ``masks`` and
    ``incidence``, when given, are psi's as ``assemble_lift`` returns them."""
    top = k + 2
    masks = color_masks(h1, psi) if masks is None else masks
    if masks is None:
        raise AugmentationFailed("lifted coloring is not proper")
    reserve = 1 << (k + 1) | 1 << top
    x_set = {p.x for p in punctures}
    for x in sorted(x_set):
        if masks[x] & reserve == reserve:
            raise AugmentationFailed(f"designated vertex {x} has reserve degree 2")

    arcs: list[tuple[int, int, int]] = []
    for ch in chains(psi, h1, k + 1, top, incidence=incidence):
        verts, eids = ch.vertices, ch.edges
        if ch.kind == "path":
            tail, head = ch.endpoints
            if tail in x_set and head in x_set:
                raise AugmentationFailed(
                    f"reserve path joins designated vertices {tail} and {head}"
                )
            if tail in x_set:
                verts, eids = ch.oriented_from(head)
        else:
            verts += verts[:1]
        arcs += zip(verts, verts[1:], eids)

    in_arc = {head: eid for _, head, eid in arcs}
    classes: dict[int, set[int]] = {c: set() for c in range(1, k + 1)}
    for eid, c in psi.assignment.items():
        if c in classes:
            classes[c].add(eid)
    y_of = {p.y: p for p in punctures}
    low = palette_mask(k)

    for v in range(n_original):
        gaps = mask_colors(low & ~masks[v])
        if v in y_of:
            p = y_of[v]
            if len(gaps) > 2:
                raise AugmentationFailed(f"vertex {v} missed by {len(gaps)} classes")
            if len(gaps) == 1:
                classes[gaps[0]].add(p.edge)
            elif len(gaps) == 2:
                if v not in in_arc:
                    raise AugmentationFailed(f"doubly-missed vertex {v} has no in-arc")
                classes[gaps[0]].add(in_arc[v])
                classes[gaps[1]].add(p.edge)
        else:
            if len(gaps) > 1:
                raise AugmentationFailed(f"vertex {v} missed by {len(gaps)} classes")
            if len(gaps) == 1:
                if v not in in_arc:
                    raise AugmentationFailed(f"missed vertex {v} has no in-arc")
                classes[gaps[0]].add(in_arc[v])

    return [frozenset(classes[c]) for c in range(1, k + 1)], Orientation(tuple(arcs))


def map_back(
    sets: Sequence[frozenset[int]], trace: SplitTrace
) -> list[frozenset[int]]:
    """Replace every split-created edge id by the original it descends from."""
    return [frozenset(trace.resolve(eid) for eid in s) for s in sets]


def _extend_to_pendants(
    h1: Multigraph, core: EdgeColoring, palette: int
) -> EdgeColoring:
    """Color every edge of h1 that core leaves uncolored, in edge-id order,
    with the lowest color free at both ends."""
    colors = dict(core.assignment)
    # Bit c of used[v] is set when an edge at v has color c.
    used = [0] * h1.vertex_count
    for e in h1.edges:
        if e.id in colors:
            bit = 1 << colors[e.id]
            used[e.u] |= bit
            used[e.v] |= bit
    palette_bits = palette_mask(palette)
    for e in sorted(h1.edges, key=lambda e: e.id):
        if e.id in colors:
            continue
        free = palette_bits & ~(used[e.u] | used[e.v])
        if not free:
            raise StageAssertionFailed("chi-prime", f"no free color for pendant edge {e.id}")
        bit = free & -free
        colors[e.id] = bit.bit_length() - 1
        used[e.u] |= bit
        used[e.v] |= bit
    return EdgeColoring(palette, colors)


def decompose(
    g: Multigraph, options: DecomposeOptions | None = None
) -> CoverDecomposition | FailureReport:
    """Run the whole pipeline; never raises on pipeline-semantic failures.

    TooLarge and BudgetExhausted (resource caps) still propagate, since
    they say nothing about the input graph; they carry the run record up
    to the cap as their ``run`` attribute.  The result's ``run`` holds the
    stage spans and counters of this call.
    """
    opts = options or DecomposeOptions()
    run = _Run()
    # Until hypotheses_held is bound, only TooLarge (from the table) can rise.
    try:
        # One table for the bound, every split and the puncture.
        table = OddSetTable(g, g.vertices(), cap=opts.subset_cap)
        bound = gupta_bound(g, table=table)
        k = bound.k
        mu = table.max_multiplicity
        hypotheses_held = mu <= 2 or k <= 6
        stages = run.stages
        stages.update(
            delta=bound.delta,
            codensity="inf" if bound.codensity is None else str(bound.codensity),
            k=k,
            mu=mu,
            hypothesis_multiplicity=mu <= 2,
            hypothesis_small_k=k <= 6,
            hypotheses_held=hypotheses_held,
        )
        if k <= 0:
            stages["blocks"] = 0
            stages["splits"] = 0
            return CoverDecomposition(k=0, covers=(), stages=stages, run=run.report())
        run.dump.update(original=lambda: _graph_obj(g), k=lambda: k)

        run.enter("regularize")
        h, trace = regularize(table, k)
        stages["splits"] = len(trace.records)
        run.dump["regularized"] = lambda: _graph_obj(h)
        run.dump["splits"] = lambda: [
            [r.new_vertex, r.original_vertex, r.moved_edge, r.new_edge]
            for r in trace.records
        ]

        run.enter("puncture")
        h1, punctures = puncture(table, k)
        stages["blocks"] = len(punctures)
        stages["block_sizes"] = sorted(len(p.block) for p in punctures)
        if punctures:
            run.dump["punctures"] = lambda: [
                {"block": sorted(p.block), "x": p.x, "y": p.y, "edge": p.edge}
                for p in punctures
            ]
        run.dump["punctured"] = lambda: _graph_obj(h1)

        run.enter("chi-prime")
        core = induced_subgraph(h1, range(g.vertex_count))
        core_coloring = find_coloring(
            core, k + 2, opts.color_budget, lookahead=True, counters=run.counters
        )
        if core_coloring is None:
            raise StageAssertionFailed(
                "chi-prime", f"punctured core admits no {k + 2}-edge-coloring"
            )
        full = _extend_to_pendants(h1, core_coloring, k + 2)
        if not is_proper(h1, full):
            raise StageAssertionFailed("chi-prime", "extended coloring is improper")
        run.dump["core_coloring"] = lambda: _coloring_obj(full)
        colors = full.assignment
        block_inside, block_boundary = dense_lift.block_edges(h1, [p.block for p in punctures])
        for p, boundary in zip(punctures, block_boundary):
            seen: set[int] = set()
            for e in boundary:
                c = colors[e.id]
                if c in seen:
                    raise StageAssertionFailed(
                        "chi-prime",
                        f"boundary color {c} repeats at block {sorted(p.block)}",
                    )
                seen.add(c)

        run.enter("contract")
        h2, vmap, merged, degree_ok = contract_blocks(h1, punctures, k, hypotheses_held)
        run.dump["contracted"] = lambda: _graph_obj(h2)
        run.dump["vertex_map"] = lambda: sorted(vmap.items())
        stages["degree_bound_ok"] = degree_ok

        run.enter("special-coloring")
        # The proven H1 coloring restricts to a proper coloring of the
        # contracted graph (boundary colors at each block are distinct), so
        # the recoloring loop starts from it instead of solving again.
        h2_start = EdgeColoring(k + 2, {e.id: colors[e.id] for e in h2.edges})
        phi2, moves = special_coloring(h2, k, merged, initial=h2_start)
        for move in moves:
            key = f"moves.{move['move']}"
            run.counters[key] = run.counters.get(key, 0) + 1
        run.dump["contracted_coloring"] = lambda: _coloring_obj(phi2)

        run.enter("lift")
        blocks = []
        for p, inside, boundary in zip(punctures, block_inside, block_boundary):
            block_start = EdgeColoring(k + 2, {e.id: colors[e.id] for e in inside})
            bc = dense_lift.make_block(h1, sorted(p.block), p.x, p.y, k + 2, initial=block_start)
            requirements = {e.id: phi2.assignment[e.id] for e in boundary}
            blocks.append(dense_lift.permute_block_palette(bc, requirements, h1, k))
        psi, masks, reserve = dense_lift.assemble_lift(
            h1, phi2, blocks, k, boundaries=block_boundary
        )
        run.dump["lifted_coloring"] = lambda: _coloring_obj(psi)

        run.enter("augment")
        covers_h1, orientation = orient_and_augment(
            h1, psi, punctures, k, g.vertex_count, masks=masks, incidence=reserve
        )
        run.dump["arcs"] = lambda: [list(a) for a in orientation.arcs]
        run.dump["covers_before_mapping"] = lambda: [sorted(c) for c in covers_h1]
        stages["reserve_arcs"] = [list(a) for a in orientation.arcs]

        run.enter("map-back")
        covers = map_back(covers_h1, trace)
        run.dump["covers"] = lambda: [sorted(c) for c in covers]

        run.enter("verify")
        verdict = verify_decomposition(g, covers)
        if not verdict:
            raise AugmentationFailed("; ".join(verdict.problems))
    except (TooLarge, BudgetExhausted) as exc:
        exc.run = run.report()
        raise
    except CovdexError as exc:
        return FailureReport(
            stage=run.stage,
            error=type(exc).__name__,
            message=str(exc),
            hypotheses_held=hypotheses_held,
            stages=stages,
            state=run.state(),
            run=run.report(),
        )

    stages["covers"] = k
    return CoverDecomposition(k=k, covers=tuple(covers), stages=stages, run=run.report())
