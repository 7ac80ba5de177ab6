import importlib
import itertools
import random

import pytest

from conftest import c5, doubled_triangle, k3
from covdex import (
    Potentials,
    PreconditionViolated,
    StageAssertionFailed,
    VertexOutOfRange,
    build,
    find_coloring,
    is_proper,
    potentials,
    special_coloring,
)
from covdex.coloring import EdgeColoring
from covdex.oracle import FuzzConfig, random_multigraph

INF = float("inf")


def scrambled(coloring, perm):
    pmap = {i + 1: perm[i] for i in range(coloring.palette)}
    return EdgeColoring(coloring.palette, {e: pmap[c] for e, c in coloring.assignment.items()})


def assert_lexicographic_descent(g, k, S, start, events):
    prev = (start.exposed, start.bridges, INF)
    for e in events:
        i = e["index"] if e["move"] == "linked-swap" else INF
        now = (e["exposed"], e["bridges"], i)
        assert now < prev, f"step {e} did not decrease the potential: {prev} -> {now}"
        prev = now


def test_potentials_zero_exposed_when_top_color_unused():
    g = k3()
    c = EdgeColoring(4, {0: 1, 1: 2, 2: 3})  # k = 2, top color 4 unused
    pot = potentials(g, c, 2, [0, 1, 2])
    assert pot.exposed == 0
    # the single (k+1)-colored edge joins two protected vertices
    assert pot.bridges == 1


def test_potentials_empty_protected_set():
    g = c5()
    c = find_coloring(g, 3)
    assert potentials(g, c, 1, []) == Potentials(0, 0)


def test_potentials_counts_bridge_between_protected_endpoints():
    # path 0-1-2 with edge colors k+1 and k+2 joins the two protected ends
    g = build(3, [(0, 1), (1, 2)])
    k = 2
    c = EdgeColoring(4, {0: 3, 1: 4})
    pot = potentials(g, c, k, [0, 2])
    assert pot == Potentials(1, 1)  # vertex 2 presents the top color too
    pot2 = potentials(g, EdgeColoring(4, {0: 3, 1: 1}), k, [0, 2])
    assert pot2 == Potentials(0, 0)


def test_trivial_when_protected_set_empty():
    g = c5()
    out, _ = special_coloring(g, 1, [], initial=find_coloring(g, 3))
    assert is_proper(g, out)
    assert potentials(g, out, 1, []) == Potentials(0, 0)


def test_unchanged_when_already_clean():
    g = build(3, [(0, 1), (1, 2)])
    clean = EdgeColoring(4, {0: 1, 1: 2})
    out, _ = special_coloring(g, 2, [0, 2], initial=clean)
    assert out.assignment == clean.assignment


def test_star_reachable_from_every_proper_coloring():
    # Star with three leaves, k = 4: every proper 6-coloring must be fixable
    # so that color 6 avoids the leaves and no (5,6)-chain joins two leaves.
    g = build(4, [(0, 1), (0, 2), (0, 3)])
    k, leaves = 4, [1, 2, 3]
    fixed = 0
    for combo in itertools.permutations(range(1, 7), 3):
        initial = EdgeColoring(6, dict(zip(range(3), combo)))
        assert is_proper(g, initial)
        out, events = special_coloring(g, k, leaves, initial=initial)
        assert potentials(g, out, k, leaves) == Potentials(0, 0)
        assert is_proper(g, out)
        start = potentials(g, initial, k, leaves)
        assert_lexicographic_descent(g, k, leaves, start, events)
        fixed += bool(events)
    assert fixed > 0


def test_precondition_checks():
    # The first three start colorings are proper, so the named check fails.
    with pytest.raises(PreconditionViolated):
        special_coloring(k3(), 0, [], initial=find_coloring(k3(), 3))
    with pytest.raises(PreconditionViolated):
        # max degree 4 > k+1
        special_coloring(doubled_triangle(), 1, [], initial=find_coloring(doubled_triangle(), 6))
    with pytest.raises(PreconditionViolated):
        special_coloring(k3(), 2, [0], initial=find_coloring(k3(), 4))  # degree 2 > k/2
    with pytest.raises(PreconditionViolated):
        # an improper initial coloring is refused
        special_coloring(k3(), 2, [], initial=EdgeColoring(4, {0: 1, 1: 1, 2: 2}))
    with pytest.raises(PreconditionViolated, match="not a proper edge coloring"):
        # potentials reads exposure only from a proper coloring
        potentials(k3(), EdgeColoring(4, {0: 1, 1: 1, 2: 2}), 2, [0])


FROZEN_BRANCHES = [
    # (seed, n, max_mult, prob, k, palette permutation) -> expected moves seen
    (5001066, 11, 1, 0.45, 4, (2, 3, 1, 5, 4, 6), {"linked-swap", "recolor-first"}),
    (5007423, 9, 1, 0.6, 4, (5, 2, 4, 1, 6, 3), {"detach"}),
    (5013895, 10, 1, 0.25, 4, (1, 6, 5, 2, 3, 4), {"linked-swap", "recolor-first", "endpoint-swap"}),
    (5008171, 12, 2, 0.35, 10, (10, 6, 5, 8, 3, 7, 11, 9, 1, 12, 2, 4), {"endpoint-swap", "detach"}),
]


@pytest.mark.parametrize("seed,n,mm,prob,k,perm,expected_moves", FROZEN_BRANCHES)
def test_frozen_instances_exercise_every_branch(seed, n, mm, prob, k, perm, expected_moves):
    g = random_multigraph(FuzzConfig(n=n, max_multiplicity=mm, edge_probability=prob, seed=seed))
    S = [v for v in g.vertices() if 2 * g.degree(v) <= k]
    base = find_coloring(g, k + 2, 200_000)
    start_coloring = scrambled(base, perm)
    start = potentials(g, start_coloring, k, S)
    out, events = special_coloring(g, k, S, initial=start_coloring)
    assert potentials(g, out, k, S) == Potentials(0, 0)
    assert is_proper(g, out)
    assert {e["move"] for e in events} == expected_moves
    assert_lexicographic_descent(g, k, S, start, events)


def test_randomized_instances_converge_with_descending_potential():
    rng = random.Random(20240521)
    done = 0
    while done < 120:
        seed = rng.randrange(10**9)
        g = random_multigraph(
            FuzzConfig(n=rng.randint(4, 9), max_multiplicity=2, edge_probability=0.5, seed=seed)
        )
        if not g.edges:
            continue
        k = g.max_degree() - 1 + (seed % 2)
        if k < 1:
            continue
        S = [v for v in g.vertices() if 2 * g.degree(v) <= k]
        if not S:
            continue
        base = find_coloring(g, k + 2, 200_000)
        if base is None:
            continue
        perm = list(range(1, k + 3))
        rng.shuffle(perm)
        initial = scrambled(base, perm)
        start = potentials(g, initial, k, S)
        out, events = special_coloring(g, k, S, initial=initial)
        assert potentials(g, out, k, S) == Potentials(0, 0)
        assert is_proper(g, out)
        assert_lexicographic_descent(g, k, S, start, events)
        done += 1


def precondition_outcome(g, k, S, initial):
    """The exception special_coloring raises on entry, as (type, text)."""
    try:
        special_coloring(g, k, S, initial=initial)
    except (PreconditionViolated, VertexOutOfRange) as exc:
        return type(exc).__name__, str(exc)
    return None


def test_precondition_messages_keep_their_order():
    # The degrees come from the start's color masks when it is proper and
    # from the graph when it is not, so each check fires in the same order
    # with the same text either way.
    tri, dt = k3(), doubled_triangle()
    improper = EdgeColoring(4, {0: 1, 1: 1, 2: 2})
    cases = [
        # k < 1 comes first, even with every other check failing.
        (dt, 0, [0], EdgeColoring(2, {e.id: 1 for e in dt.edges}), "need k >= 1, got 0"),
        # Delta > k+1, from a proper start and from an improper one.
        (dt, 1, [], find_coloring(dt, 6), "max degree 4 exceeds k+1 = 2"),
        (dt, 1, [0], EdgeColoring(3, {e.id: 1 for e in dt.edges}), "max degree 4 exceeds k+1 = 2"),
        (dt, 2, [], EdgeColoring(4, {e.id: 1 for e in dt.edges}), "max degree 4 exceeds k+1 = 3"),
        # A protected vertex above k/2, before the improper start.
        (tri, 2, [0], find_coloring(tri, 4), "vertex 0 has degree 2 > k/2"),
        (tri, 2, [2, 1], improper, "vertex 1 has degree 2 > k/2"),
        (tri, 3, [1], improper, "vertex 1 has degree 2 > k/2"),
        # The start last: improper, uncolored, or with the wrong palette.
        (tri, 2, [], improper, "initial coloring is not a proper (k+2)-coloring"),
        (tri, 2, [], EdgeColoring(4, {0: 1, 1: 2}), "initial coloring is not a proper (k+2)-coloring"),
        (tri, 2, [], find_coloring(tri, 5), "initial coloring is not a proper (k+2)-coloring"),
    ]
    for g, k, S, initial, message in cases:
        assert precondition_outcome(g, k, S, initial) == ("PreconditionViolated", message)
    # A protected vertex outside the graph raises VertexOutOfRange, from
    # either start, where its degree would be checked.
    star = build(4, [(0, 1), (0, 2), (0, 3)])
    for S, missing in (([7], 7), ([-1], -1), ([1, 9], 9)):
        for start in (find_coloring(star, 5), EdgeColoring(5, {0: 1, 1: 1, 2: 1})):
            assert precondition_outcome(star, 3, S, start) == (
                "VertexOutOfRange", f"protected vertex {missing} out of range for n=4"
            )
    assert precondition_outcome(star, 3, [0, 9], find_coloring(star, 5)) == (
        "PreconditionViolated", "vertex 0 has degree 3 > k/2"
    )


def test_an_improper_move_is_refused_where_it_is_made(monkeypatch):
    # Every Kempe swap returns one color on every edge.  The first move that
    # swaps raises, naming its kind, before any later move or round check.
    swaps = []

    def one_color(coloring, ch):
        swaps.append(ch)
        return EdgeColoring(coloring.palette, dict.fromkeys(coloring.assignment, 1))

    monkeypatch.setattr(importlib.import_module("covdex.special_coloring"), "kempe_swap", one_color)
    # Leaf 1 presents the top color 6, and its (1, 6) chain ends at the hub.
    star = build(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(StageAssertionFailed, match="endpoint-swap move left an improper coloring"):
        special_coloring(star, 4, [1, 2, 3], initial=EdgeColoring(6, {0: 6, 1: 5, 2: 2}))
    assert len(swaps) == 1
    # The first frozen instance swaps only in its linked swaps.
    seed, n, mm, prob, k, perm, _ = FROZEN_BRANCHES[0]
    g = random_multigraph(FuzzConfig(n=n, max_multiplicity=mm, edge_probability=prob, seed=seed))
    S = [v for v in g.vertices() if 2 * g.degree(v) <= k]
    start = scrambled(find_coloring(g, k + 2, 200_000), perm)
    with pytest.raises(StageAssertionFailed, match="linked-swap move left an improper coloring"):
        special_coloring(g, k, S, initial=start)
    assert len(swaps) == 2
