"""The odd-set table against a direct enumeration of odd subsets.

The reference below enumerates odd subsets with ``itertools.combinations``
(by size, then lexicographic in universe order) and counts incident edges
one subset at a time; it shares no code with the table.  The packed build
is also compared with the same recurrence run on ``array('i')``, the
cached scan with full scans, and the split candidates with tables rebuilt
after every split.
"""

import random
import tracemalloc
from array import array
from fractions import Fraction
from itertools import combinations
from operator import sub
from types import SimpleNamespace

import pytest

from covdex import (
    DisjointnessViolation,
    TooLarge,
    VertexOutOfRange,
    build,
    gupta_bound,
    split_off,
)
from covdex.density import (
    OddSetTable,
    SplitCandidates,
    _first,
    _pack,
    all_min_optimal_sets,
    codensity,
    min_optimal_containing,
)
from covdex.oracle import FuzzConfig, random_multigraph


def reference_counts(g, universe):
    """e+(U) for every nonempty subset U of the universe, keyed by frozenset."""
    counts = {}
    for size in range(1, len(universe) + 1):
        for subset in combinations(universe, size):
            inside = set(subset)
            counts[frozenset(subset)] = sum(1 for e in g.edges if e.u in inside or e.v in inside)
    return counts


def odd_subsets(universe):
    for size in range(3, len(universe) + 1, 2):
        yield from combinations(universe, size)


def reference_codensity(counts, universe):
    best = witness = None
    for subset in odd_subsets(universe):
        ratio = Fraction(2 * counts[frozenset(subset)], len(subset) + 1)
        if best is None or ratio < best:
            best, witness = ratio, subset
    return best, witness


def reference_min_optimal(counts, universe, x, k):
    """The sorted minimum optimal set containing x, None, or the first two
    sorted sets of a tie as ("tie", size, a, b)."""
    if x not in universe:
        return None
    for size in range(3, len(universe) + 1, 2):
        found = [
            tuple(sorted(s))
            for s in combinations(universe, size)
            if x in s and 2 * counts[frozenset(s)] == k * (size + 1)
        ]
        if len(found) > 1:
            return ("tie", size, found[0], found[1])
        if found:
            return found[0]
    return None


def reference_all_min_optimal(counts, universe, k):
    """Inclusion-minimal members of the per-vertex minimum optimal sets,
    or the first tie met in vertex order."""
    collected = []
    for x in universe:
        found = reference_min_optimal(counts, universe, x, k)
        if found is not None and found[0] == "tie":
            return found, x
        if found is not None and frozenset(found) not in map(frozenset, collected):
            collected.append(found)
    minimal = [a for a in collected if not any(set(b) < set(a) for b in collected)]
    return sorted(minimal, key=lambda s: (len(s), s)), None


def array_recurrence(g, universe):
    """e+ by e+(S + i) = e+(S) + deg(i) - mult(i, S), run one subset at a
    time on array('i'), as the table was built before its lanes were
    packed into one int."""
    position = {v: i for i, v in enumerate(universe)}
    n = len(universe)
    degree = [0] * n
    mult = [[0] * n for _ in range(n)]
    for e in g.edges:
        i = position.get(e.u)
        j = position.get(e.v)
        if i is not None:
            degree[i] += 1
        if j is not None:
            degree[j] += 1
            if i is not None:
                mult[i][j] += 1
                mult[j][i] += 1
    e_plus = array("i", [0])
    for i in range(n):
        row = array("i", [-degree[i]])
        for m in mult[i][:i]:
            row += array("i", map(m.__add__, row)) if m else row
        e_plus += array("i", map(sub, e_plus, row))
    return e_plus


def full_scan_tight(table, k):
    """Masks of the odd sets of size >= 3 at slack 0, read off every mask."""
    return [
        mask
        for mask, count in enumerate(table.e_plus)
        if mask.bit_count() >= 3 and mask.bit_count() % 2
        and 2 * count == k * (mask.bit_count() + 1)
    ]


def full_scan_min_slack(table, k):
    """Minimum of 2e+(U) - k(|U|+1) over the odd sets of size >= 3, read
    off every mask, or None when the universe has no such set."""
    return min(
        (
            2 * count - k * (mask.bit_count() + 1)
            for mask, count in enumerate(table.e_plus)
            if mask.bit_count() >= 3 and mask.bit_count() % 2
        ),
        default=None,
    )


def tie_message(x, tie):
    _, size, a, b = tie
    return f"two minimum optimal sets of size {size} contain vertex {x}: {a} and {b}"


def corpus():
    rng = random.Random(2024)
    for seed in range(200):
        n = 3 + seed % 8
        g = random_multigraph(
            FuzzConfig(
                n=n,
                max_multiplicity=1 + seed % 3,
                edge_probability=rng.choice((0.3, 0.5, 0.8)),
                seed=seed,
            )
        )
        shuffled = rng.sample(range(n), n)
        # The whole vertex set, a prefix (as regularize restricts to the
        # original vertices), and a smaller subset in shuffled order.
        yield g, (None, list(range(n - 1)), shuffled[: max(n - 2, 1)])


def test_table_matches_enumeration_on_seeded_multigraphs():
    witnesses = optimal = ties = 0
    for g, universes in corpus():
        bound = gupta_bound(g)
        ks = {bound.k, bound.k + 1}
        if bound.codensity is not None:
            ks.add(int(bound.codensity))
        for restrict in universes:
            universe = tuple(g.vertices()) if restrict is None else tuple(restrict)
            counts = reference_counts(g, universe)

            value, witness = codensity(g, restrict_to=restrict)
            ref_value, ref_witness = reference_codensity(counts, universe)
            assert value == ref_value
            if ref_witness is None:
                assert witness is None
            else:
                assert witness.vertices == ref_witness
                assert witness.e_plus == counts[frozenset(ref_witness)]
                assert witness.ratio == ref_value
                witnesses += 1

            for k in sorted(ks):
                for x in g.vertices():
                    expected = reference_min_optimal(counts, universe, x, k)
                    if expected is not None and expected[0] == "tie":
                        with pytest.raises(DisjointnessViolation) as info:
                            min_optimal_containing(g, x, k, restrict_to=restrict)
                        assert str(info.value) == tie_message(x, expected)
                        ties += 1
                        continue
                    cert = min_optimal_containing(g, x, k, restrict_to=restrict)
                    if expected is None:
                        assert cert is None
                    else:
                        assert cert.vertices == expected
                        assert cert.e_plus == counts[frozenset(expected)]
                        optimal += 1

                if restrict is None:
                    continue
                expected, tie_at = reference_all_min_optimal(counts, tuple(sorted(universe)), k)
                if tie_at is not None:
                    with pytest.raises(DisjointnessViolation) as info:
                        all_min_optimal_sets(g, k, restrict)
                    assert str(info.value) == tie_message(tie_at, expected)
                else:
                    certs = all_min_optimal_sets(g, k, restrict)
                    assert [c.vertices for c in certs] == expected
    # The corpus reaches every branch: witnesses, optimal sets and ties.
    assert witnesses >= 400 and optimal >= 100 and ties >= 50


def test_split_updates_match_a_rebuilt_table():
    """SplitCandidates over a planned run of splits, against a table rebuilt
    after every split and a candidate list read off the enumeration."""
    rng = random.Random(7)
    outside = dropped = became_tight = 0
    for seed in range(40):
        n = 4 + seed % 6
        g = random_multigraph(FuzzConfig(n=n, max_multiplicity=2, edge_probability=0.7, seed=seed))
        # Plan the splits first: the candidates depend on how many are
        # made at each vertex.
        plan = []
        h = g
        for _ in range(12):
            choices = [x for x in range(n) if h.degree(x) > 0]
            if not choices:
                break
            x = rng.choice(choices)
            e = rng.choice(h.incident(x))
            h, _ = split_off(h, x, e.id)
            plan.append((x, e.id))
        planned = [sum(1 for x, _ in plan if x == v) for v in range(n)]
        # At, below and above the bound: a k above it starts some sets
        # below 0, and the candidates still hold every set at slack <= 0.
        value, _ = codensity(g)
        k = max(int(value) + rng.randrange(-1, 2), 0)
        candidates = SplitCandidates(OddSetTable(g, range(n)), k, planned)

        counts = reference_counts(g, range(n))
        assert set(candidates.slacks) == {
            sum(1 << v for v in subset)
            for subset in odd_subsets(range(n))
            if 2 * counts[frozenset(subset)] - k * (len(subset) + 1)
            <= 2 * sum(planned[v] for v in subset)
        }
        odd = [mask for mask in range(1 << n) if mask.bit_count() % 2 and mask.bit_count() > 1]
        h = g
        for x, eid in plan:
            y = h.edge(eid).other(x)
            outside += y >= n
            h, _ = split_off(h, x, eid)
            failed, tight = candidates.split(x, y)
            rebuilt = OddSetTable(h, range(n))
            slack = {mask: rebuilt.slack(mask, k) for mask in odd}
            assert {mask for mask in odd if slack[mask] <= 0} <= set(candidates.slacks)
            assert all(slack[mask] == s for mask, s in candidates.slacks.items())
            y_bit = 1 << y if y < n else 0
            touched = [mask for mask in odd if mask >> x & 1 and not mask & y_bit]
            assert failed == any(slack[mask] < 0 for mask in touched)
            assert len(tight) == len(set(tight))
            assert set(tight) == {mask for mask in touched if slack[mask] == 0}
            dropped += failed
            became_tight += bool(tight)
    # Some splits moved an edge whose far end was itself split off before,
    # and the check reached both of its answers.
    assert outside > 0
    assert dropped >= 20 and became_tight >= 20


def test_packed_build_matches_the_array_recurrence():
    rng = random.Random(11)
    checked = 0
    for g, universes in corpus():
        for restrict in universes:
            universe = tuple(g.vertices()) if restrict is None else tuple(restrict)
            table = OddSetTable(g, universe)
            assert table.e_plus == array_recurrence(g, universe)
            checked += 1
    # Counts above 255 use more than a lane's lowest byte.
    triangle = build(3, [(0, 1), (1, 2), (0, 2)] * 40)
    for universe in ((0, 1, 2), (2, 0, 1), (1,), (0, 2), ()):
        assert OddSetTable(triangle, universe).e_plus == array_recurrence(triangle, universe)
    assert max(OddSetTable(triangle, range(3)).e_plus) == 120
    assert OddSetTable(triangle, range(3)).codensity()[0] == 60
    # Universes of 0, 1 and 2 vertices, with edges that leave them.
    g = random_multigraph(FuzzConfig(n=7, max_multiplicity=3, edge_probability=0.8, seed=5))
    for size in (0, 1, 2, 3):
        for _ in range(4):
            universe = tuple(rng.sample(range(7), size))
            table = OddSetTable(g, universe)
            assert table.e_plus == array_recurrence(g, universe)
            assert len(table.e_plus) == 1 << size
            checked += 1
    assert list(OddSetTable(g, ()).e_plus) == [0]
    big = random_multigraph(FuzzConfig(n=20, max_multiplicity=2, edge_probability=0.5, seed=20))
    assert OddSetTable(big, range(20)).e_plus == array_recurrence(big, range(20))
    assert checked >= 600


def test_tight_sets_match_a_full_scan_at_and_above_the_bound():
    cached = scanned = 0
    for g, universes in corpus():
        for restrict in universes:
            universe = tuple(g.vertices()) if restrict is None else tuple(restrict)
            table = OddSetTable(g, universe)
            value, _ = table.codensity()
            if value is None:
                continue
            for k in range(int(value) + 3):
                tight = table.tight_sets(k)
                assert tight == full_scan_tight(table, k)
                if full_scan_min_slack(table, k) < 0:
                    scanned += bool(tight)
                else:
                    cached += bool(tight)
    # Both ways of answering found tight sets: from the cached co-density's
    # minimizers and, above the bound, from a pass over the table.
    assert cached >= 100 and scanned >= 100


def test_table_values_are_incident_edge_counts():
    g = build(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0)])
    table = OddSetTable(g, (2, 0, 3))  # bit 0 is vertex 2, bit 1 vertex 0
    assert list(table.e_plus) == [0, 2, 3, 5, 2, 3, 4, 5]


def test_table_checks_the_cap_before_building():
    with pytest.raises(TooLarge):
        OddSetTable(build(2, [(0, 1)]), range(10**6))
    with pytest.raises(TooLarge):
        OddSetTable(build(5, []), range(5), cap=4)


def test_table_refuses_vertex_counts_past_a_machine_size():
    # len() of a range of 2^63 or more vertices overflows; the check reads
    # the count off the range instead, before anything is allocated.
    for n in (2**63, 10**23):
        with pytest.raises(TooLarge) as info:
            OddSetTable(build(n, []), range(n))
        assert str(info.value) == f"odd-subset enumeration over {n} vertices exceeds cap 24"


@pytest.mark.parametrize(
    "universe, kind, message",
    [
        ([0, 0, 1, 2], ValueError, "universe (0, 0, 1, 2) repeats a vertex"),
        ([0, 1, 9], VertexOutOfRange, "universe vertex 9 out of range for n=4"),
        ([0, 1, -1], VertexOutOfRange, "universe vertex -1 out of range for n=4"),
    ],
    ids=["repeated", "past-n", "negative"],
)
def test_table_refuses_a_universe_that_is_not_a_set_of_graph_vertices(universe, kind, message):
    # Read as given, each of these universes puts K4's co-density at 5/2,
    # over a repeated or a phantom vertex; over [0, 1, 2] it is 3.
    k4 = build(4, list(combinations(range(4), 2)))
    for ask in (
        lambda: codensity(k4, restrict_to=universe),
        lambda: min_optimal_containing(k4, 0, 3, restrict_to=universe),
    ):
        with pytest.raises(ValueError) as info:
            ask()
        assert type(info.value) is kind and str(info.value) == message
    assert codensity(k4, restrict_to=[0, 1, 2])[0] == 3


def test_table_lanes_follow_the_edge_count():
    # Below 2^14 edges the counts are 16-bit, from there on 32-bit; a pass
    # takes the narrowest lanes that hold its own values either way.
    triangle = [(0, 1), (1, 2), (0, 2)]
    rest = [(3, 4), (4, 5), (5, 6), (6, 7), (3, 7), (3, 5), (0, 3)]
    for copies, code in (((1 << 14) // 3 - 3, "h"), ((1 << 14) // 3 + 1, "i")):
        g = build(8, triangle * copies + rest)
        assert (len(g.edges) < 1 << 14) == (code == "h")
        table = OddSetTable(g, range(8))
        assert table.e_plus.typecode == code
        assert table.e_plus == array_recurrence(g, range(8))
        # The five light vertices: the table keeps the graph's width, its
        # passes run on 16-bit lanes.
        light = OddSetTable(g, range(3, 8))
        assert light.e_plus.typecode == code and light._fit(3, [1] * 5) == "h"
        assert light.e_plus == array_recurrence(g, range(3, 8))
        for k in range(5):
            expected = [
                mask
                for mask in range(32)
                if mask.bit_count() in (3, 5)
                and light.slack(mask, k) <= 2 * mask.bit_count()
            ]
            assert list(light.select(k, [1] * 5)) == expected
            assert light.tight_sets(k) == [m for m in expected if light.slack(m, k) == 0]


def test_table_builds_16_bit_counts_in_about_three_times_their_bytes():
    g = random_multigraph(FuzzConfig(n=18, max_multiplicity=2, edge_probability=0.5, seed=0))
    OddSetTable(g, range(18))
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        table = OddSetTable(g, range(18))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    # 2 bytes per subset kept; with 32-bit lanes this build peaks at 3.3 MB.
    assert table.e_plus.itemsize == 2
    assert peak < 4 * 2 * (1 << 18)


def test_table_refuses_edge_counts_beyond_a_lane():
    # Only the edge count is read before the check.
    lane = 8 * array("i").itemsize
    with pytest.raises(TooLarge, match="edges do not fit"):
        OddSetTable(SimpleNamespace(edges=range(1 << (lane - 2))), range(3))


def test_table_degrees_and_multiplicity_match_the_graph():
    """delta and mu are read off the table's count, not the graph's."""
    graphs = [g for g, _ in corpus()]
    # Edgeless, fewer than three vertices, and parallel edges only.
    graphs += [build(0, []), build(1, []), build(5, []), build(2, [(0, 1)] * 3)]
    graphs += [build(4, [(0, 1)] * 3 + [(2, 3)] * 2), build(3, [(1, 2)] * 4)]
    for g in graphs:
        table = OddSetTable(g, g.vertices())
        assert table.degrees == g.degrees()
        assert table.degrees == [table.e_plus[1 << v] for v in g.vertices()]
        assert min(table.degrees, default=0) == g.min_degree()
        assert table.max_multiplicity == g.max_multiplicity()
        assert gupta_bound(g, table=table).delta == gupta_bound(g).delta == g.min_degree()


def test_below_and_tight_sets_from_one_lane_pass_match_a_scan():
    """Fresh tables (no cached co-density) answer both from one pass at
    every k from floor(co-density) - 1 to floor(co-density) + 3."""
    below = tight = 0
    for g, universes in corpus():
        for restrict in universes:
            universe = tuple(g.vertices()) if restrict is None else tuple(restrict)
            value, _ = OddSetTable(g, universe).codensity()
            if value is None:
                continue
            fresh = OddSetTable(g, universe)
            for k in range(int(value) - 1, int(value) + 4):
                assert fresh.below(k) == (full_scan_min_slack(fresh, k) < 0)
                assert fresh.tight_sets(k) == full_scan_tight(fresh, k)
                below += fresh.below(k)
                tight += bool(fresh.tight_sets(k))
            assert fresh._codensity is None
    assert below >= 1000 and tight >= 200


def test_one_chunk_table_keeps_its_packed_lanes():
    for g, universes in corpus():
        for restrict in universes:
            universe = tuple(g.vertices()) if restrict is None else tuple(restrict)
            table = OddSetTable(g, universe)
            assert table._packed == _pack(table.e_plus)
    # A recount keeps the new graph's lanes, and the passes read them.
    g = random_multigraph(FuzzConfig(n=14, max_multiplicity=2, edge_probability=0.5, seed=3))
    table = OddSetTable(g, range(14))
    before = table._packed
    h = split_off(g, 0, g.incident(0)[0].id)[0]
    table.recount(h)
    assert table._packed == _pack(table.e_plus) != before
    assert table.select(9, [0] * 14) == OddSetTable(h, range(14)).select(9, [0] * 14)
    # Past one chunk the lanes are packed per chunk and none is kept.
    big = random_multigraph(FuzzConfig(n=15, max_multiplicity=2, edge_probability=0.5, seed=3))
    assert OddSetTable(big, range(15))._packed is None


def test_witness_tie_break_compares_masks_in_lexicographic_order():
    def positions(mask):
        return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)

    pairs = 0
    for n in range(3, 9):
        for size in range(3, n + 1, 2):
            masks = [sum(1 << i for i in c) for c in combinations(range(n), size)]
            for a in masks:
                for b in masks:
                    assert _first(a, b) == min(a, b, key=positions)
                    pairs += 1
    assert pairs > 6000
