"""The odd-set table's lane answers against a scan of every mask.

``select`` tests 2e+(U) <= k(|U|+1) + 2D(U) on packed lanes, 2^_CHUNK_BITS
masks per chunk, and ``codensity``, ``below`` and ``tight_sets`` answer
from its selection with no splits; ``below``/``tight_sets`` read the
cached co-density when k is at most its value.  The references below read
``e_plus`` one mask at a time.  The chunks are also narrowed to 2 and 3
bits, so that the chunks' high parts have 0, 1, 2 and 3 or more bits,
and each of these runs on the 16-bit lanes its graphs fit and on 32-bit
lanes forced.  ``all_min_optimal_sets`` is compared with the per-vertex
loop it replaced, and the selection's lane guard is checked at its limit
and where it moves the pass from 16-bit to 32-bit lanes.
"""

import random
from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest

from conftest import CHUNKS_AND_LANES
from covdex import DisjointnessViolation, TooLarge, build
from covdex import density
from covdex.density import OddSetTable, all_min_optimal_sets
from covdex.oracle import FuzzConfig, random_multigraph


def positions(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def odd_masks(table):
    return [
        mask
        for mask in range(len(table.e_plus))
        if mask.bit_count() >= 3 and mask.bit_count() % 2
    ]


def scan_codensity(table):
    """The least ratio 2e+(U)/(|U|+1) and the first mask reaching it in
    (size, lexicographic) order, or (None, None)."""
    best = witness = None
    for mask in sorted(odd_masks(table), key=lambda m: (m.bit_count(), positions(m))):
        ratio = Fraction(2 * table.e_plus[mask], mask.bit_count() + 1)
        if best is None or ratio < best:
            best, witness = ratio, mask
    return best, witness


def scan_slacks(table, k):
    """Each odd set's mask with its slack 2e+(U) - k(|U|+1), in mask order."""
    return [(mask, table.slack(mask, k)) for mask in odd_masks(table)]


def scan_tight(table, k):
    return [mask for mask, slack in scan_slacks(table, k) if slack == 0]


@lru_cache(maxsize=None)
def seeded_cases():
    """Graphs with a universe each, and the scanned co-density, its
    witness's mask, and (below, tight sets) for each k from 0 to 2 above
    the co-density."""
    rng = random.Random(31)
    graphs = []
    for seed in range(36):
        n = 3 + seed % 12
        g = random_multigraph(
            FuzzConfig(
                n=n,
                max_multiplicity=1 + seed % 4,
                edge_probability=rng.choice((0.3, 0.5, 0.8)),
                seed=seed,
            )
        )
        graphs.append((g, rng.sample(range(n), n) if seed % 3 else range(n)))
    # A 5-clique with one edge to a heavy pair: the clique's ratio 11/3 is
    # below every 3-set's (at least 9/2) and the whole graph's (21/4), so
    # the co-density pass lowers its start ratio.
    graphs.append((build(7, [*combinations(range(5), 2), (4, 5), *[(5, 6)] * 10]), range(7)))
    cases = []
    for g, universe in graphs:
        table = OddSetTable(g, universe)
        value, witness_mask = scan_codensity(table)
        answers = []
        for k in range(3 if value is None else int(value) + 3):
            slacks = scan_slacks(table, k)
            answers.append(
                (any(slack < 0 for _, slack in slacks), [m for m, slack in slacks if slack == 0])
            )
        cases.append((g, universe, value, witness_mask, answers))
    return cases


@pytest.mark.parametrize("chunk_bits,codes", CHUNKS_AND_LANES)
def test_lane_answers_match_a_scan_of_every_mask(monkeypatch, chunk_bits, codes):
    monkeypatch.setattr(density, "_CHUNK_BITS", chunk_bits)
    monkeypatch.setattr(density, "_CODES", codes)
    high_bits = set()
    below = tight = lowered = 0
    for g, universe, value, witness_mask, answers in seeded_cases():
        # Without a cached co-density every k runs the selection with no
        # splits; after codensity() the k up to the co-density read its
        # minimizers.
        fresh = OddSetTable(g, universe)
        assert fresh.e_plus.typecode == codes[0]
        for k, answer in enumerate(answers):
            assert fresh._fit(k, [0] * len(universe)) == codes[0]
            assert (fresh.below(k), fresh.tight_sets(k)) == answer
        table = OddSetTable(g, universe)
        got, witness = table.codensity()
        assert got == value
        if value is None:
            assert witness is None
        else:
            assert witness.vertices == tuple(table.universe[i] for i in positions(witness_mask))
            assert witness.e_plus == table.e_plus[witness_mask]
            assert witness.ratio == value
            lowered += 3 < witness.size < len(universe) - 1 + len(universe) % 2
            high_bits.add(min((witness_mask >> chunk_bits).bit_count(), 3))
        for k, (dropped, expected) in enumerate(answers):
            assert table.below(k) == dropped
            assert table.tight_sets(k) == expected
            # The answer is a copy: a caller may extend it.
            table.tight_sets(k).append(-1)
            assert table.tight_sets(k) == expected
            below += dropped
            tight += bool(expected)
            high_bits |= {min((mask >> chunk_bits).bit_count(), 3) for mask in expected}
    # Both answers were reached, some witness is neither a 3-set nor a
    # largest odd set, and with narrow chunks the sets came from high parts
    # of 1, 2 and 3 or more bits, and with 3-bit chunks 0 bits; the first
    # 2-bit chunk holds no odd set of size >= 3.
    assert below >= 40 and tight >= 30 and lowered >= 1
    if chunk_bits < 14:
        assert {1, 2, 3} <= high_bits
    if chunk_bits == 3:
        assert 0 in high_bits


def scan_selection(table, k, splits):
    """The odd sets with 2e+(U) <= k(|U|+1) + 2D(U), where D(U) sums
    splits[i] over the bits i of U, read off every mask."""
    spent = array("i", [0])
    for made in splits:
        spent += array("i", map(made.__add__, spent))
    return [
        mask
        for mask in odd_masks(table)
        if 2 * table.e_plus[mask] <= k * (mask.bit_count() + 1) + 2 * spent[mask]
    ]


@pytest.mark.parametrize("chunk_bits,codes", CHUNKS_AND_LANES)
def test_selection_matches_a_scan_of_every_mask(monkeypatch, chunk_bits, codes):
    monkeypatch.setattr(density, "_CHUNK_BITS", chunk_bits)
    monkeypatch.setattr(density, "_CODES", codes)
    rng = random.Random(61 + chunk_bits)
    high_bits = set()
    plain = low_planned = high_planned = 0
    for g, universe, _, _, answers in seeded_cases():
        table = OddSetTable(g, universe)
        n = len(table.universe)
        for k in range(len(answers)):
            # About a third of the plans are all zero.
            splits = [rng.choice((0, 0, 1, 3)) if rng.random() < 0.7 else 0 for _ in range(n)]
            if rng.random() < 0.3:
                splits = [0] * n
            selected = list(table.select(k, splits))
            assert selected == scan_selection(table, k, splits)
            assert table._fit(k, splits) == codes[0]
            plain += not any(splits)
            low_planned += any(splits[:chunk_bits])
            high_planned += any(splits[chunk_bits:])
            high_bits |= {min((mask >> chunk_bits).bit_count(), 3) for mask in selected}
    # Both the selection with no splits and the doubled one ran, with
    # splits in the chunks' high parts too when the chunks are narrow, and
    # the sets came from high parts of 0 to 3 or more bits.
    assert plain >= 30 and low_planned >= 100
    if chunk_bits < 14:
        assert high_planned >= 100 and {1, 2, 3} <= high_bits
    if chunk_bits == 3:
        assert 0 in high_bits


def per_vertex_min_optimal_sets(table, k):
    """``all_min_optimal_sets`` as it was: per vertex, the minimum-size
    tight sets that contain it (a tie raises), then the inclusion-minimal
    ones, checked pairwise for overlap."""
    tight = scan_tight(table, k)
    collected = []
    for x in sorted(table.universe):
        bit = 1 << table.universe.index(x)
        mine = [mask for mask in tight if mask & bit]
        if not mine:
            continue
        size = min(mask.bit_count() for mask in mine)
        found = sorted((m for m in mine if m.bit_count() == size), key=positions)
        vertices = [tuple(sorted(table.universe[i] for i in positions(m))) for m in found[:2]]
        if len(found) > 1:
            raise DisjointnessViolation(
                f"two minimum optimal sets of size {size} contain vertex {x}: "
                f"{vertices[0]} and {vertices[1]}"
            )
        if vertices[0] not in collected:
            collected.append(vertices[0])
    certs = [a for a in collected if not any(set(b) < set(a) for b in collected)]
    for i, a in enumerate(certs):
        for b in certs[i + 1:]:
            overlap = set(a) & set(b)
            if overlap:
                raise DisjointnessViolation(
                    f"optimal sets {a} and {b} share {sorted(overlap)}"
                )
    return sorted(certs, key=lambda c: (len(c), c))


def test_all_min_optimal_sets_matches_the_per_vertex_loop():
    rng = random.Random(41)
    found = ties = overlaps = 0
    for seed in range(150):
        n = 3 + seed % 9
        g = random_multigraph(
            FuzzConfig(
                n=n,
                max_multiplicity=1 + seed % 4,
                edge_probability=rng.choice((0.3, 0.5, 0.8)),
                seed=seed,
            )
        )
        universe = sorted(rng.sample(range(n), max(n - seed % 3, 1)))
        table = OddSetTable(g, universe)
        value, _ = table.codensity()
        for k in range(0 if value is None else int(value) + 3):
            try:
                expected = per_vertex_min_optimal_sets(table, k)
            except DisjointnessViolation as exc:
                with pytest.raises(DisjointnessViolation) as info:
                    all_min_optimal_sets(g, k, universe, table=table)
                assert str(info.value) == str(exc)
                ties += "two minimum" in str(exc)
                overlaps += "share" in str(exc)
                continue
            certs = all_min_optimal_sets(g, k, universe, table=table)
            assert [c.vertices for c in certs] == expected
            assert all(2 * c.e_plus == k * (c.size + 1) for c in certs)
            masks = [sum(1 << universe.index(v) for v in c.vertices) for c in certs]
            assert [c.e_plus for c in certs] == [table.e_plus[mask] for mask in masks]
            found += len(certs)
    assert found >= 50 and ties >= 100 and overlaps >= 2


def test_all_min_optimal_sets_reports_a_tie_and_an_overlap():
    # A k above the co-density, so that tight sets cross.
    g = build(
        7,
        [(0, 1)] * 2 + [(0, 2)] * 3 + [(0, 3)] * 2 + [(0, 5)] * 2 + [(0, 6), (1, 2), (1, 2)]
        + [(1, 3), (1, 4), (1, 5), (1, 6), (1, 6), (2, 3), (2, 5), (2, 6), (3, 4), (3, 5)]
        + [(3, 6), (4, 5)] + [(4, 6)] * 3,
    )
    with pytest.raises(DisjointnessViolation) as info:
        all_min_optimal_sets(g, 9, range(7))
    assert str(info.value) == (
        "two minimum optimal sets of size 3 contain vertex 0: (0, 2, 5) and (0, 3, 5)"
    )
    with pytest.raises(DisjointnessViolation) as info:
        all_min_optimal_sets(g, 9, [0, 1, 2, 3, 4, 6])
    assert str(info.value) == "optimal sets (0, 1, 2, 3, 4) and (2, 4, 6) share [2, 4]"


def test_codensity_pass_refuses_ratios_beyond_a_lane():
    triangle = OddSetTable(build(3, [(0, 1), (1, 2), (0, 2)]), range(3))
    # The pass selects with no splits at k = ceil(a/b), where a/b = 2e+/4
    # of the best 3-set; the selection's guard k(n+1) + 2e+(V) < 2^30 is
    # then 4 ceil(e+(V)/2) + 2e+(V) < 2^30.
    triangle.e_plus = array("i", [0] * 7 + [1 << 28])
    with pytest.raises(TooLarge, match="do not fit"):
        triangle.codensity()
    # Below the limit it fits, and the ratio reads exactly.
    triangle.e_plus = array("i", [0] * 7 + [(1 << 28) - 2])
    assert triangle.codensity()[0] == (1 << 27) - 1


def test_zero_split_selection_refuses_slacks_beyond_a_lane():
    g = build(3, [(0, 1), (0, 1), (1, 2), (0, 2)])
    # The selection's guard k + sum(weights) + 2e+(V) < 2^30 with no splits
    # planned: k(n+1) + 2e+(V) < 2^30, here 4k + 8 < 2^30.
    for ask in (
        lambda table, k: table.select(k, [0, 0, 0]),
        OddSetTable.below,
        OddSetTable.tight_sets,
    ):
        with pytest.raises(TooLarge, match="do not fit"):
            ask(OddSetTable(g, range(3)), (1 << 28) - 2)
    # One below the limit fits: the triangle's slack is 8 - 4k < 0.
    table = OddSetTable(g, range(3))
    assert list(table.select((1 << 28) - 3, [0, 0, 0])) == [0b111]
    assert table.below((1 << 28) - 3)
    assert table.tight_sets((1 << 28) - 3) == []


def test_passes_at_and_above_the_16_bit_guard_match_a_scan():
    # A pass runs on 16-bit lanes while k(n+1) + 2D(V) + 2e+(V) < 2^14 and
    # on 32-bit lanes from 2^14 on.  Five heavy vertices (about 2000
    # edges, so the table is 16-bit) and three isolated ones, on which the
    # planned splits go: {5, 6, 7} has e+ = 0.
    rng = random.Random(14)
    pairs = [pair for pair in combinations(range(5), 2) for _ in range(rng.randrange(150, 250))]
    g = build(8, pairs)
    table = OddSetTable(g, range(8))
    assert table.e_plus.typecode == "h"
    value, _ = table.codensity()
    fresh = OddSetTable(g, range(8))
    guard = 1 << 14
    codes = set()
    for top in (guard - 2, guard - 1, guard, guard + 1):
        # k(n+1) = 9k has top's parity when k does; 2D(V) makes up the rest.
        for k in (int(value) - 1, int(value), int(value) + 1, int(value) + 2):
            if (top - 9 * k) % 2:
                continue
            spare = (top - 9 * k - 2 * table.e_plus[-1]) // 2
            assert spare >= 0
            third = spare // 3
            splits = [0, 0, 0, 0, 0, third, third, spare - 2 * third]
            assert 9 * k + 2 * sum(splits) + 2 * table.e_plus[-1] == top
            code = table._fit(k, splits)
            assert code == ("h" if top < guard else "i")
            codes.add(code)
            assert list(table.select(k, splits)) == scan_selection(table, k, splits)
    # With no splits, the largest k below the guard and the next one.
    low = (guard - 1 - 2 * table.e_plus[-1]) // 9
    for k in (low, low + 1):
        assert fresh._fit(k, [0] * 8) == ("h" if k == low else "i")
        slacks = scan_slacks(fresh, k)
        assert fresh.below(k) == any(slack < 0 for _, slack in slacks)
        assert fresh.tight_sets(k) == [mask for mask, slack in slacks if slack == 0]
    assert codes == {"h", "i"}
