"""The packed split candidates against the dict-based class they replaced.

``DictCandidates`` below is that class as it was: one Python pass over
every mask to select the candidates, a dict of their slacks, and per
vertex with planned splits the list of candidates that contain it.  The
packed class must select the same sets with the same slacks and answer
every split the same way, also when the selection runs on chunks of 2 or
3 bits, so that the chunks' high parts have 0, 1 and 2 or more bits, on
the 16-bit lanes the graphs fit and on 32-bit lanes forced, and at
n = 16-18, where the candidates' masks no longer fit a 16-bit lane.
"""

import random
from array import array

import pytest

from conftest import CHUNKS_AND_LANES
from covdex import TooLarge, build, split_off
from covdex import density
from covdex.density import OddSetTable, SplitCandidates, _pack, _unpack, codensity
from covdex.oracle import FuzzConfig, random_multigraph


class DictCandidates:
    def __init__(self, table, k, splits):
        planned = array("i", [0])
        for made in splits:
            planned += array("i", map(made.__add__, planned)) if made else planned
        # e+ at slack 0 per set size, and for the sizes that are never odd
        # sets of size >= 3 a value below every count less its splits.
        need = [
            k * (size + 1) // 2 if size >= 3 and size % 2 else -(1 << 31)
            for size in range(len(table.universe) + 1)
        ]
        self.slacks = {
            mask: 2 * count - k * (mask.bit_count() + 1)
            for mask, count, spent in zip(range(len(table.e_plus)), table.e_plus, planned)
            if count - spent <= need[mask.bit_count()]
        }
        self._position = table._position
        self._containing = [
            [mask for mask in self.slacks if mask >> i & 1] if made else []
            for i, made in enumerate(splits)
        ]

    def split(self, x, y):
        y_bit = 1 << self._position[y] if y in self._position else 0
        dropped = False
        tight = []
        for mask in self._containing[self._position[x]]:
            if not mask & y_bit:
                slack = self.slacks[mask] - 2
                self.slacks[mask] = slack
                if slack <= 0:
                    if slack:
                        dropped = True
                    else:
                        tight.append(mask)
        return dropped, tight


def planned_run(g, rng, count):
    """Up to count random splits of g at about half of its vertices, as
    (x, edge id) in order; the other half are far ends with no split."""
    movers = rng.sample(range(g.vertex_count), (g.vertex_count + 1) // 2)
    plan = []
    h = g
    for _ in range(count):
        choices = [x for x in movers if h.degree(x) > 0]
        if not choices:
            break
        x = rng.choice(choices)
        e = rng.choice(h.incident(x))
        h, _ = split_off(h, x, e.id)
        plan.append((x, e.id))
    return plan


@pytest.mark.parametrize("chunk_bits,codes", CHUNKS_AND_LANES)
def test_packed_candidates_match_the_dict_class(monkeypatch, chunk_bits, codes):
    monkeypatch.setattr(density, "_CHUNK_BITS", chunk_bits)
    monkeypatch.setattr(density, "_CODES", codes)
    rng = random.Random(100 + chunk_bits)
    high_bits = set()
    splits = unplanned_y = dropped = tight = 0
    for seed in range(45):
        n = 3 + seed % 9
        g = random_multigraph(
            FuzzConfig(
                n=n,
                max_multiplicity=1 + seed % 2,
                edge_probability=rng.choice((0.5, 0.7, 0.9)),
                seed=seed,
            )
        )
        plan = planned_run(g, rng, 3 * n)
        planned = [sum(1 for x, _ in plan if x == v) for v in range(n)]
        value, _ = codensity(g)
        table = OddSetTable(g, range(n))
        # Below, at and above the bound: above it some sets start below 0.
        for k in range(max(int(value) - 1, 0), int(value) + 2):
            packed = SplitCandidates(table, k, planned)
            assert packed._code == codes[0]
            reference = DictCandidates(table, k, planned)
            initial = packed.slacks
            assert initial == reference.slacks
            high_bits |= {(mask >> chunk_bits).bit_count() for mask in packed.slacks}
            h = g
            for x, eid in plan:
                y = h.edge(eid).other(x)
                unplanned_y += y < n and planned[y] == 0
                h, _ = split_off(h, x, eid)
                answer = packed.split(x, y)
                assert answer == reference.split(x, y)
                assert packed.slacks == reference.slacks
                splits += 1
                dropped += answer[0]
                tight += bool(answer[1])
            rebuilt = OddSetTable(h, range(n))
            assert packed.agrees_with(rebuilt)
            assert packed.agrees_with(table) == (packed.slacks == initial)
            packed.end_splits()
            assert packed.agrees_with(rebuilt)
    # Every answer was reached, and many far ends had no split planned.
    assert splits >= 2000 and unplanned_y >= 500
    assert dropped >= 500 and tight >= 500
    # Candidates came from chunks whose high parts have 1, 2 and more bits,
    # and with 3-bit chunks 0 bits; the first 2-bit chunk holds no odd set
    # of size >= 3.
    if chunk_bits < 14:
        assert {1, 2, 3} <= high_bits
    if chunk_bits == 3:
        assert 0 in high_bits


def test_candidates_past_16_bit_masks_match_the_dict_class():
    # From n = 16 on, masks reach 2^15 and more: the membership ints are
    # read off the masks' bytes, while the slacks stay in 16-bit lanes.
    rng = random.Random(16)
    high = splits = tight = 0
    for n in (16, 17, 18):
        g = random_multigraph(FuzzConfig(n=n, max_multiplicity=2, edge_probability=0.5, seed=n))
        plan = planned_run(g, rng, 2 * n)
        planned = [sum(1 for x, _ in plan if x == v) for v in range(n)]
        table = OddSetTable(g, range(n))
        k = int(table.codensity()[0])
        packed = SplitCandidates(table, k, planned)
        reference = DictCandidates(table, k, planned)
        assert packed._code == "h"
        assert packed.slacks == reference.slacks
        high += sum(mask >= 1 << 15 for mask in packed.slacks)
        h = g
        for x, eid in plan:
            y = h.edge(eid).other(x)
            h, _ = split_off(h, x, eid)
            answer = packed.split(x, y)
            assert answer == reference.split(x, y)
            splits += 1
            tight += bool(answer[1])
        assert packed.slacks == reference.slacks
        assert packed.agrees_with(OddSetTable(h, range(n)))
    assert high >= 100 and splits >= 90 and tight >= 5


@pytest.mark.parametrize("chunk_bits,codes", CHUNKS_AND_LANES)
def test_tight_and_below_are_the_table_answers_before_the_splits(monkeypatch, chunk_bits, codes):
    # D(U) >= 0, so every set at slack 0 or below is a candidate: before
    # the first split the candidates answer what the table answers with no
    # splits, and after each they read their own slacks.
    monkeypatch.setattr(density, "_CHUNK_BITS", chunk_bits)
    monkeypatch.setattr(density, "_CODES", codes)
    rng = random.Random(200 + chunk_bits)
    below = tight = 0
    for seed in range(30):
        n = 3 + seed % 9
        g = random_multigraph(
            FuzzConfig(n=n, max_multiplicity=1 + seed % 2, edge_probability=0.7, seed=seed)
        )
        plan = planned_run(g, rng, 2 * n)
        planned = [sum(1 for x, _ in plan if x == v) for v in range(n)]
        value, _ = codensity(g)
        for k in range(max(int(value) - 1, 0), int(value) + 2):
            table = OddSetTable(g, range(n))
            packed = SplitCandidates(table, k, planned)
            assert packed.tight() == table.tight_sets(k)
            assert packed.below() == table.below(k)
            below += packed.below()
            tight += bool(packed.tight())
            h = g
            for x, eid in plan:
                y = h.edge(eid).other(x)
                h, _ = split_off(h, x, eid)
                packed.split(x, y)
                slacks = packed.slacks
                assert packed.tight() == sorted(m for m, slack in slacks.items() if slack == 0)
                assert packed.below() == any(slack < 0 for slack in slacks.values())
    # k one above the co-density starts some set below 0 on every graph.
    assert below == 30 and tight >= 15


def test_pack_and_unpack_round_trip_on_16_bit_lanes():
    rng = random.Random(6)
    top = (1 << 15) - 1
    for count in (0, 1, 2, 7, 1000):
        values = array("h", [rng.choice((0, 1, top, rng.randrange(top))) for _ in range(count)])
        packed = _pack(values)
        assert packed.bit_length() <= 16 * count
        assert _unpack(packed, count, "h") == values
        assert _unpack(packed, count + 3, "h") == values + array("h", [0, 0, 0])
    # Item i is lane i, 16 bits per lane, item 0 lowest.
    assert _pack(array("h", [1, 2, top])) == 1 | 2 << 16 | top << 32


def test_pack_and_unpack_round_trip():
    rng = random.Random(5)
    top = (1 << 31) - 1
    for count in (0, 1, 2, 7, 1000):
        values = array("i", [rng.choice((0, 1, top, rng.randrange(top))) for _ in range(count)])
        packed = _pack(values)
        assert packed.bit_length() <= 32 * count
        assert _unpack(packed, count) == values
        # Missing high lanes read 0.
        assert _unpack(packed, count + 3) == values + array("i", [0, 0, 0])
    # Item i is lane i, 32 bits per lane, item 0 lowest.
    assert _pack(array("i", [1, 2, top])) == 1 | 2 << 32 | top << 64


def test_candidates_refuse_slacks_beyond_a_lane():
    triangle = build(3, [(0, 1), (1, 2), (0, 2)])
    table = OddSetTable(triangle, range(3))
    # The guard: k(n+1) + 2 * (planned splits) + 2 * e+(V) < 2^30.
    with pytest.raises(TooLarge, match="do not fit"):
        SplitCandidates(table, 0, [(1 << 29) - 3, 0, 0])
    with pytest.raises(TooLarge, match="do not fit"):
        SplitCandidates(table, 1 << 28, [0, 0, 0])
    # One below the limit fits, and the triangle's slack reads exactly.
    candidates = SplitCandidates(table, 0, [(1 << 29) - 4, 0, 0])
    assert candidates.slacks == {0b111: 6}
    candidates = SplitCandidates(table, (1 << 28) - 2, [0, 0, 0])
    assert candidates.slacks == {0b111: 6 - 4 * ((1 << 28) - 2)}
    assert candidates.split(0, 3) == (True, [])
