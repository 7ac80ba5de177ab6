"""Co-density, the Gupta bound, and optimal odd vertex sets.

All ratios are exact rationals end to end: optimality is an exact equality
test and floor(co-density) feeds an integer bound, so floats would corrupt
both.

Every odd-set question is answered from one table.  For a fixed universe
of n vertices, ``OddSetTable`` holds e+(U), the number of edges incident to
U, for all 2^n subsets U, indexed by bitmask (bit i stands for the
universe's i-th vertex).  It is filled in O(2^n) time by

    e+(S + i) = e+(S) + deg(i) - mult(i, S)    (i above every bit of S),

where the row sums mult(i, S) are built by the same doubling over the bits
below i.  Each doubling step runs on one Python int that holds a lane per
subset: a step is a few shifts, adds and ORs of whole ints instead of a
Python loop over its 2^i values, and no lane borrows or carries, because
every value stays in [0, 2^(w-1)) for w-bit lanes.  The lanes are as
narrow as the values allow: 16 bits (an ``array('h')`` item) below 2^14
edges, else 32 (``array('i')``), and every pass below takes the narrowest
width that holds its own values.  The int is then unpacked into the array.
The table keeps 2 * 2^n bytes, 32 MiB at the default cap of 24 vertices;
while it is built, the packed int and its temporaries take about three
times that.  The cap guards runtime and memory, not correctness, and is
checked before anything is allocated.

For a given k, a set's integer slack is 2e+(U) - k(|U|+1): an odd set is
optimal exactly when its slack is 0, and k <= co-density exactly when no
odd set has negative slack.  Splitting edge (x, y) off x lowers e+ by one
on exactly the sets that contain x and miss y, so it lowers their slack,
which is always even, by 2, and leaves every other slack alone.  A set U
therefore loses at most 2D(U), where D(U) counts the splits made at U's
own vertices, and only a set whose slack starts at most 2D(U) can reach 0
or drop below it.

``OddSetTable.select`` picks those sets in the table's one pass over
packed lanes: 2^14 masks (a chunk) at a time, the chunk's counts one per
lane (a one-chunk table keeps the int its build packed), and the repunit,
the widths |U|+1 and the flags of the odd sets of size >= 3 constant
lanes, cached per number of high bits; one lane-wise subtraction per
chunk tests every mask.  ``SplitCandidates`` keeps the slacks of the sets
it picks split by split, on the rare ``regularize`` run that tracks its
splits.  With no split planned the pass answers the bound and the tight
sets at any k that the cached co-density does not settle, and the
co-density itself: every set at the best 3-set's or largest odd set's
ratio a/b or below is selected at k = ceil(a/b), so the least ratio among
the selected sets is the co-density.

The table carries the graph it counts, and its count is the only count
of that graph: e+({v}) is v's degree.  ``decompose`` builds it once and
hands it to ``regularize``, which counts it again only after splits: once
after its least-id splits, and, when those bring an odd set to slack 0 or
below, from the input again and once more after the tracked splits.

Witnesses follow the enumeration order of odd subsets by increasing size,
then lexicographic in universe order.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import DisjointnessViolation, TooLarge, VertexOutOfRange
from .multigraph import Multigraph

SUBSET_CAP_DEFAULT = 24

# bytes.translate table adding one to every byte value.
_PLUS_ONE = bytes(range(1, 256)) + b"\0"
# bytes.translate table from a set size to 1 for the odd sizes >= 3, else 0.
_ODD_SET = bytes(size % 2 == 1 and size >= 3 for size in range(256))
# Per bit b of a byte, the bytes.translate table from a byte to its bit b.
_BIT = [bytes(value >> b & 1 for value in range(256)) for b in range(8)]
# The typecodes of the packed ints' lanes, narrowest first, and their
# widths w in bits.  The build and every pass take the first whose lanes
# hold their values below 2^(w-2), and refuse what 32-bit lanes do not
# hold; a slack's lane adds 2^(w-2), its offset bit, which is clear
# exactly when the value without it is negative.
_CODES = "hi"
_BITS = {code: 8 * array(code).itemsize for code in "hi"}
# The table's passes walk it 2^_CHUNK_BITS masks at a time.
_CHUNK_BITS = 14


def _narrowest(top: int) -> str | None:
    """The first of _CODES whose w-bit lanes hold top below 2^(w-2), or None."""
    for code in _CODES:
        if top < 1 << (_BITS[code] - 2):
            return code
    return None


def _pack(values: array) -> int:
    """One lane per item of an array, as wide as the item, item 0 lowest."""
    if sys.byteorder == "big":
        values = array(values.typecode, values)
        values.byteswap()
    return int.from_bytes(values, "little")


def _unpack(packed: int, count: int, code: str = "i") -> array:
    """The lowest count lanes of a packed int as an array of the typecode,
    as wide as its item; every lane must be below 2^(w-1) and every higher
    lane 0."""
    values = array(code)
    values.frombytes(packed.to_bytes(values.itemsize * count, "little"))
    if sys.byteorder == "big":
        values.byteswap()
    return values


def _byte_lanes(data: bytes, w: int) -> int:
    """One w-bit lane per byte of data, holding the byte's value."""
    lanes = bytearray(w // 8 * len(data))
    lanes[:: w // 8] = data
    return int.from_bytes(lanes, "little")


def _doubled(base: int, weights: Sequence[int], w: int) -> int:
    """w-bit lanes over the subsets S of range(len(weights)), lane S holding
    base plus the weights in S: each weight doubles the lanes, adding itself
    to the new upper half.  Every lane must stay in [0, 2^(w-1))."""
    packed, ones = base, 1
    for j, weight in enumerate(weights):
        shift = w << j
        packed |= (packed + weight * ones if weight else packed) << shift
        ones |= ones << shift
    return packed


def _flagged(items: Sequence[int], flags: int, w: int, bit: int) -> list[int]:
    """The items whose w-bit lane in flags has the given bit set; every
    other bit of the flags must be clear.  The cost grows with the number
    found."""
    if not flags:
        return []
    step = w // 8
    lanes = flags.to_bytes(step * len(items), "little")[bit // 8::step]
    flag = bytes([1 << bit % 8])
    found = []
    at = lanes.find(flag)
    while at >= 0:
        found.append(items[at])
        at = lanes.find(flag, at + 1)
    return found


def _first(a: int, b: int) -> int:
    """Of two masks of one size, the lexicographically first: it holds the lowest XOR bit."""
    return a if (a ^ b) & -(a ^ b) & a else b


@lru_cache(maxsize=None)
def _start_sets(n: int) -> tuple[tuple[itemgetter, int], ...]:
    """For the 3-sets of n >= 3 bits, and for the largest odd sets, an
    itemgetter of their masks that always returns a tuple, and |U|+1."""
    full = (1 << n) - 1
    largest = [full] if n % 2 else [full ^ (1 << i) for i in range(n)]
    triples = [1 << i | 1 << j | 1 << l for i, j, l in combinations(range(n), 3)]
    # A lone mask is asked for twice: itemgetter of one item is no tuple.
    return tuple(
        (itemgetter(*masks, *masks[:1]), masks[0].bit_count() + 1)
        for masks in (triples, largest)
    )


@lru_cache(maxsize=None)
def _chunk_lanes(low: int, high: int, w: int) -> tuple[int, int, int]:
    """The constant w-bit lanes of a chunk of 2^low masks whose high part
    has ``high`` bits: the repunit, |U|+1 for each mask's set U, and bit
    w-2 (the flag bit) set in the lanes of the odd sets of size >= 3."""
    sizes = bytearray([high])
    for _ in range(low):
        sizes += sizes.translate(_PLUS_ONE)
    return (
        _byte_lanes(b"\1" * len(sizes), w),
        _byte_lanes(sizes.translate(_PLUS_ONE), w),
        _byte_lanes(sizes.translate(_ODD_SET), w) << (w - 2),
    )


@dataclass(frozen=True)
class OddSetCertificate:
    """An odd vertex set with its incident-edge count and exact ratio."""

    vertices: tuple[int, ...]
    e_plus: int
    ratio: Fraction

    @property
    def size(self) -> int:
        return len(self.vertices)

    def as_set(self) -> frozenset[int]:
        return frozenset(self.vertices)


@dataclass(frozen=True)
class GuptaBound:
    """Minimum degree, exact co-density (None means +infinity), and
    k = min(delta - 1, floor(co-density)) clamped below at 0."""

    delta: int
    codensity: Fraction | None
    k: int


class OddSetTable:
    """e+(U) for every subset U of a fixed universe, distinct vertices of
    the graph it counts (``graph``), kept by bitmask, with the cap it was
    built under, and from that count the ``degrees`` (universe order) and
    ``max_multiplicity``."""

    def __init__(
        self, g: Multigraph, universe: Sequence[int], *, cap: int = SUBSET_CAP_DEFAULT
    ):
        try:
            size = len(universe)
        except OverflowError:  # a range of 2^63 or more vertices
            size = (universe[-1] - universe[0]) // universe.step + 1
        if size > cap:
            raise TooLarge(f"odd-subset enumeration over {size} vertices exceeds cap {cap}")
        self._code = code = _narrowest(len(g.edges))
        if code is None:
            raise TooLarge(
                f"{len(g.edges)} edges do not fit the {_BITS['i']}-bit counts of the odd-set table"
            )
        universe = tuple(universe)
        for v in universe:
            if not 0 <= v < g.vertex_count:
                raise VertexOutOfRange(f"universe vertex {v} out of range for n={g.vertex_count}")
        if len(set(universe)) < size:
            raise ValueError(f"universe {universe} repeats a vertex")
        w = _BITS[code]
        self.graph, self.universe, self.cap = g, universe, cap
        n = len(self.universe)
        self._position = {v: i for i, v in enumerate(self.universe)}
        degree = [0] * n
        mult = [[0] * n for _ in range(n)]
        for e in g.edges:
            i = self._position.get(e.u)
            j = self._position.get(e.v)
            if i is not None:
                degree[i] += 1
            if j is not None:
                degree[j] += 1
                if i is not None:
                    mult[i][j] += 1
                    mult[j][i] += 1
        # One w-bit lane per subset of a packed int, bit 0 of the mask
        # lowest.  Every lane stays in [0, 2^(w-2)), so no operation below
        # borrows or carries between lanes.
        packed = 0
        for i in range(n):
            # deg(i) - mult(i, S) in lane S, over the subsets S of the bits
            # below i.
            row = _doubled(degree[i], [-m for m in mult[i][:i]], w) + packed
            packed |= row << (w << i)
            del row
        self.degrees, self.max_multiplicity = degree, max(map(max, mult), default=0)
        self.e_plus = _unpack(packed, 1 << n, code)
        self._packed = packed if n <= _CHUNK_BITS else None
        self._codensity: tuple[Fraction | None, OddSetCertificate | None, list[int]] | None = None
        self._bounds: dict[int, tuple[bool, list[int]]] = {}

    def _positions(self, mask: int) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.universe)) if mask >> i & 1)

    def _certificate(self, mask: int, vertices: tuple[int, ...]) -> OddSetCertificate:
        count = self.e_plus[mask]
        return OddSetCertificate(vertices, count, Fraction(2 * count, len(vertices) + 1))

    def _chunks(self, code: str) -> Iterator[tuple[range, int, int, int, int]]:
        """Per chunk of 2^_CHUNK_BITS masks, in increasing order: its masks,
        their counts packed one per lane of the typecode's width, and the
        chunk's repunit, widths |U|+1 and odd-set flags (``_chunk_lanes``)."""
        n = len(self.universe)
        low = min(n, _CHUNK_BITS)
        size = 1 << low
        kept = self._packed if low == n and code == self._code else None
        for start in range(0, 1 << n, size):
            packed = kept
            if packed is None:
                counts = self.e_plus[start:start + size]
                packed = _pack(counts if counts.typecode == code else array(code, counts))
            high = (start >> low).bit_count()
            yield range(start, start + size), packed, *_chunk_lanes(low, high, _BITS[code])

    def _ratio_pass(self) -> tuple[Fraction | None, OddSetCertificate | None, list[int]]:
        """The co-density, its witness and every minimizer, in increasing
        order.  The best 3-set's or largest odd set's ratio a/b is at least
        the co-density, and every set at ratio a/b or below has slack 0 or
        below at k = ceil(a/b): the least ratio among the sets selected
        there, with no splits, is the co-density."""
        n = len(self.universe)
        if n < 3:
            return None, None, []
        e_plus = self.e_plus
        a = b = 0
        for counts, width in _start_sets(n):
            twice = 2 * min(counts(e_plus))
            if not b or twice * b < a * width:
                a, b = twice, width
        kept: list[int] = []
        for mask in self.select(-(-a // b), [0] * n):
            twice, width = 2 * e_plus[mask], mask.bit_count() + 1
            if twice * b < a * width:
                a, b, kept = twice, width, [mask]
            elif twice * b == a * width:
                kept.append(mask)
        least = min(mask.bit_count() for mask in kept)
        mask = reduce(_first, (m for m in kept if m.bit_count() == least))
        witness = self._certificate(mask, tuple(self.universe[i] for i in self._positions(mask)))
        return witness.ratio, witness, kept

    def codensity(self) -> tuple[Fraction | None, OddSetCertificate | None]:
        """Minimum of e+(U) / ((|U|+1)/2) over odd U of size >= 3, with the
        first minimizer in (size, lexicographic) order as witness."""
        if self._codensity is None:
            self._codensity = self._ratio_pass()
        value, witness, _ = self._codensity
        return value, witness

    def _fit(self, k: int, splits: Sequence[int]) -> str:
        """The typecode of the narrowest lanes that hold the pass at k with
        the planned splits (see ``_lanes``)."""
        n = len(self.universe)
        # Every lane of the pass is 2^(w-2) plus at most k(n+1) + 2D(V),
        # less at most twice the largest count.
        code = _narrowest(k * (n + 1) + 2 * sum(splits) + 2 * self.e_plus[-1])
        if code is None:
            raise TooLarge(
                f"slacks of the odd sets over {n} vertices at k = {k} do not fit "
                f"{_BITS['i']}-bit lanes"
            )
        return code

    def _lanes(self, k: int, splits: Sequence[int]) -> Iterator[tuple[range, int, int, int, int]]:
        """The table's one pass, on the w-bit lanes that ``_fit`` picks: per
        chunk, its masks, their lanes 2^(w-2) + k(|U|+1) + 2D(U) - 2e+(U)
        (2D of each mask's low part doubled like the build, and of the
        chunk's high part), its repunit and odd-set flags, and w.  Bit w-2
        is set when 2e+(U) <= k(|U|+1) + 2D(U)."""
        code = self._fit(k, splits)
        n, w = len(self.universe), _BITS[code]
        low = min(n, _CHUNK_BITS)
        drops = [2 * made for made in splits]
        planned = _doubled(0, drops[:low], w) if any(drops) else 0
        for chunk, counts, ones, widths, odd in self._chunks(code):
            high = chunk.start >> low
            spent = sum(drop for i, drop in enumerate(drops[low:]) if high >> i & 1)
            over = ((1 << (w - 2)) + spent) * ones + k * widths + planned - (counts << 1)
            yield chunk, over, ones, odd, w

    def select(self, k: int, splits: Sequence[int]) -> array:
        """Masks of the odd sets of size >= 3 that ``_lanes`` flags, in
        increasing order, D(U) summing ``splits[i]`` over U's bits i."""
        masks = array("i")
        for chunk, over, _, odd, w in self._lanes(k, splits):
            masks.extend(_flagged(chunk, over & odd, w, w - 2))
        return masks

    def _at(self, k: int) -> tuple[bool, list[int]]:
        """Whether some odd set has negative slack, and the masks of those
        at slack 0 in increasing order: read off the cached co-density for a
        k up to it, else cached per k from the sets that ``select`` picks
        with no splits, those at slack 0 or below."""
        if self._codensity is not None:
            value, _, minimizers = self._codensity
            if value is None or k <= value:
                return False, minimizers if k == value else []
        if k not in self._bounds:
            picked = self.select(k, [0] * len(self.universe))
            tight = [mask for mask in picked if self.slack(mask, k) == 0]
            self._bounds[k] = len(tight) < len(picked), tight
        return self._bounds[k]

    def below(self, k: int) -> bool:
        """Whether some odd set of size >= 3 has slack below 0, that is,
        whether k is above the co-density."""
        return self._at(k)[0]

    def tight_sets(self, k: int) -> list[int]:
        """Masks of the odd sets of size >= 3 with slack 0 (the optimal
        sets), in increasing order."""
        return list(self._at(k)[1])

    def _sorted_vertices(self, mask: int) -> tuple[int, ...]:
        return tuple(sorted(self.universe[i] for i in self._positions(mask)))

    def least_containing(self, x: int, tight: Iterable[int]) -> int | None:
        """The unique least of the tight masks that hold x, or None; two of
        that size raise DisjointnessViolation naming the first two in
        (size, lexicographic) order."""
        bit = 1 << self._position[x] if x in self._position else 0
        mine = [mask for mask in tight if mask & bit]
        if not mine:
            return None
        size = min(map(int.bit_count, mine))
        least = [mask for mask in mine if mask.bit_count() == size]
        if len(least) > 1:
            first = reduce(_first, least)
            second = reduce(_first, (mask for mask in least if mask != first))
            raise DisjointnessViolation(
                f"two minimum optimal sets of size {size} contain vertex {x}: "
                f"{self._sorted_vertices(first)} and {self._sorted_vertices(second)}"
            )
        return least[0]

    def slack(self, mask: int, k: int) -> int:
        """2e+(U) - k(|U|+1) for the set U of the mask."""
        return 2 * self.e_plus[mask] - k * (mask.bit_count() + 1)

    def recount(self, g: Multigraph) -> None:
        """Count the table again from g, such as the graph after splits, and
        make g its graph.  The stale counts go first, so that the build does
        not peak with them alive, and the cached answers go with them."""
        del self.e_plus, self._packed
        vars(self).update(vars(OddSetTable(g, self.universe, cap=self.cap)))


class SplitCandidates:
    """The odd sets that a planned run of splits can bring to slack 0 or
    below, with their slacks kept split by split.  ``regularize`` selects
    them only when its least-id splits brought some odd set there, and
    reads the tight sets and the bound off them (``tight``, ``below``).

    ``splits[i]`` is the number of splits planned at the universe's i-th
    vertex, and D(U) their sum over U.  A split lowers a slack by 0 or 2,
    so the candidates are the odd sets that ``OddSetTable.select`` picks,
    at most 2D(U) above slack 0: no other odd set reaches 0 during the run.
    When the plan takes every vertex down to degree k+1 (D(U) = sum of
    deg - (k+1)), the test reads 2e_in(U) >= (k+2)|U| - k, and the
    candidates are the dense sets.

    The candidates' slacks, each plus 2^(w-2), are w-bit lanes of one int
    in increasing mask order, w the selection's lane width, and every
    vertex of the universe has a membership int with a 1 in the lanes of
    the candidates that contain it.  A split subtracts 2 from the lanes of
    x's membership that are not in y's.  Every lane stays in [0, 2^(w-1)),
    which the selection checks before anything is packed.
    """

    def __init__(self, table: OddSetTable, k: int, splits: Sequence[int]):
        self._code = table._fit(k, splits)
        self._w = w = _BITS[self._code]
        self._masks = masks = table.select(k, splits)
        self._position = table._position
        ones = _byte_lanes(b"\1" * len(masks), w)
        # Bit i of each mask, read off its byte i // 8: from n = 16 on the
        # masks do not fit 16-bit lanes.
        step = masks.itemsize
        raw = _pack(masks).to_bytes(step * len(masks), "little")
        self._member = [
            _byte_lanes(raw[i // 8::step].translate(_BIT[i % 8]), w)
            for i in range(len(table.universe))
        ]
        # 2^(w-2) - k(|U|+1) per candidate; a lane is this plus 2e+(U).
        self._base = ((1 << (w - 2)) - k) * ones - k * sum(self._member)
        self._lanes = self._slack_lanes(table)
        self._offsets = (1 << (w - 2)) * ones
        # Added to a lane below 2^(w-1), sets its top bit unless it is 0.
        self._to_top = ((1 << (w - 1)) - 1) * ones

    def _slack_lanes(self, table: OddSetTable) -> int:
        counts = _pack(array(self._code, map(table.e_plus.__getitem__, self._masks)))
        return (counts << 1) + self._base

    @property
    def slacks(self) -> dict[int, int]:
        """Each candidate's mask with its current slack."""
        lanes = _unpack(self._lanes, len(self._masks), self._code)
        offset = 1 << (self._w - 2)
        return dict(zip(self._masks, (lane - offset for lane in lanes)))

    def split(self, x: int, y: int) -> tuple[bool, list[int]]:
        """Account for ``split_off`` moving edge (x, y) off x, one of the
        planned splits: the candidates that contain x and miss y (a y
        outside the universe is missed by every set) lose 2 slack.  Returns
        whether one of them is now below 0, and the masks of those now at
        exactly 0, in increasing order."""
        touched = self._member[self._position[x]]
        if y in self._position:
            touched &= ~self._member[self._position[y]]
        self._lanes -= touched << 1
        return self._below(touched), self._tight(touched)

    def tight(self) -> list[int]:
        """The masks of the candidates now at slack 0, in increasing order.
        Before the first split these are all the odd sets at slack 0: D(U)
        >= 0, so every set at slack 0 or below is a candidate."""
        return self._tight(self._offsets >> (self._w - 2))

    def below(self) -> bool:
        """Whether some candidate's slack is now below 0; before the first
        split, whether some odd set's is, as for ``tight``."""
        return self._below(self._offsets >> (self._w - 2))

    def _below(self, among: int) -> bool:
        # A lane's offset bit is clear exactly when its slack is negative.
        return (self._lanes >> (self._w - 2)) & among != among

    def _tight(self, among: int) -> list[int]:
        # XOR leaves 0 in the lanes at slack 0, and the addition then sets
        # the top bit of every other lane.
        w = self._w
        zero = among & ~(((self._lanes ^ self._offsets) + self._to_top) >> (w - 1))
        return _flagged(self._masks, zero, w, 0)

    def end_splits(self) -> None:
        """Drop what only ``split`` reads, the membership ints above all,
        so that a rebuild after the last split peaks without them; no split
        may follow."""
        self._member = self._offsets = self._to_top = None

    def agrees_with(self, table: OddSetTable) -> bool:
        """Whether every candidate's tracked slack equals its slack in
        ``table``, a table over the same universe (such as one rebuilt
        after the splits)."""
        return self._lanes == self._slack_lanes(table)


def codensity(
    g: Multigraph,
    *,
    restrict_to: Sequence[int] | None = None,
    cap: int = SUBSET_CAP_DEFAULT,
) -> tuple[Fraction | None, OddSetCertificate | None]:
    """Minimum of e+(U) / ((|U|+1)/2) over odd U of size >= 3.

    Returns (None, None) when no admissible set exists.  The witness is the
    first minimizer in (size, lexicographic) enumeration order.
    """
    universe = g.vertices() if restrict_to is None else restrict_to
    return OddSetTable(g, universe, cap=cap).codensity()


def gupta_bound(
    g: Multigraph,
    *,
    cap: int = SUBSET_CAP_DEFAULT,
    table: OddSetTable | None = None,
) -> GuptaBound:
    """delta, co-density, and k = min(delta - 1, floor(co-density)), k >= 0.

    Both are read off g's table over all of its vertices, ``table`` when
    given, else one built under ``cap``: delta is its least degree."""
    if table is None:
        table = OddSetTable(g, g.vertices(), cap=cap)
    value, _ = table.codensity()
    delta = min(table.degrees, default=0)
    if value is None:
        k = delta - 1
    else:
        k = min(delta - 1, int(value))  # int() floors a non-negative Fraction
    return GuptaBound(delta=delta, codensity=value, k=max(k, 0))


def min_optimal_containing(
    g: Multigraph,
    x: int,
    k: int,
    *,
    restrict_to: Sequence[int] | None = None,
    cap: int = SUBSET_CAP_DEFAULT,
) -> OddSetCertificate | None:
    """The unique minimum-size optimal set containing x, or None.

    Uniqueness at the minimum size is a structural guarantee when k is the
    graph's actual bound; a tie raises DisjointnessViolation rather than
    picking one arbitrarily.  ``decompose`` does not call it (``puncture``
    reads ``all_min_optimal_sets``); it stays only as a layer of the
    benchmark's tracer and as a reference for the tests.
    """
    universe = g.vertices() if restrict_to is None else restrict_to
    table = OddSetTable(g, universe, cap=cap)
    mask = table.least_containing(x, table.tight_sets(k))
    return None if mask is None else table._certificate(mask, table._sorted_vertices(mask))


def all_min_optimal_sets(
    g: Multigraph,
    k: int,
    restrict_to: Sequence[int],
    *,
    cap: int = SUBSET_CAP_DEFAULT,
    table: OddSetTable | None = None,
) -> list[OddSetCertificate]:
    """Inclusion-minimal optimal sets within the given universe.

    Collects the minimum optimal set containing x over the universe and
    keeps the sets that contain no smaller collected set.  Optimal sets can
    nest (a tight set inside a larger tight set), but every optimal set
    contains an inclusion-minimal one, and the inclusion-minimal ones are
    pairwise vertex-disjoint; that disjointness is checked, not assumed.
    ``table``, when given, is g's table over the sorted universe and is read
    instead of building one.

    One pass over the tight masks by size collects them: a mask is the
    least set of its vertices that no smaller mask claimed, and a vertex
    that two masks of its least size claim is a tie, which raises
    DisjointnessViolation as a walk over the vertices in order would.
    """
    universe = tuple(sorted(set(restrict_to)))
    if table is None:
        table = OddSetTable(g, universe, cap=cap)
    tight = table.tight_sets(k)
    # claimed: the vertices of smaller masks; at_size: of this size's so far.
    claimed = at_size = tie = size = 0
    fresh: dict[int, int] = {}  # mask -> the vertices it is the least set of
    for mask in sorted(tight, key=int.bit_count):
        if mask.bit_count() != size:
            size = mask.bit_count()
            claimed |= at_size
            at_size = 0
        new = mask & ~claimed
        tie |= new & at_size
        at_size |= new
        if new:
            fresh[mask] = new
    if tie:
        # Ask for the first tied vertex's least set, only to raise its error.
        table.least_containing(table.universe[(tie & -tie).bit_length() - 1], tight)
    # In the order of the least vertex each mask is the least set of.
    collected = sorted(fresh, key=lambda mask: fresh[mask] & -fresh[mask])
    minimal = [a for a in collected if not any(b != a and b & a == b for b in collected)]
    for i, a in enumerate(minimal):
        for b in minimal[i + 1:]:
            if a & b:
                raise DisjointnessViolation(
                    f"optimal sets {table._sorted_vertices(a)} and "
                    f"{table._sorted_vertices(b)} share {list(table._sorted_vertices(a & b))}"
                )
    certs = [table._certificate(mask, table._sorted_vertices(mask)) for mask in minimal]
    certs.sort(key=lambda c: (c.size, c.vertices))
    return certs
