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
subset, as wide as an ``array('i')`` item: a step is a few shifts, adds
and ORs of whole ints instead of a Python loop over its 2^i values, and
no lane borrows or carries, because every value stays in [0, 2^(w-1)) for
w-bit lanes.  The int is then unpacked into the ``array('i')``.  The table
keeps 5 * 2^n bytes (4 for e+, 1 for the set size), 80 MB at the default
cap of 24 vertices; while it is built, the packed int and its temporaries
take about three times that.  The cap guards runtime and memory, not
correctness, and is checked before anything is allocated.

One scan over the table finds the minimum e+ of each odd size and the
masks that reach it, and the table keeps that answer.  ``codensity`` and
``min_slack`` read the minima, the witness is the first minimizer, and
the tight sets for a k are the minimizers of the sizes whose minimum has
slack 0, as long as no odd set has negative slack (otherwise
``tight_sets`` scans every mask).

For a given k, a set's integer slack is 2e+(U) - k(|U|+1): an odd set is
optimal exactly when its slack is 0, and k <= co-density exactly when no
odd set has negative slack.  Splitting edge (x, y) off x lowers e+ by one
on exactly the sets that contain x and miss y, so it lowers their slack,
which is always even, by 2, and leaves every other slack alone.  A set U
therefore loses at most 2D(U), where D(U) counts the splits made at U's
own vertices, and only a set whose slack starts at most 2D(U) can reach 0
or drop below it.  ``SplitCandidates`` collects those sets in one pass
over the table and keeps their slacks split by split; when every vertex
is split down to degree k+1 they are exactly the dense sets, with at
least (k+2)(|U|-1)/2 + 1 internal edges.  ``decompose`` builds one table,
reads the bound from it, lets ``regularize`` check its splits over the
candidates, and reads the optimal sets for the puncture from the table
that ``regularize`` rebuilt from the final graph.

Witnesses follow the enumeration order of odd subsets by increasing size,
then lexicographic in universe order.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import BadSet, DisjointnessViolation, TooLarge
from .multigraph import Multigraph

SUBSET_CAP_DEFAULT = 24

# bytes.translate table adding one to every byte value.
_PLUS_ONE = bytes(range(1, 256)) + b"\0"
# Bits per e+ count in the table's array('i').
_LANE = 8 * array("i").itemsize
# Above every e+ value an array('i') can hold.
_NO_SET = 1 << (_LANE - 1)


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


def _check_cap(size: int, cap: int) -> None:
    if size > cap:
        raise TooLarge(f"odd-subset enumeration over {size} vertices exceeds cap {cap}")


class OddSetTable:
    """e+(U) for every subset U of a fixed universe, kept by bitmask."""

    def __init__(
        self, g: Multigraph, universe: Sequence[int], *, cap: int = SUBSET_CAP_DEFAULT
    ):
        _check_cap(len(universe), cap)
        if len(g.edges) >= 1 << (_LANE - 2):
            raise TooLarge(
                f"{len(g.edges)} edges do not fit the {_LANE}-bit counts of the odd-set table"
            )
        self.universe = tuple(universe)
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
        # One lane per subset of a packed int, bit 0 of the mask lowest.
        # Every lane stays in [0, 2^(_LANE-1)), so no operation below
        # borrows or carries between lanes.
        packed = 0
        sizes = bytearray(1)
        for i in range(n):
            # row holds deg(i) - mult(i, S) in lane S, over the subsets S
            # of the bits below i; ones is the repunit over row's lanes.
            row, ones = degree[i], 1
            for j, m in enumerate(mult[i][:i]):
                shift = _LANE << j
                row |= (row - m * ones if m else row) << shift
                ones |= ones << shift
            del ones
            row += packed
            packed |= row << (_LANE << i)
            del row
            sizes += sizes.translate(_PLUS_ONE)
        data = packed.to_bytes(_LANE // 8 << n, "little")
        del packed
        e_plus = array("i")
        e_plus.frombytes(data)
        if sys.byteorder == "big":
            e_plus.byteswap()
        self.e_plus = e_plus
        self.sizes = sizes
        self._minima: tuple[list[int], list[list[int]]] | None = None

    def _positions(self, mask: int) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.universe)) if mask >> i & 1)

    def _certificate(self, mask: int, vertices: tuple[int, ...]) -> OddSetCertificate:
        count = self.e_plus[mask]
        return OddSetCertificate(vertices, count, Fraction(2 * count, len(vertices) + 1))

    def _size_minima(self) -> tuple[list[int], list[list[int]]]:
        """The minimum e+ per odd size s >= 3 and the masks, in increasing
        order, that reach it, from one scan cached on the table.  The
        other sizes read -1 with no masks."""
        if self._minima is None:
            n = len(self.universe)
            # -1 is below every count, so the scan skips those sizes.
            lowest = [-1] * (n + 1)
            for s in range(3, n + 1, 2):
                lowest[s] = _NO_SET
            reach: list[list[int]] = [[] for _ in range(n + 1)]
            for mask, count, size in zip(range(len(self.e_plus)), self.e_plus, self.sizes):
                if count <= lowest[size]:
                    if count < lowest[size]:
                        lowest[size] = count
                        reach[size] = [mask]
                    else:
                        reach[size].append(mask)
            self._minima = lowest, reach
        return self._minima

    def min_slack(self, k: int) -> int | None:
        """Minimum of 2e+(U) - k(|U|+1) over odd U of size >= 3, or None
        when the universe has no such set."""
        lowest, _ = self._size_minima()
        return min(
            (2 * lowest[s] - k * (s + 1) for s in range(3, len(self.universe) + 1, 2)),
            default=None,
        )

    def codensity(self) -> tuple[Fraction | None, OddSetCertificate | None]:
        """Minimum of e+(U) / ((|U|+1)/2) over odd U of size >= 3, with the
        first minimizer in (size, lexicographic) order as witness."""
        lowest, reach = self._size_minima()
        best: int | None = None
        for s in range(3, len(self.universe) + 1, 2):
            # e(s)/(s+1) < e(best)/(best+1), cross-multiplied.
            if best is None or lowest[s] * (best + 1) < lowest[best] * (s + 1):
                best = s
        if best is None:
            return None, None
        mask = min(reach[best], key=self._positions)
        witness = self._certificate(
            mask, tuple(self.universe[i] for i in self._positions(mask))
        )
        return witness.ratio, witness

    def _need(self, k: int) -> list[int]:
        """e+ at slack 0 per set size: k(s+1)/2 for the odd sizes s >= 3,
        and for the sizes that are never odd sets -2^(_LANE-1), which is
        below every count, also less any split count of an array('i')."""
        need = [-_NO_SET] * (len(self.universe) + 1)
        for s in range(3, len(self.universe) + 1, 2):
            need[s] = k * (s + 1) // 2
        return need

    def tight_sets(self, k: int) -> list[int]:
        """Masks of the odd sets of size >= 3 with slack 0 (the optimal
        sets), in increasing order."""
        need = self._need(k)
        lowest, reach = self._size_minima()
        if all(low >= want for low, want in zip(lowest, need)):
            # No odd set is below the bound, so the tight sets of a size
            # are its minimizers when the minimum is exactly tight.
            return sorted(
                mask
                for low, want, masks in zip(lowest, need, reach)
                if low == want
                for mask in masks
            )
        return [
            mask
            for mask, (count, size) in enumerate(zip(self.e_plus, self.sizes))
            if count == need[size]
        ]

    def min_containing(self, x: int, tight: list[int]) -> OddSetCertificate | None:
        """The unique minimum-size set among the tight masks that contains
        x, or None; a tie raises DisjointnessViolation."""
        if x not in self._position:
            return None
        bit = 1 << self._position[x]
        mine = [mask for mask in tight if mask & bit]
        if not mine:
            return None
        size = min(self.sizes[mask] for mask in mine)
        found = sorted((m for m in mine if self.sizes[m] == size), key=self._positions)
        vertices = [
            tuple(sorted(self.universe[i] for i in self._positions(m))) for m in found[:2]
        ]
        if len(found) > 1:
            raise DisjointnessViolation(
                f"two minimum optimal sets of size {size} contain vertex {x}: "
                f"{vertices[0]} and {vertices[1]}"
            )
        return self._certificate(found[0], vertices[0])

    def slack(self, mask: int, k: int) -> int:
        """2e+(U) - k(|U|+1) for the set U of the mask."""
        return 2 * self.e_plus[mask] - k * (self.sizes[mask] + 1)

    def adopt(self, other: OddSetTable) -> None:
        """Take over the counts and the cached scan of a table over the
        same universe, such as one rebuilt after the graph changed."""
        if other.universe != self.universe:
            raise ValueError("tables over different universes")
        self.e_plus = other.e_plus
        self._minima = other._minima


class SplitCandidates:
    """The odd sets that a planned run of splits can bring to slack 0 or
    below, with their slacks kept split by split.

    ``splits[i]`` is the number of splits planned at the universe's i-th
    vertex, and D(U) their sum over U.  Splitting edge (x, y) off x lowers
    the slack of exactly the sets that contain x and miss y, by 2, so a
    set loses at most 2D(U) over the whole run.  The candidates are the odd
    sets of size >= 3 whose slack in ``table`` is at most 2D(U): no other
    odd set reaches slack 0 at any point of the run.  When the plan takes
    every vertex down to degree k+1 (D(U) = sum of deg - (k+1)), the test
    reads 2e_in(U) >= (k+2)|U| - k, and the candidates are the dense sets.
    """

    def __init__(self, table: OddSetTable, k: int, splits: Sequence[int]):
        # D(U) for every mask, doubled one vertex at a time.
        planned = array("i", [0])
        for made in splits:
            planned += array("i", map(made.__add__, planned)) if made else planned
        need = table._need(k)
        # slack <= 2D(U) is e+(U) - D(U) <= k(|U|+1)/2.
        self.slacks = {
            mask: 2 * count - k * (size + 1)
            for mask, count, size, spent in zip(
                range(len(table.e_plus)), table.e_plus, table.sizes, planned
            )
            if count - spent <= need[size]
        }
        del planned
        self._position = table._position
        # Per vertex, the candidates it belongs to; no split happens at a
        # vertex with none planned.
        self._containing = [
            [mask for mask in self.slacks if mask >> i & 1] if made else []
            for i, made in enumerate(splits)
        ]

    def split(self, x: int, y: int) -> tuple[bool, list[int]]:
        """Account for ``split_off`` moving edge (x, y) off x, one of the
        planned splits: the candidates that contain x and miss y (a y
        outside the universe is missed by every set) lose 2 slack.  Returns
        whether one of them is now below 0, and the masks of those now at
        exactly 0."""
        y_bit = 1 << self._position[y] if y in self._position else 0
        slacks = self.slacks
        dropped = False
        tight = []
        for mask in self._containing[self._position[x]]:
            if not mask & y_bit:
                slack = slacks[mask] - 2
                slacks[mask] = slack
                if slack <= 0:
                    if slack:
                        dropped = True
                    else:
                        tight.append(mask)
        return dropped, tight


def e_plus(g: Multigraph, vertex_set: Iterable[int]) -> int:
    """Number of edges incident to at least one vertex of the set."""
    inside = set(vertex_set)
    return sum(1 for e in g.edges if e.u in inside or e.v in inside)


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

    ``table``, when given, is g's table over all of its vertices and is
    read instead of building one."""
    _check_cap(g.vertex_count, cap)
    delta = g.min_degree()
    if table is None:
        table = OddSetTable(g, g.vertices(), cap=cap)
    value, _ = table.codensity()
    if value is None:
        k = delta - 1
    else:
        k = min(delta - 1, int(value))  # int() floors a non-negative Fraction
    return GuptaBound(delta=delta, codensity=value, k=max(k, 0))


def is_optimal(g: Multigraph, vertex_set: Iterable[int], k: int) -> bool:
    """True iff e+(U) equals k * (|U|+1) / 2 exactly."""
    subset = sorted(set(vertex_set))
    if len(subset) < 3 or len(subset) % 2 == 0:
        raise BadSet(f"need an odd set of size >= 3, got {len(subset)} vertices")
    return e_plus(g, subset) == k * (len(subset) + 1) // 2


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
    picking one arbitrarily.
    """
    universe = g.vertices() if restrict_to is None else restrict_to
    table = OddSetTable(g, universe, cap=cap)
    return table.min_containing(x, table.tight_sets(k))


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
    """
    universe = tuple(sorted(set(restrict_to)))
    if table is None:
        table = OddSetTable(g, universe, cap=cap)
    tight = table.tight_sets(k)
    collected: list[OddSetCertificate] = []
    seen: set[frozenset[int]] = set()
    for x in universe:
        cert = table.min_containing(x, tight)
        if cert is None or cert.as_set() in seen:
            continue
        seen.add(cert.as_set())
        collected.append(cert)
    certs = [
        a
        for a in collected
        if not any(b.as_set() < a.as_set() for b in collected)
    ]
    for i, a in enumerate(certs):
        for b in certs[i + 1:]:
            overlap = a.as_set() & b.as_set()
            if overlap:
                raise DisjointnessViolation(
                    f"optimal sets {a.vertices} and {b.vertices} share {sorted(overlap)}"
                )
    certs.sort(key=lambda c: (c.size, c.vertices))
    return certs
