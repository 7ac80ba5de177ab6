"""Seeded corpora for the three benchmark workloads.

Every generator here is the benchmark's own: inputs depend only on the
workload seed, never on code under ``src/``, so a change to the program
cannot change what it is measured on.  The program receives each input
as a ``Multigraph`` built by ``covdex.multigraph.build``.

Why these workloads (each stresses a different layer of ``decompose``):

* ``regularize-sparse``: random mu<=2 graphs, n=10, p=0.5, minimum degree
  6.  ``regularize`` splits 30 edges off per instance and re-runs
  ``codensity`` after every split, so odd-set enumeration is nearly all
  of the time; certify and the block path are nearly idle.
* ``certify-dense``: random mu<=2 graphs, n=8, m=52, minimum degree 11,
  colour budget 5000.  About 20% of these instances exhaust the budget
  whatever its size (1e3 to 2e4 nodes were tried), and the exact solver
  (``find_coloring``) is most of their time; the rest need far fewer
  nodes.  At m=50 the capped share was 35 to 45%, close enough to half
  that the median instance switched between solved and capped from seed
  to seed; at m=52 it stays near 20% (40 to 43 of 200 on four seeds), so
  the median is a solved instance and the tail a capped one.
* ``planted-blocks``: (k+1)-regular graphs with planted tight odd blocks,
  the only corpus on which contraction, special colouring, the dense lift
  and augmentation run on every instance.

Within a workload n, m and the minimum degree are fixed (the minimum degree
fixes k on most instances, and with it the split count and the palette),
so seeds differ in graph structure only and latency percentiles do not
jump between size groups from one seed to the next.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# Colour-search budget for certify-dense.  A capped instance then costs
# about two solved ones: the solver is most of the tail, while the
# seed-to-seed variation in the cap count stays a small share of the time.
CERTIFY_COLOR_BUDGET = 5_000


@dataclass(frozen=True)
class Instance:
    """One corpus entry: a label, the vertex count and the edge pairs."""

    label: str
    n: int
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: Callable[[int], list[Instance]]
    color_budget: int | None = None


def _rng(workload: str, seed: int, index: int, attempt: int) -> random.Random:
    # String seeds hash through SHA-512, so they are stable across runs.
    return random.Random(f"{workload}/{seed}/{index}/{attempt}")


def _connected(n: int, pairs) -> bool:
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def random_pairs(rng: random.Random, n: int, mu: int, m: int) -> list[tuple[int, int]]:
    """m edges drawn without replacement from mu parallel slots per pair."""
    slots = [(u, v) for u in range(n) for v in range(u + 1, n) for _ in range(mu)]
    return sorted(rng.sample(slots, m))


def _min_degree(n: int, pairs) -> int:
    degree = [0] * n
    for u, v in pairs:
        degree[u] += 1
        degree[v] += 1
    return min(degree)


def _random_corpus(
    name: str, shapes: list[tuple[int, int]], mu: int, p: float
) -> Callable[[int], list[Instance]]:
    """Connected graphs, one per (n, delta) shape, with m = p*mu*n(n-1)/2
    edges and minimum degree delta.  Fixing delta fixes k on most
    instances, and with it the number of splits and the palette size."""

    def corpus(seed: int) -> list[Instance]:
        out = []
        for i, (n, delta) in enumerate(shapes):
            m = round(p * mu * n * (n - 1) / 2)
            for attempt in range(10_000):
                pairs = random_pairs(_rng(name, seed, i, attempt), n, mu, m)
                if _connected(n, pairs) and _min_degree(n, pairs) == delta:
                    break
            else:
                raise RuntimeError(f"{name}: no graph for n={n}, m={m}, delta={delta}")
            out.append(Instance(f"{name}/{seed}/{i}", n, tuple(pairs)))
        return out

    return corpus


# --- planted tight blocks -------------------------------------------------

_PLANTED_MU = 3

# (k, block size, blocks, outside vertices).  A block U of odd size u in a
# (k+1)-regular graph with (k+2)(u-1)/2 + 1 internal edges has k - u
# boundary edges; contraction needs that boundary to be at most k/2.
# Size-3 blocks at k=6 (boundary exactly k/2) are left out: about half of
# them drive the exact colouring solver past 20 000 nodes, which would
# cap the instance before the block path runs.
_PLANTED_SHAPES = ((4, 3, 2, 6), (4, 3, 2, 6), (4, 3, 2, 6), (6, 5, 1, 5))


def _plant_block(rng: random.Random, verts: list[int], k: int) -> tuple[list, dict[int, int]] | None:
    """Internal edges of one tight block and the boundary degree per vertex.

    The block is k+2 near-perfect matchings plus one extra edge.  Each
    matching misses one vertex; every vertex is missed at least once and
    the extra edge's endpoints twice, so no vertex exceeds degree k+1, and
    the k - u remaining misses become boundary edges.
    """
    u = len(verts)
    a, b = rng.sample(range(u), 2)
    miss = [1] * u
    miss[a] += 1
    miss[b] += 1
    for _ in range(k - u):
        miss[rng.randrange(u)] += 1
    missed = [i for i in range(u) for _ in range(miss[i])]
    rng.shuffle(missed)
    edges = []
    for skip in missed:
        rest = [i for i in range(u) if i != skip]
        rng.shuffle(rest)
        edges.extend(zip(rest[0::2], rest[1::2]))
    edges.append((a, b))
    if max(_multiplicities(edges).values()) > _PLANTED_MU:
        return None
    boundary = {verts[i]: miss[i] - 1 - (i in (a, b)) for i in range(u)}
    return [(verts[x], verts[y]) for x, y in edges], boundary


def _multiplicities(pairs) -> dict[tuple[int, int], int]:
    counts: dict[tuple[int, int], int] = {}
    for x, y in pairs:
        key = (min(x, y), max(x, y))
        counts[key] = counts.get(key, 0) + 1
    return counts


def planted_pairs(
    rng: random.Random, k: int, size: int, blocks: int, outside: int
) -> tuple[int, list] | None:
    """A connected (k+1)-regular multigraph (mu <= 3) with planted blocks.

    Boundary stubs are paired at random with outside vertices only, so
    every planted block keeps exactly its planned internal edge count.
    Returns (n, pairs), or None when this attempt's random choices fail.
    """
    if (outside * (k + 1) + blocks * (k - size)) % 2:
        raise ValueError("odd number of edge stubs")
    n = blocks * size + outside
    pairs: list[tuple[int, int]] = []
    stubs: list[int] = []
    for start in range(0, blocks * size, size):
        planted = _plant_block(rng, list(range(start, start + size)), k)
        if planted is None:
            return None
        internal, boundary = planted
        pairs.extend(internal)
        for v, b in boundary.items():
            stubs.extend([v] * b)
    for v in range(blocks * size, n):
        stubs.extend([v] * (k + 1))
    rng.shuffle(stubs)
    in_block = blocks * size
    for x, y in zip(stubs[0::2], stubs[1::2]):
        if x == y or (x < in_block and y < in_block):
            return None
        pairs.append((min(x, y), max(x, y)))
    if max(_multiplicities(pairs).values()) > _PLANTED_MU or not _connected(n, pairs):
        return None
    return n, sorted(pairs)


def _planted_corpus(count: int) -> Callable[[int], list[Instance]]:
    name = "planted-blocks"

    def corpus(seed: int) -> list[Instance]:
        out = []
        for i in range(count):
            k, size, blocks, outside = _PLANTED_SHAPES[i % len(_PLANTED_SHAPES)]
            for attempt in range(100_000):
                made = planted_pairs(_rng(name, seed, i, attempt), k, size, blocks, outside)
                if made is not None:
                    break
            else:
                raise RuntimeError(f"{name}: no planted graph for k={k}")
            n, pairs = made
            out.append(Instance(f"{name}/{seed}/{i}", n, tuple(pairs)))
        return out

    return corpus


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "regularize-sparse", _random_corpus("regularize-sparse", [(10, 6)] * 40, 2, 0.5)
        ),
        Workload(
            "certify-dense",
            _random_corpus("certify-dense", [(8, 11)] * 200, 2, 0.93),
            color_budget=CERTIFY_COLOR_BUDGET,
        ),
        Workload("planted-blocks", _planted_corpus(160)),
    )
}
