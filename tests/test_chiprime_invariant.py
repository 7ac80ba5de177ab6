"""Why chi-prime always has a (k+2)-edge-coloring to find.

After ``regularize`` every original vertex has degree k+1, and every odd
set U of three or more vertices has an even slack 2e+(U) - k(|U|+1) >= 0.
Since e+(U) is the degree sum of U less e(U), that reads
2e(U) = (k+2)(|U|-1) + 2 - slack, so only the tight sets (slack 0) hold
more than (k+2)(|U|-1)/2 edges.  Every tight set contains an
inclusion-minimal one, and ``puncture`` deletes an edge inside each of
those.  The punctured core therefore has maximum degree at most k+1 and
Gamma = max 2e(U)/(|U|-1) over odd U with |U| >= 3 at most k+2, and the
Goldberg-Seymour bound, chi' <= max(Delta+1, ceil(Gamma)), proved by
Chen, Jing and Zang (arXiv:1901.10316), gives chi' <= k+2.

Gamma and the degrees are computed here by brute force over the core's
edges, sharing no code with ``covdex.density``.  The 52 cores below take
about half a second.
"""

from covdex import CovdexError
from covdex.decomposer import puncture, regularize
from covdex.density import OddSetTable, gupta_bound
from covdex.multigraph import induced_subgraph
from covdex.oracle import FuzzConfig, random_multigraph
from test_output_digests import planted_five_block, planted_two_triangles

# (n, max multiplicity, edge probability), ten seeds each.
FUZZ_SETS = [(8, 2, 0.93), (12, 2, 0.8), (10, 3, 0.9), (11, 3, 0.9), (12, 3, 0.8)]


def chi_prime_core(g):
    """k and the punctured core that chi-prime colors, or None when the
    pipeline stops before chi-prime."""
    table = OddSetTable(g, g.vertices())
    k = gupta_bound(g, table=table).k
    if k <= 0:
        return None
    try:
        regularize(table, k)
        h1, _ = puncture(table, k)
    except CovdexError:
        return None
    return k, induced_subgraph(h1, range(g.vertex_count))


def max_degree(core):
    degree = [0] * core.vertex_count
    for e in core.edges:
        degree[e.u] += 1
        degree[e.v] += 1
    return max(degree, default=0)


def densest_odd_set(core):
    """Gamma as the pair (2e(U), |U|-1) of a densest odd U with |U| >= 3."""
    pairs = {}
    for e in core.edges:
        mask = 1 << e.u | 1 << e.v
        pairs[mask] = pairs.get(mask, 0) + 1
    best = (0, 1)
    for u in range(1 << core.vertex_count):
        size = bin(u).count("1")
        if size < 3 or size % 2 == 0:
            continue
        inside = sum(count for mask, count in pairs.items() if u & mask == mask)
        if 2 * inside * best[1] > best[0] * (size - 1):
            best = (2 * inside, size - 1)
    return best


def graphs():
    yield planted_two_triangles()
    yield planted_five_block()
    for n, mu, p in FUZZ_SETS:
        for seed in range(10):
            yield random_multigraph(
                FuzzConfig(n=n, max_multiplicity=mu, edge_probability=p, seed=seed)
            )


def test_every_chi_prime_core_meets_the_goldberg_seymour_bound():
    cores = at_gamma = at_delta = 0
    for g in graphs():
        found = chi_prime_core(g)
        if found is None:
            continue
        k, core = found
        twice_inside, width = densest_odd_set(core)
        gamma_ceiling = -(-twice_inside // width)
        assert gamma_ceiling <= k + 2, (g, k, twice_inside, width)
        assert max_degree(core) <= k + 1, (g, k)
        cores += 1
        at_gamma += gamma_ceiling == k + 2
        at_delta += max_degree(core) == k + 1
    # The bound is met with equality on many cores, so it is not vacuous.
    assert cores >= 40 and at_gamma >= 20 and at_delta >= 20
