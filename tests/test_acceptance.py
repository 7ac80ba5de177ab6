"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from conftest import c5, k3, k4, k5, petersen
from covdex import (
    CoverDecomposition,
    Potentials,
    brute_codensity,
    brute_cover_index,
    build,
    chain,
    codensity,
    decompose,
    find_coloring,
    make_block,
    gupta_bound,
    is_proper,
    is_s_dense,
    kempe_swap,
    potentials,
    random_multigraph,
    special_coloring,
    verify_decomposition,
    write_graph,
)
from covdex.cli import main as cli_main
from covdex.coloring import EdgeColoring
from covdex.oracle import FuzzConfig
from reference import color_class, is_connected, missing

INF = float("inf")


def announce(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


def run_decompose_and_verify(g):
    result = decompose(g)
    assert isinstance(result, CoverDecomposition), getattr(result, "message", result)
    verdict = verify_decomposition(g, [sorted(c) for c in result.covers])
    assert verdict.ok, verdict.problems
    return result


def test_criterion_1_end_to_end_multiplicity_hypothesis():
    started = time.monotonic()
    done = 0
    seed = 1_000_000
    while done < 1000:
        n = 3 + seed % 5  # n in [3, 7]
        g = random_multigraph(
            FuzzConfig(n=n, max_multiplicity=2, edge_probability=0.55, seed=seed)
        )
        seed += 1
        if not g.edges or not is_connected(g):
            continue
        assert g.max_multiplicity() <= 2
        run_decompose_and_verify(g)
        done += 1
    elapsed = time.monotonic() - started
    assert elapsed < 600, f"took {elapsed:.0f}s"
    announce(1, f"1000/1000 connected mu<=2 instances decomposed and verified in {elapsed:.1f}s")


def test_criterion_2_end_to_end_small_k_hypothesis():
    done = 0
    seed = 2_000_000
    while done < 500:
        n = 3 + seed % 4  # n in [3, 6]
        g = random_multigraph(
            FuzzConfig(n=n, max_multiplicity=3, edge_probability=0.6, seed=seed)
        )
        seed += 1
        if not g.edges:
            continue
        if gupta_bound(g).k > 6:
            continue
        run_decompose_and_verify(g)
        done += 1
    announce(2, "500/500 mu<=3 instances with k<=6 decomposed and verified")


def test_criterion_3_sandwich_bounds():
    done = 0
    seed = 3_000_000
    while done < 300:
        n = 4 + seed % 4
        g = random_multigraph(
            FuzzConfig(n=n, max_multiplicity=2, edge_probability=0.5, seed=seed)
        )
        seed += 1
        if len(g.edges) > 14:
            continue
        b = gupta_bound(g)
        xi = brute_cover_index(g)
        upper = b.delta if b.codensity is None else min(b.delta, int(b.codensity))
        assert b.k <= xi <= upper, (b.k, xi, upper, seed - 1)
        done += 1
    announce(3, "300/300 instances satisfy k <= xi <= min(delta, floor(co-density))")


def test_criterion_4_named_instances():
    g = c5()
    assert codensity(g)[0] == Fraction(5, 3)
    assert gupta_bound(g).k == 1
    assert brute_cover_index(g) == 1

    g = k3()
    assert codensity(g)[0] == Fraction(3, 2)
    b = gupta_bound(g)
    assert b.k == 1
    xi = brute_cover_index(g)
    # Oracle-derived: two disjoint covers of a triangle would need four
    # edges, so xi is 1; this is also forced by xi <= floor(3/2).
    assert xi == 1
    assert b.k <= xi <= min(b.delta, 1)

    g = k4()
    assert codensity(g)[0] == Fraction(3)
    assert gupta_bound(g).k == 2
    assert brute_cover_index(g) == 3

    g = petersen()
    assert brute_cover_index(g) == 2
    assert gupta_bound(g).k <= 2
    result = run_decompose_and_verify(g)
    assert result.k == 2 and len(result.covers) == 2
    announce(4, "C5, K3, K4, Petersen all match oracle-derived exact values")


def test_criterion_5_codensity_oracle_agreement():
    for seed in range(5_000_000, 5_001_000):
        n = 3 + seed % 8  # n in [3, 10]
        g = random_multigraph(FuzzConfig(n=n, max_multiplicity=2, seed=seed))
        assert brute_codensity(g) == codensity(g)[0], seed
    announce(5, "1000/1000 instances: independent co-density recount agrees")


def test_criterion_6_special_coloring_suite():
    rng = random.Random(6_000_000)
    done = 0
    while done < 200:
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
        base = find_coloring(g, k + 2, 500_000)
        if base is None:
            continue
        perm = list(range(1, k + 3))
        rng.shuffle(perm)
        pmap = {i + 1: perm[i] for i in range(k + 2)}
        initial = EdgeColoring(k + 2, {e: pmap[c] for e, c in base.assignment.items()})
        start = potentials(g, initial, k, S)
        out, events = special_coloring(g, k, S, initial=initial)
        assert potentials(g, out, k, S) == Potentials(0, 0)
        assert is_proper(g, out)
        prev = (start.exposed, start.bridges, INF)
        for e in events:
            i = e["index"] if e["move"] == "linked-swap" else INF
            now = (e["exposed"], e["bridges"], i)
            assert now < prev, (prev, now, e)
            prev = now
        done += 1
    announce(6, "200/200 instances reach potentials (0,0) with strictly decreasing steps")


def test_criterion_7_dense_block_suite():
    def check(g, s):
        coloring = make_block(g, g.vertices(), 0, 1, s, initial=find_coloring(g, s)).coloring
        half = (g.vertex_count - 1) // 2
        for c in range(1, s + 1):
            assert len(color_class(coloring, c)) == half
        miss = [missing(coloring, g, v) for v in g.vertices()]
        for a, b in itertools.combinations(range(g.vertex_count), 2):
            assert not (miss[a] & miss[b])
        for v in g.vertices():
            assert len(miss[v]) == s - g.degree(v)

    check(k3(), 3)
    check(k5(), 5)
    rng = random.Random(7_000_000)
    for _ in range(50):
        n = rng.choice([5, 7, 9])
        s = rng.randint(2, 5)
        pairs = []
        for _ in range(s):
            verts = list(range(n))
            rng.shuffle(verts)
            verts.pop()
            pairs.extend((verts[i], verts[i + 1]) for i in range(0, n - 1, 2))
        g = build(n, pairs)
        assert is_s_dense(g) == s
        assert find_coloring(g, s) is not None  # chromatic index is s
        check(g, s)
    announce(7, "K3, K5, and 50 fuzzed dense graphs: near-perfect classes, disjoint missing sets")


def test_criterion_8_kempe_property_suite():
    rng = random.Random(8_000_000)
    swaps = 0
    while swaps < 10_000:
        g = random_multigraph(
            FuzzConfig(n=rng.randint(4, 8), max_multiplicity=2,
                       edge_probability=0.6, seed=rng.randrange(10**9))
        )
        if not g.edges:
            continue
        m = g.max_degree() + 2
        coloring = find_coloring(g, m)
        for _ in range(25):
            v = rng.randrange(g.vertex_count)
            a, b = rng.sample(range(1, m + 1), 2)
            ch = chain(coloring, g, v, a, b)
            swapped = kempe_swap(coloring, ch)
            assert is_proper(g, swapped)
            assert kempe_swap(swapped, ch).assignment == coloring.assignment
            coloring = swapped  # keep walking the coloring space
            swaps += 1
            if swaps == 10_000:
                break
    announce(8, "10000/10000 swaps preserve properness and invert cleanly")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    k4_path = tmp_path / "k4.graph"
    write_graph(k4(), str(k4_path))
    c5_path = tmp_path / "c5.graph"
    write_graph(c5(), str(c5_path))
    covers_path = tmp_path / "covers.json"
    cli_main(["decompose", str(c5_path), "--json", str(covers_path)])
    capsys.readouterr()

    commands = [
        ["codensity", str(k4_path)],
        ["bound", str(k4_path)],
        ["color", str(k4_path), "-m", "4"],
        ["decompose", str(c5_path)],
        ["xi", str(k4_path)],
        ["verify", str(c5_path), str(covers_path)],
        ["fuzz", "--n", "5", "--count", "25", "--seed", "123"],
    ]
    for argv in commands:
        cli_main(list(argv))
        first = capsys.readouterr().out
        cli_main(list(argv))
        second = capsys.readouterr().out
        assert first and first == second, argv
    announce(9, "all seven subcommands produce byte-identical JSON across runs")
