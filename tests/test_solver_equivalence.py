"""The iterative coloring solver against the recursive search it replaced.

`reference_search` is the earlier recursive `find_coloring`, changed only to
return its node count N beside the assignment.  On every case the solver
must give the same assignment (or None) at budget N, with the same key
order, and must give up at budget N - 1: the same search tree, node for
node.
"""

import json
import random

import pytest

from conftest import petersen
from covdex import BudgetExhausted, build, find_coloring, is_proper, write_graph
from covdex.cli import main
from covdex.oracle import FuzzConfig, random_multigraph

REFERENCE_BUDGET = 200_000


def reference_search(g, m, budget):
    """(assignment or None, nodes) from the recursive search."""
    if not g.edges:
        return {}, 0
    if g.max_degree() > m:
        return None, 0

    edges = sorted(g.edges, key=lambda e: (-(g.degree(e.u) + g.degree(e.v)), e.id))
    full = (1 << m) - 1
    used = [0] * g.vertex_count
    assign = {}
    pending = list(edges)
    nodes = 0

    def select(ncolors):
        cap = (1 << min(m, ncolors + 1)) - 1
        best = None
        best_key = None
        for pos, e in enumerate(pending):
            allowed = cap & full & ~(used[e.u] | used[e.v])
            count = bin(allowed).count("1")
            key = (count, -(g.degree(e.u) + g.degree(e.v)), e.id)
            if best_key is None or key < best_key:
                best, best_key = (pos, allowed), key
                if count == 0:
                    break
        return best

    def backtrack(ncolors):
        nonlocal nodes
        if not pending:
            return True
        nodes += 1
        if nodes > budget:
            raise BudgetExhausted(f"coloring search exceeded {budget} nodes")
        pos, allowed = select(ncolors)
        if not allowed:
            return False
        e = pending.pop(pos)
        c = 1
        while allowed:
            if allowed & 1:
                bit = 1 << (c - 1)
                used[e.u] |= bit
                used[e.v] |= bit
                assign[e.id] = c
                if backtrack(max(ncolors, c)):
                    return True
                used[e.u] &= ~bit
                used[e.v] &= ~bit
                del assign[e.id]
            allowed >>= 1
            c += 1
        pending.insert(pos, e)
        return False

    if backtrack(0):
        return dict(assign), nodes
    return None, nodes


def equivalence_cases():
    rng = random.Random(20230413)
    for index in range(330):
        n = 3 + index % 7
        mu = 1 + (index // 7) % 3
        p = (0.5, 0.7)[index % 2]
        g = random_multigraph(
            FuzzConfig(
                n=n, max_multiplicity=mu, edge_probability=p, seed=rng.randrange(10**9)
            )
        )
        if not g.edges:
            continue
        delta = g.max_degree()
        for m in (delta, delta + 1, delta + 2):
            yield g, m


def same_outcome(got, expected):
    if expected is None:
        return got is None
    return got is not None and list(got.assignment.items()) == list(expected.items())


def test_same_assignment_and_node_count_as_the_recursive_search():
    checked = found = impossible = 0
    for g, m in equivalence_cases():
        try:  # cases past the reference budget are skipped
            find_coloring(g, m, budget=REFERENCE_BUDGET)
        except BudgetExhausted:
            continue
        expected, nodes = reference_search(g, m, REFERENCE_BUDGET)
        assert same_outcome(find_coloring(g, m, budget=nodes), expected), (g, m)
        with pytest.raises(BudgetExhausted):
            find_coloring(g, m, budget=nodes - 1)
        checked += 1
        if expected is None:
            impossible += 1
        else:
            found += 1
    assert checked >= 900
    assert found >= 800 and impossible >= 40


def test_petersen_needs_the_same_nodes_to_prove_impossibility():
    _, nodes = reference_search(petersen(), 3, REFERENCE_BUDGET)
    assert nodes > 1
    assert find_coloring(petersen(), 3, budget=nodes) is None
    with pytest.raises(BudgetExhausted):
        find_coloring(petersen(), 3, budget=nodes - 1)


def test_long_even_cycle_has_no_recursion_limit():
    n = 5000
    g = build(n, [(i, (i + 1) % n) for i in range(n)])
    coloring = find_coloring(g, 2)
    assert coloring is not None and is_proper(g, coloring)


def test_cli_colors_a_long_path(capsys, tmp_path):
    path = tmp_path / "path.graph"
    write_graph(build(1501, [(i, i + 1) for i in range(1500)]), str(path))
    code = main(["color", str(path), "-m", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assignment = json.loads(out)["assignment"]
    assert assignment == [2, 1] * 750


def test_palette_far_beyond_the_edge_count():
    g = build(3, [(0, 1), (1, 2), (0, 2)])
    assert dict(find_coloring(g, 10**7).assignment) == {0: 1, 1: 2, 2: 3}


def test_solver_ignores_untouched_declared_vertices():
    g = build(10**6, [(0, 1)])
    coloring = find_coloring(g, 2)
    assert coloring is not None and dict(coloring.assignment) == {0: 1}
    assert "_incidence" not in g.__dict__
    triple = build(10**6, [(0, 1), (0, 1), (0, 1)])
    assert find_coloring(triple, 2) is None  # pigeonhole
    assert "_incidence" not in triple.__dict__
