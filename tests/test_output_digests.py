"""Pinned output bytes of ``decompose`` and ``covdex decompose --dump-on-fail``.

Each digest is the sha256 of the canonical JSON of ``to_dict()``
(``sort_keys``, compact separators), so any change to a payload, to the
failure report or to its state dump shows here.  A change to how
``decompose`` records its run (stage names, spans, counters, dump
artifacts) must leave every digest as it is.  Two more digests pin the
stdout bytes of ``covdex decompose`` on random graphs at n = 20 and 22,
whose tables span 64 and 256 chunks.
"""

import hashlib
import json

import pytest

from conftest import nested_optimal
from covdex import build, decompose, write_graph
from covdex.cli import main
from covdex.decomposer import FailureReport
from covdex.oracle import FuzzConfig, random_multigraph


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical_digest(result) -> str:
    text = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return sha256(text.encode())


def two_doubled_triangles():
    pairs = [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)]
    pairs += [(3, 4), (3, 4), (4, 5), (4, 5), (3, 5), (3, 5)]
    return build(6, pairs)


def fuzz_graph(seed):
    return random_multigraph(
        FuzzConfig(n=6, max_multiplicity=4, edge_probability=0.6, seed=seed)
    )


def outside_hypotheses():
    return random_multigraph(
        FuzzConfig(n=5, max_multiplicity=5, edge_probability=0.7, seed=200000)
    )


def planted_two_triangles():
    # planted-blocks seed 1, instance 0: 4-regular (k = 4) on 12 vertices
    # with two planted 3-blocks.
    return build(12, [
        (0, 1), (0, 2), (0, 8), (1, 0), (1, 2), (1, 2), (2, 0), (2, 1), (3, 4), (3, 5),
        (3, 5), (3, 8), (4, 3), (4, 5), (5, 4), (5, 4), (6, 8), (6, 9), (6, 9), (6, 10),
        (6, 11), (7, 8), (7, 9), (7, 10), (7, 11), (7, 11), (8, 9), (9, 10), (10, 11),
        (10, 11),
    ])


def planted_five_block():
    # planted-blocks seed 1, instance 3: 6-regular (k = 6) on 10 vertices
    # with one planted 5-block; the other five vertices are tight as well,
    # so the block path runs on two 5-blocks.
    return build(10, [
        (0, 2), (0, 4), (0, 4), (1, 0), (1, 0), (1, 3), (2, 1), (2, 1), (2, 1), (2, 3),
        (2, 3), (2, 7), (3, 0), (3, 4), (4, 0), (4, 1), (4, 3), (4, 3), (5, 6), (5, 6),
        (5, 7), (5, 8), (5, 8), (5, 9), (5, 9), (6, 7), (6, 8), (6, 8), (6, 9), (6, 9),
        (7, 8), (7, 8), (7, 9), (7, 9), (8, 9),
    ])


PINNED = [
    (two_doubled_triangles, "ea82a30947ebc681be7ab4ed85b1528ed198750d5a6f5cb9a1bd47fc43e7fb9b"),
    (nested_optimal, "87d91c253e628a7f5d6ec10cfb5efb1ef817e4608736e4e42d25077affd01684"),
    (lambda: fuzz_graph(155), "33906b723f2be885745b0f7598c0478932b356e5a58b96483cd4f4e04351d611"),
    (lambda: fuzz_graph(323), "a9b9c4bea2603c9acee57ff1d1a66db64d13a281265b23d2f0b0bb3f1d004855"),
    (outside_hypotheses, "d87ea4f678c6d52e3ce1dc9eb22311de128bb77f563e45f5bd44d1889c5b3448"),
    (planted_two_triangles, "8b26bb3963675e7817ae55124ff48c5a030a508c6a802c39c1e394f1abcd4f51"),
    (planted_five_block, "44891d7f1e3c019042248eca3c74e4d2b755d30fe656f8af688cbcecea51aca4"),
]

DUMP_155 = "70f9526d5cfaa2cfa4f8d5218827fb587af68c6cc66d51185c16c0914bd02b45"

# stdout of ``covdex decompose`` on FuzzConfig(n, 2, 0.5, seed=0).
DECOMPOSE_STDOUT = [
    (20, "cbd76e42b83429061cb3f5a5d703acbe806b837fd12161a635eab4a13ab4183a"),
    (22, "207c9ba9a52652ca5fe847f9e544ccbe2661d9adf5b99626ae053c3f836b3c53"),
]


@pytest.mark.parametrize("maker,digest", PINNED)
def test_decompose_output_digest(maker, digest):
    assert canonical_digest(decompose(maker())) == digest


@pytest.mark.parametrize("seed", [155, 323])
def test_pinned_fuzz_failures_carry_their_state(seed):
    result = decompose(fuzz_graph(seed))
    assert isinstance(result, FailureReport)
    assert result.stage == "special-coloring"
    assert result.state is not None


def test_dump_on_fail_file_digest(capsys, tmp_path):
    path = tmp_path / "seed155.graph"
    write_graph(fuzz_graph(155), str(path))
    dump_dir = tmp_path / "dumps"
    code = main(["decompose", str(path), "--dump-on-fail", str(dump_dir)])
    capsys.readouterr()
    assert code == 4
    (dump,) = dump_dir.iterdir()
    assert sha256(dump.read_bytes()) == DUMP_155


@pytest.mark.parametrize("n,digest", DECOMPOSE_STDOUT, ids=["20", "22"])
def test_decompose_stdout_digest_past_one_chunk(capsys, tmp_path, n, digest):
    path = tmp_path / f"fuzz{n}.graph"
    g = random_multigraph(FuzzConfig(n=n, max_multiplicity=2, edge_probability=0.5, seed=0))
    write_graph(g, str(path))
    code = main(["decompose", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert sha256(out.encode()) == digest
