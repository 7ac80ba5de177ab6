"""Pinned output bytes of ``decompose`` and ``covdex decompose --dump-on-fail``.

Each digest is the sha256 of the canonical JSON of ``to_dict()``
(``sort_keys``, compact separators), so any change to a payload, to the
failure report or to its state dump shows here.  A change to how
``decompose`` records its run (stage names, spans, counters, dump
artifacts) must leave every digest as it is.
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


PINNED = [
    (two_doubled_triangles, "ea82a30947ebc681be7ab4ed85b1528ed198750d5a6f5cb9a1bd47fc43e7fb9b"),
    (nested_optimal, "87d91c253e628a7f5d6ec10cfb5efb1ef817e4608736e4e42d25077affd01684"),
    (lambda: fuzz_graph(155), "33906b723f2be885745b0f7598c0478932b356e5a58b96483cd4f4e04351d611"),
    (lambda: fuzz_graph(323), "a9b9c4bea2603c9acee57ff1d1a66db64d13a281265b23d2f0b0bb3f1d004855"),
    (outside_hypotheses, "d87ea4f678c6d52e3ce1dc9eb22311de128bb77f563e45f5bd44d1889c5b3448"),
]

DUMP_155 = "70f9526d5cfaa2cfa4f8d5218827fb587af68c6cc66d51185c16c0914bd02b45"


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
