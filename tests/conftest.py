import itertools

import pytest

from covdex import build


def k3():
    return build(3, [(0, 1), (1, 2), (0, 2)])


def k4():
    return build(4, list(itertools.combinations(range(4), 2)))


def k5():
    return build(5, list(itertools.combinations(range(5), 2)))


def c5():
    return build(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


def digon():
    return build(2, [(0, 1), (0, 1)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build(10, outer + spokes + inner)


def doubled_triangle():
    # Triangle with every edge doubled: delta=4, co-density 3, k=3, and the
    # whole vertex set is an optimal set (one punctured block downstream).
    return build(3, [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)])


def nested_optimal():
    # Two optimal sets, one inside the other: {2,3,4} is tight and so is the
    # full vertex set (k=5, mu=5, so the small-k hypothesis holds).
    return build(
        5,
        [(2, 3)] * 3 + [(2, 4)] * 3 + [(3, 4)] * 2 + [(3, 0)] + [(4, 1)] + [(0, 1)] * 5,
    )


@pytest.fixture(name="k3")
def k3_fixture():
    return k3()


@pytest.fixture(name="k4")
def k4_fixture():
    return k4()


@pytest.fixture(name="c5")
def c5_fixture():
    return c5()


@pytest.fixture(name="digon")
def digon_fixture():
    return digon()


@pytest.fixture(name="petersen")
def petersen_fixture():
    return petersen()


# (chunk bits, lane typecodes) for the lane tests: chunks of 14, 2 and 3
# bits on the narrowest lanes that hold each pass (16 bits on their
# graphs), then the same chunks with 32-bit lanes forced by leaving only
# array('i') among the typecodes the passes may pick.
CHUNKS_AND_LANES = [
    *(pytest.param(bits, "hi", id=str(bits)) for bits in (14, 2, 3)),
    *(pytest.param(bits, "i", id=f"{bits}-32bit") for bits in (14, 2, 3)),
]
