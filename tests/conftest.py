import random
from fractions import Fraction

import pytest

from maxkop import OrderedPartition, WeightedTournament


@pytest.fixture
def three_cycle() -> WeightedTournament:
    """Unit weights around a -> b -> c -> a."""
    return WeightedTournament(("a", "b", "c"), {("a", "b"): 1, ("b", "c"): 1, ("c", "a"): 1})


@pytest.fixture
def figure_one() -> tuple[WeightedTournament, OrderedPartition]:
    """Seven vertices, three levels: down arcs weigh 3+4+5, up arcs 1+3+4.

    Sideways arcs carry arbitrary nonzero weights to confirm they are ignored.
    """
    t = WeightedTournament(
        ("a", "b", "c", "d", "e", "f", "g"),
        {
            ("a", "c"): 3,
            ("a", "e"): 4,
            ("d", "f"): 5,
            ("g", "b"): 1,
            ("g", "d"): 3,
            ("c", "b"): 4,
            ("a", "b"): 2,
            ("f", "e"): 7,
        },
    )
    p = OrderedPartition.from_blocks([["a", "b"], ["c", "d"], ["e", "f", "g"]])
    return t, p


def assert_same_weights(t1: WeightedTournament, t2: WeightedTournament) -> None:
    assert t1.vertices == t2.vertices
    assert t1.weights == t2.weights


def scale_weights(t: WeightedTournament, c: Fraction) -> WeightedTournament:
    return WeightedTournament(t.vertices, {k: v * c for k, v in t.weights.items()})


def add_weights(t1: WeightedTournament, t2: WeightedTournament) -> WeightedTournament:
    assert t1.vertices == t2.vertices
    return WeightedTournament(
        t1.vertices, {k: t1.weights[k] + t2.weights[k] for k in t1.weights}
    )


HUGE_SHAPES = ("near", "ties", "powers", "halves")


def huge_weights(shape: str, pairs: list, rng: random.Random, *, nonnegative: bool = False) -> dict:
    """Integer weights past 2**62 per pair that the walk's int64 rounding cannot tell apart.

    ``near``: +-2**100 plus offsets in -3..3, far below the rounding unit;
    ``ties``: multiples of one power of two between 2**80 and 2**300, so
    exact ties abound; ``powers``: {-2**b, 0, 2**b, 2**(b+1)} plus 0 or 1;
    ``halves``: multiples of 2**100 plus half the rounding unit plus or minus
    1, so each weight rounds off by almost 1/2, up or down at random.
    ``nonnegative`` keeps every weight at least 0 (cut weights).
    """
    b = rng.choice([80, 150, 300])
    draws = {
        "near": lambda: rng.choice([-1, 1]) * 2**100 + rng.randint(-3, 3),
        "ties": lambda: rng.randint(-2, 2) << b,
        "powers": lambda: rng.choice([-(2**b), 0, 2**b, 2 ** (b + 1)]) + rng.randint(0, 1),
        "halves": lambda: rng.choice([1, 2] if nonnegative else [-1, 1]) << 100,
    }
    weights = {pair: draws[shape]() for pair in pairs}
    if nonnegative:
        weights = {pair: abs(x) for pair, x in weights.items()}
    if shape == "halves":
        m = len({v for pair in pairs for v in pair})
        e = rounding_shift(m, weights.values())
        weights = {pair: x + (1 << e - 1) + rng.choice([-1, 1]) for pair, x in weights.items()}
        assert rounding_shift(m, weights.values()) == e
    return weights


def rounding_shift(m: int, weights) -> int:
    """The least e with 2 * m * sum(abs(w / 2**e)) < 2**62, each w rounded, on both triangles."""
    e = 0
    while 4 * m * sum((abs(x) + (1 << e >> 1)) >> e for x in weights) >= 2**62:
        e += 1
    return e
