"""The exhaustive walk's suffix tables, ``own`` and ``lift``, against pair sums over labelings."""

import random
from itertools import combinations

import numpy as np
import pytest
from conftest import HUGE_SHAPES, huge_weights

from maxkop import solvers


def _walk_shape(k: int, m: int) -> tuple[int, int]:
    """The suffix length s and prefix length p that the walk picks for k levels and m vertices."""
    s = 1
    while s < m and k ** (s + 1) <= solvers._BLOCK:
        s += 1
    return s, m - s


# every (k, s, p) the walk picks for m <= 12 and k <= 5 (k <= m), plus k = 2 at m = 14
SHAPES = sorted(
    {(k, *_walk_shape(k, m)) for m in range(1, 13) for k in range(1, min(m, 5) + 1)}
    | {(2, *_walk_shape(2, 14))}
)


def _weights(kind: str, m: int, unordered: bool, rng: random.Random) -> np.ndarray:
    """Cut weights (symmetric, nonnegative) or ordered ones (antisymmetric), as walks read them."""
    pairs = list(combinations(range(m), 2))
    if kind == "huge":
        weights = huge_weights(rng.choice(HUGE_SHAPES), pairs, rng, nonnegative=unordered)
    else:
        low = 0 if unordered else -(2**40)
        weights = {pair: 0 if kind == "zero" else rng.randint(low, 2**40) for pair in pairs}
    w = np.zeros((m, m), object)
    for (i, j), x in weights.items():
        w[i, j], w[j, i] = x, x if unordered else -x
    return w if kind == "huge" else w.astype(np.int64)


def _reference(w: np.ndarray, k: int, s: int, p: int, h: int, unordered: bool):
    """``own`` over suffix labelings and ``lift`` per half, as pair sums in Python ints.

    Each pair term is ``step[l, c]`` of the walk, the levels read from its ``digits``.
    """
    digits, step = solvers._digits(k, s), solvers._step(k, unordered)
    wx, step = w.astype(object), step.astype(object)
    own = np.zeros(k**s, object)
    for i, j in combinations(range(s), 2):
        own += wx[p + i, p + j] * step[digits[i], digits[j]]
    width = k ** (s - h)
    lift = []
    for cols, d in ((range(h), digits[:h, ::width]), (range(h, s), digits[h:, :width])):
        half = np.zeros((k, p, d.shape[1]), object)
        for l in range(k):
            for i in range(p):
                for n, j in enumerate(cols):
                    half[l, i] += wx[i, p + j] * step[l, d[n]]
        lift.append(half)
    return own, lift


@pytest.mark.parametrize("kind", ["int64", "zero", "huge"])
@pytest.mark.parametrize("unordered", [False, True])
def test_suffix_tables_match_a_pair_sum(kind, unordered):
    # past 2**62 both the exact tables and those of the rounded int64 weights are checked
    rng = random.Random(f"{kind}-{unordered}")
    for k, s, p in SHAPES:
        w = _weights(kind, s + p, unordered, rng)
        # a full suffix (as every suffix after a prefix is) splits in halves; a short one is a tail
        h = s // 2 if k ** (s + 1) > solvers._BLOCK else 0
        assert p == 0 or h == s // 2
        for x in [w, solvers._walk_weights(w)[0]] if kind == "huge" else [w]:
            lift, own = solvers._suffix_tables(x, p, k, s, unordered)
            want_own, want_lift = _reference(x, k, s, p, h, unordered)
            assert own.shape == (k**h, k ** (s - h)) and own.dtype == x.dtype, (k, s, p)
            assert own.ravel().tolist() == want_own.tolist(), (k, s, p)
            if not p:
                assert lift is None
                continue
            for got, want in zip(lift, want_lift):
                assert got.dtype == x.dtype and got.tolist() == want.tolist(), (k, s, p)
