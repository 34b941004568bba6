"""The bounded exhaustive walk that ``solve`` runs, against the unbounded one and by its bound."""

import random
import tracemalloc
from contextlib import nullcontext
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from conftest import HUGE_SHAPES, huge_weights
from hypothesis import given, settings
from hypothesis import strategies as st

from maxkop import WeightedTournament, cli, solve, solve_bruteforce, solvers
from maxkop.formats import format_tournament
from maxkop.reductions import CutInstance, build_hg
from maxkop.solvers import _walk_levels

# (k, m): every walk leaves a prefix; k = 3 at m = 9 and k = 2 at m = 14 have fewer
# than _BOUND_ROWS rows and skip the bound, the others are bounded
SHAPES = [(2, 14), (2, 16), (3, 9), (3, 10), (3, 11), (4, 7), (4, 8)]
KINDS = ("random", "unit", "zero", "hg", "huge")


def _tournament(rng: random.Random, kind: str, m: int, gadget_edges=(2, 3, 4)):
    if kind == "hg":  # the gadget of a 4-vertex graph, on 4 + 2 * edges vertices: many ties
        edges = rng.sample(list(combinations("abcd", 2)), rng.choice(gadget_edges))
        g = CutInstance(tuple("abcd"), {e: rng.randint(1, 3) for e in edges})
        return build_hg(g).tournament
    vertices = tuple(f"v{i}" for i in range(m))
    pairs = list(combinations(vertices, 2))
    if kind == "huge":
        return WeightedTournament(vertices, huge_weights(rng.choice(HUGE_SHAPES), pairs, rng))
    draw = {
        "random": lambda: rng.randint(-9, 9),
        "unit": lambda: rng.choice([-1, 1]),
        "zero": lambda: 0,
    }[kind]
    return WeightedTournament(vertices, {pair: draw() for pair in pairs})


def _walk_setup(w: np.ndarray, k: int):
    """The bounded walk's tables for ordered partitions, as ``_walk_levels`` builds them."""
    m = len(w)
    s = 1
    while s < m and k ** (s + 1) <= solvers._BLOCK:
        s += 1
    p = m - s
    step = solvers._step(k, False)
    w64, _ = solvers._walk_weights(w)
    lift, own = solvers._suffix_tables(w64, p, k, s, False)
    labels = solvers._prefix_labels(np.arange(k**p), k, p, False)
    rows = solvers._row_terms(labels, lift, w64, step)
    return w64, step, rows, own.max(1), own.max(0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32), shape=st.sampled_from([(2, 14), (3, 10), (3, 11), (4, 8)]),
       kind=st.sampled_from(["random", "unit", "hg", "huge"]))
def test_row_bound_is_at_least_every_score_of_its_row(seed, shape, kind):
    # every level vector scored on the walk's (possibly rounded) int64 weights, row by row
    k, m = shape
    rng = random.Random(seed)
    t = _tournament(rng, kind, m, gadget_edges=(2, 3))
    k, m = (3, t.m) if kind == "hg" else (k, m)
    w64, step, rows, heads, tails = _walk_setup(t.integer_form.w, k)
    vectors = np.arange(k**m)
    levels = [vectors // k ** (m - 1 - i) % k for i in range(m)]  # row-major: prefix rows first
    scores = np.zeros(k**m, np.int64)
    for i, j in combinations(range(m), 2):
        scores += w64[i, j] * step[levels[i], levels[j]]
    row_max = scores.reshape(len(rows[0]), -1).max(1)
    assert (solvers._row_bounds(rows, heads, tails) >= row_max).all()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), shape=st.sampled_from(SHAPES), kind=st.sampled_from(KINDS),
       exact_k=st.booleans(), chunk=st.sampled_from([None, 3000, 200]))
def test_bounded_walk_matches_the_unbounded_oracle(seed, shape, kind, exact_k, chunk):
    # optimum, every kept witness in order, truncated and exact_k, at three caps; a small
    # _CHUNK splits the rows into several bounded blocks and chunks
    k, m = shape
    rng = random.Random(seed)
    t = _tournament(rng, kind, m)
    k = 3 if kind == "hg" else k
    patch = nullcontext() if chunk is None else mock.patch.object(solvers, "_CHUNK", chunk)
    with patch:
        for cap in (1, 3, 10_000):
            args = dict(all_ties=True, exact_k=exact_k, witness_cap=cap)
            got = solvers._run_route(t, "walk", k, guard=10**8, bound=True, **args)
            want = solve_bruteforce(t, k, **args)
            assert (got.optimum, got.table.tolist(), got.truncated) == (
                want.optimum, want.table.tolist(), want.truncated,
            )
        one = solvers._run_route(t, "walk", k, exact_k=exact_k, guard=10**8, bound=True,
                                 all_ties=False, witness_cap=1)
        assert one.table.tolist() == solve_bruteforce(t, k, exact_k=exact_k).table.tolist()
        w = t.integer_form.w
        assert _walk_levels(w, k, exact_k, 1, unordered=False, bound=True)[1] == _walk_levels(
            w, k, exact_k, 1, unordered=False
        )[1]  # the full tie count, past the cap


def test_solve_runs_the_bounded_walk_and_skips_rows(monkeypatch):
    # the m = 12 hg gadget of the benchmark's shape: most of its 243 prefix rows never score
    g = CutInstance(tuple("abcd"), {("a", "b"): 5, ("a", "c"): 2, ("b", "d"): 7, ("c", "d"): 3})
    t = build_hg(g).tournament
    assert solvers._route(t, 3, False) == ("walk", 3**12)
    scored = []
    row_scores = solvers._row_scores
    monkeypatch.setattr(solvers, "_row_scores", lambda rows, *a: scored.append(len(rows[0]))
                        or row_scores(rows, *a))
    got = solve(t, 3, all_ties=True)
    assert 0 < sum(scored) < 3**5 // 2
    scored.clear()
    want = solve_bruteforce(t, 3, all_ties=True)
    assert sum(scored) == 3**5  # the oracle scores every row
    assert (got.optimum, got.table.tolist()) == (want.optimum, want.table.tolist())


@pytest.mark.parametrize("m, k", [(16, 3), (22, 2), (12, 4)])
def test_bounded_walk_memory_is_bounded_by_its_blocks(m, k):
    # a block's terms and bounds are dropped before the next block: k**(m - s) rows of terms
    # would take several MiB here
    rng = np.random.default_rng(m * k)
    w = np.triu(rng.integers(-50, 51, (m, m)), 1)
    w -= w.T
    _walk_levels(w, k, False, 1, unordered=False, bound=True)  # the cached tables are built here
    tracemalloc.start()
    try:
        _walk_levels(w, k, False, 1, unordered=False, bound=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def _dense(m: int, seed: int) -> WeightedTournament:
    rng = random.Random(seed)
    vertices = tuple(f"t{i}" for i in range(m))
    weights = {
        pair: Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.choice((1, 2, 3, 4, 6)))
        for pair in combinations(vertices, 2)
    }
    return WeightedTournament(vertices, weights)


def _hg12() -> WeightedTournament:
    g = CutInstance(tuple("abcd"), {("a", "b"): 4, ("b", "c"): 9, ("c", "d"): 1, ("a", "d"): 6})
    return build_hg(g).tournament


@pytest.mark.parametrize("make", [lambda: _dense(11, 3), _hg12], ids=["dense-m11", "hg-m12"])
def test_cli_prints_what_the_oracle_prints(capsys, monkeypatch, tmp_path, make):
    t = make()
    path = tmp_path / "t.txt"
    path.write_text(format_tournament(t))
    assert solvers._route(t, 3, False)[0] == "walk"
    optimum = solve_bruteforce(t, 3).optimum
    commands = [
        ["solve", "--k", "3"],
        ["solve", "--k", "3", "--all-ties"],
        ["solve", "--k", "3", "--exact-k", "--all-ties"],
        ["decide", "--k", "3", "--threshold", str(optimum)],
        ["decide", "--k", "3", "--threshold", str(optimum + Fraction(1, 12))],
    ]

    def printed():
        out = []
        for argv in commands:
            assert cli.main([*argv, str(path)]) == 0
            out.append(capsys.readouterr().out)
        return out

    bounded = printed()
    oracle = lambda t, k, *, guard, **kw: solve_bruteforce(t, k, guard=guard, **kw)  # noqa: E731
    monkeypatch.setattr(cli, "solve", oracle)
    monkeypatch.setattr(solvers, "solve", oracle)  # the one decide calls
    assert printed() == bounded
    assert bounded[3] == "decision true\n" and bounded[4] == "decision false\n"
