import gc
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, islice, product

import numpy as np
import pytest

from conftest import HUGE_SHAPES, add_weights, huge_weights, rounding_shift, scale_weights
from maxkop import (
    CutInstance,
    GuardExceededError,
    OrderedPartition,
    Profile,
    WeakOrder,
    WeightedTournament,
    aggregate,
    aggregate_rule,
    basic_cycle,
    borda_score,
    check_club_identity,
    check_transitive_gadget,
    check_tricut_identity,
    decide,
    partition_score,
    solve,
    solve_2op,
    solve_acyclic_dp,
    solve_bruteforce,
    solve_cut_bruteforce,
    solve_subset_dp,
)
from maxkop import solvers
from maxkop.selftest import random_acyclic_tournament, random_tournament, run_selftest
from maxkop.solvers import (
    _BLOCK,
    _CHUNK,
    _canonical_walk,
    _digits,
    _levels,
    _route,
    _step,
    _subset_cells,
    _walk_levels,
    _walk_mask,
    _walk_weights,
)


def levels_key(t, p):
    level = p.level_of()
    return tuple(level[v] for v in t.vertices)


def witness_set(t, res):
    return {levels_key(t, w) for w in res.witnesses}


def test_bruteforce_three_cycle(three_cycle):
    res = solve_bruteforce(three_cycle, 3, all_ties=True)
    assert res.optimum == 1
    assert not res.truncated
    # the three cyclic linear orders tie
    assert witness_set(three_cycle, res) == {(0, 1, 2), (2, 0, 1), (1, 2, 0)}
    assert res.witnesses[0].blocks == (
        frozenset({"a"}),
        frozenset({"b"}),
        frozenset({"c"}),
    )


def test_bruteforce_zero_weights_all_tie():
    t = WeightedTournament.zeros(("a", "b"))
    res = solve_bruteforce(t, 2, all_ties=True)
    assert res.optimum == 0
    assert witness_set(t, res) == {(0, 0), (0, 1), (1, 0)}


def test_bruteforce_single_arc():
    t = WeightedTournament(("a", "b"), {("a", "b"): 4})
    res = solve_bruteforce(t, 2)
    assert res.optimum == 4
    assert res.witnesses == (OrderedPartition.from_blocks([["a"], ["b"]]),)


def test_bruteforce_guard():
    t = WeightedTournament.zeros(tuple("abcdefgh"))
    message = "^exhaustive walk: 6561 level vectors exceed the guard of 100$"
    with pytest.raises(GuardExceededError, match=message):
        solve_bruteforce(t, 3, guard=100)


def test_bruteforce_exact_k():
    t = WeightedTournament(("a", "b", "c"), {("a", "b"): 2, ("a", "c"): 3, ("b", "c"): 1})
    relaxed = solve_bruteforce(t, 3, all_ties=True)
    exact = solve_bruteforce(t, 3, all_ties=True, exact_k=True)
    assert exact.optimum == relaxed.optimum == 6
    assert all(len(w.blocks) == 3 for w in exact.witnesses)
    with pytest.raises(ValueError):
        solve_bruteforce(t, 4, exact_k=True)


def test_bruteforce_single_vertex():
    t = WeightedTournament(("a",), {})
    res = solve_bruteforce(t, 3, all_ties=True)
    assert res.optimum == 0
    assert res.witnesses == (OrderedPartition.from_blocks([["a"]]),)


def test_bruteforce_witness_cap_truncation():
    t = WeightedTournament.zeros(tuple("abcd"))
    res = solve_bruteforce(t, 3, all_ties=True, witness_cap=5)
    assert res.truncated
    assert len(res.witnesses) == 5
    full = solve_bruteforce(t, 3, all_ties=True)
    assert not full.truncated
    # every ordered partition of 4 vertices into at most 3 blocks ties at 0
    assert len(full.witnesses) == 1 + 14 + 36


def test_python_walk_matches_compiled():
    rng = random.Random(31)
    for _ in range(15):
        t = random_tournament(rng, rng.randint(2, 5))
        k = rng.randint(1, 4)
        fast = solve_bruteforce(t, k, all_ties=True)
        slow_weights = {
            pair: w * Fraction(1, 2**70) for pair, w in t.weights.items()
        }
        slow_t = WeightedTournament(t.vertices, slow_weights)
        slow = solve_bruteforce(slow_t, k, all_ties=True)
        assert slow.optimum == fast.optimum * Fraction(1, 2**70)
        assert witness_set(t, fast) == witness_set(slow_t, slow)


def test_python_walk_flag_forced(three_cycle):
    # scaled magnitudes past 2**62 force the walk onto unbounded Python ints
    big = scale_weights(three_cycle, Fraction(2**63))
    res = solve_bruteforce(big, 3, all_ties=True)
    assert res.optimum == 2**63
    assert witness_set(three_cycle, res) == {(0, 1, 2), (2, 0, 1), (1, 2, 0)}


def enumerate_optima(t, k, exact_k):
    """Optimum and every optimal level vector in lexicographic order, by scoring
    each ordered partition with partition_score."""
    best, wins = None, []
    for lv in product(range(k), repeat=t.m):
        used = set(lv)
        if used != set(range(len(used))) or (exact_k and len(used) != k):
            continue
        blocks = [[v for v, b in zip(t.vertices, lv) if b == c] for c in range(len(used))]
        score = partition_score(t, OrderedPartition.from_blocks(blocks))
        if best is None or score > best:
            best, wins = score, []
        if score == best:
            wins.append(lv)
    return best, wins


@pytest.mark.parametrize(
    "m, k, exact_k, cap, scale",
    [
        (8, 3, False, 3, 1),
        (8, 3, True, 5, 1),
        (7, 4, False, 4, Fraction(2**70)),
        (7, 4, True, 2, Fraction(1, 2**70)),
        (12, 2, False, 6, 1),
        (6, 6, False, 3, Fraction(2**64 + 1, 3)),
    ],
)
def test_bruteforce_matches_independent_enumeration(m, k, exact_k, cap, scale):
    # large enough that the exhaustive walk splits into several prefixes
    rng = random.Random(1000 * m + k)
    t = scale_weights(random_tournament(rng, m, -1, 1), scale)
    best, wins = enumerate_optima(t, k, exact_k)
    res = solve_bruteforce(t, k, all_ties=True, exact_k=exact_k, witness_cap=cap)
    assert res.optimum == best
    assert [levels_key(t, w) for w in res.witnesses] == wins[:cap]
    assert res.truncated == (len(wins) > cap)
    one = solve_bruteforce(t, k, exact_k=exact_k)
    assert one.optimum == best
    assert [levels_key(t, w) for w in one.witnesses] == wins[:1]
    assert not one.truncated


def huge_tournament(m: int, shape: str, rng: random.Random) -> WeightedTournament:
    vertices = tuple(f"v{i}" for i in range(m))
    return WeightedTournament(vertices, huge_weights(shape, list(combinations(vertices, 2)), rng))


def assert_matches_enumeration(t, k, exact_k):
    best, wins = enumerate_optima(t, k, exact_k)
    for cap in (1, 3, len(wins) + 1):
        res = solve_bruteforce(t, k, all_ties=True, exact_k=exact_k, witness_cap=cap)
        assert res.optimum == best
        assert [levels_key(t, w) for w in res.witnesses] == wins[:cap]
        assert res.truncated == (len(wins) > cap)
    one = solve_bruteforce(t, k, exact_k=exact_k)
    assert (one.optimum, [levels_key(t, w) for w in one.witnesses]) == (best, wins[:1])


@pytest.mark.parametrize("shape", HUGE_SHAPES)
@pytest.mark.parametrize("m, k, exact_k", [(8, 3, False), (7, 4, True)])
def test_rounded_walk_matches_enumeration_past_int64(shape, m, k, exact_k):
    # both sizes leave a prefix ahead of the suffix, so the exact prefix tables are carried
    rng = random.Random(f"{shape}-{m}-{k}")
    t = huge_tournament(m, shape, rng)
    assert t.integer_form.w.dtype == object
    assert_matches_enumeration(t, k, exact_k)


def test_rounded_walk_keeps_an_optimum_that_rounds_lower():
    # multiples of 2**100 plus half the rounding unit plus or minus 1: each weight rounds off
    # by almost 1/2, and the optimum rounds lower than another vector, so a walk whose slack
    # were below 2 would drop it
    a = [1, -1, 1, 1, 1, -1, -1, -1, 1, -1]
    d = [-1, 1, 1, 1, 1, -1, 1, -1, -1, 1]
    e = rounding_shift(5, [x << 100 for x in a])
    vertices = tuple(f"v{i}" for i in range(5))
    weights = zip(combinations(vertices, 2), a, d)
    t = WeightedTournament(vertices, {pair: (x << 100) + (1 << e - 1) + y for pair, x, y in weights})
    assert_matches_enumeration(t, 3, True)


def test_rounded_walk_scores_a_dense_leaf_exactly():
    # one dominant arc rounds every other weight to about 0, so every labeling with v0
    # above v1 survives the rounded scores: over a quarter of the walk's one leaf
    rng = random.Random(5)
    vertices = tuple(f"v{i}" for i in range(7))
    weights = {pair: rng.randint(-(2**100), 2**100) for pair in combinations(vertices, 2)}
    weights["v0", "v1"] = 2**200
    t = WeightedTournament(vertices, weights)
    assert_matches_enumeration(t, 3, False)


def test_rounded_walk_scores_a_dense_leaf_exactly_under_a_prefix():
    # at k = 4 the walk's suffix holds 5 vertices, so v0 and v1 form the prefix: a leaf
    # scored exactly as a whole rebuilds the exact prefix score and table from its labels
    rng = random.Random(5)
    vertices = tuple(f"v{i}" for i in range(7))
    weights = {pair: rng.randint(-(2**100), 2**100) for pair in combinations(vertices, 2)}
    weights["v0", "v1"] = 2**200
    t = WeightedTournament(vertices, weights)
    assert_matches_enumeration(t, 4, False)


def test_rounded_walk_scores_dense_leaves_under_a_long_prefix_exactly(monkeypatch):
    # m = 10 at k = 3: one dominant arc rounds every other weight (+-2**100) to about 0, so
    # about a third of the vectors survive and most rows holding survivors are rescored whole
    rng = random.Random(5)
    vertices = tuple(f"v{i}" for i in range(10))
    weights = {pair: rng.randint(-(2**100), 2**100) for pair in combinations(vertices, 2)}
    weights["v0", "v1"] = 2**200
    t = WeightedTournament(vertices, weights)
    exact = []  # per suffix table built: on the exact weights?
    tables = solvers._suffix_tables
    monkeypatch.setattr(solvers, "_suffix_tables",
                        lambda w, *a: exact.append(w.dtype == object) or tables(w, *a))
    want = solve_subset_dp(t, 3, all_ties=True)
    for walk in (solve_bruteforce, solve):
        exact.clear()
        got = walk(t, 3, all_ties=True)
        assert (got.optimum, got.table.tolist(), got.truncated) == (
            want.optimum, want.table.tolist(), want.truncated,
        )
        assert exact == [False, True]  # the rounded tables, then the exact ones, once


def _walk_inputs():
    """Ordered and cut weights, int64 and past 2**62, whose walks score many prefix rows."""
    rng = random.Random(17)
    inputs = []
    sizes = ((12, 3, False), (9, 3, True), (9, 4, False), (8, 4, True), (14, 2, True))
    for unordered in (False, True):
        for m, k, huge in sizes:
            pairs = list(combinations(range(m), 2))
            if huge:
                weights = huge_weights(rng.choice(HUGE_SHAPES), pairs, rng, nonnegative=unordered)
            else:
                weights = {pair: rng.randint(0 if unordered else -2, 2) for pair in pairs}
            w = np.zeros((m, m), object)
            for (i, j), x in weights.items():
                w[i, j], w[j, i] = x, x if unordered else -x
            for exact_k in (False, True):
                inputs.append((w if huge else w.astype(np.int64), k, exact_k, unordered))
    return inputs


@pytest.mark.parametrize("chunk", [1, 10**12])
def test_walk_gives_the_same_result_in_any_chunk_size(monkeypatch, chunk):
    # one prefix row per chunk, or every row in one chunk, against the default chunks
    caps = (1, 3, 10**9)
    inputs = _walk_inputs()
    want = [[_walk_levels(w, k, x, cap, unordered=u) for cap in caps] for w, k, x, u in inputs]
    monkeypatch.setattr(solvers, "_CHUNK", chunk)
    for (w, k, exact_k, unordered), results in zip(inputs, want):
        for cap, (best, nopt, table) in zip(caps, results):
            got = _walk_levels(w, k, exact_k, cap, unordered=unordered)
            assert (got[0], got[1], got[2].tolist()) == (best, nopt, table.tolist())


def test_walk_caps_ties_across_chunk_boundaries():
    # zero weights tie every gap-free vector: 2**20 - 1 of them at k = 2, in many chunks
    m = 20
    s = max(s for s in range(1, m) if 2**s <= _BLOCK)  # the walk's suffix length at k = 2
    per_chunk = _CHUNK // 2**s * 2**s  # level vectors scored per chunk
    assert per_chunk < 2**m // 4
    gap_free = (lv for lv in product(range(2), repeat=m) if 0 in lv)
    first = [list(lv) for lv in islice(gap_free, per_chunk + 1)]
    t = WeightedTournament.zeros(tuple(f"v{i}" for i in range(m)))
    for cap in (1, per_chunk - 1, per_chunk + 1, 10_000):
        res = solve_bruteforce(t, 2, all_ties=True, witness_cap=cap)
        assert res.optimum == 0
        assert res.table.tolist() == first[:cap]
        assert res.truncated
    assert _walk_levels(t.integer_form.w, 2, False, 1, unordered=False)[1] == 2**m - 1


def test_cut_walk_with_exact_k_masks_partitions_with_fewer_pieces():
    # mostly negative cut weights: fewer pieces cut more, so only the mask keeps them out
    rng = random.Random(23)
    m, k = 9, 3
    w = np.zeros((m, m), np.int64)
    for i, j in combinations(range(m), 2):
        w[i, j] = w[j, i] = rng.randint(-5, 1)
    best, wins = None, []
    for lv in product(range(k), repeat=m):
        if len(set(lv)) < k or any(lv[i] > max(lv[:i], default=-1) + 1 for i in range(m)):
            continue
        score = sum(int(w[i, j]) for i, j in combinations(range(m), 2) if lv[i] != lv[j])
        if best is None or score > best:
            best, wins = score, []
        if score == best:
            wins.append(list(lv))
    got = _walk_levels(w, k, True, 10**9, unordered=True)
    assert (got[0], got[1], got[2].tolist()) == (best, len(wins), wins)


@pytest.mark.parametrize("m, k", [(16, 3), (22, 2), (12, 4)])
def test_walk_memory_is_bounded_by_its_chunks(m, k):
    # nothing is kept per prefix row: k**(m - s) rows would take several MiB here
    rng = np.random.default_rng(m * k)
    w = np.triu(rng.integers(-50, 51, (m, m)), 1)
    w -= w.T
    _walk_levels(w, k, False, 1, unordered=False)  # the cached tables are built here
    tracemalloc.start()
    try:
        _walk_levels(w, k, False, 1, unordered=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_subset_dp_memory_is_bounded_by_one_size_class():
    # Kemeny at m = 18: the largest size class, C(18, 9) * 9 = 437,580 splits, takes about
    # 3.3 MiB per int64 table; holding the tables of every size at once took 69 MiB
    m = 18
    rng = np.random.default_rng(m)
    w = np.triu(rng.integers(-50, 51, (m, m)), 1)
    w -= w.T
    solvers._subset_dp(w, m, True, 1)  # the cached step tables are built here
    tracemalloc.start()
    try:
        solvers._subset_dp(w, m, True, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("unordered", [False, True])
@pytest.mark.parametrize("exact_k", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_walk_tables_match_a_brute_force_filter(k, exact_k, unordered):
    for s in range(1, 5):
        digits, step = _digits(k, s), _step(k, unordered)
        mask = _walk_mask(k, s, exact_k, unordered)
        labelings = list(product(range(k), repeat=s))
        assert digits.T.tolist() == [list(x) for x in labelings]
        for l, c in product(range(k), repeat=2):
            assert step[l, c] == (l != c if unordered else (c > l) - (c < l))
        for n in range(s + 1):  # the per-half tables, against brute-force labelings of a half
            half = list(product(range(k), repeat=n))
            side = solvers._half_side(k, n, unordered)
            assert side.tolist() == [[[step[l, x[i]] for x in half] for i in range(n)]
                                     for l in range(k)]
            assert not side.flags.writeable
        for h in range(s + 1):
            blocks = []
            for at, n in ((0, h), (h, s - h)):
                half = list(product(range(k), repeat=n))
                blocks.append([((at + i) * s + at + j, [step[x[i], x[j]] for x in half])
                               for i, j in combinations(range(n), 2)])
            take, pairs = solvers._half_pairs(k, s, h, unordered)
            assert take.tolist() == [q for q, _ in blocks[0] + blocks[1]]
            assert pairs.tolist() == (
                [row + [0] * k ** (s - h) for _, row in blocks[0]]
                + [[0] * k**h + row for _, row in blocks[1]]
            )
            assert not take.flags.writeable and not pairs.flags.writeable
        assert mask.shape == (2**k, k**s)
        for pmask in range(2**k):
            want = []
            for x, lab in enumerate(labelings):
                used = pmask | sum({1 << c for c in lab})
                ok = used == (1 << used.bit_length()) - 1 and (not exact_k or used == 2**k - 1)
                fresh = pmask.bit_length()  # restricted growth: one above the highest level so far
                for c in lab:
                    ok &= not unordered or c <= fresh
                    fresh = max(fresh, c + 1)
                if ok:
                    want.append(x)
            assert np.flatnonzero(mask[pmask]).tolist() == want
        assert not any(a.flags.writeable for a in (digits, step, mask))


def _garbage_routes():
    rng = random.Random(3)
    vertices = tuple(f"v{i}" for i in range(8))
    pairs = list(combinations(vertices, 2))
    ties = WeightedTournament(vertices, {pair: rng.randint(-1, 1) for pair in pairs})
    huge = huge_tournament(8, "ties", random.Random(0))
    potential = dict(zip(vertices, [0, 0, 0, 1, 2, 2, 2, 3]))
    acyclic = WeightedTournament(vertices, {(a, b): potential[b] - potential[a] for a, b in pairs})
    g = CutInstance(vertices[:6], {pair: 1 for pair in combinations(vertices[:6], 2)})
    return {
        "walk": lambda: solve_bruteforce(ties, 3, all_ties=True),
        "walk past 2**62": lambda: solve_bruteforce(huge, 3, all_ties=True),
        "cut walk": lambda: solve_cut_bruteforce(g, 3),
        "subset dp": lambda: solve_subset_dp(ties, 3, all_ties=True),
        "divider dp": lambda: solve_acyclic_dp(acyclic, 3, all_ties=True),
        "2op": lambda: solve_2op(ties, all_ties=True),
    }


@pytest.mark.parametrize("route", list(_garbage_routes()))
def test_solver_calls_leave_no_cyclic_garbage(route):
    call = _garbage_routes()[route]
    result = call()  # warm: the tables cached across calls are built here
    assert len(result[1] if route == "cut walk" else result.table) > 1  # ties are listed
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        call()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize(
    "need, seen",
    [
        (1, ["", "0", "00", "000", "0000", "00000"]),
        (4, ["", "0", "00", "000", "0000", "0001", "00010"]),
        (10, ["", "0", "00", "000", "001", "0010", "00100"]),
        (243, [""]),
    ],
)
def test_canonical_walk_counts_only_the_prefixes_it_reaches(need, seen):
    # every level vector is optimal, so each prefix of length i fits 3**(5 - i) of them
    every = np.array(list(product(range(3), repeat=5)), np.intp)
    calls = []

    def counted(prefix):
        calls.append("".join(map(str, prefix)))
        fits = every[(every[:, : len(prefix)] == prefix).all(1)]
        return fits, len(fits)

    def listed(state):
        return [state[::-1]]  # out of order: the walk sorts each batch

    found, total = _canonical_walk(5, 3, need, counted, listed)
    assert calls == seen
    assert total == 243
    assert found.tolist() == every[:need].tolist()


def test_canonical_walk_sorts_a_batch_past_int64_keys_column_by_column():
    # the 16 optimal 2-partitions differ only in where the four 0-potential vertices go;
    # their count is at most twice the cap, so they are listed at the root over all 70
    # free columns, and 2**70 packed keys pass int64
    pot = [*range(1, 34), 0, 0, 0, 0, *range(-1, -34, -1)]
    verts = [f"v{i}" for i in range(len(pot))]
    t = WeightedTournament(
        verts, {(verts[i], verts[j]): pot[i] - pot[j] for i, j in combinations(range(70), 2)}
    )
    res = solve_acyclic_dp(t, 2, all_ties=True)
    rows = [tuple(row) for row in res.table.tolist()]
    assert len(rows) == 16 and not res.truncated
    assert all(a < b for a, b in zip(rows, rows[1:]))
    assert all(partition_score(t, p) == res.optimum for p in res.witnesses)
    capped = solve_acyclic_dp(t, 2, all_ties=True, witness_cap=5)
    assert capped.truncated
    assert [tuple(row) for row in capped.table.tolist()] == rows[:5]


def test_walk_weights_round_python_ints_into_int64():
    rng = random.Random(8)
    w = np.array([[0, 3, -5], [-3, 0, 7], [5, -7, 0]], np.int64)
    w64, slack = _walk_weights(w)
    assert w64 is w and slack == 0
    small = w.astype(object)  # representable as it is: no shift, no slack
    w64, slack = _walk_weights(small)
    assert w64.dtype == np.int64 and (w64 == w).all() and slack == 0
    for shape in HUGE_SHAPES:
        for sign in (-1, 1):  # antisymmetric (tournament) and symmetric (cut) weights
            m = rng.randint(2, 9)
            pairs = list(combinations(range(m), 2))
            weights = huge_weights(shape, pairs, rng, nonnegative=sign > 0)
            weights[0, m - 1] += 2**90  # past 2**62 whatever was drawn
            w = np.zeros((m, m), object)
            for (i, j), x in weights.items():
                w[i, j], w[j, i] = x, sign * x
            w64, slack = _walk_weights(w)
            assert w64.dtype == np.int64 and slack == m * (m - 1) // 2
            assert (w64 == sign * w64.T).all()
            assert 2 * m * int(abs(w64).sum()) < 2**62
            # every entry is within 1/2 of w / 2**e, e the least shift that fits
            e = rounding_shift(m, weights.values())
            assert all(abs((x << e) - y) << 1 <= 1 << e for x, y in zip(w64.ravel().tolist(), w.flat))


def test_dp_requires_acyclic(three_cycle):
    with pytest.raises(ValueError, match="cyclic"):
        solve_acyclic_dp(three_cycle, 2)


def test_dp_example_potentials_310():
    t = WeightedTournament(("a", "b", "c"), {("a", "b"): 2, ("a", "c"): 3, ("b", "c"): 1})
    res = solve_acyclic_dp(t, 2, all_ties=True)
    bf = solve_bruteforce(t, 2, all_ties=True)
    assert res.optimum == bf.optimum == 5
    assert witness_set(t, res) == witness_set(t, bf) == {(0, 1, 1)}


def test_dp_zero_weights():
    t = WeightedTournament.zeros(("a", "b", "c"))
    res = solve_acyclic_dp(t, 2, all_ties=True)
    assert res.optimum == 0
    assert witness_set(t, res) == witness_set(t, solve_bruteforce(t, 2, all_ties=True))


def test_dp_example_four_vertices():
    # potentials 2, 1, 0, -3
    verts = ("a", "b", "c", "d")
    pot = {"a": 2, "b": 1, "c": 0, "d": -3}
    t = WeightedTournament(
        verts,
        {(x, y): pot[x] - pot[y] for i, x in enumerate(verts) for y in verts[i + 1 :]},
    )
    dp = solve_acyclic_dp(t, 3)
    bf = solve_bruteforce(t, 3)
    assert dp.optimum == bf.optimum


def test_dp_matches_bruteforce_witness_sets():
    rng = random.Random(32)
    for _ in range(40):
        t = random_acyclic_tournament(rng, rng.randint(1, 6), -3, 3)
        for k in (1, 2, 3, 4):
            if k > t.m:
                continue
            dp = solve_acyclic_dp(t, k, all_ties=True)
            bf = solve_bruteforce(t, k, all_ties=True)
            assert dp.optimum == bf.optimum
            assert witness_set(t, dp) == witness_set(t, bf)
            exact_dp = solve_acyclic_dp(t, k, all_ties=True, exact_k=True)
            exact_bf = solve_bruteforce(t, k, all_ties=True, exact_k=True)
            assert exact_dp.optimum == exact_bf.optimum
            assert witness_set(t, exact_dp) == witness_set(t, exact_bf)


def test_dp_canonical_single_witness_matches_bruteforce():
    rng = random.Random(33)
    for _ in range(30):
        t = random_acyclic_tournament(rng, rng.randint(2, 6), -2, 2)
        k = rng.randint(1, 4)
        dp = solve_acyclic_dp(t, k)
        bf = solve_bruteforce(t, k)
        assert levels_key(t, dp.witnesses[0]) == levels_key(t, bf.witnesses[0])


def test_dp_witness_cap_truncation():
    t = WeightedTournament.zeros(tuple("abcd"))
    res = solve_acyclic_dp(t, 3, all_ties=True, witness_cap=5)
    assert res.truncated
    assert len(res.witnesses) == 5
    full = solve_acyclic_dp(t, 3, all_ties=True)
    assert not full.truncated
    assert len(full.witnesses) == 1 + 14 + 36


def test_2op_three_cycle(three_cycle):
    res = solve_2op(three_cycle, all_ties=True)
    assert res.optimum == 0
    bf = solve_bruteforce(three_cycle, 2, all_ties=True)
    assert bf.optimum == 0
    assert witness_set(three_cycle, res) == witness_set(three_cycle, bf)


def test_2op_single_arc():
    t = WeightedTournament(("a", "b"), {("a", "b"): 4})
    res = solve_2op(t)
    assert res.optimum == 4
    assert res.witnesses[0].blocks == (frozenset({"a"}), frozenset({"b"}))


def test_2op_needs_two_vertices():
    with pytest.raises(ValueError):
        solve_2op(WeightedTournament(("a",), {}))


def test_2op_oracle_equivalence_random():
    rng = random.Random(34)
    for _ in range(40):
        t = random_tournament(rng, rng.randint(2, 6))
        assert solve_2op(t).optimum == solve_bruteforce(t, 2).optimum


def test_2op_witnesses_score_the_optimum_on_the_original():
    rng = random.Random(35)
    for _ in range(20):
        t = random_tournament(rng, rng.randint(2, 6))
        res = solve_2op(t, all_ties=True)
        for w in res.witnesses:
            assert partition_score(t, w) == res.optimum


def test_decide_examples(three_cycle):
    assert decide(three_cycle, 3, Fraction(1))
    assert not decide(three_cycle, 2, Fraction(1))
    assert decide(three_cycle, 2, Fraction(-(10**9)))


def test_decide_reads_the_threshold_exactly():
    t = WeightedTournament(("a", "b"), {("a", "b"): Fraction(1, 10)})  # the optimum is 1/10
    assert decide(t, 2, "1/10")
    assert decide(t, 2, Fraction(1, 10))
    assert not decide(t, 2, "1/9")
    with pytest.raises(TypeError, match="threshold must be an exact rational, got float 0.1"):
        decide(t, 2, 0.1)  # its binary value lies above 1/10


@pytest.mark.parametrize("route", ["walk", "subset", "divider"])
def test_decide_agrees_with_solve_on_every_route(monkeypatch, route):
    monkeypatch.setattr(solvers, "_route", lambda *args: (route, None))  # the route solve takes
    rng = random.Random(37)
    make = random_acyclic_tournament if route == "divider" else random_tournament
    for _ in range(8):
        t = scale_weights(make(rng, rng.randint(2, 6), -4, 4), Fraction(1, rng.randint(1, 6)))
        k = rng.randint(3, 4)
        optimum = solve(t, k).optimum
        assert optimum == solve_bruteforce(t, k).optimum
        unit = Fraction(1, t.integer_form.scale * t.m)  # finer than any score's units
        assert decide(t, k, optimum)
        assert decide(t, k, optimum - unit)
        assert not decide(t, k, optimum + unit)


def test_solve_dispatch_agrees_with_bruteforce():
    rng = random.Random(36)
    for _ in range(25):
        t = random_tournament(rng, rng.randint(1, 5), -3, 3)
        for k in (1, 2, 3):
            got = solve(t, k, all_ties=True)
            want = solve_bruteforce(t, k, all_ties=True)
            assert got.optimum == want.optimum
            assert witness_set(t, got) == witness_set(t, want)


def test_witnesses_canonically_sorted_and_deduplicated():
    rng = random.Random(37)
    for _ in range(15):
        t = random_tournament(rng, rng.randint(2, 5), -1, 1)
        res = solve_bruteforce(t, 3, all_ties=True)
        keys = [levels_key(t, w) for w in res.witnesses]
        assert keys == sorted(set(keys))


def test_every_witness_scores_the_optimum():
    rng = random.Random(38)
    for _ in range(15):
        t = random_tournament(rng, rng.randint(2, 5))
        res = solve_bruteforce(t, 3, all_ties=True)
        for w in res.witnesses:
            assert partition_score(t, w) == res.optimum


def test_optimum_nondecreasing_in_k():
    rng = random.Random(39)
    for _ in range(15):
        t = random_tournament(rng, rng.randint(2, 5))
        opts = [solve_bruteforce(t, k).optimum for k in range(1, t.m + 2)]
        assert all(a <= b for a, b in zip(opts, opts[1:]))


def test_monotone_swap_never_decreases_score():
    rng = random.Random(40)
    for _ in range(25):
        t = random_acyclic_tournament(rng, rng.randint(2, 6))
        gamma = {x: borda_score(t, x) / t.m for x in t.vertices}
        verts = list(t.vertices)
        rng.shuffle(verts)
        cut = rng.randint(1, t.m - 1) if t.m > 1 else 1
        blocks = [verts[:cut], verts[cut:]] if cut < t.m else [verts]
        p = OrderedPartition.from_blocks(blocks)
        level = p.level_of()
        for x in t.vertices:
            for y in t.vertices:
                if gamma[x] > gamma[y] and level[x] > level[y]:
                    swapped = [set(b) for b in p.blocks]
                    swapped[level[x]].discard(x)
                    swapped[level[x]].add(y)
                    swapped[level[y]].discard(y)
                    swapped[level[y]].add(x)
                    q = OrderedPartition.from_blocks(swapped)
                    assert partition_score(t, q) >= partition_score(t, p)


def test_two_partitions_blind_to_cycles():
    rng = random.Random(41)
    for _ in range(15):
        m = rng.randint(3, 6)
        t = WeightedTournament.zeros(tuple(sorted({f"v{i}" for i in range(m)})))
        combo = WeightedTournament.zeros(t.vertices)
        for _ in range(rng.randint(1, 3)):
            verts = list(t.vertices)
            rng.shuffle(verts)
            r = rng.randint(3, m)
            combo = add_weights(
                combo, scale_weights(basic_cycle(t, verts[:r]), Fraction(rng.randint(-3, 3)))
            )
        for mask in range(1, (1 << m) - 1):
            top = [v for i, v in enumerate(t.vertices) if mask >> i & 1]
            bot = [v for i, v in enumerate(t.vertices) if not mask >> i & 1]
            p = OrderedPartition.from_blocks([top, bot])
            assert partition_score(combo, p) == 0


def test_k_is_taken_as_a_python_int_and_never_as_a_bool(three_cycle):
    kk = _levels(40, np.int64(4), False, 1)
    assert kk == 4 and type(kk) is int
    # a 40-vertex tournament with a cyclic part: np.int64(4)**40 wraps to 0, an estimate
    # that would pick the walk and pass its guard
    d = (np.arange(40)[None, :] - np.arange(40)[:, None]) % 40
    w = np.sign(20 - d) * (d != 0)  # v_i beats the next 19 around the circle
    t = WeightedTournament.from_int_matrix([f"v{i}" for i in range(40)], w, 1)
    assert not t.integer_form.is_acyclic()
    assert _route(t, np.int64(4), False) == ("subset", _subset_cells(40, 4, False))
    for call in (lambda: _levels(3, True, False, 1), lambda: solve(three_cycle, True)):
        with pytest.raises(TypeError) as err:
            call()
        assert str(err.value) == "k must be an integer, got True"


@pytest.mark.parametrize("k", [True, np.int64(2), 2.5, 2.0, Fraction(2)])
def test_k_follows_the_integer_rule(three_cycle, k):
    if type(k) is np.int64:
        assert type(_levels(3, k, False, 1)) is int
        res = solve_bruteforce(three_cycle, k, all_ties=True)
        ref = solve_bruteforce(three_cycle, 2, all_ties=True)
        assert (res.optimum, res.levels, res.truncated) == (ref.optimum, ref.levels, ref.truncated)
        return
    calls = (
        lambda: solve(three_cycle, k),
        lambda: solve_bruteforce(three_cycle, k),
        lambda: decide(three_cycle, k, 0),
    )
    for call in calls:
        with pytest.raises(TypeError) as err:
            call()
        assert str(err.value) == f"k must be an integer, got {k!r}"


@pytest.mark.parametrize("cap", [True, np.int64(2), 2.5])
def test_witness_cap_follows_the_integer_rule(three_cycle, cap):
    # three tied optima at k = 3, seven tied 2-partitions, and all 13 ordered partitions of
    # zero (acyclic) weights: a cap of 2 truncates on every route
    zeros = WeightedTournament.zeros(("a", "b", "c"))
    solvers = (
        lambda: solve(three_cycle, 3, all_ties=True, witness_cap=cap),
        lambda: solve_bruteforce(three_cycle, 3, all_ties=True, witness_cap=cap),
        lambda: solve_subset_dp(three_cycle, 3, all_ties=True, witness_cap=cap),
        lambda: solve_2op(three_cycle, all_ties=True, witness_cap=cap),
        lambda: solve_acyclic_dp(zeros, 3, all_ties=True, witness_cap=cap),
    )
    for call in solvers:
        if type(cap) is np.int64:
            res = call()
            assert len(res.table) == 2 and res.truncated
            continue
        with pytest.raises(TypeError) as err:
            call()
        assert str(err.value) == f"witness_cap must be an integer, got {cap!r}"


@pytest.mark.parametrize("guard", [True, 2.5, "7", 0, -1])
def test_guard_follows_the_integer_rule_at_every_entry_point(three_cycle, guard):
    p = Profile(("a", "b", "c"), ((WeakOrder.from_classes([["a"], ["b"], ["c"]]), 1),))
    g = CutInstance(("a", "b"), {("a", "b"): 1})
    calls = [
        lambda: solve(three_cycle, 3, guard=guard),
        lambda: solve_bruteforce(three_cycle, 3, guard=guard),
        lambda: solve_subset_dp(three_cycle, 3, guard=guard),
        lambda: decide(three_cycle, 3, Fraction(1), guard=guard),
        lambda: aggregate(p, "linear", 2, guard=guard),
        lambda: aggregate_rule(p, "borda_ranking", guard=guard),
        lambda: solve_cut_bruteforce(g, 2, guard=guard),
        lambda: check_tricut_identity(g, guard=guard),
        lambda: check_club_identity(g, guard=guard),
        lambda: check_transitive_gadget(g, guard=guard),
        lambda: run_selftest(guard=guard, emit=lambda line: pytest.fail(line)),
    ]
    for call in calls:
        if isinstance(guard, int) and not isinstance(guard, bool):
            with pytest.raises(ValueError, match="^guard must be at least 1$"):
                call()
        else:
            with pytest.raises(TypeError, match=f"^guard must be an integer, got {guard!r}$"):
                call()
