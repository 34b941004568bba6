"""Differential tests of the integer form against plain Fraction loops.

Every fast path (induced tournaments, Borda scores, the decomposition, the
acyclicity tests and the divider DP) reads ``WeightedTournament.integer_form``,
which is int64 below 2**62 and Python ints above.  Each case here runs at
small magnitudes, past 2**62, and with 2**70 denominators, against reference
loops kept in this file (or against ``solve_bruteforce`` for the solvers).
"""

import itertools
import math
import pickle
import random
import time
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

from maxkop import (
    DEFAULT_WITNESS_CAP,
    CutInstance,
    Profile,
    WeakOrder,
    WeightedTournament,
    aggregate,
    aggregate_rule,
    borda_score,
    build_fg,
    build_hg,
    cocycle_component,
    cycle_component,
    decompose,
    difference_generator,
    induce_tournament,
    inner_product,
    is_purely_acyclic,
    is_purely_cyclic,
    is_qualitatively_transitive,
    is_quantitatively_transitive,
    norm_squared,
    solve,
    solve_2op,
    solve_acyclic_dp,
    solve_bruteforce,
    solve_subset_dp,
    weight,
)
from maxkop import formats
from maxkop.formats import parse_tournament
from maxkop.profiles import _borda_ranking
from maxkop.tournament import exact_int_matrix
from maxkop.selftest import random_weak_order, vertex_names

BIG = 2**63 + 12345
DENOM = 2**70
# each maps a small integer to a weight of one magnitude regime
MAGNITUDES = {
    "small": lambda v: Fraction(v),
    "past-2^62": lambda v: Fraction(v * BIG),
    "2^70-denominators": lambda v: Fraction(v, DENOM) + Fraction(v, 3),
}
by_magnitude = pytest.mark.parametrize("scale", list(MAGNITUDES.values()), ids=list(MAGNITUDES))


def tournament(values: dict[tuple[int, int], int], m: int, scale) -> WeightedTournament:
    verts = vertex_names(m)
    weights = {(verts[i], verts[j]): scale(v) for (i, j), v in values.items()}
    return WeightedTournament(verts, weights)


def random_general(rng, m, scale, lo=-4, hi=4):
    return tournament({p: rng.randint(lo, hi) for p in combinations(range(m), 2)}, m, scale)


def random_acyclic(rng, m, scale, lo=-3, hi=3):
    pot = [rng.randint(lo, hi) for _ in range(m)]  # small range: equal potentials tie
    return tournament({(i, j): pot[i] - pot[j] for i, j in combinations(range(m), 2)}, m, scale)


# ---- Fraction reference loops -------------------------------------------------------


def ref_borda(t, x):
    return sum((weight(t, x, y) for y in t.vertices if y != x), Fraction(0))


def ref_cocycle(t):
    b = {x: ref_borda(t, x) for x in t.vertices}
    return {(x, y): (b[x] - b[y]) / t.m for x, y in t.stored_pairs()}


def ref_cycle(t):
    co = ref_cocycle(t)
    return {pair: t.weights[pair] - co[pair] for pair in t.stored_pairs()}


def ref_induce(p):
    weights = {}
    for x, y in combinations(p.alternatives, 2):
        net = 0
        for order, count in p.ballots:
            rank = order.rank_of()
            net += count * ((rank[x] < rank[y]) - (rank[x] > rank[y]))
        weights[(x, y)] = Fraction(net)
    return weights


def levels(t, p):
    level = p.level_of()
    return tuple(level[v] for v in t.vertices)


def same_result(t, got, want):
    assert got.optimum == want.optimum
    assert type(got.optimum) is Fraction
    assert [levels(t, w) for w in got.witnesses] == [levels(t, w) for w in want.witnesses]
    assert got.truncated == want.truncated


def matches_bruteforce(t, got, k, *, all_ties, exact_k, witness_cap):
    """Same optimum, witnesses and flag as the walk; under truncation, a canonical subset.

    The divider DP keeps ``witness_cap`` tied witnesses in canonical order,
    but not necessarily the canonically least ones that the walk keeps.
    """
    kw = dict(all_ties=all_ties, exact_k=exact_k)
    want = solve_bruteforce(t, k, witness_cap=witness_cap, **kw)
    if not want.truncated:
        same_result(t, got, want)
        return
    assert got.optimum == want.optimum and got.truncated
    keys = [levels(t, w) for w in got.witnesses]
    assert len(keys) == witness_cap and keys == sorted(set(keys))
    full = solve_bruteforce(t, k, witness_cap=10**6, **kw)
    assert set(keys) <= {levels(t, w) for w in full.witnesses}


# ---- induce_tournament ---------------------------------------------------------------


@pytest.mark.parametrize("counts", [(1, 9), (2**61, 2**62), (2**62 + 7, 3 * 2**61 + 1)])
def test_induce_matches_reference(counts):
    rng = random.Random(sum(counts) % 1000)
    for m in (2, 3, 5, 9):
        alts = vertex_names(m)
        ballots = tuple(
            (random_weak_order(rng, alts, rng.randint(1, m)), rng.randint(*counts))
            for _ in range(rng.randint(1, 12))
        )
        p = Profile(alts, ballots)
        t = induce_tournament(p)
        assert t.weights == ref_induce(p)
        assert all(type(w) is Fraction for w in t.weights.values())


def test_induce_multiplicities_summing_past_2_62():
    alts = ("a", "b", "c")
    top_a = WeakOrder.from_classes([["a"], ["b"], ["c"]])
    top_c = WeakOrder.from_classes([["c"], ["b", "a"]])
    p = Profile(alts, ((top_a, 2**62), (top_a, 2**62), (top_c, 1)))
    t = induce_tournament(p)
    assert t.weights == ref_induce(p)
    assert t.weights[("a", "b")] == 2**63
    assert t.weights[("a", "c")] == 2**63 - 1


@pytest.mark.parametrize("voters", [9, 2**62 // 54 - 1, 2**62 // 40, 2**62 // 30, 2**62])
def test_induced_form_takes_the_exact_dtype(voters):
    # at m = 3, induce_tournament bounds 2 * m * sum(abs(w)) by 2 * m**3 * voters, but
    # one linear order cast by every voter gives exactly 36 * voters: from 2**62 // 54
    # to 2**62 // 36 voters its dtype must come from the exact pass, not the bound
    rng = random.Random(voters % 1000)
    alts = vertex_names(3)
    up = WeakOrder.from_classes([[a] for a in alts])
    single = Profile(alts, ((up, voters),))
    mixed = Profile(alts, ((up, voters - 1), (random_weak_order(rng, alts, 2), 1)))
    for p in (single, mixed):
        t = induce_tournament(p)
        w = t.integer_form.w
        want = exact_int_matrix(w)
        assert w.dtype == want.dtype and w.tolist() == want.tolist()
        assert t.weights == ref_induce(p)
    assert (induce_tournament(single).integer_form.w.dtype == object) == (36 * voters >= 2**62)


def ref_beta(alts, weights):
    """Row sums of the reference induce's weights, in alternative order."""
    beta = dict.fromkeys(alts, 0)
    for (x, y), w in weights.items():
        beta[x] += w
        beta[y] -= w
    return [int(beta[a]) for a in alts]


def shaped_order(rng, alts, shape):
    m = len(alts)
    if shape == "univalent":
        top = rng.choice(alts)
        return WeakOrder.from_classes([[top], [a for a in alts if a != top]])
    classes = {"weak": rng.randint(1, m), "linear": m, "dichotomous": 2, "indifferent": 1}[shape]
    return random_weak_order(rng, alts, classes)


@pytest.mark.parametrize("mirrored", [False, True])
@pytest.mark.parametrize("shape", ["weak", "linear", "dichotomous", "univalent", "indifferent"])
def test_induced_beta_and_matrix_match_reference(shape, mirrored):
    rng = random.Random(len(shape) + mirrored)
    for m in (2, 3, 6, 11):
        alts = vertex_names(m)
        ballots = [(shaped_order(rng, alts, shape), rng.randint(1, 50)) for _ in range(12)]
        if mirrored:  # each ballot and its reversal: every net majority is 0
            ballots += [(WeakOrder(order.classes[::-1]), n) for order, n in ballots]
        p = Profile(alts, ballots)
        t = induce_tournament(p)
        want = ref_induce(p)
        assert t.integer_form.beta.tolist() == ref_beta(alts, want)
        assert t.weights == want
        if mirrored or shape == "indifferent":
            assert not t.integer_form.w.any() and not t.integer_form.beta.any()


def test_induced_matrix_sums_every_chunk_of_ballots():
    # 64 alternatives take 256 ballots per chunk, so 300 lines fill two chunks
    rng = random.Random(4)
    alts = vertex_names(64)
    p = Profile(alts, [(random_weak_order(rng, alts, rng.randint(1, 64)), rng.randint(1, 9))
                       for _ in range(300)])
    want = np.zeros((64, 64), np.int64)
    for row, n in zip(p.ranks.tolist(), p.counts):
        for x, y in combinations(range(64), 2):
            want[x, y] += n * ((row[x] < row[y]) - (row[x] > row[y]))
    want -= want.T
    t = induce_tournament(p)
    assert t.integer_form.w.tolist() == want.tolist()
    assert t.integer_form.beta.tolist() == want.sum(1).tolist()


# int32 wraps silently at 2**31 and int64 at 2**63, so each side of each change of the
# accumulators is its own case: N in int32 below 2**31 voters, beta in int64 below
# 2**62 // m of them, N in int64 below 2**62
@pytest.mark.parametrize(
    "voters", [2**31 - 1, 2**31, 2**62 // 4 - 1, 2**62 // 4, 2**62 - 1, 2**62, 2**64 + 3]
)
def test_induce_across_the_accumulator_changes(voters):
    rng = random.Random(voters % 1000)
    alts = vertex_names(4)
    up = WeakOrder.from_classes([[a] for a in alts])
    # nearly every voter casts one linear order, and every voter ranks alts[0] first, so
    # N[0, y] is the voter total and the other counts of N come within a few voters of it
    others = [(WeakOrder((frozenset(alts[:1]), *random_weak_order(rng, alts[1:], 2).classes)),
               rng.randint(1, 3)) for _ in range(5)]
    p = Profile(alts, [(up, voters - sum(n for _, n in others))] + others)
    assert p.voter_count == voters
    t = induce_tournament(p)
    want = ref_induce(p)
    assert t.integer_form.beta.tolist() == ref_beta(alts, want)
    assert t.weights == want


def test_induced_beta_takes_its_own_dtype():
    # a Condorcet cycle: beta is 0, while 2 * m * sum(abs(w)) = 36 * n passes 2**62
    n = 2**62 // 36 + 1
    alts = vertex_names(3)
    p = Profile(alts, [(WeakOrder.from_classes([[a] for a in alts[r:] + alts[:r]]), n)
                       for r in range(3)])
    t = induce_tournament(p)
    form = t.integer_form
    assert form.beta.dtype == np.int64 and not form.beta.any()
    assert form.w.dtype == object and t.weights == ref_induce(p)
    assert is_purely_cyclic(t) and not is_purely_acyclic(t)
    assert cycle_component(t).weights == t.weights
    for k in (2, 3):
        same_result(t, solve(t, k, all_ties=True), solve_bruteforce(t, k, all_ties=True))


def test_two_level_rules_never_fill_the_matrix(monkeypatch):
    def fill(p):
        raise AssertionError("the net-majority matrix was built")

    monkeypatch.setattr("maxkop.profiles._net_majorities", fill)
    rng = random.Random(8)
    alts = vertex_names(7)
    dich = Profile(alts, [(random_weak_order(rng, alts, 2), rng.randint(1, 9)) for _ in range(20)])
    lin = Profile(alts, [(random_weak_order(rng, alts, 7), rng.randint(1, 9)) for _ in range(20)])
    aggregate(dich, 2, 2)
    aggregate(lin, "linear", 2)
    aggregate_rule(dich, "approval_winner")
    t = induce_tournament(dich)
    solve(t, 2, all_ties=True)
    assert "w" not in vars(t.integer_form)
    # the check itself: a route reading w fills it
    with pytest.raises(AssertionError, match="built"):
        aggregate(lin, "linear", 3)


def test_forms_pickle_before_and_after_the_fill():
    rng = random.Random(6)
    alts = vertex_names(5)
    p = Profile(alts, [(random_weak_order(rng, alts, 3), rng.randint(1, 9)) for _ in range(8)])
    for t in (induce_tournament(p), random_general(rng, 5, MAGNITUDES["2^70-denominators"])):
        for _ in range(2):  # the second pass has w filled
            back = pickle.loads(pickle.dumps(t))
            assert back.integer_form.beta.tolist() == t.integer_form.beta.tolist()
            assert back.weights == t.weights


# ---- Borda and the decomposition ----------------------------------------------------


@by_magnitude
def test_borda_and_components_match_reference(scale):
    rng = random.Random(7)
    for m in (1, 2, 3, 4, 7):
        for t in (random_general(rng, m, scale), random_acyclic(rng, m, scale)):
            for x in t.vertices:
                assert borda_score(t, x) == ref_borda(t, x)
            co, cyc = cocycle_component(t), cycle_component(t)
            assert co.weights == ref_cocycle(t)
            assert cyc.weights == ref_cycle(t)
            d = decompose(t)
            assert d.cocycle.weights == co.weights and d.cycle.weights == cyc.weights
            # the components' own integer forms agree with fresh ones
            for part in (co, cyc):
                fresh = WeightedTournament(part.vertices, dict(part.weights))
                for x in t.vertices:
                    assert borda_score(part, x) == borda_score(fresh, x)


# ---- acyclicity ---------------------------------------------------------------------


@by_magnitude
def test_acyclicity_tests_match_reference(scale):
    rng = random.Random(8)
    for m in (1, 2, 3, 5, 6):
        for t in (random_general(rng, m, scale), random_acyclic(rng, m, scale)):
            acyclic = all(w == 0 for w in ref_cycle(t).values())
            assert is_purely_acyclic(t) == acyclic
            assert is_purely_cyclic(t) == all(w == 0 for w in ref_cocycle(t).values())
            gen = difference_generator(t)
            assert (gen is not None) == acyclic
            if gen is not None:
                assert gen == {x: ref_borda(t, x) / t.m for x in t.vertices}


def wrapping_cycle() -> WeightedTournament:
    """Acyclic weights on 8 vertices plus 2**61 around the cycle a > b > c > a.

    Every weight stays below 2**62, but 8 * 2**61 == 2**64: in wrapping int64
    arithmetic m * w equals the Borda differences, and the cycle is invisible.
    """
    verts = vertex_names(8)
    pot = dict(zip(verts, (3, 1, 0, -2, 5, 1, -4, 2)))
    weights = {(x, y): pot[x] - pot[y] for x, y in combinations(verts, 2)}
    weights[("a", "b")] += 2**61
    weights[("b", "c")] += 2**61
    weights[("a", "c")] -= 2**61
    return WeightedTournament(verts, weights)


def test_cycle_hidden_by_int64_wraparound_is_seen():
    t = wrapping_cycle()
    assert any(w != 0 for w in ref_cycle(t).values())
    assert not is_purely_acyclic(t)
    assert not is_purely_cyclic(t)
    assert difference_generator(t) is None
    with pytest.raises(ValueError, match="cyclic component"):
        solve_acyclic_dp(t, 3)
    # the dispatcher must take the exhaustive walk, not the divider program
    same_result(t, solve(t, 3, all_ties=True), solve_bruteforce(t, 3, all_ties=True))
    assert cycle_component(t).weights == ref_cycle(t)
    assert t.integer_form.w.dtype == object


def ref_form_dtype(w: np.ndarray):
    """The integer form's dtype rule with the absolute sum taken over Python ints."""
    return np.int64 if 2 * len(w) * sum(abs(v) for v in w.ravel().tolist()) < 2**62 else object


def test_int64_matrix_whose_absolute_sum_reaches_2_63_leaves_int64():
    # sum(abs(w)) == 2**63, which int64 arithmetic reads as -2**63
    w = np.zeros((4, 4), np.int64)
    w[0, 1], w[1, 0] = 2**62, -(2**62)
    t = WeightedTournament.from_int_matrix(vertex_names(4), w, 1)
    assert t.integer_form.w.dtype == object
    assert t.integer_form.beta_differences()[0, 1] == 2**63
    assert weight(t, "b", "a") == -(2**62)


@pytest.mark.parametrize("bits", [8, 58, 61, 63])
def test_exact_int_matrix_dtype_follows_the_exact_absolute_sum(bits):
    rng = np.random.default_rng(bits)
    cases = [np.array([[0, k], [-k, 0]], np.int64) for k in (2**59 - 1, 2**59)]
    cases += [np.array([[-(2**63)]], np.int64)]
    for m in range(1, 9):
        cases.append(rng.integers(-(2**bits) + 1, 2**bits, (m, m), np.int64))
    for w in cases:
        got = exact_int_matrix(w)
        assert got.dtype == ref_form_dtype(w)
        assert got.tolist() == w.tolist()


# ---- forms built from arc lists ------------------------------------------------------


def assert_exact_arc_form(t: WeightedTournament, weights: dict, dtype) -> None:
    """t's form against Python ints: ``exact_int_matrix``'s dtype (``dtype``) and values.

    ``weights`` maps (i, j) to the weight of the arc from vertex i to vertex j.
    """
    m = t.m
    scale = math.lcm(*(Fraction(v).denominator for v in weights.values()))
    ref = np.zeros((m, m), object)
    for (i, j), v in weights.items():
        ref[i, j] = int(v * scale)
    ref = ref - ref.T
    want = exact_int_matrix(ref)
    form = t.integer_form
    assert want.dtype == dtype
    assert form.scale == scale and form.w.dtype == want.dtype
    assert form.w.tolist() == want.tolist()
    assert form.beta.tolist() == ref.sum(1).tolist()
    if dtype is object:  # Python ints: int64 scalars would wrap in w - w.T and the row sums
        assert {type(v) for v in [*form.w.ravel().tolist(), *form.beta.tolist()]} == {int}


# (weights, dtype): at m = 4, 4 * m * sum(abs(nums)) just below 2**62, then at or
# just above it (integers, then thirds and halves over the scale 6); single weights
# in [2**63, 2**64) and past 2**64; and 20 vertices of 18-digit weights whose Borda
# sums pass 2**63
ARC_CASES = [
    ({(0, 1): 2**58 - 6, (3, 2): -5}, np.int64),
    ({(0, 1): 2**58 - 5, (3, 2): -5}, object),
    ({(0, 2): Fraction(2**57 - 3, 3), (1, 3): Fraction(-1, 2)}, np.int64),
    ({(0, 2): Fraction(2**57 - 1, 3), (1, 3): Fraction(-1, 2)}, object),
    *(({(1, 2): v}, object) for v in (2**63, -(2**63), 2**64 - 1, 2**64, -(2**200))),
    ({(i, j): 10**18 - 1 for i, j in combinations(range(20), 2)}, object),
]


@pytest.mark.parametrize("build", ["mapping", "line reader", "byte reader"])
def test_arc_built_forms_take_the_exact_dtype(monkeypatch, build):
    def line_reader(text):
        raise AssertionError("a plain integer text went to the line reader")

    for weights, dtype in ARC_CASES:
        names = vertex_names(1 + max(map(max, weights)))
        arcs = {(names[i], names[j]): v for (i, j), v in weights.items()}
        if build == "mapping":
            t = WeightedTournament(names, arcs)
        elif build == "byte reader" and any(v != int(v) or abs(v) >= 10**18 for v in arcs.values()):
            continue  # the byte reader reads integers of up to 18 digits
        else:
            lines = [f"tournament {len(names)}", *names]
            lines += [f"{x} {y} {v}" for (x, y), v in arcs.items()]
            with monkeypatch.context() as patch:
                if build == "byte reader":
                    patch.setattr(formats, "_BYTES_MIN", 0)
                    patch.setattr(formats, "_lines", line_reader)
                else:
                    patch.setattr(formats, "_BYTES_MIN", math.inf)
                t = parse_tournament("\n".join(lines) + "\n")
        assert_exact_arc_form(t, weights, dtype)


@pytest.mark.parametrize("edge", [2**56 - 1, 2**56, 2**63, 2**64 - 1, 2**64, 2**200])
def test_hg_form_takes_the_exact_dtype(edge):
    # four arcs at the edge's weight over m = 4: 4 * m * sum(abs(nums)) is 64 * edge,
    # just below 2**62 at the first edge and at it from the second
    t = build_hg(CutInstance(("a", "b"), {("a", "b"): edge})).tournament
    cycle = ["a", "d_a_b", "b", "d_b_a", "a"]
    weights = {(t.index(x), t.index(y)): edge for x, y in zip(cycle, cycle[1:])}
    assert_exact_arc_form(t, weights, np.int64 if edge < 2**56 else object)


# ---- the divider DP against the exhaustive walk -------------------------------------


@by_magnitude
def test_acyclic_dp_matches_bruteforce(scale):
    rng = random.Random(9)
    for m in (1, 2, 3, 5, 7):
        t = random_acyclic(rng, m, scale)
        for k in (1, 2, 3, 4):
            for exact_k in (False, True) if k <= m else (False,):
                for all_ties, cap in ((False, 10_000), (True, 10_000), (True, 3)):
                    kw = dict(all_ties=all_ties, exact_k=exact_k, witness_cap=cap)
                    matches_bruteforce(t, solve_acyclic_dp(t, k, **kw), k, **kw)


@by_magnitude
def test_2op_matches_bruteforce(scale):
    rng = random.Random(10)
    for m in (2, 3, 4, 6, 8):
        for t in (random_general(rng, m, scale), random_general(rng, m, scale, -1, 1)):
            for exact_k in (False, True):
                for all_ties, cap in ((False, 10_000), (True, 10_000), (True, 2)):
                    kw = dict(all_ties=all_ties, exact_k=exact_k, witness_cap=cap)
                    matches_bruteforce(t, solve_2op(t, **kw), 2, **kw)


def test_all_zero_weights_every_route():
    for m in (1, 2, 5):
        t = WeightedTournament.zeros(vertex_names(m))
        for k in (1, 2, 3):
            for exact_k in (False, True) if k <= m else (False,):
                for cap in (7, 10_000):
                    kw = dict(all_ties=True, exact_k=exact_k, witness_cap=cap)
                    matches_bruteforce(t, solve_acyclic_dp(t, k, **kw), k, **kw)
                    matches_bruteforce(t, solve(t, k, **kw), k, **kw)
        assert is_purely_acyclic(t) and is_purely_cyclic(t)
        assert difference_generator(t) == {x: 0 for x in t.vertices}


@pytest.mark.parametrize("cap,truncated", [(30, True), (31, False), (32, False)])
def test_divider_dp_truncates_only_when_witnesses_are_dropped(cap, truncated):
    # zero weights on 5 vertices: every one of the 2**5 - 1 ordered 2-partitions
    # with a nonempty top block ties, on every route
    t = WeightedTournament.zeros(vertex_names(5))
    for res in (solve_2op(t, all_ties=True, witness_cap=cap),
                solve_acyclic_dp(t, 2, all_ties=True, witness_cap=cap),
                solve_bruteforce(t, 2, all_ties=True, witness_cap=cap),
                solve_subset_dp(t, 2, all_ties=True, witness_cap=cap),
                solve(t, 2, all_ties=True, witness_cap=cap)):
        assert len(res.witnesses) == min(cap, 31)
        assert res.truncated == truncated


# ---- Borda ranking truncation -------------------------------------------------------


@pytest.mark.parametrize("cap,truncated", [(119, True), (120, False), (121, False)])
def test_borda_ranking_truncates_only_when_orders_are_dropped(cap, truncated):
    # a ballot and its reversal: all 5 alternatives tie, so 5! = 120 orders
    alts = vertex_names(5)
    up = WeakOrder.from_classes([[a] for a in alts])
    down = WeakOrder.from_classes([[a] for a in reversed(alts)])
    res = _borda_ranking(Profile(alts, ((up, 1), (down, 1))), cap)
    assert len(res.orders) == min(cap, 120)
    assert res.truncated == truncated
    assert res.optimum == 0


# ---- every route keeps the same witnesses under truncation --------------------------


def potential_tournament(pot: list[int], scale) -> WeightedTournament:
    """Acyclic weights pot[i] - pot[j]: vertices of equal potential tie."""
    m = len(pot)
    return tournament({(i, j): pot[i] - pot[j] for i, j in combinations(range(m), 2)}, m, scale)


def with_cycles(t: WeightedTournament, rng, count: int) -> WeightedTournament:
    """``t`` plus unit-weight three-cycles, which change no Borda score and no 2-partition score."""
    weights = dict(t.weights)
    for _ in range(count):
        x, y, z = sorted(rng.sample(range(t.m), 3))
        c = Fraction(rng.choice((-1, 1)))
        vx, vy, vz = (t.vertices[i] for i in (x, y, z))
        weights[(vx, vy)] += c
        weights[(vy, vz)] += c
        weights[(vx, vz)] -= c
    return WeightedTournament(t.vertices, weights)


def truncation_cases():
    """(tournament, k, exact_k, tied): tied cases have more optimal witnesses than cap 1 keeps."""
    rng = random.Random(14)
    small, big, fine = (MAGNITUDES[name] for name in ("small", "past-2^62", "2^70-denominators"))
    ties = [1, 1, 0, 0, 0, 0, -1, -1]  # 2**4 optimal 2-partitions
    return [
        # at cap 7 the divider DP once kept a subset other than the least 7
        (WeightedTournament.zeros(vertex_names(5)), 2, False, True),
        (WeightedTournament.zeros(vertex_names(6)), 3, False, True),
        (WeightedTournament.zeros(vertex_names(6)), 3, True, True),
        (potential_tournament(ties, small), 2, False, True),
        (potential_tournament(ties, small), 2, True, True),
        (potential_tournament([1, 0, 1, 0, 1, 0], small), 3, False, True),
        (potential_tournament([1, 0, 1, 0, 1, 0], small), 4, True, True),
        (potential_tournament([0, 0, 0, 0, 0, 0, 1], fine), 3, False, True),
        (potential_tournament(ties, big), 2, False, True),
        (potential_tournament([1, 0, 1, 0, 1, 0], big), 4, False, True),
        (with_cycles(potential_tournament(ties, small), rng, 6), 2, False, True),
        (with_cycles(potential_tournament(ties, small), rng, 6), 2, True, True),
        (with_cycles(potential_tournament(ties, big), rng, 4), 2, False, True),
        (random_general(rng, 7, small, -1, 1), 2, False, False),
        # three or more tied groups, each weighed on its own by the divider DP's path counts
        (potential_tournament([2, 2, 2, 1, 1, 1, 0, 0], small), 4, True, True),
        (potential_tournament([2, 2, 2, 1, 1, 1, 0, 0], small), 5, False, True),
        (potential_tournament([1, 1, 0, 0, 0, 0, 0, -1, -1], small), 4, False, True),
        (potential_tournament([1, 1, 0, 0, 0, 0, 0, -1, -1], small), 5, True, True),
        (potential_tournament([3, 3, 3, 2, 2, 2, 2, 1, 1, 1], small), 4, True, True),
        (potential_tournament([3, 3, 3, 2, 2, 2, 1, 1, 1, 0, 0, 0], small), 3, False, True),
        (potential_tournament([2, 2, 2, 1, 1, 1, 0, 0], big), 4, False, True),
        # optimal 2- and 3-block partitions: a prefix vertex at level 2 rules out the 2-block ones
        (potential_tournament([-1, 0, 0], small), 3, False, True),
    ]


@pytest.mark.parametrize("t,k,exact_k,tied", truncation_cases())
def test_routes_keep_the_walks_witnesses_under_truncation(t, k, exact_k, tied):
    routes = [solve_2op] if k == 2 else []
    if is_purely_acyclic(t):
        routes.append(lambda t, **kw: solve_acyclic_dp(t, k, **kw))
    assert routes
    if tied:
        assert solve_bruteforce(t, k, all_ties=True, exact_k=exact_k, witness_cap=1).truncated
    for cap in range(1, 13):
        kw = dict(all_ties=True, exact_k=exact_k, witness_cap=cap)
        want = solve_bruteforce(t, k, **kw)
        for route in routes:
            got = route(t, **kw)
            same_result(t, got, want)
            assert got.levels == want.levels and got.vertices == t.vertices


@pytest.mark.parametrize("t,k,exact_k,tied", [c for c in truncation_cases() if c[0].m <= 8])
def test_divider_counts_in_python_ints_under_a_huge_cap(t, k, exact_k, tied):
    # (m + 1) * (cap + 1)**2 passes 2**62, so the path counts take the object dtype
    kw = dict(all_ties=True, exact_k=exact_k, witness_cap=2**40)
    want = solve_bruteforce(t, k, **kw)
    if k == 2:
        assert solve_2op(t, **kw) == want
    if is_purely_acyclic(t):
        assert solve_acyclic_dp(t, k, **kw) == want


def gap_free_levels(m: int, limit: int) -> list[tuple[int, ...]]:
    """The first ``limit`` gap-free level vectors of length m, in lexicographic order."""
    found: list[tuple[int, ...]] = []

    def extend(prefix: list[int]) -> None:
        if len(prefix) == m:
            found.append(tuple(prefix))
            return
        for b in range(m):
            used = set(prefix) | {b}
            if max(used) + 1 - len(used) <= m - len(prefix) - 1:  # the vertices left fill the gaps
                extend(prefix + [b])
                if len(found) == limit:
                    return

    extend([])
    return found


@pytest.mark.parametrize("m", [20, 30])
def test_divider_lists_the_least_ties_at_large_m(m):
    # all-zero weights: every gap-free level vector is optimal, 2**(m-1) divider patterns
    res = solve(WeightedTournament.zeros(vertex_names(m)), m, all_ties=True)
    assert res.truncated
    assert list(res.levels) == gap_free_levels(m, DEFAULT_WITNESS_CAP)


# ---- results store level vectors ----------------------------------------------------


def test_solve_levels_give_witnesses():
    t = potential_tournament([1, 0, 1, 0, 1, 0], MAGNITUDES["small"])
    for res in (
        solve_bruteforce(t, 3, all_ties=True, witness_cap=9),
        solve_acyclic_dp(t, 3, all_ties=True, witness_cap=9),
        solve_2op(t, all_ties=True),
        solve(t, 4, exact_k=True),
    ):
        assert res.vertices == t.vertices
        assert len(res.levels) == len(res.witnesses) > 0
        for lv, w in zip(res.levels, res.witnesses):
            assert levels(t, w) == lv
        assert res.witnesses is res.witnesses  # built once


def order_levels(res, order):
    rank = order.rank_of()
    return tuple(rank[a] for a in res.alternatives)


@pytest.mark.parametrize("cap", [11, 12, 13])
def test_borda_ranking_levels_give_orders(cap):
    # e and b share the top Borda score, the other three tie below: 2! * 3! orders
    alts = ("d", "b", "e", "a", "c")
    up = WeakOrder.from_classes([[a] for a in alts])
    down = WeakOrder.from_classes([[a] for a in reversed(alts)])
    top = WeakOrder.from_classes([["e", "b"], ["d", "a", "c"]])
    res = _borda_ranking(Profile(alts, ((up, 1), (down, 1), (top, 1))), cap)
    expected = [
        first + second
        for first in permutations(("b", "e"))
        for second in permutations(("a", "c", "d"))
    ]
    assert [tuple(sorted(alts, key=dict(zip(alts, lv)).get)) for lv in res.levels] == expected[:cap]
    assert len(res.orders) == len(res.levels) == min(cap, 12)
    for lv, order in zip(res.levels, res.orders):
        assert order_levels(res, order) == lv
    assert res.truncated == (cap < 12)


def test_approval_winner_levels_give_orders():
    alts = vertex_names(4)
    ballots = ((WeakOrder.from_classes([["a", "c"], ["b", "d"]]), 2),
               (WeakOrder.from_classes([["c", "a", "d"], ["b"]]), 1))
    res = aggregate_rule(Profile(alts, ballots), "approval_winner")
    assert res.levels == ((0, 1, 1, 1), (1, 1, 0, 1))  # a and c tie for the win
    assert [order_levels(res, o) for o in res.orders] == list(res.levels)
    mean = aggregate(Profile(alts, ballots), 2, 2)
    assert [order_levels(mean, o) for o in mean.orders] == list(mean.levels)


# ---- transitivity and inner products ------------------------------------------------


def ref_quantitatively_transitive(t):
    return all(
        weight(t, x, y) + weight(t, y, z) == weight(t, x, z)
        for x, y, z in combinations(t.vertices, 3)
    )


def ref_qualitatively_transitive(t):
    return not any(
        weight(t, x, y) > 0 and weight(t, y, z) > 0 and not weight(t, x, z) > 0
        for x, y, z in permutations(t.vertices, 3)
    )


def ref_inner_product(t1, t2):
    return sum((w * t2.weights[pair] for pair, w in t1.weights.items()), Fraction(0))


def transitivity_cases(scale):
    rng = random.Random(9)
    for m in (1, 2, 3, 4, 6):
        yield tournament({}, m, scale)
        for _ in range(3):
            yield random_general(rng, m, scale)
            yield random_general(rng, m, scale, 0, 1)  # nonnegative: more chains to test
            yield random_acyclic(rng, m, scale)
    yield wrapping_cycle()


@by_magnitude
def test_transitivity_tests_match_reference(scale):
    seen = set()
    for t in transitivity_cases(scale):
        quant, qual = ref_quantitatively_transitive(t), ref_qualitatively_transitive(t)
        assert is_quantitatively_transitive(t) == quant
        assert is_qualitatively_transitive(t) == qual
        seen.add((quant, qual))
    assert seen == {(True, True), (False, True), (False, False)}


@by_magnitude
def test_inner_product_matches_reference(scale):
    cases = list(transitivity_cases(scale))
    rng = random.Random(10)
    for t in cases:
        other = rng.choice([u for u in cases if u.vertices == t.vertices])
        for t1, t2 in ((t, t), (t, other), (other, t)):
            got = inner_product(t1, t2)
            assert got == ref_inner_product(t1, t2) and type(got) is Fraction
        assert norm_squared(t) == ref_inner_product(t, t)


def test_inner_product_of_int64_forms_past_2_63():
    # each weight fits the int64 form; their products do not
    t = tournament({(0, 1): 2**40, (1, 2): -(2**40) + 3}, 3, Fraction)
    assert t.integer_form.w.dtype == np.int64
    assert inner_product(t, t) == 2**80 + (2**40 - 3) ** 2 == ref_inner_product(t, t)


def test_qualitative_transitivity_of_the_k6_fg_gadget_is_fast():
    verts = vertex_names(6)
    t = build_fg(CutInstance(verts, {pair: 1 for pair in combinations(verts, 2)})).tournament
    assert t.m == 54
    seconds = []
    for _ in range(5):
        start = time.perf_counter()
        got = is_qualitatively_transitive(t)
        seconds.append(time.perf_counter() - start)
    assert got == ref_qualitatively_transitive(t)
    assert min(seconds) < 0.01


# ---- the divider DP's ties against the walk, on tied Borda groups -----------------------


def tied_potential(rng, m: int, scale) -> WeightedTournament:
    """A potential tournament whose potentials repeat, so its Borda scores form tied groups."""
    pot = [rng.randint(-2, 2) for _ in range(m)]
    return potential_tournament(pot, scale)


@pytest.mark.parametrize("magnitude", ["small", "past-2^62"])
def test_divider_ties_match_the_walk(magnitude):
    # the divider DP lists a batch's tied groups from shared arrangement tables; the exhaustive
    # walk scores every level vector.  Both must list the same witnesses under every cap
    rng = random.Random(21)
    scale = MAGNITUDES[magnitude]
    for _ in range(24):
        m = rng.randint(4, 12)
        t = tied_potential(rng, m, scale)
        cyclic = with_cycles(t, rng, 3)
        for cap, exact_k in ((1, False), (1, True), (3, False), (7, True), (50, False)):
            kw = dict(all_ties=cap > 1, exact_k=exact_k, witness_cap=cap)
            same_result(cyclic, solve_2op(cyclic, **kw), solve_bruteforce(cyclic, 2, **kw))
            if m <= 8:
                k = rng.randint(3, 4)
                same_result(t, solve_acyclic_dp(t, k, **kw), solve_bruteforce(t, k, **kw))


# ---- ties of profiles with several Borda groups, under caps that cut a group --------------


def grouped_profile(groups: list[list[str]]) -> Profile:
    """Linear ballots ranking the groups in order and rotating within each, one rotation per
    ballot, so the members of a group tie in Borda score and the groups do not."""
    alts = tuple(sorted(a for g in groups for a in g))
    rounds = math.lcm(*(len(g) for g in groups))
    ballots = []
    for i in range(rounds):
        seq = [a for g in groups for a in g[i % len(g) :] + g[: i % len(g)]]
        ballots.append((WeakOrder.from_classes([[a] for a in seq]), 1))
    return Profile(alts, ballots)


GROUPED = [
    [["d", "b", "e"], ["a", "f"]],
    [["c", "a"], ["e", "d", "b"], ["g", "f", "h"]],
    [["f", "b", "a", "g"], ["c"], ["e", "d"]],
]


@pytest.mark.parametrize("groups", GROUPED, ids=["2-groups", "3-groups", "singleton-between"])
@pytest.mark.parametrize("cap", [1, 5, 7, 24, 100])
def test_grouped_ties_on_both_listings(groups, cap):
    p = grouped_profile(groups)
    res = aggregate_rule(p, "borda_ranking", witness_cap=cap)
    orders = [
        sum(perms, ())
        for perms in itertools.product(*(permutations(sorted(g)) for g in groups))
    ]
    got = [tuple(sorted(p.alternatives, key=dict(zip(p.alternatives, x)).get)) for x in res.levels]
    assert got == orders[:cap]
    assert res.truncated == (cap < len(orders))
    # the divider DP on the same Borda groups: 2-partitions of the induced tournament, and
    # 3-partitions of its acyclic part, against the walk
    t = induce_tournament(p)
    acyclic = cocycle_component(t)
    for exact_k in (False, True):
        kw = dict(all_ties=True, exact_k=exact_k, witness_cap=cap)
        same_result(t, solve_2op(t, **kw), solve_bruteforce(t, 2, **kw))
        same_result(acyclic, solve_acyclic_dp(acyclic, 3, **kw), solve_bruteforce(acyclic, 3, **kw))
