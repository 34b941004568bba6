"""Witnesses as one read-only level table: permutations, results, the chunked formatter, the CLI."""

import hashlib
import math
import random
from fractions import Fraction
from itertools import islice, permutations, product

import numpy as np
import pytest

from maxkop import cli, induce_tournament
from maxkop.formats import _format_levels, format_partition, format_profile, parse_profile
from maxkop.profiles import (
    LINEAR,
    UNIVALENT,
    AggregateResult,
    Profile,
    WeakOrder,
    _permutation_ranks,
    aggregate,
    aggregate_rule,
)
from maxkop.solvers import (
    SolveResult,
    _arrangements,
    solve,
    solve_2op,
    solve_acyclic_dp,
    solve_bruteforce,
    solve_subset_dp,
)
from maxkop.tournament import WeightedTournament

# names out of index order, so sorting by name and by index differ
ALTS = tuple(f"x{(7 * i) % 20}" for i in range(20))


@pytest.mark.parametrize("size", range(1, 11))
def test_first_permutations_match_itertools(size):
    caps = {1, 10_000}
    for r in range(1, min(size, 8) + 1):  # around each r!: where another place starts to vary
        caps |= {math.factorial(r) - 1, math.factorial(r), math.factorial(r) + 1}
    for cap in sorted(c for c in caps if c >= 1):
        want = list(islice(permutations(range(size)), cap))
        got = _permutation_ranks(size, cap)
        fixed = size - got.shape[1]  # the items before these keep their places
        assert got.shape[0] == len(want)
        # per row, each moving item's place among the moving ones in that permutation
        for row, p in zip(got.tolist(), want):
            assert list(p[:fixed]) == list(range(fixed)), (size, cap)
            assert [fixed + x for x in row] == [p.index(v) for v in range(fixed, size)], (size, cap)


@pytest.mark.parametrize("n", range(10))
def test_arrangements_match_itertools(n):
    # every split of n places over up to 4 levels, zero counts among them; one call per level
    # count takes all the splits of its size, so rows with different level sets share a table.
    # The subset tables are wider than n and kept from one call to the next, as in the DP
    tables = [np.zeros((1, n + 2), bool)]
    for kk in range(1, 5):
        splits = [c for c in product(range(n + 1), repeat=kk) if sum(c) == n]
        if n == 9:
            splits = random.Random(kk).sample(splits, min(len(splits), 6))  # 9! permutations each
        table, start = _arrangements(np.array(splits, np.intp).reshape(-1, kk), tables)
        assert table.shape[1] == n
        ends = [*start[1:], len(table)]
        for counts, lo, hi in zip(splits, start, ends):
            items = [b for b, c in enumerate(counts) for _ in range(c)]
            want = sorted(set(permutations(items)))
            assert sorted(map(tuple, table[lo:hi].tolist())) == want, counts


def linear_profile(alts, orders) -> Profile:
    return Profile(alts, [(WeakOrder.from_classes([[a] for a in seq]), 1) for seq in orders])


@pytest.mark.parametrize("cap", [5, 6, 7, 11, 12, 13, 23, 24, 25, 144, 145])
def test_borda_ranking_two_groups_crossing_the_cap(cap):
    # d beats everything; {b, e, a} and {f, c} tie among themselves, the second group
    # (2 orders) varying fastest, so the first group's stride of 2 crosses the cap
    alts = ("d", "b", "e", "a", "f", "c")
    p = linear_profile(
        alts,
        [
            ("d", "b", "e", "a", "f", "c"),
            ("d", "a", "e", "b", "c", "f"),
            ("d", "e", "b", "a", "f", "c"),
            ("d", "a", "b", "e", "c", "f"),
            ("d", "b", "a", "e", "f", "c"),
            ("d", "e", "a", "b", "c", "f"),
        ],
    )
    res = aggregate_rule(p, "borda_ranking", witness_cap=cap)
    expected = [
        ("d", *first, *second)
        for first in permutations(("a", "b", "e"))
        for second in permutations(("c", "f"))
    ]
    got = [tuple(sorted(alts, key=dict(zip(alts, lv)).get)) for lv in res.levels]
    assert got == expected[:cap]
    assert res.truncated == (cap < len(expected))


def _tied_tournament() -> WeightedTournament:
    # a three-cycle on a, b, c plus vertex d beaten by all: cyclic, with ties
    names = ("a", "b", "c", "d", "e")
    w = np.zeros((5, 5), np.int64)
    for x, y, v in [(0, 1, 1), (1, 2, 1), (2, 0, 1), (0, 3, 2), (1, 3, 2), (2, 3, 2), (4, 3, 2)]:
        w[x, y], w[y, x] = v, -v
    return WeightedTournament.from_int_matrix(names, w, 1)


def _acyclic_tournament() -> WeightedTournament:
    beta = np.array([3, 1, 1, -1, -1, -3])  # two tied pairs
    names = tuple("pqrstu")
    return WeightedTournament.from_int_matrix(names, beta[:, None] - beta[None, :], 1)


def _solve_routes():
    cyclic, acyclic = _tied_tournament(), _acyclic_tournament()
    yield cyclic, 3, [solve_bruteforce, solve_subset_dp, solve]
    yield acyclic, 3, [solve_bruteforce, solve_subset_dp, solve_acyclic_dp, solve]
    yield acyclic, 2, [solve_bruteforce, solve_subset_dp, solve_acyclic_dp, solve, solve_2op]


@pytest.mark.parametrize("cap", [1, 3, 100])
def test_solve_results_equal_their_tuple_built_copies(cap):
    for t, k, routes in _solve_routes():
        results = []
        for route in routes:
            kwargs = {"all_ties": True, "witness_cap": cap}
            res = route(t, **kwargs) if route is solve_2op else route(t, k, **kwargs)
            copy = SolveResult(res.optimum, res.vertices, res.levels, res.truncated)
            assert copy == res and hash(copy) == hash(res) and repr(copy) == repr(res)
            results.append(res)
        assert all(r == results[0] and hash(r) == hash(results[0]) for r in results)
    other = SolveResult(res.optimum, res.vertices, res.levels[:-1] + ((9,) * t.m,), res.truncated)
    assert other != res


def test_aggregate_results_equal_their_tuple_built_copies():
    alts = ALTS[:6]
    mirrored = linear_profile(alts, [alts, alts[::-1]])  # every alternative ties
    # x7 tops both added ballots, which otherwise reverse each other: the other five tie
    top = linear_profile(alts, [alts, alts[::-1], alts[1:] + alts[:1], alts[1::-1] + alts[:1:-1]])
    results = [
        aggregate(top, LINEAR, 2),  # through solve
        aggregate(mirrored, 2, UNIVALENT, coerce=True),  # the univalent branch: six winners
        aggregate_rule(top, "borda_ranking"),
        aggregate_rule(top, "borda_ranking", witness_cap=7),
    ]
    assert [len(r.levels) for r in results] == [1, 6, 120, 7]
    for res in results:
        copy = AggregateResult(res.optimum, res.alternatives, res.levels, res.truncated)
        assert copy == res and hash(copy) == hash(res) and repr(copy) == repr(res)
    assert results[2] != results[3]


def test_tables_compare_by_class_fields_and_values():
    alts = ("a", "b", "c")
    p = linear_profile(alts, [alts])
    twice = Profile(alts, [(WeakOrder.from_classes([[a] for a in alts]), 2)])
    agg = aggregate(p, LINEAR, LINEAR)
    res = solve(induce_tournament(p), 3)
    assert p == linear_profile(alts, [alts]) and hash(p) == hash(linear_profile(alts, [alts]))
    assert p != twice and p != linear_profile(alts, [alts[::-1]])
    # the same optimum, names and table under another class
    assert SolveResult(agg.optimum, agg.alternatives, agg.table) == res != agg
    assert AggregateResult(res.optimum, res.vertices, res.table) == agg
    for x in (p, agg, res):
        assert x.__eq__(alts) is NotImplemented and x != alts
        assert all(x != y for y in (p, agg, res) if y is not x)
    assert repr(p) == (
        "Profile(alternatives=('a', 'b', 'c'), ballots=((WeakOrder(classes=("
        "frozenset({'a'}), frozenset({'b'}), frozenset({'c'}))), 1),))"
    )


def test_levels_are_tuples_of_python_ints():
    res = solve(_acyclic_tournament(), 3, all_ties=True)
    agg = aggregate_rule(linear_profile(ALTS[:4], [ALTS[:4], ALTS[3::-1]]), "borda_ranking")
    for levels in (res.levels, agg.levels):
        assert type(levels) is tuple and levels
        assert all(type(lv) is tuple and all(type(x) is int for x in lv) for lv in levels)


def test_stored_table_is_read_only():
    res = solve(_tied_tournament(), 3, all_ties=True)
    agg = aggregate_rule(linear_profile(ALTS[:4], [ALTS[:4], ALTS[3::-1]]), "borda_ranking")
    built = SolveResult(Fraction(0), ("a", "b"), ((0, 1), (1, 0)))
    for table in (res.table, agg.table, built.table):
        assert table.ndim == 2 and table.dtype == np.intp
        with pytest.raises(ValueError):
            table[0, 0] = 1
    with pytest.raises(ValueError):
        SolveResult(Fraction(0), ("a", "b"), ((0, 1, 0),))


def _gap_free_table(rows: int, m: int, seed: int) -> np.ndarray:
    raw = np.random.default_rng(seed).integers(0, min(m, 4), (rows, m))
    # renumber each row's levels 0, 1, ... in increasing order
    used = np.zeros((rows, min(m, 4)), bool)
    used[np.arange(rows)[:, None], raw] = True
    return np.take_along_axis(used.cumsum(1) - 1, raw, 1)


NAMES = ("a", "bb", "c3", "δ", "e_long_name", "f")


@pytest.mark.parametrize("rows", [1, 2047, 2048, 2049, 10_000])
@pytest.mark.parametrize("m", [1, 6])
def test_formatter_chunks_match_per_line_rendering(rows, m):
    names = NAMES[:m]
    table = _gap_free_table(rows, m, seed=rows + m)
    res = SolveResult(Fraction(0), names, table)
    chunks = list(_format_levels(names, res.table, " > ", "witness "))
    assert len(chunks) == -(-rows // 2048)
    assert all(len(c.split("\n")) <= 2048 for c in chunks)
    want = "\n".join(f"witness {format_partition(w, names)}" for w in res.witnesses)
    assert "\n".join(chunks) == want

    agg = AggregateResult(Fraction(0), names, table)
    chunks = list(_format_levels(names, agg.table, " | ", "order "))
    want = "\n".join(
        "order " + " | ".join(" ".join(a for a in names if a in cls) for cls in order.classes)
        for order in agg.orders
    )
    assert "\n".join(chunks) == want


def test_formatter_prints_nothing_for_no_rows():
    assert list(_format_levels(NAMES, np.zeros((0, 6), np.intp), " > ")) == []


def test_format_profile_lines_unchanged():
    ballots = [
        (WeakOrder.from_classes([["c3", "a"], ["δ"], ["bb", "f", "e_long_name"]]), 1),
        (WeakOrder.from_classes([["f"], ["e_long_name"], ["δ"], ["c3"], ["bb"], ["a"]]), 4),
        (WeakOrder.from_classes([NAMES]), 2),
    ]
    p = Profile(NAMES, ballots)
    assert format_profile(p) == (
        "profile 6\na\nbb\nc3\nδ\ne_long_name\nf\n"
        "a c3 | δ | bb e_long_name f\n"
        "f | e_long_name | δ | c3 | bb | a × 4\n"
        "a bb c3 δ e_long_name f × 2\n"
    )
    assert parse_profile(format_profile(p)) == p


def _mirrored_dichotomous() -> Profile:
    ballots = []
    for b in range(9):
        top = [a for i, a in enumerate(ALTS) if i * (b + 1) % 11 < 4]
        rest = [a for a in ALTS if a not in top]
        ballots += [(WeakOrder.from_classes(c), b + 1) for c in ([top, rest], [rest, top])]
    return Profile(ALTS, ballots)


def _mirrored_linear() -> Profile:
    orders = []
    for b in range(5):
        seq = sorted(ALTS, key=lambda a: (ALTS.index(a) * (2 * b + 3) + b) % 20)
        orders += [seq, seq[::-1]]
    return linear_profile(ALTS, orders)


# sha256 of the CLI's stdout before witnesses were carried as one table (10,000 order lines)
@pytest.mark.parametrize(
    "profile, argv, digest",
    [
        (_mirrored_dichotomous, ["--j", "2", "--k", "2"],
         "1ff7f63a1a94ae32d9db2d4e6c684245df53439bb1774549d739891a6c1633e7"),
        (_mirrored_linear, ["--rule", "borda_ranking"],
         "1de924dbf432248ffca0149913c6ae289980cffdb35e2463a9dd13d68e010ed0"),
    ],
)
def test_tie_shapes_print_the_former_lines(capsys, tmp_path, profile, argv, digest):
    p = profile()
    path = tmp_path / "p.txt"
    path.write_text(format_profile(p))
    assert cli.main(["aggregate", *argv, str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    res = aggregate(p, 2, 2) if "--j" in argv else aggregate_rule(p, "borda_ranking")
    assert induce_tournament(p).integer_form.beta.tolist() == [0] * 20
    assert res.truncated and len(res.levels) == 10_000
    head = ["optimum 0"] if "--j" in argv else []
    lines = [
        "order " + " | ".join(" ".join(a for a in ALTS if a in cls) for cls in order.classes)
        for order in res.orders
    ]
    assert out.splitlines() == head + lines + ["orders truncated"]
