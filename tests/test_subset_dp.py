"""The subset dynamic program against the exhaustive walk, and the planner that picks between them."""

import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import scale_weights
from maxkop import (
    GuardExceededError,
    WeightedTournament,
    aggregate,
    induce_tournament,
    solve,
    solve_bruteforce,
    solve_subset_dp,
)
from maxkop.profiles import LINEAR, UNIVALENT, Profile, WeakOrder
from maxkop.selftest import random_profile, random_tournament
from maxkop import solvers
from maxkop.solvers import _route, _subset_cells


def assert_same(got, want):
    assert got.optimum == want.optimum
    assert got.levels == want.levels
    assert got.truncated == want.truncated


def assert_matches_walk(t, k, exact_k, cap):
    """The subset DP agrees with the walk under ``cap`` and on the single canonical witness."""
    walk = solve_bruteforce(t, k, all_ties=True, exact_k=exact_k, witness_cap=cap)
    assert_same(solve_subset_dp(t, k, all_ties=True, exact_k=exact_k, witness_cap=cap), walk)
    one = solve_subset_dp(t, k, exact_k=exact_k)
    assert (one.optimum, one.levels, one.truncated) == (walk.optimum, walk.levels[:1], False)
    return walk


@pytest.mark.parametrize("m", range(1, 9))
def test_matches_walk_for_every_k(m):
    rng = random.Random(800 + m)
    t = random_tournament(rng, m, -2, 2)
    for k in range(1, m + 2):
        for exact_k in (False, True) if k <= m else (False,):
            assert_matches_walk(t, k, exact_k, rng.randint(1, 12))


def test_caps_cross_truncation():
    rng = random.Random(81)
    seen = set()
    for _ in range(6):
        t = random_tournament(rng, 6, -1, 1)
        for k, exact_k in ((3, False), (4, True), (6, True)):
            for cap in range(1, 13):
                seen.add(assert_matches_walk(t, k, exact_k, cap).truncated)
    assert seen == {False, True}


def test_zero_weights():
    t = WeightedTournament.zeros(tuple("abcdef"))
    for k, exact_k in ((3, False), (4, True), (6, True), (7, False)):
        for cap in (1, 5, 100, 5000):
            assert_matches_walk(t, k, exact_k, cap)


@pytest.mark.parametrize(
    "scale, dtype",
    [(Fraction(2**63), object), (Fraction(2**64 + 1, 3), object), (Fraction(1, 2**70), "int64")],
)
def test_huge_weights_and_denominators(scale, dtype):
    # scaled weights past 2**62 put the integer form on Python ints; a 2**70
    # denominator lands in the scale
    rng = random.Random(82)
    for m, k, exact_k in ((5, 5, True), (6, 4, True), (6, 4, False), (7, 7, True)):
        t = scale_weights(random_tournament(rng, m, -1, 1), scale)
        assert t.integer_form.w.dtype == dtype
        assert_matches_walk(t, k, exact_k, 7)


def mirrored_linear_profile(m):
    """One linear ballot and its reversal: every linear order ties at 0."""
    alts = tuple("abcdefghijklmn"[:m])
    order = WeakOrder.from_classes([[a] for a in alts])
    reverse = WeakOrder.from_classes([[a] for a in reversed(alts)])
    return Profile(alts, ((order, 1), (reverse, 1)))


def test_mirrored_linear_profile_counts_past_the_cap():
    # all 7! = 5040 linear orders tie, so caps below that walk the vertices
    t = induce_tournament(mirrored_linear_profile(7))
    for cap in (1, 37, 5039, 5040, 5041):
        walk = solve_bruteforce(t, 7, all_ties=True, exact_k=True, witness_cap=cap)
        assert walk.truncated == (cap < 5040)
        assert_same(solve_subset_dp(t, 7, all_ties=True, exact_k=True, witness_cap=cap), walk)


def test_guard_counts_cells():
    t = random_tournament(random.Random(83), 8, -3, 3)
    cells = _subset_cells(8, 8, True)
    assert cells == 2 * 8 * 2**7  # each of the m * 2**(m-1) splits, forward and back
    assert solve_subset_dp(t, 8, exact_k=True, guard=cells).optimum is not None
    with pytest.raises(GuardExceededError, match=f"subset dynamic program: {cells} cells.* {cells - 1}"):
        solve_subset_dp(t, 8, exact_k=True, guard=cells - 1)


def test_route_by_estimated_work(three_cycle):
    cyclic = random_tournament(random.Random(84), 9, -3, 3)
    assert _route(cyclic, 2, False) == ("2op", None)
    acyclic = WeightedTournament(("a", "b", "c"), {("a", "b"): 1, ("a", "c"): 2, ("b", "c"): 1})
    assert _route(acyclic, 3, False) == ("divider", None)
    # at most 3 levels: 3**m level vectors against about 2 * 3**m cells
    assert _route(cyclic, 3, False) == ("walk", 3**9)
    assert _route(three_cycle, 3, False) == ("walk", 27)  # against 44 cells
    # linear orders: 27 level vectors against 2 * 3 * 2**2 cells, the walk's per-call cost the lower
    assert _route(three_cycle, 3, True) == ("walk", 27)
    assert _route(cyclic, 4, True) == ("subset", _subset_cells(9, 4, True))
    assert _route(cyclic, 9, True) == ("subset", 2 * 9 * 2**8)
    assert _route(cyclic, 1, False) == ("walk", 1)  # one level vector; 2 cells


def test_route_by_modeled_time():
    # the benchmark's exponential shapes: Kemeny at m = 5-7, k = 4 with exact_k at m = 8-9
    rng = random.Random(89)
    for m, want in ((5, ("walk", 5**5)), (6, ("walk", 6**6)), (7, ("subset", 2 * 7 * 2**6))):
        t = induce_tournament(random_profile(rng, m, 9, LINEAR))
        assert _route(t, m, True) == want
    for m, scale, want in (
        (8, 1, ("walk", 4**8)),  # against 20,024 cells
        (8, Fraction(2**63), ("walk", 4**8)),  # past 2**62: the rounded walk, object cells
        (9, 1, ("subset", _subset_cells(9, 4, True))),  # 65,316 cells against 262,144 vectors
    ):
        t = scale_weights(random_tournament(rng, m, -6, 6), scale)
        assert t.integer_form.w.dtype == (np.int64 if scale == 1 else object)
        assert _route(t, 4, True) == want


def test_guard_falls_back_to_the_route_that_fits():
    # Kemeny at m = 5 is modeled faster on the walk, whose 3125 level vectors exceed a guard
    # of 1000 that the subset program's 160 cells fit
    t = induce_tournament(random_profile(random.Random(89), 5, 9, LINEAR))
    assert _route(t, 5, True, guard=1000) == ("subset", 160)
    assert_same(
        solve(t, 5, exact_k=True, all_ties=True, guard=1000),
        solve_bruteforce(t, 5, exact_k=True, all_ties=True),
    )
    # when neither fits, the modeled faster route refuses, naming itself
    assert _route(t, 5, True, guard=159) == ("walk", 3125)
    with pytest.raises(GuardExceededError) as err:
        solve(t, 5, exact_k=True, guard=159)
    assert str(err.value) == "exhaustive walk: 3125 level vectors exceed the guard of 159"


def test_solve_guard_names_the_chosen_route():
    t = random_tournament(random.Random(85), 8, -3, 3)
    with pytest.raises(GuardExceededError, match="exhaustive walk: 6561 level vectors"):
        solve(t, 3, guard=100)
    with pytest.raises(GuardExceededError, match="subset dynamic program: 2048 cells"):
        solve(t, 8, exact_k=True, guard=100)
    assert_same(solve(t, 8, exact_k=True, all_ties=True), solve_subset_dp(t, 8, exact_k=True, all_ties=True))


ROUTE_CASES = {  # route: (tournament seed, m, k, exact_k)
    "2op": (90, 6, 2, False),
    "divider": (None, 6, 3, False),
    "walk": (91, 6, 3, False),
    "subset": (92, 7, 7, True),  # at m = 6 an int64 form is modeled faster on the walk for any k
}


@pytest.mark.parametrize("route", ROUTE_CASES)
def test_solve_validates_the_request_on_every_route(route):
    # solve leaves validation to the route it picks, ahead of that route's guard
    seed, m, k, exact_k = ROUTE_CASES[route]
    if seed is None:  # acyclic: differences of vertex potentials
        pot = np.array([3, 1, 4, 1, 5, 9])
        t = WeightedTournament.from_int_matrix(tuple("abcdef"), pot[:, None] - pot, 1)
    else:
        t = random_tournament(random.Random(seed), m, -3, 3)
    assert _route(t, k, exact_k)[0] == route
    with pytest.raises(ValueError, match="^witness_cap must be at least 1$"):
        solve(t, k, exact_k=exact_k, guard=1, witness_cap=0)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="^k must be at least 1$"):
            solve(t, bad, exact_k=exact_k, guard=1)


def test_uncached_plan_matches_the_cached_one(monkeypatch):
    t = random_tournament(random.Random(88), 7, -2, 2)
    cached = solve_subset_dp(t, 4, all_ties=True, exact_k=True, witness_cap=50)
    monkeypatch.setattr(solvers, "_PLAN_CACHE_CELLS", 0)
    info = solvers._cached_subset_plan.cache_info()
    assert_same(solve_subset_dp(t, 4, all_ties=True, exact_k=True, witness_cap=50), cached)
    assert solvers._cached_subset_plan.cache_info() == info  # built afresh, the cache untouched


def test_solve_matches_walk_on_both_routes():
    rng = random.Random(86)
    taken = set()
    for _ in range(10):
        t = random_tournament(rng, rng.randint(3, 7), -1, 1)
        for k, exact_k in ((3, False), (4, False), (t.m, True)):
            route = _route(t, k, exact_k)[0]
            if route in ("walk", "subset"):
                taken.add(route)
                assert_same(
                    solve(t, k, all_ties=True, exact_k=exact_k, witness_cap=9),
                    solve_bruteforce(t, k, all_ties=True, exact_k=exact_k, witness_cap=9),
                )
    assert taken == {"walk", "subset"}


def test_kemeny_at_14_alternatives():
    p = random_profile(random.Random(87), 14, 9, LINEAR)
    t = induce_tournament(p)
    assert _route(t, 14, True)[0] == "subset"
    res = aggregate(p, LINEAR, LINEAR)
    assert all(sorted(lv) == list(range(14)) for lv in res.levels)


SPECS = (2, UNIVALENT, 3, 4, LINEAR)


def aggregate_route(p, k):
    """The route ``aggregate(p, j, k)`` takes."""
    if k == UNIVALENT:
        return "univalent"
    t = induce_tournament(p)
    return _route(t, t.m, True)[0] if k == LINEAR else _route(t, k, False)[0]


@pytest.mark.parametrize("j", SPECS)
@pytest.mark.parametrize("k", SPECS)
def test_paper_threshold_of_the_routes(j, k):
    # (j, k)-Kemeny is polynomial when ballots or outputs have two levels or
    # a single top, and NP-hard from j = k = 3 on; 20 random profiles per cell
    rng = random.Random(f"{j}:{k}")
    easy = j in (2, UNIVALENT) or k in (2, UNIVALENT)
    for _ in range(20):
        route = aggregate_route(random_profile(rng, 6, rng.randint(4, 9), j), k)
        assert route in (("2op", "divider", "univalent") if easy else ("walk", "subset"))
