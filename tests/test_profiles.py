import random
from fractions import Fraction

import numpy as np
import pytest

from maxkop import (
    LINEAR,
    NAMED_RULES,
    UNIVALENT,
    Profile,
    WeakOrder,
    WeightedTournament,
    aggregate,
    aggregate_rule,
    borda_mean_rule,
    borda_score,
    cycle_component,
    induce_tournament,
    jk_kemeny,
    mean_rule,
    named_rule,
    realize_weights,
    validate_ballots,
)
from maxkop.profiles import _class_bound
from maxkop.selftest import random_profile, random_tournament, vertex_names


def wo(*classes):
    return WeakOrder.from_classes(classes)


def profile(alts, *ballots):
    entries = []
    for b in ballots:
        if isinstance(b, tuple) and len(b) == 2 and isinstance(b[1], int):
            entries.append(b)
        else:
            entries.append((b, 1))
    return Profile(tuple(alts), tuple(entries))


def order_set(orders):
    return {tuple(frozenset(c) for c in o.classes) for o in orders}


def test_weak_order_validation():
    with pytest.raises(ValueError):
        WeakOrder(())
    with pytest.raises(ValueError):
        wo(["a"], [])
    with pytest.raises(ValueError):
        wo(["a"], ["a", "b"])


def test_profile_validation():
    with pytest.raises(ValueError):
        profile("ab")  # no ballots
    with pytest.raises(ValueError):
        profile("ab", wo(["a"]))  # ballot misses b
    with pytest.raises(ValueError):
        Profile(("a", "b"), ((wo(["a"], ["b"]), 0),))


def test_profile_counts_a_bare_weak_order_once():
    a_b, b_a = wo(["a"], ["b"]), wo(["b"], ["a"])
    p = Profile(("a", "b"), [a_b, (b_a, 2), a_b])
    assert p.ballots == ((a_b, 1), (b_a, 2), (a_b, 1))
    assert p.voter_count == 4


@pytest.mark.parametrize("name", ["a>b", "x|y", "|", "a b", ""])
def test_profile_rejects_bad_alternative_names_before_repeats(name):
    with pytest.raises(ValueError) as err:
        Profile(("c", name, name), [wo(["c", name])])
    assert str(err.value).startswith("vertex name ")


def test_induce_single_strict_ballot():
    p = profile("ab", wo(["a"], ["b"]))
    assert induce_tournament(p).weights[("a", "b")] == 1


def test_induce_indifference_cancels():
    p = profile("ab", wo(["a", "b"]))
    assert induce_tournament(p).weights[("a", "b")] == 0


def test_induce_two_ballot_single_arc():
    # the canonical two-ballot pattern: weight 2 on one arc, 0 elsewhere
    p = profile(
        "wxyz",
        wo(["w"], ["x"], ["y", "z"]),
        wo(["y", "z"], ["w"], ["x"]),
    )
    t = induce_tournament(p)
    assert t.weights[("w", "x")] == 2
    assert all(w == 0 for pair, w in t.weights.items() if pair != ("w", "x"))


def test_induce_needs_two_alternatives():
    with pytest.raises(ValueError):
        induce_tournament(Profile(("a",), ((wo(["a"]), 1),)))


def test_induce_counts_multiplicities():
    p = profile("ab", (wo(["a"], ["b"]), 3), (wo(["b"], ["a"]), 1))
    assert induce_tournament(p).weights[("a", "b")] == 2


def test_jk_2_univalent_is_approval_winner():
    p = profile("abc", (wo(["a", "b"], ["c"]), 2), (wo(["a"], ["b", "c"]), 1))
    orders = jk_kemeny(p, 2, UNIVALENT)
    assert order_set(orders) == {(frozenset({"a"}), frozenset({"b", "c"}))}


def test_jk_linear_univalent_is_borda_winner():
    p = profile("abc", wo(["a"], ["b"], ["c"]), wo(["b"], ["a"], ["c"]))
    t = induce_tournament(p)
    scores = {x: borda_score(t, x) for x in "abc"}
    best = max(scores.values())
    orders = jk_kemeny(p, LINEAR, UNIVALENT)
    winners = {next(iter(o.classes[0])) for o in orders}
    assert winners == {x for x, s in scores.items() if s == best} == {"a", "b"}


def test_jk_33_on_single_arc_profile():
    p = profile(
        "wxyz",
        wo(["w"], ["x"], ["y", "z"]),
        wo(["y", "z"], ["w"], ["x"]),
    )
    res = aggregate(p, 3, 3)
    assert res.optimum == 2
    for o in res.orders:
        rank = o.rank_of()
        assert rank["w"] < rank["x"]
    # of the 51 ordered partitions of 4 items into at most 3 blocks,
    # 13 put w and x together and the rest split evenly by symmetry
    assert len(res.orders) == 19


def test_jk_validates_ballot_shapes():
    p = profile("abc", wo(["a"], ["b"], ["c"]))
    with pytest.raises(ValueError, match="ballot 0"):
        jk_kemeny(p, 2, 2)
    assert jk_kemeny(p, 2, 2, coerce=True)  # validation skipped


def test_mean_rule_above_vs_below_average():
    p = profile("abc", (wo(["a", "b"], ["c"]), 2))
    orders = mean_rule(p)
    assert order_set(orders) == {(frozenset({"a", "b"}), frozenset({"c"}))}


def test_mean_rule_unanimity():
    p = profile("ab", wo(["a"], ["b"]), wo(["a"], ["b"]))
    assert order_set(mean_rule(p)) == {(frozenset({"a"}), frozenset({"b"}))}


def test_mean_rule_all_indifferent():
    p = profile("ab", wo(["a", "b"]))
    orders = mean_rule(p)
    assert (frozenset({"a", "b"}),) in order_set(orders)
    assert len(orders) == 3


def test_mean_rule_rejects_non_dichotomous():
    p = profile("abc", wo(["a"], ["b"], ["c"]))
    with pytest.raises(ValueError):
        mean_rule(p)


def test_borda_mean_single_ballot():
    p = profile("abc", wo(["a"], ["b"], ["c"]))
    orders = borda_mean_rule(p)
    assert order_set(orders) == {
        (frozenset({"a"}), frozenset({"b", "c"})),
        (frozenset({"a", "b"}), frozenset({"c"})),
    }


def test_borda_mean_opposed_ballots_all_tie():
    p = profile("abc", wo(["a"], ["b"], ["c"]), wo(["c"], ["b"], ["a"]))
    orders = borda_mean_rule(p)
    # zero tournament: every 1- or 2-block order ties at 0
    assert len(orders) == 1 + 6
    assert (frozenset({"a", "b", "c"}),) in order_set(orders)


def test_borda_mean_majority_example():
    p = profile(
        "abc",
        (wo(["a"], ["b"], ["c"]), 2),
        (wo(["b"], ["c"], ["a"]), 1),
    )
    t = induce_tournament(p)
    # brute force over the six 2-partitions plus the trivial one
    from maxkop import solve_bruteforce

    bf = solve_bruteforce(t, 2, all_ties=True)
    orders = borda_mean_rule(p)
    assert order_set(orders) == {w.blocks for w in bf.witnesses}


def test_named_rule_approval_winner():
    p = profile("abc", wo(["a", "b"], ["c"]), wo(["a"], ["b", "c"]))
    orders = named_rule(p, "approval_winner")
    assert {next(iter(o.classes[0])) for o in orders} == {"a"}


def test_named_rule_plurality_winner():
    p = profile("abc", (wo(["a"], ["b", "c"]), 2), (wo(["b"], ["a", "c"]), 1))
    orders = named_rule(p, "plurality_winner")
    assert {next(iter(o.classes[0])) for o in orders} == {"a"}


def test_named_rule_rejects_wrong_shape():
    p = profile("abc", wo(["a", "b"], ["c"]))
    with pytest.raises(ValueError):
        named_rule(p, "plurality_winner")
    with pytest.raises(ValueError):
        named_rule(p, "unknown_rule")


def realize_linear(w: WeightedTournament) -> Profile:
    """Linear-ballot profile inducing exactly twice the integer weights."""
    ballots = []
    for (x, y), value in w.weights.items():
        c = int(value)
        if c == 0:
            continue
        hi, lo = (x, y) if c > 0 else (y, x)
        rest = [v for v in w.vertices if v not in (hi, lo)]
        first = [[hi], [lo]] + [[r] for r in rest]
        second = [[r] for r in reversed(rest)] + [[hi], [lo]]
        ballots.append((WeakOrder.from_classes(first), abs(c)))
        ballots.append((WeakOrder.from_classes(second), abs(c)))
    if not ballots:
        order = [[v] for v in w.vertices]
        ballots.append((WeakOrder.from_classes(order), 1))
        ballots.append((WeakOrder.from_classes(reversed(order)), 1))
    return Profile(w.vertices, tuple(ballots))


def test_linear_realization_induces_twice_the_weights():
    rng = random.Random(51)
    for _ in range(20):
        w = random_tournament(rng, rng.randint(3, 5), -3, 3)
        induced = induce_tournament(realize_linear(w))
        for pair in w.stored_pairs():
            assert induced.weights[pair] == 2 * w.weights[pair]


def test_kemeny_equals_borda_ranking_when_acyclic():
    rng = random.Random(52)
    for _ in range(10):
        m = rng.randint(3, 5)
        verts = vertex_names(m)
        pot = {v: rng.randint(0, 3) for v in verts}
        w = WeightedTournament(
            verts,
            {
                (verts[i], verts[j]): pot[verts[i]] - pot[verts[j]]
                for i in range(m)
                for j in range(i + 1, m)
            },
        )
        p = realize_linear(w)
        induced = induce_tournament(p)
        assert all(v == 0 for v in cycle_component(induced).weights.values())
        kemeny = named_rule(p, "kemeny_ranking")
        borda = named_rule(p, "borda_ranking")
        assert order_set(kemeny) == order_set(borda)
        assert all(len(o.classes) == m for o in kemeny)


def test_borda_ranking_orders_by_score():
    p = profile("abc", wo(["a"], ["b"], ["c"]), wo(["a"], ["c"], ["b"]))
    orders = named_rule(p, "borda_ranking")
    assert order_set(orders) == {
        (frozenset({"a"}), frozenset({"b"}), frozenset({"c"})),
        (frozenset({"a"}), frozenset({"c"}), frozenset({"b"})),
    }


def test_realize_weights_single_arc_pattern():
    w = WeightedTournament(("v1", "v2", "v3", "v4"), {("v1", "v2"): 1})
    p = realize_weights(w)
    assert p.voter_count == 2
    induced = induce_tournament(p)
    assert induced.weights[("v1", "v2")] == 2
    assert all(v == 0 for pair, v in induced.weights.items() if pair != ("v1", "v2"))
    assert all(len(o.classes) == 3 for o, _ in p.ballots)


def test_realize_weights_zero():
    w = WeightedTournament.zeros(("a", "b", "c"))
    p = realize_weights(w)
    assert p.voter_count >= 1
    induced = induce_tournament(p)
    assert all(v == 0 for v in induced.weights.values())


def test_realize_weights_roundtrip_random():
    rng = random.Random(53)
    for _ in range(25):
        w = random_tournament(rng, rng.randint(3, 6), -5, 5)
        induced = induce_tournament(realize_weights(w))
        for pair in w.stored_pairs():
            assert induced.weights[pair] == 2 * w.weights[pair]


def test_realize_weights_preconditions():
    with pytest.raises(ValueError):
        realize_weights(WeightedTournament(("a", "b"), {("a", "b"): 1}))
    with pytest.raises(ValueError):
        realize_weights(
            WeightedTournament(("a", "b", "c"), {("a", "b"): Fraction(1, 2)})
        )


def test_scale_invariance_of_outcomes():
    rng = random.Random(54)
    for _ in range(10):
        m = rng.randint(2, 4)
        p = random_profile(rng, m, rng.randint(1, 4), 2)
        doubled = Profile(
            p.alternatives, tuple((o, 3 * n) for o, n in p.ballots)
        )
        for k in (2, UNIVALENT):
            a = jk_kemeny(p, 2, k)
            b = jk_kemeny(doubled, 2, k)
            assert order_set(a) == order_set(b)


def test_univalent_output_reports_all_tied_winners():
    p = profile("ab", wo(["a"], ["b"]), wo(["b"], ["a"]))
    orders = jk_kemeny(p, UNIVALENT, UNIVALENT)
    assert order_set(orders) == {
        (frozenset({"a"}), frozenset({"b"})),
        (frozenset({"b"}), frozenset({"a"})),
    }


def test_validate_ballots_level_specs():
    p = profile("abc", wo(["a"], ["b", "c"]))
    validate_ballots(p, 2)
    validate_ballots(p, 3)  # class counts are bounded, not pinned
    with pytest.raises(ValueError):
        validate_ballots(p, LINEAR)
    validate_ballots(p, UNIVALENT)
    q = profile("abc", wo(["a", "b"], ["c"]))
    with pytest.raises(ValueError):
        validate_ballots(q, UNIVALENT)
    r = profile("abc", wo(["a"], ["b"], ["c"]))
    with pytest.raises(ValueError):
        validate_ballots(r, 2)
    validate_ballots(r, LINEAR)


def test_invalid_level_specs_are_named():
    p = profile("abc", wo(["a"], ["b", "c"]))
    with pytest.raises(ValueError) as err:
        validate_ballots(p, "two")
    assert str(err.value) == "invalid level spec 'two'"
    for k in ("two", 0):
        with pytest.raises(ValueError) as err:
            aggregate(p, 2, k)
        assert str(err.value) == f"invalid level spec {k!r}"


def test_bool_level_specs_are_invalid():
    p = profile("abc", wo(["a"], ["b", "c"]))
    calls = (lambda: aggregate(p, 2, True), lambda: aggregate(p, True, 2),
             lambda: validate_ballots(p, True))
    for call in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == "invalid level spec True"


def test_numpy_integer_level_specs_are_taken_as_ints():
    p = profile("abcd", wo(["a"], ["b", "c"], ["d"]), wo(["d", "c"], ["a", "b"]))
    validate_ballots(p, np.int64(3))
    with pytest.raises(ValueError) as err:
        validate_ballots(p, np.int32(2))
    assert str(err.value).endswith("is not a weak order with at most 2 classes")
    for j, k in ((np.int64(3), np.int64(2)), (3, np.uint8(3)), (np.int16(3), 4)):
        res = aggregate(p, j, k, exact_k=True)
        ref = aggregate(p, int(j), int(k), exact_k=True)
        assert (res.optimum, res.levels, res.truncated) == (ref.optimum, ref.levels, ref.truncated)
    for k in (np.int64(0), np.bool_(True), np.float64(2.0)):
        with pytest.raises(ValueError) as err:
            aggregate(p, 3, k)
        assert str(err.value) == f"invalid level spec {k!r}"
        with pytest.raises(ValueError) as err:
            validate_ballots(p, k)
        assert str(err.value) == f"invalid level spec {k!r}"


@pytest.mark.parametrize("spec", [True, np.int64(2), 2.5])
def test_level_spec_follows_the_integer_rule(spec):
    p = profile("abc", wo(["a"], ["b", "c"]), wo(["c"], ["a", "b"]))
    if type(spec) is np.int64:
        assert _class_bound(spec) == 2 and type(_class_bound(spec)) is int
        res, ref = aggregate(p, spec, spec), aggregate(p, 2, 2)
        assert (res.optimum, res.levels, res.truncated) == (ref.optimum, ref.levels, ref.truncated)
        return
    for call in (lambda: aggregate(p, 2, spec), lambda: validate_ballots(p, spec)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"invalid level spec {spec!r}"


@pytest.mark.parametrize("count", [True, np.int64(2), 2.5])
def test_ballot_multiplicity_follows_the_integer_rule(count):
    ballot = wo(["a"], ["b"])
    if type(count) is np.int64:
        p = Profile(("a", "b"), [(ballot, count)])
        assert p.counts == (2,) and type(p.counts[0]) is int
        assert p == Profile(("a", "b"), [(ballot, 2)])
        return
    with pytest.raises(TypeError) as err:
        Profile(("a", "b"), [(ballot, count)])
    assert str(err.value) == f"ballot multiplicity must be an integer, got {count!r}"


def test_profile_needs_a_ballot():
    with pytest.raises(ValueError) as err:
        Profile(("a", "b"), [])
    assert str(err.value) == "a profile needs at least one ballot"


# three dichotomous ballots, one per top alternative: all three are tied winners
TIED_TOPS = profile("abc", wo(["a"], ["b", "c"]), wo(["b"], ["a", "c"]), wo(["c"], ["a", "b"]))


@pytest.mark.parametrize("cap", [1, 2, 3, 4])
def test_univalent_output_keeps_the_least_orders_at_the_witness_cap(cap):
    res = aggregate(TIED_TOPS, 2, UNIVALENT, witness_cap=cap)
    every = ((0, 1, 1), (1, 0, 1), (1, 1, 0))  # in lexicographic order
    assert res.optimum == 0  # every Borda score is 0
    assert res.levels == every[:cap]
    assert res.truncated == (cap < 3)


@pytest.mark.parametrize("cap", [0, -3])
@pytest.mark.parametrize("rule", NAMED_RULES)
def test_every_rule_rejects_a_witness_cap_below_one(rule, cap):
    with pytest.raises(ValueError) as err:
        aggregate_rule(TIED_TOPS, rule, coerce=True, witness_cap=cap)
    assert str(err.value) == "witness_cap must be at least 1"
