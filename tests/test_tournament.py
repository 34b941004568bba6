import random
import sys
from fractions import Fraction

import pytest

from conftest import add_weights
from maxkop import (
    OrderedPartition,
    WeightedTournament,
    borda_score,
    cycle_component,
    difference_generator,
    is_quantitatively_transitive,
    is_qualitatively_transitive,
    partition_score,
    weight,
)
from maxkop.selftest import random_tournament


def test_weight_reversal():
    t = WeightedTournament(("a", "b"), {("a", "b"): 5})
    assert weight(t, "a", "b") == 5
    assert weight(t, "b", "a") == -5


def test_weight_zero_is_its_own_negation():
    t = WeightedTournament(("a", "b"), {("a", "b"): 0})
    assert weight(t, "b", "a") == 0


def test_weight_three_cycle(three_cycle):
    assert weight(three_cycle, "a", "c") == -1
    assert weight(three_cycle, "c", "a") == 1


def test_weight_errors(three_cycle):
    with pytest.raises(ValueError):
        weight(three_cycle, "a", "a")
    with pytest.raises(ValueError):
        weight(three_cycle, "a", "z")


def test_construction_normalizes_orientation():
    t = WeightedTournament(("a", "b", "c"), {("c", "a"): Fraction(1, 2)})
    assert t.weights[("a", "c")] == Fraction(-1, 2)
    assert weight(t, "c", "a") == Fraction(1, 2)


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        WeightedTournament((), {})
    with pytest.raises(ValueError):
        WeightedTournament(("a", "a"), {})
    with pytest.raises(ValueError):
        WeightedTournament(("a", "b"), {("a", "a"): 1})
    with pytest.raises(ValueError):
        WeightedTournament(("a", "b"), {("a", "z"): 1})
    with pytest.raises(ValueError):
        WeightedTournament(("a", "b"), {("a", "b"): 1, ("b", "a"): 2})
    with pytest.raises(TypeError):
        WeightedTournament(("a", "b"), {("a", "b"): 0.5})
    with pytest.raises(ValueError):
        WeightedTournament(("a", "b c"), {})
    with pytest.raises(ValueError):
        WeightedTournament(("a", "b>c"), {})


def test_partition_validation():
    with pytest.raises(ValueError):
        OrderedPartition(())
    with pytest.raises(ValueError):
        OrderedPartition.from_blocks([["a"], []])
    with pytest.raises(ValueError):
        OrderedPartition.from_blocks([["a"], ["a", "b"]])


def test_figure_one_score(figure_one):
    t, p = figure_one
    assert partition_score(t, p) == 4


def test_partition_score_zero_weights():
    t = WeightedTournament.zeros(("a", "b", "c", "d"))
    p = OrderedPartition.from_blocks([["a", "c"], ["b"], ["d"]])
    assert partition_score(t, p) == 0


def test_partition_score_three_cycle(three_cycle):
    p = OrderedPartition.from_blocks([["a"], ["b"], ["c"]])
    assert partition_score(three_cycle, p) == 1


def test_partition_score_requires_cover(three_cycle):
    with pytest.raises(ValueError):
        partition_score(three_cycle, OrderedPartition.from_blocks([["a"], ["b"]]))
    with pytest.raises(ValueError):
        partition_score(
            three_cycle, OrderedPartition.from_blocks([["a"], ["b"], ["c"], ["d"]])
        )


def test_borda_three_cycle(three_cycle):
    assert all(borda_score(three_cycle, v) == 0 for v in "abc")


def test_borda_single_arc():
    t = WeightedTournament(("a", "b"), {("a", "b"): 5})
    assert borda_score(t, "a") == 5
    assert borda_score(t, "b") == -5


def test_borda_star():
    t = WeightedTournament(("a", "b", "c"), {("a", "b"): 2, ("a", "c"): 3, ("b", "c"): 0})
    assert borda_score(t, "a") == 5


def test_borda_unknown_vertex(three_cycle):
    with pytest.raises(ValueError):
        borda_score(three_cycle, "z")


def test_quantitative_transitivity():
    assert is_quantitatively_transitive(WeightedTournament.zeros(("a", "b", "c")))
    cyc = WeightedTournament(("a", "b", "c"), {("a", "b"): 1, ("b", "c"): 1, ("c", "a"): 1})
    assert not is_quantitatively_transitive(cyc)
    dg = WeightedTournament(
        ("a", "b", "c"), {("a", "b"): 2, ("a", "c"): 3, ("b", "c"): 1}
    )  # potentials 3, 1, 0
    assert is_quantitatively_transitive(dg)


def test_qualitative_transitivity(three_cycle):
    assert is_qualitatively_transitive(WeightedTournament.zeros(("a", "b", "c")))
    assert not is_qualitatively_transitive(three_cycle)
    linearish = WeightedTournament(
        ("a", "b", "c"), {("a", "b"): 1, ("a", "c"): 5, ("b", "c"): 2}
    )
    assert is_qualitatively_transitive(linearish)


def test_difference_generator_single_arc():
    t = WeightedTournament(("a", "b"), {("a", "b"): 4})
    assert difference_generator(t) == {"a": Fraction(2), "b": Fraction(-2)}


def test_difference_generator_zero():
    t = WeightedTournament.zeros(("a", "b", "c"))
    assert difference_generator(t) == {v: 0 for v in "abc"}


def test_difference_generator_absent_on_cycle(three_cycle):
    assert difference_generator(three_cycle) is None


def test_single_vertex_degenerate():
    t = WeightedTournament(("a",), {})
    assert is_quantitatively_transitive(t)
    assert is_qualitatively_transitive(t)
    assert borda_score(t, "a") == 0
    assert partition_score(t, OrderedPartition.from_blocks([["a"]])) == 0
    assert difference_generator(t) == {"a": 0}


def test_antisymmetry_random():
    rng = random.Random(11)
    for _ in range(30):
        t = random_tournament(rng, rng.randint(2, 7))
        for x, y in t.stored_pairs():
            assert weight(t, x, y) == -weight(t, y, x)


def test_borda_sums_to_zero_random():
    rng = random.Random(12)
    for _ in range(30):
        t = random_tournament(rng, rng.randint(2, 7))
        assert sum(borda_score(t, x) for x in t.vertices) == 0


def test_score_linearity_random():
    rng = random.Random(13)
    for _ in range(20):
        m = rng.randint(2, 6)
        t1 = random_tournament(rng, m)
        t2 = random_tournament(rng, m)
        both = add_weights(t1, t2)
        verts = list(t1.vertices)
        rng.shuffle(verts)
        cut = rng.randint(1, m)
        p = OrderedPartition.from_blocks(
            [verts[:cut], verts[cut:]] if cut < m else [verts]
        )
        assert partition_score(both, p) == partition_score(t1, p) + partition_score(t2, p)


def test_reversing_blocks_negates_score_random():
    rng = random.Random(14)
    for _ in range(20):
        m = rng.randint(2, 7)
        t = random_tournament(rng, m)
        verts = list(t.vertices)
        rng.shuffle(verts)
        cuts = sorted(rng.sample(range(1, m), rng.randint(0, m - 1)))
        bounds = [0] + cuts + [m]
        p = OrderedPartition.from_blocks(
            verts[bounds[i] : bounds[i + 1]] for i in range(len(bounds) - 1)
        )
        assert partition_score(t, p.reversed()) == -partition_score(t, p)


def test_transitivity_generator_cycle_equivalence_random():
    rng = random.Random(15)
    for _ in range(40):
        m = rng.randint(2, 6)
        t = random_tournament(rng, m, -3, 3)
        qt = is_quantitatively_transitive(t)
        gen = difference_generator(t)
        cyc_zero = all(w == 0 for w in cycle_component(t).weights.values())
        assert qt == (gen is not None) == cyc_zero


def test_reserved_name_characters_are_whitespace_and_the_separators():
    # the name check's pattern must reject exactly what str.isspace, '>' and '|' reject
    from maxkop.tournament import _RESERVED_CHAR

    chars = map(chr, range(sys.maxunicode + 1))
    assert [c for c in chars if bool(_RESERVED_CHAR.search(c)) != (c.isspace() or c in ">|")] == []


def test_arc_weights_len_and_repr(three_cycle):
    assert len(WeightedTournament.zeros("abcd").weights) == 6
    assert len(three_cycle.weights) == 3
    assert repr(three_cycle.weights) == (
        "{('a', 'b'): Fraction(1, 1), ('a', 'c'): Fraction(-1, 1), ('b', 'c'): Fraction(1, 1)}"
    )
