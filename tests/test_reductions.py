import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations, product

import numpy as np
import pytest

from conftest import HUGE_SHAPES, huge_weights
from maxkop import (
    CutInstance,
    GadgetMap,
    OrderedPartition,
    WeightedTournament,
    add_club_vertex,
    build_fg,
    build_hg,
    check_club_identity,
    check_transitive_gadget,
    check_tricut_identity,
    cut_score,
    is_purely_cyclic,
    is_qualitatively_transitive,
    lift_bipartition_fg,
    lift_partition_hg,
    lift_tripartition_hg,
    partition_score,
    project_fg_partition,
    project_partition_hg,
    project_tripartition_hg,
    round_nearest,
    solve_bruteforce,
    solve_cut_bruteforce,
)
from maxkop.formats import format_tournament
from maxkop.selftest import random_graph
from maxkop.solvers import _growth_counts


def unit_graph(verts: str, *edges: str) -> CutInstance:
    return CutInstance(tuple(verts), {(e[0], e[1]): 1 for e in edges})


K3 = unit_graph("abc", "ab", "ac", "bc")
EDGE = CutInstance(("a", "b"), {("a", "b"): 1})


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        ((), {}, "a cut instance needs at least one vertex"),
        (("a", ""), {}, "vertex name must be a nonempty string, got ''"),
        (("a|b", "c"), {}, "vertex name 'a|b' may not contain whitespace, '>' or '|'"),
        (("a", "b", "a"), {}, "vertex names must be distinct"),
        (("a", "b"), {("a", "z"): 1}, "unknown vertex in edge ('a', 'z')"),
        (("a", "b"), {("b", "b"): 1}, "self-loops are not allowed"),
        (("a", "b"), {("a", "b"): -1}, "edge weight must be a nonnegative integer, got -1"),
        (("a", "b"), {("a", "b"): True}, "edge weight must be a nonnegative integer, got True"),
        (("a", "b"), {("a", "b"): 1.0}, "edge weight must be a nonnegative integer, got 1.0"),
        (("a", "b"), {("a", "b"): 1, ("b", "a"): 2}, "duplicate edge {'b', 'a'}"),
    ],
)
def test_cut_instance_errors(vertices, edges, message):
    with pytest.raises(ValueError) as err:
        CutInstance(vertices, edges)
    assert str(err.value) == message


def test_cut_instance_lookup_errors():
    with pytest.raises(ValueError) as err:
        K3.index("z")
    assert str(err.value) == "unknown vertex 'z'"
    with pytest.raises(ValueError) as err:
        K3.edge_weight("a", "z")
    assert str(err.value) == "unknown vertex 'z'"
    with pytest.raises(ValueError) as err:
        K3.edge_weight("b", "b")
    assert str(err.value) == "no self-loops"
    assert K3.edge_weight("c", "a") == K3.edge_weight("a", "c") == 1


def test_cut_score_examples():
    assert cut_score(K3, [{"a"}, {"b", "c"}]) == 2
    assert cut_score(K3, [{"a"}, {"b"}, {"c"}]) == 3
    assert cut_score(K3, [{"a", "b", "c"}]) == 0


def test_cut_score_validates_partition():
    with pytest.raises(ValueError):
        cut_score(K3, [{"a"}, {"b"}])
    with pytest.raises(ValueError):
        cut_score(K3, [{"a"}, {"a", "b", "c"}])
    with pytest.raises(ValueError):
        cut_score(K3, [{"a"}, set(), {"b", "c"}])


def test_cut_bruteforce_examples():
    assert solve_cut_bruteforce(K3, 2)[0] == 2
    assert solve_cut_bruteforce(K3, 3)[0] == 3
    single = CutInstance(("a", "b"), {("a", "b"): 5})
    best, wits = solve_cut_bruteforce(single, 2)
    assert best == 5
    assert wits == [(frozenset({"a"}), frozenset({"b"}))]


def test_cut_bruteforce_needs_a_piece():
    with pytest.raises(ValueError) as err:
        solve_cut_bruteforce(K3, 0)
    assert str(err.value) == "pieces must be at least 1"


@pytest.mark.parametrize("pieces", [True, np.int64(2), 2.5])
def test_piece_count_follows_the_integer_rule(pieces):
    if type(pieces) is np.int64:
        assert solve_cut_bruteforce(K3, pieces) == solve_cut_bruteforce(K3, 2)
        return
    with pytest.raises(TypeError) as err:
        solve_cut_bruteforce(K3, pieces)
    assert str(err.value) == f"pieces must be an integer, got {pieces!r}"


@pytest.mark.parametrize("w", [True, np.int64(2), 2.5])
def test_cut_weight_follows_the_integer_rule(w):
    if type(w) is np.int64:
        g = CutInstance(("a", "b"), {("a", "b"): w})
        assert g.edge_weights == {("a", "b"): 2} and type(g.edge_weight("a", "b")) is int
        assert solve_cut_bruteforce(g, 2)[0] == 2
        return
    with pytest.raises(ValueError) as err:
        CutInstance(("a", "b"), {("a", "b"): w})
    assert str(err.value) == f"edge weight must be a nonnegative integer, got {w!r}"


def test_cut_bruteforce_guard():
    g = CutInstance(tuple("abcdefghij"), {})
    from maxkop import GuardExceededError

    with pytest.raises(GuardExceededError):
        solve_cut_bruteforce(g, 3, guard=10)


def _reference_cuts(g: CutInstance, pieces: int):
    """Every restricted-growth labeling in lexicographic order, scored by cut_score."""
    best, witnesses = -1, []
    for labels in product(range(min(pieces, g.n)), repeat=g.n):
        if any(lab > max(labels[:i], default=-1) + 1 for i, lab in enumerate(labels)):
            continue  # some label appears before a smaller one
        parts = tuple(
            frozenset(v for v, lab in zip(g.vertices, labels) if lab == b)
            for b in range(max(labels) + 1)
        )
        score = cut_score(g, parts)
        if score > best:
            best, witnesses = score, [parts]
        elif score == best:
            witnesses.append(parts)
    return best, witnesses


def _weighted_graph(n: int, weights: str, seed: int) -> CutInstance:
    rng = random.Random(seed)
    draw = {
        "zero": lambda: 0,
        "small": lambda: rng.choice([0, 0, 1, 2, 3]),
        "huge": lambda: rng.choice([0, 1, 2**62, 2**63 + 5]),
    }[weights]
    verts = tuple(f"v{i}" for i in range(n))
    return CutInstance(verts, {(x, y): draw() for x, y in combinations(verts, 2)})


@pytest.mark.parametrize(
    "n, pieces, weights",
    [
        (5, 1, "small"),
        (7, 2, "small"),
        (10, 3, "small"),  # 3 prefix vertices ahead of the 7-vertex suffix
        (9, 3, "huge"),
        (8, 4, "small"),  # 3 prefix vertices ahead of the 5-vertex suffix
        (7, 4, "huge"),
        (6, 6, "small"),
        (5, 8, "small"),
        (6, 3, "zero"),
        (7, 2, "zero"),
    ],
)
def test_cut_bruteforce_matches_reference_enumeration(n, pieces, weights):
    g = _weighted_graph(n, weights, seed=n * 10 + pieces)
    assert solve_cut_bruteforce(g, pieces) == _reference_cuts(g, pieces)


@pytest.mark.parametrize("shape", HUGE_SHAPES)
@pytest.mark.parametrize("n, pieces", [(9, 3), (7, 4)])
def test_cut_walk_matches_reference_enumeration_past_int64(shape, n, pieces):
    # both sizes leave a prefix ahead of the suffix, so the exact prefix tables are carried
    rng = random.Random(f"{shape}-{n}-{pieces}")
    verts = tuple(f"v{i}" for i in range(n))
    g = CutInstance(verts, huge_weights(shape, list(combinations(verts, 2)), rng, nonnegative=True))
    assert solve_cut_bruteforce(g, pieces) == _reference_cuts(g, pieces)


def test_cut_bruteforce_guard_is_the_partition_count():
    from maxkop import GuardExceededError

    g = _weighted_graph(6, "zero", seed=0)
    count = len(_reference_cuts(g, 3)[1])  # every partition ties on zero weights
    assert len(solve_cut_bruteforce(g, 3, guard=count)[1]) == count
    with pytest.raises(GuardExceededError):
        solve_cut_bruteforce(g, 3, guard=count - 1)


def test_cut_bruteforce_guard_counts_partitions_past_int64():
    from maxkop import GuardExceededError

    # S(n, j), Stirling numbers of the second kind: sum_{j <= 3} S(45, j) passes 2**63
    row = [1] + [0] * 3
    for n in range(1, 46):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, 4)]
    count = sum(row)
    assert count >= 2**63
    assert _growth_counts(3, 45)[45, 0] == count  # the walk's own table, in Python ints
    g = CutInstance(tuple(f"v{i}" for i in range(45)), {})
    with pytest.raises(GuardExceededError) as err:
        solve_cut_bruteforce(g, 3, guard=1)
    assert f": {count} " in str(err.value)


def test_build_hg_single_edge():
    g = CutInstance(("a", "b"), {("a", "b"): 3})
    gm = build_hg(g)
    t = gm.tournament
    assert t.m == 4
    assert gm.ordinary == {"a": ("a",), "b": ("b",)}
    d_ab, d_ba = gm.direction[("a", "b")], gm.direction[("b", "a")]
    from maxkop import weight

    for x, y in ((("a"), d_ab), (d_ab, "b"), ("b", d_ba), (d_ba, "a")):
        assert weight(t, x, y) == 3
    assert weight(t, "a", "b") == 0
    assert is_purely_cyclic(t)


def test_build_hg_counts():
    gm = build_hg(K3)
    assert gm.tournament.m == 3 + 6
    assert len(gm.direction) == 6
    assert is_purely_cyclic(gm.tournament)


def test_build_hg_zero_weight_graph():
    g = CutInstance(("a", "b", "c"), {})
    gm = build_hg(g)
    assert gm.tournament.m == 3
    assert all(w == 0 for w in gm.tournament.weights.values())


def test_gadget_vertex_classes_cover_tournament():
    for gm in (build_hg(K3), build_fg(K3)):
        ordinary = {v for names in gm.ordinary.values() for v in names}
        direction = set(gm.direction.values())
        assert ordinary & direction == set()
        assert ordinary | direction == set(gm.tournament.vertices)


def test_build_hg_name_collision():
    g = CutInstance(("a", "b", "d_a_b"), {("a", "b"): 1})
    with pytest.raises(ValueError):
        build_hg(g)


def four_cycle_contribution(w: int, levels: tuple[int, int, int, int]) -> Fraction:
    """Net score of a weight-w 4-cycle under explicit level placements."""
    g = CutInstance(("a", "b"), {("a", "b"): w})
    gm = build_hg(g)
    names = ("a", "b", gm.direction[("a", "b")], gm.direction[("b", "a")])
    blocks = [set(), set(), set()]
    for name, lv in zip(names, levels):
        blocks[lv].add(name)
    p = OrderedPartition.from_blocks([b for b in blocks if b])
    return partition_score(gm.tournament, p)


@pytest.mark.parametrize("w", [1, 2])
def test_four_cycle_three_level_exhaustion(w):
    for la, lb in product(range(3), repeat=2):
        seen = set()
        for ld1, ld2 in product(range(3), repeat=2):
            contrib = four_cycle_contribution(w, (la, lb, ld1, ld2))
            assert contrib in (0, w, -w)
            seen.add(contrib)
        if la == lb:
            assert seen == {0}
        else:
            assert seen == {0, w, -w}


def test_lift_tripartition_scores_the_cut():
    gm = build_hg(K3)
    parts = [{"a"}, {"b"}, {"c"}]
    lifted = lift_tripartition_hg(gm, parts)
    assert partition_score(gm.tournament, lifted) == cut_score(K3, parts) == 3


def test_lift_tripartition_requires_three_pieces():
    gm = build_hg(K3)
    with pytest.raises(ValueError):
        lift_tripartition_hg(gm, [{"a", "b", "c"}])
    with pytest.raises(ValueError):
        lift_tripartition_hg(gm, [{"a"}, {"b"}])
    with pytest.raises(ValueError):
        lift_tripartition_hg(gm, [{"a"}, {"b"}, set()])


def test_lift_project_roundtrip():
    rng = random.Random(61)
    for _ in range(10):
        g = random_graph(rng, 4, 3)
        gm = build_hg(g)
        verts = list(g.vertices)
        rng.shuffle(verts)
        parts = [{verts[0], verts[3]}, {verts[1]}, {verts[2]}]
        lifted = lift_tripartition_hg(gm, parts)
        assert partition_score(gm.tournament, lifted) == cut_score(g, parts)
        back = project_tripartition_hg(gm, lifted)
        assert {frozenset(x) for x in back} == {frozenset(x) for x in parts}


def test_project_never_beats_the_cut():
    # an adversarial placement loses 4-cycle weight; the projected cut keeps it
    gm = build_hg(K3)
    d_ab, d_ba = gm.direction[("a", "b")], gm.direction[("b", "a")]
    others = [gm.direction[e] for e in (("a", "c"), ("c", "a"), ("b", "c"), ("c", "b"))]
    p = OrderedPartition.from_blocks(
        [{"a", d_ba, *others}, {"b", d_ab}, {"c"}]
    )
    score = partition_score(gm.tournament, p)
    back = project_tripartition_hg(gm, p)
    assert cut_score(K3, back) >= score
    assert cut_score(K3, back) > score  # strictly better here


def test_project_block_count_check():
    gm = build_hg(EDGE)
    p = OrderedPartition.from_blocks(
        [[v] for v in gm.tournament.vertices]
    )
    with pytest.raises(ValueError):
        project_tripartition_hg(gm, p)


def test_project_one_block():
    gm = build_hg(K3)
    p = OrderedPartition.from_blocks([gm.tournament.vertices])
    back = project_tripartition_hg(gm, p)
    assert back == (frozenset({"a", "b", "c"}),)
    assert cut_score(K3, back) == 0 == partition_score(gm.tournament, p)


def test_club_vertex_examples():
    gstar, sigma = add_club_vertex(K3)
    assert sigma == 4
    assert solve_cut_bruteforce(gstar, 3)[0] == 3 * 4 + 2 == 14

    gstar, sigma = add_club_vertex(EDGE)
    assert sigma == 2
    assert solve_cut_bruteforce(gstar, 3)[0] == 2 * 2 + 1 == 5

    zero2 = CutInstance(("a", "b"), {})
    gstar, sigma = add_club_vertex(zero2)
    assert sigma == 1
    assert solve_cut_bruteforce(gstar, 3)[0] == 2 * 1 + 0 == 2


def test_club_vertex_name_clash():
    g = CutInstance(("a", "club"), {})
    with pytest.raises(ValueError):
        add_club_vertex(g)


def test_tricut_identity_random_small():
    rng = random.Random(62)
    for _ in range(8):
        g = random_graph(rng, rng.randint(2, 3), 3)
        ok, cut, kop = check_tricut_identity(g)
        assert ok, (cut, kop)


def test_club_identity_random_small():
    rng = random.Random(63)
    for _ in range(8):
        g = random_graph(rng, rng.randint(2, 4), 3)
        ok, tri, expected = check_club_identity(g)
        assert ok, (tri, expected)


def test_k_level_lift_matches_cut_at_four_levels():
    rng = random.Random(64)
    for _ in range(8):
        g = random_graph(rng, 4, 2)
        gm = build_hg(g)
        verts = list(g.vertices)
        rng.shuffle(verts)
        parts = [{v} for v in verts]  # a 4-piece cut
        lifted = lift_partition_hg(gm, parts, levels=4)
        assert partition_score(gm.tournament, lifted) == cut_score(g, parts)


def test_four_level_optimum_can_exceed_the_cut():
    # a single 4-cycle fits into four levels with net contribution twice its
    # weight, so the three-level identity does not extend to four levels
    gm = build_hg(EDGE)
    best4 = solve_bruteforce(gm.tournament, 4).optimum
    cut4 = solve_cut_bruteforce(EDGE, 4)[0]
    assert cut4 == 1
    assert best4 == 2


def test_build_fg_single_edge():
    gm = build_fg(EDGE)
    t = gm.tournament
    assert t.m == 10
    assert gm.placement_weight == 2
    assert gm.tiny_weight == Fraction(1, 1152)
    assert gm.reference_order == ("a", "b")
    assert is_qualitatively_transitive(t)
    from maxkop import weight

    a1, a2, a3, a4 = gm.ordinary["a"]
    assert weight(t, a1, a2) == 2
    assert weight(t, a2, a3) == 4
    assert weight(t, a3, a4) == 2
    d_ab = gm.direction[("a", "b")]
    b2 = gm.ordinary["b"][1]
    assert weight(t, a2, d_ab) == 1
    assert weight(t, d_ab, b2) == 1


def test_build_fg_triangle_constants():
    gm = build_fg(K3)
    assert gm.tournament.m == 18
    assert gm.placement_weight == 4
    assert gm.tiny_weight == Fraction(1, 5832)
    assert is_qualitatively_transitive(gm.tournament)


def test_build_fg_isolated_vertex():
    g = CutInstance(("a",), {})
    gm = build_fg(g)
    t = gm.tournament
    assert t.m == 4
    assert gm.placement_weight == 1
    from maxkop import weight

    a1, a2, a3, a4 = gm.ordinary["a"]
    assert weight(t, a1, a2) == 1
    assert weight(t, a2, a3) == 2
    assert weight(t, a3, a4) == 1
    assert is_qualitatively_transitive(t)


def test_fg_tiny_total_below_half():
    for g in (EDGE, K3, CutInstance(("a",), {})):
        gm = build_fg(g)
        pair_count = gm.tournament.m * (gm.tournament.m - 1) // 2
        heavy = 3 * g.n + 4 * len(g.positive_edges())
        assert (pair_count - heavy) * gm.tiny_weight < Fraction(1, 2)


def test_fg_lift_rounds_to_chain_total_plus_cut():
    gm = build_fg(EDGE)
    lifted = lift_bipartition_fg(gm, [{"a"}, {"b"}])
    assert round_nearest(partition_score(gm.tournament, lifted)) == 13


def test_fg_lift_rejects_degenerate_pieces():
    gm = build_fg(EDGE)
    with pytest.raises(ValueError):
        lift_bipartition_fg(gm, [{"a", "b"}, set()])
    with pytest.raises(ValueError):
        lift_bipartition_fg(gm, [{"a", "b"}])


def test_fg_both_up_scores_chain_total_only():
    # placing both chains up leaves the adjustment arcs without gain
    gm = build_fg(EDGE)
    blocks = [set(), set(), set()]
    for v in ("a", "b"):
        for name, lv in zip(gm.ordinary[v], (0, 0, 1, 2)):
            blocks[lv].add(name)
    blocks[0].update(gm.direction.values())
    p = OrderedPartition.from_blocks(blocks)
    assert round_nearest(partition_score(gm.tournament, p)) == 12


def test_fg_zero_weight_edge_contributes_nothing():
    g = CutInstance(("a", "b"), {("a", "b"): 0})
    gm = build_fg(g)
    assert gm.direction == {}
    lifted = lift_bipartition_fg(gm, [{"a"}, {"b"}])
    assert round_nearest(partition_score(gm.tournament, lifted)) == 3 * 2 * 1


def test_fg_project_roundtrip_and_errors():
    gm = build_fg(EDGE)
    lifted = lift_bipartition_fg(gm, [{"a"}, {"b"}])
    assert project_fg_partition(gm, lifted) == (frozenset({"a"}), frozenset({"b"}))

    scattered = OrderedPartition.from_blocks(
        [[gm.tournament.vertices[0]], list(gm.tournament.vertices[1:])]
    )
    with pytest.raises(ValueError, match="neither up"):
        project_fg_partition(gm, scattered)


def _gadget_errors():
    hg, fg = build_hg(EDGE), build_fg(EDGE)
    hg_all, fg_all = hg.tournament.vertices, fg.tournament.vertices
    blocks = OrderedPartition.from_blocks
    return [
        (lambda: cut_score(K3, []), "expected between 1 and 3 pieces, got 0"),
        (lambda: lift_partition_hg(fg, [{"a"}, {"b"}]),
         "lift_partition_hg needs a 4-cycle gadget map"),
        (lambda: lift_partition_hg(hg, [{"a"}, {"b"}], levels=2),
         "placement needs at least three levels"),
        (lambda: project_partition_hg(fg, blocks([fg_all])),
         "project_partition_hg needs a 4-cycle gadget map"),
        (lambda: project_partition_hg(hg, blocks([hg_all[1:]])),
         "partition must cover the gadget tournament's vertices"),
        (lambda: lift_bipartition_fg(hg, [{"a"}, {"b"}]),
         "lift_bipartition_fg needs a chain gadget map"),
        (lambda: project_fg_partition(hg, blocks([hg_all])),
         "project_fg_partition needs a chain gadget map"),
        (lambda: project_fg_partition(fg, blocks([[v] for v in fg_all[:3]] + [fg_all[3:]])),
         "expected at most 3 blocks, got 4"),
        (lambda: project_fg_partition(fg, blocks([fg_all[1:]])),
         "partition must cover the gadget tournament's vertices"),
    ]


def test_gadget_map_errors():
    for call, message in _gadget_errors():
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


def test_fg_bruteforce_best_projects_to_the_max_cut():
    gm = build_fg(EDGE)
    res = solve_bruteforce(gm.tournament, 3)
    assert round_nearest(res.optimum) == 13
    parts = project_fg_partition(gm, res.witnesses[0])
    assert cut_score(EDGE, parts) == 1


def test_round_nearest():
    assert round_nearest(Fraction(7, 2) + Fraction(1, 10)) == 4
    assert round_nearest(Fraction(12, 1) + Fraction(3, 10)) == 12
    assert round_nearest(Fraction(-5, 4)) == -1
    with pytest.raises(ValueError):
        round_nearest(Fraction(7, 2))


def test_check_transitive_gadget_reports():
    report = check_transitive_gadget(EDGE)
    assert report.ok
    assert report.brute_rounded == report.expected == 13

    report = check_transitive_gadget(K3)
    assert report.transitive and report.tiny_bound_ok and report.lift_identity_ok
    assert report.expected == 3 * 3 * 4 + 2 == 38
    assert report.brute_rounded is None  # 3^18 sits beyond the default guard
    assert report.ok


def test_check_transitive_gadget_skips_one_piece_cuts():
    # with no edge every partition cuts 0, so the maximal cuts include the one-piece
    # partition, which lifts to no bipartition and is left out of the lift check
    g = CutInstance(("a", "b", "c"), {})
    _, cuts = solve_cut_bruteforce(g, 2)
    assert (frozenset("abc"),) in cuts
    report = check_transitive_gadget(g)
    assert report.ok and report.lift_identity_ok
    assert report.brute_rounded == report.expected == 3 * 3 * int(build_fg(g).placement_weight)


def test_check_transitive_gadget_guard_is_the_walk_guard():
    # the EDGE gadget has 10 vertices, so the walk visits 3^10 level vectors
    report = check_transitive_gadget(EDGE, guard=3**10)
    assert report.brute_rounded == report.expected == 13
    report = check_transitive_gadget(EDGE, guard=3**10 - 1)
    assert report.brute_rounded is None
    assert report.lift_identity_ok and report.ok


# ---- the former gadget builders, kept as references ----------------------------------
#
# ``_reference_build_hg`` and ``_reference_build_fg`` keep the bodies that built
# the gadgets arc by arc: one ``Fraction`` per arc through ``_reference_arc_adder``,
# then the ``WeightedTournament`` mapping constructor.  The builders must return
# gadgets equal to theirs in every field and raise the same errors.


def _reference_arc_adder(vertices: tuple[str, ...]):
    index = {v: i for i, v in enumerate(vertices)}
    weights: dict[tuple[str, str], Fraction] = {}
    covered: set[tuple[str, str]] = set()

    def add(u: str, v: str, w: Fraction) -> None:
        key = (u, v) if index[u] < index[v] else (v, u)
        if key in covered:
            raise ValueError(f"pair {{{u!r}, {v!r}}} assigned twice")
        covered.add(key)
        weights[key] = w if key == (u, v) else -w

    return weights, covered, add


def _reference_build_hg(g: CutInstance) -> GadgetMap:
    dir_names: dict[tuple[str, str], str] = {}
    order: list[str] = list(g.vertices)
    for a, b, _ in g.positive_edges():
        for x, y in ((a, b), (b, a)):
            name = f"d_{x}_{y}"
            dir_names[(x, y)] = name
            order.append(name)
    if len(set(order)) != len(order):
        raise ValueError("direction-vertex names collide with existing vertex names")
    vertices = tuple(order)
    weights, _, add = _reference_arc_adder(vertices)
    for a, b, w in g.positive_edges():
        fw = Fraction(w)
        add(a, dir_names[(a, b)], fw)
        add(dir_names[(a, b)], b, fw)
        add(b, dir_names[(b, a)], fw)
        add(dir_names[(b, a)], a, fw)
    tournament = WeightedTournament(vertices, weights)
    return GadgetMap(
        kind="hg",
        tournament=tournament,
        source=g,
        ordinary={v: (v,) for v in g.vertices},
        direction=dir_names,
    )


def _reference_build_fg(g: CutInstance) -> GadgetMap:
    n = g.n
    big = Fraction(1 + g.total_weight())
    eps = Fraction(1, 72 * n**4)
    quads = {a: tuple(f"{a}_{i}" for i in range(1, 5)) for a in g.vertices}
    dir_names: dict[tuple[str, str], str] = {}
    order: list[str] = []
    for a in g.vertices:
        order.extend(quads[a])
    for a, b, _ in g.positive_edges():
        for x, y in ((a, b), (b, a)):
            name = f"d_{x}_{y}"
            dir_names[(x, y)] = name
            order.append(name)
    if len(set(order)) != len(order):
        raise ValueError("gadget vertex names collide")
    vertices = tuple(order)
    index = {v: i for i, v in enumerate(vertices)}

    arcs: list[tuple[str, str, Fraction]] = []
    for a in g.vertices:
        a1, a2, a3, a4 = quads[a]
        arcs.append((a1, a2, big))
        arcs.append((a2, a3, 2 * big))
        arcs.append((a3, a4, big))
    for a, b, w in g.positive_edges():
        fw = Fraction(w)
        a2, a3 = quads[a][1], quads[a][2]
        b2, b3 = quads[b][1], quads[b][2]
        d_ab, d_ba = dir_names[(a, b)], dir_names[(b, a)]
        arcs.append((a2, d_ab, fw))
        arcs.append((d_ab, b2, fw))
        arcs.append((b3, d_ba, fw))
        arcs.append((d_ba, a3, fw))

    succ: dict[str, list[str]] = {v: [] for v in vertices}
    indeg = {v: 0 for v in vertices}
    for u, v, _ in arcs:
        succ[u].append(v)
        indeg[v] += 1
    heap = [index[v] for v in vertices if indeg[v] == 0]
    heapify(heap)
    topo: list[str] = []
    while heap:
        v = vertices[heappop(heap)]
        topo.append(v)
        for w_ in succ[v]:
            indeg[w_] -= 1
            if indeg[w_] == 0:
                heappush(heap, index[w_])
    assert len(topo) == len(vertices)
    topo_pos = {v: i for i, v in enumerate(topo)}

    weights, covered, add = _reference_arc_adder(vertices)
    for u, v, w in arcs:
        add(u, v, w)
    tiny_count = 0
    for x, y in combinations(vertices, 2):
        if (x, y) in covered:
            continue
        tiny_count += 1
        if topo_pos[x] < topo_pos[y]:
            add(x, y, eps)
        else:
            add(y, x, eps)
    if tiny_count * eps >= Fraction(1, 2):
        raise ValueError(
            f"tiny-arc total {tiny_count} * {eps} reaches 1/2; construction is unsound"
        )
    tournament = WeightedTournament(vertices, weights)
    return GadgetMap(
        kind="fg",
        tournament=tournament,
        source=g,
        ordinary=quads,
        direction=dir_names,
        placement_weight=big,
        tiny_weight=eps,
        reference_order=g.vertices,
    )


def _gadget_graph(seed: int) -> CutInstance:
    """Seeded graph of 1-6 vertices: zero, unit, small or heavy weights, some isolated."""
    rng = random.Random(seed)
    n = 1 + seed % 6
    kind = seed // 6 % 5
    draw = {
        0: lambda: 0,
        1: lambda: 1,
        2: lambda: rng.randint(0, 3),
        3: lambda: rng.randint(0, 50),
        4: lambda: rng.choice([0, 1, 50]),
    }[kind]
    names = rng.choice([tuple("abcdef"), ("v0", "x_y", "q", "d", "a_b", "z9")])[:n]
    isolated = {v for v in names if kind == 4 and rng.random() < 0.4}
    edges = {}
    for x, y in combinations(names, 2):
        w = 0 if {x, y} & isolated else draw()
        edges[(x, y) if rng.random() < 0.5 else (y, x)] = w
    return CutInstance(names, edges)


def _gadget_fields(gm: GadgetMap):
    t = gm.tournament
    form = t.integer_form
    return (
        format_tournament(t),
        t.vertices,
        dict(t.weights),
        form.scale,
        form.w.dtype,
        form.w.tolist(),
        form.beta.tolist(),
        gm.kind,
        gm.source,
        list(gm.ordinary.items()),
        list(gm.direction.items()),
        (type(gm.placement_weight), gm.placement_weight),
        (type(gm.tiny_weight), gm.tiny_weight),
        gm.reference_order,
    )


@pytest.mark.parametrize(
    "build, reference",
    [(build_hg, _reference_build_hg), (build_fg, _reference_build_fg)],
    ids=["hg", "fg"],
)
def test_gadget_builders_match_the_arc_by_arc_reference(build, reference):
    for seed in range(300):
        g = _gadget_graph(seed)
        assert _gadget_fields(build(g)) == _gadget_fields(reference(g)), seed


# the edges {a_b, c} and {a, b_c} both name a direction vertex d_a_b_c
_TWO_EDGES_ONE_DIRECTION_NAME = CutInstance(
    ("a_b", "c", "a", "b_c"), {("a_b", "c"): 1, ("a", "b_c"): 1}
)


@pytest.mark.parametrize(
    "build, reference, g",
    [
        (build_hg, _reference_build_hg, CutInstance(("a", "b", "d_a_b"), {("a", "b"): 1})),
        (build_hg, _reference_build_hg, CutInstance(("a", "b", "d_b_a"), {("b", "a"): 2})),
        (build_fg, _reference_build_fg, CutInstance(("a", "1", "d_a"), {("a", "1"): 1})),
        (build_fg, _reference_build_fg, _TWO_EDGES_ONE_DIRECTION_NAME),
        (build_hg, _reference_build_hg, _TWO_EDGES_ONE_DIRECTION_NAME),
    ],
)
def test_gadget_builders_raise_the_reference_collision_error(build, reference, g):
    with pytest.raises(ValueError) as expected:
        reference(g)
    with pytest.raises(ValueError) as err:
        build(g)
    assert str(err.value) == str(expected.value)
