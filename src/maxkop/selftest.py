"""Seeded random instance generators and the self-check property suite.

Every generator takes an explicit ``random.Random`` so runs are reproducible
from a printed seed.  The suite cross-checks the fast solver routes against
exhaustive search and the gadget constructions against their cut identities,
at sizes small enough to finish in seconds.
"""

from __future__ import annotations

import random
from typing import Callable

from .decomposition import cocycle_component, decompose, inner_product
from .profiles import (
    LINEAR,
    UNIVALENT,
    Profile,
    WeakOrder,
    induce_tournament,
    named_rule,
    realize_weights,
)
from .reductions import (
    CutInstance,
    check_club_identity,
    check_transitive_gadget,
    check_tricut_identity,
)
from .solvers import (
    DEFAULT_GUARD,
    solve_2op,
    solve_acyclic_dp,
    solve_bruteforce,
    solve_subset_dp,
)
from .tournament import (
    OrderedPartition,
    WeightedTournament,
    _integer,
    borda_score,
    is_quantitatively_transitive,
    partition_score,
)

_NAMES = "abcdefghijklmnopqrstuvwxyz"


def vertex_names(m: int) -> tuple[str, ...]:
    if m <= len(_NAMES):
        return tuple(_NAMES[:m])
    return tuple(f"v{i}" for i in range(m))


def random_tournament(
    rng: random.Random, m: int, lo: int = -9, hi: int = 9
) -> WeightedTournament:
    verts = vertex_names(m)
    weights = {
        (verts[i], verts[j]): rng.randint(lo, hi)
        for i in range(m)
        for j in range(i + 1, m)
    }
    return WeightedTournament(verts, weights)


def random_acyclic_tournament(
    rng: random.Random, m: int, lo: int = -9, hi: int = 9
) -> WeightedTournament:
    """Difference-generated weights from random integer potentials."""
    verts = vertex_names(m)
    pot = {v: rng.randint(lo, hi) for v in verts}
    weights = {
        (verts[i], verts[j]): pot[verts[i]] - pot[verts[j]]
        for i in range(m)
        for j in range(i + 1, m)
    }
    return WeightedTournament(verts, weights)


def random_graph(rng: random.Random, n: int, max_weight: int = 3) -> CutInstance:
    verts = vertex_names(n)
    edges = {
        (verts[i], verts[j]): rng.randint(0, max_weight)
        for i in range(n)
        for j in range(i + 1, n)
    }
    return CutInstance(verts, edges)


def random_weak_order(rng: random.Random, alternatives: tuple[str, ...], classes: int) -> WeakOrder:
    m = len(alternatives)
    if not 1 <= classes <= m:
        raise ValueError(f"cannot split {m} alternatives into {classes} classes")
    shuffled = list(alternatives)
    rng.shuffle(shuffled)
    cuts = sorted(rng.sample(range(1, m), classes - 1))
    bounds = [0] + cuts + [m]
    return WeakOrder.from_classes(
        shuffled[bounds[i] : bounds[i + 1]] for i in range(classes)
    )


def random_profile(
    rng: random.Random,
    m: int,
    ballots: int,
    shape: object,
) -> Profile:
    """Profile of `ballots` random ballots of the given level shape."""
    alts = vertex_names(m)
    entries = []
    for _ in range(ballots):
        if shape == LINEAR:
            order = random_weak_order(rng, alts, m)
        elif shape == UNIVALENT:
            shuffled = list(alts)
            rng.shuffle(shuffled)
            order = WeakOrder.from_classes([shuffled[:1], shuffled[1:]])
        else:
            order = random_weak_order(rng, alts, int(shape))  # type: ignore[arg-type]
        entries.append((order, rng.randint(1, 3)))
    return Profile(alts, tuple(entries))


def _all_two_partitions(verts: tuple[str, ...]):
    m = len(verts)
    for mask in range(1, (1 << m) - 1):
        top = [verts[i] for i in range(m) if mask >> i & 1]
        bottom = [verts[i] for i in range(m) if not mask >> i & 1]
        yield OrderedPartition.from_blocks([top, bottom])


def _prop_decomposition(rng: random.Random, guard: int) -> int:
    for _ in range(40):
        t = random_tournament(rng, rng.randint(2, 7))
        d = decompose(t)
        for pair in t.stored_pairs():
            assert d.cycle.weights[pair] + d.cocycle.weights[pair] == t.weights[pair]
        assert inner_product(d.cycle, d.cocycle) == 0
        assert is_quantitatively_transitive(d.cocycle)
    return 40


def _prop_two_level_blindness(rng: random.Random, guard: int) -> int:
    for _ in range(25):
        t = random_tournament(rng, rng.randint(2, 5))
        co = cocycle_component(t)
        for p in _all_two_partitions(t.vertices):
            assert partition_score(t, p) == partition_score(co, p)
    return 25


def _prop_acyclic_dp_oracle(rng: random.Random, guard: int) -> int:
    for _ in range(25):
        t = random_acyclic_tournament(rng, rng.randint(2, 6), -2, 2)  # close potentials tie
        for k in (2, 3):
            args = dict(all_ties=True, witness_cap=rng.randint(1, 8))
            dp, bf = solve_acyclic_dp(t, k, **args), solve_bruteforce(t, k, guard=guard, **args)
            assert (dp.optimum, dp.levels, dp.truncated) == (bf.optimum, bf.levels, bf.truncated), (
                f"divider DP and walk differ on m={t.m}, k={k}, cap={args['witness_cap']}"
            )
    return 25


def _prop_two_level_solver(rng: random.Random, guard: int) -> int:
    for _ in range(25):
        t = random_tournament(rng, rng.randint(2, 6))
        assert solve_2op(t).optimum == solve_bruteforce(t, 2, guard=guard).optimum
    return 25


def _prop_subset_dp_oracle(rng: random.Random, guard: int) -> int:
    for _ in range(25):
        t = random_tournament(rng, rng.randint(1, 6), -2, 2)
        k = rng.randint(1, t.m + 1)
        exact_k = k <= t.m and rng.random() < 0.5
        cap = rng.randint(1, 8)
        args = dict(all_ties=True, exact_k=exact_k, guard=guard, witness_cap=cap)
        dp, bf = solve_subset_dp(t, k, **args), solve_bruteforce(t, k, **args)
        assert (dp.optimum, dp.levels, dp.truncated) == (bf.optimum, bf.levels, bf.truncated), (
            f"subset DP and walk differ on m={t.m}, k={k}, exact_k={exact_k}, cap={cap}"
        )
    return 25


def _prop_tricut_identity(rng: random.Random, guard: int) -> int:
    for _ in range(6):
        g = random_graph(rng, rng.randint(2, 3))
        ok, cut, kop = check_tricut_identity(g, guard=guard)
        assert ok, f"tricut {cut} != ordered-partition optimum {kop}"
    return 6


def _prop_club_identity(rng: random.Random, guard: int) -> int:
    for _ in range(8):
        g = random_graph(rng, rng.randint(2, 4))
        ok, tri, expected = check_club_identity(g, guard=guard)
        assert ok, f"tricut of augmented graph {tri} != {expected}"
    return 8


def _prop_transitive_gadget(rng: random.Random, guard: int) -> int:
    single = CutInstance(("a", "b"), {("a", "b"): 1})
    report = check_transitive_gadget(single, guard=guard)
    assert report.ok, report
    triangle = CutInstance(
        ("a", "b", "c"), {("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1}
    )
    report = check_transitive_gadget(triangle, guard=min(guard, 10**4))
    assert report.transitive and report.tiny_bound_ok and report.lift_identity_ok, report
    return 2


def _prop_rule_coherence(rng: random.Random, guard: int) -> int:
    for _ in range(15):
        m = rng.randint(2, 5)
        p = random_profile(rng, m, rng.randint(1, 5), 2)
        t = induce_tournament(p)
        approval = {
            a: sum(n for order, n in p.ballots if a in order.classes[0])
            for a in p.alternatives
        }
        best = max(approval.values())
        winners = {next(iter(o.classes[0])) for o in named_rule(p, "approval_winner")}
        assert winners == {a for a, s in approval.items() if s == best}
        # n ballots with top class T add n * (m * [a in T] - |T|) to a's Borda score
        tops = sum(n * len(order.classes[0]) for order, n in p.ballots)
        assert all(borda_score(t, a) == m * s - tops for a, s in approval.items())
    for _ in range(15):
        m = rng.randint(2, 5)
        p = random_profile(rng, m, rng.randint(1, 5), UNIVALENT)
        tallies = {
            a: sum(n for order, n in p.ballots if a in order.classes[0])
            for a in p.alternatives
        }
        best = max(tallies.values())
        winners = {next(iter(o.classes[0])) for o in named_rule(p, "plurality_winner")}
        assert winners == {a for a, s in tallies.items() if s == best}
    for _ in range(15):
        m = rng.randint(2, 5)
        p = random_profile(rng, m, rng.randint(1, 5), LINEAR)
        t = induce_tournament(p)
        scores = {a: borda_score(t, a) for a in p.alternatives}
        best = max(scores.values())
        winners = {next(iter(o.classes[0])) for o in named_rule(p, "borda_winner")}
        assert winners == {a for a, s in scores.items() if s == best}
    return 45


def _prop_realization_roundtrip(rng: random.Random, guard: int) -> int:
    for _ in range(20):
        w = random_tournament(rng, rng.randint(3, 5), -4, 4)
        induced = induce_tournament(realize_weights(w))
        for pair in w.stored_pairs():
            assert induced.weights[pair] == 2 * w.weights[pair]
    return 20


PROPERTIES: tuple[tuple[str, Callable[[random.Random, int], int]], ...] = (
    ("decomposition-reconstruction", _prop_decomposition),
    ("two-level-cycle-blindness", _prop_two_level_blindness),
    ("acyclic-dp-oracle-equivalence", _prop_acyclic_dp_oracle),
    ("two-level-solver-oracle", _prop_two_level_solver),
    ("subset-dp-oracle-equivalence", _prop_subset_dp_oracle),
    ("tricut-gadget-identity", _prop_tricut_identity),
    ("club-vertex-identity", _prop_club_identity),
    ("transitive-gadget-checks", _prop_transitive_gadget),
    ("rule-score-coherence", _prop_rule_coherence),
    ("realization-roundtrip", _prop_realization_roundtrip),
)


def run_selftest(
    seed: int = 0, guard: int = DEFAULT_GUARD, emit: Callable[[str], None] = print
) -> int:
    """Run every property; returns 0 on all-pass, 3 on any failure.

    GuardExceededError propagates to the caller.
    """
    guard = _integer(guard, "guard", 1)
    emit(f"seed {seed}")
    failures = 0
    for name, prop in PROPERTIES:
        rng = random.Random(f"{seed}:{name}")
        try:
            cases = prop(rng, guard)
        except AssertionError as exc:
            failures += 1
            emit(f"FAIL {name}: {exc}")
        else:
            emit(f"PASS {name} ({cases} cases)")
    emit(f"{len(PROPERTIES) - failures}/{len(PROPERTIES)} properties passed")
    return 0 if failures == 0 else 3
