"""Weak-order ballots, their induced tournaments, and ordered-partition voting rules.

A profile of weak orders induces a weighted tournament whose arc weights are
net majorities.  The family of rules implemented here aggregates j-chotomous
ballots into the k-chotomous weak order(s) of maximal partition score on that
tournament; familiar rules (approval, plurality, Borda, mean rule, Borda mean
rule, Kemeny) appear at particular (j, k) choices.

Both ends keep integer forms and build objects only when read.  A
``Profile`` stores a rank matrix over its alternatives plus the ballot
multiplicities; ``induce_tournament`` and ``validate_ballots`` work on that
matrix, and its ``ballots`` derive the ``WeakOrder`` objects.  An
``AggregateResult`` stores its orders as one read-only table of level vectors
over the alternatives and builds tuples (``levels``) and ``WeakOrder``
objects (``orders``) only when read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .solvers import DEFAULT_GUARD, DEFAULT_WITNESS_CAP, _levels, solve
from .tournament import (
    WeightedTournament,
    _form_dtype,
    _integer,
    _level_blocks,
    _IntegerTable,
    _LevelTableResult,
    _ordered_blocks,
    _vertex_index,
)

#: Level spec meaning "as many classes as alternatives" (linear orders).
LINEAR = "linear"
#: Level spec meaning dichotomous with a singleton top class.
UNIVALENT = "univalent"

LevelSpec = int | str

#: dtype of a profile's rank matrix (one fixed dtype keeps equal profiles' hashes equal)
RANK_DTYPE = np.int32

NAMED_RULES = (
    "approval_ranking",
    "approval_winner",
    "plurality_ranking",
    "plurality_winner",
    "borda_ranking",
    "borda_winner",
    "kemeny_ranking",
)


@dataclass(frozen=True)
class WeakOrder:
    """Disjoint nonempty indifference classes, best first; see ``_ordered_blocks``."""

    classes: tuple[frozenset[str], ...]

    def __post_init__(self) -> None:
        classes = _ordered_blocks(self.classes, "a weak order", "class", "classes")
        object.__setattr__(self, "classes", classes)

    @classmethod
    def from_classes(cls, classes: Iterable[Iterable[str]]) -> "WeakOrder":
        return cls(tuple(classes))

    def rank_of(self) -> dict[str, int]:
        return {a: i for i, c in enumerate(self.classes) for a in c}

    def members(self) -> frozenset[str]:
        return frozenset().union(*self.classes)


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Profile(_IntegerTable):
    """Multiset of weak-order ballots over a common alternative set.

    The stored form is the alternatives, the rank matrix ``ranks`` (one row
    per ballot line; ``ranks[b, a]`` is the class of ``alternatives[a]`` in
    ballot b, 0 the best class) and the multiplicities ``counts``.
    ``ballots`` derives the ``(WeakOrder, count)`` pairs from them on first
    access.  The constructor takes those pairs (or bare ``WeakOrder``s, each
    counted once); ``parse_profile`` fills the rank matrix directly.  Equal
    profiles have equal alternatives, rank matrices and counts.
    """

    _table = "ranks"

    alternatives: tuple[str, ...]
    ranks: np.ndarray
    counts: tuple[int, ...]

    def __init__(
        self,
        alternatives: Iterable[str],
        ballots: Iterable[WeakOrder | tuple[WeakOrder, int]],
    ) -> None:
        alternatives = tuple(alternatives)
        members = _vertex_index(alternatives, None).keys()
        rows, counts = [], []
        for entry in ballots:
            order, count = (entry, 1) if isinstance(entry, WeakOrder) else entry
            count = _integer(count, "ballot multiplicity", 1)
            if order.members() != members:
                raise ValueError(_coverage_error(order))
            rank = order.rank_of()
            rows.append([rank[a] for a in alternatives])
            counts.append(count)
        self._store(alternatives, np.array(rows, RANK_DTYPE), tuple(counts))

    @classmethod
    def _of_ranks(
        cls, alternatives: tuple[str, ...], ranks: np.ndarray, counts: tuple[int, ...]
    ) -> "Profile":
        """Profile of a checked rank matrix: every row gap-free, every count a positive int.

        The one check left is the one ``_store`` makes: at least one ballot.
        """
        p = cls.__new__(cls)
        p._store(alternatives, ranks, counts)
        return p

    def _store(self, alternatives: tuple[str, ...], ranks: np.ndarray, counts: tuple) -> None:
        if not counts:
            raise ValueError("a profile needs at least one ballot")
        ranks = ranks.astype(RANK_DTYPE, copy=False)
        ranks.flags.writeable = False
        object.__setattr__(self, "alternatives", alternatives)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "counts", counts)

    @cached_property
    def ballots(self) -> tuple[tuple[WeakOrder, int], ...]:
        return tuple(
            (_order_of(self.alternatives, row), n)
            for row, n in zip(self.ranks.tolist(), self.counts)
        )

    @property
    def voter_count(self) -> int:
        return sum(self.counts)

    def __repr__(self) -> str:
        return f"Profile(alternatives={self.alternatives!r}, ballots={self.ballots!r})"


@dataclass(frozen=True, init=False, eq=False, repr=False)
class AggregateResult(_LevelTableResult):
    """Winning weak orders plus the score they achieve on the induced tournament.

    ``table`` holds the orders as a read-only integer table of level vectors
    over ``alternatives`` (``table[i, a]`` is the class of ``alternatives[a]``
    in the i-th order, 0 the best class); ``levels`` and ``orders``
    (``WeakOrder`` objects) derive from it (see ``_LevelTableResult``).
    ``truncated`` marks that further tied orders were dropped.
    """

    optimum: Fraction
    alternatives: tuple[str, ...]
    table: np.ndarray
    truncated: bool

    @cached_property
    def orders(self) -> tuple[WeakOrder, ...]:
        return tuple(_order_of(self.alternatives, lv) for lv in self.table.tolist())


def _render_order(order: WeakOrder) -> str:
    return " | ".join(" ".join(sorted(c)) for c in order.classes)


def _coverage_error(order: WeakOrder) -> str:
    return f"ballot {_render_order(order)!r} does not cover the alternatives exactly"


def _order_of(alternatives: tuple[str, ...], row: Sequence[int]) -> WeakOrder:
    """The weak order a gap-free rank row stands for."""
    return WeakOrder(tuple(_level_blocks(alternatives, row)))


def induce_tournament(p: Profile) -> WeightedTournament:
    """Net-majority tournament: arc (x, y) weighs supporters of x minus of y."""
    m = len(p.alternatives)
    if m < 2:
        raise ValueError("inducing a tournament needs at least two alternatives")
    # sum(abs(w)) <= m**2 * voters, so the fill cannot wrap in this dtype
    dtype = _form_dtype(2 * m**3 * p.voter_count)
    # the narrowest dtype holding every rank difference keeps the sign table small
    ranks = p.ranks.astype(np.min_scalar_type(-m))
    counts = np.array(p.counts, dtype)
    w = np.zeros((m, m), dtype)
    step = max(1, 2**16 // m**2)  # ballots per pass, bounding the sign table
    for lo in range(0, len(ranks), step):
        r = ranks[lo : lo + step]
        # sign[b, x, y] is +1 when ballot b ranks x above y, -1 when below
        w += np.tensordot(counts[lo : lo + step], np.sign(r[:, None, :] - r[:, :, None]), 1)
    return WeightedTournament.from_int_matrix(p.alternatives, w, 1)


def _spec_description(spec: LevelSpec) -> str:
    if spec == LINEAR:
        return "a linear order"
    if spec == UNIVALENT:
        return "univalent dichotomous (two classes, singleton top)"
    return f"a weak order with at most {spec} classes"


def _conforms(ranks: np.ndarray, spec: LevelSpec) -> np.ndarray:
    """Which rows of a rank matrix are ballots of the level spec."""
    # a fixed integer bounds the class count; fully indifferent ballots are
    # admitted as degenerate cases (the mean rule's all-approved ballot)
    classes = ranks.max(1) + 1
    if spec == LINEAR:
        return classes == ranks.shape[1]
    if spec == UNIVALENT:
        return (classes == 2) & ((ranks == 0).sum(1) == 1)
    return classes <= _class_bound(spec)


def _class_bound(spec: LevelSpec) -> int:
    """A fixed-integer level spec as a Python int: any integer type but bool, at least 1."""
    try:
        return _integer(spec, "level spec", 1)
    except (TypeError, ValueError):
        raise ValueError(f"invalid level spec {spec!r}") from None


def validate_ballots(p: Profile, j: LevelSpec) -> None:
    bad = np.flatnonzero(~_conforms(p.ranks, j))
    if len(bad):
        i = int(bad[0])
        order = _order_of(p.alternatives, p.ranks[i].tolist())
        raise ValueError(
            f"ballot {i} ({_render_order(order)!r}) is not "
            f"{_spec_description(j)}"
        )


def aggregate(
    p: Profile,
    j: LevelSpec,
    k: LevelSpec,
    *,
    exact_k: bool = False,
    coerce: bool = False,
    guard: int = DEFAULT_GUARD,
    witness_cap: int = DEFAULT_WITNESS_CAP,
) -> AggregateResult:
    """Aggregate j-chotomous ballots into the optimal k-chotomous weak order(s).

    ``coerce`` skips ballot validation; ``exact_k`` insists on exactly k
    classes in the output when k is a fixed integer (a linear-order k always
    has exactly one class per alternative, and a univalent k is enumerated
    over singleton-top 2-partitions directly).
    """
    guard = _integer(guard, "guard", 1)
    if not coerce:
        validate_ballots(p, j)
    t = induce_tournament(p)
    m = t.m

    if k == UNIVALENT:
        # the score of a singleton-top 2-partition is exactly the Borda score
        # of its winner, so only the m such partitions need scoring
        _levels(m, 2, False, witness_cap)  # the solver routes' request check
        beta = t.integer_form.beta
        top = max(beta.tolist())
        # winners in vertex order give their level vectors in lexicographic order
        winners = np.flatnonzero(beta == top)
        levels = np.arange(m) != winners[:witness_cap, None]
        return AggregateResult(
            Fraction(top, t.integer_form.scale), t.vertices, levels, len(winners) > witness_cap
        )

    if k == LINEAR:
        kk, exact = m, True
    else:
        kk, exact = _class_bound(k), exact_k

    res = solve(t, kk, all_ties=True, exact_k=exact, guard=guard, witness_cap=witness_cap)
    return AggregateResult(res.optimum, res.vertices, res.table, res.truncated)


def jk_kemeny(
    p: Profile,
    j: LevelSpec,
    k: LevelSpec,
    *,
    exact_k: bool = False,
    coerce: bool = False,
    guard: int = DEFAULT_GUARD,
    witness_cap: int = DEFAULT_WITNESS_CAP,
) -> list[WeakOrder]:
    return list(
        aggregate(
            p, j, k, exact_k=exact_k, coerce=coerce, guard=guard, witness_cap=witness_cap
        ).orders
    )


def mean_rule(p: Profile, **kwargs) -> list[WeakOrder]:
    """Dichotomous ballots to the optimal 2-partition(s): above-mean over below-mean."""
    return jk_kemeny(p, 2, 2, **kwargs)


def borda_mean_rule(p: Profile, **kwargs) -> list[WeakOrder]:
    """Linear ballots to the optimal 2-partition(s), driven by Borda scores."""
    return jk_kemeny(p, LINEAR, 2, **kwargs)


def _permutation_ranks(size: int, n: int) -> np.ndarray:
    """How the first min(n, size!) permutations of range(size) place the items that move.

    The permutations are taken in lexicographic order, the order of
    ``itertools.permutations``.  Only the last r items move, r the least with
    r! >= n (at most size); the others keep their places.  Row i holds, for
    each of the r, its place among the last r in the i-th permutation.  The
    table is built block by block, one item count i at a time: the
    permutations of i items that start with item a place a first and the
    other items, in order, one place later than the table of i - 1 items.
    """
    r = 0
    while r < size and math.factorial(r) < n:
        r += 1
    rows = min(n, math.factorial(r))
    ranks = np.zeros((1, 0), np.intp)
    for i in range(1, r + 1):
        blocks = min(i, -(-rows // len(ranks)))  # only the blocks the first rows reach
        later = ranks + 1
        grown = np.empty((blocks, len(ranks), i), np.intp)
        for a in range(blocks):  # three slice copies per block
            grown[a, :, :a] = later[:, :a]
            grown[a, :, a] = 0
            grown[a, :, a + 1 :] = later[:, a:]
        ranks = grown.reshape(-1, i)
    return ranks[:rows]


def _borda_ranking(p: Profile, witness_cap: int) -> AggregateResult:
    """All linear orders consistent with sorting by Borda score, best first.

    Alternatives of equal Borda score are permuted in every way, the group of
    the highest score outermost and each group's permutations in the order
    ``itertools.permutations`` gives them on its alternatives sorted by name.
    Every row starts as the first order; then, group by group, the columns
    that move take the group's offset plus the rows of ``_permutation_ranks``.
    """
    t = induce_tournament(p)
    _levels(t.m, t.m, True, witness_cap)  # the solver routes' request check
    form = t.integer_form
    beta = form.beta.tolist()
    groups: list[list[int]] = []
    for v in sorted(range(t.m), key=lambda v: (-beta[v], v)):
        if groups and beta[groups[-1][0]] == beta[v]:
            groups[-1].append(v)
        else:
            groups.append([v])
    groups = [sorted(g, key=t.vertices.__getitem__) for g in groups]
    top = [v for g in groups for v in g]
    count = math.prod(math.factorial(len(g)) for g in groups)
    n = min(count, witness_cap)
    # levels[r, v]: the place of alternative v in the r-th order; the last group varies fastest
    levels = np.empty((n, t.m), np.intp)
    levels[:] = np.argsort(top)
    rows = np.arange(n)
    end, stride = t.m, 1
    for g in reversed(groups):
        if len(g) > 1 and stride < n:
            ranks = _permutation_ranks(len(g), -(-n // stride))
            if stride > 1 or len(ranks) < n:
                ranks = ranks[rows // stride % len(ranks)]
            levels[:, g[len(g) - ranks.shape[1] :]] = end - ranks.shape[1] + ranks
        end -= len(g)
        stride *= math.factorial(len(g))
    # the score every best linear order achieves: the weight above its diagonal
    optimum = Fraction(int(np.triu(form.w[np.ix_(top, top)], 1).sum()), form.scale)
    return AggregateResult(optimum, t.vertices, levels, count > witness_cap)


def aggregate_rule(
    p: Profile,
    rule: str,
    *,
    coerce: bool = False,
    guard: int = DEFAULT_GUARD,
    witness_cap: int = DEFAULT_WITNESS_CAP,
) -> AggregateResult:
    """Classic rules as (j, k) choices of the aggregation family.

    approval uses dichotomous ballots, plurality univalent ones, and the
    Borda/Kemeny rules linear ones.  ``borda_ranking`` sorts by Borda score
    directly (the family yields Borda winners, not a full Borda ranking) and
    lists tied orders group by group (see ``_borda_ranking``), not by level
    vector.
    """
    guard = _integer(guard, "guard", 1)
    pairs: Mapping[str, tuple[LevelSpec, LevelSpec]] = {
        "approval_ranking": (2, LINEAR),
        "approval_winner": (2, UNIVALENT),
        "plurality_ranking": (UNIVALENT, LINEAR),
        "plurality_winner": (UNIVALENT, UNIVALENT),
        "borda_winner": (LINEAR, UNIVALENT),
        "kemeny_ranking": (LINEAR, LINEAR),
    }
    if rule == "borda_ranking":
        if not coerce:
            validate_ballots(p, LINEAR)
        return _borda_ranking(p, witness_cap)
    if rule not in pairs:
        raise ValueError(f"unknown rule {rule!r}; choose one of {', '.join(NAMED_RULES)}")
    j, k = pairs[rule]
    return aggregate(p, j, k, coerce=coerce, guard=guard, witness_cap=witness_cap)


def named_rule(p: Profile, rule: str, **kwargs) -> list[WeakOrder]:
    """The orders of ``aggregate_rule(p, rule, **kwargs)``."""
    return list(aggregate_rule(p, rule, **kwargs).orders)


def realize_weights(w: WeightedTournament) -> Profile:
    """Build a profile of trichotomous ballots inducing exactly twice the weights.

    Each arc of weight c contributes |c| copies of a two-ballot pattern that
    adds 2 to that arc and nothing anywhere else.  All-zero weights yield one
    ballot and its reversal, which cancel.  Requires integer weights and at
    least three vertices (the pattern needs a nonempty third class).
    """
    if w.m < 3:
        raise ValueError("realizing weights needs at least three vertices")
    for pair, value in w.weights.items():
        if value.denominator != 1:
            raise ValueError(f"weights must be integers, got {value} on {pair}")
    ballots: list[tuple[WeakOrder, int]] = []
    verts = frozenset(w.vertices)
    for (x, y), value in w.weights.items():
        c = int(value)
        if c == 0:
            continue
        hi, lo = (x, y) if c > 0 else (y, x)
        rest = verts - {hi, lo}
        count = abs(c)
        ballots.append((WeakOrder((frozenset({hi}), frozenset({lo}), rest)), count))
        ballots.append((WeakOrder((rest, frozenset({hi}), frozenset({lo}))), count))
    if not ballots:
        v1, v2 = w.vertices[0], w.vertices[1]
        rest = verts - {v1, v2}
        ballots.append((WeakOrder((frozenset({v1}), frozenset({v2}), rest)), 1))
        ballots.append((WeakOrder((rest, frozenset({v2}), frozenset({v1}))), 1))
    return Profile(w.vertices, tuple(ballots))
