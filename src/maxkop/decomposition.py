"""Orthogonal split of tournament weights into cyclic and acyclic parts.

Every weight vector decomposes uniquely as the sum of a component spanned by
basic cycles and a component spanned by basic cocycles; the two subspaces are
orthogonal complements under the arc-wise inner product.  The acyclic
(cocycle) component has the closed form of scaled Borda-score differences:
on the tournament's integer form it is the outer difference of the Borda
vector beta over scale * m, so no linear system is solved here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .tournament import WeightedTournament


@dataclass(frozen=True)
class Decomposition:
    """The cyclic and acyclic parts of a tournament's weights.

    Arc by arc, cycle.weights + cocycle.weights reproduce the source weights;
    the two parts have inner product exactly zero, and the cocycle part is
    quantitatively transitive.
    """

    cycle: WeightedTournament
    cocycle: WeightedTournament


def cocycle_component(t: WeightedTournament) -> WeightedTournament:
    """Projection onto the cocycle subspace: arc (x, y) gets (b(x) - b(y)) / m.

    b is the Borda score and m the vertex count.
    """
    form = t.integer_form
    return WeightedTournament.from_int_matrix(
        t.vertices, form.beta_differences(), form.scale * t.m
    )


def cycle_component(t: WeightedTournament) -> WeightedTournament:
    """Complement of the cocycle component: the source weights minus it."""
    form = t.integer_form
    return WeightedTournament.from_int_matrix(
        t.vertices, form.w * t.m - form.beta_differences(), form.scale * t.m
    )


def decompose(t: WeightedTournament) -> Decomposition:
    return Decomposition(cycle=cycle_component(t), cocycle=cocycle_component(t))


def inner_product(t1: WeightedTournament, t2: WeightedTournament) -> Fraction:
    """Arc-wise inner product of two weight vectors on the same tournament.

    The sum of w1 * w2 over the stored arcs of the two integer forms, over the
    product of their scales.
    """
    if t1.vertices != t2.vertices:
        raise ValueError("inner product needs identical vertex lists")
    f1, f2 = t1.integer_form, t2.integer_form
    upper = np.triu_indices(t1.m, 1)
    # Python ints: the products of two int64 matrices may not fit in int64
    total = (f1.w[upper].astype(object) * f2.w[upper].astype(object)).sum()
    return Fraction(int(total), f1.scale * f2.scale)


def norm_squared(t: WeightedTournament) -> Fraction:
    return inner_product(t, t)


def basic_cycle(t: WeightedTournament, cycle: tuple[str, ...] | list[str]) -> WeightedTournament:
    """Unit flow around a vertex cycle: +1 along each consecutive arc, 0 elsewhere.

    Arcs stored against the sense of the cycle carry -1 instead, so the flow
    reads as +1 under the reversal convention.
    """
    cycle = tuple(cycle)
    if len(cycle) < 3:
        raise ValueError("a cycle needs at least three vertices")
    if len(set(cycle)) != len(cycle):
        raise ValueError("cycle vertices must be distinct")
    for v in cycle:
        t.index(v)
    weights: dict[tuple[str, str], Fraction] = {}
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        weights[(a, b)] = Fraction(1)
    return WeightedTournament(t.vertices, weights)


def basic_cocycle(t: WeightedTournament, a: str) -> WeightedTournament:
    """Unit source at a: +1 on every arc out of a, 0 on arcs not touching a."""
    t.index(a)
    weights = {(a, x): Fraction(1) for x in t.vertices if x != a}
    return WeightedTournament(t.vertices, weights)


def is_purely_acyclic(t: WeightedTournament) -> bool:
    """True iff the cyclic component is exactly zero on every arc."""
    return t.integer_form.is_acyclic()


def is_purely_cyclic(t: WeightedTournament) -> bool:
    """True iff the acyclic component is exactly zero on every arc."""
    return not t.integer_form.beta.any()
