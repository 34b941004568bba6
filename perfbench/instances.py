"""Seeded instance generators and their text forms.

The benchmark owns these generators so that edits to the program's own
self-test generators cannot shift the workloads.  Every generator takes an
explicit ``random.Random``; the same seed gives the same instances and the
same text.  Instances keep vertices as indices ``0..m-1`` plus a name tuple,
and weights as exact ``Fraction`` values keyed by ``(i, j)`` with ``i < j``
(the weight of the arc from ``i`` to ``j``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations


@dataclass(frozen=True)
class Tournament:
    names: tuple[str, ...]
    weights: dict[tuple[int, int], Fraction]

    @property
    def m(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class Graph:
    names: tuple[str, ...]
    edges: dict[tuple[int, int], int]


@dataclass(frozen=True)
class Ballots:
    """Weak-order ballots: each is a tuple of classes (tuples of indices), best first."""

    names: tuple[str, ...]
    ballots: tuple[tuple[tuple[tuple[int, ...], ...], int], ...]

    @property
    def m(self) -> int:
        return len(self.names)


def vertex_names(prefix: str, m: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(m))


def random_graph(rng: random.Random, n: int, edges: int, wmax: int = 9) -> Graph:
    """Graph on n vertices with exactly `edges` positive-weight edges."""
    pairs = rng.sample(list(combinations(range(n), 2)), edges)
    return Graph(vertex_names("g", n), {p: rng.randint(1, wmax) for p in sorted(pairs)})


def hg_gadget(g: Graph) -> Tournament:
    """4-cycle gadget: each edge {a, b} of weight w becomes a -> d_ab -> b -> d_ba -> a."""
    names = list(g.names)
    weights: dict[tuple[int, int], Fraction] = {}

    def arc(u: int, v: int, w: int) -> None:
        key = (u, v) if u < v else (v, u)
        weights[key] = Fraction(w if u < v else -w)

    for (a, b), w in g.edges.items():
        dab, dba = len(names), len(names) + 1
        names += [f"d{a}x{b}", f"d{b}x{a}"]
        arc(a, dab, w)
        arc(dab, b, w)
        arc(b, dba, w)
        arc(dba, a, w)
    return Tournament(tuple(names), weights)


def dense_tournament(
    rng: random.Random, m: int, denominators: tuple[int, ...], numerator: int = 9
) -> Tournament:
    """Every arc nonzero: +-(1..numerator) over a denominator drawn from the list."""
    weights = {}
    for pair in combinations(range(m), 2):
        num = rng.randint(1, numerator) * rng.choice((-1, 1))
        weights[pair] = Fraction(num, rng.choice(denominators))
    return Tournament(vertex_names("t", m), weights)


def acyclic_tournament(rng: random.Random, m: int, spread: int = 10**6) -> Tournament:
    """Weights g(i) - g(j) from integer potentials, so the cyclic part is zero."""
    g = [rng.randint(-spread, spread) for _ in range(m)]
    weights = {(i, j): Fraction(g[i] - g[j]) for i, j in combinations(range(m), 2)}
    return Tournament(vertex_names("a", m), weights)


def integer_tournament(rng: random.Random, m: int, bound: int = 999) -> Tournament:
    weights = {p: Fraction(rng.randint(-bound, bound)) for p in combinations(range(m), 2)}
    return Tournament(vertex_names("r", m), weights)


def linear_ballots(rng: random.Random, m: int, lines: int, max_count: int) -> Ballots:
    ballots = []
    for _ in range(lines):
        perm = list(range(m))
        rng.shuffle(perm)
        ballots.append((tuple((v,) for v in perm), rng.randint(1, max_count)))
    return Ballots(vertex_names("c", m), tuple(ballots))


def dichotomous_ballots(rng: random.Random, m: int, lines: int, max_count: int) -> Ballots:
    """Two classes per ballot: a random nonempty proper subset approved above the rest."""
    ballots = []
    for _ in range(lines):
        size = rng.randint(1, m - 1)
        top = sorted(rng.sample(range(m), size))
        rest = tuple(v for v in range(m) if v not in set(top))
        ballots.append(((tuple(top), rest), rng.randint(1, max_count)))
    return Ballots(vertex_names("c", m), tuple(ballots))


def cyclic_linear_ballots(rng: random.Random, m: int) -> Ballots:
    """Rotations of a random order, one per alternative, with distinct counts.

    The rotations form a Latin square, so every pair is contested and the
    induced tournament has a nonzero cyclic part.
    """
    base = list(range(m))
    rng.shuffle(base)
    counts = rng.sample(range(1, 4 * m), m)
    ballots = []
    for r, count in enumerate(counts):
        rot = base[r:] + base[:r]
        ballots.append((tuple((v,) for v in rot), count))
    return Ballots(vertex_names("k", m), tuple(ballots))


def mirrored(b: Ballots) -> Ballots:
    """Each ballot plus its reversal: the induced tournament is all zeros."""
    out = []
    for classes, count in b.ballots:
        out.append((classes, count))
        out.append((tuple(reversed(classes)), count))
    return Ballots(b.names, tuple(out))


def tournament_text(t: Tournament) -> str:
    lines = [f"tournament {t.m}", *t.names]
    lines += [f"{t.names[i]} {t.names[j]} {w}" for (i, j), w in t.weights.items()]
    return "\n".join(lines) + "\n"


def graph_text(g: Graph) -> str:
    lines = [f"graph {len(g.names)}", *g.names]
    lines += [f"{g.names[a]} {g.names[b]} {w}" for (a, b), w in g.edges.items()]
    return "\n".join(lines) + "\n"


def profile_text(b: Ballots) -> str:
    lines = [f"profile {b.m}", *b.names]
    for classes, count in b.ballots:
        body = " | ".join(" ".join(b.names[v] for v in c) for c in classes)
        lines.append(f"{body} * {count}" if count != 1 else body)
    return "\n".join(lines) + "\n"
