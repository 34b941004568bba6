"""Independent checks of the program's printed answers.

Every check re-derives what it needs from the generator's own instance, never
from the program: an exact scorer over a common-denominator integer matrix
(results are ``Fraction``), Borda scores, a subset dynamic program for the
best linear order, and the maximum tricut by enumeration.  A check returns
``None`` when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np

from instances import Ballots, Graph, Tournament

WITNESS_CAP = 10_000


class Scorer:
    """Exact ordered-partition scores for one tournament."""

    def __init__(self, names: tuple[str, ...], upper: np.ndarray, den: int):
        self.names = names
        self.index = {v: i for i, v in enumerate(names)}
        self.upper = upper  # upper[i, j] = den * weight(i -> j) for i < j, else 0
        self.den = den

    @classmethod
    def of_tournament(cls, t: Tournament) -> "Scorer":
        den = 1
        for w in t.weights.values():
            den = den * w.denominator // math.gcd(den, w.denominator)
        nums = {p: int(w * den) for p, w in t.weights.items()}
        big = sum(abs(v) for v in nums.values()) >= 2**62
        upper = np.zeros((t.m, t.m), dtype=object if big else np.int64)
        for (i, j), v in nums.items():
            upper[i, j] = v
        return cls(t.names, upper, den)

    @classmethod
    def of_ballots(cls, b: Ballots) -> "Scorer":
        """Net-majority tournament: arc (x, y) weighs supporters of x minus of y."""
        net = np.zeros((b.m, b.m), dtype=np.int64)
        rank = np.empty(b.m, dtype=np.int64)
        for classes, count in b.ballots:
            for r, cls_ in enumerate(classes):
                rank[list(cls_)] = r
            net += count * np.sign(rank[None, :] - rank[:, None])
        return cls(b.names, np.triu(net, 1), 1)

    def full(self) -> np.ndarray:
        """Antisymmetric matrix: full[i, j] = den * weight(i -> j)."""
        return self.upper - self.upper.T

    def score(self, levels) -> Fraction:
        lv = np.asarray(levels, dtype=np.int64)
        sign = np.sign(lv[None, :] - lv[:, None])
        return Fraction(int((self.upper * sign).sum()), self.den)

    def borda(self) -> list[Fraction]:
        return [Fraction(int(v), self.den) for v in self.full().sum(axis=1)]

    def abs_total(self) -> Fraction:
        return Fraction(int(np.abs(self.upper).sum()), self.den)

    def sorted_split(self, k: int) -> tuple[int, ...]:
        """Levels of the Borda-sorted order cut into min(k, m) near-equal blocks."""
        m = len(self.names)
        borda = self.borda()
        order = sorted(range(m), key=lambda v: (-borda[v], v))
        kk = min(k, m)
        levels = [0] * m
        for pos, v in enumerate(order):
            levels[v] = pos * kk // m
        return tuple(levels)

    def best_linear(self) -> Fraction:
        """Best linear-order score by a DP over the set of vertices placed on top."""
        m = len(self.names)
        full = self.full()
        f = [None] * (1 << m)
        f[0] = 0
        for s in range(1, 1 << m):
            members = [u for u in range(m) if s >> u & 1]
            best = None
            for v in members:
                val = f[s & ~(1 << v)] + sum(int(full[u, v]) for u in members if u != v)
                if best is None or val > best:
                    best = val
            f[s] = best
        return Fraction(f[-1], self.den)


def max_tricut(g: Graph) -> int:
    n = len(g.names)
    return max(
        sum(w for (a, b), w in g.edges.items() if labels[a] != labels[b])
        for labels in product(range(3), repeat=n)
    )


def _parse_blocks(text: str, sep: str, index: dict[str, int]) -> tuple[int, ...]:
    levels = [-1] * len(index)
    for lv, block in enumerate(text.split(f" {sep} ")):
        names = block.split()
        if not names:
            raise ValueError("empty block")
        for name in names:
            i = index[name]
            if levels[i] != -1:
                raise ValueError(f"{name} listed twice")
            levels[i] = lv
    if -1 in levels:
        raise ValueError("not every vertex is placed")
    return tuple(levels)


def _parse_answer(out: str, item: str, sep: str, index: dict[str, int], with_optimum: bool):
    """Split solver-style output into (optimum, level vectors, truncated flag)."""
    lines = out.splitlines()
    optimum = None
    if with_optimum:
        if not lines or not lines[0].startswith("optimum "):
            raise ValueError("no optimum line")
        optimum = Fraction(lines[0].split()[1])
        lines = lines[1:]
    truncated = bool(lines) and lines[-1] == f"{item}s truncated"
    if truncated:
        lines = lines[:-1]
    found = []
    for ln in lines:
        if not ln.startswith(item + " "):
            raise ValueError(f"unexpected line {ln[:60]!r}")
        found.append(_parse_blocks(ln[len(item) + 1 :], sep, index))
    if not found:
        raise ValueError(f"no {item} lines")
    return optimum, found, truncated


def check_partitions(
    out: str,
    scorer: Scorer,
    k: int,
    *,
    exact_k: bool,
    all_ties: bool,
    item: str = "witness",
    sep: str = ">",
    expect_optimum: Fraction | None = None,
    lower: Fraction | None = None,
    expect_truncated: bool | None = None,
) -> str | None:
    """Check `solve` or `aggregate --j --k` output: every witness re-scores to the optimum."""
    try:
        optimum, found, truncated = _parse_answer(out, item, sep, scorer.index, True)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unparsable output: {exc}"
    if not all_ties and len(found) != 1:
        return f"expected one {item}, got {len(found)}"
    if len(found) > WITNESS_CAP:
        return f"{len(found)} {item}s exceed the cap"
    if truncated and len(found) != WITNESS_CAP:
        return f"truncated after {len(found)} {item}s, not at the cap"
    if expect_truncated is not None and truncated != expect_truncated:
        return f"truncated is {truncated}, expected {expect_truncated}"
    if any(a >= b for a, b in zip(found, found[1:])):
        return f"{item}s are not in strictly increasing canonical order"
    for levels in found:
        blocks = max(levels) + 1
        if blocks > k or (exact_k and blocks != k):
            return f"{item} has {blocks} blocks for k={k} exact_k={exact_k}"
        if scorer.score(levels) != optimum:
            return f"{item} scores {scorer.score(levels)}, printed optimum {optimum}"
    if expect_optimum is not None and optimum != expect_optimum:
        return f"optimum {optimum}, expected {expect_optimum}"
    if lower is not None and optimum < lower:
        return f"optimum {optimum} is below the known score {lower}"
    return None


def check_decision(out: str, expected: bool) -> str | None:
    want = f"decision {'true' if expected else 'false'}\n"
    return None if out == want else f"printed {out.strip()!r}, expected {want.strip()!r}"


def check_verify(out: str, cut: int) -> str | None:
    want = f"PASS {cut} = {cut}\n"
    return None if out == want else f"printed {out.strip()[:60]!r}, expected {want.strip()!r}"


def check_approval_winner(out: str, scorer: Scorer) -> str | None:
    borda = scorer.borda()
    top = max(borda)
    want = []
    for v, name in enumerate(scorer.names):
        if borda[v] == top:
            rest = " ".join(n for u, n in enumerate(scorer.names) if u != v)
            want.append(f"order {name} | {rest}")
    return None if out.splitlines() == want else "winners differ from the Borda argmax"


def check_borda_ranking(out: str, scorer: Scorer) -> str | None:
    try:
        _, found, _ = _parse_answer(out, "order", "|", scorer.index, False)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unparsable output: {exc}"
    borda = scorer.borda()
    m = len(scorer.names)
    ways = 1
    for value in set(borda):
        ways *= math.factorial(borda.count(value))
    if len(found) != min(ways, WITNESS_CAP) or len(set(found)) != len(found):
        return f"{len(found)} distinct orders, expected {min(ways, WITNESS_CAP)}"
    for levels in found:
        if sorted(levels) != list(range(m)):
            return "an order is not linear"
        by_rank = sorted(range(m), key=lambda v: levels[v])
        if any(borda[a] < borda[b] for a, b in zip(by_rank, by_rank[1:])):
            return "an order is not sorted by Borda score"
    return None


def check_kemeny(out: str, scorer: Scorer) -> str | None:
    try:
        _, found, _ = _parse_answer(out, "order", "|", scorer.index, False)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unparsable output: {exc}"
    m = len(scorer.names)
    best = scorer.best_linear()
    if any(a >= b for a, b in zip(found, found[1:])):
        return "orders are not in strictly increasing canonical order"
    for levels in found:
        if sorted(levels) != list(range(m)):
            return "an order is not linear"
        if scorer.score(levels) != best:
            return f"an order scores {scorer.score(levels)}, best linear order {best}"
    return None
