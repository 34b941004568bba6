"""Exact solvers for maximal ordered-partition scores.

Three routes are provided:

* ``solve_bruteforce`` enumerates every ordered partition into at most (or
  exactly) k nonempty blocks, by walking level assignments in lexicographic
  order.  It is the oracle the faster routes are tested against.  A single
  numpy kernel walks the leading vertices in Python and scores every
  labeling of the trailing ones as one array.  The kernel takes the pair
  term as a callable, and in unordered mode visits each unordered partition
  once, so ``maxkop.reductions.solve_cut_bruteforce`` runs on it too.
* ``solve_acyclic_dp`` handles weights with no cyclic part.  Some optimal
  partition is then monotone in the Borda scores, so a dynamic program over
  divider positions in the sorted score sequence finds the optimum with
  O(k m^2) integer arithmetic.
* ``solve_2op`` replaces the weights by their acyclic component, which leaves
  every 2-partition score unchanged, and runs the dynamic program with k=2.

Every route reads the tournament's ``integer_form`` (see
``maxkop.tournament``), whose dtype is int64 or Python ints (object arrays).

Results carry every optimal partition (up to a cap, flagged by ``truncated``)
or just the canonically least one.  Witnesses are stored as level vectors
(the block index of each vertex, 0 the top block) in lexicographic order, the
order the walk visits them in, so every route keeps the same witnesses under
a cap; ``SolveResult.witnesses`` builds the ``OrderedPartition`` objects only
when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain

import numpy as np

from .tournament import OrderedPartition, WeightedTournament, _level_blocks

DEFAULT_GUARD = 10**8
DEFAULT_WITNESS_CAP = 10_000
_BLOCK = 3**7  # suffix labelings scored per numpy pass in the exhaustive walk


class GuardExceededError(RuntimeError):
    """Raised when an enumeration would exceed the configured guard."""


@dataclass(frozen=True)
class SolveResult:
    """Optimal score plus the partitions achieving it.

    ``levels`` holds the witnesses as level vectors over ``vertices``
    (``levels[i][v]`` is the block of ``vertices[v]`` in the i-th witness, 0
    the top block), in canonical (lexicographic) order; ``witnesses`` derives
    the ``OrderedPartition`` objects from them on first access.
    ``truncated`` marks that further tied witnesses were dropped at the cap.
    """

    optimum: Fraction
    vertices: tuple[str, ...]
    levels: tuple[tuple[int, ...], ...]
    truncated: bool = False

    @cached_property
    def witnesses(self) -> tuple[OrderedPartition, ...]:
        return tuple(_partition_from_levels(self.vertices, lv) for lv in self.levels)


def _levels(m: int, k: int, exact_k: bool, witness_cap: int) -> int:
    """Validate a request; the number of levels to search with."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if witness_cap < 1:
        raise ValueError("witness_cap must be at least 1")
    if exact_k and k > m:
        raise ValueError(f"cannot split {m} vertices into {k} nonempty blocks")
    return k if exact_k else min(k, m)


def _partition_from_levels(vertices: tuple[str, ...], levels) -> OrderedPartition:
    return OrderedPartition(tuple(_level_blocks(vertices, levels)))


def _ordered_term(l, c):
    """Pair term of ordered partitions: +1 downward, -1 upward, 0 within a block."""
    return np.sign(c - l)


@lru_cache(maxsize=64)
def _walk_tables(k: int, s: int, exact_k: bool, unordered: bool, term):
    """The walk's read-only tables for k levels, an s-vertex suffix and a pair term.

    ``digits[j, x]`` is the level of suffix vertex j in suffix labeling x,
    ``used[x]`` the bit mask of the levels labeling x uses, ``step[l, c]`` is
    ``term(l, c)``, and ``terms[q, x]`` the term of the q-th suffix pair
    ``(first[q], second[q])`` under labeling x.  The last item is the cache of
    valid labelings per set of prefix levels, filled by ``_walk_levels``.
    """
    digits = np.arange(k**s) // k ** np.arange(s - 1, -1, -1)[:, None] % k
    used = np.bitwise_or.reduce(1 << digits, axis=0)
    step = term(np.arange(k)[:, None], np.arange(k)).astype(np.int8)
    first, second = np.triu_indices(s, 1)
    terms = term(digits[first], digits[second]).astype(np.int8)
    for table in (digits, used, step, first, second, terms):
        table.flags.writeable = False
    return digits, used, step, first, second, terms, {}


def _walk_levels(w: np.ndarray, k: int, exact_k: bool, cap: int, term, *, unordered: bool):
    """Score every gap-free level vector in lexicographic order.

    A level vector l scores the sum of ``w[i, j] * term(l[i], l[j])`` over
    pairs i < j, ``term`` being a vectorised pair term.  It is gap-free when
    the levels it uses are 0..j-1, so each ordered partition has exactly one;
    with ``unordered`` only restricted-growth vectors (each level first used
    after every lower one) are visited, one per unordered partition.  Returns
    the best score, the number of level vectors reaching it, and the first
    ``cap`` of those in visit order.
    The last ``s`` vertices (the suffix) are scored all at once in numpy,
    ``k**s`` being about ``_BLOCK``.  The prefix is walked depth first in
    Python, keeping an s-by-k table of the prefix's pair terms with each
    suffix vertex at each level; a leaf spreads it over all suffix labelings
    as a Kronecker sum.  The tables that depend only on (k, s, ``exact_k``,
    ``unordered``, ``term``) are cached across calls, the valid suffix
    labelings among them (per set of levels the prefix uses).
    """
    m = w.shape[0]
    s = 1
    while s < m and k ** (s + 1) <= _BLOCK:
        s += 1
    p = m - s
    digits, used, step, first, second, terms, valid = _walk_tables(k, s, exact_k, unordered, term)
    own = w[p + first, p + second] @ terms  # own[x]: suffix-internal score of labeling x
    # inc[i, l, j, c]: pair term of prefix vertex i at level l with suffix vertex j at level c
    inc = w[:p, None, p:, None] * step[None, :, None, :]
    rows, steps = w[:p, :p].tolist(), step.tolist()
    full = (1 << k) - 1
    labels = [0] * p
    best = None
    nopt = 0
    kept: list[tuple[int, ...]] = []

    def visit(d: int, score: int, table: np.ndarray, pmask: int) -> None:
        # table[j, c]: pair terms of the prefix with suffix vertex j at level c
        nonlocal best, nopt, kept
        if d < p:
            for lam in range(min(k, pmask.bit_length() + 1) if unordered else k):
                labels[d] = lam
                delta = sum(rows[i][d] * steps[li][lam] for i, li in enumerate(labels[:d]))
                visit(d + 1, score + delta, table + inc[d, lam], pmask | 1 << lam)
            return
        idx = valid.get(pmask)
        if idx is None:
            u = used | pmask
            ok = (u & (u + 1)) == 0
            if exact_k:
                ok &= u == full
            if unordered:  # each suffix level at most one above the highest level before it
                fresh = pmask.bit_length()
                for row in digits:
                    ok &= row <= fresh
                    fresh = np.maximum(fresh, row + 1)
            idx = valid[pmask] = np.flatnonzero(ok)
            idx.flags.writeable = False
        if idx.size == 0:
            return
        cross = table[0]
        for row in table[1:]:  # Kronecker sum over the suffix, first vertex outermost
            cross = np.add.outer(cross, row).reshape(-1)
        vals = (own + cross)[idx]
        top = int(vals.max())
        if best is not None and score + top < best:
            return
        if best is None or score + top > best:
            best, nopt, kept = score + top, 0, []
        hits = idx[vals == top]
        nopt += hits.size
        head = tuple(labels)
        kept.extend(head + tuple(x) for x in digits[:, hits[: cap - len(kept)]].T.tolist())

    visit(0, 0, np.zeros((s, k), w.dtype), 0)
    return best, nopt, kept


def solve_bruteforce(
    t: WeightedTournament,
    k: int,
    *,
    all_ties: bool = False,
    exact_k: bool = False,
    guard: int = DEFAULT_GUARD,
    witness_cap: int = DEFAULT_WITNESS_CAP,
) -> SolveResult:
    """Exhaustive search over ordered partitions into at most k nonempty blocks.

    With ``exact_k`` only partitions using exactly k blocks count.  With
    ``all_ties`` every maximizer is returned (up to ``witness_cap``, then
    ``truncated`` is set); otherwise only the canonically least one.
    Raises GuardExceededError when the level-assignment count k^m exceeds
    ``guard``.
    """
    m = t.m
    kk = _levels(m, k, exact_k, witness_cap)
    count = kk**m
    if count > guard:
        raise GuardExceededError(
            f"enumerating {count} level assignments exceeds the guard of {guard}"
        )

    form = t.integer_form
    best, nopt, kept = _walk_levels(
        form.w, kk, exact_k, witness_cap if all_ties else 1, _ordered_term, unordered=False
    )
    truncated = all_ties and nopt > len(kept)
    return SolveResult(Fraction(best, form.scale), t.vertices, tuple(kept), truncated)


def _canonical_ties(
    order: list[int], values: list[int], patterns: list[list[int]], kk: int, limit: int
) -> list[tuple[int, ...]]:
    """The first ``limit`` level vectors, in lexicographic order, matching some cut pattern.

    ``order`` lists the vertices by position and ``values`` their sorted
    potentials; a pattern's cuts split the positions into consecutive blocks.
    Vertices of equal value (a group) may trade places, so a level vector
    matches a pattern when each group holds as many vertices at each level as
    the pattern puts in that level's positions of the group (the group's
    quota for that level).  Vertices are assigned in index order, levels
    tried in ascending order, keeping the set of patterns (a bit mask) whose
    quotas the assignment so far still fits; a nonempty set can always be
    completed, so the walk never backtracks from a dead end.
    """
    m = len(order)
    lo = list(range(m))  # lo[i]: first position of the group holding position i
    hi = list(range(1, m + 1))  # hi[i]: one past its last position
    for i in range(1, m):
        if values[i] == values[i - 1]:
            lo[i] = lo[i - 1]
    for i in range(m - 2, -1, -1):
        if values[i] == values[i + 1]:
            hi[i] = hi[i + 1]
    # bounds[b, p]: first position of block b under pattern p (m past its last block)
    rows = ([0, *cuts] + [m] * (kk - len(cuts)) for cuts in patterns)
    bounds = np.fromiter(chain.from_iterable(rows), np.int32).reshape(-1, kk + 1).T
    # masks[(lo[i] + t) * kk + b]: the patterns whose quota at level b in i's group exceeds t
    masks: list[int] = []
    step = max(1, 2**20 // bounds.size)  # positions per pass, bounding the quota table
    for start in range(0, m, step):
        pos = np.arange(start, min(start + step, m))
        first, last = (np.array(ends, np.int32)[pos, None, None] for ends in (lo, hi))
        # quota[i, b, p]: positions of i's group at level b under pattern p
        quota = np.minimum(last, bounds[None, 1:]) - np.maximum(first, bounds[None, :-1])
        packed = np.packbits(quota > pos[:, None, None] - first, axis=-1, bitorder="little")
        raw, width = packed.tobytes(), packed.shape[-1]
        masks += [int.from_bytes(raw[j : j + width], "little") for j in range(0, len(raw), width)]

    row = [0] * m  # row[v]: lo of v's group times kk
    for i, v in enumerate(order):
        row[v] = lo[i] * kk
    taken = [0] * (m * kk)  # taken[row + b]: vertices of the group assigned level b so far
    live = [(1 << len(patterns)) - 1] + [0] * m  # live[v]: patterns that vertices < v fit
    lv = [-1] * m
    found: list[tuple[int, ...]] = []
    v = 0
    while v >= 0:
        if v == m:
            found.append(tuple(lv))
            if len(found) == limit:
                break
            v -= 1
            continue
        r, b = row[v], lv[v]
        if b >= 0:
            taken[r + b] -= 1
        for b in range(b + 1, kk):
            fit = live[v] & masks[r + taken[r + b] * kk + b]
            if fit:
                lv[v] = b
                taken[r + b] += 1
                live[v + 1] = fit
                v += 1
                break
        else:
            lv[v] = -1
            v -= 1
    return found


def _divider_dp(
    t: WeightedTournament,
    d: np.ndarray,
    denom: int,
    kk: int,
    *,
    all_ties: bool,
    exact_k: bool,
    witness_cap: int,
) -> SolveResult:
    """Best ordered partitions of acyclic weights d / denom into at most (or exactly) kk blocks.

    ``d`` is an antisymmetric integer matrix whose vertex potentials sort like
    the tournament's Borda vector.  Some optimal partition then cuts the
    Borda-sorted vertex sequence into consecutive runs, so a dynamic program
    over divider positions on 2-D prefix sums of ``d`` finds the optimum;
    vertices with equal Borda scores may trade places across a divider, and
    the witnesses are those trades of the optimal cut patterns, in canonical
    order.
    """
    m = t.m
    beta = t.integer_form.beta.tolist()
    order = sorted(range(m), key=lambda v: (-beta[v], v))
    prefix = np.zeros((m + 1, m + 1), d.dtype)
    prefix[1:, 1:] = d[np.ix_(order, order)].cumsum(0).cumsum(1)
    # cross[c, i]: weight from sorted positions [0, c) into positions [c, i)
    cross = prefix - prefix.diagonal()[:, None]
    floor = -int(abs(d).sum()) - 1  # below every partition score
    pos = np.arange(m + 1)
    reach = pos == 0  # divider positions c that j - 1 nonempty blocks can end at
    best = np.zeros((kk + 1, m + 1), d.dtype)
    for j in range(1, kk + 1):
        # best[j, i]: best score of j nonempty blocks covering positions [0, i)
        ok = reach[:, None] & (pos[:, None] < pos)
        best[j] = np.where(ok, best[j - 1][:, None] + cross, floor).max(0)
        reach = pos >= j
    best_rows, cross_rows = best.tolist(), cross.tolist()

    finals = [kk] if exact_k else range(1, kk + 1)
    top = max(best_rows[j][m] for j in finals)
    patterns: list[list[int]] = []

    def backtrack(j: int, i: int, tail: list[int]) -> None:
        # every optimal divider placement, dividers collected bottom up
        if j == 1:
            patterns.append(tail[::-1])
            return
        for c in range(j - 1, i):
            if best_rows[j - 1][c] + cross_rows[c][i] == best_rows[j][i]:
                backtrack(j - 1, c, tail + [c])

    for j in finals:
        if best_rows[j][m] == top:
            backtrack(j, m, [])

    limit = witness_cap + 1 if all_ties else 1  # one past the cap shows truncation
    found = _canonical_ties(order, [beta[v] for v in order], patterns, kk, limit)
    truncated = len(found) > witness_cap
    return SolveResult(Fraction(top, denom), t.vertices, tuple(found[:witness_cap]), truncated)


def solve_acyclic_dp(
    t: WeightedTournament,
    k: int,
    *,
    all_ties: bool = False,
    exact_k: bool = False,
    witness_cap: int = DEFAULT_WITNESS_CAP,
) -> SolveResult:
    """Divider dynamic program for purely acyclic weights.

    Requires the cyclic component of the weights to be zero (callers holding
    general weights must decompose first).  Every maximizer then agrees with
    a monotone partition of the sorted scaled-Borda sequence up to trades
    between equal scores, so the search runs over divider positions and the
    tied trades are expanded afterwards.
    """
    kk = _levels(t.m, k, exact_k, witness_cap)
    form = t.integer_form
    if not form.is_acyclic():
        raise ValueError(
            "weights have a nonzero cyclic component; this solver needs purely "
            "acyclic input (decompose first)"
        )
    return _divider_dp(
        t, form.w, form.scale, kk, all_ties=all_ties, exact_k=exact_k, witness_cap=witness_cap
    )


def solve_2op(
    t: WeightedTournament,
    *,
    all_ties: bool = False,
    exact_k: bool = False,
    witness_cap: int = DEFAULT_WITNESS_CAP,
) -> SolveResult:
    """Polynomial max-2OP: project onto the acyclic part, then split it.

    Cyclic weights are invisible to 2-partitions (every cycle crosses a
    2-partition as often downward as upward), so optimizing the acyclic
    component alone is exact for the original weights.  That component is
    the outer difference of the Borda vector over scale * m, so the divider
    program runs on it directly.
    """
    if t.m < 2:
        raise ValueError("max-2OP needs at least two vertices")
    kk = _levels(t.m, 2, exact_k, witness_cap)
    form = t.integer_form
    return _divider_dp(
        t, form.beta_differences(), form.scale * t.m, kk,
        all_ties=all_ties, exact_k=exact_k, witness_cap=witness_cap,
    )


def solve(
    t: WeightedTournament,
    k: int,
    *,
    all_ties: bool = False,
    exact_k: bool = False,
    guard: int = DEFAULT_GUARD,
    witness_cap: int = DEFAULT_WITNESS_CAP,
) -> SolveResult:
    """Dispatch to the cheapest exact route for the given instance.

    2-partitions go through the acyclic projection, purely acyclic weights
    through the divider dynamic program, everything else through exhaustive
    search.
    """
    if k == 2 and t.m >= 2:
        return solve_2op(t, all_ties=all_ties, exact_k=exact_k, witness_cap=witness_cap)
    if t.integer_form.is_acyclic():
        return solve_acyclic_dp(
            t, k, all_ties=all_ties, exact_k=exact_k, witness_cap=witness_cap
        )
    return solve_bruteforce(
        t, k, all_ties=all_ties, exact_k=exact_k, guard=guard, witness_cap=witness_cap
    )


def decide(
    t: WeightedTournament,
    k: int,
    threshold: Fraction,
    *,
    guard: int = DEFAULT_GUARD,
) -> bool:
    """True iff some ordered partition into at most k blocks scores >= threshold."""
    res = solve(t, k, all_ties=False, guard=guard)
    return res.optimum >= threshold
