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
or just the canonically least one; witnesses are deduplicated and sorted by
their level vector in vertex-list order, so results do not depend on
evaluation schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .tournament import OrderedPartition, WeightedTournament

DEFAULT_GUARD = 10**8
DEFAULT_WITNESS_CAP = 10_000
_BLOCK = 3**7  # suffix labelings scored per numpy pass in the exhaustive walk


class GuardExceededError(RuntimeError):
    """Raised when an enumeration would exceed the configured guard."""


@dataclass(frozen=True)
class SolveResult:
    """Optimal score plus the partitions achieving it.

    ``witnesses`` is canonically ordered; ``truncated`` marks that further
    tied witnesses were dropped at the cap.
    """

    optimum: Fraction
    witnesses: tuple[OrderedPartition, ...]
    truncated: bool = False


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
    blocks: list[list[str]] = [[] for _ in range(max(levels) + 1)]
    for v, lv in zip(vertices, levels):
        blocks[lv].append(v)
    return OrderedPartition.from_blocks(blocks)


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
    as a Kronecker sum.  The valid suffix labelings are cached per set of
    levels the prefix uses.
    """
    m = w.shape[0]
    s = 1
    while s < m and k ** (s + 1) <= _BLOCK:
        s += 1
    p = m - s
    size = k**s
    # digits[j, x]: level of suffix vertex j in suffix labeling x
    digits = np.arange(size) // k ** np.arange(s - 1, -1, -1)[:, None] % k
    own = np.zeros(size, w.dtype)
    for a in range(s):
        for b in range(a + 1, s):
            own += w[p + a, p + b] * term(digits[a], digits[b]).astype(w.dtype)
    used = np.bitwise_or.reduce(1 << digits, axis=0)
    step = term(np.arange(k)[:, None], np.arange(k)).astype(w.dtype)  # step[l, c] = term(l, c)
    # inc[i, l, j, c]: pair term of prefix vertex i at level l with suffix vertex j at level c
    inc = w[:p, None, p:, None] * step[None, :, None, :]
    rows, steps = w[:p, :p].tolist(), step.tolist()
    full = (1 << k) - 1
    valid: dict[int, np.ndarray] = {}
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
        for x in hits[: cap - len(kept)]:
            kept.append(tuple(labels) + tuple(digits[:, x].tolist()))

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
        form.w, kk, exact_k, witness_cap if all_ties else 1,
        lambda l, c: np.sign(c - l), unordered=False,
    )
    optimum = Fraction(best, form.scale)
    witnesses = tuple(_partition_from_levels(t.vertices, lv) for lv in kept)
    truncated = all_ties and nopt > len(kept)
    return SolveResult(optimum=optimum, witnesses=witnesses, truncated=truncated)


def _expand_value_pattern(
    order: list[int],
    values: list[int],
    cuts: list[int],
    sink: list[tuple[int, ...]],
    cap: int,
) -> bool:
    """Emit level vectors of all partitions matching a monotone cut pattern.

    A cut pattern fixes how many sorted positions land in each block; vertices
    with equal values may trade places across blocks without changing the
    score, so each maximal equal-value run is redistributed in every way
    consistent with the block counts.  Returns True when the cap stopped the
    expansion early.
    """
    bounds = [0] + cuts + [len(order)]
    level_of_pos = [0] * len(order)
    for b in range(len(bounds) - 1):
        for pos in range(bounds[b], bounds[b + 1]):
            level_of_pos[pos] = b

    # maximal runs of equal values
    groups: list[tuple[int, int]] = []
    start = 0
    for pos in range(1, len(values) + 1):
        if pos == len(values) or values[pos] != values[start]:
            groups.append((start, pos))
            start = pos
    # per group: vertices in vertex-list order and the multiset of levels to hand out
    group_specs = [(sorted(order[lo:hi]), level_of_pos[lo:hi]) for lo, hi in groups]
    lv = [0] * len(order)

    def assign_group(g: int) -> bool:
        if g == len(group_specs):
            sink.append(tuple(lv))
            return len(sink) >= cap
        verts, slots = group_specs[g]
        distinct = sorted(set(slots))
        counts = {b: slots.count(b) for b in distinct}

        def place(remaining: tuple[int, ...], bi: int) -> bool:
            if bi == len(distinct):
                return assign_group(g + 1)
            b = distinct[bi]
            need = counts[b]
            if bi == len(distinct) - 1:
                for v in remaining:
                    lv[v] = b
                return assign_group(g + 1)
            for chosen in combinations(remaining, need):
                for v in chosen:
                    lv[v] = b
                rest = tuple(v for v in remaining if v not in chosen)
                if place(rest, bi + 1):
                    return True
            return False

        return place(tuple(verts), 0)

    return assign_group(0)


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
    those trades are expanded afterwards.
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
    patterns.sort()

    if all_ties:
        values = [beta[v] for v in order]
        level_vecs: list[tuple[int, ...]] = []
        truncated = False
        for cuts in patterns:
            if _expand_value_pattern(order, values, cuts, level_vecs, witness_cap + 1):
                truncated = True
                break
        unique = sorted(set(level_vecs))[:witness_cap]
        truncated = truncated or len(set(level_vecs)) > witness_cap
    else:
        reps = []
        for cuts in patterns:
            lv = [0] * m
            for b, (lo, hi) in enumerate(zip([0] + cuts, cuts + [m])):
                for v in order[lo:hi]:
                    lv[v] = b
            reps.append(tuple(lv))
        unique, truncated = [min(reps)], False
    witnesses = tuple(_partition_from_levels(t.vertices, lv) for lv in unique)
    return SolveResult(optimum=Fraction(top, denom), witnesses=witnesses, truncated=truncated)


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
