"""Exact solvers for maximal ordered-partition scores.

Four routes are provided:

* ``solve_bruteforce`` enumerates every ordered partition into at most (or
  exactly) k nonempty blocks, by walking level assignments in lexicographic
  order.  It is the oracle the faster routes are tested against.  A single
  numpy kernel walks the leading vertices in Python and scores every
  labeling of the trailing ones as one array.  The kernel takes the pair
  term as a callable, and in unordered mode visits each unordered partition
  once, so ``maxkop.reductions.solve_cut_bruteforce`` runs on it too.
* ``solve_subset_dp`` is a dynamic program over the set of vertices placed
  in the top blocks, adding one block per level: O(m 2^m) for linear orders
  (exactly m blocks) and O(k 3^m) for k blocks, exact on any weights.
* ``solve_acyclic_dp`` handles weights with no cyclic part.  Some optimal
  partition is then monotone in the Borda scores, so a dynamic program over
  divider positions in the sorted score sequence finds the optimum with
  O(k m^2) integer arithmetic.
* ``solve_2op`` replaces the weights by their acyclic component, which leaves
  every 2-partition score unchanged, and runs the dynamic program with k=2.

``solve`` plans the route (``_route``): k = 2 and acyclic weights take the
polynomial routes; otherwise the walk's k^m level vectors are weighed against
the subset program's cells, and the guard bounds the chosen route's estimate.

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
from itertools import chain, combinations
from math import comb
from typing import NamedTuple

import numpy as np

from .tournament import OrderedPartition, WeightedTournament, _level_blocks

DEFAULT_GUARD = 10**8
DEFAULT_WITNESS_CAP = 10_000
_BLOCK = 3**7  # suffix labelings scored per numpy pass in the exhaustive walk


class GuardExceededError(RuntimeError):
    """Raised when a route's estimated work exceeds the configured guard."""


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


def _subset_bands(m: int, kk: int, exact_k: bool) -> list[tuple[int, int]]:
    """``bands[j]``: the least and greatest size of a vertex set that j top blocks may cover.

    j nonempty blocks cover at least j vertices; with ``exact_k`` the kk - j
    blocks still to come need one vertex each, and the last level covers all
    m vertices.
    """
    return [(0, 0)] + [(j, m - kk + j if exact_k else m) for j in range(1, kk)] + [(m, m)]


def _subset_sizes(bands: list[tuple[int, int]], j: int, u: int) -> tuple[int, int]:
    """Least and greatest size of the top part A that level j splits off a set of size u."""
    lo, hi = bands[j - 1]
    return lo, min(hi, u - 1)


@lru_cache(maxsize=256)
def _subset_cells(m: int, kk: int, exact_k: bool) -> int:
    """Work estimate of ``solve_subset_dp``: twice its number of (A, T) splits.

    The forward pass reads every split once and the backward pass at most
    once more.  Exactly m blocks (k = m with ``exact_k``) give m * 2**(m-1)
    splits; at most k blocks up to about (k - 1) * 3**m.
    """
    bands = _subset_bands(m, kk, exact_k)
    splits = 0
    for j in range(1, kk + 1):
        for u in range(bands[j][0], bands[j][1] + 1):
            lo, hi = _subset_sizes(bands, j, u)
            splits += comb(m, u) * sum(comb(u, a) for a in range(lo, hi + 1))
    return 2 * splits


@lru_cache(maxsize=512)
def _combination_steps(u: int, r: int):
    """The r-subsets of range(u) in lexicographic order, each grown from an (r-1)-subset.

    The i-th r-subset is the ``parent[i]``-th (r-1)-subset plus ``last[i]``.
    """
    prev = {c: i for i, c in enumerate(combinations(range(u), r - 1))}
    steps = [(prev[c[:-1]], c[-1]) for c in combinations(range(u), r)]
    parent, last = np.array(steps, np.intp).reshape(-1, 2).T.copy()
    parent.flags.writeable = last.flags.writeable = False
    return parent, last


class _SizeTables(NamedTuple):
    """Tables of a ``_SubsetPlan`` for the vertex sets of one size u; row n is the n-th such set U.

    ``elems[n]`` lists U's vertices in increasing order and ``parents[n]`` is
    the row of U minus its lowest vertex among the sets of size u - 1.  Each
    column of ``apos`` is one split of U into a top part A and a block T
    below it and holds the number of A; the splits with |A| = a fill columns
    ``col[a - a_lo]:col[a - a_lo + 1]``.  Those subsets are grown one vertex
    at a time from whichever side, T (``grow_t``) or A, has fewer of them to
    grow.  ``apos`` and ``col`` are None when no level splits sets of size u.
    """

    elems: np.ndarray
    parents: np.ndarray
    grow_t: bool
    a_lo: int
    col: np.ndarray | None
    apos: np.ndarray | None


class _SubsetPlan(NamedTuple):
    """The weight-independent tables of ``solve_subset_dp`` for m vertices and kk levels.

    Vertex sets are bit masks, numbered by size, then value: ``masks[x]`` is
    the set numbered x, ``pos`` the inverse, ``off[u]`` the number of the
    first set of size u; ``sizes[u]`` holds the tables of size u.
    """

    bands: list
    masks: np.ndarray
    pos: np.ndarray
    off: np.ndarray
    sizes: list

    def columns(self, j: int, u: int) -> slice:
        """The columns of ``sizes[u]`` whose top part fits level j - 1."""
        tables = self.sizes[u]
        lo, hi = _subset_sizes(self.bands, j, u)
        return slice(tables.col[lo - tables.a_lo], tables.col[hi + 1 - tables.a_lo])


def _grown_subsets(u: int, grow_t: bool, a_lo: int, a_hi: int, bit: np.ndarray):
    """Yield (a, sums) for a = a_lo..a_hi: per split with |A| = a, the sum of ``bit`` over its grown side.

    ``bit[n, b]`` is a value attached to the b-th vertex of the n-th set of
    size u; the splits come in ``_combination_steps`` order of the grown side.
    """
    sums = bit  # over the 1-subsets
    for r in range(1, (u - a_lo if grow_t else a_hi) + 1):
        if r > 1:
            parent, last = _combination_steps(u, r)
            sums = sums[:, parent] + bit[:, last]
        a = u - r if grow_t else r
        if a_lo <= a <= a_hi:
            yield a, sums


def _build_subset_plan(m: int, kk: int, exact_k: bool) -> _SubsetPlan:
    bands = _subset_bands(m, kk, exact_k)
    size = sum((np.arange(1 << m) >> v) & 1 for v in range(m))
    masks = np.argsort(size, kind="stable")
    pos = np.empty_like(masks)
    pos[masks] = np.arange(1 << m)
    off = np.concatenate(([0], np.cumsum(np.bincount(size, minlength=m + 1))))
    shifts = np.arange(m)
    sizes: list = [None] * (m + 1)
    for u in range(1, m + 1):
        sets = masks[off[u] : off[u + 1]]
        elems = np.nonzero((sets[:, None] >> shifts) & 1)[1].reshape(-1, u)
        parents = pos[sets & (sets - 1)] - off[u - 1]
        split = [_subset_sizes(bands, j, u) for j in range(2, kk + 1) if bands[j][0] <= u <= bands[j][1]]
        if not split:
            sizes[u] = _SizeTables(elems, parents, False, 0, None, None)
            continue
        a_lo, a_hi = min(lo for lo, _ in split), max(hi for _, hi in split)
        grow_t = sum(comb(u, r) for r in range(1, u - a_lo + 1)) <= sum(
            comb(u, r) for r in range(1, a_hi + 1)
        )
        blocks = dict(_grown_subsets(u, grow_t, a_lo, a_hi, 1 << elems))
        if grow_t:
            blocks = {a: sets[:, None] ^ grown for a, grown in blocks.items()}
        apos = pos[np.concatenate([blocks[a] for a in range(a_lo, a_hi + 1)], axis=1)]
        col = np.cumsum([0] + [blocks[a].shape[1] for a in range(a_lo, a_hi + 1)])
        sizes[u] = _SizeTables(elems, parents, grow_t, a_lo, col, apos)
    for table in (masks, pos, off, *(t for s in sizes[1:] for t in s if isinstance(t, np.ndarray))):
        table.flags.writeable = False
    return _SubsetPlan(bands, masks, pos, off, sizes)


_PLAN_CACHE_CELLS = 2**22  # plans up to this many cells (about 16 MiB of tables) stay cached
_cached_subset_plan = lru_cache(maxsize=8)(_build_subset_plan)


def _subset_plan(m: int, kk: int, exact_k: bool) -> _SubsetPlan:
    """The plan for (m, kk, ``exact_k``); small plans are kept for the next call."""
    if _subset_cells(m, kk, exact_k) <= _PLAN_CACHE_CELLS:
        return _cached_subset_plan(m, kk, exact_k)
    return _build_subset_plan(m, kk, exact_k)


def _subset_cross(w: np.ndarray, plan: _SubsetPlan) -> list:
    """``cross[u][n, c]``: the weight from A down to T over split c of the n-th set U of size u.

    Since w is antisymmetric, that is the sum over T of the column sums of w
    over U, or minus the sum over A of them.
    """
    m = len(w)
    cross: list = [None] * (m + 1)
    colsum = np.zeros((1, m), w.dtype)  # colsum[n, t]: sum of w[x, t] over x in the n-th set
    for u in range(1, m + 1):
        elems, parents, grow_t, a_lo, col, apos = plan.sizes[u]
        colsum = colsum[parents] + w[elems[:, 0]]
        if apos is None:
            continue
        g = colsum[np.arange(len(elems))[:, None], elems]
        a_hi = a_lo + len(col) - 2
        out = cross[u] = np.empty(apos.shape, w.dtype)
        for a, sums in _grown_subsets(u, grow_t, a_lo, a_hi, g):
            out[:, col[a - a_lo] : col[a - a_lo + 1]] = sums if grow_t else -sums
    return cross


def solve_subset_dp(
    t: WeightedTournament,
    k: int,
    *,
    all_ties: bool = False,
    exact_k: bool = False,
    guard: int = DEFAULT_GUARD,
    witness_cap: int = DEFAULT_WITNESS_CAP,
) -> SolveResult:
    """Dynamic program over the set of vertices placed in the top blocks.

    Same contract as ``solve_bruteforce``.  ``F[j][U]``, the best score of j
    nonempty top blocks covering the vertex set U, is the best over the splits
    U = A + T (T the j-th block) of ``F[j-1][A]`` plus the weight from A down
    to T.  Only sets and splits that can still end in a partition of the
    requested size are visited (``_subset_bands``), so linear orders cost
    O(m 2^m) and k blocks O(k 3^m).  A backward pass from the optimal full
    sets keeps the tight splits (the optimal-edge set E*); every optimal
    partition is a chain of them.  Witnesses come in canonical order: the
    optimal chains are counted over E*, and if they fit under the cap they
    are listed and sorted; otherwise the vertices are assigned levels in
    index order, levels ascending, each prefix counted over the E* nodes it
    fits, until a prefix's chains fit what the cap has left.
    Raises GuardExceededError when ``_subset_cells`` exceeds ``guard``.
    """
    m = t.m
    kk = _levels(m, k, exact_k, witness_cap)
    cells = _subset_cells(m, kk, exact_k)
    if cells > guard:
        raise GuardExceededError(_guard_message("subset", cells, guard))
    w = t.integer_form.w
    plan = _subset_plan(m, kk, exact_k)
    bands, off = plan.bands, plan.off
    cross = _subset_cross(w, plan)
    base = [off[lo] for lo, _ in bands]  # F[j][x] is the set numbered base[j] + x

    F = [np.zeros(1, w.dtype), np.zeros(off[bands[1][1] + 1] - base[1], w.dtype)]
    for j in range(2, kk + 1):
        lo, hi = bands[j]
        f = np.empty(off[hi + 1] - base[j], w.dtype)
        for u in range(lo, hi + 1):
            cols = plan.columns(j, u)
            vals = F[j - 1][plan.sizes[u].apos[:, cols] - base[j - 1]] + cross[u][:, cols]
            f[off[u] - base[j] : off[u + 1] - base[j]] = vals.max(1)
        F.append(f)
    finals = [j for j in range(1, kk + 1) if bands[j][1] == m]  # the last entry is the full set
    best = max(F[j][-1] for j in finals)
    tops = [j for j in finals if F[j][-1] == best]

    # backward: live[j] marks the sets on some optimal chain, edges[j] the tight splits into them
    live = [np.ones(1, bool)] + [np.zeros(len(f), bool) for f in F[1:]]
    for j in tops:
        live[j][-1] = True
    edges: list = [None] * (kk + 1)
    for j in range(kk, 1, -1):
        src, dst = [], []
        for u in range(bands[j][0], bands[j][1] + 1):
            first = off[u] - base[j]
            rows = np.flatnonzero(live[j][first : off[u + 1] - base[j]])
            if rows.size == 0:
                continue
            cols = plan.columns(j, u)
            top = plan.sizes[u].apos[rows, cols] - base[j - 1]
            r, c = np.nonzero(F[j - 1][top] + cross[u][rows, cols] == F[j][first + rows][:, None])
            src.append(top[r, c])
            dst.append(first + rows[r])
        src = np.concatenate(src) if src else np.zeros(0, np.intp)
        live[j - 1][src] = True
        edges[j] = (src, np.concatenate(dst) if dst else np.zeros(0, np.intp))
    edges[1] = (np.zeros(live[1].sum(), np.intp), np.flatnonzero(live[1]))

    need = witness_cap if all_ties else 1
    chains = _OptimalChains(m, plan.masks, base, live, edges, tops, need)
    found: list[tuple[int, ...]] = []

    def visit(prefix: list[int], counts, total: int) -> None:
        if total <= need - len(found):
            found.extend(chains.listed(counts))
            return
        for b in range(kk):
            sub, n = chains.counted(prefix + [b])
            if n:
                visit(prefix + [b], sub, n)
            if len(found) == need:
                return

    counts, total = chains.counted([])
    visit([], counts, total)
    truncated = all_ties and total > witness_cap
    return SolveResult(Fraction(int(best), t.integer_form.scale), t.vertices, tuple(found), truncated)


class _OptimalChains:
    """The optimal-edge set E* of ``solve_subset_dp``, for counting and listing optimal chains.

    Level j keeps its live sets (``sets[j]``, bit masks in numbering order)
    and the tight splits into them sorted by target: ``src[j]`` indexes the
    split's top part among the live sets of level j - 1, and the splits into
    live set x are ``start[j][x]:start[j][x + 1]`` (every live set has one).
    A chain fits a prefix (levels of vertices 0..i-1) when each of its sets
    holds exactly the prefix vertices placed above its level.  Counts
    saturate at ``need + 1``, which keeps every comparison with the part of
    the cap still open exact.
    """

    def __init__(self, m, masks, base, live, edges, tops, need):
        self.m, self.tops, self.ceiling = m, tops, need + 1
        self.count_dtype = np.int64 if self.ceiling << m < 2**62 else object
        ids = [np.zeros(1, np.intp)] + [np.flatnonzero(x) for x in live[1:]]
        self.sets = [np.zeros(1, np.intp)]
        self.src, self.start = [None], [None]
        for j in range(1, len(live)):
            src, dst = edges[j]
            order = np.argsort(dst, kind="stable")
            self.sets.append(masks[base[j] + ids[j]])
            self.src.append(np.searchsorted(ids[j - 1], src[order]))
            self.start.append(np.append(np.searchsorted(dst[order], ids[j]), src.size))

    def counted(self, prefix: list[int]):
        """Per level and live set, the tight chains from the empty set to it through sets fitting ``prefix``.

        Also returns how many optimal chains fit ``prefix`` (both saturated).
        """
        low = (1 << len(prefix)) - 1
        counts = [np.ones(1, self.count_dtype)]
        for j in range(1, len(self.sets)):
            if self.sets[j].size == 0:
                counts.append(np.zeros(0, self.count_dtype))
                continue
            c = np.add.reduceat(counts[j - 1][self.src[j]], self.start[j][:-1])
            placed = sum(1 << v for v, b in enumerate(prefix) if b < j)
            c[self.sets[j] & low != placed] = 0
            counts.append(np.minimum(c, self.ceiling))
        return counts, sum(int(counts[j][-1]) for j in self.tops)

    def listed(self, counts) -> list[tuple[int, ...]]:
        """Every optimal chain with nonzero ``counts``, as level vectors in lexicographic order."""
        shifts = np.arange(self.m)
        found = []
        for top in self.tops:
            if counts[top][-1] == 0:
                continue
            cur = np.array([len(counts[top]) - 1])
            levels = np.zeros((1, self.m), np.intp)
            for j in range(top, 0, -1):  # extend the chains upward, one block at a time
                first = self.start[j][cur]
                deg = self.start[j][cur + 1] - first
                owner = np.repeat(np.arange(cur.size), deg)
                prev = self.src[j][np.arange(deg.sum()) + np.repeat(first - deg.cumsum() + deg, deg)]
                keep = counts[j - 1][prev] > 0
                owner, prev = owner[keep], prev[keep]
                block = self.sets[j][cur[owner]] ^ self.sets[j - 1][prev]
                levels = levels[owner]
                levels[((block[:, None] >> shifts) & 1).astype(bool)] = j - 1
                cur = prev
            found.append(levels)
        levels = np.concatenate(found)
        return list(map(tuple, levels[np.lexsort(levels.T[::-1])].tolist()))


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


_ROUTE_WORK = {
    "walk": ("exhaustive walk", "level vectors"),
    "subset": ("subset dynamic program", "cells"),
}


def _guard_message(route: str, estimate: int, guard: int) -> str:
    name, units = _ROUTE_WORK[route]
    return f"{name}: {estimate} {units} exceed the guard of {guard}"


def _route(t: WeightedTournament, k: int, exact_k: bool) -> tuple[str, int | None]:
    """The route ``solve`` takes, with its work estimate (None on the polynomial routes).

    2-partitions go to ``"2op"`` and purely acyclic weights to ``"divider"``.
    Otherwise the exponential route with the smaller estimate wins:
    ``"walk"`` visits kk**m level vectors, ``"subset"`` evaluates
    ``_subset_cells`` cells; a tie goes to the walk.
    """
    if k == 2 and t.m >= 2:
        return "2op", None
    if t.integer_form.is_acyclic():
        return "divider", None
    kk = _levels(t.m, k, exact_k, 1)
    walk, cells = kk**t.m, _subset_cells(t.m, kk, exact_k)
    return ("subset", cells) if cells < walk else ("walk", walk)


def solve(
    t: WeightedTournament,
    k: int,
    *,
    all_ties: bool = False,
    exact_k: bool = False,
    guard: int = DEFAULT_GUARD,
    witness_cap: int = DEFAULT_WITNESS_CAP,
) -> SolveResult:
    """Dispatch to the cheapest exact route for the given instance (see ``_route``).

    2-partitions go through the acyclic projection and purely acyclic weights
    through the divider dynamic program, both polynomial.  Everything else
    goes to the exhaustive walk or the subset dynamic program, whichever
    estimates less work; GuardExceededError names that route when its
    estimate exceeds ``guard``.
    """
    _levels(t.m, k, exact_k, witness_cap)
    route, estimate = _route(t, k, exact_k)
    if route == "2op":
        return solve_2op(t, all_ties=all_ties, exact_k=exact_k, witness_cap=witness_cap)
    if route == "divider":
        return solve_acyclic_dp(
            t, k, all_ties=all_ties, exact_k=exact_k, witness_cap=witness_cap
        )
    if estimate > guard:
        raise GuardExceededError(_guard_message(route, estimate, guard))
    exhaustive = solve_subset_dp if route == "subset" else solve_bruteforce
    return exhaustive(
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
