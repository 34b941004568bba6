"""Exact solvers for maximal ordered-partition scores.

Four routes are provided:

* ``solve_bruteforce`` enumerates every ordered partition into at most (or
  exactly) k nonempty blocks, by walking level assignments in lexicographic
  order.  It is the oracle the faster routes are tested against.  A single
  numpy kernel (``_walk_levels``) numbers the labelings of the leading
  vertices (the prefix rows) and scores a chunk of rows times every labeling
  of the trailing vertices, about 2**16 level vectors, in one array per
  numpy pass; row-major order in that array is lexicographic order.  The
  trailing vertices' own scores and their terms with each leading vertex
  come from small cached tables of the two halves of the suffix
  (``_suffix_tables``), not from a pass over every suffix pair times every
  suffix labeling.  Its pair term is the ordered one; in unordered mode it
  is the cut term and each unordered partition is visited once, so
  ``maxkop.reductions.solve_cut_bruteforce`` runs on it too.  Vectors the
  walk does not visit are scored as well: each ties a visited vector that
  comes earlier, so a chunk's maximum raises the lead (the highest score
  some visited vector is known to reach) before any validity check, and only
  the ties are checked.  Every chunk takes its ties by that one rule, on
  int64 and rounded weights alike.  ``solve``'s walk is bounded (branch and
  bound over the prefix rows): each block of rows gets an upper bound per
  row in one vectorised pass, the row with the highest bound seeds the best
  accepted score, and only the rows whose bound reaches the best so far are
  scored.  A skipped row scores strictly below an accepted vector, so it
  holds no optimum, and the ties, their order and the cap stay those of the
  unbounded walk.  Walks over fewer than ``_BOUND_ROWS`` prefix rows skip
  the pass.  ``solve_bruteforce`` and the cut walk stay unbounded, as the
  oracles.
* ``solve_subset_dp`` is a dynamic program over the set of vertices placed
  in the top blocks, adding one block per level (``_subset_dp``): O(m 2^m)
  for linear orders (exactly m blocks) and O(k 3^m) for k blocks, exact on
  any weights.  Its vertex sets are numbered by size, then in colex order,
  each grown from a set one smaller by one step of ``_colex_steps``, the one
  enumeration of r-subsets (the divider DP's tie expansion, ``_subsets``,
  reads it too).  One forward loop visits the sizes in increasing order: it
  grows a size's sets from the size below, builds their split tables
  (``_split_tables``), updates every level whose band holds that size, and
  drops the tables before the next size, so memory holds one size class's
  splits.  The backward pass rebuilds the splits of the sets on optimal
  chains only, through the same helper.
* ``solve_acyclic_dp`` handles weights with no cyclic part.  Some optimal
  partition is then monotone in the Borda scores, so a dynamic program over
  divider positions in the sorted score sequence finds the optimum with
  O(k m^2) integer arithmetic.
* ``solve_2op`` replaces the weights by their acyclic component, which leaves
  every 2-partition score unchanged, and runs the dynamic program with k=2.

Both polynomial routes run one kernel, ``_divider_dp``, on the Borda vector
beta alone: the acyclic component is the outer difference of beta over
scale * m, and the optimum depends on nothing else when the cyclic component
is zero (acyclic weights) or invisible (2-partitions).

Every solver, ``solve`` included, takes one request path, ``_run_route``.
It alone checks the request (``_levels``, then the guard of an exponential
route), runs the route's kernel and builds the ``SolveResult``.  A kernel
(``_walk_levels``, ``_subset_dp``, ``_divider_dp``) is a function of the
integer form's arrays and the number of witnesses wanted that returns
(best, count, table): the optimum in the form's units, the number of
optimal level vectors, and the least of them, one per row.

``solve`` plans the route (``_route``) and hands it to ``_run_route``: k = 2
and acyclic weights take the polynomial routes; otherwise it takes the
exponential route with the least modeled time among those whose work fits
the guard.  A route's modeled time is a per-call constant plus a per-unit
cost times its units of work (``_units``: the walk's k^m level vectors, the
subset program's cells), both fit per integer form (``_ROUTE_COST``).  The
guard is charged those same units, so it bounds the estimate that picked
the route: units, not time.

Every route reads the tournament's ``integer_form`` (see
``maxkop.tournament``), whose dtype is int64 or Python ints (object arrays).
The walk scores in int64 either way: Python-int weights are divided by a
power of two and rounded (``_walk_weights``), which moves any two rounded
scores by at most a known slack against the exact ones, so every vector
whose rounded score trails the lead by more than the slack is dropped, and
only the survivors are scored exactly, in Python ints, over all their pairs
(``_pair_scores``, which also scores the prefix rows).  The
optimum, ties and witnesses come from those exact scores alone; no float is
used anywhere.

Results carry every optimal partition (up to a cap, flagged by ``truncated``)
or just the canonically least one.  Every route builds them as one integer
table of level vectors (the block index of each vertex, 0 the top block), one
row per witness in lexicographic order, the order the walk visits them in, so
every route keeps the same witnesses under a cap.  Both dynamic programs list
ties with ``_canonical_walk``, which counts the optimal paths over their tight
steps (``_TightPaths``) fitting a prefix of levels, in polynomial time per
witness.

The walk is a loop over chunks and ``_canonical_walk`` a loop over an
explicit stack, not self-calling closures, so no call leaves a reference
cycle for the collector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from math import comb

import numpy as np

from .tournament import (
    OrderedPartition,
    WeightedTournament,
    _as_fraction,
    _form_dtype,
    _integer,
    _level_blocks,
    _LevelTableResult,
)

DEFAULT_GUARD = 10**8
DEFAULT_WITNESS_CAP = 10_000
_BLOCK = 3**7  # about this many suffix labelings per prefix row in the exhaustive walk
_CHUNK = 2**16  # about this many level vectors scored per numpy pass in the exhaustive walk
_FLOOR = np.iinfo(np.int64).min  # below every int64 walk score (those stay within 2**62)
_BOUND_ROWS = 10  # bounded walks over fewer prefix rows than this score every row


class GuardExceededError(RuntimeError):
    """Raised when a route's estimated work exceeds the configured guard."""


@dataclass(frozen=True, init=False, eq=False, repr=False)
class SolveResult(_LevelTableResult):
    """Optimal score plus the partitions achieving it.

    ``table`` holds the witnesses as a read-only integer table of level
    vectors over ``vertices`` (``table[i, v]`` is the block of ``vertices[v]``
    in the i-th witness, 0 the top block), in canonical (lexicographic) order;
    ``levels`` and ``witnesses`` (``OrderedPartition`` objects) derive from it
    (see ``_LevelTableResult``).  ``truncated`` marks that further tied
    witnesses were dropped at the cap.
    """

    optimum: Fraction
    vertices: tuple[str, ...]
    table: np.ndarray
    truncated: bool

    @cached_property
    def witnesses(self) -> tuple[OrderedPartition, ...]:
        return tuple(_partition_from_levels(self.vertices, lv) for lv in self.table.tolist())


def _levels(m: int, k: int, exact_k: bool, witness_cap: int) -> int:
    """Validate a request; the number of levels to search with, a Python int."""
    k = _integer(k, "k", 1)  # a numpy k would wrap in k**m
    _integer(witness_cap, "witness_cap", 1)
    if exact_k and k > m:
        raise ValueError(f"cannot split {m} vertices into {k} nonempty blocks")
    return k if exact_k else min(k, m)


def _partition_from_levels(vertices: tuple[str, ...], levels) -> OrderedPartition:
    return OrderedPartition(tuple(_level_blocks(vertices, levels)))


@lru_cache(maxsize=64)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs i < j of range(n) in lexicographic order, as read-only (first, second)."""
    first, second = np.triu_indices(n, 1)
    first.flags.writeable = second.flags.writeable = False
    return first, second


@lru_cache(maxsize=64)
def _digits(k: int, n: int) -> np.ndarray:
    """``digits[j, y]``: the level of vertex j in the y-th of the k**n labelings of n vertices.

    Read-only.
    """
    digits = np.arange(k**n) // k ** np.arange(n - 1, -1, -1)[:, None] % k
    digits.flags.writeable = False
    return digits


@lru_cache(maxsize=64)
def _step(k: int, unordered: bool) -> np.ndarray:
    """``step[l, c]``: the pair term of vertices i < j at levels l and c, read-only int64.

    sign(c - l) for ordered partitions (+1 when i's block is above j's, -1
    below, 0 within one), or ``l != c`` with ``unordered`` (cuts).
    """
    lv = np.arange(k)
    step = (lv[:, None] != lv if unordered else np.sign(lv - lv[:, None])).astype(np.int64)
    step.flags.writeable = False
    return step


@lru_cache(maxsize=64)
def _half_side(k: int, n: int, unordered: bool) -> np.ndarray:
    """``side[l, i, y]``: the pair term of a vertex at level l before vertex i of n under labeling y.

    Read-only int64: the terms of earlier vertices with a half of the suffix
    are their weights into the half times this table.
    """
    side = _step(k, unordered)[:, _digits(k, n)]
    side.flags.writeable = False
    return side


@lru_cache(maxsize=64)
def _half_pairs(k: int, s: int, h: int, unordered: bool) -> tuple[np.ndarray, np.ndarray]:
    """(take, pairs): the pair terms within each half of an s-vertex suffix whose head is h vertices.

    ``pairs`` is block diagonal: row q is a pair, the head's first, and
    column y1 (or k**h + y2) a labeling of the head (or the tail).
    ``take[q]`` is the flat index of pair q in the s-by-s suffix weights.
    Both are read-only, ``pairs`` int64.
    """
    step = _step(k, unordered)
    blocks, take = [], []
    for n, at in ((h, 0), (s - h, h)):
        digits = _digits(k, n)
        first, second = _pairs(n)
        blocks.append(step[digits[first], digits[second]])
        take.append((at + first) * s + at + second)
    pairs = np.zeros((sum(len(b) for b in blocks), k**h + k ** (s - h)), np.int64)
    pairs[: len(blocks[0]), : k**h] = blocks[0]
    pairs[len(blocks[0]) :, k**h :] = blocks[1]
    take = np.concatenate(take)
    pairs.flags.writeable = take.flags.writeable = False
    return take, pairs


def _suffix_tables(w: np.ndarray, p: int, k: int, s: int, unordered: bool) -> tuple:
    """The suffix's own scores and its pair terms with the prefix, under weights w, per half.

    The last s of w's vertices are the suffix, split into a head of h
    vertices and a tail, so suffix labeling x is (y1, y2) = divmod(x,
    k**(s - h)).  A full suffix (k**(s + 1) past ``_BLOCK``, as every suffix
    after a prefix is) splits in halves, h = s // 2; a shorter one, the
    whole of a small tournament, is scored once and is all tail, h = 0.
    Returns (lift, own): ``own[y1, y2]`` is the score of x within the suffix,
    and ``lift[b][l, i, y]`` sums the pair terms of prefix vertex i at level
    l with the vertices of half b (0 the head) under its labeling y; lift is
    None when p = 0.  Both come from cached per-half tables: own is the
    head's internal terms plus the tail's (``_half_pairs``) plus the cross
    terms, each head vertex adding one row block of ``w[head, tail] @
    _half_side(k, s - h)``, and ``lift[b]`` is ``w[:p, half b]`` times the
    half's ``_half_side``.
    """
    h = s // 2 if k ** (s + 1) > _BLOCK else 0
    take, pairs = _half_pairs(k, s, h, unordered)
    inner = w[p:, p:].take(take) @ pairs  # the head's own terms, then the tail's
    own = inner[None, k**h :]
    if p + h:  # the tail's terms with every vertex before it: the prefix's, then the head's
        below = w[: p + h, p + h :] @ _half_side(k, s - h, unordered)
    for i in range(h):  # head vertex i at each level, one block of rows per level
        own = (own[:, None] + below[:, p + i][None]).reshape(-1, own.shape[-1])
    if h > 1:  # a head of one vertex has no internal terms
        own += inner[: k**h, None]
    if not p:
        return None, own
    return (w[:p, p : p + h] @ _half_side(k, h, unordered), below[:, :p]), own


def _walk_weights(w: np.ndarray) -> tuple[np.ndarray, int]:
    """The walk's int64 weights and the slack of the scores they give (see ``_walk_levels``).

    An int64 w comes back unchanged, with slack 0.  Python ints (object) are
    divided by 2**e and rounded per entry, halves away from zero (so an
    antisymmetric or symmetric w stays so), e being the least shift with
    2 * m * sum(abs(w64)) < 2**62, the int64 form's own bound.  Each of the
    P = m(m-1)/2 pairs is then off by at most 1/2, so two level vectors'
    rounded scores differ from their exact scores over 2**e by at most
    slack = P.  A shift of 0 is exact, with slack 0.
    """
    if w.dtype.kind != "O":
        return w, 0
    m = len(w)
    mag = abs(w)
    e = max(0, (2 * m * int(mag.sum())).bit_length() - 63)  # any shift below this fails
    while True:
        rounded = (mag + (1 << e >> 1)) >> e
        if 2 * m * int(rounded.sum()) < 2**62:
            break
        e += 1
    w64 = np.where(w < 0, -rounded, rounded).astype(np.int64)
    return w64, m * (m - 1) // 2 if e else 0


@lru_cache(maxsize=64)
def _walk_mask(k: int, s: int, exact_k: bool, unordered: bool) -> np.ndarray:
    """``ok[pmask, x]``: suffix labeling x completes a prefix using the levels ``pmask``.

    That is, into a vector the walk visits: gap-free, using every level with
    ``exact_k``, and restricted-growth with ``unordered``.  One row for each
    of the 2**k level sets, over the k**s labelings of an s-vertex suffix;
    read-only.
    """
    digits = _digits(k, s)
    # each distinct level set of the labelings once, so that the only table of all 2**k
    # prefix level sets by all k**s labelings is the bool one
    used, at = np.unique(np.bitwise_or.reduce(1 << digits, axis=0), return_inverse=True)
    sets = np.arange(1 << k)
    good = sets == sets[-1] if exact_k else (sets & (sets + 1)) == 0  # all k levels, or gap-free
    ok = good[sets[:, None] | used][:, at]
    if unordered:  # restricted growth: each level at most one above the highest before it
        # fresh[j, x]: one above the highest level of suffix vertices 0..j-1 (0 for j = 0)
        fresh = np.maximum.accumulate(np.vstack([np.zeros(k**s, np.intp), digits[:-1] + 1]))
        # need[x]: the least h letting x grow after a prefix whose highest level is h - 1
        need = np.where(digits > fresh, digits, 0).max(0)
        ok &= need <= np.array([pmask.bit_length() for pmask in range(1 << k)])[:, None]
    ok.flags.writeable = False
    return ok


@lru_cache(maxsize=64)
def _growth_counts(k: int, p: int) -> np.ndarray:
    """``ways[d, h]``: restricted-growth labelings of d more vertices once levels 0..h-1 are used.

    At most k levels are used, so ``ways[p, 0]`` counts the unordered
    partitions of p items into at most k blocks.  Every entry is at most
    k**p, which sets the dtype (``_form_dtype``: int64, or exact Python ints
    past 2**62); read-only.
    """
    ways = np.ones((p + 1, k + 1), _form_dtype(k**p))
    for d in range(1, p + 1):  # below h: any used level; h itself: a fresh one
        ways[d] = np.arange(k + 1) * ways[d - 1] + np.append(ways[d - 1, 1:], 0)
    ways.flags.writeable = False
    return ways


def _prefix_labels(rows: np.ndarray, k: int, p: int, unordered: bool) -> np.ndarray:
    """The p-vertex labelings numbered ``rows``, one per row, in lexicographic order.

    Every one of the k**p labelings is numbered, or with ``unordered`` only
    the restricted-growth ones (``_growth_counts``).
    """
    if not unordered:
        return rows[:, None] // k ** np.arange(p - 1, -1, -1) % k
    ways = _growth_counts(k, p)
    labels = np.empty((len(rows), p), np.intp)
    used = np.zeros(len(rows), np.intp)
    rest = rows.copy()
    for i in range(p):
        per = ways[p - 1 - i, used]  # labelings of the later vertices per used level
        lab = np.minimum(rest // per, used)  # ``used`` itself is the fresh level
        rest -= lab * per
        labels[:, i] = lab
        used += lab == used
    return labels


def _pair_scores(levels: np.ndarray, w: np.ndarray, step: np.ndarray) -> np.ndarray:
    """The score of each row of ``levels`` over the first ``levels.shape[1]`` vertices of w.

    One matmul over the pairs i < j of those vertices: the sum of
    ``w[i, j] * step[l[i], l[j]]``, exact in w's dtype.
    """
    first, second = _pairs(levels.shape[1])
    return step[levels[:, first], levels[:, second]] @ w[first, second]


def _row_terms(labels, lift, w, step) -> tuple:
    """The terms of each prefix labeling ``labels[b]`` (a row) that its vectors share.

    Returns (score, l0, l1): ``score[b]`` sums the pair terms within the
    prefix (``_pair_scores``), and ``l0[b, y1]`` and ``l1[b, y2]`` the terms
    of the prefix with the head and the tail of the suffix under their
    labelings y1 and y2 (gathered from ``lift``, see ``_suffix_tables``, one
    prefix vertex at a time), all under weights w.  The prefix holds at least
    one vertex.
    """
    p = labels.shape[1]
    score = _pair_scores(labels, w, step)
    head, tail = lift[0][labels[:, 0], 0], lift[1][labels[:, 0], 0]
    for i in range(1, p):  # no n-by-p-by-labelings gather: a bounded block has many rows
        head += lift[0][labels[:, i], i]
        tail += lift[1][labels[:, i], i]
    return score, head, tail


def _row_scores(rows: tuple, own, vals: np.ndarray) -> np.ndarray:
    """Fill ``vals[b, x]`` with the score of row b then suffix labeling x = (y1, y2).

    ``rows`` holds the rows' (score, l0, l1) from ``_row_terms`` and
    ``own[y1, y2]`` the suffix-internal score of x (``_suffix_tables``); the
    two halves of the suffix meet in one broadcast add.
    """
    score, l0, l1 = rows
    out = vals.reshape(len(score), *own.shape)
    np.add(own, l1[:, None, :], out=out)
    out += (l0 + score[:, None])[:, :, None]
    return vals


def _row_bounds(rows: tuple, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """``U[b]``, at least the score of every vector of row b, from the rows' ``_row_terms``.

    With o[y1, y2] = ``own`` over the suffix halves, ``heads[y1]`` is the
    maximum of o[y1, :] and ``tails[y2]`` that of o[:, y2].  A vector of the
    row scores score + o[y1, y2] + l0[y1] + l1[y2], which is at most
    score + max(heads + l0) + max(l1) and at most score + max(tails + l1) +
    max(l0); U is the smaller.
    """
    score, l0, l1 = rows
    by_head = (heads + l0).max(1) + l1.max(1)
    by_tail = (tails + l1).max(1) + l0.max(1)
    return score + np.minimum(by_head, by_tail)


def _walk_levels(
    w: np.ndarray, k: int, exact_k: bool, cap: int, *, unordered: bool, bound: bool = False
):
    """Score every gap-free level vector in lexicographic order.

    A level vector l scores the sum of ``w[i, j] * step[l[i], l[j]]`` over
    pairs i < j, ``step`` being the ordered pair term, or the cut term with
    ``unordered`` (see ``_step``).  It is gap-free when the levels it
    uses are 0..j-1, so each ordered partition has exactly one; with
    ``unordered`` only restricted-growth vectors (each level first used after
    every lower one) are visited, one per unordered partition.  Returns the
    best score, the number of level vectors reaching it, and the first ``cap``
    of those in visit order, one per row of an intp array.

    The last ``s`` vertices are the suffix, ``k**s`` being about ``_BLOCK``,
    and the first p the prefix.  The prefix labelings (rows) are numbered in
    lexicographic order, only the restricted-growth ones with ``unordered``
    (``_prefix_labels``), and scored in chunks of ``_CHUNK // k**s`` rows.
    Once per call, ``_suffix_tables`` builds ``own``, the suffix-internal
    scores over (head, tail) labelings, and ``lift``, the pair terms of each
    prefix vertex with each half of the suffix, from cached int64 tables of
    the two halves (``_half_pairs``, ``_half_side``).  The rows come in
    blocks, one chunk each unless bounded (below).  A block derives all it
    needs from its row numbers (``_row_terms``), and nothing is kept from
    one block to the next: the labels and levels used, the prefix scores
    (one matmul over the prefix pairs), and the pair terms of the prefix
    with each half of the suffix under each of its labelings (gathered from
    ``lift``).  One broadcast add joins the two halves onto ``own`` into the
    score of every (row, suffix labeling) pair of a chunk (``_row_scores``).
    Row-major order over those pairs is lexicographic order over the
    vectors, so one ``flatnonzero`` per chunk gives its ties in visit order.

    Every chunk takes its ties by one rule.  The lead is the highest score
    some visited vector is known to reach.  A chunk whose maximum is the
    floor, or below the lead minus the slack (0 on int64 weights, see
    below), holds no optimum and is skipped; otherwise its maximum raises
    the lead.  The candidates are the vectors scoring that maximum, or on
    rounded weights those within the slack of the lead; the unvisited ones
    are dropped, and the rest are merged into the best, the count of ties
    and the kept rows.

    Vectors the walk does not visit (gapped, or not restricted-growth) are
    scored too.  Each of them compresses its levels (ordered) or relabels
    them by first use (cuts) into a visited vector with the same score that
    is lexicographically smaller, so it sits in the same chunk or an earlier
    one.  A chunk's maximum over all its vectors is thus a score some
    visited vector reaches, and may raise the lead before the validity
    check; only the candidates are checked.  With ``exact_k`` that argument
    fails (a vector using fewer levels may score more), so invalid vectors
    are masked below every score before the maximum is taken.

    With ``bound`` (``solve``'s walk; ``solve_bruteforce`` and the cut walk
    stay unbounded, as the oracles), rows come in blocks of about
    ``_CHUNK // (k**h + k**t)`` rows, h and t being the sizes of the
    suffix's halves, and each block is first bounded in one vectorised pass
    (``_row_bounds``): U(row) is at least the score of every vector of the
    row, from the block's prefix scores and half-lifts and two maxima of
    ``own`` taken once per call.  A row with no visited vector gets the
    floor.  The block's row with the highest bound, when that bound passes
    the lead, raises the lead to its best accepted vector's score; that row
    is scored again in turn.  Then only the rows whose bound reaches the
    lead (minus the slack, on rounded weights) are scored, in chunks of the
    block's terms, and the lead rises as chunks are scored.  A skipped row's
    bound is strictly below an accepted score, so every vector in it is
    strictly below the optimum (or, on rounded weights, would not survive
    the slack) and would never be kept: the best, the count of ties, their
    order, and the cap stay those of the unbounded walk.  The block's terms
    are dropped before the next block, so memory stays that of a block.
    Walks over fewer than ``_BOUND_ROWS`` rows skip the pass, which would
    not pay there.

    Every score is taken in int64, on the weights of ``_walk_weights``.  For
    int64 weights those scores are exact.  Python-int weights are rounded,
    and a rounded score is off by at most slack / 2 from the exact one over
    2**e, so a vector whose rounded score is below the lead minus the slack
    cannot be optimal.  Invalid vectors are masked here too; the chunk's
    maximum joins the lead first, and only the vectors within the slack of
    it (the survivors) are scored exactly, each over all its pairs
    (``_pair_scores`` on its whole vector).  When over a quarter of the
    vectors of the rows holding survivors survive, those rows are scored
    whole instead, like a chunk, on exact ``own`` and ``lift`` tables that
    ``_suffix_tables`` builds once per call.  Ties, count and cap are taken
    on exact scores, and every optimal vector is a survivor, so the result
    is exact.
    """
    m = w.shape[0]
    s = 1
    while s < m and k ** (s + 1) <= _BLOCK:
        s += 1
    p, size = m - s, k**s
    digits, step = _digits(k, s), _step(k, unordered)
    ok = _walk_mask(k, s, exact_k, unordered)
    w64, slack = _walk_weights(w)
    masked = exact_k or slack  # invalid vectors may outscore the best valid one, or its rounding
    lift, own = _suffix_tables(w64, p, k, s, unordered)  # own[y1, y2]: suffix-internal scores
    nrows = int(_growth_counts(k, p)[p, 0]) if unordered else k**p
    batch = block = min(max(1, _CHUNK // size), nrows)
    bounded = bound and nrows >= _BOUND_ROWS
    labels, pmask = np.zeros((1, 0), np.intp), np.zeros(1, np.intp)  # the one row when p = 0
    if p:
        chunk = np.empty((batch, size), np.int64)  # the chunk's scores
    if bounded:
        heads, tails = own.max(1), own.max(0)
        fits = ok.any(1)  # fits[pmask]: some vector is visited
        block = min(max(1, _CHUNK // (len(heads) + len(tails))), nrows)
    best = lead = xown = live = rows = None
    nopt = nkept = 0
    kept: list[np.ndarray] = []
    for lo in range(0, nrows, block):
        if p:
            labels = _prefix_labels(np.arange(lo, min(lo + block, nrows)), k, p, unordered)
            pmask = np.bitwise_or.reduce(1 << labels, axis=1)
            rows = _row_terms(labels, lift, w64, step)
        if bounded:
            score, l0, l1 = rows
            ub = _row_bounds(rows, heads, tails)
            if masked:  # unmasked, every vector scores at most the best visited one
                ub[~fits[pmask]] = _FLOOR
            r = int(ub.argmax())
            if ub[r] == _FLOOR:
                continue
            if lead is None or ub[r] > lead:  # the seed row: its best vector raises the lead
                one = slice(r, r + 1)
                vals = _row_scores((score[one], l0[one], l1[one]), own, chunk[:1])
                if masked:
                    np.putmask(vals, ~ok[pmask[r]], _FLOOR)
                top = int(vals.max())
                lead = top if lead is None else max(lead, top)
            live = np.flatnonzero(ub >= lead - slack)
        for i in range(0, 1 if live is None else live.size, batch):
            lab, pm, part = labels, pmask, rows  # the chunk: the whole block, unbounded
            if live is not None:  # the next live rows still reaching the lead
                at = live[i : i + batch]
                if i:  # the lead may have risen since ``live`` was taken
                    at = at[ub[at] >= lead - slack]
                    if at.size == 0:
                        continue
                lab, pm, part = labels[at], pmask[at], (score[at], l0[at], l1[at])
            # with p = 0 the one row is ``own`` itself, which nothing reads again
            vals = _row_scores(part, own, chunk[: len(lab)]) if p else own.reshape(1, -1)
            if masked:
                np.putmask(vals, ~ok[pm], _FLOOR)
            top = int(vals.max())
            if top == _FLOOR or lead is not None and top < lead - slack:
                continue
            lead = top if lead is None else max(lead, top)
            hits = np.flatnonzero(vals >= lead - slack if slack else vals == top)
            if not masked:  # the unvisited vectors among the ties
                hits = hits[ok[pm[hits // size], hits % size]]
            if slack:  # the survivors, scored exactly
                r, x = np.divmod(hits, size)
                held, row_of = np.unique(r, return_inverse=True)
                if 4 * hits.size > held.size * size:  # their whole rows, scored exactly
                    if xown is None:
                        xlift, xown = _suffix_tables(w, p, k, s, unordered)
                    if p:
                        xvals = np.empty((held.size, size), object)
                        xvals = _row_scores(_row_terms(lab[held], xlift, w, step), xown, xvals)
                    else:  # the one row
                        xvals = xown.reshape(1, -1)
                    xvals = xvals[row_of, x]
                else:  # each survivor over all its pairs
                    xvals = _pair_scores(np.hstack([lab[r], digits[:, x].T]), w, step)
                top = xvals.max()
                hits = hits[xvals == top]
            if hits.size == 0 or best is not None and top < best:
                continue
            if best is None or top > best:
                best, nopt, nkept, kept = top, 0, 0, []
            nopt += hits.size
            r, x = np.divmod(hits[: cap - nkept], size)
            if r.size:
                kept.append(np.hstack([lab[r], digits[:, x].T]))
                nkept += r.size
    return best, nopt, np.concatenate(kept)


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
    Raises GuardExceededError when the level-vector count k^m exceeds
    ``guard``.
    """
    return _run_route(t, "walk", k, all_ties, exact_k, guard, witness_cap)


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
def _colex_steps(n: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The r-subsets of range(n) in colex order, each grown from an (r-1)-subset.

    The i-th r-subset is the ``parent[i]``-th (r-1)-subset plus its largest
    element ``last[i]``.  In the combinatorial number system (Knuth, TAOCP
    4A, 7.2.1.3) the subsets whose largest element is t take the comb(t, r - 1)
    numbers from comb(t, r) on, in the order of the (r-1)-subsets of range(t)
    that they extend.  Colex order is the order of the subsets' bit masks, and
    the r-subsets of range(n) are the first comb(n, r) of any longer range.
    """
    count = np.array([comb(t, r - 1) for t in range(r - 1, n)], np.intp)
    last = np.repeat(np.arange(r - 1, n), count)
    parent = np.arange(len(last)) - np.repeat(np.cumsum(count) - count, count)
    parent.flags.writeable = last.flags.writeable = False
    return parent, last


def _split_tables(
    pos: np.ndarray, sets: np.ndarray, elems: np.ndarray, g: np.ndarray, a_lo: int, a_hi: int
) -> tuple:
    """(row, top, cross): the splits U = A + T with a_lo <= |A| <= a_hi of vertex sets of one size u.

    Column n is the set with mask ``sets[n]``, whose vertices ``elems[:, n]``
    lists in increasing order; ``g[b, n]`` is the column sum of w over U at
    U's b-th vertex.  Each row is one split: those with |A| = a fill rows
    ``row[a_hi - a]:row[a_hi - a + 1]``, in the colex order of T as a subset
    of U's positions (``_colex_steps(u, |T|)``).  ``top`` holds the number of
    A (``pos[mask]`` numbers a set) and ``cross`` the weight from A down to
    T, which, since w is antisymmetric, is the sum of g over T.  The blocks T
    are grown one vertex at a time, a gather of whole rows per step, which
    never enumerates more subsets than growing A would: a split at level
    j >= 2 has |A| >= j - 1, so a_lo >= 1; a_hi is at least u - 1 or, with
    ``exact_k``, m - kk + a_lo, and u - a_lo is at most either (a set first
    split at level a_lo + 1 holds at most m - kk + a_lo + 1 vertices).
    """
    u = len(elems)
    bit = 1 << elems
    block, sums = bit, g  # per 1-subset T: its mask and its sum of g
    blocks, cross = [], []
    for r in range(1, u - a_lo + 1):
        if r > 1:  # take gathers whole rows faster than indexing does
            parent, last = _colex_steps(u, r)
            block = block.take(parent, 0) + bit.take(last, 0)
            sums = sums.take(parent, 0) + g.take(last, 0)
        if u - r <= a_hi:
            blocks.append(block)
            cross.append(sums)
    row = list(accumulate(map(len, blocks), initial=0))
    if len(blocks) > 1:  # a single band is returned as grown, not copied
        block, sums = np.concatenate(blocks), np.concatenate(cross)
    return row, pos[sets ^ block], sums


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
    O(m 2^m) and k blocks O(k 3^m).  The sets are visited one size at a time,
    smallest first: each size's split tables are built from the size below
    it, read by every level whose band holds that size, and dropped, so
    memory holds one size class's splits, not all of them.  A backward pass
    from the optimal full sets rebuilds the splits of the sets on optimal
    chains and keeps the tight ones (the optimal-edge set E*); every optimal
    partition is a chain of them.  Witnesses come in canonical order from
    ``_canonical_walk``, which counts the chains of E* that fit each prefix.
    Raises GuardExceededError when ``_subset_cells`` exceeds ``guard``.
    """
    return _run_route(t, "subset", k, all_ties, exact_k, guard, witness_cap)


def _subset_dp(w: np.ndarray, kk: int, exact_k: bool, need: int) -> tuple:
    """``solve_subset_dp``'s kernel on the integer weights w, returning (best, count, table).

    See ``_run_route`` for the contract.  Vertex sets are bit masks, numbered
    by size, then in colex order, which is the order of their values:
    ``masks[x]`` is the set numbered x and ``off[u]`` the number of the first
    set of size u.  The n-th set of size u is the ``parent[n]``-th set of
    size u - 1 plus its largest vertex ``last[n]`` (``_colex_steps(m, u)``),
    and so are its columns of ``elems`` and ``g`` (``_split_tables``).
    """
    m = len(w)
    bands = _subset_bands(m, kk, exact_k)
    off = np.cumsum([0] + [comb(m, u) for u in range(m + 1)]).tolist()
    base = [off[lo] for lo, _ in bands]  # F[j][x] is the set numbered base[j] + x
    F = [np.zeros(off[hi + 1] - base[j], w.dtype) for j, (_, hi) in enumerate(bands)]

    masks = np.zeros(1 << m, np.intp)
    pos = np.zeros(1 << m, np.intp)  # pos[masks[x]] == x, filled a size at a time
    sets, elems, g = masks[:1], np.zeros((0, 1), np.intp), np.zeros((0, 1), w.dtype)
    for u in range(1, m + 1):  # F[j] at size u reads F[j - 1] at smaller sizes only
        parent, last = _colex_steps(m, u)
        masks[off[u] : off[u + 1]] = sets = sets[parent] | 1 << last
        pos[sets] = np.arange(off[u], off[u + 1])
        elems = np.concatenate((elems.take(parent, 1), last[None]))
        grown = w[last, elems]  # from the new vertex to each of U's, 0 to itself
        grown[-1] -= grown.sum(0)  # the sum into the new vertex: w is antisymmetric
        grown[:-1] += g.take(parent, 1)
        g = grown
        levels = [j for j in range(2, kk + 1) if bands[j][0] <= u <= bands[j][1]]
        if not levels:
            continue
        split = [_subset_sizes(bands, j, u) for j in levels]
        a_hi = max(hi for _, hi in split)
        row, top, cross = _split_tables(pos, sets, elems, g, min(lo for lo, _ in split), a_hi)
        for j, (lo, hi) in zip(levels, split):
            rows = slice(row[a_hi - hi], row[a_hi + 1 - lo])
            vals = F[j - 1][top[rows] - base[j - 1]] + cross[rows]
            vals.max(0, out=F[j][off[u] - base[j] : off[u + 1] - base[j]])
        del top, cross, vals  # this size's splits, dropped before the next size is grown
    finals = [j for j in range(1, kk + 1) if bands[j][1] == m]  # the last entry is the full set
    best = max(F[j][-1] for j in finals)
    tops = [j for j in finals if F[j][-1] == best]

    # backward: live[j]: the sets on optimal chains; edges[j]: the tight splits into them, by target
    live = [np.ones(1, bool)] + [np.zeros(len(f), bool) for f in F[1:]]
    for j in tops:
        live[j][-1] = True
    edges: list = [None] * (kk + 1)
    for j in range(kk, 1, -1):
        src, dst = [], []
        for u in range(bands[j][0], bands[j][1] + 1):
            first = off[u] - base[j]
            ids = np.flatnonzero(live[j][first : off[u + 1] - base[j]])
            if ids.size == 0:
                continue
            sets = masks[off[u] + ids]
            bits = sets >> np.arange(m)[:, None] & 1
            elems = np.nonzero(bits.T)[1].reshape(-1, u).T
            g = (w.T @ bits)[elems, np.arange(len(ids))]
            _, top, cross = _split_tables(pos, sets, elems, g, *_subset_sizes(bands, j, u))
            top = top - base[j - 1]
            n, c = np.nonzero((F[j - 1][top] + cross == F[j][first + ids]).T)
            src.append(top[c, n])
            dst.append(first + ids[n])
        src = np.concatenate(src) if src else np.zeros(0, np.intp)
        live[j - 1][src] = True
        edges[j] = (src, np.concatenate(dst) if dst else np.zeros(0, np.intp))
    edges[1] = (np.zeros(live[1].sum(), np.intp), np.flatnonzero(live[1]))

    paths = _TightPaths(live, edges, tops, 2 * need + 1, (2 * need + 1) << m)  # see _canonical_walk
    sets = [masks[base[j] + ids] for j, ids in enumerate(paths.nodes)]

    def counted(prefix: list[int]):
        # a chain fits when each of its sets holds just the prefix vertices above its level
        low = (1 << len(prefix)) - 1
        placed = [sum(1 << v for v, b in enumerate(prefix) if b < j) for j in range(kk + 1)]
        fit = [x & low == y for x, y in zip(sets, placed)]
        return paths.counted([None] + [fit[j][paths.dst[j]] for j in range(1, kk + 1)])

    def listed(state) -> list[np.ndarray]:
        found = []
        for blocks, steps in paths.listed(state):
            levels = np.zeros((len(steps), m), np.intp)
            for j in range(1, blocks + 1):  # block j - 1 is the difference of the chain's sets
                e = steps[:, j - 1]
                block = sets[j][paths.dst[j][e]] ^ sets[j - 1][paths.src[j][e]]
                levels[((block[:, None] >> np.arange(m)) & 1).astype(bool)] = j - 1
            found.append(levels)
        return found

    found, total = _canonical_walk(m, kk, need, counted, listed)
    return best, total, found


def _canonical_walk(m: int, kk: int, need: int, counted, listed) -> tuple[np.ndarray, int]:
    """The ``need`` lexicographically least optimal level vectors, with their saturated count.

    ``counted(prefix)`` returns a dynamic program's state under a prefix
    (levels of vertices 0..i-1) and how many optimal level vectors fit it,
    exactly up to 2 * need (a larger count may saturate above that);
    ``listed(state)`` lists those as intp arrays of m-column rows.  Vertices
    are assigned levels in index order, levels ascending, until a prefix's
    vectors number at most twice what the cap has left: listing a few more
    vectors than needed costs less than the counts and batches of a deeper
    descent.  The walk is a loop over a stack of lazy child iterators, one
    per prefix being extended, so ``counted`` runs only for the prefixes the
    walk reaches.  Each listed batch is sorted alone, on the columns its
    prefix leaves free (by one packed key per row when kk**(free columns)
    fits int64), and its least rows, up to what the cap has left, go
    straight into one table of min(need, total) rows.
    """
    state, total = counted([])
    table = np.empty((min(need, total), m), np.intp)
    room = len(table)
    stack = [iter([([], state, total)])]
    while room:  # a descended prefix's children fill the room before its iterator runs dry
        prefix, state, n = next(stack[-1])
        if n > 2 * room:
            # built now: a generator reading ``prefix`` would see a later node's
            children = [prefix + [b] for b in range(kk)]
            stack.append((child, *counted(child)) for child in children)
        elif n:
            batch = listed(state)
            levels = batch[0] if len(batch) == 1 else np.concatenate(batch)
            done = len(table) - room
            if len(levels) == 1:
                table[done] = levels[0]
                room -= 1
                continue
            free = levels[:, len(prefix) :]  # every row of the batch starts with ``prefix``
            span = kk ** free.shape[1]  # the packed keys lie below it
            if span < 2**62:
                key = free @ kk ** np.arange(free.shape[1] - 1, -1, -1)
                if span <= 2**16:  # a 16-bit key sorts by radix, in linear time
                    order = np.argsort(key.astype(np.uint16), kind="stable")
                else:
                    order = key.argsort()
            else:
                order = np.lexsort(free.T[::-1])
            order = order[:room]  # the least of them, when more fit than the cap has left
            np.take(levels, order, 0, out=table[done : done + len(order)], mode="clip")
            room -= len(order)
    return table, total


class _TightPaths:
    """The tight steps of a layered dynamic program, for counting and listing its optimal paths.

    ``live[j]`` marks the nodes of layer j on an optimal path, ``edges[j]`` the
    (source, target) ids of the tight steps into them, sorted by target.  The
    root is layer 0's one node; optimal paths end at the last node of a layer
    in ``tops``.  Step e into layer j runs from live node ``src[j][e]`` to live
    node ``dst[j][e]`` (node x of layer j is ``nodes[j][x]``), and the steps
    into node x are ``start[j][x]:start[j][x + 1]`` (every live node has one).
    Counts saturate at ``ceiling``, which keeps every comparison with what the
    cap has left exact; ``bound`` bounds the values reached before saturating.
    """

    def __init__(self, live, edges, tops, ceiling: int, bound: int):
        self.tops, self.ceiling = tops, ceiling
        self.dtype = _form_dtype(bound)
        self.nodes = [np.flatnonzero(x) for x in live]
        self.src, self.dst, self.start = [None], [None], [None]
        for j in range(1, len(live)):
            src, dst = edges[j]
            self.src.append(np.searchsorted(self.nodes[j - 1], src))
            self.dst.append(np.searchsorted(self.nodes[j], dst))
            self.start.append(np.append(np.searchsorted(dst, self.nodes[j]), dst.size))

    def counted(self, weight: list):
        """Saturated weighted path counts per node (``listed`` reads them) and the optimal total."""
        counts = [np.ones(1, self.dtype)]
        for j in range(1, len(self.nodes)):
            c = np.add.reduceat(counts[j - 1][self.src[j]] * weight[j], self.start[j][:-1])
            counts.append(np.minimum(c, self.ceiling))
        return (counts, weight), sum(int(counts[j][-1]) for j in self.tops)

    def listed(self, state) -> list[tuple[int, np.ndarray]]:
        """Per top layer, (top, steps) with the steps of one optimal path of weight > 0 per row."""
        counts, weight = state
        found = []
        for top in self.tops:
            cur = np.array([len(counts[top]) - 1])
            grown = []  # per layer, top down: the steps kept and the partial path each extends
            for j in range(top, 0, -1):  # extend the paths upward, one step at a time
                first = self.start[j][cur]
                deg = self.start[j][cur + 1] - first
                owner = np.repeat(np.arange(cur.size), deg)
                step = np.arange(deg.sum()) + np.repeat(first - deg.cumsum() + deg, deg)
                keep = (counts[j - 1][self.src[j][step]] > 0) & (weight[j][step] > 0)
                grown.append((step[keep], owner[keep]))
                cur = self.src[j][step[keep]]
            steps = np.empty((cur.size, top), np.intp)
            path = np.arange(cur.size)
            for j, (step, owner) in enumerate(reversed(grown)):  # layer 1 first, back to the top
                steps[:, j] = step[path]
                path = owner[path]
            found.append((top, steps))
        return found


def _divider_dp(beta: np.ndarray, kk: int, exact_k: bool, need: int) -> tuple:
    """Best ordered partitions of an acyclic part into at most (or exactly) kk blocks.

    The kernel of both polynomial routes (its contract is ``_run_route``'s):
    the weights' acyclic part is the outer difference of their Borda vector
    beta over scale * m, so beta is all this reads, and the optimum is in
    units of 1 / (scale * m).  Some optimal partition cuts the beta-sorted
    vertex sequence into consecutive runs, so a dynamic program over divider
    positions finds the optimum.  The weight from the positions above a run
    down into it has a closed form in the prefix sums of the sorted beta,
    and the program's optimal paths are the optimal divider patterns.
    Vertices with equal Borda scores (a group) may trade places across a
    divider, and the witnesses are those trades, in canonical order
    (``_canonical_walk``).  Under a prefix of fixed levels a step weighs, per
    group, the binomial of the group's free vertices at its level or below
    over those it places, so a path weighs as many level vectors as fit the
    prefix.  A listed path is expanded only in the groups whose free vertices
    span several levels, each such group from one table for all the paths
    of the batch (``_arrangements``).
    """
    m = len(beta)
    # group g holds the sorted positions [lo[g], hi[g]); group[v] is vertex v's group
    _, group, size = np.unique(-beta, return_inverse=True, return_counts=True)
    head = np.zeros(m + 1, beta.dtype)  # head[c]: sum of beta over sorted positions [0, c)
    head[1:] = beta[np.argsort(group, kind="stable")].cumsum()
    pos = np.arange(m + 1)
    # cross[c, i]: weight from sorted positions [0, c) into [c, i), times scale * m
    cross = (pos - pos[:, None]) * head[:, None] - pos[:, None] * (head - head[:, None])
    floor = -m * int(abs(beta).sum()) - 1  # below every partition score
    reach = pos == 0  # divider positions c that j - 1 nonempty blocks can end at
    best = np.zeros((kk + 1, m + 1), beta.dtype)
    steps: list = [None]  # steps[j][c, i]: the step c -> i to j blocks is tight
    for j in range(1, kk + 1):
        # best[j, i]: best score of j nonempty blocks covering positions [0, i)
        vals = np.where(reach[:, None] & (pos[:, None] < pos), best[j - 1][:, None] + cross, floor)
        best[j] = vals.max(0)
        steps.append(vals == best[j])
        reach = pos >= j
    finals = [kk] if exact_k else range(1, kk + 1)
    top = max(best[j, m] for j in finals)
    tops = [j for j in finals if best[j, m] == top]
    live = [pos == 0] + [(pos == m) & (j in tops) for j in range(1, kk + 1)]
    edges: list = [None] * (kk + 1)
    for j in range(kk, 0, -1):
        into = np.flatnonzero(live[j])
        i, c = np.nonzero(steps[j][:, into].T)  # sorted by target
        live[j - 1][c] = True
        edges[j] = (c, into[i])

    ceiling = 2 * need + 1  # counts up to 2 * need stay exact (``_canonical_walk``)
    paths = _TightPaths(live, edges, tops, ceiling, (m + 1) * ceiling**2)
    hi = size.cumsum()
    lo = hi - size
    # the tight steps c -> i of all layers in turn, those into layer j ending at ends[j]; step e
    # fills level level[e] with share[e, g] positions of group g, and after[e, g] lie at or after c
    c, i = (np.concatenate(x) for x in zip(*edges[1:]))
    ends = np.cumsum([0] + [len(x) for x, _ in edges[1:]])
    level = np.repeat(np.arange(kk), np.diff(ends))
    layers = [slice(a, b) for a, b in zip(ends[:-1], ends[1:])]
    tail = (hi - np.maximum(lo, pos[:, None])).clip(0)  # tail[c, g]: positions of g at or after c
    share, after = tail[c] - tail[i], tail[c]
    # a fitting step weighs 1 in a group it takes none or all of, so only the groups that a
    # tight divider cuts weigh a binomial
    cut = np.flatnonzero(((share > 0) & (share < size)).any(0))
    # binomials within the cut groups, saturated at the ceiling (one entry when none is cut)
    pascal = _pascal(int(size[cut].max(initial=0)), ceiling, paths.dtype)

    def counted(prefix: list[int]):
        # taken[g, b]: prefix vertices of group g at level b; above[g, b]: those at levels >= b
        key = group[: len(prefix)] * kk + np.array(prefix, np.intp)
        taken = np.bincount(key, minlength=len(size) * kk).reshape(-1, kk)
        above = taken[:, ::-1].cumsum(1)[:, ::-1]
        want, free = share - taken[:, level].T, after - above[:, level].T
        w = ((want >= 0) & (want <= free)).all(1).astype(paths.dtype)
        # a step that does not fit reads some in-bounds binomial (in group g, want and free lie
        # in [-size[g], size[g]]) and keeps its weight 0; saturating per factor keeps each
        # product within ceiling**2
        for b in pascal[free[:, cut], want[:, cut]].T:
            w = np.minimum(w * b, ceiling)
        state, total = paths.counted([None] + [w[layer] for layer in layers])
        return (prefix, taken, state), total

    tables = [np.zeros((1, size.max()), bool)]  # the subset tables, shared by the batches

    def listed(state) -> list[np.ndarray]:
        prefix, taken, state = state
        p = len(prefix)
        parts = []
        for blocks, steps in paths.listed(state):
            # want[n, g, b]: free vertices of group g that path n puts at level b
            part = np.zeros((len(steps), len(size), kk), np.intp)
            part[:, :, :blocks] = share[steps + ends[:blocks]].transpose(0, 2, 1)
            part[:, :, :blocks] -= taken[:, :blocks]
            parts.append(part)
        want = np.concatenate(parts)
        # the groups whose free vertices some path spreads over several levels are arranged in
        # every way, each from one table for all the paths; per path, a later group's
        # arrangements vary faster
        varied = np.flatnonzero((np.count_nonzero(want, -1) > 1).any(0))
        rows = np.ones(len(want), np.intp)  # level vectors per path
        arranged = []
        for g in varied[::-1]:
            index: dict = {}
            ids = [index.setdefault(c, len(index)) for c in map(tuple, want[:, g].tolist())]
            table, start = _arrangements(np.array(list(index), np.intp), tables)
            count = np.diff(np.append(start, len(table)))[ids]
            arranged.append((g, table, start[ids], count, rows.copy()))
            rows *= count
        path = np.repeat(np.arange(len(want)), rows)
        local = np.arange(len(path)) - np.repeat(rows.cumsum() - rows, rows)  # row within path
        levels = np.empty((len(path), m), np.intp)
        levels[:, :p] = prefix
        single = np.ones(len(size), bool)
        single[varied] = False
        still = p + np.flatnonzero(single[group[p:]])  # free vertices of the other groups
        levels[:, still] = (want > 0).argmax(-1)[path[:, None], group[still]]
        for g, table, start, count, stride in arranged:
            cols = p + np.flatnonzero(group[p:] == g)
            if cols[-1] - cols[0] == len(cols) - 1:  # a slice writes several times faster
                cols = slice(cols[0], cols[-1] + 1)
            levels[:, cols] = table[start[path] + local // stride[path] % count[path]]
        return [levels]

    found, total = _canonical_walk(m, kk, need, counted, listed)
    return top, total, found


def _pascal(n: int, ceiling: int, dtype) -> np.ndarray:
    """``table[a, b]``: min(comb(a, b), ceiling) for a, b <= n, by Pascal's rule, a row at a time.

    An entry at the ceiling makes every sum it enters reach the ceiling, so
    saturating each row keeps the entries below it exact; a sum stays below
    2 * ceiling, which ``dtype`` holds.
    """
    table = np.zeros((n + 1, n + 1), dtype)
    table[:, 0] = 1
    for a in range(1, n + 1):
        np.minimum(table[a - 1, 1:] + table[a - 1, :-1], ceiling, out=table[a, 1:])
    return table


def _subsets(widths: np.ndarray, sizes: np.ndarray, tables: list) -> tuple[np.ndarray, ...]:
    """Every sizes[v]-subset of range(widths[v]), for each v, as bool rows over n places.

    Returns the rows, those of v after those of v - 1, and how many each v
    has.  tables[r] lists r-subsets in colex order, and tables[0], the empty
    subset, sets n.  Row i of tables[r] is row ``parent[i]`` of tables[r - 1]
    with column ``last[i]`` set (``_colex_steps``), and the r-subsets of
    range(w) are the first comb(w, r) rows of a table grown for any longer
    range: the tables are grown on demand and kept in ``tables``.  A size
    past w / 2 is read as the complements of the other side.
    """
    side = np.minimum(sizes, widths - sizes)
    spare = (widths - side).tolist()
    for j in range(1, int(side.max(initial=0)) + 1):
        # the longest range any side r >= j grows from: r - j more elements lie above it
        reach = j + max(x for x, r in zip(spare, side.tolist()) if r >= j)
        if j < len(tables) and len(tables[j]) >= comb(reach, j):
            continue
        parent, last = _colex_steps(reach, j)
        grown = tables[j - 1][parent]
        grown[np.arange(len(grown)), last] = True
        tables[j : j + 1] = [grown]
    rows, counts = [], []
    for w, r, c in zip(widths.tolist(), side.tolist(), sizes.tolist()):
        counts.append(comb(w, r))
        rows.append(tables[r][: counts[-1]])
        if r < c:  # complements within range(w)
            rows[-1] = rows[-1] ^ (np.arange(tables[0].shape[1]) < w)
    return np.concatenate(rows), np.array(counts)


def _arrangements(counts: np.ndarray, tables: list) -> tuple[np.ndarray, np.ndarray]:
    """Every sequence with counts[v, b] copies of each level b, for each row v of ``counts``.

    The rows share one total n, at most the width of the subset ``tables``
    (``_subsets``).  Returns one n-column table, in which row v's sequences
    take rows start[v]:start[v + 1] in no set order, and ``start``.  The walk
    sorts every batch, so no order is kept.  The table is built a level at a
    time for all rows at once: the sequences over levels 0..b are those over
    the levels below b with the counts[v, b] copies of b merged in at every
    subset of places.  The first merge is arithmetic, since every place it
    leaves holds level 0; a later merge is one gather, in which place i reads
    ``source[x, i]`` of the shorter sequence, whose column n holds b.  The
    table has the narrowest dtype holding every level.
    """
    n = int(counts[0].sum())
    dtype = np.min_scalar_type(counts.shape[1] - 1)
    seq = np.zeros((len(counts), n), dtype)  # level 0 everywhere until the first merge
    have = np.ones(len(counts), np.intp)  # sequences per row of ``counts``
    width = counts[:, 0]
    first = True
    for b in range(1, counts.shape[1]):
        c = counts[:, b]
        if not c.any():
            continue
        width = width + c
        new, merges = _subsets(width, c, tables)
        new = new[:, :n]
        if first:  # every place the first merge keeps holds level 0
            seq, have, first = new * dtype.type(b), merges, False
            continue
        source = np.where(new, n, np.cumsum(~new, 1) - 1)
        # every sequence of row v meets every merge of row v
        pairs = have * merges
        k = np.arange(pairs.sum()) - np.repeat(np.cumsum(pairs) - pairs, pairs)
        per = np.repeat(merges, pairs)
        old = np.repeat(np.cumsum(have) - have, pairs) + k // per
        merge = np.repeat(np.cumsum(merges) - merges, pairs) + k % per
        seq = np.column_stack([seq, np.full(len(seq), b, dtype)])[old[:, None], source[merge]]
        have = pairs
    return seq, np.cumsum(have) - have


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
    return _run_route(t, "acyclic", k, all_ties, exact_k, None, witness_cap)


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
    component alone is exact for the original weights, and the divider
    program reads only that component.
    """
    return _run_route(t, "2op", 2, all_ties, exact_k, None, witness_cap)


# Modeled time of an exponential route: (ns per call, ps per unit of work), on an int64 integer
# form and on a Python-int one (the walk's rounded path, object arrays in the subset program).
# Fit by least relative squares to in-process timings of solve_bruteforce and solve_subset_dp
# on random weights, m = 3-12, k = 2-m, exact_k on and off, both forms, on a 2-core x86-64 VM
# (CPython 3.11, numpy 2.4); grid, fit and misroutes are in BENCH_18.json.  Only their ratios
# matter, and only near the break-even line.  The walk's pair models the unbounded walk, so it
# is an upper bound on the bounded walk ``solve`` runs, whose pruning is not known up front.
_ROUTE_COST = {
    "walk": {False: (20_000, 2_600), True: (66_000, 3_100)},
    "subset": {False: (192_000, 2_650), True: (182_000, 36_000)},
}

_ROUTE_WORK = {
    "walk": ("exhaustive walk", "level vectors"),
    "subset": ("subset dynamic program", "cells"),
    "cut": ("cut walk", "partitions"),
}


def _guard_message(route: str, estimate: int, guard: int) -> str:
    name, units = _ROUTE_WORK[route]
    return f"{name}: {estimate} {units} exceed the guard of {guard}"


def _units(route: str, m: int, kk: int, exact_k: bool) -> int:
    """An exponential route's units of work: kk**m level vectors on the walk, else subset cells."""
    return kk**m if route == "walk" else _subset_cells(m, kk, exact_k)


def _route(
    t: WeightedTournament, k: int, exact_k: bool, witness_cap: int = 1, guard: int = DEFAULT_GUARD
) -> tuple[str, int | None]:
    """The route ``solve`` takes, with its units of work (None on the polynomial routes).

    2-partitions go to ``"2op"`` and purely acyclic weights to ``"divider"``.
    Otherwise ``"walk"`` and ``"subset"`` are weighed by their ``_units``,
    and the route with the least modeled time
    (``_ROUTE_COST``: a per-call constant plus a per-unit cost times the
    units, by integer form) wins among those whose units fit ``guard``; a
    tie goes to the walk.  When neither fits, the modeled faster one is
    returned, for its guard to refuse.  The route with fewer units fits
    whenever either does, so a call is refused only when both exceed the
    guard.  The request is validated first, so k = 2.0 is refused as any
    other non-integer k is, not routed to ``"2op"``.
    """
    kk = _levels(t.m, k, exact_k, witness_cap)
    if k == 2 and t.m >= 2:
        return "2op", None
    form = t.integer_form
    if form.is_acyclic():
        return "divider", None
    units = {route: _units(route, t.m, kk, exact_k) for route in ("walk", "subset")}
    python_ints = form.w.dtype == object

    def modeled_ps(route: str) -> int:
        call_ns, unit_ps = _ROUTE_COST[route][python_ints]
        return 1000 * call_ns + unit_ps * units[route]

    route = min([r for r in units if units[r] <= guard] or units, key=modeled_ps)
    return route, units[route]


def _run_route(t, route, k, all_ties, exact_k, guard, witness_cap, *, bound=False) -> SolveResult:
    """Run one route on t's integer form: the one request path of every solver.

    ``route`` is ``"walk"``, ``"subset"``, ``"divider"``, ``"2op"`` (the
    divider at k = 2, whatever k is given: ``solve`` routes any k == 2
    there), or ``"acyclic"``, the divider on weights first checked to be
    acyclic.  The request is checked here alone: ``_levels``, then, on an
    exponential route, the guard against the route's ``_units``.  A kernel
    takes integer arrays and the number of witnesses wanted, ``need``, and
    returns (best, count, table): the optimum in the form's units (times m
    on the divider, which reads beta), the number of optimal level vectors,
    exact up to 2 * need at least, and the least min(need, count) of them in
    lexicographic order.  ``bound`` bounds the walk, as ``solve`` runs it.
    """
    m, form = t.m, t.integer_form
    if route == "2op":
        if m < 2:
            raise ValueError("max-2OP needs at least two vertices")
        k = 2
    kk = _levels(m, k, exact_k, witness_cap)
    need = int(witness_cap) if all_ties else 1  # a numpy cap would wrap in the kernels
    if route == "acyclic":
        if not form.is_acyclic():
            raise ValueError(
                "weights have a nonzero cyclic component; this solver needs purely "
                "acyclic input (decompose first)"
            )
        route = "divider"
    if route in ("2op", "divider"):
        best, count, table = _divider_dp(form.beta, kk, exact_k, need)
        scale = form.scale * m
    else:
        guard = _integer(guard, "guard", 1)
        units = _units(route, m, kk, exact_k)
        if units > guard:
            raise GuardExceededError(_guard_message(route, units, guard))
        w, scale = form.w, form.scale
        if route == "walk":
            best, count, table = _walk_levels(w, kk, exact_k, need, unordered=False, bound=bound)
        else:
            best, count, table = _subset_dp(w, kk, exact_k, need)
    return SolveResult(Fraction(int(best), scale), t.vertices, table, all_ties and count > need)


def solve(
    t: WeightedTournament,
    k: int,
    *,
    all_ties: bool = False,
    exact_k: bool = False,
    guard: int = DEFAULT_GUARD,
    witness_cap: int = DEFAULT_WITNESS_CAP,
) -> SolveResult:
    """Dispatch to the exact route modeled fastest for the given instance (see ``_route``).

    2-partitions go through the acyclic projection and purely acyclic weights
    through the divider dynamic program, both polynomial.  Everything else
    goes to the exhaustive walk or the subset dynamic program: the one with
    the least modeled time among those whose work fits ``guard``.  That
    route validates the request; when neither fits, the modeled faster one
    raises GuardExceededError, naming itself and its work.
    """
    guard = _integer(guard, "guard", 1)
    route, _ = _route(t, k, exact_k, witness_cap, guard)
    return _run_route(t, route, k, all_ties, exact_k, guard, witness_cap, bound=True)


def decide(
    t: WeightedTournament,
    k: int,
    threshold: Fraction | int | str,
    *,
    guard: int = DEFAULT_GUARD,
) -> bool:
    """True iff some ordered partition into at most k blocks scores >= threshold.

    The threshold is read exactly, as weights are: a Fraction, an int or a
    string such as ``"1/10"``; a float is refused with TypeError.
    """
    threshold = _as_fraction(threshold, "threshold must be an exact rational")
    res = solve(t, k, all_ties=False, guard=guard)
    return res.optimum >= threshold
