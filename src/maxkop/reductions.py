"""Cut instances and the gadget constructions tying cuts to ordered partitions.

Two tournament gadgets are built from a weighted undirected graph:

* ``build_hg`` encodes each positive-weight edge as a 4-cycle through two
  direction vertices.  The gadget weights are purely cyclic, and ordered
  tripartitions of the gadget score exactly like unordered tripartitions of
  the graph (the direction vertices absorb the orientation choice).
* ``build_fg`` encodes each graph vertex as a weighted chain of four
  ordinary vertices and each positive edge as four adjustment arcs through
  two direction vertices, completing the tournament acyclically with tiny
  positive weights.  The result is qualitatively transitive, and ordered
  tripartitions score (up to a sub-half tiny contribution) a fixed chain
  total plus the weight cut by the up/down split of the chains.

``add_club_vertex`` augments a graph so that maximal tricuts isolate the new
heavy vertex, reducing maximum bipartition cuts to maximum tripartition cuts.

``solve_cut_bruteforce`` runs the exhaustive walk of ``maxkop.solvers``, so
both sides of every identity check run on one kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping, Sequence

import numpy as np

from .solvers import (
    DEFAULT_GUARD,
    GuardExceededError,
    _growth_counts,
    _guard_message,
    _walk_levels,
    solve_bruteforce,
)
from .tournament import (
    OrderedPartition,
    WeightedTournament,
    _arc_form,
    _integer,
    _level_blocks,
    _vertex_index,
    _VertexLookup,
    exact_int_matrix,
    is_qualitatively_transitive,
    partition_score,
)


@dataclass(frozen=True)
class CutInstance(_VertexLookup):
    """Complete undirected graph with nonnegative integer edge weights.

    Weights may be keyed by either endpoint order; missing pairs read as 0.
    The vertex list and ``index`` follow the tournaments' rule
    (``_vertex_index``, ``_VertexLookup``).
    """

    vertices: tuple[str, ...]
    edge_weights: Mapping[tuple[str, str], int]

    def __post_init__(self) -> None:
        vertices = tuple(self.vertices)
        index = _vertex_index(vertices, "cut instance")
        normalized: dict[tuple[str, str], int] = {}
        for (x, y), w in dict(self.edge_weights).items():
            if x not in index or y not in index:
                raise ValueError(f"unknown vertex in edge ({x!r}, {y!r})")
            if x == y:
                raise ValueError("self-loops are not allowed")
            try:
                weight = _integer(w, "edge weight", 0)
            except (TypeError, ValueError):
                raise ValueError(f"edge weight must be a nonnegative integer, got {w!r}") from None
            key = (x, y) if index[x] < index[y] else (y, x)
            if key in normalized:
                raise ValueError(f"duplicate edge {{{x!r}, {y!r}}}")
            normalized[key] = weight
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edge_weights", normalized)
        object.__setattr__(self, "_index", index)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def edge_weight(self, x: str, y: str) -> int:
        i, j = self.index(x), self.index(y)
        if i == j:
            raise ValueError("no self-loops")
        key = (x, y) if i < j else (y, x)
        return self.edge_weights.get(key, 0)

    def positive_edges(self) -> list[tuple[str, str, int]]:
        """Positive-weight edges (a, b, w) with a earlier, in vertex-list order."""
        out = [(x, y, w) for (x, y), w in self.edge_weights.items() if w > 0]
        out.sort(key=lambda e: (self.index(e[0]), self.index(e[1])))
        return out

    def total_weight(self) -> int:
        return sum(self.edge_weights.values())


@dataclass(frozen=True)
class GadgetMap:
    """A gadget tournament together with the bookkeeping of its construction."""

    kind: str
    tournament: WeightedTournament
    source: CutInstance
    ordinary: Mapping[str, tuple[str, ...]]
    direction: Mapping[tuple[str, str], str]
    placement_weight: Fraction | None = None
    tiny_weight: Fraction | None = None
    reference_order: tuple[str, ...] | None = None


def _check_pieces(
    g: CutInstance, parts: Sequence[Iterable[str]], *, exactly: int | None, at_most: int | None
) -> list[frozenset[str]]:
    pieces = [frozenset(p) for p in parts]
    if exactly is not None and len(pieces) != exactly:
        raise ValueError(f"expected exactly {exactly} pieces, got {len(pieces)}")
    if at_most is not None and not 1 <= len(pieces) <= at_most:
        raise ValueError(f"expected between 1 and {at_most} pieces, got {len(pieces)}")
    total = 0
    for piece in pieces:
        if not piece:
            raise ValueError("pieces must be nonempty")
        total += len(piece)
    union = frozenset().union(*pieces)
    if len(union) != total or union != frozenset(g.vertices):
        raise ValueError("pieces must partition the graph's vertices")
    return pieces


def cut_score(g: CutInstance, parts: Sequence[Iterable[str]]) -> int:
    """Total weight of edges whose endpoints land in different pieces."""
    pieces = _check_pieces(g, parts, exactly=None, at_most=len(g.vertices))
    piece_of = {v: i for i, piece in enumerate(pieces) for v in piece}
    return sum(w for (x, y), w in g.edge_weights.items() if piece_of[x] != piece_of[y])


def solve_cut_bruteforce(
    g: CutInstance, pieces: int, *, guard: int = DEFAULT_GUARD
) -> tuple[int, list[tuple[frozenset[str], ...]]]:
    """Maximum cut over unordered partitions into at most `pieces` nonempty pieces.

    Returns the optimum and every maximizing partition (pieces listed in
    order of first appearance), in lexicographic order of their
    restricted-growth level vectors.  Runs the exhaustive walk with the pair
    term ``w * [l_i != l_j]``; the guard counts unordered partitions.
    """
    pieces = _integer(pieces, "pieces", 1)
    guard = _integer(guard, "guard", 1)
    m = g.n
    count = int(_growth_counts(min(pieces, m), m)[m, 0])
    if count > guard:
        raise GuardExceededError(_guard_message("cut", count, guard))
    w = np.zeros((m, m), object)
    for (x, y), weight in g.edge_weights.items():
        w[g.index(x), g.index(y)] = w[g.index(y), g.index(x)] = weight
    # the cap is the partition count, so every maximizer is kept
    best, _, kept = _walk_levels(
        exact_int_matrix(w), min(pieces, m), False, count, unordered=True
    )
    return best, [tuple(map(frozenset, _level_blocks(g.vertices, lv))) for lv in kept.tolist()]


def _direction_names(g: CutInstance, order: list[str]) -> dict[tuple[str, str], str]:
    """Name d_x_y for both orientations of every positive edge, appending each to ``order``."""
    names = {
        (x, y): f"d_{x}_{y}" for a, b, _ in g.positive_edges() for x, y in ((a, b), (b, a))
    }
    order.extend(names.values())
    return names


def build_hg(g: CutInstance) -> GadgetMap:
    """Tournament whose ordered tripartitions score like tripartition cuts of g.

    Each positive-weight edge {a, b} becomes a 4-cycle a -> d_ab -> b -> d_ba
    -> a with every arc at the edge's weight; all other pairs carry weight 0.
    The resulting weights are purely cyclic.
    """
    order = list(g.vertices)
    dir_names = _direction_names(g, order)
    if len(set(order)) != len(order):
        raise ValueError("direction-vertex names collide with existing vertex names")
    index = {v: i for i, v in enumerate(order)}
    ends, nums = [], []
    for a, b, w in g.positive_edges():
        d_ab, d_ba = dir_names[(a, b)], dir_names[(b, a)]
        ends += [(a, d_ab), (d_ab, b), (b, d_ba), (d_ba, a)]
        nums += [w] * 4
    i, j = np.array([(index[u], index[v]) for u, v in ends], np.intp).reshape(-1, 2).T
    return GadgetMap(
        kind="hg",
        tournament=WeightedTournament(order, _arc_form(len(order), i, j, nums)),
        source=g,
        ordinary={v: (v,) for v in g.vertices},
        direction=dir_names,
    )


def _sgn(x: int) -> int:
    return (x > 0) - (x < 0)


def lift_partition_hg(
    gm: GadgetMap, parts: Sequence[Iterable[str]], levels: int = 3
) -> OrderedPartition:
    """Ordered partition of the gadget scoring exactly the cut of `parts`.

    Ordinary vertices keep their piece, in the given piece order; each cut
    edge's direction vertices are placed so the edge's 4-cycle contributes
    exactly its weight, and uncut edges' direction vertices go to the top
    block.
    """
    if gm.kind != "hg":
        raise ValueError("lift_partition_hg needs a 4-cycle gadget map")
    if levels < 3:
        raise ValueError("placement needs at least three levels")
    pieces = _check_pieces(gm.source, parts, exactly=None, at_most=levels)
    level = {v: i for i, piece in enumerate(pieces) for v in piece}
    blocks: list[set[str]] = [set() for _ in range(levels)]
    for v, lv in level.items():
        blocks[lv].add(v)
    for a, b, _w in gm.source.positive_edges():
        la, lb = level[a], level[b]
        if la == lb:
            blocks[0].add(gm.direction[(a, b)])
            blocks[0].add(gm.direction[(b, a)])
            continue
        # the first slot pair, in (x, y) order, where the cycle contributes exactly w;
        # one always exists on three or more levels
        x, y = next(
            (x, y)
            for x in range(levels)
            for y in range(levels)
            if _sgn(x - la) + _sgn(lb - x) + _sgn(y - lb) + _sgn(la - y) == 1
        )
        blocks[x].add(gm.direction[(a, b)])
        blocks[y].add(gm.direction[(b, a)])
    return OrderedPartition.from_blocks([b for b in blocks if b])


def lift_tripartition_hg(gm: GadgetMap, parts: Sequence[Iterable[str]]) -> OrderedPartition:
    """Three-level lift of an unordered tripartition (exactly three pieces)."""
    _check_pieces(gm.source, parts, exactly=3, at_most=None)
    return lift_partition_hg(gm, parts, levels=3)


def project_partition_hg(
    gm: GadgetMap, p: OrderedPartition, levels: int = 3
) -> tuple[frozenset[str], ...]:
    """Forget direction vertices and block order; keep the ordinary pieces."""
    if gm.kind != "hg":
        raise ValueError("project_partition_hg needs a 4-cycle gadget map")
    if len(p.blocks) > levels:
        raise ValueError(f"expected at most {levels} blocks, got {len(p.blocks)}")
    if p.members() != frozenset(gm.tournament.vertices):
        raise ValueError("partition must cover the gadget tournament's vertices")
    ordinary = frozenset(gm.source.vertices)
    pieces = [frozenset(b & ordinary) for b in p.blocks]
    return tuple(piece for piece in pieces if piece)


def project_tripartition_hg(gm: GadgetMap, p: OrderedPartition) -> tuple[frozenset[str], ...]:
    return project_partition_hg(gm, p, levels=3)


def add_club_vertex(g: CutInstance, name: str = "club") -> tuple[CutInstance, int]:
    """Join a heavy new vertex to every existing one.

    The new edges each weigh one more than the whole graph, so maximal
    tricuts of the result isolate the new vertex and split the rest
    maximally: max-tricut(result) = n * sigma + max-cut(g).
    """
    if name in g.vertices:
        raise ValueError(f"vertex name {name!r} already used")
    sigma = 1 + g.total_weight()
    edges = dict(g.edge_weights)
    for v in g.vertices:
        edges[(v, name)] = sigma
    return CutInstance(g.vertices + (name,), edges), sigma


def build_fg(g: CutInstance) -> GadgetMap:
    """Qualitatively transitive tournament encoding bipartition cuts of g.

    Every graph vertex a becomes a chain a_1 -> a_2 -> a_3 -> a_4 weighted
    C, 2C, C with C = 1 + total edge weight; each positive edge {a, b} with
    a earlier in the vertex list adds direction vertices d_ab, d_ba and
    adjustment arcs a_2 -> d_ab -> b_2 and b_3 -> d_ba -> a_3 at the edge
    weight.  Remaining pairs are oriented along a topological order of the
    chain/adjustment digraph and weighted eps = 1 / (72 n^4), which keeps
    the total tiny contribution of any ordered partition below one half.

    The weights are built as one integer matrix at scale 1/eps, where the
    chain and adjustment arcs weigh their weight times the scale and every
    tiny arc weighs +1 or -1.
    """
    n = g.n
    scale = 72 * n**4
    big = 1 + g.total_weight()
    quads = {a: tuple(f"{a}_{i}" for i in range(1, 5)) for a in g.vertices}
    order = [name for a in g.vertices for name in quads[a]]
    dir_names = _direction_names(g, order)
    if len(set(order)) != len(order):
        raise ValueError("gadget vertex names collide")
    m = len(order)
    index = {v: i for i, v in enumerate(order)}

    arcs = []
    for a in g.vertices:
        a1, a2, a3, a4 = quads[a]
        arcs += [(a1, a2, big), (a2, a3, 2 * big), (a3, a4, big)]
    for a, b, w in g.positive_edges():
        _, a2, a3, _ = quads[a]
        _, b2, b3, _ = quads[b]
        d_ab, d_ba = dir_names[(a, b)], dir_names[(b, a)]
        arcs += [(a2, d_ab, w), (d_ab, b2, w), (b3, d_ba, w), (d_ba, a3, w)]

    # topological order of the chain/adjustment digraph, smallest index first
    succ: list[list[int]] = [[] for _ in range(m)]
    indeg = [0] * m
    for u, v, _ in arcs:
        succ[index[u]].append(index[v])
        indeg[index[v]] += 1
    heap = [v for v in range(m) if indeg[v] == 0]
    heapify(heap)
    topo_pos = np.empty(m, np.int64)
    for pos in range(m):
        if not heap:  # pragma: no cover - the digraph is acyclic
            raise RuntimeError("chain/adjustment digraph unexpectedly has a cycle")
        v = heappop(heap)
        topo_pos[v] = pos
        for u in succ[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                heappush(heap, u)

    w = np.zeros((m, m), object)
    for u, v, c in arcs:
        w[index[u], index[v]] = c * scale
    w = w - w.T
    # every heavy arc is positive, so the pairs still at zero are the tiny arcs
    tiny = w == 0
    np.fill_diagonal(tiny, False)
    tiny_count = int(tiny.sum()) // 2
    if 2 * tiny_count >= scale:
        raise ValueError(
            f"tiny-arc total {tiny_count} * {Fraction(1, scale)} reaches 1/2; "
            "construction is unsound"
        )
    w[tiny] = np.sign(topo_pos[None, :] - topo_pos[:, None])[tiny]
    return GadgetMap(
        kind="fg",
        tournament=WeightedTournament.from_int_matrix(order, w, scale),
        source=g,
        ordinary=quads,
        direction=dir_names,
        placement_weight=Fraction(big),
        tiny_weight=Fraction(1, scale),
        reference_order=g.vertices,
    )


_UP = (0, 0, 1, 2)
_DOWN = (0, 1, 2, 2)


def lift_bipartition_fg(gm: GadgetMap, parts: Sequence[Iterable[str]]) -> OrderedPartition:
    """Tripartition of the gadget scoring 3nC + cut(parts), up to tiny arcs.

    Chains of the first piece are placed in the up position, chains of the
    second in the down position; each cut edge's direction vertices are
    placed to gain exactly the edge weight from its adjustment arcs.
    """
    if gm.kind != "fg":
        raise ValueError("lift_bipartition_fg needs a chain gadget map")
    pieces = _check_pieces(gm.source, parts, exactly=2, at_most=None)
    up, down = pieces
    blocks: list[set[str]] = [set(), set(), set()]
    for a in gm.source.vertices:
        pattern = _UP if a in up else _DOWN
        for name, lv in zip(gm.ordinary[a], pattern):
            blocks[lv].add(name)
    level = {name: lv for lv, blk in enumerate(blocks) for name in blk}
    for a, b, _w in gm.source.positive_edges():
        a2, a3 = gm.ordinary[a][1], gm.ordinary[a][2]
        b2, b3 = gm.ordinary[b][1], gm.ordinary[b][2]
        bx = max(range(3), key=lambda x: (_sgn(x - level[a2]) + _sgn(level[b2] - x), -x))
        by = max(range(3), key=lambda y: (_sgn(y - level[b3]) + _sgn(level[a3] - y), -y))
        blocks[bx].add(gm.direction[(a, b)])
        blocks[by].add(gm.direction[(b, a)])
    return OrderedPartition.from_blocks(blocks)


def project_fg_partition(gm: GadgetMap, p: OrderedPartition) -> tuple[frozenset[str], ...]:
    """Read the up/down placement of every chain back as a bipartition.

    Raises when some chain sits in neither position, which signals a
    partition that cannot be placement-optimal.
    """
    if gm.kind != "fg":
        raise ValueError("project_fg_partition needs a chain gadget map")
    if len(p.blocks) > 3:
        raise ValueError(f"expected at most 3 blocks, got {len(p.blocks)}")
    if p.members() != frozenset(gm.tournament.vertices):
        raise ValueError("partition must cover the gadget tournament's vertices")
    level = p.level_of()
    up: set[str] = set()
    down: set[str] = set()
    for a in gm.source.vertices:
        pattern = tuple(level[name] for name in gm.ordinary[a])
        if pattern == _UP:
            up.add(a)
        elif pattern == _DOWN:
            down.add(a)
        else:
            raise ValueError(
                f"chain of {a!r} is placed {pattern}, neither up {_UP} nor down {_DOWN}"
            )
    return tuple(frozenset(s) for s in (up, down) if s)


def round_nearest(x: Fraction) -> int:
    """Round to the nearest integer, refusing exact halves."""
    floor = x.numerator // x.denominator
    frac = x - floor
    if frac == Fraction(1, 2):
        raise ValueError(f"{x} is exactly halfway between integers")
    return floor if frac < Fraction(1, 2) else floor + 1


def check_tricut_identity(
    g: CutInstance, *, guard: int = DEFAULT_GUARD
) -> tuple[bool, int, Fraction]:
    """Brute-force both sides of max-tricut(g) == max-3OP(gadget)."""
    cut_opt, _ = solve_cut_bruteforce(g, 3, guard=guard)
    gm = build_hg(g)
    kop = solve_bruteforce(gm.tournament, 3, guard=guard).optimum
    return kop == cut_opt, cut_opt, kop


def check_club_identity(
    g: CutInstance, *, guard: int = DEFAULT_GUARD
) -> tuple[bool, int, int]:
    """Brute-force max-tricut(augmented) == n * sigma + max-cut(g)."""
    gstar, sigma = add_club_vertex(g)
    tri, _ = solve_cut_bruteforce(gstar, 3, guard=guard)
    cut, _ = solve_cut_bruteforce(g, 2, guard=guard)
    expected = g.n * sigma + cut
    return tri == expected, tri, expected


@dataclass(frozen=True)
class TransitiveGadgetReport:
    transitive: bool
    tiny_bound_ok: bool
    lift_identity_ok: bool
    expected: int
    brute_rounded: int | None

    @property
    def ok(self) -> bool:
        return (
            self.transitive
            and self.tiny_bound_ok
            and self.lift_identity_ok
            and (self.brute_rounded is None or self.brute_rounded == self.expected)
        )


def check_transitive_gadget(
    g: CutInstance, *, guard: int = DEFAULT_GUARD
) -> TransitiveGadgetReport:
    """Check the chain gadget: transitivity, tiny bound, and the cut identity.

    The rounded optimum identity is verified by full enumeration when the
    gadget is small enough for the guard; otherwise every maximal bipartition
    is lifted and its rounded score compared against 3nC + max-cut(g).
    """
    guard = _integer(guard, "guard", 1)
    gm = build_fg(g)
    t = gm.tournament
    transitive = is_qualitatively_transitive(t)
    pair_count = t.m * (t.m - 1) // 2
    covered = 3 * g.n + 4 * len(g.positive_edges())
    tiny_bound_ok = (pair_count - covered) * gm.tiny_weight < Fraction(1, 2)

    cut, cut_witnesses = solve_cut_bruteforce(g, 2, guard=guard)
    expected = 3 * g.n * int(gm.placement_weight) + cut

    lift_identity_ok = True
    for parts in cut_witnesses:
        if len(parts) != 2:
            continue
        lifted = lift_bipartition_fg(gm, parts)
        if round_nearest(partition_score(t, lifted)) != expected:
            lift_identity_ok = False

    try:
        brute_rounded = round_nearest(solve_bruteforce(t, 3, guard=guard).optimum)
    except GuardExceededError:
        brute_rounded = None

    return TransitiveGadgetReport(
        transitive=transitive,
        tiny_bound_ok=tiny_bound_ok,
        lift_identity_ok=lift_identity_ok,
        expected=expected,
        brute_rounded=brute_rounded,
    )
