"""Weighted tournaments, ordered vertex partitions, and their scores.

A weighted tournament links every vertex pair by a single arc carrying an
exact rational weight.  One arc is stored per pair, oriented by vertex-list
order; reading the reverse arc negates the stored weight, so the weight
function is antisymmetric by construction.

A tournament stores its ``integer_form``: the weights times one common scale
as an antisymmetric integer matrix, plus its row sums (the scaled Borda
scores).  The mapping constructor, both readers of ``parse_tournament``
and the gadget builder ``build_hg`` hand their arcs to ``_arc_form``, which
takes the scale and the dtype from the arcs before it fills the matrix;
``build_fg`` and the decomposition fill a matrix and hand it to
``from_int_matrix``, which takes its dtype from an exact pass over it
(``exact_int_matrix``).  ``induce_tournament`` carries the Borda vector
counted from the ballots and a function that fills the matrix, which runs on
the first read of ``w``: the routes that read the Borda vector alone (every
two-level rule, where only the cocycle part of the weights is visible) never
build the m-by-m matrix.  Every fast path reads the form, and so do the
transitivity tests and inner products.  The ``Fraction`` view ``weights`` is
derived on first read.  Results stay exact ``Fraction``s; ``weight`` and
``partition_score`` keep plain ``Fraction`` loops as the independent
reference.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations
from typing import Callable, Container, Iterable, Iterator, Mapping, Sequence

import numpy as np

# whitespace (``\s`` matches exactly the characters ``str.isspace`` accepts), '>' or '|'
_RESERVED_CHAR = re.compile(r"[\s>|]")


def _validate_name(name: object) -> str:
    if not isinstance(name, str) or not name:
        raise ValueError(f"vertex name must be a nonempty string, got {name!r}")
    if _RESERVED_CHAR.search(name):
        raise ValueError(f"vertex name {name!r} may not contain whitespace, '>' or '|'")
    return name


def _as_fraction(value: object) -> Fraction:
    if isinstance(value, float):
        raise TypeError(f"weights must be exact rationals, got float {value!r}")
    return Fraction(value)


def _form_dtype(bound: int) -> type:
    """Dtype for integers of magnitude at most ``bound``: int64 below 2**62, else object.

    The integer form of an m-by-m w passes ``bound = 2 * m * sum(abs(w))``.
    """
    return np.int64 if bound < 2**62 else object


def _abs_sum(w: np.ndarray) -> int:
    """sum(abs(w)) as a Python int, taken exactly for fixed-width input too."""
    if w.dtype == object:
        return int(abs(w).sum())
    # |w| as uint64 (abs(-2**63) reads 2**63), summed in 32-bit halves: neither sum
    # wraps below 2**32 entries
    u = np.abs(w.astype(np.int64, copy=False)).view(np.uint64)
    return (int((u >> np.uint64(32)).sum()) << 32) + int((u & np.uint64(2**32 - 1)).sum())


def exact_int_matrix(w: np.ndarray) -> np.ndarray:
    """An integer m-by-m matrix as int64 if 2 * m * sum(abs(w)) < 2**62, else as Python ints."""
    return w.astype(_form_dtype(2 * len(w) * _abs_sum(w)))


@dataclass(frozen=True, eq=False)
class IntegerForm:
    """Exact integer image of a tournament's weights.

    ``w`` is the antisymmetric m-by-m matrix with ``w == scale * weights`` and
    ``beta = w.sum(1)`` the scaled Borda vector.  ``fill`` returns ``w`` and
    runs on its first read, so a form whose ``beta`` is known without the
    matrix (``induce_tournament``'s) builds it only for a reader of ``w``;
    a form given the matrix fills it by ``partial(np.asarray, w)``.  Both
    are partials of module functions, so a form pickles.
    The dtype of ``w`` is int64 when every quantity derived from it stays
    below 2**62 (``m * w``, ``beta`` and its differences, ``m`` times the
    prefix sums of ``beta`` in any order, each at most
    ``2 * m * sum(abs(w))``) and object (Python ints) otherwise: int64 wraps
    silently, so bounding ``w`` alone is not enough.  ``beta`` has the dtype
    of ``w`` or its own by the same rule, int64 iff
    ``2 * m * sum(abs(beta)) < 2**62``, which bounds the same quantities of
    ``beta``.
    """

    fill: Callable[[], np.ndarray] = field(repr=False)
    scale: int
    beta: np.ndarray

    @cached_property
    def w(self) -> np.ndarray:
        return self.fill()

    @classmethod
    def of(cls, w: np.ndarray, scale: int) -> "IntegerForm":
        """Form of an exact integer matrix (int64 input must not have wrapped)."""
        w = exact_int_matrix(w)
        return cls(partial(np.asarray, w), scale, w.sum(1))

    def beta_differences(self) -> np.ndarray:
        """beta[x] - beta[y] at [x, y]: the acyclic part of the weights times scale * m."""
        return self.beta[:, None] - self.beta[None, :]

    def is_acyclic(self) -> bool:
        """True iff the weights are differences of vertex potentials (no cyclic part)."""
        return bool((self.w * len(self.w) == self.beta_differences()).all())


def _arc_form(m: int, i, j, nums, dens=None) -> IntegerForm:
    """Form of m vertices weighing each arc (i[a], j[a]) at nums[a] / dens[a], the rest 0.

    ``nums`` is an int64 array or a sequence of Python ints, ``dens`` positive
    Python ints or None (all 1); the scale is their lcm.  No pair may repeat,
    so sum(abs(w)) is exactly twice that of the scaled numerators, and the
    dtype is ``exact_int_matrix``'s, taken from them before the fill.
    """
    scale = 1 if dens is None else math.lcm(*dens)
    if scale != 1:
        nums = [num * (scale // den) for num, den in zip(nums, dens)]
    total = _abs_sum(nums) if isinstance(nums, np.ndarray) else sum(map(abs, nums))
    w = np.zeros((m, m), _form_dtype(4 * m * total))
    w[i, j] = nums  # an int64 array fills an object matrix with Python ints
    w = w - w.T
    return IntegerForm(partial(np.asarray, w), scale, w.sum(1))


class ArcWeights(Mapping):
    """Read-only view of a tournament's weights as ``Fraction``s, keyed by stored arc.

    Keys are the vertex pairs in ``combinations`` order, each oriented by the
    vertex list; the value of (x, y) is ``w[x, y] / scale`` of the integer
    form.  The ``Fraction``s are built on first read; a view compares equal to
    the dict of the same items.
    """

    __slots__ = ("_vertices", "_form", "_items")

    def __init__(self, vertices: tuple[str, ...], form: IntegerForm):
        self._vertices = vertices
        self._form = form
        self._items: dict[tuple[str, str], Fraction] | None = None

    def _dict(self) -> dict[tuple[str, str], Fraction]:
        if self._items is None:
            m, scale = len(self._vertices), self._form.scale
            upper = self._form.w[np.triu_indices(m, 1)].tolist()
            self._items = dict(
                zip(combinations(self._vertices, 2), (Fraction(v, scale) for v in upper))
            )
        return self._items

    def __getitem__(self, key: tuple[str, str]) -> Fraction:
        return self._dict()[key]

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self._dict())

    def __len__(self) -> int:
        m = len(self._vertices)
        return m * (m - 1) // 2

    def __repr__(self) -> str:
        return repr(self._dict())


def _vertex_index(names: tuple[str, ...], owner: str | None = "tournament") -> dict[str, int]:
    """Position of each name, after checking the list: nonempty, each name, then distinctness.

    The one name-list rule of tournaments, cut instances and profiles, and of
    their parsers.  ``owner`` names the structure that needs at least one
    vertex; a profile passes None: its names are alternatives, and an empty
    list is left to its ballot checks.
    """
    if owner and not names:
        raise ValueError(f"a {owner} needs at least one vertex")
    for v in names:
        _validate_name(v)
    index = {v: i for i, v in enumerate(names)}
    if len(index) != len(names):
        raise ValueError(f"{'vertex names' if owner else 'alternatives'} must be distinct")
    return index


def _integer(value, name: str, least: int) -> int:
    """``value`` as a Python int, by ``operator.index``, refusing bool and values below ``least``.

    The one integer rule for every count the API takes: k, witness caps,
    level specs, ballot multiplicities, cut weights, piece counts and
    guards.  The refusals read ``<name> must be an integer, got <repr>``
    (TypeError) and ``<name> must be at least <least>`` (ValueError).
    """
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    number = operator.index(value)
    if number < least:
        raise ValueError(f"{name} must be at least {least}")
    return number


class _VertexLookup:
    """The one vertex lookup, for structures keeping their ``_vertex_index`` as ``_index``."""

    def index(self, v: str) -> int:
        try:
            return self._index[v]  # type: ignore[attr-defined]
        except KeyError:
            raise ValueError(f"unknown vertex {v!r}") from None


def _arc_error(vertices: Container[str], x: str, y: str) -> str | None:
    """Why (x, y) names no arc between ``vertices``, or None when it does."""
    if x not in vertices or y not in vertices:
        return f"unknown vertex in weight key ({x!r}, {y!r})"
    if x == y:
        return f"self-pair ({x!r}, {x!r}) is not an arc"
    return None


@dataclass(frozen=True)
class WeightedTournament(_VertexLookup):
    """Complete directed graph with antisymmetric rational arc weights.

    The stored form is ``integer_form``: the weights times one common scale
    as an antisymmetric integer matrix over the vertex list.  ``weights`` is
    derived from it: a read-only ``ArcWeights`` mapping from each stored arc
    (x earlier than y in the vertex list) to its ``Fraction`` weight, built
    on first read.

    The constructor takes ``weights`` as a mapping keyed by either
    orientation of a pair; missing pairs weigh zero.  ``build_hg``,
    ``from_int_matrix`` and ``induce_tournament`` pass an ``IntegerForm``
    over the vertex list in its place (``_arc_form``, ``IntegerForm.of``),
    which is taken as is: only the vertex names are checked.  The parsers,
    which have checked the names already, hand over the form with their
    ``_vertex_index`` (``_of_form``).
    """

    vertices: tuple[str, ...]
    weights: Mapping[tuple[str, str], Fraction] = field(default_factory=dict)
    integer_form: IntegerForm = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        vertices = tuple(self.vertices)
        index = _vertex_index(vertices)
        form = self.weights
        if not isinstance(form, IntegerForm):
            form = _mapping_form(index, form)
        self._store(vertices, form, index)

    @classmethod
    def _of_form(
        cls, vertices: tuple[str, ...], form: IntegerForm, index: dict[str, int]
    ) -> "WeightedTournament":
        """Tournament of checked vertex names, their ``_vertex_index``, and a form over them."""
        t = cls.__new__(cls)
        t._store(vertices, form, index)
        return t

    def _store(self, vertices: tuple[str, ...], form: IntegerForm, index: dict[str, int]) -> None:
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "weights", ArcWeights(vertices, form))
        object.__setattr__(self, "integer_form", form)
        object.__setattr__(self, "_index", index)

    @property
    def m(self) -> int:
        return len(self.vertices)

    def stored_pairs(self) -> Iterable[tuple[str, str]]:
        """All stored arcs (x, y) with x earlier in the vertex list."""
        return combinations(self.vertices, 2)

    @classmethod
    def zeros(cls, vertices: Iterable[str]) -> "WeightedTournament":
        return cls(tuple(vertices), {})

    @classmethod
    def from_int_matrix(
        cls, vertices: Iterable[str], w: np.ndarray, scale: int
    ) -> "WeightedTournament":
        """Tournament with weights w / scale, for an antisymmetric integer matrix w."""
        return cls(tuple(vertices), IntegerForm.of(w, scale))  # type: ignore[arg-type]


def _mapping_form(index: Mapping[str, int], weights: Mapping) -> IntegerForm:
    """Integer form of weights keyed by vertex pairs, with the constructor's checks."""
    entries: dict[tuple[int, int], Fraction] = {}
    for (x, y), value in dict(weights).items():
        error = _arc_error(index, x, y)
        if error:
            raise ValueError(error)
        i, j = index[x], index[y]
        key = (i, j) if i < j else (j, i)
        if key in entries:
            raise ValueError(f"duplicate weight for pair {{{x!r}, {y!r}}}")
        w = _as_fraction(value)
        entries[key] = w if i < j else -w
    i, j = np.array(list(entries), np.intp).reshape(-1, 2).T
    nums = [w.numerator for w in entries.values()]
    return _arc_form(len(index), i, j, nums, [w.denominator for w in entries.values()])


def _ordered_blocks(
    blocks: Iterable[Iterable[str]], owner: str, block: str, plural: str
) -> tuple[frozenset[str], ...]:
    """Blocks as frozensets, after checking there is one, none is empty and none overlap.

    The one rule of ordered partitions and weak orders (whose blocks are
    classes); ``owner``, ``block`` and ``plural`` name them in the messages.
    """
    blocks = tuple(map(frozenset, blocks))
    if not blocks:
        raise ValueError(f"{owner} needs at least one {block}")
    if not all(blocks):
        raise ValueError(f"{plural} must be nonempty")
    if len(frozenset().union(*blocks)) != sum(map(len, blocks)):
        raise ValueError(f"{plural} must be pairwise disjoint")
    return blocks


@dataclass(frozen=True)
class OrderedPartition:
    """Disjoint nonempty vertex blocks, top (first) to bottom (last); see ``_ordered_blocks``."""

    blocks: tuple[frozenset[str], ...]

    def __post_init__(self) -> None:
        blocks = _ordered_blocks(self.blocks, "an ordered partition", "block", "blocks")
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[str]]) -> "OrderedPartition":
        return cls(tuple(blocks))

    def level_of(self) -> dict[str, int]:
        """Map each member to the index of its block (0 is the top block)."""
        return {v: i for i, b in enumerate(self.blocks) for v in b}

    def members(self) -> frozenset[str]:
        return frozenset().union(*self.blocks)

    def reversed(self) -> "OrderedPartition":
        return OrderedPartition(tuple(reversed(self.blocks)))


def _level_blocks(names: Iterable[str], levels: Sequence[int]) -> list[list[str]]:
    """Names grouped by level, level 0 first, each group in the order of ``names``.

    ``levels[i]`` is the level of the i-th name; a gap-free level vector (one
    using every level from 0 to its maximum) gives nonempty groups.
    """
    blocks: list[list[str]] = [[] for _ in range(max(levels) + 1)]
    for name, lv in zip(names, levels):
        blocks[lv].append(name)
    return blocks


def _level_table(levels, m: int) -> np.ndarray:
    """Level vectors (an array or a sequence of sequences) as a read-only rows-by-m intp table."""
    table = np.asarray(levels, np.intp)
    if table.size == 0:
        table = table.reshape(0, m)
    if table.ndim != 2 or table.shape[1] != m:
        raise ValueError(f"level vectors must have one entry per name ({m})")
    table.flags.writeable = False
    return table


class _IntegerTable:
    """Equality and hashing of a frozen dataclass keeping one integer table.

    ``_table`` names the table field.  The other fields compare as they are
    and the table by value; objects of different classes never compare equal.
    """

    _table = "table"

    def _fields(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self) if f.name != self._table)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        table, other_table = getattr(self, self._table), getattr(other, self._table)
        return self._fields() == other._fields() and np.array_equal(table, other_table)

    def __hash__(self) -> int:
        return hash((self._fields(), getattr(self, self._table).tobytes()))


class _LevelTableResult(_IntegerTable):
    """Constructor, ``levels`` and repr of a result dataclass with a level-vector ``table``.

    The fields are, in order, the optimum, the names, ``table`` and
    ``truncated``.  The constructor takes the level vectors as an array or as
    tuples (``_level_table``).  The table prints as ``levels``, the tuple of
    its rows (Python ints), as if that were the field.
    """

    table: np.ndarray

    def __init__(self, optimum: Fraction, names: tuple[str, ...], levels, truncated: bool = False):
        table = _level_table(levels, len(names))
        for name, value in zip(self.__dataclass_fields__, (optimum, names, table, truncated)):
            object.__setattr__(self, name, value)

    @cached_property
    def levels(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.table.tolist()))

    def __repr__(self) -> str:
        shown = (("levels", self.levels) if f.name == "table" else (f.name, getattr(self, f.name))
                 for f in fields(self))
        return f"{type(self).__name__}({', '.join(f'{name}={value!r}' for name, value in shown)})"


def weight(t: WeightedTournament, x: str, y: str) -> Fraction:
    """Arc weight from x to y, negating the stored value when (y, x) is stored."""
    i, j = t.index(x), t.index(y)
    if i == j:
        raise ValueError(f"no arc from {x!r} to itself")
    if i < j:
        return t.weights[(x, y)]
    return -t.weights[(y, x)]


def partition_score(t: WeightedTournament, p: OrderedPartition) -> Fraction:
    """Sum of weights on arcs pointing from a higher block to a lower one.

    Arcs inside a block contribute nothing; arcs pointing upward subtract
    their weight (equivalently, their reversal is added).
    """
    level = p.level_of()
    if set(level) != set(t.vertices):
        raise ValueError("partition must cover exactly the tournament's vertices")
    total = Fraction(0)
    for (x, y), w in t.weights.items():
        lx, ly = level[x], level[y]
        if lx < ly:
            total += w
        elif lx > ly:
            total -= w
    return total


def borda_score(t: WeightedTournament, x: str) -> Fraction:
    """Sum of x's outgoing weights over all other vertices."""
    form = t.integer_form
    return Fraction(int(form.beta[t.index(x)]), form.scale)


def is_quantitatively_transitive(t: WeightedTournament) -> bool:
    """True iff weight(x,y) + weight(y,z) == weight(x,z) for all distinct triples.

    On a complete graph that triple-wise additivity says exactly that the
    weights are differences of vertex potentials, which is the integer form's
    acyclicity test.
    """
    return t.integer_form.is_acyclic()


def is_qualitatively_transitive(t: WeightedTournament) -> bool:
    """True iff strictly positive weights chain: w(x,y)>0 and w(y,z)>0 imply w(x,z)>0.

    With P the boolean matrix of positive weights, (P @ P)[x, z] says some y
    has w(x,y)>0 and w(y,z)>0; the diagonal of P @ P is empty because w is
    antisymmetric.
    """
    p = np.asarray(t.integer_form.w > 0, bool)
    return not ((p @ p) & ~p).any()


def difference_generator(t: WeightedTournament) -> dict[str, Fraction] | None:
    """Vertex potentials generating the weights by differences, if they exist.

    Returns the scaled Borda map (score divided by the vertex count) when it
    satisfies weight(x,y) == g(x) - g(y) for every pair, and None otherwise.
    Presence of a generator is exactly pure acyclicity of the weights.
    """
    form = t.integer_form
    if not form.is_acyclic():
        return None
    return {x: Fraction(b, form.scale * t.m) for x, b in zip(t.vertices, form.beta.tolist())}
