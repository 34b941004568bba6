"""Line-oriented text formats for tournaments, partitions, profiles, and graphs.

Every writer emits a canonical form that the matching parser reads back to an
equal value.  Rationals print as p/q in lowest terms with a denominator of 1
elided.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .profiles import RANK_DTYPE, Profile, WeakOrder, _coverage_error
from .reductions import CutInstance
from .tournament import (
    OrderedPartition,
    WeightedTournament,
    _arc_error,
    _form_dtype,
    _vertex_index,
)


class ParseError(ValueError):
    """A format violation, located by file and line."""

    def __init__(self, path: str, line: int, message: str):
        self.path = path
        self.line = line
        self.message = message
        super().__init__(f"{path}:{line}: {message}")


def format_rational(x: Fraction) -> str:
    return str(x)


def _rational(token: str) -> Fraction:
    """The rational a token stands for (``3/6``, ``1.5``, ``1e3``): the one rational reader."""
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"expected a rational p/q, got {token!r}") from None


def _parse_rational(token: str, path: str, line: int) -> Fraction:
    """``_rational`` of a token on a text's line, its error located there."""
    try:
        return _rational(token)
    except ValueError as exc:
        raise ParseError(path, line, str(exc)) from None


def _parse_int(token: str, path: str, line: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(path, line, f"expected {what}, got {token!r}") from None


def _lines(text: str) -> list[tuple[int, str]]:
    return [(i + 1, s) for i, ln in enumerate(text.splitlines()) if (s := ln.strip())]


def _parse_header(
    lines: list[tuple[int, str]], keyword: str, path: str
) -> tuple[int, list[str], list[tuple[int, str]]]:
    if not lines:
        raise ParseError(path, 1, f"expected header '{keyword} <count>'")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != keyword:
        raise ParseError(path, lineno, f"expected header '{keyword} <count>', got {header!r}")
    count = _parse_int(parts[1], path, lineno, "a vertex count")
    if count < 1:
        raise ParseError(path, lineno, f"count must be positive, got {count}")
    if len(lines) < 1 + count:
        raise ParseError(path, lines[-1][0], f"expected {count} name lines after the header")
    names = []
    for lineno, ln in lines[1 : 1 + count]:
        toks = ln.split()
        if len(toks) != 1:
            raise ParseError(path, lineno, f"expected a single name, got {ln!r}")
        names.append(toks[0])
    return count, names, lines[1 + count :]


def _plain_rational(token: str) -> tuple[int, int]:
    """(p, q) in lowest terms of a token ``[+-]p`` or ``[+-]p/q``, p and q ASCII digits, q nonzero.

    The value ``Fraction(token)`` has, read without building one.  Raises
    ValueError on any other token, and on digits past ``int``'s string limit.
    """
    num, slash, den = token.partition("/")
    if not slash:
        den = "1"
    unsigned = num[1:] if num[:1] in ("+", "-") else num
    if not (unsigned.isascii() and unsigned.isdigit() and den.isascii() and den.isdigit()):
        raise ValueError(token)
    p, q = int(num), int(den)
    if q == 0:
        raise ValueError(token)
    g = math.gcd(p, q)
    return p // g, q // g


def _weight_tokens(tokens: Sequence[str], path: str, linenos: Sequence[int]):
    """(nums, dens, error): weight tokens read up to the first that is no rational.

    When every token is an ``int`` they are read as such and ``dens`` is
    None; otherwise each is read as a rational in lowest terms: plain ones
    by ``_plain_rational``, the rest by ``_rational`` (``1.5``, ``1e3``),
    the one grammar.  ``error`` is the first bad token's ParseError, or None.
    """
    try:
        return list(map(int, tokens)), None, None
    except ValueError:
        pass
    nums, dens = [], []
    for tok, lineno in zip(tokens, linenos):
        try:
            num, den = _plain_rational(tok)
        except ValueError:
            try:
                w = _parse_rational(tok, path, lineno)
            except ParseError as exc:
                return nums, dens, exc
            num, den = w.numerator, w.denominator
        nums.append(num)
        dens.append(den)
    return nums, dens, None


def parse_tournament(text: str, path: str = "<string>") -> WeightedTournament:
    """Tournament of a text, read straight into its integer form.

    Errors come in the constructor's order: every line's own error first, in
    line order (the arc line's shape, then its weight, then a repeated pair),
    then the vertex names and the first arc naming no pair of them, both
    reported at line 1.
    """
    _, names, rest = _parse_header(_lines(text), "tournament", path)
    m = len(names)
    arcs = [ln.split() for _, ln in rest]
    linenos = [lineno for lineno, _ in rest]
    n = next((i for i, toks in enumerate(arcs) if len(toks) != 3), len(arcs))
    xs, ys, wtoks = zip(*arcs[:n]) if n else ((), (), ())
    nums, dens, error = _weight_tokens(wtoks, path, linenos)
    n = len(nums)
    if error is None and n < len(arcs):
        error = ParseError(path, linenos[n], f"expected 'x y p/q' arc line, got {rest[n][1]!r}")
    xs, ys = xs[:n], ys[:n]
    # one code per distinct name, the vertices first: a pair repeats iff its codes do
    code = {v: i for i, v in enumerate(dict.fromkeys([*names, *xs, *ys]))}
    xi = np.fromiter(map(code.__getitem__, xs), np.int64, n)
    yi = np.fromiter(map(code.__getitem__, ys), np.int64, n)
    pair = np.minimum(xi, yi) * len(code) + np.maximum(xi, yi)
    repeated = np.ones(n, bool)
    repeated[np.unique(pair, return_index=True)[1]] = False
    if repeated.any():
        i = int(repeated.argmax())
        error = ParseError(path, linenos[i], f"duplicate arc for pair {{{xs[i]!r}, {ys[i]!r}}}")
    if error is not None:
        raise error
    try:
        _vertex_index(tuple(names))
        bad = (xi >= m) | (yi >= m) | (xi == yi)
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(_arc_error(set(names), xs[i], ys[i]))
    except ValueError as exc:
        raise ParseError(path, 1, str(exc)) from None
    scale = 1 if dens is None else math.lcm(*dens)
    if scale != 1:
        nums = [num * (scale // den) for num, den in zip(nums, dens)]
    # the integer form's own dtype (sum(abs(w)) == 2 * sum(abs(nums)) exactly, as no
    # pair repeats), chosen before the fill because the weights need not fit int64
    w = np.zeros((m, m), _form_dtype(4 * m * sum(map(abs, nums))))
    w[xi, yi] = nums
    return WeightedTournament.from_int_matrix(names, w - w.T, scale)


def format_tournament(t: WeightedTournament) -> str:
    out = [f"tournament {t.m}"]
    out.extend(t.vertices)
    for x, y in t.stored_pairs():
        out.append(f"{x} {y} {format_rational(t.weights[(x, y)])}")
    return "\n".join(out) + "\n"


def parse_partition(text: str, path: str = "<string>") -> OrderedPartition:
    lines = _lines(text)
    if len(lines) != 1:
        raise ParseError(path, 1, "expected a single partition line")
    lineno, ln = lines[0]
    blocks: list[list[str]] = [[]]
    for tok in ln.split():
        if tok == ">":
            blocks.append([])
        else:
            blocks[-1].append(tok)
    try:
        return OrderedPartition.from_blocks(blocks)
    except ValueError as exc:
        raise ParseError(path, lineno, str(exc)) from None


_CHUNK_ROWS = 2048  # rows per text chunk, bounding the transient cell table and text


@lru_cache(maxsize=16)
def _vocabulary(names: tuple[str, ...], sep: str, head: str) -> np.ndarray:
    """``vocab[v, g]``: name v followed by " ", ``sep`` or a line end and ``head``; read-only."""
    vocab = np.array(names, object)[:, None] + np.array([" ", sep, "\n" + head], object)
    vocab.flags.writeable = False
    return vocab


def _format_levels(
    names: Sequence[str], table: np.ndarray, sep: str, head: str = ""
) -> Iterator[str]:
    """The lines of a level-vector table over ``names``, in text chunks of up to 2048 lines.

    A row's line is ``head``, then the names by level, level 0 first and in
    the order of ``names`` within a level, levels separated by ``sep`` (" > "
    for partitions, " | " for weak orders and ballot lines).  A chunk joins
    its lines with newlines, without a trailing one.  Per chunk: one stable
    argsort, one gather from a vocabulary of each name followed by " ",
    ``sep`` or a line end (``_vocabulary``, kept across calls), and one join.
    """
    vocab = _vocabulary(tuple(names), sep, head)
    for lo in range(0, len(table), _CHUNK_ROWS):
        lv = table[lo : lo + _CHUNK_ROWS]
        order = np.argsort(lv, axis=1, kind="stable")
        ranked = np.take_along_axis(lv, order, 1)
        gap = np.full(lv.shape, 2, np.intp)  # 0: same level next, 1: next level, 2: line end
        gap[:, :-1] = ranked[:, 1:] != ranked[:, :-1]
        cells = vocab[order, gap]
        cells[-1, -1] = names[order[-1, -1]]  # the chunk's last name ends no line
        cells[0, 0] = head + cells[0, 0]
        yield "".join(cells.ravel().tolist())


def format_partition(p: OrderedPartition, vertices: Iterable[str]) -> str:
    order = {v: i for i, v in enumerate(vertices)}
    parts = []
    for block in p.blocks:
        parts.append(" ".join(sorted(block, key=lambda v: order.get(v, len(order)))))
    return " > ".join(parts)


def _ballot_classes(toks: list[str]) -> list[list[str]]:
    """The classes of a ballot's tokens: the runs between tokens that are exactly '|'."""
    # framed by newlines, which no token holds, "\n|\n" marks exactly a '|' token
    return [part.split() for part in ("\n" + "\n\n".join(toks) + "\n").split("\n|\n")]


def _regular_rows(ballots: list[list[str]], names: tuple[str, ...]):
    """Rank rows of ballot lines read together on arrays: (ranks, covers, irregular).

    A line is regular when its tokens are distinct alternatives and '|'
    tokens with no empty class between them; ``ranks`` and ``covers`` are
    exact for those lines only, and every other line is marked ``irregular``.
    """
    n, m = len(ballots), len(names)
    lens = np.fromiter(map(len, ballots), np.intp, n)
    flat = list(chain.from_iterable(ballots))
    index = {a: i for i, a in enumerate(names)}
    index["|"] = -1
    # code per token: the alternative's position, -1 for '|', m for any other name
    code = np.fromiter(map(index.get, flat, repeat(m)), np.intp, len(flat))
    line = np.repeat(np.arange(n), lens)
    starts, ends = np.cumsum(lens) - lens, np.cumsum(lens)
    sep = code < 0
    # an empty class: a line without tokens, or a '|' first, last or before another '|'
    # the extra slot takes the positions -1 and len(flat) that empty lines give
    edge = np.zeros(len(flat) + 1, bool)
    edge[starts] = edge[ends - 1] = True
    empty_at = sep & (edge[:-1] | np.r_[sep[1:], False])
    irregular = (lens == 0) | (np.bincount(line[empty_at | (code == m)], minlength=n) > 0)
    named = ~sep & (code < m)
    uses = np.bincount(line[named] * m + code[named], minlength=n * m).reshape(n, m)
    irregular |= (uses > 1).any(1)
    ranks = np.zeros((n, m), RANK_DTYPE)
    # a name's class: the '|' tokens before it on its line
    seps = np.cumsum(sep)
    ranks[line[named], code[named]] = (seps - np.r_[0, seps][starts][line])[named]
    return ranks, (uses == 1).all(1), irregular


def parse_profile(text: str, path: str = "<string>") -> Profile:
    """Profile of a text, read straight into its rank matrix.

    Errors come in the constructors' order: every line's own error first, in
    line order (its multiplicity, then ``WeakOrder``'s checks of its
    classes); then, at line 1, each alternative's name, repeated alternatives
    and the first ballot that does not cover the alternatives exactly.
    Regular lines are read on arrays (``_regular_rows``), the others one by
    one through ``WeakOrder``.
    """
    _, names, rest = _parse_header(_lines(text), "profile", path)
    names = tuple(names)
    linenos, ballots, counts = [], [], []
    error = None
    for lineno, ln in rest:
        toks = ln.split()
        count = 1
        if len(toks) >= 2 and toks[-2] in ("×", "*"):
            try:
                count = _parse_int(toks[-1], path, lineno, "a multiplicity")
                if count < 1:
                    raise ParseError(path, lineno, f"multiplicity must be positive, got {count}")
            except ParseError as exc:
                error = exc  # raised after any error on an earlier line
                break
            toks = toks[:-2]
        linenos.append(lineno)
        ballots.append(toks)
        counts.append(count)
    ranks, covers, irregular = _regular_rows(ballots, names)
    for b in np.flatnonzero(irregular).tolist():
        try:
            rank = WeakOrder.from_classes(_ballot_classes(ballots[b])).rank_of()
        except ValueError as exc:
            raise ParseError(path, linenos[b], str(exc)) from None
        covers[b] = rank.keys() == set(names)
        if covers[b]:
            ranks[b] = [rank[a] for a in names]
    if error is not None:
        raise error
    try:
        _vertex_index(names, None)
        if not covers.all():
            order = WeakOrder.from_classes(_ballot_classes(ballots[int(covers.argmin())]))
            raise ValueError(_coverage_error(order))
        return Profile._of_ranks(names, ranks, tuple(counts))
    except ValueError as exc:
        raise ParseError(path, 1, str(exc)) from None


def format_profile(p: Profile) -> str:
    out = [f"profile {len(p.alternatives)}"]
    out.extend(p.alternatives)
    lines = "\n".join(_format_levels(p.alternatives, p.ranks, " | ")).split("\n")
    for line, count in zip(lines, p.counts):
        out.append(line if count == 1 else f"{line} × {count}")
    return "\n".join(out) + "\n"


def parse_graph(text: str, path: str = "<string>") -> CutInstance:
    _, names, rest = _parse_header(_lines(text), "graph", path)
    edges: dict[tuple[str, str], int] = {}
    for lineno, ln in rest:
        toks = ln.split()
        if len(toks) != 3:
            raise ParseError(path, lineno, f"expected 'a b w' edge line, got {ln!r}")
        x, y, wtok = toks
        w = _parse_int(wtok, path, lineno, "an integer weight")
        if w < 0:
            raise ParseError(path, lineno, f"edge weight must be a nonnegative integer, got {w}")
        if (x, y) in edges or (y, x) in edges:
            raise ParseError(path, lineno, f"duplicate edge {{{x!r}, {y!r}}}")
        edges[(x, y)] = w
    try:
        return CutInstance(tuple(names), edges)
    except ValueError as exc:
        raise ParseError(path, 1, str(exc)) from None


def format_graph(g: CutInstance) -> str:
    out = [f"graph {g.n}"]
    out.extend(g.vertices)
    for (x, y), w in sorted(
        g.edge_weights.items(), key=lambda kv: (g.index(kv[0][0]), g.index(kv[0][1]))
    ):
        if w != 0:
            out.append(f"{x} {y} {w}")
    return "\n".join(out) + "\n"


def read_tournament(path: str | Path) -> WeightedTournament:
    return parse_tournament(Path(path).read_text(), str(path))


def read_profile(path: str | Path) -> Profile:
    return parse_profile(Path(path).read_text(), str(path))


def read_graph(path: str | Path) -> CutInstance:
    return parse_graph(Path(path).read_text(), str(path))
