"""Line-oriented text formats for tournaments, partitions, profiles, and graphs.

Every writer emits a canonical form that the matching parser reads back to an
equal value.  Rationals print as p/q in lowest terms with a denominator of 1
elided.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .profiles import Profile, WeakOrder
from .reductions import CutInstance
from .tournament import OrderedPartition, WeightedTournament


class ParseError(ValueError):
    """A format violation, located by file and line."""

    def __init__(self, path: str, line: int, message: str):
        self.path = path
        self.line = line
        self.message = message
        super().__init__(f"{path}:{line}: {message}")


def format_rational(x: Fraction) -> str:
    return str(x)


def _parse_rational(token: str, path: str, line: int) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(path, line, f"expected a rational p/q, got {token!r}") from None


def _parse_int(token: str, path: str, line: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(path, line, f"expected {what}, got {token!r}") from None


def _lines(text: str) -> list[tuple[int, str]]:
    return [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines()) if ln.strip()]


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


def parse_tournament(text: str, path: str = "<string>") -> WeightedTournament:
    _, names, rest = _parse_header(_lines(text), "tournament", path)
    weights: dict[tuple[str, str], Fraction] = {}
    for lineno, ln in rest:
        toks = ln.split()
        if len(toks) != 3:
            raise ParseError(path, lineno, f"expected 'x y p/q' arc line, got {ln!r}")
        x, y, wtok = toks
        w = _parse_rational(wtok, path, lineno)
        if (x, y) in weights or (y, x) in weights:
            raise ParseError(path, lineno, f"duplicate arc for pair {{{x!r}, {y!r}}}")
        weights[(x, y)] = w
    try:
        return WeightedTournament(tuple(names), weights)
    except (ValueError, TypeError) as exc:
        raise ParseError(path, 1, str(exc)) from None


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


def _format_levels(
    names: Sequence[str], levels: Sequence[Sequence[int]], sep: str
) -> Iterator[str]:
    """One line per level vector over ``names``: its partition or weak order as text.

    Names are listed by level, level 0 first and in the order of ``names``
    within a level, levels separated by ``sep``: the text ``format_partition``
    (``sep`` " > ") or ``format_weak_order`` (``sep`` " | ") gives the object
    a level vector stands for, with ``names`` as the vertex or alternative list.
    """
    tokens, gaps = np.array(names, object), np.array([" ", sep], object)
    for lo in range(0, len(levels), 2048):  # rows per pass, bounding the text table
        lv = np.array(levels[lo : lo + 2048])
        order = np.argsort(lv, axis=1, kind="stable")
        ranked = np.take_along_axis(lv, order, 1)
        cells = np.empty((len(lv), 2 * len(names) - 1), object)
        cells[:, ::2] = tokens[order]
        cells[:, 1::2] = gaps[(ranked[:, 1:] != ranked[:, :-1]).astype(np.intp)]
        yield from map("".join, cells.tolist())


def format_partition(p: OrderedPartition, vertices: Iterable[str]) -> str:
    order = {v: i for i, v in enumerate(vertices)}
    parts = []
    for block in p.blocks:
        parts.append(" ".join(sorted(block, key=lambda v: order.get(v, len(order)))))
    return " > ".join(parts)


def parse_profile(text: str, path: str = "<string>") -> Profile:
    _, names, rest = _parse_header(_lines(text), "profile", path)
    ballots: list[tuple[WeakOrder, int]] = []
    for lineno, ln in rest:
        toks = ln.split()
        count = 1
        if len(toks) >= 2 and toks[-2] in ("×", "*"):
            count = _parse_int(toks[-1], path, lineno, "a multiplicity")
            if count < 1:
                raise ParseError(path, lineno, f"multiplicity must be positive, got {count}")
            toks = toks[:-2]
        classes: list[list[str]] = [[]]
        for tok in toks:
            if tok == "|":
                classes.append([])
            else:
                classes[-1].append(tok)
        try:
            ballots.append((WeakOrder.from_classes(classes), count))
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc)) from None
    try:
        return Profile(tuple(names), tuple(ballots))
    except ValueError as exc:
        raise ParseError(path, 1, str(exc)) from None


def format_weak_order(order: WeakOrder, alternatives: Iterable[str]) -> str:
    rank = {a: i for i, a in enumerate(alternatives)}
    return " | ".join(
        " ".join(sorted(c, key=lambda a: rank.get(a, len(rank)))) for c in order.classes
    )


def format_profile(p: Profile) -> str:
    out = [f"profile {len(p.alternatives)}"]
    out.extend(p.alternatives)
    for order, count in p.ballots:
        line = format_weak_order(order, p.alternatives)
        if count != 1:
            line += f" × {count}"
        out.append(line)
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
