"""Line-oriented text formats for tournaments, partitions, profiles, and graphs.

Every writer emits a canonical form that the matching parser reads back to an
equal value.  Rationals print as p/q in lowest terms with a denominator of 1
elided.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .profiles import RANK_DTYPE, Profile, WeakOrder
from .reductions import CutInstance
from .tournament import (
    OrderedPartition,
    WeightedTournament,
    _arc_error,
    _arc_form,
    _string_fraction,
    _vertex_index,
)


class ParseError(ValueError):
    """A format violation, located by file and line."""

    def __init__(self, path: str, line: int, message: str):
        self.path = path
        self.line = line
        self.message = message
        super().__init__(f"{path}:{line}: {message}")


def format_rational(x: Fraction | int) -> str:
    """p/q in lowest terms, q = 1 elided, however many digits p and q have (an int is p/1).

    ``str`` refuses an integer past ``sys.get_int_max_str_digits()``;
    ``Decimal`` prints one of any length, and only such a value takes it.
    """
    try:
        return str(x)
    except ValueError:
        p = str(Decimal(x.numerator))
        return p if x.denominator == 1 else f"{p}/{Decimal(x.denominator)}"


def _rational(token: str) -> Fraction:
    """The rational a token stands for (``3/6``, ``1.5``, ``1e3``), as the files' one reader.

    The token is read as the library reads a string (``_string_fraction``,
    which refuses an exponent past ``sys.get_int_max_str_digits()``).
    """
    try:
        return _string_fraction(token)
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


# ---- the byte reader: a plain text read on whole arrays --------------------------------
#
# A text is plain when its only whitespace is " ", "\t", "\n" and "\r" before "\n".
# Then its tokens and line breaks are those of str.split() and str.splitlines(), and
# one uint8 array holds them all.  The byte reader returns None, never an error: a
# text it declines goes whole to the line reader, the one source of every message.

# texts shorter than this go straight to the line reader, which reads them faster; the
# crossover is about 1,500 characters for profiles and tournaments alike
_BYTES_MIN = 1500

# every non-ASCII character str.split() splits on; the UTF-8 of each starts with
# one of the bytes 0xc2, 0xe1, 0xe2, 0xe3
_UNICODE_SPACES = "".join(
    map(chr, [0x85, 0xA0, 0x1680, *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000])
)
# the low n bytes of a word, and spaces in the rest of it, for n = 0..8
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(8)] + [2**64 - 1], np.uint64)
_SPACES = np.array([0x2020202020202020 >> 8 * n << 8 * n for n in range(8)] + [0], np.uint64)
_POW10 = 10 ** np.arange(17, -1, -1, dtype=np.int64)
# the heads of the tokens '|', '*' and '×'
_BAR, _STAR, _TIMES = (int.from_bytes(s.encode().ljust(8, b" "), "little") for s in "|*×")
# 2^64 / golden ratio, odd: the multiplier of Fibonacci hashing
_FIBONACCI = np.uint64(0x9E3779B97F4A7C15)


class _ByteText:
    """A plain text as one byte array cut into tokens; built by ``_byte_text``.

    ``byte[j]`` is the text's byte j, then spaces.  Token i spans bytes
    ``start[i]:stop[i]``; ``brk[i]`` says a line break precedes it (``brk``
    has one more entry, True, closing the last line); ``head[i]`` is its
    first 8 bytes, padded with spaces, as one little-endian uint64.  As no
    token holds a space, two tokens of up to 7 bytes are equal exactly when
    their heads are, and a longer token's head is no shorter one's.
    """

    def __init__(self, data: bytes, padded: np.ndarray):
        # padded: a space, the text, then 8 spaces
        self.data, self.byte = data, padded[1:]
        ws = (padded == 32) | (padded == 10) | (padded == 9) | (padded == 13)
        edges = np.flatnonzero(ws[1:] != ws[:-1])
        self.start, self.stop = edges[0::2], edges[1::2]
        short = np.minimum(self.stop - self.start, 8)
        # the 8 bytes from each token's start, one word each
        word = np.ndarray(len(data), "<u8", padded, 1, (1,)).copy()[self.start]
        self.head = (word & _LOW_BYTES[short]) | _SPACES[short]
        self.brk = np.zeros(len(self.start) + 1, bool)
        self.brk[np.searchsorted(self.start, np.flatnonzero(self.byte == 10))] = True
        self.brk[-1] = True

    def header(self, keyword: bytes) -> tuple[str, ...] | None:
        """The names after a header line ``keyword <count>``, one per line, all valid.

        Sets ``body``, the index of the first token after the names, and
        ``index``, their ``_vertex_index``; None when any of this does not
        hold or a name is over 7 bytes.
        """
        start, stop, brk, data = self.start, self.stop, self.brk, self.data
        if len(start) < 2 or data[start[0] : stop[0]] != keyword:
            return None
        try:
            m = int(data[start[1] : stop[1]])
        except ValueError:
            return None
        # the count on the header's line, then one token on each of m lines
        if not 1 <= m <= len(start) - 2 or brk[1] or not brk[2 : m + 3].all():
            return None
        if (stop[2 : m + 2] - start[2 : m + 2]).max() > 7:
            return None  # a name that its head does not tell apart
        # the only blanks between them are " \t\n\r", where str.split() splits
        names = tuple(data[start[2] : stop[m + 1]].decode().split())
        try:
            self.index = _vertex_index(names, None)
        except ValueError:
            return None
        self.body = m + 2
        return names

    def codes(self, i) -> np.ndarray:
        """Code of each token i: the position of the name it is, or -1.

        The names' heads sit in a linear-probing table of 2^b >= 4m slots
        (Knuth, TAOCP 3, 6.4), each at its Fibonacci hash or at the first
        free slot after it.  A token steps past each slot holding another
        head, at most as many times as the longest run found at build time;
        as every name is its head exactly, the head it then stops at is its
        name's or no name's.
        """
        names = self.head[2 : self.body]
        bits = (4 * len(names) - 1).bit_length()
        shift = np.uint64(64 - bits)
        home = (names * _FIBONACCI >> shift).view(np.intp)
        order = home.argsort(kind="stable")
        rank = np.arange(len(order))
        # the names by home slot, each at the running maximum of home - rank, plus its rank
        lag = home[order] - rank
        run = np.maximum.accumulate(lag)
        probes = int((run - lag).max())
        table = np.full((1 << bits) + probes, _SPACES[0])  # the head of no token
        code = np.empty(len(table), np.intp)
        slot = run + rank
        table[slot], code[slot] = names[order], order
        heads = self.head[i]
        at = (heads * _FIBONACCI >> shift).view(np.intp)
        for _ in range(probes):
            at += table[at] != heads
        found = code[at]
        found[table[at] != heads] = -1
        return found

    def integers(self, i, signed: bool) -> np.ndarray | None:
        """Values of tokens i spelled ``[-+]?[0-9]{1,18}`` (a sign only if ``signed``), or None."""
        start, stop = self.start[i], self.stop[i]
        negative = np.zeros(len(start), bool)
        if signed:
            first = self.byte[start]
            negative = first == 45
            start = start + (negative | (first == 43))
        size = stop - start
        if not len(size):
            return np.zeros(0, np.int64)
        width = int(size.max())
        if size.min() < 1 or width > 18:
            return None
        # the last `width` bytes of each token, the ones before its digits zeroed
        at = stop[:, None] - np.arange(width, 0, -1)
        digits = self.byte[np.maximum(at, 0)] - 48
        digits[at < start[:, None]] = 0
        if (digits > 9).any():
            return None
        value = digits.astype(np.int64) @ _POW10[-width:]
        return np.where(negative, -value, value)


def _byte_text(text: str) -> _ByteText | None:
    """``text`` as a ``_ByteText`` when it is plain, else None."""
    try:
        data = text.encode()
    except UnicodeEncodeError:  # a lone surrogate
        return None
    padded = np.full(len(data) + 9, 32, np.uint8)
    b = padded[1:-8]
    b[:] = np.frombuffer(data, np.uint8)
    # the ASCII line breaks and blanks beyond " \t\n\r": \x0b, \x0c and \x1c-\x1f
    if (((b - 11) < 2) | ((b - 28) < 4)).any():
        return None
    if (padded[np.flatnonzero(b == 13) + 2] != 10).any():  # a lone \r breaks a line
        return None
    if not text.isascii() and ((b == 0xC2) | ((b - 0xE1) < 3)).any():
        if any(c in text for c in _UNICODE_SPACES):
            return None
    return _ByteText(data, padded)


def _tournament_bytes(text: str) -> WeightedTournament | None:
    """``parse_tournament``'s value of a plain text with integer weights, read on arrays; else None.

    Declines any text the line reader would refuse, so it never reports an error.
    """
    t = _byte_text(text)
    names = t and t.header(b"tournament")
    if not names:
        return None
    m, body = len(names), t.body
    if (len(t.start) - body) % 3:
        return None
    arcs = np.arange(body, len(t.start)).reshape(-1, 3)
    if not (t.brk[arcs] == (True, False, False)).all():
        return None  # not three tokens on every line
    ends, nums = t.codes(arcs[:, :2]), t.integers(arcs[:, 2], signed=True)
    if nums is None or (ends < 0).any():
        return None
    x, y = ends.T
    pair = np.minimum(x, y) * m + np.maximum(x, y)
    if (x == y).any() or np.bincount(pair, minlength=1).max() > 1:
        return None
    return WeightedTournament._of_form(names, _arc_form(m, x, y, nums), t.index)


def _profile_bytes(text: str) -> Profile | None:
    """``parse_profile``'s value of a plain text with regular ballots, read on arrays; else None.

    A ballot is regular when it names every alternative once, with '|'
    between nonempty classes, and any multiplicity has at most 18 digits.
    Declines any text the line reader would refuse, so it never reports an error.
    """
    t = _byte_text(text)
    names = t and t.header(b"profile")
    if not names or t.body == len(t.start):
        return None
    m = len(names)
    head = t.head[t.body :]
    brk = t.brk[t.body :]
    first, last = np.flatnonzero(brk[:-1]), np.flatnonzero(brk[1:])
    # a line ending in a marker ('*' or '×') and a token: that token is its multiplicity
    marker = head[last - 1]
    marked = (last > first) & ((marker == _STAR) | (marker == _TIMES))
    counts = t.integers(t.body + last[marked], signed=False)
    if counts is None or (counts < 1).any() or (last - first < 2)[marked].any():
        return None
    keep = np.ones(len(brk), bool)  # brk's closing entry stays
    keep[last[marked]] = keep[last[marked] - 1] = False
    kept = np.flatnonzero(keep[:-1])
    sep, opens = head[kept] == _BAR, brk[keep]
    # an empty class: '|' first or last on its line, or before another '|'
    if (sep & (opens[:-1] | opens[1:])).any() or (sep[1:] & sep[:-1]).any():
        return None
    n = len(first)
    at = np.flatnonzero(~sep)
    # m names on every line: as each line starts with a name, lines start every m names
    if len(at) != n * m or not opens[at[::m]].all():
        return None
    code = t.codes(t.body + kept[at])
    if (code < 0).any():
        return None  # a token neither a name nor '|'
    # a name's class: the '|' tokens before it on its line
    classes = np.cumsum(sep)[at].reshape(n, m)
    ranks = np.full((n, m), -1, RANK_DTYPE)
    ranks.put(code + np.arange(0, n * m, m).repeat(m), classes - classes[:, :1])
    if (ranks < 0).any():  # a name twice on a line, so another missing
        return None
    multiplicity = np.ones(n, np.int64)
    multiplicity[marked] = counts
    return Profile._of_ranks(names, ranks, tuple(multiplicity.tolist()))


# ---- the parsers, with the line reader, and the writers --------------------------------


def parse_tournament(text: str, path: str = "<string>") -> WeightedTournament:
    """Tournament of a text, read straight into its integer form.

    A plain text of at least ``_BYTES_MIN`` characters with integer weights
    is read on arrays (``_tournament_bytes``); any other goes to the line
    reader below.  Errors come in the constructor's order: every line's own
    error first, in line order (the arc line's shape, then its weight, then
    a repeated pair), then the vertex names and the first arc naming no pair
    of them, both reported at line 1.
    """
    if len(text) >= _BYTES_MIN and (t := _tournament_bytes(text)) is not None:
        return t
    _, names, rest = _parse_header(_lines(text), "tournament", path)
    names, m = tuple(names), len(names)
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
        index = _vertex_index(names)
        bad = (xi >= m) | (yi >= m) | (xi == yi)
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(_arc_error(index, xs[i], ys[i]))
    except ValueError as exc:
        raise ParseError(path, 1, str(exc)) from None
    return WeightedTournament._of_form(names, _arc_form(m, xi, yi, nums, dens), index)


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
    """``vocab[g * m + v]``: name v, then " " (g = 0), ``sep`` (1) or a line end and ``head`` (2).

    Read-only, as is ``_cell_keys``' table.
    """
    vocab = (np.array(names, object) + np.array([" ", sep, "\n" + head], object)[:, None]).ravel()
    vocab.flags.writeable = False
    return vocab


@lru_cache(maxsize=16)
def _cell_keys(m: int) -> tuple[np.ndarray, int]:
    """``(cols, bits)``: the vertices 0..m-1 as cell keys ``(level << bits) | vertex`` of level 0.

    ``bits`` is the width of a vertex; ``cols`` has the narrowest unsigned
    dtype holding every key of a level below m.
    """
    bits = (m - 1).bit_length()
    cols = np.arange(m, dtype=np.min_scalar_type((m - 1) << bits | (1 << bits) - 1))
    cols.flags.writeable = False
    return cols, bits


def _format_levels(
    names: Sequence[str], table: np.ndarray, sep: str, head: str = ""
) -> Iterator[str]:
    """The lines of a gap-free level-vector table over ``names``, in chunks of up to 2048 lines.

    A row's line is ``head``, then the names by level, level 0 first and in
    the order of ``names`` within a level, levels separated by ``sep`` (" > "
    for partitions, " | " for weak orders and ballot lines).  A chunk joins
    its lines with newlines, without a trailing one.  A gap-free vector's
    levels are below m, so each cell packs into one key ``(level << bits)
    | vertex`` (``_cell_keys``), and the keys are distinct.  Per chunk: one
    sort of the keys, which gives each row's names in line order (``key &
    mask``) and the level breaks (keys that differ above ``mask``); one
    flat take from a vocabulary of each name followed by " ", ``sep`` or a
    line end (``_vocabulary``); and one join.  Both tables are kept across
    calls.
    """
    m = len(names)
    vocab = _vocabulary(tuple(names), sep, head)
    cols, bits = _cell_keys(m)
    mask = (1 << bits) - 1
    for lo in range(0, len(table), _CHUNK_ROWS):
        key = table[lo : lo + _CHUNK_ROWS].astype(cols.dtype) << bits | cols
        key.sort()
        # a cell's gap kind: 0 same level next, 1 next level (keys differ above the
        # mask), 2 line end; then its vocabulary entry, kind * m + vertex (< 3m, so
        # the key's dtype holds it)
        cell = np.empty_like(key)
        flat = key.ravel()
        np.greater(flat[1:] ^ flat[:-1], mask, out=cell.ravel()[:-1])
        cell[:, -1] = 2
        cell *= m
        cell += key & mask
        cells = vocab.take(cell)
        cells[-1, -1] = names[key[-1, -1] & mask]  # the chunk's last name ends no line
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


def parse_profile(text: str, path: str = "<string>") -> Profile:
    """Profile of a text.

    Errors come in the constructors' order: every line's own error first, in
    line order (its multiplicity, then ``WeakOrder``'s checks of its
    classes); then, at line 1, each alternative's name, repeated alternatives
    and the first ballot that does not cover the alternatives exactly.

    A plain text of at least ``_BYTES_MIN`` characters with regular ballots
    is read on arrays in one piece (``_profile_bytes``); any other goes to
    the line reader below, one ``WeakOrder`` per line, all handed to the
    ``Profile`` constructor.
    """
    if len(text) >= _BYTES_MIN and (p := _profile_bytes(text)) is not None:
        return p
    _, names, rest = _parse_header(_lines(text), "profile", path)
    ballots = []
    for lineno, ln in rest:
        toks = ln.split()
        count = 1
        if len(toks) >= 2 and toks[-2] in ("×", "*"):
            count = _parse_int(toks[-1], path, lineno, "a multiplicity")
            if count < 1:
                raise ParseError(path, lineno, f"multiplicity must be positive, got {count}")
            toks = toks[:-2]
        try:
            ballots.append((WeakOrder.from_classes(_ballot_classes(toks)), count))
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc)) from None
    try:
        return Profile(names, ballots)
    except ValueError as exc:
        raise ParseError(path, 1, str(exc)) from None


def format_profile(p: Profile) -> str:
    out = [f"profile {len(p.alternatives)}"]
    out.extend(p.alternatives)
    lines = "\n".join(_format_levels(p.alternatives, p.ranks, " | ")).split("\n")
    for line, count in zip(lines, p.counts):
        out.append(line if count == 1 else f"{line} × {format_rational(count)}")
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
            out.append(f"{x} {y} {format_rational(w)}")
    return "\n".join(out) + "\n"


def _read_text(path: str | Path) -> str:
    """A file's text, decoded as strict UTF-8 whatever the locale.

    A byte that is not UTF-8 raises ParseError at its line, counting lines as
    ``str.splitlines`` does.
    """
    data = Path(path).read_bytes()
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        # "_" stands in for the bad byte, so that its line counts when nothing precedes it
        line = len((data[: exc.start].decode() + "_").splitlines())
        raise ParseError(str(path), line, f"invalid UTF-8 byte 0x{data[exc.start]:02x}") from None


def read_tournament(path: str | Path) -> WeightedTournament:
    return parse_tournament(_read_text(path), str(path))


def read_profile(path: str | Path) -> Profile:
    return parse_profile(_read_text(path), str(path))


def read_graph(path: str | Path) -> CutInstance:
    return parse_graph(_read_text(path), str(path))
