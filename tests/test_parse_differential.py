"""The integer-first parsers against the object-building parsers they replace.

``_reference_parse_tournament`` and ``_reference_parse_profile`` keep the
former bodies of ``parse_tournament`` and ``parse_profile``: they build one
``Fraction`` per arc or one ``WeakOrder`` per ballot line and hand them to the
``WeightedTournament`` / ``Profile`` constructors, whose checks fix the error
order.  On generated texts (valid and broken lines, int and fraction tokens,
weights past 2**62, 2**70 denominators and multiplicities) the parsers must
return equal values or raise the same ``ParseError`` text.
"""

import random
import sys
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from maxkop import Profile, WeakOrder, WeightedTournament, induce_tournament
from maxkop import formats
from maxkop.formats import (
    _BYTES_MIN,
    ParseError,
    _lines,
    _parse_header,
    _parse_int,
    _parse_rational,
    _profile_bytes,
    _tournament_bytes,
    _weight_tokens,
    format_profile,
    format_tournament,
    parse_profile,
    parse_tournament,
)
from maxkop.selftest import random_profile, random_tournament
from maxkop.tournament import exact_int_matrix

# ---- the former parsers, kept as references ----------------------------------------


def _reference_parse_tournament(text: str, path: str = "<string>") -> WeightedTournament:
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


def _reference_parse_profile(text: str, path: str = "<string>") -> Profile:
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


def outcome(parse, text):
    try:
        return parse(text, "f.txt"), None
    except ParseError as exc:
        return None, str(exc)


# ---- text generators ----------------------------------------------------------------
# Each text comes from a Random seeded by hypothesis: drawing every token through
# hypothesis costs more than parsing it, and the failing text is printed anyway.

NAMES = ["a", "b", "c", "d", "e"]
ODD_NAMES = ["z", "a>b", "x|y", "|", "١", "a"]
# name lists around the byte reader's rule that names have at most 7 bytes: names
# over 8 bytes sharing their first 8, names of 7, 8 and 9 bytes, names of up to 7
# bytes sharing all but the last, NUL bytes, non-ASCII names and the markers, names
# over 16 bytes
NAME_LISTS = [
    ["alternative1", "alternative10", "alternative11", "alternative2", "alternative20"],
    ["abcdefg", "abcdefgh", "abcdefgi", "abcdefghi", "bcdefgh"],
    ["abcdefg", "abcdefh", "abcdef", "bbcdefg", "abcdeg"],
    ["a\x00", "\x00", "a", "\x00\x00b", "ab"],
    ["é", "名前", "ü1", "×", "*"],
    ["candidate_number_1", "candidate_number_2", "c", "d", "e"],
]
ODD_INTS = ["1_000", "+5", "-0", "007", "١٢"]
ODD_FRACTIONS = ["3/6", "1.5", "1e3", "-2.25", "1/0", "one", "x/2", "0x10", "1__0"]
MULTIPLICITIES = [" × 3", " * 2", " × 007", " * 0002", f" × {2**70}", f" × {2**62 + 1}"]
# blanks and line breaks: the byte reader reads the first of each kind, declines the odd ones
BLANKS = [" ", "  ", "\t", " \t "]
ODD_BLANKS = ["\xa0", "\u3000"]
BREAKS = ["\n", "\r\n"]
ODD_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]


def int_token(rng: random.Random) -> str:
    kind = rng.randrange(9)
    if kind == 0:
        return str(rng.choice((1, -1)) * rng.randint(2**62, 2**72))
    if kind == 1:
        return rng.choice(ODD_INTS)
    if kind == 2:  # around the int64 form's bound 2 * m * sum(abs(w)) < 2**62
        return str(rng.choice((1, -1)) * rng.randint(2**54, 2**60))
    if kind == 3:  # 18 and 19 digits, around the byte reader's limit
        return str(rng.choice((1, -1)) * rng.randint(10**17, 10**19 - 1))
    return str(rng.randint(-9, 9))


def fraction_token(rng: random.Random) -> str:
    kind = rng.randrange(4)
    if kind == 0:
        return f"{rng.randint(-(2**66), 2**66)}/{rng.choice((2**70, 3 * 2**70, 6))}"
    if kind == 1:
        return rng.choice(ODD_FRACTIONS)
    return f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"


def header(rng: random.Random, keyword: str) -> tuple[list[str], list[str]]:
    names = rng.choice(NAME_LISTS) if rng.randrange(4) == 0 else NAMES
    names = names[: rng.randint(1, 5)]
    if rng.randrange(10) == 0:
        names[-1] = rng.choice(ODD_NAMES)
    return names, [f"{keyword} {len(names)}", *names]


def layout(rng: random.Random, lines: list[str]) -> str:
    """The lines as a text, tokens split by runs of blanks and lines ended by line breaks.

    Half the texts keep single spaces and "\n"; the rest get tabs and runs
    of blanks, blanks before and after lines, blank lines, "\r\n", and now
    and then a non-ASCII blank or a line break other than "\n" and "\r\n".
    """
    if rng.random() < 0.5:
        return "\n".join(lines) + "\n"
    out = []
    for line in lines:
        if rng.randrange(15) == 0:
            out.append(rng.choice(["", *BLANKS]) + rng.choice(BREAKS))
        blanks = ODD_BLANKS if rng.randrange(40) == 0 else BLANKS
        first, *rest = line.split(" ")
        text = first + "".join(rng.choice(blanks) + tok for tok in rest)
        if rng.randrange(5) == 0:
            text = rng.choice(BLANKS) + text + rng.choice(BLANKS)
        out.append(text + rng.choice(ODD_BREAKS if rng.randrange(40) == 0 else BREAKS))
    return "".join(out)


@st.composite
def tournament_texts(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    names, lines = header(rng, "tournament")
    if rng.randrange(20) == 0:  # past the byte reader's size threshold
        names = [f"v{i}" for i in range(40)]
        lines = [f"tournament {len(names)}", *names]
    fractions = rng.random() < 0.5
    pairs = list(combinations(names, 2))
    rng.shuffle(pairs)
    for x, y in pairs[: rng.randint(0, len(pairs))]:
        if rng.random() < 0.5:
            x, y = y, x
        tok = fraction_token(rng) if fractions and rng.randrange(3) == 0 else int_token(rng)
        if rng.randrange(12) == 0:
            # a broken line: wrong shape, an unknown vertex, a repeated or self pair, a blank
            shapes = [f"{x} {y}", f"{x} {y} {tok} 4", f"{x} z {tok}", f"{y} {x} 1", f"{x} {x} 1"]
            lines.append(rng.choice([*shapes, ""]))
        lines.append(f"{x} {y} {tok}")
    return layout(rng, lines)


@st.composite
def profile_texts(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    names, lines = header(rng, "profile")
    for _ in range(rng.randint(0, 8)):
        order = rng.sample(names, len(names))
        toks = [order[0]]
        for name in order[1:]:
            toks += ["|", name] if rng.random() < 0.5 else [name]
        while rng.randrange(8) == 0:
            # a broken or unusual token: repeats, strays, empty classes, unknown names
            toks.insert(rng.randint(0, len(toks)), rng.choice(["|", "z", "a|b", *names]))
        if rng.randrange(12) == 0:
            toks.pop(rng.randrange(len(toks)))
        mult = ""
        if rng.randrange(3) == 0:
            mult = rng.choice(MULTIPLICITIES)
        if rng.randrange(8) == 0:  # 18 and 19 digits, around the byte reader's limit
            mult = f" {rng.choice('×*')} {rng.randint(10**17, 10**19 - 1)}"
        if rng.randrange(25) == 0:
            mult = rng.choice([" × 0", " × 000", " × -1", " * x", " ×"])
        lines.append(" ".join(toks) + mult)
    body = lines[len(names) + 1 :]
    if body and rng.randrange(20) == 0:  # past the byte reader's size threshold
        lines += body * (_BYTES_MIN // (len("".join(body)) + 1) + 1)
    return layout(rng, lines)


# ---- the differential tests -----------------------------------------------------------

FUZZ = settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def same_tournament(got: WeightedTournament, want: WeightedTournament) -> None:
    assert got == want
    assert got.weights == want.weights
    assert all(type(w) is Fraction for w in got.weights.values())
    assert got.integer_form.scale == want.integer_form.scale
    assert got.integer_form.w.dtype == want.integer_form.w.dtype
    assert (got.integer_form.w == want.integer_form.w).all()


def same_profile(got: Profile, want: Profile) -> None:
    assert got == want
    assert got.ballots == want.ballots
    assert got.voter_count == want.voter_count
    assert hash(got) == hash(want)
    gw, ww = induced(got), induced(want)
    assert type(gw) is type(ww)
    if isinstance(gw, str):
        assert gw == ww
    else:
        assert gw.dtype == ww.dtype and (gw == ww).all()


def induced(p: Profile):
    """The induced tournament's integer matrix, or the error inducing it raises."""
    try:
        return induce_tournament(p).integer_form.w
    except ValueError as exc:  # one alternative, or a name no tournament accepts
        return str(exc)


@FUZZ
@given(tournament_texts())
def test_parse_tournament_matches_reference(text):
    got, got_err = outcome(parse_tournament, text)
    want, want_err = outcome(_reference_parse_tournament, text)
    assert got_err == want_err
    if want is not None:
        same_tournament(got, want)


@FUZZ
@given(profile_texts())
def test_parse_profile_matches_reference(text):
    got, got_err = outcome(parse_profile, text)
    want, want_err = outcome(_reference_parse_profile, text)
    assert got_err == want_err
    if want is not None:
        same_profile(got, want)


def _sharing_a_slot(count: int, m: int) -> list[str]:
    """``count`` names of up to 7 bytes whose heads share one home slot of an m-name table.

    The slot is the byte reader's: the Fibonacci hash of the head, shifted
    to the table's 2^b >= 4m slots.
    """
    words = [f"n{i}" for i in range(64 * count * m)]
    heads = np.array(
        [int.from_bytes(w.encode().ljust(8, b" "), "little") for w in words], np.uint64
    )
    shift = np.uint64(64 - (4 * m - 1).bit_length())
    home = (heads * formats._FIBONACCI >> shift).astype(np.intp)
    slot = np.bincount(home).argmax()
    shared = [w for w, h in zip(words, home.tolist()) if h == slot]
    assert len(shared) >= count
    return shared[:count]


# five names in one slot, and a sixth word in it that is no name
SHARED = _sharing_a_slot(6, 5)
SHARED_NAMES = "\n".join(SHARED[:5])
NULS = "\x00" * 8


@FUZZ
@given(st.one_of(tournament_texts(), profile_texts()))
# refused texts the generators seldom write: as many names as a full profile's but
# not m on each line, and tokens that share a name's first 7 or 8 bytes
@example("profile 2\na\nb\na b a\nb\n")
@example("profile 2\na\nb\nb\na | b a\n")
@example("profile 1\nabcdefgh\nabcdefghi\n")
@example("profile 2\nalternative1\nb\nalternative10 b\n")
@example("tournament 2\nabcdefgh\nb\nabcdefghi b 1\n")
@example("profile 2\nabcdefg\nb\nabcdefgh | b\n")
@example("tournament 2\nabcdefg\nb\nabcdefg\x00 b 1\n")
# names that share a home slot, so that all but one sit further on, and a token in
# that slot that is no name
@example(f"profile 5\n{SHARED_NAMES}\n{' | '.join(SHARED[4::-1])}\n{' '.join(SHARED[:5])} * 2\n")
@example(f"profile 5\n{SHARED_NAMES}\n{' '.join(SHARED[1:])}\n")
@example(f"tournament 5\n{SHARED_NAMES}\n{SHARED[4]} {SHARED[0]} 3\n{SHARED[1]} {SHARED[3]} -2\n")
@example(f"tournament 5\n{SHARED_NAMES}\n{SHARED[5]} {SHARED[0]} 3\n")
# one name; a name and one more byte; an 8-byte token whose first 7 bytes are a name
@example("profile 1\na\na\na * 3\n")
@example("tournament 1\na\n")
@example("profile 2\nab\nc\nab | c\nabc | c\n")
@example("tournament 2\nab\nc\nabc c 1\n")
@example("tournament 2\nabcdefg\nb\nabcdefgh b 1\n")
# tokens of NUL bytes: 8 of them make the head 0, 7 are a name's head
@example(f"profile 2\na\nb\n{NULS} | b\n")
@example(f"tournament 2\na\nb\n{NULS} b 1\n")
@example(f"profile 2\n{NULS[1:]}\nb\n{NULS[1:]} | b\n{NULS} | b\n")
@example(f"tournament 2\n{NULS[1:]}\nb\n{NULS[1:]} b 1\n")
def test_byte_reader_reads_like_the_reference_or_declines(text):
    # the byte reader itself, below its size threshold too: it returns the
    # reference's value or None, and None whenever the reference raises
    if text.split()[0] == "tournament":
        got, same = _tournament_bytes(text), same_tournament
        want, want_err = outcome(_reference_parse_tournament, text)
    else:
        got, same = _profile_bytes(text), same_profile
        want, want_err = outcome(_reference_parse_profile, text)
    if want_err is not None:
        assert got is None
    elif got is not None:
        same(got, want)


@pytest.mark.parametrize("kind", ["profile", "tournament"])
@pytest.mark.parametrize("count", [5, 2000])
def test_byte_reader_finds_every_name(kind, count):
    # five names in one home slot, and 2,000 names of 1 to 7 bytes in a table of 8,192
    # slots, where many share a home slot: every name is found, and no other token
    rng = random.Random(count)
    if count == 5:
        names = SHARED[:5]
    else:
        names = [f"{i:x}" + "δ" * (i % 5 == 0) + "_" * (i % 3) for i in range(count)]
        rng.shuffle(names)
    lines = [f"{kind} {count}", *names]
    if kind == "profile":
        for _ in range(4):
            order = rng.sample(names, count)
            toks = [order[0]]
            for name in order[1:]:
                toks += ["|", name] if rng.random() < 0.3 else [name]
            lines.append(" ".join(toks) + f" × {rng.randint(1, 9)}")
        text = "\n".join(lines) + "\n"
        same_profile(_profile_bytes(text), _reference_parse_profile(text))
    else:
        pairs = {tuple(sorted(rng.sample(range(count), 2))) for _ in range(min(3000, count * 2))}
        for i, j in pairs:
            x, y = (names[i], names[j]) if rng.random() < 0.5 else (names[j], names[i])
            lines.append(f"{x} {y} {rng.randint(-9, 9)}")
        text = "\n".join(lines) + "\n"
        got, want = _tournament_bytes(text), _reference_parse_tournament(text)
        # 2,000 names make two million arcs: compare the forms, not the weight mappings
        assert got.vertices == want.vertices
        assert got.integer_form.scale == want.integer_form.scale
        assert got.integer_form.w.dtype == want.integer_form.w.dtype
        assert (got.integer_form.w == want.integer_form.w).all()
    # the last line's first token one byte longer names nothing
    bad = "\n".join([*lines[:-1], lines[-1].replace(" ", "x ", 1)]) + "\n"
    assert (_profile_bytes if kind == "profile" else _tournament_bytes)(bad) is None


def test_byte_reader_declines_every_other_blank_and_line_break():
    # str.split() splits on the plain blanks " \t\n\r" and on the characters the byte
    # reader declines, which hold every line break of str.splitlines() but "\n" and "\r"
    space = {chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()}
    declined = set(formats._UNICODE_SPACES) | set("\x0b\x0c\x1c\x1d\x1e\x1f")
    assert space == declined | set(" \t\n\r")
    assert {c for c in space if len(f"a{c}b".splitlines()) == 2} <= declined | {"\n", "\r"}
    # the byte reader looks for the non-ASCII ones only behind these lead bytes
    assert {c.encode()[0] for c in declined if not c.isascii()} == {0xC2, 0xE1, 0xE2, 0xE3}
    text = "profile 2\na\nb\na{}b{}b a\n"
    for c in declined | {"\r"}:
        assert formats._byte_text(text.format(" ", c)) is None
        assert formats._byte_text(text.format(c, "\n")) is None
    assert formats._byte_text(text.format("\t", "\r\n")) is not None  # one line break


@pytest.mark.parametrize("m, weight", [(20, 10**15), (45, 10**9), (80, 10**9)])
def test_regular_texts_are_read_on_arrays(monkeypatch, m, weight):
    # written texts past the size threshold never reach the line reader; the
    # m = 20 weights take the form past 2**62, the others int64
    rng = random.Random(m)
    p = random_profile(rng, m, 60, rng.choice([2, 3, "linear"]))
    t = random_tournament(rng, m, -weight, weight)
    profile_text, tournament_text = format_profile(p), format_tournament(t)
    assert "×" in profile_text
    assert len(profile_text) >= _BYTES_MIN
    assert len(tournament_text) >= _BYTES_MIN

    def line_reader(text):
        raise AssertionError("a regular text went to the line reader")

    monkeypatch.setattr(formats, "_lines", line_reader)
    same_profile(parse_profile(profile_text), p)
    same_tournament(parse_tournament(tournament_text), t)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tournament_texts())
def test_parsed_form_takes_the_exact_dtype(text):
    # the parser takes the form's dtype from the arcs before the fill (``_arc_form``),
    # with no pass over the matrix: it must be the exact pass's, over Python ints
    t, _ = outcome(parse_tournament, text)
    if t is not None:
        w = t.integer_form.w
        want = exact_int_matrix(w)
        assert w.dtype == want.dtype and w.tolist() == want.tolist()
        if w.dtype == object:
            assert {type(v) for v in w.ravel().tolist()} <= {int}


@pytest.mark.parametrize("seed", range(5))
def test_formatted_values_parse_like_the_reference(seed):
    rng = random.Random(seed)
    t = random_tournament(rng, rng.randint(2, 8))
    text = format_tournament(t)
    same_tournament(parse_tournament(text), _reference_parse_tournament(text))
    p = random_profile(rng, rng.randint(3, 6), rng.randint(1, 5), rng.choice([2, 3, "linear"]))
    text = format_profile(p)
    same_profile(parse_profile(text), _reference_parse_profile(text))
    same_profile(parse_profile(text), p)


# ---- rational tokens against Fraction ------------------------------------------------

RATIONAL_TOKENS = [
    "3/6", "-3/6", "+3/6", "-0/5", "0", "-0", "7", "007/010", "-00/001", "6/3", "1/1",
    f"{2**70 + 1}/{3 * 2**70}", f"-{10**30}/{10**20}",  # lowest terms past int64
    "1_000/3", "3/1_0", "1_0", "1__0/3", "_1/2", "1_/2",  # underscores
    "٣/4", "3/٤", "３/４", "١٢", "²/3",  # Unicode digits
    "3/-4", "3/+4", "-3/-4", "+-3/4", "--3/4",  # signs
    "0/0", "5/0", "-5/000",  # zero denominators
    "1.5", "-2.25", ".5", "5.", "1e3", "1E+2", "-1.25e-3", "1/2.0", "1e3/2",  # decimals, exponents
    "1/2/3", "/3", "3/", "/", "+", "-", "", "one", "x/2", "0x10", "inf", "nan", "3 /4", "\t3/4",
    "1" * 5000, "1/" + "1" * 5000,  # digits past int's string limit
]


@pytest.mark.parametrize("token", RATIONAL_TOKENS)
def test_rational_token_reads_as_fraction(token):
    # "1/2" first puts every token on the rational path, the fast read or Fraction's
    nums, dens, error = _weight_tokens(["1/2", token], "f.txt", [5, 6])
    try:
        want = Fraction(token)
    except (ValueError, ZeroDivisionError):
        assert (nums, dens) == ([1], [2])
        assert str(error) == f"f.txt:6: expected a rational p/q, got {token!r}"
        return
    assert error is None
    assert (nums, dens) == ([1, want.numerator], [2, want.denominator])
    assert all(type(x) is int for x in nums + dens)


# ---- no Fraction on integer input -----------------------------------------------------


@pytest.fixture
def fraction_count(monkeypatch):
    """Counts ``Fraction`` objects built while the test runs."""
    made = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    return made


def test_integer_input_builds_no_fraction(fraction_count):
    text = "tournament 4\na\nb\nc\nd\na b 3\nc a -2\nb d 123456789012345678901234\nc d 0\n"
    t = parse_tournament(text)
    w = np.array([[0, 2, -1], [-2, 0, 5], [1, -5, 0]])
    u = WeightedTournament.from_int_matrix(("x", "y", "z"), w, 7)
    p = parse_profile("profile 3\na\nb\nc\na | b c × 4\nc | b | a\nb a c * 2\n")
    induce_tournament(p)
    assert fraction_count == []
    assert t.weights[("a", "c")] == 2 and u.weights[("y", "z")] == Fraction(5, 7)
    assert len(fraction_count) > 0  # the views build them once read
