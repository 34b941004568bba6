import random
import sys
import time
from fractions import Fraction

import pytest

from maxkop import (
    CutInstance,
    OrderedPartition,
    Profile,
    WeakOrder,
    WeightedTournament,
    cli,
    decide,
    validate_ballots,
)
from maxkop.formats import (
    ParseError,
    format_graph,
    format_partition,
    format_profile,
    format_tournament,
    parse_graph,
    parse_partition,
    parse_profile,
    parse_tournament,
)
from maxkop.selftest import random_graph, random_tournament


def test_tournament_roundtrip():
    t = WeightedTournament(
        ("a", "b", "c"), {("a", "b"): Fraction(5), ("b", "c"): Fraction(-1, 2)}
    )
    assert parse_tournament(format_tournament(t)) == t


def test_tournament_roundtrip_random():
    rng = random.Random(71)
    for _ in range(10):
        t = random_tournament(rng, rng.randint(1, 7))
        assert parse_tournament(format_tournament(t)) == t


def test_tournament_parse_accepts_reversed_arcs_and_missing_pairs():
    text = "tournament 3\na\nb\nc\nc a 2\n"
    t = parse_tournament(text)
    assert t.weights[("a", "c")] == -2
    assert t.weights[("a", "b")] == 0


def test_tournament_parse_errors_carry_location():
    with pytest.raises(ParseError) as err:
        parse_tournament("tournament 2\na\nb\na b one\n", "x.txt")
    assert "x.txt:4" in str(err.value)
    assert "rational" in str(err.value)

    with pytest.raises(ParseError, match="header"):
        parse_tournament("whatever 2\na\nb\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_tournament("tournament 2\na\nb\na b 1\nb a 2\n")
    with pytest.raises(ParseError, match="arc line"):
        parse_tournament("tournament 2\na\nb\na b\n")
    with pytest.raises(ParseError, match="name lines"):
        parse_tournament("tournament 3\na\nb\n")


def test_exponents_past_the_int_digit_limit_are_refused(tmp_path):
    # Fraction computes 10**exponent with no bound, for seconds at 1e10000000
    limit = sys.get_int_max_str_digits() or pytest.skip("int digit limit disabled")
    t = parse_tournament(_T3 + "a b 1e3\nb c 1E-2\na c 1.5e3\n")
    arcs = [("a", "b"), ("b", "c"), ("a", "c")]
    assert [t.weights[arc] for arc in arcs] == [1000, Fraction(1, 100), 1500]
    for token in ("1e10000000", f"1e{limit + 1}", f"-2.5E-{limit + 1}"):
        with pytest.raises(ParseError) as err:
            parse_tournament(_T3 + f"a b 1\nb c {token}\n", "in.txt")
        assert str(err.value) == f"in.txt:6: expected a rational p/q, got {token!r}"
    big, small = tmp_path / "big.txt", tmp_path / "small.txt"
    big.write_text(_T3 + "a b 1e10000000\n")
    small.write_text(_T3 + "a b 1\n")
    start = time.perf_counter()
    assert cli.main(["solve", "--k", "2", str(big)]) == 1
    assert cli.main(["decide", "--k", "2", "--threshold", "1e10000000", str(small)]) == 1
    assert time.perf_counter() - start < 2


def test_library_strings_meet_the_exponent_limit():
    # the readers' check guards strings handed to the library too
    limit = sys.get_int_max_str_digits() or pytest.skip("int digit limit disabled")
    t = parse_tournament(_T3 + "a b 1\n")
    pair = ("a", "b")
    assert WeightedTournament(pair, {pair: "-2.5E-2"}).weights[pair] == Fraction(-1, 40)
    assert decide(t, 2, "1e-3")
    start = time.perf_counter()
    for token in ("1e10000000", f"-2.5E-{limit + 1}"):
        with pytest.raises(ValueError, match="integer string limit"):
            WeightedTournament(pair, {pair: token})
        with pytest.raises(ValueError, match="integer string limit"):
            decide(t, 2, token)
    assert time.perf_counter() - start < 2


def test_partition_roundtrip():
    p = OrderedPartition.from_blocks([["a", "b"], ["c"], ["d", "e"]])
    line = format_partition(p, ("a", "b", "c", "d", "e"))
    assert line == "a b > c > d e"
    assert parse_partition(line) == p


def test_partition_parse_errors():
    with pytest.raises(ParseError):
        parse_partition("a b > > c")
    with pytest.raises(ParseError):
        parse_partition("a > a")
    with pytest.raises(ParseError):
        parse_partition("a > b\nc > d")


def test_profile_roundtrip():
    p = Profile(
        ("a", "b", "c"),
        (
            (WeakOrder.from_classes([["a", "b"], ["c"]]), 2),
            (WeakOrder.from_classes([["c"], ["a"], ["b"]]), 1),
        ),
    )
    text = format_profile(p)
    assert "× 2" in text
    assert parse_profile(text) == p


def test_profile_parse_ascii_multiplicity():
    text = "profile 2\na\nb\na | b * 3\n"
    p = parse_profile(text)
    assert p.ballots[0][1] == 3


def test_profile_parse_errors():
    with pytest.raises(ParseError, match="multiplicity"):
        parse_profile("profile 2\na\nb\na | b × 0\n")
    with pytest.raises(ParseError):
        parse_profile("profile 2\na\nb\na | a\n")
    with pytest.raises(ParseError):
        parse_profile("profile 2\na\nb\na\n")  # ballot misses b


def test_graph_roundtrip():
    g = CutInstance(("a", "b", "c"), {("a", "b"): 2, ("b", "c"): 0})
    text = format_graph(g)
    assert "b c" not in text  # zero edges elided
    assert parse_graph(text) == CutInstance(("a", "b", "c"), {("a", "b"): 2})


def test_graph_and_profile_integers_past_the_int_string_limit():
    # 4,300 digits, sys.get_int_max_str_digits()'s default, still read back
    nines = int("9" * 4300)
    g = CutInstance(("a", "b", "c"), {("a", "b"): nines, ("a", "c"): nines, ("b", "c"): nines})
    assert parse_graph(format_graph(g)) == g
    # one digit more cannot be read back, but prints in full
    big = 10**4300
    text = format_graph(CutInstance(("a", "b"), {("a", "b"): big}))
    assert text.splitlines()[-1] == "a b 1" + "0" * 4300
    p = Profile(("a", "b"), ((WeakOrder.from_classes([["a"], ["b"]]), big),))
    assert format_profile(p).splitlines()[-1] == "a | b × 1" + "0" * 4300


def test_graph_roundtrip_random():
    rng = random.Random(72)
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 6))
        parsed = parse_graph(format_graph(g))
        assert parsed.vertices == g.vertices
        for x, y in g.edge_weights:
            assert parsed.edge_weight(x, y) == g.edge_weight(x, y)


def test_graph_parse_errors():
    with pytest.raises(ParseError, match="integer"):
        parse_graph("graph 2\na\nb\na b 1/2\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_graph("graph 2\na\nb\na b 1\nb a 1\n")
    with pytest.raises(ParseError):
        parse_graph("graph 2\na\nb\na b -1\n")


_T3 = "tournament 3\na\nb\nc\n"
_P3 = "profile 3\na\nb\nc\n"
_G3 = "graph 3\na\nb\nc\n"

# Malformed texts and their exact error: per-line errors first, in line
# order; then the constructor's errors at line 1 (names, then arcs or
# ballots in line order).
PARSE_ERRORS = [
    (parse_tournament, _T3 + "a b one\n", "in.txt:5: expected a rational p/q, got 'one'"),
    (parse_tournament, _T3 + "a b 1/0\n", "in.txt:5: expected a rational p/q, got '1/0'"),
    (parse_tournament, _T3 + "a b 1\nb a 2\n", "in.txt:6: duplicate arc for pair {'b', 'a'}"),
    (parse_tournament, _T3 + "a b\n", "in.txt:5: expected 'x y p/q' arc line, got 'a b'"),
    (parse_tournament, _T3 + "a b 1 2\n", "in.txt:5: expected 'x y p/q' arc line, got 'a b 1 2'"),
    (
        parse_tournament,
        _T3 + "a b 1\na z 2\n",
        "in.txt:1: unknown vertex in weight key ('a', 'z')",
    ),
    (parse_tournament, _T3 + "a a 1\n", "in.txt:1: self-pair ('a', 'a') is not an arc"),
    (parse_tournament, _T3 + "b b 1\na z 2\n", "in.txt:1: self-pair ('b', 'b') is not an arc"),
    (
        parse_tournament,
        _T3 + "a z 1\nb b 2\nc c 3/0\n",
        "in.txt:7: expected a rational p/q, got '3/0'",
    ),
    (parse_tournament, _T3 + "a b 1\n\nc a x/2\n", "in.txt:7: expected a rational p/q, got 'x/2'"),
    (
        parse_tournament,
        "tournament 2\na>b\nc\na>b c 1\n",
        "in.txt:1: vertex name 'a>b' may not contain whitespace, '>' or '|'",
    ),
    (
        parse_tournament,
        "tournament 2\nx|y\ny\nz y 1\n",
        "in.txt:1: vertex name 'x|y' may not contain whitespace, '>' or '|'",
    ),
    (parse_tournament, "tournament 2\na\na\na a 1\n", "in.txt:1: vertex names must be distinct"),
    (parse_tournament, "tournament 0\n", "in.txt:1: count must be positive, got 0"),
    (parse_tournament, "tournament 3\na\nb\n", "in.txt:3: expected 3 name lines after the header"),
    (
        parse_tournament,
        "tourney 3\na\nb\nc\n",
        "in.txt:1: expected header 'tournament <count>', got 'tourney 3'",
    ),
    (parse_tournament, "tournament two\na\nb\n", "in.txt:1: expected a vertex count, got 'two'"),
    (parse_tournament, "tournament 2\na b\nc\n", "in.txt:2: expected a single name, got 'a b'"),
    (parse_tournament, "", "in.txt:1: expected header 'tournament <count>'"),
    (parse_profile, _P3 + "a | b | c × 0\n", "in.txt:5: multiplicity must be positive, got 0"),
    (parse_profile, _P3 + "a b c × -3\n", "in.txt:5: multiplicity must be positive, got -3"),
    (parse_profile, _P3 + "a | b | c * x\n", "in.txt:5: expected a multiplicity, got 'x'"),
    (parse_profile, _P3 + "a | | b c\n", "in.txt:5: classes must be nonempty"),
    (parse_profile, _P3 + "× 2\n", "in.txt:5: classes must be nonempty"),
    (parse_profile, _P3 + "a | | b a\n", "in.txt:5: classes must be nonempty"),
    (parse_profile, _P3 + "a | b a | c\n", "in.txt:5: classes must be pairwise disjoint"),
    (
        parse_profile,
        _P3 + "a | b\na b c\n| a b c\n",
        "in.txt:7: classes must be nonempty",
    ),
    (
        parse_profile,
        _P3 + "a b c\nc | b | a\na | b\nb | c\na b | c\n",
        "in.txt:1: ballot 'a | b' does not cover the alternatives exactly",
    ),
    (
        parse_profile,
        _P3 + "a | b | c\nc c | z | a\n",
        "in.txt:1: ballot 'c | z | a' does not cover the alternatives exactly",
    ),
    (parse_profile, "profile 2\na\na\na | b\n", "in.txt:1: alternatives must be distinct"),
    (
        parse_profile,
        "profile 2\na\na>b\na | a>b\n",
        "in.txt:1: vertex name 'a>b' may not contain whitespace, '>' or '|'",
    ),
    (
        parse_profile,
        "profile 2\nx|y\nx|y\nx|y\n",
        "in.txt:1: vertex name 'x|y' may not contain whitespace, '>' or '|'",
    ),
    (
        parse_profile,
        "profile 2\n|\nb\nb\n",
        "in.txt:1: vertex name '|' may not contain whitespace, '>' or '|'",
    ),
    (parse_profile, "profile 2\na\na\n| a\n", "in.txt:4: classes must be nonempty"),
    (parse_profile, "profile 2\na\nb\n", "in.txt:1: a profile needs at least one ballot"),
    (parse_graph, _G3 + "a b\n", "in.txt:5: expected 'a b w' edge line, got 'a b'"),
    (parse_graph, _G3 + "a b 1/2\n", "in.txt:5: expected an integer weight, got '1/2'"),
    (
        parse_graph,
        _G3 + "a b 1\n\nb c -1\n",
        "in.txt:7: edge weight must be a nonnegative integer, got -1",
    ),
    (parse_graph, _G3 + "a b 1\nb a 2\n", "in.txt:6: duplicate edge {'b', 'a'}"),
    (parse_graph, _G3 + "a b 1\na z 2\n", "in.txt:1: unknown vertex in edge ('a', 'z')"),
    (parse_graph, _G3 + "a a 1\n", "in.txt:1: self-loops are not allowed"),
    (parse_graph, "graph 2\na\na\n", "in.txt:1: vertex names must be distinct"),
    (
        parse_graph,
        "graph 2\na|b\nc\na|b c 1\n",
        "in.txt:1: vertex name 'a|b' may not contain whitespace, '>' or '|'",
    ),
]


@pytest.mark.parametrize("parse, text, message", PARSE_ERRORS)
def test_parse_error_messages_exact(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text, "in.txt")
    assert str(err.value) == message


def _name_text(header: str, names: tuple[str, ...], ballot: bool = False) -> str:
    lines = [f"{header} {len(names)}", *names]
    if ballot:  # one ballot covering the alternatives, so only the names are at fault
        lines.append(" ".join(dict.fromkeys(names)))
    return "\n".join(lines) + "\n"


# Each entry point of a name list, taking the names as a tuple.
NAME_ENTRIES = {
    "WeightedTournament": lambda names: WeightedTournament(names, {}),
    "CutInstance": lambda names: CutInstance(names, {}),
    "Profile": lambda names: Profile(names, [WeakOrder.from_classes([names])]),
    "parse_tournament": lambda names: parse_tournament(_name_text("tournament", names), "in.txt"),
    "parse_graph": lambda names: parse_graph(_name_text("graph", names), "in.txt"),
    "parse_profile": lambda names: parse_profile(_name_text("profile", names, True), "in.txt"),
}
BAD_NAME_LISTS = [
    (("a", ""), "vertex name must be a nonempty string, got ''"),
    (("a|b", "c"), "vertex name 'a|b' may not contain whitespace, '>' or '|'"),
    (("a", "b", "a"), "vertex names must be distinct"),
]


@pytest.mark.parametrize(
    "entry, names, message",
    [
        (entry, names, message)
        for entry in NAME_ENTRIES
        for names, message in BAD_NAME_LISTS
        # a text cannot carry an empty name: lines are stripped and blank ones skipped
        if not (entry.startswith("parse_") and "" in names)
    ],
)
def test_one_name_rule_at_every_entry_point(entry, names, message):
    if entry.lower().endswith("profile"):
        message = message.replace("vertex names", "alternatives")
    if entry.startswith("parse_"):
        message = "in.txt:1: " + message
    with pytest.raises(ValueError) as err:
        NAME_ENTRIES[entry](names)
    assert str(err.value) == message


def test_profile_parse_accepts_a_name_repeated_in_one_class():
    p = parse_profile("profile 2\na\nb\na a | b\n")
    assert p == Profile(("a", "b"), ((WeakOrder.from_classes([["a"], ["b"]]), 1),))


@pytest.mark.parametrize(
    "spec, message",
    [
        ("linear", "ballot 1 ('b | a c d') is not a linear order"),
        (
            "univalent",
            "ballot 2 ('c d | a | b') is not univalent dichotomous (two classes, singleton top)",
        ),
        (3, "ballot 3 ('c | b | d | a') is not a weak order with at most 3 classes"),
    ],
)
def test_validate_ballots_messages_exact(spec, message):
    ballots = {
        "linear": "a | b | c | d\nb | a c d × 2\nd c | a | b\n",
        "univalent": "a | b c d\nb | a c d × 2\nd c | a | b\nc | b | d | a\n",
        3: "a | b | c d\nb | a c d × 2\nd c | a | b\nc | b | d | a\na b c d\n",
    }[spec]
    p = parse_profile("profile 4\nd\nb\nc\na\n" + ballots)
    with pytest.raises(ValueError) as err:
        validate_ballots(p, spec)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "command, text, message",
    [
        (["solve", "--k", "2"], _T3 + "a b 1\nb a 2\n", ":6: duplicate arc for pair {'b', 'a'}"),
        (
            ["aggregate", "--rule", "borda_winner"],
            _P3 + "a | b\na b c\n| a b c\n",
            ":7: classes must be nonempty",
        ),
        (
            ["aggregate", "--rule", "borda_winner"],
            "profile 2\na\na>b\na | a>b\n",
            ":1: vertex name 'a>b' may not contain whitespace, '>' or '|'",
        ),
        (
            ["verify", "--theorem", "1"],
            "graph 2\na|b\nc\na|b c 1\n",
            ":1: vertex name 'a|b' may not contain whitespace, '>' or '|'",
        ),
        (
            ["verify", "--theorem", "1"],
            _G3 + "a b 1\nb c -1\n",
            ":6: edge weight must be a nonnegative integer, got -1",
        ),
    ],
)
def test_cli_parse_error_exit_code_and_location(capsys, tmp_path, command, text, message):
    path = tmp_path / "in.txt"
    path.write_text(text)
    assert cli.main(command + [str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}{message}\n"
