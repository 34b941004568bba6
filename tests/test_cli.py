import argparse
import contextlib
import io
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from maxkop import WeightedTournament, cli, induce_tournament, selftest, solve_bruteforce
from maxkop.formats import (
    format_graph,
    format_partition,
    format_profile,
    format_tournament,
    parse_profile,
    read_tournament,
)
from maxkop.profiles import LINEAR, UNIVALENT, Profile, WeakOrder, realize_weights
from maxkop.reductions import CutInstance
from maxkop.selftest import random_profile, random_tournament


@pytest.fixture
def cyc_file(tmp_path, three_cycle):
    path = tmp_path / "cyc.txt"
    path.write_text(format_tournament(three_cycle))
    return path


@pytest.fixture
def k3_file(tmp_path):
    g = CutInstance(("a", "b", "c"), {("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1})
    path = tmp_path / "k3.txt"
    path.write_text(format_graph(g))
    return path


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_solve(capsys, cyc_file):
    code, out = run_cli(capsys, "solve", "--k", "3", str(cyc_file))
    assert code == 0
    assert out.splitlines() == ["optimum 1", "witness a > b > c"]


def test_solve_all_ties_and_threshold(capsys, cyc_file):
    code, out = run_cli(
        capsys, "solve", "--k", "3", "--all-ties", "--threshold", "1", str(cyc_file)
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "optimum 1"
    assert len([ln for ln in lines if ln.startswith("witness ")]) == 3
    assert lines[-1] == "decision true"


def test_solve_guard_exhaustion_exit_2(capsys, cyc_file):
    code = cli.main(["solve", "--k", "3", "--guard", "1", str(cyc_file)])
    assert code == 2


@pytest.mark.parametrize(
    "command", [["solve", "--k", "3"], ["decide", "--k", "3", "--threshold", "1"]]
)
def test_guard_below_one_is_an_input_error(capsys, cyc_file, command):
    # a guard below 1 is refused as input (exit 1), not as exhausted work (exit 2)
    for guard in ("-1", "0"):
        assert cli.main([*command, "--guard", guard, str(cyc_file)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: guard must be at least 1\n")
    assert cli.main(["selftest", "--guard", "0"]) == 1
    assert capsys.readouterr().err == "error: guard must be at least 1\n"


def test_decide(capsys, cyc_file):
    code, out = run_cli(capsys, "decide", "--k", "2", "--threshold", "1", str(cyc_file))
    assert code == 0
    assert out.strip() == "decision false"
    code, out = run_cli(capsys, "decide", "--k", "3", "--threshold", "1", str(cyc_file))
    assert out.strip() == "decision true"


def test_decompose_roundtrip(capsys, tmp_path):
    t = WeightedTournament(
        ("a", "b", "c"), {("a", "b"): 3, ("b", "c"): 1, ("a", "c"): -2}
    )
    src = tmp_path / "t.txt"
    src.write_text(format_tournament(t))
    code, out = run_cli(capsys, "decompose", str(src))
    assert code == 0
    summary = out.splitlines()[0]
    assert summary.startswith("cyclic_norm_sq ")
    cyc = read_tournament(tmp_path / "t.cycle.txt")
    co = read_tournament(tmp_path / "t.cocycle.txt")
    for pair in t.stored_pairs():
        assert cyc.weights[pair] + co.weights[pair] == t.weights[pair]


def test_parse_error_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("tournament 2\na\nb\na b oops\n")
    code = cli.main(["solve", "--k", "2", str(bad)])
    assert code == 1
    err = capsys.readouterr().err
    assert "bad.txt:4" in err


def test_missing_file_exit_1(capsys, tmp_path):
    code = cli.main(["solve", "--k", "2", str(tmp_path / "absent.txt")])
    assert code == 1


def test_usage_error_exit_1(capsys, cyc_file):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", str(cyc_file)])  # --k missing
    assert exc.value.code == 1


def test_aggregate_rule(capsys, tmp_path):
    p = Profile(
        ("a", "b", "c"),
        (
            (WeakOrder.from_classes([["a", "b"], ["c"]]), 1),
            (WeakOrder.from_classes([["a"], ["b", "c"]]), 1),
        ),
    )
    path = tmp_path / "p.txt"
    path.write_text(format_profile(p))
    code, out = run_cli(capsys, "aggregate", "--rule", "approval_winner", str(path))
    assert code == 0
    assert out.splitlines() == ["order a | b c"]


def test_aggregate_rule_reports_truncation(capsys, tmp_path):
    # a linear ballot and its reversal tie every alternative: m! Borda orders
    for m, printed, truncated in ((3, 6, False), (8, 10_000, True)):
        alts = tuple(f"c{i}" for i in range(m))
        up = WeakOrder.from_classes([[a] for a in alts])
        down = WeakOrder.from_classes([[a] for a in reversed(alts)])
        path = tmp_path / f"tie{m}.txt"
        path.write_text(format_profile(Profile(alts, ((up, 1), (down, 1)))))
        code, out = run_cli(capsys, "aggregate", "--rule", "borda_ranking", str(path))
        lines = out.splitlines()
        assert code == 0
        assert sum(ln.startswith("order ") for ln in lines) == printed
        assert (lines[-1] == "orders truncated") == truncated
        assert lines[0] == "order " + " | ".join(alts)


def test_aggregate_jk(capsys, tmp_path):
    p = Profile(
        ("a", "b", "c"),
        ((WeakOrder.from_classes([["a", "b"], ["c"]]), 2),),
    )
    path = tmp_path / "p.txt"
    path.write_text(format_profile(p), encoding="utf-8")
    code, out = run_cli(capsys, "aggregate", "--j", "2", "--k", "2", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "optimum 4"
    assert "order a b | c" in lines


def test_aggregate_mirrored_profile_prints_the_walks_witnesses(capsys, tmp_path):
    # dichotomous ballots plus their reversals induce all-zero weights, so every
    # one of the 2**14 - 1 ordered 2-partitions ties and the cap of 10,000 cuts them
    alts = tuple(f"x{i}" for i in range(14))
    halves = [(alts[:5], alts[5:]), (alts[3:9], alts[:3] + alts[9:]), (alts[::2], alts[1::2])]
    ballots = tuple(
        (WeakOrder.from_classes(classes), count)
        for count, (hi, lo) in enumerate(halves, 1)
        for classes in ([hi, lo], [lo, hi])
    )
    p = Profile(alts, ballots)
    prof_path, tour_path = tmp_path / "p.txt", tmp_path / "t.txt"
    prof_path.write_text(format_profile(p), encoding="utf-8")
    t = induce_tournament(p)
    tour_path.write_text(format_tournament(t))
    code, agg = run_cli(capsys, "aggregate", "--j", "2", "--k", "2", str(prof_path))
    assert code == 0
    code, sol = run_cli(capsys, "solve", "--k", "2", "--all-ties", str(tour_path))
    assert code == 0
    agg_lines, sol_lines = agg.splitlines(), sol.splitlines()
    assert agg_lines[0] == sol_lines[0] == "optimum 0"
    assert agg_lines[-1] == "orders truncated" and sol_lines[-1] == "witnesses truncated"
    as_witnesses = [ln.replace("order", "witness", 1).replace(" | ", " > ") for ln in agg_lines]
    assert as_witnesses[1:-1] == sol_lines[1:-1]
    walk = solve_bruteforce(t, 2, all_ties=True)
    assert sol_lines[1:-1] == [f"witness {format_partition(w, alts)}" for w in walk.witnesses]


def test_aggregate_validation_exit_1(capsys, tmp_path):
    p = Profile(
        ("a", "b", "c"),
        ((WeakOrder.from_classes([["a"], ["b"], ["c"]]), 1),),
    )
    path = tmp_path / "p.txt"
    path.write_text(format_profile(p))
    assert cli.main(["aggregate", "--j", "2", "--k", "2", str(path)]) == 1
    assert cli.main(["aggregate", "--j", "2", "--k", "2", "--coerce", str(path)]) == 0


@pytest.fixture
def kemeny9_file(tmp_path):
    # random linear ballots on nine alternatives induce cyclic weights
    p = random_profile(random.Random(9), 9, 7, LINEAR)
    assert not induce_tournament(p).integer_form.is_acyclic()
    path = tmp_path / "kemeny9.txt"
    path.write_text(format_profile(p), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "token, spec",
    [
        ("linear", LINEAR),
        ("V", LINEAR),
        ("|v|", LINEAR),
        ("Univalent", UNIVALENT),
        ("2*", UNIVALENT),
        ("2STAR", UNIVALENT),
        ("3", 3),
    ],
)
def test_level_spec_aliases(token, spec):
    assert cli._parse_level_spec(token) == spec


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["aggregate", "--j", "three", "--k", "2"],
            "invalid level spec 'three': use an integer, 'linear', or 'univalent'",
        ),
        (["aggregate", "--j", "2", "--k", "0"], "level spec must be positive, got 0"),
        (
            ["aggregate", "--rule", "borda_winner", "--k", "2"],
            "give either --rule or --j/--k, not both",
        ),
        (["aggregate", "--j", "2"], "aggregate needs --rule or both --j and --k"),
        (["solve", "--k", "2", "--threshold", "half"], "expected a rational p/q, got 'half'"),
        (["decide", "--k", "2", "--threshold", "1/0"], "expected a rational p/q, got '1/0'"),
    ],
)
def test_option_value_errors_exit_1(capsys, tmp_path, argv, message):
    path = tmp_path / "in.txt"
    text = "profile 2\na\nb\na | b\n" if argv[0] == "aggregate" else "tournament 1\na\n"
    path.write_text(text)
    assert cli.main(argv + [str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_aggregate_rule_rejects_exact_k(capsys, kemeny9_file):
    code = cli.main(["aggregate", "--rule", "kemeny_ranking", "--exact-k", str(kemeny9_file)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--exact-k applies to --j/--k, not to --rule" in captured.err


def test_kemeny_ranking_nine_alternatives(capsys, kemeny9_file):
    # 9**9 level vectors exceed the default guard; the subset program needs 2 * 9 * 2**8 cells
    code, out = run_cli(capsys, "aggregate", "--rule", "kemeny_ranking", str(kemeny9_file))
    assert code == 0
    orders = [ln.split(" ", 1)[1].split(" | ") for ln in out.splitlines()]
    assert orders and all(len(order) == 9 for order in orders)


def test_guard_below_both_estimates_names_the_route(capsys, tmp_path, kemeny9_file):
    t = random_tournament(random.Random(10), 8, -3, 3)
    path = tmp_path / "t8.txt"
    path.write_text(format_tournament(t))
    # 3**8 level vectors against about 2 * 3**8 cells
    assert cli.main(["solve", "--k", "3", "--guard", "100", str(path)]) == 2
    assert "exhaustive walk: 6561 level vectors exceed the guard of 100" in capsys.readouterr().err
    # 2 * 9 * 2**8 cells against 9**9 level vectors
    assert cli.main(["aggregate", "--rule", "kemeny_ranking", "--guard", "100", str(kemeny9_file)]) == 2
    assert "subset dynamic program: 4608 cells exceed the guard of 100" in capsys.readouterr().err


def test_guard_below_the_faster_route_runs_the_other(capsys, tmp_path):
    # Kemeny at m = 5: the walk is modeled faster but its 3125 level vectors exceed the guard,
    # which the subset program's 160 cells fit
    path = tmp_path / "p5.txt"
    path.write_text(format_profile(random_profile(random.Random(89), 5, 9, LINEAR)), encoding="utf-8")
    code, out = run_cli(capsys, "aggregate", "--rule", "kemeny_ranking", "--guard", "1000", str(path))
    assert code == 0
    assert (code, out) == run_cli(capsys, "aggregate", "--rule", "kemeny_ranking", str(path))


def test_realize_roundtrip(capsys, tmp_path):
    t = WeightedTournament(("a", "b", "c"), {("a", "b"): 2, ("b", "c"): -1})
    src = tmp_path / "t.txt"
    src.write_text(format_tournament(t))
    out_path = tmp_path / "p.txt"
    code, _ = run_cli(capsys, "realize", "--output", str(out_path), str(src))
    assert code == 0
    p = parse_profile(out_path.read_text(encoding="utf-8"), str(out_path))
    assert p == realize_weights(t)
    induced = induce_tournament(p)
    for pair in t.stored_pairs():
        assert induced.weights[pair] == 2 * t.weights[pair]


def test_realize_prints_the_profile_without_output(capsys, tmp_path):
    t = WeightedTournament(("a", "b", "c"), {("a", "b"): 2, ("b", "c"): -1})
    src = tmp_path / "t.txt"
    src.write_text(format_tournament(t))
    code, out = run_cli(capsys, "realize", str(src))
    assert code == 0
    assert out == format_profile(realize_weights(t))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.txt"]


def test_reduce_hg(capsys, k3_file, tmp_path):
    prefix = tmp_path / "out"
    code, out = run_cli(capsys, "reduce", "--gadget", "hg", "--output", str(prefix), str(k3_file))
    assert code == 0
    t = read_tournament(tmp_path / "out.hg.tournament.txt")
    assert t.m == 9
    map_text = (tmp_path / "out.hg.map.txt").read_text()
    assert "gadget hg" in map_text
    assert "direction a b : d_a_b" in map_text


def test_reduce_club(capsys, k3_file, tmp_path):
    prefix = tmp_path / "out"
    code, _ = run_cli(capsys, "reduce", "--gadget", "club", "--output", str(prefix), str(k3_file))
    assert code == 0
    map_text = (tmp_path / "out.club.map.txt").read_text()
    assert "constant sigma 4" in map_text
    from maxkop.formats import read_graph

    gstar = read_graph(tmp_path / "out.club.graph.txt")
    assert gstar.n == 4
    assert gstar.edge_weight("a", "club") == 4


def test_reduce_fg(capsys, tmp_path):
    g = CutInstance(("a", "b"), {("a", "b"): 1})
    src = tmp_path / "edge.txt"
    src.write_text(format_graph(g))
    prefix = tmp_path / "out"
    code, _ = run_cli(capsys, "reduce", "--gadget", "fg", "--output", str(prefix), str(src))
    assert code == 0
    t = read_tournament(tmp_path / "out.fg.tournament.txt")
    assert t.m == 10
    map_text = (tmp_path / "out.fg.map.txt").read_text()
    assert "constant C 2" in map_text
    assert "constant epsilon 1/1152" in map_text
    assert "reference a b" in map_text


def test_verify_theorem_1(capsys, k3_file):
    code, out = run_cli(capsys, "verify", "--theorem", "1", str(k3_file))
    assert code == 0
    assert out.strip() == "PASS 3 = 3"


def test_verify_guard_names_the_cut_walk(capsys, k3_file):
    # three vertices have 5 partitions into at most 3 pieces
    assert cli.main(["verify", "--theorem", "1", "--guard", "1", str(k3_file)]) == 2
    err = capsys.readouterr().err
    assert err == "guard exhausted: cut walk: 5 partitions exceed the guard of 1\n"


def test_verify_prop1(capsys, k3_file):
    code, out = run_cli(capsys, "verify", "--theorem", "prop1", str(k3_file))
    assert code == 0
    assert out.strip() == "PASS 14 = 14"


def test_verify_theorem_6(capsys, tmp_path):
    g = CutInstance(("a", "b"), {("a", "b"): 1})
    src = tmp_path / "edge.txt"
    src.write_text(format_graph(g))
    code, out = run_cli(capsys, "verify", "--theorem", "6", str(src))
    assert code == 0
    lines = out.splitlines()
    assert "transitive true" in lines
    assert "tiny_bound true" in lines
    assert lines[-1] == "PASS 13 = 13"


def test_verify_failure_exit_3(capsys, k3_file, monkeypatch):
    monkeypatch.setattr(cli, "check_tricut_identity", lambda g, guard: (False, 3, Fraction(4)))
    code, out = run_cli(capsys, "verify", "--theorem", "1", str(k3_file))
    assert code == 3
    assert out.strip() == "FAIL 3 != 4"


def test_selftest_ok(capsys):
    code, out = run_cli(capsys, "selftest")
    assert code == 0
    assert "seed 0" in out
    assert "FAIL" not in out


def test_selftest_guard_exit_2(capsys):
    assert cli.main(["selftest", "--guard", "1"]) == 2


def test_selftest_reports_a_failing_property_and_exits_3(capsys, monkeypatch):
    def failing(rng, guard):
        raise AssertionError("boom")

    monkeypatch.setattr(
        selftest, "PROPERTIES", (("passing", lambda rng, guard: 4), ("failing", failing))
    )
    lines = []
    assert selftest.run_selftest(seed=2, emit=lines.append) == 3
    assert lines == [
        "seed 2",
        "PASS passing (4 cases)",
        "FAIL failing: boom",
        "1/2 properties passed",
    ]
    code, out = run_cli(capsys, "selftest", "--seed", "2")
    assert code == 3
    assert out.splitlines() == lines


def test_selftest_seed_changes_instances(capsys):
    code, out0 = run_cli(capsys, "selftest", "--seed", "7")
    assert code == 0
    assert "seed 7" in out0


def test_deterministic_output(capsys, cyc_file):
    _, out1 = run_cli(capsys, "solve", "--k", "3", "--all-ties", str(cyc_file))
    _, out2 = run_cli(capsys, "solve", "--k", "3", "--all-ties", str(cyc_file))
    assert out1 == out2


# ---- one parser per process ------------------------------------------------------


def outcome(entry, argv) -> tuple[object, str, str]:
    """(exit code, stdout, stderr) of one command line, a usage exit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = entry(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def fresh_parser_run(argv) -> int:
    return cli.run(cli.build_parser().parse_args(argv))


def test_main_reuses_its_parser_without_carrying_state(tmp_path, cyc_file):
    bad = tmp_path / "bad.txt"
    bad.write_text("tournament 2\na\nb\na b oops\n")
    prof = tmp_path / "p.txt"
    prof.write_text("profile 3\na\nb\nc\na | b | c × 2\nc | b | a\n", encoding="utf-8")
    cyc = str(cyc_file)
    argvs = [
        ["solve", cyc],  # --k missing
        ["frobnicate", cyc],
        ["--help"],
        ["solve", "--help"],
        ["solve", "--k", "3", "--threshold", "1/0", cyc],
        ["solve", "--k", "2", str(bad)],
        ["solve", "--k", "3", "--guard", "1", cyc],
        ["solve", "--k", "3", "--all-ties", "--threshold", "1", cyc],
        ["decide", "--k", "2", "--threshold", "1", cyc],
        ["aggregate", "--rule", "borda_ranking", str(prof)],
        ["aggregate", "--j", "2", "--k", "three", str(prof)],
        ["aggregate", "--j", "2", "--k", "2", str(prof)],  # ballots not dichotomous
        ["solve", "--k", "2", str(tmp_path / "absent.txt")],
    ]
    want = [outcome(fresh_parser_run, argv) for argv in argvs]
    assert [code for code, _, _ in want] == [1, 1, 0, 0, 1, 1, 2, 0, 0, 0, 1, 1, 1]
    assert "bad.txt:4" in want[5][2]
    for order in (argvs, argvs[::-1]):
        for argv in order:
            assert outcome(cli.main, argv) == want[argvs.index(argv)], argv
    assert cli.build_parser() is not cli.build_parser()


PROBE = """
import contextlib, io, sys
from maxkop import cli
assert cli._parser.cache_info().currsize == 0, "importing cli built a parser"
outs = []
for _ in range(2):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(sys.argv[1:]) == 0
    outs.append(buf.getvalue())
info = cli._parser.cache_info()
assert (info.misses, info.hits) == (1, 1), info
assert outs[0] == outs[1]
sys.stdout.write(outs[0])
"""


def test_fresh_process_builds_the_parser_once_on_first_use(capsys, cyc_file):
    argv = ["solve", "--k", "3", "--all-ties", str(cyc_file)]
    _, in_process = run_cli(capsys, *argv)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    for command in (["-c", PROBE], ["-m", "maxkop.cli"]):
        proc = subprocess.run(
            [sys.executable, *command, *argv], env=env, capture_output=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == in_process.encode()


def test_files_are_utf8_under_the_c_locale(tmp_path):
    # the C locale with no coercion and no UTF-8 mode makes the locale's encoding ASCII
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]),
        LC_ALL="C",
        PYTHONCOERCECLOCALE="0",
        PYTHONUTF8="0",
    )

    def maxkop(*argv):
        return subprocess.run(
            [sys.executable, "-m", "maxkop.cli", *argv],
            env=env, cwd=tmp_path, capture_output=True, timeout=120,
        )

    (tmp_path / "cyc.txt").write_bytes(b"tournament 3\na\nb\nc\na b 2\nb c 2\nc a 2\n")
    proc = maxkop("realize", "--output", "r.txt", "cyc.txt")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"wrote r.txt\n", b"")
    written = (tmp_path / "r.txt").read_bytes()
    assert "a | b | c × 2\n".encode() in written
    proc = maxkop("aggregate", "--rule", "borda_winner", "r.txt")
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"order a | b c\norder b | a c\norder c | a b\n"

    # stdout keeps the locale's encoding: ASCII prints '*' for the multiplicity marker
    proc = maxkop("realize", "cyc.txt")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert b"a | b | c * 2\n" in proc.stdout
    printed = parse_profile(proc.stdout.decode("ascii"))
    assert printed == parse_profile(written.decode("utf-8"))

    (tmp_path / "bad.txt").write_bytes(written.replace(b"\xc3\x97 2", b"\xff 2", 1))
    proc = maxkop("aggregate", "--rule", "borda_winner", "bad.txt")
    line = written[: written.index(b"\xc3\x97")].count(b"\n") + 1
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == f"bad.txt:{line}: invalid UTF-8 byte 0xff\n".encode()


def test_readme_synopsis_lists_each_subcommands_options():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = re.findall(r"^maxkop (\w+)(.*)$", readme, re.MULTILINE)
    synopsis = dict(lines)
    assert len(synopsis) == len(lines)  # one line per subcommand
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert synopsis.keys() == sub.choices.keys()
    for name, subparser in sub.choices.items():
        options = {o for a in subparser._actions for o in a.option_strings} - {"-h", "--help"}
        assert set(re.findall(r"--[\w-]+", synopsis[name])) == options, name
