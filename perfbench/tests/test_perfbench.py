"""Tests of the benchmark harness itself: span arithmetic, checks, generators."""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

# The harness modules import each other as top-level modules, as they do when
# run as `python3 perfbench/run.py`; the program comes from src/.  This is not
# a conftest.py, so that it cannot shadow the program's own tests/conftest.py.
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(1, str(HERE.parent.parent / "src"))

import instances as gen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _span(sid, parent, name, start, end):
    return [sid, parent, 0, name, start, end]


def test_self_time_subtracts_the_union_of_children():
    recorded = [
        _span(0, -1, "root", 0, 100),
        _span(1, 0, "a", 10, 30),
        _span(2, 1, "leaf", 12, 20),
        _span(3, 0, "b", 25, 50),  # overlaps a: 10..50 is covered once
        _span(4, 0, "b", 90, 120),  # runs past the parent: clipped to 90..100
    ]
    assert spans.self_times(recorded) == [100 - 40 - 10, 20 - 8, 8, 25, 30]
    by_name = spans.self_seconds_by_name(recorded)
    assert by_name["b"] == pytest.approx(55e-9)
    assert sum(by_name.values()) == pytest.approx((50 + 12 + 8 + 55) * 1e-9)


def test_instrumentation_wraps_every_import_site_and_comes_off():
    import maxkop.reductions
    import maxkop.solvers

    original = maxkop.solvers.solve_bruteforce
    graph = maxkop.reductions.CutInstance(("a", "b", "c"), {("a", "b"): 2, ("b", "c"): 1})
    tracer = spans.Tracer()
    tracing = spans.Instrumentation(tracer)
    tracing.install()
    try:
        assert maxkop.reductions.solve_bruteforce is maxkop.solvers.solve_bruteforce
        assert maxkop.reductions.solve_bruteforce is not original
        ok, cut, _ = maxkop.reductions.check_tricut_identity(graph)
    finally:
        tracing.remove()
    assert ok and cut == 3
    assert maxkop.reductions.solve_bruteforce is original
    names = {span[3] for span in tracer.spans}
    assert {"reductions.verify", "reductions.cut_bruteforce", "reductions.build_hg",
            "solvers.bruteforce", "tournament.build"} <= names
    assert tracer.counts["solvers.route_bruteforce"] == 1
    # the gadget has 3 + 2 * 2 vertices; at most 3 levels
    assert tracer.counts["solvers.bruteforce_assignments"] == 3**7
    assert tracer.counts["reductions.cut_partitions"] == 1 + 3 + 1  # S(3,1) + S(3,2) + S(3,3)


def _three_cycle():
    one = Fraction(1)
    return gen.Tournament(("a", "b", "c"), {(0, 1): one, (1, 2): one, (0, 2): -one})


def test_rescorer_accepts_the_true_optimum_and_rejects_a_wrong_witness():
    sc = oracle.Scorer.of_tournament(_three_cycle())
    assert sc.score((0, 1, 2)) == 1  # a > b > c: +1 +1 -1
    right = "optimum 1\nwitness a > b > c\n"
    assert oracle.check_partitions(right, sc, 3, exact_k=False, all_ties=False) is None
    wrong_witness = "optimum 1\nwitness c > b > a\n"
    assert "scores -1" in oracle.check_partitions(wrong_witness, sc, 3, exact_k=False, all_ties=False)
    wrong_optimum = "optimum 2\nwitness a > b > c\n"
    assert oracle.check_partitions(wrong_optimum, sc, 3, exact_k=False, all_ties=False)
    too_many_blocks = "optimum 1\nwitness a > b > c\n"
    assert oracle.check_partitions(too_many_blocks, sc, 2, exact_k=False, all_ties=False)
    missing_vertex = "optimum 1\nwitness a > b\n"
    assert oracle.check_partitions(missing_vertex, sc, 3, exact_k=False, all_ties=False)
    below_known = "optimum 1\nwitness a > b > c\n"
    assert oracle.check_partitions(below_known, sc, 3, exact_k=False, all_ties=False, lower=Fraction(2))


def test_rescorer_is_exact_beyond_int64():
    p = 2147483647
    t = gen.Tournament(("a", "b"), {(0, 1): Fraction(2**70 + 1, p)})
    sc = oracle.Scorer.of_tournament(t)
    assert sc.score((0, 1)) == Fraction(2**70 + 1, p)
    assert sc.score((1, 0)) == -Fraction(2**70 + 1, p)


def test_ballot_checks_use_their_own_tournament():
    b = gen.Ballots(("x", "y", "z"), ((((0,), (1,), (2,)), 2), (((2,), (0,), (1,)), 1)))
    sc = oracle.Scorer.of_ballots(b)
    # net weights: x->y 3, x->z 1, y->z 1
    assert sc.borda() == [4, -2, -2]
    assert oracle.check_approval_winner("order x | y z\n", sc) is None
    assert oracle.check_approval_winner("order y | x z\n", sc)
    # y and z tie, so both orders of them must be listed
    assert oracle.check_borda_ranking("order x | y | z\norder x | z | y\n", sc) is None
    assert oracle.check_borda_ranking("order x | y | z\n", sc)
    assert oracle.check_borda_ranking("order y | x | z\norder y | z | x\n", sc)
    assert sc.best_linear() == 5
    assert oracle.check_kemeny("order x | y | z\n", sc) is None
    assert oracle.check_kemeny("order x | z | y\n", sc)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    def snapshot(seed, sub):
        ops = workloads.build(workload, seed, tmp_path / sub)
        files = {p.name: p.read_text() for p in sorted((tmp_path / sub).iterdir())}
        argvs = [[a.replace(str(tmp_path / sub), "") for a in op.argv] for op in ops]
        return files, argvs

    assert snapshot(7, "a") == snapshot(7, "b")
    assert snapshot(7, "a")[0] != snapshot(8, "c")[0]
