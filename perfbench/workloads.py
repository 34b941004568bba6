"""The three workloads: a fixed op list per seed, written to text files.

Each workload is one *round*: a list of CLI invocations with a check each.
The benchmark repeats whole rounds, so every run sees the same mix of
instance sizes; the seed changes only the instances' content.  Sizes are
fixed per round because the exhaustive walk costs k^m whatever the weights,
so run-to-run spread comes from the machine, not from the draw.  Each round
has an odd number of ops (15, 15, 27), so the median latency is one op's.

* ``gadget-3op``: hg gadgets (n=3-4, 1-4 edges, m=5-12).  The exhaustive
  walk and the cut enumeration do almost all the work, on the sparse
  degree-2 shape that elimination-style routes target.
* ``dense-kop``: dense cyclic tournaments (m=8-11) with small denominators,
  a slice whose scaled weights exceed 2^62, and Kemeny on cyclic linear
  profiles (m=5-7).  The walk dominates, with no small elimination width.
* ``vote-poly``: profiles and tournaments with 20-80 alternatives (500 down
  to 100 ballot lines, multiplicities up to 1000) on the two polynomial routes
  (divider DP and 2-level projection), plus a tie-heavy slice that hits
  the witness cap.  The exhaustive walk never runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import instances as gen
import oracle


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Callable[[str], str | None]


# Denominators of the 2^62 slice: distinct large primes, so their lcm is huge.
HUGE_DENOMINATORS = (2147483647, 2147483629, 2147483587, 1000000007, 998244353)


class _Writer:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.n = 0

    def __call__(self, stem: str, text: str) -> str:
        path = self.workdir / f"{self.n:02d}-{stem}.txt"
        self.n += 1
        path.write_text(text)
        return str(path)


def _solve_ops(path: str, t: gen.Tournament, tag: str, specs) -> list[Op]:
    """`solve` ops on one tournament; each spec is (k, exact_k, all_ties)."""
    ops = []
    for k, exact_k, all_ties in specs:
        argv = ["solve", "--k", str(k)] + ["--exact-k"] * exact_k + ["--all-ties"] * all_ties

        def check(out, k=k, exact_k=exact_k, all_ties=all_ties):
            sc = oracle.Scorer.of_tournament(t)
            return oracle.check_partitions(
                out, sc, k, exact_k=exact_k, all_ties=all_ties,
                lower=sc.score(sc.sorted_split(k)),
            )

        name = f"solve-k{k}{'x' if exact_k else ''}{'-ties' if all_ties else ''}-{tag}m{t.m}"
        ops.append(Op(name, argv + [path], check))
    return ops


def _decide_op(path: str, t: gen.Tournament, tag: str, k: int, reachable: bool) -> Op:
    """Threshold at a known partition's score (reachable) or above every score."""
    sc = oracle.Scorer.of_tournament(t)
    threshold = sc.score(sc.sorted_split(k)) if reachable else sc.abs_total() + 1
    return Op(
        f"decide-k{k}-{tag}m{t.m}",
        ["decide", "--k", str(k), f"--threshold={threshold}", path],
        lambda out: oracle.check_decision(out, reachable),
    )


def gadget_3op(rng: random.Random, workdir: Path) -> list[Op]:
    write = _Writer(workdir)
    ops = []
    # (n, edges, with verify): one op at m=12, whose 0.7 s would otherwise
    # dominate a round and see the machine's speed change under it
    for n, edges, verify in (
        (3, 1, True), (3, 2, True), (3, 3, True), (3, 3, False), (4, 1, True),
        (4, 2, True), (4, 2, False), (4, 3, True), (4, 4, False),
    ):
        g = gen.random_graph(rng, n, edges)
        gadget = gen.hg_gadget(g)
        gpath = write(f"graph-n{n}e{edges}", gen.graph_text(g))
        hpath = write(f"hg-n{n}e{edges}", gen.tournament_text(gadget))
        if verify:
            ops.append(Op(
                f"verify1-m{gadget.m}", ["verify", "--theorem", "1", gpath],
                lambda out, g=g: oracle.check_verify(out, oracle.max_tricut(g)),
            ))
        ops.append(Op(
            f"solve-k3-hg-m{gadget.m}", ["solve", "--k", "3", hpath],
            lambda out, g=g, t=gadget: oracle.check_partitions(
                out, oracle.Scorer.of_tournament(t), 3, exact_k=False, all_ties=False,
                expect_optimum=Fraction(oracle.max_tricut(g)),
            ),
        ))
    return ops


def dense_kop(rng: random.Random, workdir: Path) -> list[Op]:
    write = _Writer(workdir)
    ops = []
    small = (1, 2, 3, 4, 6)
    for m, specs, decide in (
        (8, [(3, False, True), (4, True, False)], None),
        (9, [(3, False, True), (4, True, False)], False),
        (10, [(3, False, True)], True),
        (11, [(3, False, True)], None),
    ):
        t = gen.dense_tournament(rng, m, small)
        path = write(f"dense-m{m}", gen.tournament_text(t))
        ops += _solve_ops(path, t, "", specs)
        if decide is not None:
            ops.append(_decide_op(path, t, "", 3, decide))
    for m, specs, decide in (
        (8, [(4, True, False)], False),
        (9, [(3, False, True)], None),
        (10, [], True),
    ):
        t = gen.dense_tournament(rng, m, HUGE_DENOMINATORS)
        path = write(f"huge-m{m}", gen.tournament_text(t))
        ops += _solve_ops(path, t, "huge-", specs)
        if decide is not None:
            ops.append(_decide_op(path, t, "huge-", 3, decide))
    for m in (5, 6, 7):
        b = gen.cyclic_linear_ballots(rng, m)
        path = write(f"kemeny-m{m}", gen.profile_text(b))
        ops.append(Op(
            f"kemeny-m{m}", ["aggregate", "--rule", "kemeny_ranking", path],
            lambda out, b=b: oracle.check_kemeny(out, oracle.Scorer.of_ballots(b)),
        ))
    return ops


def _aggregate_op(path: str, b: gen.Ballots, tag: str, j: str, k: int, ties: bool) -> Op:
    def check(out):
        sc = oracle.Scorer.of_ballots(b)
        return oracle.check_partitions(
            out, sc, k, exact_k=False, all_ties=True, item="order", sep="|",
            lower=sc.score(sc.sorted_split(k)),
            expect_optimum=Fraction(0) if ties else None,
            expect_truncated=True if ties else None,
        )

    return Op(f"aggregate-j{j}-k{k}-{tag}m{b.m}", ["aggregate", "--j", j, "--k", str(k), path], check)


def vote_poly(rng: random.Random, workdir: Path) -> list[Op]:
    write = _Writer(workdir)
    ops = []
    for m, lines in ((20, 500), (35, 300), (50, 200), (80, 100)):
        dich = gen.dichotomous_ballots(rng, m, lines, 1000)
        path = write(f"dich-m{m}", gen.profile_text(dich))
        ops.append(_aggregate_op(path, dich, "", "2", 2, False))
        ops.append(Op(
            f"approval-winner-m{m}", ["aggregate", "--rule", "approval_winner", path],
            lambda out, b=dich: oracle.check_approval_winner(out, oracle.Scorer.of_ballots(b)),
        ))
        lin = gen.linear_ballots(rng, m, lines, 1000)
        path = write(f"linear-m{m}", gen.profile_text(lin))
        ops.append(_aggregate_op(path, lin, "", "linear", 2, False))
        ops.append(Op(
            f"borda-ranking-m{m}", ["aggregate", "--rule", "borda_ranking", path],
            lambda out, b=lin: oracle.check_borda_ranking(out, oracle.Scorer.of_ballots(b)),
        ))
        acyc = gen.acyclic_tournament(rng, m)
        ops += _solve_ops(write(f"acyclic-m{m}", gen.tournament_text(acyc)), acyc, "acyclic-",
                          [(4, False, False)])
        general = gen.integer_tournament(rng, m)
        ops += _solve_ops(write(f"general-m{m}", gen.tournament_text(general)), general, "",
                          [(2, False, True)])
    # each ballot plus its reversal: every candidate output ties at score 0
    tie_dich = gen.mirrored(gen.dichotomous_ballots(rng, 20, 50, 9))
    path = write("tie-dich-m20", gen.profile_text(tie_dich))
    ops.append(_aggregate_op(path, tie_dich, "tie-", "2", 2, True))
    ops.append(Op(
        "approval-winner-tie-m20", ["aggregate", "--rule", "approval_winner", path],
        lambda out, b=tie_dich: oracle.check_approval_winner(out, oracle.Scorer.of_ballots(b)),
    ))
    tie_lin = gen.mirrored(gen.linear_ballots(rng, 20, 50, 9))
    path = write("tie-linear-m20", gen.profile_text(tie_lin))
    ops.append(Op(
        "borda-ranking-tie-m20", ["aggregate", "--rule", "borda_ranking", path],
        lambda out, b=tie_lin: oracle.check_borda_ranking(out, oracle.Scorer.of_ballots(b)),
    ))
    return ops


WORKLOADS = {"gadget-3op": gadget_3op, "dense-kop": dense_kop, "vote-poly": vote_poly}


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Generate the workload's instances from the seed and write them under workdir."""
    workdir.mkdir(parents=True, exist_ok=True)
    ops = WORKLOADS[workload](random.Random(seed), workdir)
    seen: dict[str, int] = {}
    for op in ops:  # two instances of one shape get distinct names
        seen[op.kind] = seen.get(op.kind, 0) + 1
        if seen[op.kind] > 1:
            op.kind += f"-{seen[op.kind]}"
    return ops
