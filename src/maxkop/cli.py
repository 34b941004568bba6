"""Command-line front end: solving, decomposition, aggregation, reductions.

Exit codes: 0 success, 1 validation or parse error, 2 guard exhaustion,
3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .decomposition import decompose, norm_squared
from .formats import (
    ParseError,
    _format_levels,
    _rational,
    format_graph,
    format_profile,
    format_rational,
    format_tournament,
    read_graph,
    read_profile,
    read_tournament,
)
from .profiles import LINEAR, NAMED_RULES, UNIVALENT, aggregate, aggregate_rule, realize_weights
from .reductions import (
    add_club_vertex,
    build_fg,
    build_hg,
    check_club_identity,
    check_transitive_gadget,
    check_tricut_identity,
)
from .solvers import DEFAULT_GUARD, GuardExceededError, decide, solve
from .selftest import run_selftest

_REDUCE_EPILOG = (
    "The fg gadget generalizes to j-level outputs for j >= 4 with a chain "
    "contribution of (2j-3)*n*C in place of 3*n*C; only the 3-level "
    "construction is built here."
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # map usage errors onto the validation exit code
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_level_spec(token: str) -> object:
    low = token.lower()
    if low in ("linear", "v", "|v|"):
        return LINEAR
    if low in ("univalent", "2*", "2star"):
        return UNIVALENT
    try:
        value = int(token)
    except ValueError:
        raise ValueError(
            f"invalid level spec {token!r}: use an integer, 'linear', or 'univalent'"
        ) from None
    if value < 1:
        raise ValueError(f"level spec must be positive, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the command line, which a caller may extend."""
    parser = _Parser(prog="maxkop", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--guard", type=int, default=DEFAULT_GUARD,
                       help="work cap of the chosen route (default %(default)s)")

    p_solve = sub.add_parser("solve", help="maximize the ordered k-partition score")
    p_solve.add_argument("--k", type=int, required=True)
    p_solve.add_argument("--threshold", type=str, default=None,
                         help="also report whether the optimum reaches this rational")
    p_solve.add_argument("--all-ties", action="store_true")
    p_solve.add_argument("--exact-k", action="store_true")
    add_common(p_solve)
    p_solve.add_argument("file")

    p_decide = sub.add_parser("decide", help="is some ordered k-partition worth the threshold?")
    p_decide.add_argument("--k", type=int, required=True)
    p_decide.add_argument("--threshold", type=str, required=True)
    add_common(p_decide)
    p_decide.add_argument("file")

    p_dec = sub.add_parser("decompose", help="split the weights into cyclic and acyclic parts")
    p_dec.add_argument("--output", type=str, default=None,
                       help="output prefix (default: input path without extension)")
    p_dec.add_argument("file")

    p_agg = sub.add_parser("aggregate", help="aggregate a ballot profile")
    p_agg.add_argument("--rule", choices=NAMED_RULES, default=None)
    p_agg.add_argument("--j", type=str, default=None, help="ballot level spec")
    p_agg.add_argument("--k", type=str, default=None, help="output level spec")
    p_agg.add_argument("--exact-k", action="store_true")
    p_agg.add_argument("--coerce", action="store_true",
                       help="skip ballot shape validation")
    add_common(p_agg)
    p_agg.add_argument("file")

    p_real = sub.add_parser("realize", help="profile of ballots inducing twice the weights")
    p_real.add_argument("--output", type=str, default=None)
    p_real.add_argument("file")

    p_red = sub.add_parser("reduce", help="build a gadget from a graph",
                           epilog=_REDUCE_EPILOG)
    p_red.add_argument("--gadget", choices=("hg", "club", "fg"), required=True)
    p_red.add_argument("--output", type=str, default=None,
                       help="output prefix (default: input path without extension)")
    p_red.add_argument("file")

    p_ver = sub.add_parser("verify", help="check a reduction identity by brute force")
    p_ver.add_argument("--theorem", choices=("1", "prop1", "6"), required=True)
    add_common(p_ver)
    p_ver.add_argument("file")

    p_self = sub.add_parser("selftest", help="run the randomized property suite")
    p_self.add_argument("--seed", type=int, default=0)
    add_common(p_self)

    return parser


def _default_prefix(ns: argparse.Namespace) -> Path:
    if ns.output:
        return Path(ns.output)
    path = Path(ns.file)
    return path.with_suffix("") if path.suffix else path


def _run_solve(ns: argparse.Namespace, out) -> int:
    threshold = None if ns.threshold is None else _rational(ns.threshold)
    t = read_tournament(ns.file)
    res = solve(t, ns.k, all_ties=ns.all_ties, exact_k=ns.exact_k, guard=ns.guard)
    out(f"optimum {format_rational(res.optimum)}")
    for text in _format_levels(res.vertices, res.table, " > ", "witness "):
        out(text)
    if res.truncated:
        out("witnesses truncated")
    if threshold is not None:
        out(f"decision {'true' if res.optimum >= threshold else 'false'}")
    return 0


def _run_decide(ns: argparse.Namespace, out) -> int:
    threshold = _rational(ns.threshold)
    t = read_tournament(ns.file)
    out(f"decision {'true' if decide(t, ns.k, threshold, guard=ns.guard) else 'false'}")
    return 0


def _run_decompose(ns: argparse.Namespace, out) -> int:
    t = read_tournament(ns.file)
    d = decompose(t)
    prefix = _default_prefix(ns)
    cycle_path = prefix.parent / (prefix.name + ".cycle.txt")
    cocycle_path = prefix.parent / (prefix.name + ".cocycle.txt")
    cycle_path.write_text(format_tournament(d.cycle), encoding="utf-8")
    cocycle_path.write_text(format_tournament(d.cocycle), encoding="utf-8")
    out(
        f"cyclic_norm_sq {format_rational(norm_squared(d.cycle))} "
        f"cocyclic_norm_sq {format_rational(norm_squared(d.cocycle))}"
    )
    out(f"wrote {cycle_path}")
    out(f"wrote {cocycle_path}")
    return 0


def _run_aggregate(ns: argparse.Namespace, out) -> int:
    j, k = (None if s is None else _parse_level_spec(s) for s in (ns.j, ns.k))
    p = read_profile(ns.file)
    if ns.rule is not None:
        if j is not None or k is not None:
            raise ValueError("give either --rule or --j/--k, not both")
        if ns.exact_k:
            raise ValueError("--exact-k applies to --j/--k, not to --rule")
        res = aggregate_rule(p, ns.rule, coerce=ns.coerce, guard=ns.guard)
    elif j is None or k is None:
        raise ValueError("aggregate needs --rule or both --j and --k")
    else:
        res = aggregate(p, j, k, exact_k=ns.exact_k, coerce=ns.coerce, guard=ns.guard)
        out(f"optimum {format_rational(res.optimum)}")
    for text in _format_levels(res.alternatives, res.table, " | ", "order "):
        out(text)
    if res.truncated:
        out("orders truncated")
    return 0


def _run_realize(ns: argparse.Namespace, out) -> int:
    t = read_tournament(ns.file)
    text = format_profile(realize_weights(t))
    if ns.output:
        Path(ns.output).write_text(text, encoding="utf-8")
        out(f"wrote {ns.output}")
    else:
        try:
            "×".encode(getattr(sys.stdout, "encoding", None) or "utf-8")
        except UnicodeEncodeError:  # an ASCII stdout: both parsers read '*' as the marker too
            text = text.replace(" × ", " * ")
        out(text.rstrip("\n"))
    return 0


def _run_reduce(ns: argparse.Namespace, out) -> int:
    g = read_graph(ns.file)
    prefix = _default_prefix(ns)
    map_lines = [f"gadget {ns.gadget}"]
    if ns.gadget == "club":
        gstar, sigma = add_club_vertex(g)
        out_path = prefix.parent / (prefix.name + ".club.graph.txt")
        out_path.write_text(format_graph(gstar), encoding="utf-8")
        map_lines.append("constant sigma " + format_rational(sigma))
    else:
        gm = build_hg(g) if ns.gadget == "hg" else build_fg(g)
        out_path = prefix.parent / (prefix.name + f".{ns.gadget}.tournament.txt")
        out_path.write_text(format_tournament(gm.tournament), encoding="utf-8")
        for v in g.vertices:
            map_lines.append(f"ordinary {v} : " + " ".join(gm.ordinary[v]))
        for (a, b), d in sorted(
            gm.direction.items(), key=lambda kv: (g.index(kv[0][0]), g.index(kv[0][1]))
        ):
            map_lines.append(f"direction {a} {b} : {d}")
        if gm.placement_weight is not None:
            map_lines.append(f"constant C {format_rational(gm.placement_weight)}")
        if gm.tiny_weight is not None:
            map_lines.append(f"constant epsilon {format_rational(gm.tiny_weight)}")
        if gm.reference_order is not None:
            map_lines.append("reference " + " ".join(gm.reference_order))
    map_path = prefix.parent / (prefix.name + f".{ns.gadget}.map.txt")
    map_path.write_text("\n".join(map_lines) + "\n", encoding="utf-8")
    out(f"wrote {out_path}")
    out(f"wrote {map_path}")
    return 0


def _run_verify(ns: argparse.Namespace, out) -> int:
    g = read_graph(ns.file)
    if ns.theorem == "1":
        ok, cut, kop = check_tricut_identity(g, guard=ns.guard)
        lhs, rhs = format_rational(cut), format_rational(kop)
    elif ns.theorem == "prop1":
        ok, tri, expected = check_club_identity(g, guard=ns.guard)
        lhs, rhs = format_rational(tri), format_rational(expected)
    else:
        report = check_transitive_gadget(g, guard=ns.guard)
        out(f"transitive {'true' if report.transitive else 'false'}")
        out(f"tiny_bound {'true' if report.tiny_bound_ok else 'false'}")
        ok = report.ok
        lhs = "lift" if report.brute_rounded is None else format_rational(report.brute_rounded)
        rhs = format_rational(report.expected)
    if ok:
        out(f"PASS {lhs} = {rhs}")
        return 0
    out(f"FAIL {lhs} != {rhs}")
    return 3


def _run_selftest(ns: argparse.Namespace, out) -> int:
    return run_selftest(seed=ns.seed, guard=ns.guard, emit=out)


_RUNNERS = {
    "solve": _run_solve,
    "decide": _run_decide,
    "decompose": _run_decompose,
    "aggregate": _run_aggregate,
    "realize": _run_realize,
    "reduce": _run_reduce,
    "verify": _run_verify,
    "selftest": _run_selftest,
}


def run(ns: argparse.Namespace, out=print) -> int:
    """Run one parsed command line, mapping errors onto exit codes."""
    try:
        return _RUNNERS[ns.command](ns, out)
    except GuardExceededError as exc:
        print(f"guard exhausted: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, TypeError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser ``main`` uses, built on its first call, never at import.

    ``parse_args`` only reads it, so calls share it; it is never handed out.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    return run(_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
