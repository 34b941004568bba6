"""Spans and counters recorded from outside the program.

``Instrumentation`` replaces public functions of the ``maxkop`` modules with
wrappers that record one span per call.  A function is replaced in every
module namespace that holds it, because the package binds functions by
``from .x import f``: ``maxkop.cli.aggregate``, ``maxkop.profiles.solve``,
``maxkop.solvers.cycle_component`` and ``maxkop.reductions.solve_bruteforce``
are separate bindings of functions defined elsewhere.  Spans stay in memory
as ``[span_id, parent_id, op_id, name, start_ns, end_ns]`` and are written
once, after the run.
"""

from __future__ import annotations

import gzip
import inspect
import math
import sys
import time
from collections import Counter, defaultdict
from functools import wraps
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, self.op_id, name, time.perf_counter_ns(), 0])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][5] = time.perf_counter_ns()
        self._stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[s][3] == name for s in self._stack)

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][3] if self._stack else None

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("span_id parent_id op_id name start_ns end_ns\n")
            for span in self.spans:
                fh.write(" ".join(map(str, span)) + "\n")


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, parent, _, _, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for sid, _, _, _, start, end in spans:
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


def self_seconds_by_name(spans: list[list]) -> dict[str, float]:
    totals: Counter = Counter()
    for span, own in zip(spans, self_times(spans)):
        totals[span[3]] += own
    return {name: ns / 1e9 for name, ns in totals.items()}


def _stirling_row(m: int) -> list[int]:
    """Stirling numbers of the second kind S(m, j) for j = 0..m."""
    row = [1] + [0] * m
    for n in range(1, m + 1):
        new = [0] * (m + 1)
        for j in range(1, n + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row


def _levels(args: dict) -> tuple[int, int]:
    m = args["t"].m
    k = args["k"]
    return m, (k if args["exact_k"] else min(k, m))


# Work counts below are computed from instance size, not measured.
def _count_bruteforce(tr: Tracer, args: dict, result) -> None:
    m, kk = _levels(args)
    s = _stirling_row(m)
    blocks = [kk] if args["exact_k"] else range(1, kk + 1)
    tr.counts["solvers.route_bruteforce"] += 1
    tr.counts["solvers.bruteforce_assignments"] += kk**m
    tr.counts["solvers.bruteforce_partitions"] += sum(math.factorial(j) * s[j] for j in blocks)


def _count_dp(tr: Tracer, args: dict, result) -> None:
    m, kk = _levels(args)
    tr.counts["solvers.dp_cells"] += kk * m * m
    if tr.parent_name() != "solvers.2op":
        tr.counts["solvers.route_acyclic_dp"] += 1


def _count_2op(tr: Tracer, args: dict, result) -> None:
    tr.counts["solvers.route_2op"] += 1


def _count_solve(tr: Tracer, args: dict, result) -> None:
    tr.counts["solvers.solve_calls"] += 1
    tr.counts["solvers.witnesses"] += len(result.witnesses)
    tr.counts["solvers.truncated"] += int(result.truncated)


def _count_cocycle(tr: Tracer, args: dict, result) -> None:
    if tr.inside("solvers.dispatch"):
        tr.counts["decomposition.cocycle_calls_in_solve"] += 1


def _count_cut(tr: Tracer, args: dict, result) -> None:
    s = _stirling_row(args["g"].n)
    tr.counts["reductions.cut_partitions"] += sum(s[1 : min(args["pieces"], args["g"].n) + 1])


# (module, function, span name, counter hook)
TRACED = (
    ("cli", "main", "cli", None),
    ("formats", "read_tournament", "formats.parse", None),
    ("formats", "read_profile", "formats.parse", None),
    ("formats", "read_graph", "formats.parse", None),
    ("formats", "format_rational", "formats.format", None),
    ("formats", "format_partition", "formats.format", None),
    ("formats", "format_weak_order", "formats.format", None),
    ("profiles", "aggregate", "profiles.rules", None),
    ("profiles", "named_rule", "profiles.rules", None),
    ("profiles", "validate_ballots", "profiles.validate", None),
    ("profiles", "induce_tournament", "profiles.induce", None),
    ("tournament", "borda_score", "tournament.borda", None),
    ("decomposition", "cocycle_component", "decomposition.cocycle", _count_cocycle),
    ("decomposition", "cycle_component", "decomposition.cycle", None),
    ("solvers", "solve", "solvers.dispatch", _count_solve),
    ("solvers", "solve_2op", "solvers.2op", _count_2op),
    ("solvers", "solve_acyclic_dp", "solvers.acyclic_dp", _count_dp),
    ("solvers", "solve_bruteforce", "solvers.bruteforce", _count_bruteforce),
    ("reductions", "check_tricut_identity", "reductions.verify", None),
    ("reductions", "build_hg", "reductions.build_hg", None),
    ("reductions", "solve_cut_bruteforce", "reductions.cut_bruteforce", _count_cut),
)


def _wrap(fn, name: str, tracer: Tracer, hook):
    sig = inspect.signature(fn) if hook else None

    @wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(sid)
        if hook:
            try:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer, bound.arguments, result)
            except (TypeError, KeyError, AttributeError):
                # a changed signature must not fail the op; it shows as a count
                tracer.counts["trace.hook_errors"] += 1
        return result

    return wrapper


class Instrumentation:
    """The wrappers for one tracer, installed in every ``maxkop`` namespace that binds a traced function.

    ``missing`` lists traced functions the program no longer has.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        modules = [mod for key, mod in list(sys.modules.items()) if key.split(".")[0] == "maxkop"]
        self.patches: list[tuple[object, str, object, object]] = []
        self.missing: list[str] = []
        for mod_name, attr, name, hook in TRACED:
            original = getattr(sys.modules.get(f"maxkop.{mod_name}"), attr, None)
            if original is None:
                self.missing.append(f"maxkop.{mod_name}.{attr}")
                continue
            wrapper = _wrap(original, name, tracer, hook)
            self.patches += [(mod, attr, original, wrapper) for mod in modules
                             if getattr(mod, attr, None) is original]
        cls = sys.modules["maxkop.tournament"].WeightedTournament
        init = cls.__dict__["__post_init__"]
        self.patches.append((cls, "__post_init__", init, _wrap(init, "tournament.build", tracer, None)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)
