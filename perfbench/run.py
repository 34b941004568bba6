"""Benchmark of the maxkop CLI: seeded workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload gadget-3op --seed 1 --seconds 30 --trace 0

Set-up writes the workload's instances as text files and is repeated
``SETUP_REPS`` times; ``setup_s`` is the median of (fresh-interpreter import
of ``maxkop`` + generating + writing).  The run then calls
``maxkop.cli.main([...])`` in-process on those files in a closed loop (one
caller, no threads), repeating whole rounds of the workload's op list for
about ``--seconds``.  Every op is checked: a nonzero exit, guard exhaustion
or a wrong answer counts as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with rounds that record spans around each module's public
functions, and prints per-layer metrics (per traced round of the op list)
plus the tracing overhead.  The last stdout line is one JSON object;
details (machine facts, which counts are computed, failures) go to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One caller, one thread.  numpy's OpenBLAS otherwise starts a thread per core
# when it is imported and waits for them, so import time (part of setup_s)
# rises by half whenever another tenant keeps the other core busy.  Set before
# numpy is first imported; the import probe's interpreter inherits it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 9
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import maxkop.cli; "
    "print(time.perf_counter() - t)"
)

END_TO_END = ("ops_per_kref", "op_p50_ref", "op_p90_ref", "setup_s", "peak_rss_mib")
# Counts derived from instance size by the trace hooks, not measured.
COMPUTED = {
    "solvers.bruteforce_assignments", "solvers.bruteforce_partitions",
    "solvers.dp_cells", "reductions.cut_partitions",
}
# per-layer metric -> span name whose self time it reports
LAYER_TIMES = {
    "cli.self_s": "cli",
    "formats.parse_s": "formats.parse",
    "formats.format_s": "formats.format",
    "profiles.rules_self_s": "profiles.rules",
    "profiles.validate_s": "profiles.validate",
    "profiles.induce_s": "profiles.induce",
    "tournament.build_s": "tournament.build",
    "tournament.borda_s": "tournament.borda",
    "decomposition.cocycle_s": "decomposition.cocycle",
    "decomposition.cycle_s": "decomposition.cycle",
    "solvers.dispatch_self_s": "solvers.dispatch",
    "solvers.2op_self_s": "solvers.2op",
    "solvers.acyclic_dp_s": "solvers.acyclic_dp",
    "solvers.bruteforce_s": "solvers.bruteforce",
    "reductions.verify_self_s": "reductions.verify",
    "reductions.build_hg_s": "reductions.build_hg",
    "reductions.cut_bruteforce_s": "reductions.cut_bruteforce",
}
LAYER_COUNTS = (
    "solvers.route_bruteforce", "solvers.route_acyclic_dp", "solvers.route_2op",
    "solvers.bruteforce_assignments", "solvers.bruteforce_partitions", "solvers.dp_cells",
    "solvers.witnesses", "solvers.truncated", "reductions.cut_partitions",
)


def import_seconds() -> float:
    """Time `import maxkop.cli` in a fresh interpreter, as a user's first call pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"importing maxkop failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.strip())


class Runner:
    """Runs ops through the CLI entry point, times them and checks every answer."""

    def __init__(self, ops: list[workloads.Op], cli_module):
        self.ops = ops
        self.cli = cli_module
        self.attempted = 0
        self.failures: list[str] = []
        self._verified: dict[int, set[bytes]] = {}

    def run_op(self, i: int) -> tuple[float, float]:
        """Run op i once: its wall time and the reference kernel's time around it."""
        op = self.ops[i]
        out, err = io.StringIO(), io.StringIO()
        rc = None
        # every op starts from the same collector state, so a collection
        # owed to earlier ops never lands in this one
        gc.collect()
        ref_before = reference.reference_seconds()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(op.argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a crash is a failed op, reported below
                traceback.print_exc(file=err)
            elapsed = time.perf_counter() - t0
        ref = (ref_before + reference.reference_seconds()) / 2
        self.attempted += 1
        text = out.getvalue()
        reason = None
        if rc != 0:
            reason = f"exit {rc}: {err.getvalue().strip()[-200:]}"
        else:
            digest = hashlib.sha1(text.encode()).digest()
            seen = self._verified.setdefault(i, set())
            if digest not in seen:
                reason = op.check(text)
                if reason is None:
                    seen.add(digest)
        if reason is not None:
            self.failures.append(f"{op.kind}: {reason}")
        return elapsed, ref

    def run_rounds(self, seconds: float, tracing: spans.Instrumentation | None = None):
        """Whole rounds until about `seconds` have passed; each round's run_op samples.

        With `tracing`, odd rounds run traced and even rounds untraced, so
        both see the same machine conditions.
        """
        rounds: list[list[tuple[float, float]]] = []
        start = time.perf_counter()
        last = 0.0
        least = 1 if tracing is None else 2
        while len(rounds) < least or time.perf_counter() - start + last / 2 < seconds:
            traced = tracing is not None and len(rounds) % 2 == 1
            t0 = time.perf_counter()
            if traced:
                tracing.install()
            try:
                samples = []
                for i in range(len(self.ops)):
                    if traced:
                        tracing.tracer.op_id += 1
                    samples.append(self.run_op(i))
            finally:
                if traced:
                    tracing.remove()
            rounds.append(samples)
            last = time.perf_counter() - t0
        return rounds


def machine_facts() -> dict:
    facts = {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": None,
        "numba_importable": subprocess.run(
            [sys.executable, "-c", "import numba"], capture_output=True, timeout=120,
        ).returncode == 0,
        "git_commit": git_commit(),
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu"] = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(ImportError):
        import numpy

        facts["numpy"] = numpy.__version__
    return facts


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def per_op_medians(rounds: list[list[tuple[float, float]]]) -> list[float]:
    """Each op's median over its repeats of wall time divided by the reference time around it."""
    return [statistics.median(r[i][0] / r[i][1] for r in rounds) for i in range(len(rounds[0]))]


def ops_per_kref(rounds: list[list[tuple[float, float]]]) -> float:
    per_op = per_op_medians(rounds)
    return 1000 * len(per_op) / sum(per_op)


def latency_metrics(rounds: list[list[tuple[float, float]]]) -> dict:
    """Latency statistics over whole rounds of (seconds, reference seconds) samples.

    The *ref* metrics divide each op's wall time by the reference kernel's
    time measured around it and summarise each op by its median over its
    repeats; the rate and the percentiles are then taken across the op
    list.  A percentile over raw samples would land in the noisy tail of
    whichever op sits at that rank.  The raw wall-time figures are over all
    samples.
    """
    per_op = per_op_medians(rounds)
    raw = [t for r in rounds for t, _ in r]
    return {
        "ops_per_kref": metric(ops_per_kref(rounds), "1/kref"),
        "op_p50_ref": metric(statistics.median(per_op), "ref"),
        "op_p90_ref": metric(statistics.quantiles(per_op, n=10, method="inclusive")[8], "ref"),
        "ops_per_s": metric(len(raw) / sum(raw), "1/s"),
        "op_p50_ms": metric(statistics.median(raw) * 1e3, "ms"),
        "op_p90_ms": metric(statistics.quantiles(raw, n=10)[8] * 1e3, "ms"),
        "ref_ms": metric(statistics.median(ref for r in rounds for _, ref in r) * 1e3, "ms"),
    }


def per_layer(tracer: spans.Tracer, traced: list[list], untraced: list[list], runner: Runner) -> dict:
    """Self time and counts per traced round, plus traced versus untraced throughput."""
    rounds = len(traced)
    own = spans.self_seconds_by_name(tracer.spans)
    out = {name: metric(own.get(span, 0.0) / rounds, "s/round") for name, span in LAYER_TIMES.items()}
    counts = tracer.counts
    for name in LAYER_COUNTS:
        out[name] = metric(counts[name] / rounds, "count/round")
    out["solvers.bruteforce_ns_per_assignment"] = metric(
        own.get("solvers.bruteforce", 0.0) * 1e9 / counts["solvers.bruteforce_assignments"]
        if counts["solvers.bruteforce_assignments"] else 0.0, "ns")
    out["decomposition.cocycle_calls"] = metric(
        counts["decomposition.cocycle_calls_in_solve"] / counts["solvers.solve_calls"]
        if counts["solvers.solve_calls"] else 0.0, "count/solve")
    out["trace.op_s"] = metric(sum(t for r in traced for t, _ in r) / rounds, "s/round")
    out["trace.overhead_ratio"] = metric(ops_per_kref(untraced) / ops_per_kref(traced), "ratio")
    out["trace.hook_errors"] = metric(counts["trace.hook_errors"], "count")
    out["fail_ratio"] = metric(len(runner.failures) / runner.attempted, "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "maxkop" / "__init__.py").is_file():
        print(f"error: no maxkop sources under {SRC}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"inputs-{tag}-pid{os.getpid()}"
    try:
        setup = []
        for _ in range(SETUP_REPS):
            t_import = import_seconds()
            t0 = time.perf_counter()
            ops = workloads.build(args.workload, args.seed, workdir)
            setup.append(t_import + time.perf_counter() - t0)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        shutil.rmtree(workdir, ignore_errors=True)
        return 2

    sys.path.insert(0, str(SRC))
    import maxkop.cli

    # set-up objects are long-lived: keep them out of the collections ops pay for
    gc.collect()
    gc.freeze()
    result: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        runner = Runner(ops, maxkop.cli)
        if args.trace == 0:
            done = runner.run_rounds(args.seconds)
            latency = latency_metrics(done)
            metrics = {name: latency[name] for name in END_TO_END if name in latency}
            metrics["setup_s"] = metric(statistics.median(setup), "s")
            metrics["peak_rss_mib"] = metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
            result["raw"] = {k: v for k, v in latency.items() if k not in metrics}
            result["per_op_median_ref"] = dict(zip((op.kind for op in ops), per_op_medians(done)))
            rounds = len(done)
        else:
            tracer = spans.Tracer()
            tracing = spans.Instrumentation(tracer)
            result["untraced_functions"] = tracing.missing
            done = runner.run_rounds(args.seconds, tracing)
            metrics = per_layer(tracer, done[1::2], done[::2], runner)
            rounds = len(done[1::2])
            tracer.write(OUT / f"spans-{tag}.txt.gz")
        result["samples"] = rounds * len(ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result.update(
        rounds=rounds, ops_per_round=len(ops), setup_runs_s=setup,
        computed=sorted(COMPUTED & set(metrics)), failures=runner.failures[:50],
        machine=machine_facts(), metrics=metrics,
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds x {len(ops)} ops, "
          f"{result['samples']} timed samples, {len(runner.failures)} failed")
    for name, m in {**metrics, **result.get("raw", {})}.items():
        label = " (computed)" if name in COMPUTED else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{label}")
    for reason in runner.failures[:5]:
        print(f"  FAILED {reason}")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
