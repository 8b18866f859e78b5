"""wright2csp benchmark: seeded Wright specs through the public library path.

Usage (from the repository root):

    python3 perfbench/run.py --workload star --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --sweep

One operation ("op") takes a generated Wright source text through
``parse_source -> analyze -> annotate -> emit`` and, on ``star`` and
``pipeline``, ``discharge_assertions``: the path ``wright2csp check`` runs.
On ``translate`` it stops at the FDR text, as ``wright2csp translate`` does.
Load is a closed loop: one caller in one single-threaded process starts the
next op only when the previous one has finished.  Every op gets a distinct
spec (see ``workloads.py``) and its labels, verdicts and shortest
counterexamples are compared with the answers known from its construction.

The machine the benchmark runs on may be a share of a host whose speed
drifts by tens of percent within seconds.  So the end-to-end timings (and
the tracing overhead) are reported in reference seconds: the wall time times
``HOST_REF_S`` over the time a fixed pure-Python kernel (``host_kernel``,
which calls nothing of the program) took right before and after it.  A
program that does the same work reads the same however fast the host runs at
that moment.  Raw wall-time medians are on the ``meta`` line; per-layer self
times of ``--trace 1`` are wall seconds.

With ``--trace 0`` the run reports the end-to-end metrics.  With ``--trace 1``
every second block of ops runs with the library's layer functions wrapped
(see ``spans.py``); the run reports per-layer metrics of the traced ops and
the tracing overhead against the untraced ones.  Every metric is printed as
``name value unit``, then one ``meta`` line (Python version, nproc, commit,
seed, op count, error rate); the last line is one JSON object.  The exit code
is 1 if any op failed, 2 if the program could not be loaded.

``--sweep`` is a self-test of the ``star`` generator: it compiles star(k),
k = 2..6, and checks the largest implementation LTS against the state counts
35 / 131 / 515 / 2051 / 8195 measured for ROADMAP.md on the seed engine.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

LAYER_MODULES = ("parser", "analyzer", "alphabets", "codegen", "engine")
WARMUP_OPS = {"star": 1, "pipeline": 10, "translate": 2}
SETUP_REPEATS = 7
SWEEP_STATES = {2: 35, 3: 131, 4: 515, 5: 2051, 6: 8195}
# Median time of host_kernel() on the reference host (2 vCPUs of a 2.1 GHz
# Xeon, Python 3.11.7).  A fixed constant: it only sets the scale of the
# reference seconds and must be the same when two commits are compared.
HOST_REF_S = 0.014


def host_kernel(dims: int = 5, size: int = 5) -> int:
    """Fixed work in the style of the program's state-space compilation:
    breadth-first search of the product of ``dims`` counters modulo ``size``,
    with tuple states numbered in a dict and a list of transitions.  It never
    touches wright2csp, so a change to the program cannot change it."""
    start = (0,) * dims
    seen = {start: 0}
    trans = []
    frontier = [start]
    while frontier:
        nxt = []
        for state in frontier:
            for j in range(dims):
                succ = list(state)
                succ[j] = (succ[j] + 1) % size
                succ = tuple(succ)
                if succ not in seen:
                    seen[succ] = len(seen)
                    nxt.append(succ)
                trans.append((seen[state], j, seen[succ]))
        frontier = nxt
    return len(trans)


def host_time() -> float:
    start = time.perf_counter()
    host_kernel()
    return time.perf_counter() - start


def to_reference(elapsed: float, before: float, after: float) -> float:
    """Wall time scaled to the reference host speed measured around it."""
    return elapsed * HOST_REF_S / math.sqrt(before * after)


def load_program() -> dict:
    if not (SRC / "wright2csp" / "__init__.py").is_file():
        raise FileNotFoundError(f"wright2csp sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    return {name: importlib.import_module(f"wright2csp.{name}") for name in LAYER_MODULES}


def measure_setup_s() -> tuple[float, float]:
    """Median time from a fresh interpreter to ``import wright2csp`` done:
    (reference seconds, wall seconds)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import wright2csp"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # fills the bytecode cache
    ref, wall = [], []
    after = host_time()
    for _ in range(SETUP_REPEATS):
        before = after
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        wall.append(time.perf_counter() - start)
        after = host_time()
        ref.append(to_reference(wall[-1], before, after))
    return statistics.median(ref), statistics.median(wall)


def run_op(mods: dict, case: workloads.Case):
    """The timed part of one op; every call goes through a module attribute.

    Returns (parse warnings, diagnostics, plan, results); plan and results
    are None when a diagnostic is an error, as ``wright2csp check`` stops there.
    """
    spec, warnings = mods["parser"].parse_source(case.source)
    diags = mods["analyzer"].analyze(spec)
    diags += mods["alphabets"].annotate(spec)
    if any(d.severity == "error" for d in diags):
        return warnings, diags, None, None
    plan = mods["codegen"].emit(spec)
    results = None
    if case.verdicts is not None:
        results = mods["engine"].discharge_assertions(plan.assertions, plan.definitions)
    return warnings, diags, plan, results


def check_op(case: workloads.Case, warnings, diags, plan, results) -> str | None:
    """Why the op's output differs from the known answer, or None if it does not."""
    if warnings:
        return f"parse warnings: {warnings}"
    errors = [str(d) for d in diags if d.severity == "error"]
    if errors or plan is None:
        return f"error diagnostics: {errors[:3]}"
    labels = [a.label for a in plan.assertions]
    if labels != case.labels:
        return "assertion labels differ from the known answer"
    if [ln for ln in plan.text.splitlines() if ln.startswith("assert ")] != case.labels:
        return "assert lines of the FDR text differ from the known answer"
    if case.verdicts is None:
        return None
    got = [r[0] for r in results]
    if got != case.labels:
        return "verdict labels differ from the assertion labels"
    for (label, verdict, *_), (holds, cex) in zip(results, case.verdicts):
        answer = (verdict.holds, None if verdict.holds else verdict.counterexample)
        if answer != (holds, cex):
            return f"{label}: got {answer}, expected {(holds, cex)}"
    return None


class Runner:
    def __init__(self, mods: dict, workload: str, seed: int) -> None:
        self.mods = mods
        self.stream = workloads.blocks(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.gen_s = 0.0
        self.generated = 0
        self.fail_reasons: list[str] = []
        self.host_s: float | None = None  # last host_time(), taken after the previous op
        self.wall: list[float] = []

    def _cases(self):
        while True:
            start = time.perf_counter()
            block = next(self.stream)
            self.gen_s += time.perf_counter() - start
            self.generated += len(block)
            yield block

    def one(self, case: workloads.Case, tracer: Tracer | None = None) -> tuple[float, int]:
        """Run and check one op: (time in reference seconds, bytes of FDR text)."""
        gc.collect()
        before = self.host_s if self.host_s is not None else host_time()
        if tracer is not None:
            tracer.begin_op()
        self.attempted += 1
        size = 0
        start = time.perf_counter()
        try:
            warnings, diags, plan, results = run_op(self.mods, case)
        except Exception as exc:  # a raising op is a failed op; the run goes on
            elapsed = time.perf_counter() - start
            reason = f"{type(exc).__name__}: {exc}"
        else:
            elapsed = time.perf_counter() - start
            reason = check_op(case, warnings, diags, plan, results)
            if plan is not None:
                size = len(plan.text.encode("utf-8"))
        self.host_s = host_time()
        self.wall.append(elapsed)
        if reason is not None:
            self.failed += 1
            self.fail_reasons.append(reason)
        return to_reference(elapsed, before, self.host_s), size

    def warm_up(self, n: int) -> None:
        cases = (case for block in self._cases() for case in block)
        for case in itertools.islice(cases, n):
            self.one(case)

    def timed(self, seconds: float, tracer: Tracer | None = None) -> tuple[list, list]:
        """Run whole blocks until ``seconds`` have passed: (untraced, traced) blocks.

        A block is a list of (time, bytes) per op.  With a tracer every second
        block runs traced, so both kinds sample the same stretch of a machine
        whose speed drifts, and their difference is the tracing overhead.
        """
        plain: list = []
        traced: list = []
        deadline = time.perf_counter() + seconds
        for i, block in enumerate(self._cases()):
            if tracer is not None and i % 2:
                tracer.install()
                try:
                    traced.append([self.one(case, tracer) for case in block])
                finally:
                    tracer.uninstall()
            else:
                plain.append([self.one(case) for case in block])
            if time.perf_counter() >= deadline and (tracer is None or traced):
                return plain, traced


def op_times(blocks: list[list[tuple[float, int]]]) -> list[float]:
    return [t for block in blocks for t, _ in block]


def block_means(blocks: list[list[tuple[float, int]]]) -> list[float]:
    """Mean op time of each block: the samples of spec_p50_s and spec_tail_s.

    A block holds one passing and one failing spec (one spec on
    ``translate``), so its mean weighs both halves of a workload equally
    however far apart their costs are; an order statistic of single ops of a
    two-humped sample would sit between the humps and swing with the
    extremes of each.
    """
    return [statistics.fmean(t for t, _ in block) for block in blocks]


def block_p50(blocks: list[list[tuple[float, int]]]) -> float:
    return statistics.median(block_means(blocks))


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it, but not below
    the median: (value, level %, samples beyond).

    A run of fewer than 21 samples has no tail with ten samples beyond it; it
    reports its (lower) median instead of an extreme that would swing with a
    single sample.
    """
    ordered = sorted(times)
    n = len(ordered)
    rank = max(n - 11, (n - 1) // 2)
    return ordered[rank], 100.0 * (rank + 1) / n, n - 1 - rank


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown"


def sweep(mods: dict) -> int:
    """star(k) self-test: largest implementation LTS per k, with compile time."""
    bad = 0
    for k, expected in SWEEP_STATES.items():
        tracer = Tracer(mods)
        tracer.install()
        try:
            case = workloads.star_case(k, "sweep0")
            tracer.begin_op()
            out = run_op(mods, case)
        finally:
            tracer.uninstall()
        reason = check_op(case, *out)
        layers = tracer.per_layer()
        states = int(layers["engine.compile.max_states"][0])
        ok = states == expected and reason is None
        bad += not ok
        print(
            f"star({k}) max_states {states} expected {expected} "
            f"compile_s {layers['engine.compile_s'][0]:.4f} "
            f"refine_s {layers['engine.refine_s'][0]:.4f} "
            f"normalize_s {layers['engine.normalize_s'][0]:.4f} "
            f"{'ok' if ok else 'MISMATCH ' + str(reason)}"
        )
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sweep", action="store_true", help="run the star(k) self-test and exit")
    args = ap.parse_args(argv)
    if not args.sweep and args.workload is None:
        ap.error("--workload is required")

    try:
        mods = load_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.sweep:
        return sweep(mods)

    setup_s, setup_wall_s = measure_setup_s() if args.trace == 0 else (None, None)
    runner = Runner(mods, args.workload, args.seed)
    runner.warm_up(WARMUP_OPS[args.workload])
    runner.wall.clear()

    if args.trace == 0:
        blocks, _ = runner.timed(args.seconds)
        times = op_times(blocks)
        tail_s, tail_level, beyond = tail(block_means(blocks))
        metrics = {
            "spec_p50_s": (block_p50(blocks), "s"),
            "spec_tail_s": (tail_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "fdr_bytes": (statistics.fmean(size for block in blocks for _, size in block), "bytes"),
            "setup_s": (setup_s, "s"),
        }
        extra = {
            "spec_tail_level_pct": round(tail_level, 1),
            "spec_tail_beyond": beyond,
            "spec_tail_samples": len(blocks),
            "setup_wall_s": round(setup_wall_s, 6),
        }
    else:
        tracer = Tracer(mods)
        untraced, traced = runner.timed(args.seconds, tracer)
        metrics = tracer.per_layer()
        metrics["trace.overhead_s"] = (block_p50(traced) - block_p50(untraced), "s")
        metrics["harness.gen_s"] = (runner.gen_s / runner.generated, "s")
        times = op_times(untraced) + op_times(traced)
        extra = {
            "untraced_ops": len(op_times(untraced)),
            "traced_ops": len(op_times(traced)),
            "untraced_p50_s": round(block_p50(untraced), 6),
            "traced_p50_s": round(block_p50(traced), 6),
            "spans": len(tracer.spans),
        }

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops_timed": len(times),
        "error_rate": runner.failed / runner.attempted,
        "gen_s_per_op": round(runner.gen_s / runner.generated, 6),
        "wall_op_p50_s": round(statistics.median(runner.wall), 6),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit_id(),
        **extra,
    }
    if args.trace == 1:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(str(OUT_DIR / f"spans-{args.workload}.jsonl.gz"), meta)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for reason in runner.fail_reasons[:5]:
        print(f"failed op: {reason}")
    print("meta " + json.dumps(meta))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
