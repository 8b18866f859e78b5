"""Count the garbage collector's passes in the benchmark's translate ops.

Usage (from the repository root):

    python tests/collector_passes.py --seed 1

``perfbench/run.py`` times an op's wall time against ``host_kernel()`` run
right after it, while the op's result is still alive.  Where the first full
(generation 2) collection after the op's opening ``gc.collect()`` lands moves
translate's reference seconds: inside the kernel, it slows the kernel and the
op reads faster; inside the op, the op reads about 2.5 times slower with no
worse wall time.  A change that makes fewer or more young collections in an
op can move it across.

This script draws the translate cases of ``perfbench/run.py`` at ``--seed``
(imported, not changed), skips the run's warm-up ops, and repeats what
``Runner.one`` does for each of the next ``OPS`` ops: ``gc.collect()``,
``run_op``, ``check_op`` and then ``host_kernel()`` with the result still
alive.  A ``gc.callbacks`` hook counts the collections of each phase by
generation.  Per op it prints those counts and the number of the first full
collection, counted from the op's start.  It exits 1 when that collection is
not in the kernel.

The counts depend on the Python version (the allocator and the collector's
thresholds); they were taken on CPython 3.11.7.  pytest does not collect this
file.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import run  # noqa: E402

PHASES = ("op", "check", "kernel")
OPS = 3  # ops counted after the warm-up ones; every op of a seed makes the same passes


class Passes:
    """A ``gc.callbacks`` hook: the (phase, generation) of each collection
    started while ``phase`` is set."""

    def __init__(self) -> None:
        self.phase: str | None = None
        self.log: list[tuple[str, int]] = []

    def __call__(self, event: str, info: dict) -> None:
        if event == "start" and self.phase is not None:
            self.log.append((self.phase, info["generation"]))


def measure(mods: dict, case, passes: Passes) -> list[tuple[str, int]]:
    gc.collect()
    passes.log = []
    passes.phase = "op"
    result = run.run_op(mods, case)
    passes.phase = "check"
    reason = run.check_op(case, *result)
    passes.phase = "kernel"
    run.host_kernel()
    passes.phase = None
    if reason is not None:
        raise SystemExit(f"the op failed its known answers: {reason}")
    return passes.log


def report(n: int, log: list[tuple[str, int]]) -> bool:
    """Print one op's counts; whether its first full collection is in the kernel."""
    parts = []
    for phase in PHASES:
        gens = [g for p, g in log if p == phase]
        by_gen = ", ".join(f"gen{g} {gens.count(g)}" for g in range(3))
        parts.append(f"{phase} {len(gens)} ({by_gen})")
    full = next((i for i, (_, g) in enumerate(log, 1) if g == 2), None)
    where = "none" if full is None else f"#{full} in the {log[full - 1][0]}"
    print(f"op {n}: " + "; ".join(parts) + f"; first full collection {where}")
    return full is not None and log[full - 1][0] == "kernel"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    mods = run.load_program()
    warm_up = run.WARMUP_OPS["translate"]
    cases = (block[0] for block in run.workloads.blocks("translate", args.seed))
    passes = Passes()
    gc.callbacks.append(passes)
    ok = True
    print(f"python {sys.version.split()[0]}, thresholds {gc.get_threshold()}, seed {args.seed}")
    for n, case in enumerate(cases, 1):
        if n > warm_up + OPS:
            break
        log = measure(mods, case, passes)
        if n > warm_up:
            ok = report(n, log) and ok
    gc.callbacks.remove(passes)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
