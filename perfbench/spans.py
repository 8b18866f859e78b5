"""Layer spans recorded by wrapping wright2csp's public functions.

``Tracer.install`` replaces each function in ``WRAPPED`` by a timing wrapper
at the module attribute its callers look up at call time (codegen imports
``determinized`` and ``restrict_to_observed`` by name, so those are wrapped
in ``codegen``).  Nothing under ``src/`` is edited.  Each span records its
name, start, end, parent span and operation id; spans stay in memory until
``write`` is called at the end of the run.

Counters are read from what each function returns, at the same boundary as
its span.  The compile and normalize ``unique_ratio`` counters fingerprint
the returned LTS or normalized model, not the input term: terms that differ
only in per-instance names compile to the same machine.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from typing import Any, Callable

# (module, attribute, span name)
WRAPPED = [
    ("parser", "tokenize", "parser.tokenize"),
    ("parser", "parse_source", "parser.parse"),
    ("analyzer", "analyze", "analyzer.analyze"),
    ("alphabets", "annotate", "alphabets.annotate"),
    ("codegen", "determinized", "transform.determinized"),
    ("codegen", "restrict_to_observed", "transform.restrict"),
    ("codegen", "emit", "codegen.emit"),
    ("engine", "discharge_assertions", "engine.discharge"),
    ("engine", "check_assertion", "engine.check_assertion"),
    ("engine", "compile_to_lts", "engine.compile"),
    ("engine", "normalize_fd", "engine.normalize"),
    ("engine", "check_refinement_fd", "engine.refine"),
]


def lts_fingerprint(lts: Any) -> Any:
    return (lts.n_states, lts.initial, tuple(lts.transitions))


def fd_fingerprint(fd: Any) -> Any:
    return (
        fd.initial,
        tuple(fd.divergent),
        tuple(tuple(sorted(tuple(sorted(a)) for a in accs)) for accs in fd.acceptances),
        tuple(sorted(fd.transitions.items())),
    )


class OpCounters:
    """Counts gathered during one operation."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.count: dict[str, int] = defaultdict(int)
        self.lts_prints: set = set()
        self.fd_prints: set = set()


class Tracer:
    def __init__(self, modules: dict[str, Any]) -> None:
        self.modules = modules
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.ops: list[OpCounters] = []
        self.max_states = 0
        self._stack: list[list] = []  # [span index, child time]
        self._originals: list[tuple[Any, str, Callable]] = []
        self._op_id = -1

    # -- wrappers ---------------------------------------------------------

    def install(self) -> None:
        for mod_name, attr, span in WRAPPED:
            mod = self.modules[mod_name]
            original = getattr(mod, attr)
            self._originals.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, span))

    def uninstall(self) -> None:
        while self._originals:
            mod, attr, original = self._originals.pop()
            setattr(mod, attr, original)

    def _wrap(self, fn: Callable, name: str) -> Callable:
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)  # type: ignore[arg-type]
            frame = [index, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans[index] = (name, start, end, parent, self._op_id)
                op = self.ops[-1]
                op.self_s[name] += duration - frame[1]
                op.calls[name] += 1
            # Fingerprinting is tracer work: keep it out of the parent's self time.
            counted = time.perf_counter()
            self._count(name, args, result)
            if self._stack:
                self._stack[-1][1] += time.perf_counter() - counted
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _count(self, name: str, args: tuple, result: Any) -> None:
        op = self.ops[-1]
        if name == "parser.tokenize":
            op.count["tokens"] += len(result)
        elif name == "analyzer.analyze":
            op.count["diagnostics"] += len(result)
        elif name == "codegen.emit":
            op.count["assertions"] += len(result.assertions)
            op.count["definitions"] += len(result.definitions)
        elif name == "engine.compile":
            op.count["states"] += result.n_states
            op.count["transitions"] += len(result.transitions)
            self.max_states = max(self.max_states, result.n_states)
            op.lts_prints.add(lts_fingerprint(result))
        elif name == "engine.normalize":
            op.count["nodes"] += result.node_count
            op.fd_prints.add(fd_fingerprint(result))
        elif name == "engine.refine":
            op.count["pairs"] += result.explored
            op.count["impl_states"] += args[1].n_states

    # -- operations -------------------------------------------------------

    def begin_op(self) -> None:
        self._op_id += 1
        self.ops.append(OpCounters())

    # -- results ----------------------------------------------------------

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Per-operation means of self times and counts, keyed by metric name."""
        n = len(self.ops) or 1

        def self_s(*names: str) -> float:
            return sum(op.self_s[nm] for op in self.ops for nm in names) / n

        def calls(*names: str) -> float:
            return sum(op.calls[nm] for op in self.ops for nm in names) / n

        def count(key: str) -> float:
            return sum(op.count[key] for op in self.ops) / n

        def unique_ratio(attr: str, span: str) -> float:
            """Distinct results within each op, summed, over calls summed."""
            total = sum(op.calls[span] for op in self.ops)
            return sum(len(getattr(op, attr)) for op in self.ops) / total if total else 0.0

        tokenize_s = self_s("parser.tokenize")
        pairs, impl_states = count("pairs"), count("impl_states")
        return {
            "parser.tokenize_s": (tokenize_s, "s"),
            "parser.parse_s": (self_s("parser.parse"), "s"),
            "parser.tokens": (count("tokens"), "count"),
            "parser.tokens_per_s": (count("tokens") / tokenize_s if tokenize_s else 0.0, "1/s"),
            "analyzer.analyze_s": (self_s("analyzer.analyze"), "s"),
            "analyzer.diagnostics": (count("diagnostics"), "count"),
            "alphabets.annotate_s": (self_s("alphabets.annotate"), "s"),
            "transform.determinized_s": (self_s("transform.determinized"), "s"),
            "transform.restrict_s": (self_s("transform.restrict"), "s"),
            "transform.calls": (calls("transform.determinized", "transform.restrict"), "count"),
            "codegen.emit_s": (self_s("codegen.emit"), "s"),
            "codegen.assertions": (count("assertions"), "count"),
            "codegen.definitions": (count("definitions"), "count"),
            "engine.compile_s": (self_s("engine.compile"), "s"),
            "engine.compile.calls": (calls("engine.compile"), "count"),
            "engine.compile.states": (count("states"), "count"),
            "engine.compile.transitions": (count("transitions"), "count"),
            "engine.compile.max_states": (float(self.max_states), "count"),
            "engine.compile.unique_ratio": (unique_ratio("lts_prints", "engine.compile"), "ratio"),
            "engine.normalize_s": (self_s("engine.normalize"), "s"),
            "engine.normalize.calls": (calls("engine.normalize"), "count"),
            "engine.normalize.nodes": (count("nodes"), "count"),
            "engine.normalize.unique_ratio": (
                unique_ratio("fd_prints", "engine.normalize"),
                "ratio",
            ),
            "engine.refine_s": (self_s("engine.refine"), "s"),
            "engine.refine.pairs": (pairs, "count"),
            "engine.refine.useful_ratio": (pairs / impl_states if impl_states else 0.0, "ratio"),
            "engine.discharge_s": (self_s("engine.discharge", "engine.check_assertion"), "s"),
        }

    def write(self, path: str, meta: dict) -> None:
        """Write the run's metadata, then every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7), parent, op]) + "\n")
