import importlib.util
import re
import sys
from pathlib import Path

import pytest

from wright2csp import alphabets, analyzer, codegen
from wright2csp.parser import parse_source

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def load_spec(name: str):
    """Parse a fixture and run the full front end (must be clean)."""
    spec, warnings = parse_source(fixture_path(name).read_text())
    assert not warnings, warnings
    diags = analyzer.analyze(spec)
    diags.extend(alphabets.annotate(spec))
    assert not analyzer.has_errors(diags), [str(d) for d in diags]
    return spec


def emit_plan(name: str):
    return codegen.emit(load_spec(name))


def perfbench_workloads():
    """The benchmark's seeded spec generators (``perfbench/workloads.py``)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# --- golden comparison -------------------------------------------------------
#
# Figure text and emitted text are compared line by line after normalizing:
# whitespace is dropped entirely, set braces ({...} and {|...|}) compare as
# sets, and bare channel declarations compare their name list as a set.

_PROD_RE = re.compile(r"\{\|([^{}]*)\|\}")
_SET_RE = re.compile(r"\{([^{}|][^{}]*)?\}")


def _canon_sets(s: str) -> str:
    while True:
        m = _PROD_RE.search(s)
        marker = "P"
        if m is None:
            m = _SET_RE.search(s)
            marker = "S"
        if m is None:
            return s
        inner = m.group(1) or ""
        parts = sorted(p for p in inner.split(",") if p)
        s = s[: m.start()] + f"\x00{marker}:" + ",".join(parts) + "\x01" + s[m.end() :]


def normalize_line(line: str) -> str:
    s = re.sub(r"\s+", "", line)
    if s.startswith("channel") and ":" not in s:
        names = sorted(p for p in s[len("channel"):].split(",") if p)
        s = "channel" + ",".join(names)
    return _canon_sets(s)


def normalized_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        n = normalize_line(raw)
        if n:
            out.append(n)
    return out


def assert_matches_golden(golden_name: str, emitted: str) -> None:
    """Every golden line must appear in the emitted text, in order."""
    want = normalized_lines((GOLDEN / golden_name).read_text())
    have = normalized_lines(emitted)
    i = 0
    for line in want:
        while i < len(have) and have[i] != line:
            i += 1
        if i == len(have):
            pytest.fail(f"golden line not found (in order) in output: {line!r}")
        i += 1


def golden_matches(golden_name: str, emitted: str) -> bool:
    want = normalized_lines((GOLDEN / golden_name).read_text())
    have = normalized_lines(emitted)
    i = 0
    for line in want:
        while i < len(have) and have[i] != line:
            i += 1
        if i == len(have):
            return False
        i += 1
    return True
