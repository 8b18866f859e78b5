"""Byte-for-byte pins of what ``translate`` writes and ``check`` prints.

``golden/emitted/<fixture>.fdr2`` is the ``translate`` output of every fixture
the front end accepts, and ``golden/emitted/check.txt`` holds the ``check``
standard output and exit code of every fixture.  ``golden/emitted/pipeline3*``
pin the same two outputs for the benchmark's pipeline(3), passing and
failing, where each (port type, role type) pair is attached several times.
``golden/positions.txt`` pins the source positions that reach only standard
error: the ``lint`` output of every fixture, and the ``ParseError`` of every
fixture cut after each token.  ``golden/mutants.txt`` pins the ``lint``
output and exit code of the token mutants the CLI fuzz runs
(``oracles.token_mutants(300, 9)``): parse errors and static-rule findings
on malformed input.  After a change that is meant to alter the output,
regenerate them all with ``PYTHONPATH=src python
tests/test_golden_output.py`` and review the diff.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from conftest import perfbench_workloads
from oracles import token_mutants, token_spans
from wright2csp.cli import main
from wright2csp.parser import ParseError, parse_source

FIXTURES = Path(__file__).parent / "fixtures"
EMITTED = Path(__file__).parent / "golden" / "emitted"
POSITIONS = Path(__file__).parent / "golden" / "positions.txt"
MUTANTS = Path(__file__).parent / "golden" / "mutants.txt"
CLEAN = [
    "calculformule",
    "deadconn",
    "double",
    "dt1",
    "dt2",
    "dt3",
    "dt4",
    "pipeconn",
    "rule6",
]
# Golden name -> whether pipeline(3) is the failing variant.
PIPELINES = {"pipeline3": False, "pipeline3_fail": True}


def _quiet(argv):
    """Run the CLI; returns (exit code, standard output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def check_transcript(paths=None) -> str:
    parts = []
    for path in sorted(FIXTURES.glob("*.wrt")) if paths is None else paths:
        code, stdout = _quiet(["check", str(path)])
        parts.append(f"== {path.name} exit {code}\n{stdout}")
    return "".join(parts)


def write_pipelines(directory: Path) -> list[Path]:
    """The pipeline(3) sources of ``PIPELINES`` as ``<name>.wrt`` in ``directory``."""
    workloads = perfbench_workloads()
    paths = []
    for name, fail in PIPELINES.items():
        path = directory / f"{name}.wrt"
        path.write_text(workloads.pipeline_case(3, "t", fail).source)
        paths.append(path)
    return paths


def _lint(path: Path) -> tuple[int, str]:
    """Run ``lint``; returns (exit code, standard error with the path as its file name)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["lint", str(path)])
    return code, err.getvalue().replace(str(path), path.name)


def position_transcript() -> str:
    parts = []
    for path in sorted(FIXTURES.glob("*.wrt")):
        code, err = _lint(path)
        parts.append(f"== {path.name} lint exit {code}\n{err}")
    for path in sorted(FIXTURES.glob("*.wrt")):
        source = path.read_text()
        parts.append(f"== {path.name} cut after each token\n")
        for _, end in token_spans(source):
            try:
                parse_source(source[:end])
                outcome = "ok"
            except ParseError as exc:
                outcome = str(exc)
            parts.append(f"{end} {outcome}\n")
    return "".join(parts)


def mutant_transcript() -> str:
    parts = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.wrt"
        for k, source in enumerate(token_mutants(300, 9)):
            path.write_text(source)
            code, err = _lint(path)
            parts.append(f"== mutant {k} lint exit {code}\n{err}")
    return "".join(parts)


def test_translate_output_is_byte_identical_to_golden(tmp_path):
    for name in CLEAN:
        out = tmp_path / f"{name}.fdr2"
        assert _quiet(["translate", str(FIXTURES / f"{name}.wrt"), str(out)])[0] == 0, name
        assert out.read_bytes() == (EMITTED / f"{name}.fdr2").read_bytes(), name


def test_repeated_pairs_translate_and_check_byte_identical_to_golden(tmp_path):
    paths = write_pipelines(tmp_path)
    for path in paths:
        out = tmp_path / f"{path.stem}.fdr2"
        assert _quiet(["translate", str(path), str(out)])[0] == 0, path.stem
        assert out.read_bytes() == (EMITTED / out.name).read_bytes(), path.stem
    assert check_transcript(paths) == (EMITTED / "pipeline3_check.txt").read_text()


def test_check_output_is_byte_identical_to_golden():
    assert check_transcript() == (EMITTED / "check.txt").read_text()


def test_diagnostic_positions_are_identical_to_golden():
    assert position_transcript() == POSITIONS.read_text()


def test_mutant_lint_output_is_identical_to_golden():
    assert mutant_transcript() == MUTANTS.read_text()


if __name__ == "__main__":
    EMITTED.mkdir(parents=True, exist_ok=True)
    for name in CLEAN:
        if _quiet(["translate", str(FIXTURES / f"{name}.wrt"), str(EMITTED / f"{name}.fdr2")])[0]:
            sys.exit(f"{name}.wrt does not translate")
    (EMITTED / "check.txt").write_text(check_transcript())
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_pipelines(Path(tmp))
        for path in paths:
            if _quiet(["translate", str(path), str(EMITTED / f"{path.stem}.fdr2")])[0]:
                sys.exit(f"{path.name} does not translate")
        (EMITTED / "pipeline3_check.txt").write_text(check_transcript(paths))
    POSITIONS.write_text(position_transcript())
    MUTANTS.write_text(mutant_transcript())
