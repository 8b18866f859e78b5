import os

import pytest

from conftest import fixture_path, golden_matches
from wright2csp.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_translate_writes_expected_file(tmp_path, capsys):
    out = tmp_path / "dt1.fdr2"
    code, _, err = run(capsys, "translate", str(fixture_path("dt1.wrt")), str(out))
    assert code == 0
    assert "Parsing complete." in err
    assert "wr2fdr done." in err
    assert golden_matches("dt1.txt", out.read_text())


def test_positional_compatibility_mode(tmp_path, capsys):
    out = tmp_path / "out.fdr2"
    code, _, _ = run(capsys, str(fixture_path("dt1.wrt")), str(out))
    assert code == 0
    assert out.exists()


def test_translate_missing_input(tmp_path, capsys):
    code, _, err = run(capsys, "translate", str(tmp_path / "nope.wrt"), str(tmp_path / "o.fdr2"))
    assert code == 1
    assert "can't open file for input" in err


def test_translate_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.wrt"
    bad.write_text("Style ?!")
    code, _, err = run(capsys, "translate", str(bad), str(tmp_path / "o.fdr2"))
    assert code == 1
    assert "a problem occurred in the parsing stage." in err
    assert not (tmp_path / "o.fdr2").exists()  # nothing half-written


def test_failed_run_leaves_no_partial_output(tmp_path, capsys):
    out = tmp_path / "dt5.fdr2"
    code, _, _ = run(capsys, "translate", str(fixture_path("dt5.wrt")), str(out))
    assert code == 1
    assert not out.exists()
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


def test_lint_dt5_reports_rule5(capsys):
    code, _, err = run(capsys, "lint", str(fixture_path("dt5.wrt")))
    assert code == 1
    assert "Attachement: Composant.Port as Connecteur.Role" in err


def test_lint_dt4_accepts(capsys):
    code, _, err = run(capsys, "lint", str(fixture_path("dt4.wrt")))
    assert code == 0


def test_lint_strict_attachments_elevates_rule6(tmp_path, capsys):
    code, _, _ = run(capsys, "lint", str(fixture_path("rule6.wrt")))
    assert code == 0
    code, _, err = run(capsys, "lint", "--strict-attachments", str(fixture_path("rule6.wrt")))
    assert code == 1
    assert "rule=6" in err


def test_check_dt3_all_pass(tmp_path, capsys):
    out = tmp_path / "dt3.fdr2"
    code, stdout, _ = run(capsys, "check", str(fixture_path("dt3.wrt")), "-o", str(out))
    assert code == 0
    lines = [l for l in stdout.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 7
    assert all(l.startswith("PASS") for l in lines)
    assert out.exists()


def test_check_reports_failures_with_counterexample(capsys):
    code, stdout, _ = run(capsys, "check", str(fixture_path("deadconn.wrt")))
    assert code == 1
    fails = [l for l in stdout.splitlines() if l.startswith("FAIL")]
    assert len(fails) == 1
    assert "assert DFA [FD= DeadA" in fails[0]
    assert "failure after trace <" in fails[0]


def test_check_max_states_forwarded(capsys):
    code, _, err = run(
        capsys, "check", str(fixture_path("dt3.wrt")), "--max-states", "3"
    )
    assert code == 1
    assert "cap" in err


def test_check_state_cap_leaves_other_verdicts(capsys):
    code, stdout, err = run(
        capsys, "check", str(fixture_path("dt3.wrt")), "--max-states", "20"
    )
    assert code == 1
    lines = [l for l in stdout.splitlines() if l.startswith(("PASS", "FAIL", "UNKNOWN"))]
    assert len(lines) == 7
    assert lines[4] == "UNKNOWN  assert DFA [FD= CtypeA  (state cap 20 exceeded)"
    assert all(l.startswith("PASS") for i, l in enumerate(lines) if i != 4)
    assert "assert DFA [FD= CtypeA: state cap 20 exceeded" in err
