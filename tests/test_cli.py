import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import GOLDEN, fixture_path, golden_matches, perfbench_workloads
from oracles import flat_choice_spec, token_mutants, wide_component_spec
from wright2csp import alphabets, analyzer, codegen
from wright2csp.cli import main
from wright2csp.parser import MAX_NESTING, ParseError, parse_source


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


def test_no_arguments_print_the_usage_line(capsys):
    assert run(capsys) == (2, "", "usage: wright2csp <infile> <fdrfile>\n")


def test_translate_missing_input(tmp_path, capsys):
    code, _, err = run(capsys, "translate", str(tmp_path / "nope.wrt"), str(tmp_path / "o.fdr2"))
    assert code == 2
    assert "can't open file for input" in err


@pytest.mark.parametrize("command", ["lint", "check", "translate"])
def test_input_that_is_not_utf8_is_an_input_error(tmp_path, capsys, command):
    path, out = tmp_path / "latin1.wrt", tmp_path / "o.fdr2"
    path.write_bytes(b"Style S\n// \xff\nConstraints\nEnd Style\n")
    code, stdout, err = run(capsys, command, str(path), *([str(out)] if command == "translate" else []))
    assert code == 2
    assert err == f"can't read file for input: {path}. (byte 0xff at offset 11 is not UTF-8)\n"
    assert "Traceback" not in err and not stdout
    assert not out.exists()


def test_internal_port_events_warn_after_the_scoped_event_warnings(tmp_path, capsys):
    spec = tmp_path / "internal.wrt"
    spec.write_text(
        "Style S\nComponent C\n  Port P = a -> P |~| b -> P |~| TICK\n"
        "  Computation = P.a -> Q.z -> Computation |~| TICK\nConstraints\nEnd Style\n"
    )
    code, stdout, err = run(capsys, "lint", str(spec))
    assert code == 0 and not stdout
    assert err.splitlines() == [
        "Parsing complete.",
        f"{spec}:4:3: warning: event 'Q.z' in component C names no declared interface point; "
        "removed from the alphabet",
        f"{spec}:2:1: warning: Ports really shouldn't have internal events. Consider this carefully.",
    ]


def test_translate_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.wrt"
    bad.write_text("Style ?!")
    code, _, err = run(capsys, "translate", str(bad), str(tmp_path / "o.fdr2"))
    assert code == 2
    assert "a problem occurred in the parsing stage." in err
    assert not (tmp_path / "o.fdr2").exists()  # nothing half-written


def test_failed_run_leaves_no_partial_output(tmp_path, capsys):
    out = tmp_path / "dt5.fdr2"
    code, _, _ = run(capsys, "translate", str(fixture_path("dt5.wrt")), str(out))
    assert code == 2
    assert not out.exists()
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


@pytest.mark.parametrize("command", ["translate", "check"])
def test_unwritable_output_is_an_input_error(tmp_path, capsys, command):
    out = str(tmp_path / "missing" / "dt1.fdr2")
    argv = [command, str(fixture_path("dt1.wrt"))] + (["-o", out] if command == "check" else [out])
    code, stdout, err = run(capsys, *argv)
    assert code == 2
    assert f"can't write output file: {out}. (No such file or directory)" in err
    assert "Traceback" not in err and not stdout


DT1_FDR2 = GOLDEN / "emitted" / "dt1.fdr2"


@pytest.mark.parametrize("command", ["translate", "check"])
def test_an_output_symlink_is_written_through(tmp_path, capsys, command):
    target, link = tmp_path / "real.fdr2", tmp_path / "link.fdr2"
    target.write_text("old\n")
    link.symlink_to(target.name)
    argv = [command, str(fixture_path("dt1.wrt"))] + (["-o", str(link)] if command == "check" else [str(link)])
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_text() == DT1_FDR2.read_text()


def test_an_output_path_naming_stdout_appends_before_the_verdicts(tmp_path):
    # standard output is a regular file opened for appending; /proc/self/fd/1
    # names that same file, so the text must go through standard output
    # rather than replace the file
    log = tmp_path / "log"
    log.write_text("earlier line\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    with open(log, "ab") as out:
        proc = subprocess.run(
            [sys.executable, "-m", "wright2csp.cli", "check", str(fixture_path("dt1.wrt")), "-o", "/proc/self/fd/1"],
            stdout=out, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    assert proc.returncode == 0, proc.stderr
    head = "earlier line\n" + DT1_FDR2.read_text()
    content = log.read_text()
    assert content.startswith(head)
    verdicts = content[len(head):].splitlines()
    assert verdicts and all(v.startswith("PASS  ") for v in verdicts)


def test_an_output_fifo_gets_the_text_and_stays_a_fifo(tmp_path, capsys):
    fifo = tmp_path / "out.fdr2"
    os.mkfifo(fifo)
    # a reader is open before translate runs, so opening the FIFO for
    # writing does not block, and a translate that replaces it cannot hang
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        code, _, err = run(capsys, "translate", str(fixture_path("dt1.wrt")), str(fifo))
        chunks = []
        while chunk := os.read(reader, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(reader)
    assert code == 0, err
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert b"".join(chunks).decode("utf-8") == DT1_FDR2.read_text()


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


def test_a_new_output_file_gets_its_mode_from_the_umask(tmp_path, capsys, umask_022):
    out = tmp_path / "dt1.fdr2"
    code, _, _ = run(capsys, "translate", str(fixture_path("dt1.wrt")), str(out))
    assert code == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o644


def test_a_replaced_output_file_keeps_its_mode(tmp_path, capsys, umask_022):
    out = tmp_path / "dt1.fdr2"
    out.write_text("old\n")
    out.chmod(0o640)
    code, _, _ = run(capsys, "translate", str(fixture_path("dt1.wrt")), str(out))
    assert code == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert out.read_text() == DT1_FDR2.read_text()


@pytest.mark.parametrize("command", ["lint", "check"])
@pytest.mark.parametrize("name", ["dt3.wrt", "dt5.wrt"])
def test_a_leading_byte_order_mark_is_skipped(tmp_path, capsys, command, name):
    source = fixture_path(name).read_bytes()
    plain, marked = tmp_path / "plain" / name, tmp_path / "marked" / name
    for path, data in ((plain, source), (marked, b"\xef\xbb\xbf" + source)):
        path.parent.mkdir()
        path.write_bytes(data)
    expected = run(capsys, command, str(plain))
    code, out, err = run(capsys, command, str(marked))
    assert (code, out, err.replace(str(marked), str(plain))) == expected
    assert "Parsing complete." in err


def test_lint_dt5_reports_rule5(capsys):
    code, _, err = run(capsys, "lint", str(fixture_path("dt5.wrt")))
    assert code == 2
    assert "Attachement: Composant.Port as Connecteur.Role" in err


def test_lint_dt4_accepts(capsys):
    code, _, err = run(capsys, "lint", str(fixture_path("dt4.wrt")))
    assert code == 0


def test_lint_strict_attachments_elevates_rule6(tmp_path, capsys):
    code, _, _ = run(capsys, "lint", str(fixture_path("rule6.wrt")))
    assert code == 0
    code, _, err = run(capsys, "lint", "--strict-attachments", str(fixture_path("rule6.wrt")))
    assert code == 2
    assert "rule=6" in err


def test_an_instance_of_a_name_first_declared_as_a_port_has_no_type(tmp_path, capsys):
    # `K` is first a port, so `k : K` breaks rule 2 and nothing else: rule 6
    # finds the instance's type where rules 2-5 do, in the symbol table
    spec = tmp_path / "k.wrt"
    spec.write_text(
        "Configuration PortThenConnector\nComponent A\n  Port K = a -> K\n  Computation = K.a -> Computation\n"
        "Connector K\n  Role R = a -> R\n  Glue = R.a -> Glue\n"
        "Instances\n  x : A\n  k : K\nAttachments\n  x.K As k.R\nEnd Configuration\n"
    )
    code, out, err = run(capsys, "lint", str(spec))
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "Parsing complete.",
        f"{spec}:5:1: error: rule=1 ***Identificateur Redondant***",
        f"{spec}:10:3: error: rule=2 ***Type non Declarer***",
        f"{spec}:9:3: warning: rule=6 ***Port non relier***",
    ]


def test_repeated_where_local_is_a_lint_error_and_translates_nothing(tmp_path, capsys):
    spec = tmp_path / "dup.wrt"
    spec.write_text(
        "Style S\nComponent C\n  Port In = a -> L where { L = b -> In  L = c -> In }\n"
        "  Computation = In.a -> Computation [] TICK\nConstraints\nEnd Style\n"
    )
    code, _, err = run(capsys, "lint", str(spec))
    assert code == 2
    assert "3:41: error: rule=1 ***Identificateur Redondant***" in err
    out = tmp_path / "dup.fdr2"
    assert run(capsys, "translate", str(spec), str(out))[0] == 2
    assert not out.exists()


def test_an_event_named_like_a_port_is_a_lint_error(tmp_path, capsys):
    # ``channel read, In`` beside ``channel In: {read}``: no renaming keeps the events
    spec = tmp_path / "channels.wrt"
    spec.write_text(
        "Style S\nComponent C\n  Port In = read -> In\n  Port read = In -> read\n"
        "  Computation = In.read -> read.In -> Computation\nConstraints\nEnd Style\n"
    )
    code, _, err = run(capsys, "lint", str(spec))
    assert code == 2
    assert "3:3: error: Port In is also the name of an event" in err
    assert "4:3: error: Port read is also the name of an event" in err


@pytest.mark.parametrize("name", ["DFA", "abstractEvent", "quant_semi", "power_set"])
def test_an_event_named_like_a_header_name_is_a_lint_error(tmp_path, capsys, name):
    # ``channel DFA`` beside the header's ``DFA = abstractEvent -> DFA |~| SKIP``
    spec = tmp_path / "header.wrt"
    spec.write_text(
        f"Style S\nComponent C\n  Port P = {name} -> P\n"
        f"  Computation = P.{name} -> Computation\nConstraints\nEnd Style\n"
    )
    code, _, err = run(capsys, "lint", str(spec))
    assert code == 2
    assert f"3:3: error: event {name} in Port P is also a name the output defines or prints" in err
    out = tmp_path / "header.fdr2"
    assert run(capsys, "translate", str(spec), str(out))[0] == 2
    assert not out.exists()


def test_a_port_or_role_named_like_a_name_of_the_output_is_a_lint_error(tmp_path, capsys):
    # ``channel DFA: {a}`` beside the header's ``DFA = abstractEvent -> DFA |~| SKIP``,
    # and the header's ``channel abstractEvent`` declared again
    spec = tmp_path / "points.wrt"
    spec.write_text(
        "Style S\nComponent C\n  Port DFA = a -> DFA [] TICK\n  Computation = DFA.a -> Computation [] TICK\n"
        "Connector K\n  Role abstractEvent = _b -> abstractEvent |~| TICK\n"
        "  Glue = abstractEvent.b -> Glue [] TICK\nConstraints\nEnd Style\n"
    )
    code, _, err = run(capsys, "lint", str(spec))
    assert code == 2
    clash = "is also a name the output defines or prints, so the output would give it two meanings"
    assert [line.split(":", 1)[1] for line in err.splitlines()[1:]] == [
        f"3:3: error: Port DFA {clash}",
        f"6:3: error: Role abstractEvent {clash}",
    ]
    out = tmp_path / "points.fdr2"
    assert run(capsys, "translate", str(spec), str(out))[0] == 2
    assert not out.exists()


def test_an_event_named_like_a_keyword_or_function_of_the_text_is_a_lint_error(tmp_path, capsys):
    # ``channel assert, union``: a CSPM keyword and a set function
    spec = tmp_path / "keywords.wrt"
    spec.write_text(
        "Style S\nComponent C\n  Port P = assert -> P [] union -> P [] TICK\n"
        "  Computation = P.assert -> Computation [] P.union -> Computation [] TICK\nConstraints\nEnd Style\n"
    )
    code, _, err = run(capsys, "lint", str(spec))
    assert code == 2
    assert f"{spec}:3:3: error: event assert in Port P is also a name the output defines or prints" in err
    assert f"{spec}:3:3: error: event union in Port P is also a name the output defines or prints" in err
    assert run(capsys, "translate", str(spec), str(tmp_path / "keywords.fdr2"))[0] == 2


def test_a_where_local_named_like_a_name_of_the_output_gets_a_free_name(tmp_path, capsys):
    # ``diff = ...`` would redefine the set function the header and every
    # ``[| diff(...) |]`` call, and ``STOP = ...`` the process STOP
    spec, out = tmp_path / "locals.wrt", tmp_path / "locals.fdr2"
    spec.write_text(
        "Style S\nComponent C\n  Port P = a -> diff [] TICK where { diff = b -> P }\n"
        "  Computation = P.a -> P.b -> Computation [] TICK\n"
        "Connector K\n  Role R = m -> STOP [] TICK where { STOP = m -> R }\n"
        "  Glue = R.m -> Glue [] TICK\nConstraints\nEnd Style\n"
    )
    assert run(capsys, "translate", str(spec), str(out))[0] == 0
    lines = out.read_text().splitlines()
    assert "diffP = (b -> PORTP)" in lines and "PORTP = ((a -> diffP) [] SKIP)" in lines
    assert "STOPR = (m -> ROLER)" in lines and "ROLER = ((m -> STOPR) [] SKIP)" in lines
    assert not [line for line in lines if line.split(" = ")[0] in ("diff", "diffDETR", "STOP")]
    code, stdout, _ = run(capsys, "check", str(spec))
    assert code == 0 and stdout.count("PASS  ") == 3


def test_lint_prints_the_mixed_operator_warning_with_its_severity(tmp_path, capsys):
    path = tmp_path / "mixed.wrt"
    path.write_text("Style S\nConnector K\n  Role R = a -> R [] b -> R |~| TICK\n"
                    "  Glue = R.a -> Glue [] R.b -> Glue [] TICK\nConstraints\nEnd Style\n")
    code, stdout, err = run(capsys, "lint", str(path))
    assert code == 0 and not stdout
    assert err.splitlines() == [
        "Parsing complete.",
        f"{path}:3:29: warning: '[]' and '|~|' mixed at the same level without parentheses; "
        "grouping left-to-right",
    ]


@pytest.mark.parametrize("command", ["translate", "check"])
def test_a_projection_warning_is_printed_once(tmp_path, capsys, command):
    # Out's restriction to its observed events erases all of L
    path, out = tmp_path / "erase.wrt", tmp_path / "erase.fdr2"
    path.write_text("Style S\nComponent C\n  Port Out = c -> L [] TICK where { L = _d -> L }\n"
                    "  Computation = Out.c -> _Out.d -> Computation [] TICK\nConstraints\nEnd Style\n")
    _, _, err = run(capsys, command, str(path), *([str(out)] if command == "translate" else []))
    assert err.splitlines() == [
        "Parsing complete.",
        f"{path}:3:3: warning: where-local 'L' of Out erased entirely by projection; references to it behave as STOP",
        "wr2fdr done.",
    ]


def test_an_event_spelled_tau_is_an_ordinary_event(tmp_path, capsys):
    # the engine's internal label is no name a Wright event can have
    path = tmp_path / "tau.wrt"
    path.write_text("Style S\nConnector K\n  Role R = τ -> R [] TICK\n"
                    "  Glue = R.τ -> Glue [] TICK\nConstraints\nEnd Style\n")
    assert run(capsys, "lint", str(path))[0] == 0
    code, stdout, _ = run(capsys, "check", str(path))
    assert stdout.splitlines() == ["PASS  assert DFA [FD= RA", "PASS  assert DFA [FD= KA"]
    assert code == 0


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
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize("cap", ["0", "-3", "x"])
def test_check_rejects_a_bad_state_cap(capsys, cap):
    with pytest.raises(SystemExit) as info:
        main(["check", str(fixture_path("dt3.wrt")), "--max-states", cap])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    reason = f"invalid int value: {cap!r}" if cap == "x" else f"must be at least 1, got {cap}"
    assert captured.err.endswith(f"wright2csp check: error: argument --max-states: {reason}\n")
    assert "Parsing complete." not in captured.err  # rejected before any work


def test_check_state_cap_leaves_other_verdicts(capsys):
    code, stdout, err = run(
        capsys, "check", str(fixture_path("dt3.wrt")), "--max-states", "20"
    )
    assert code == 2
    lines = [l for l in stdout.splitlines() if l.startswith(("PASS", "FAIL", "UNKNOWN"))]
    assert len(lines) == 7
    assert lines[4] == "UNKNOWN  assert DFA [FD= CtypeA  (state cap 20 exceeded)"
    assert all(l.startswith("PASS") for i, l in enumerate(lines) if i != 4)
    assert "assert DFA [FD= CtypeA: state cap 20 exceeded" in err


def test_check_state_cap_reaches_compilation_and_refinement(capsys):
    code, stdout, _ = run(capsys, "check", "--max-states", "12", str(fixture_path("dt3.wrt")))
    assert stdout.splitlines() == [
        "PASS  assert OutputG [FD= COMPOutput",
        "PASS  assert InputG [FD= COMPInput",
        "PASS  assert DFA [FD= OriginA",
        "PASS  assert DFA [FD= TargetA",
        "UNKNOWN  assert DFA [FD= CtypeA  (state cap 12 exceeded)",
        "UNKNOWN  assert C_OriginPLUS [FD= A_OutputPLUSDET  (product cap 12 exceeded)",
        "PASS  assert C_TargetPLUS [FD= B_InputPLUSDET",
    ]
    assert code == 2


def test_check_fail_outranks_unknown_in_the_exit_code(tmp_path, capsys):
    path = tmp_path / "line.wrt"
    path.write_text(perfbench_workloads().pipeline_case(1, "t", True).source)
    code, stdout, _ = run(capsys, "check", str(path), "--max-states", "20")
    verdicts = [line.split()[0] for line in stdout.splitlines()]
    assert verdicts.count("FAIL") == 1 and verdicts.count("UNKNOWN") == 1
    assert code == 1


def test_check_fails_a_connector_that_performs_events_its_alphabet_leaves_out(tmp_path, capsys):
    # the glue names no event, so ALPHA_K is empty and KA performs R.y, which DFA cannot
    path, out = tmp_path / "silent.wrt", tmp_path / "silent.fdr2"
    path.write_text("Style S\nConnector K\n  Role R = y -> R [] TICK\n  Glue = TICK\nConstraints\nEnd Style\n")
    code, stdout, _ = run(capsys, "check", str(path))
    assert stdout.splitlines() == [
        "PASS  assert DFA [FD= RA",
        "FAIL  assert DFA [FD= KA  (failure after trace <R.y>)",
    ]
    assert code == 1
    assert run(capsys, "translate", str(path), str(out))[0] == 0
    text = out.read_text()
    assert "ALPHA_K = {}\n" in text and "assert DFA [FD= KA\n" in text


def test_check_names_the_event_behind_a_refusal_failure(tmp_path, capsys):
    # the glue leaves A.log out of ALPHA_K, so KA offers it unrenamed: DFA can neither do it nor refuse it
    path = tmp_path / "log.wrt"
    path.write_text("Style S\nConnector K\n  Role A = _put -> A |~| _log -> A |~| TICK\n"
                    "  Role B = get -> B [] TICK\n  Glue = A.put -> B.get -> Glue [] TICK\n"
                    "Constraints\nEnd Style\n")
    code, stdout, _ = run(capsys, "check", str(path))
    assert stdout.splitlines() == [
        "PASS  assert DFA [FD= AA",
        "PASS  assert DFA [FD= BA",
        "FAIL  assert DFA [FD= KA  (failure after trace <<empty>>; the specification has no move on A.log)",
    ]
    assert code == 1


@pytest.mark.parametrize(
    "port",
    ["_c -> L where {\n    L = _d -> Out |~| TICK\n  }", "_c -> (_d -> Out |~| TICK)"],
    ids=["where-local", "inline"],
)
def test_check_port_recursing_through_a_where_local_restricts_without_divergence(tmp_path, capsys, port):
    # all of Out is initiated, so its restriction erases the cycle Out -> L -> Out
    # as it erases the inline self-reference, and In's check sees no divergence
    path = tmp_path / "cycle.wrt"
    path.write_text(
        f"Style Cycle\nComponent C\n  Port Out = {port}\n  Port In = a -> In [] TICK\n"
        "  Computation = In.a -> _Out.c -> (_Out.d -> Computation |~| TICK) [] TICK\n"
        "Constraints\n  // no constraints\nEnd Style\n"
    )
    _, stdout, _ = run(capsys, "check", str(path))
    assert "PASS  assert InG [FD= COMPIn\n" in stdout


def test_check_decides_every_port_of_a_component_with_eighteen_output_only_ports(tmp_path, capsys):
    # each port check interleaves 17 ports restricted to SKIP; the check drops
    # them, where interleaving them exceeds the default state cap
    path = tmp_path / "wide.wrt"
    path.write_text(wide_component_spec(18))
    code, stdout, _ = run(capsys, "check", str(path))
    assert stdout.splitlines() == [f"PASS  assert P{i}G [FD= COMPP{i}" for i in range(1, 19)]
    assert code == 0


def _deep_spec(tmp_path, port, computation, role="a -> R [] TICK", glue="R.a -> Glue [] TICK"):
    path = tmp_path / "deep.wrt"
    path.write_text(
        f"Configuration Deep\nComponent C\n  Port P = {port}\n  Computation = {computation}\n"
        f"Connector K\n  Role R = {role}\n  Glue = {glue}\n"
        "Instances\n  A : C\n  B : K\nAttachments\n  A.P As B.R\nEnd Configuration\n"
    )
    return path


def _chain(event, n):
    return " -> ".join([event] * n) + " -> TICK"


@pytest.mark.parametrize(
    "command, port_body, column",
    [
        ("lint", _chain("a", 1000), 12 + 5 * MAX_NESTING),
        ("translate", _chain("a", 1000), 12 + 5 * MAX_NESTING),
        ("check", _chain("a", 1000), 12 + 5 * MAX_NESTING),
        ("lint", "(" * 1000 + "a -> P" + ")" * 1000, 12 + MAX_NESTING),
    ],
)
def test_deep_nesting_is_a_parse_error(tmp_path, capsys, command, port_body, column):
    path = _deep_spec(tmp_path, port_body, "P.a -> Computation [] TICK")
    argv = [command, str(path)] + ([str(tmp_path / "o.fdr2")] if command == "translate" else [])
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert f"{path}:3:{column}: process expression nested deeper than {MAX_NESTING} levels\n" in err
    assert "a problem occurred in the parsing stage." in err
    assert "Traceback" not in err and not (tmp_path / "o.fdr2").exists()


def test_check_passes_at_the_nesting_limit(tmp_path, capsys):
    n = MAX_NESTING - 1  # events; the TICK leaf is the last level
    path = _deep_spec(tmp_path, _chain("a", n), _chain("P.a", n), _chain("a", n), _chain("R.a", n))
    code, stdout, _ = run(capsys, "check", str(path))
    assert code == 0
    verdicts = stdout.splitlines()
    assert len(verdicts) == 4 and all(v.startswith("PASS") for v in verdicts)


def test_check_decides_flat_choices_far_longer_than_the_nesting_limit(tmp_path, capsys):
    # a 5 000-alternative [] port and a 300-alternative |~| role: a run is one level
    path = tmp_path / "flat.wrt"
    path.write_text(flat_choice_spec())
    code, stdout, _ = run(capsys, "check", str(path))
    assert code == 0
    assert stdout.splitlines() == ["PASS  assert PG [FD= COMPP", "PASS  assert DFA [FD= RA", "PASS  assert DFA [FD= KA"]


def test_check_exits_quietly_when_stdout_closes_early(tmp_path):
    # about 2 000 verdict lines (115 kB) overflow the pipe, so the check is
    # still writing when the reader goes away
    spec = tmp_path / "pipeline1000.wrt"
    spec.write_text(perfbench_workloads().pipeline_case(1000, "t", False).source)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "wright2csp.cli", "check", str(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"PASS  ")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert b"Traceback" not in err and b"BrokenPipeError" not in err, err


def _expected_text(source):
    """The FDR text ``translate`` must write for ``source``, or None."""
    try:
        spec, _ = parse_source(source)
    except ParseError:
        return None
    diags = analyzer.analyze(spec) + alphabets.annotate(spec)
    return None if analyzer.has_errors(diags) else codegen.emit(spec).text


def test_cli_survives_token_mutations_of_the_fixtures(tmp_path, capsys):
    path, out = tmp_path / "m.wrt", tmp_path / "m.fdr2"
    start = time.perf_counter()
    for k, source in enumerate(token_mutants(300, 9)):
        path.write_text(source)
        for argv in (["lint", str(path)], ["check", str(path), "--max-states", "500"]):
            assert main(argv) in (0, 1, 2), (k, argv, source)
        assert main(["translate", str(path), str(out)]) in (0, 2), (k, source)
        expected = _expected_text(source)
        if out.exists():
            assert out.read_text() == expected, (k, source)
            out.unlink()
        else:
            assert expected is None, (k, source)
        capsys.readouterr()
    # about 3 s under -X dev; the bound catches a blow-up, not a slowdown
    assert time.perf_counter() - start < 60
