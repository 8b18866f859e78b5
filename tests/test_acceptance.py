"""Acceptance suite: one test per criterion, one PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print; each test also asserts, so a red criterion fails the suite.
"""

import random
import time

import pytest

from conftest import emit_plan, fixture_path, golden_matches, load_spec
from oracles import (
    SELF,
    brute_refines,
    expr_event_names,
    expr_lts,
    hide_semantically,
    keep_set,
    project_to,
    random_expr,
    random_lts,
    traces,
)
from wright2csp import analyzer
from wright2csp.cli import main as cli_main
from wright2csp.codegen import AssertionKind, process_term
from wright2csp.engine import (
    check_refinement_fd,
    compile_to_lts,
    discharge_assertions,
    normalize_fd,
)
from wright2csp.parser import parse_source
from wright2csp.transform import determinized


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {desc}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {desc} {detail}"


def test_criterion_1_dt1_golden_translation():
    t0 = time.perf_counter()
    plan = emit_plan("dt1.wrt")
    elapsed = time.perf_counter() - t0
    ok = (
        golden_matches("dt1.txt", plan.text)
        and "ROLEClient = ((request -> (result -> ROLEClient)) |~| SKIP)" in plan.text
        and "CSconnectorA = CSconnector [[ x <- abstractEvent | x <- ALPHA_CSconnector ]]" in plan.text
        and "ALPHA_Glue" not in plan.text
        and elapsed < 1.0
    )
    _report(1, "DT1 connector translation matches the expected output", ok, f"{elapsed:.3f}s")


def test_criterion_2_calculformule_golden_translation():
    t0 = time.perf_counter()
    plan = emit_plan("calculformule.wrt")
    elapsed = time.perf_counter() - t0
    needed = [
        "PORTOutDETR = SKIP",
        "PORTInDETR = ((read -> PORTInDETR) [] (close -> SKIP))",
        "COMPIn = (( PORTOutDETR",
        "COMPOut = (( PORTInDETR [[ x <- In.x | x <- {read, close } ]]",
        "assert InG [FD= COMPIn",
        "assert OutG [FD= COMPOut",
    ]
    ok = (
        golden_matches("calculformule.txt", plan.text)
        and all(n in plan.text for n in needed)
        and elapsed < 1.0
    )
    _report(2, "CalculFormule component translation matches the expected output", ok, f"{elapsed:.3f}s")


def test_criterion_3_dt3_golden_translation():
    t0 = time.perf_counter()
    plan = emit_plan("dt3.wrt")
    elapsed = time.perf_counter() - t0
    needed = [
        "A_OutputPLUS = PORTOutput",
        "C_OriginPLUS = ROLEOrigin",
        "A_OutputPLUSDET = A_OutputPLUS",
        "B_InputPLUS = PORTInput",
        "C_TargetPLUS = ROLETarget",
        "B_InputPLUSDET = B_InputPLUS",
        "assert C_OriginPLUS [FD= A_OutputPLUSDET",
        "assert C_TargetPLUS [FD= B_InputPLUSDET",
    ]
    ok = (
        golden_matches("dt3.txt", plan.text)
        and all(n in plan.text for n in needed)
        and elapsed < 1.0
    )
    _report(3, "DT3 configuration translation carries the port/role compatibility tests", ok, f"{elapsed:.3f}s")


def test_criterion_4_in_repo_verification():
    t0 = time.perf_counter()
    dt3 = emit_plan("dt3.wrt")
    dt3_results = discharge_assertions(dt3.assertions, dt3.definitions)
    calc = emit_plan("calculformule.wrt")
    calc_results = discharge_assertions(calc.assertions, calc.definitions)
    elapsed = time.perf_counter() - t0
    kinds = {a.kind for a in dt3.assertions}
    ok = (
        all(v.holds for _, v in dt3_results)
        and all(v.holds for _, v in calc_results)
        and kinds
        == {
            AssertionKind.PORT_COMPUTATION,
            AssertionKind.CONNECTOR_DEADLOCK_FREE,
            AssertionKind.ROLE_DEADLOCK_FREE,
            AssertionKind.PORT_ROLE,
        }
        and all(v.explored < 10_000 for _, v in dt3_results + calc_results)
        and elapsed < 5.0
    )
    most = max(v.explored for _, v in dt3_results + calc_results)
    _report(4, "checking DT3 and CalculFormule discharges every assertion", ok,
            f"{elapsed:.3f}s, max {most} product states")


def test_criterion_5_regressions():
    # the component-only style that used to crash now translates and checks
    double = emit_plan("double.wrt")
    double_results = discharge_assertions(double.assertions, double.definitions)
    double_ok = len(double_results) == 2
    # the configuration that used to omit compatibility checks now has them
    dt3 = emit_plan("dt3.wrt")
    p8 = [a for a in dt3.assertions if a.kind is AssertionKind.PORT_ROLE]
    p8_ok = len(p8) == 2
    # every name the connector-style output references is defined
    pipe = emit_plan("pipeconn.wrt")
    try:
        for term in pipe.definitions.values():
            compile_to_lts(term, pipe.definitions)
        resolved_ok = True
    except Exception:
        resolved_ok = False
    _report(5, "regression fixtures translate, check, and resolve every name",
            double_ok and p8_ok and resolved_ok)


def test_criterion_6_static_semantics(capsys):
    code4 = cli_main(["lint", str(fixture_path("dt4.wrt"))])
    code5 = cli_main(["lint", str(fixture_path("dt5.wrt"))])
    err = capsys.readouterr().err
    dt_ok = code4 == 0 and code5 == 2 and "Attachement: Composant.Port as Connecteur.Role" in err
    rules_ok = True
    for n in range(1, 7):
        spec, _ = parse_source(fixture_path(f"rule{n}.wrt").read_text())
        diags = analyzer.analyze(spec, strict=True)
        rules = [d.rule for d in diags if d.severity == "error"]
        rules_ok = rules_ok and rules == [n]
    with capsys.disabled():
        _report(6, "DT4 accepted, DT5 rejected by rule 5, rules 1-6 each detected", dt_ok and rules_ok)


def test_criterion_7a_determinization_preserves_traces():
    rng = random.Random(101)
    mismatches = 0
    for _ in range(500):
        expr = random_expr(rng)
        baseline = traces(expr_lts(expr), 8)
        det = determinized(expr)
        det_term = process_term(det, {})
        det_traces = traces(compile_to_lts(det_term, {SELF: det_term}), 8)
        if det_traces != baseline:
            mismatches += 1
    _report(7, "(a) determinization is trace-preserving on 500 random terms", mismatches == 0)


def test_criterion_7b_projection_matches_trace_oracle():
    rng = random.Random(102)
    mismatches = 0
    for _ in range(500):
        expr = random_expr(rng)
        events = expr_event_names(expr)
        kept = {n for n in events if rng.random() < 0.5}
        semantic = traces(hide_semantically(expr_lts(expr), events - kept), 8)
        projected = project_to(expr, keep_set(kept), SELF)
        proj_term = process_term(projected, {})
        syntactic = traces(compile_to_lts(proj_term, {SELF: proj_term}), 8)
        if syntactic != semantic:
            mismatches += 1
    _report(7, "(b) projection matches the trace-level oracle on 500 random terms", mismatches == 0)


def test_criterion_7c_refinement_reflexive_and_transitive():
    fixtures = ("dt1.wrt", "dt3.wrt", "dt4.wrt", "calculformule.wrt", "pipeconn.wrt", "double.wrt", "deadconn.wrt")
    reflexive_ok = True
    for fixture in fixtures:
        plan = emit_plan(fixture)
        for a in plan.assertions:
            for side in (a.spec_term, a.impl_term):
                lts = compile_to_lts(side, plan.definitions)
                if not check_refinement_fd(normalize_fd(lts), lts).holds:
                    reflexive_ok = False
    rng = random.Random(103)
    alphabet = frozenset({"a", "b"})
    brute_ok = True
    transitive_ok = True
    for _ in range(100):
        ms = [random_lts(rng) for _ in range(3)]
        holds = {}
        for i in range(3):
            spec_fd = normalize_fd(ms[i])
            for j in range(3):
                v = check_refinement_fd(spec_fd, ms[j])
                holds[(i, j)] = v.holds
                if v.holds:
                    brute_ok = brute_ok and brute_refines(ms[i], ms[j], 6, alphabet)
                else:
                    t, _k = v.counterexample
                    brute_ok = brute_ok and not brute_refines(ms[i], ms[j], max(len(t), 1), alphabet)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    if holds[(i, j)] and holds[(j, k)] and not holds[(i, k)]:
                        transitive_ok = False
    _report(7, "(c) refinement is reflexive, transitive, and agrees with brute force",
            reflexive_ok and brute_ok and transitive_ok)


def test_criterion_7d_deadlocking_connector_fails_property_2():
    plan = emit_plan("deadconn.wrt")
    results = dict(discharge_assertions(plan.assertions, plan.definitions))
    verdict = results["assert DFA [FD= DeadA"]
    ok = not verdict.holds and verdict.counterexample is not None and len(verdict.counterexample[0]) > 0
    detail = f"counterexample trace {verdict.counterexample[0]}" if verdict.counterexample else ""
    _report(7, "(d) the deadlocking connector fails its deadlock-freedom check", ok, detail)


EXPECTED_ALPHABETS = {
    "pipeconn.wrt": {
        "Pipe": {"Reader.readEOF", "Reader.read", "Reader.close", "Writer.write", "Writer.close"},
        "Writer": {"close", "write"},
        "Reader": {"readEOF", "read", "close"},
    },
    "dt1.wrt": {
        "CSconnector": {"Server.invoke", "Server.return", "Client.result", "Client.request"},
        "Client": {"request", "result"},
        "Server": {"invoke", "return"},
    },
    "calculformule.wrt": {
        "Calcul": {"Out.close", "Out.write", "In.read", "In.close"},
        "In": {"close", "read"},
        "In.initiated": set(),
        "Out": {"close", "write"},
    },
    "dt3.wrt": {
        "Ctype": {"Target.c", "Origin.a"},
        "Origin": {"a"},
        "Target": {"c"},
    },
}


def test_criterion_8_alphabet_fidelity():
    total = 0
    good = 0
    for fixture, expected in EXPECTED_ALPHABETS.items():
        spec = load_spec(fixture)
        computed = {}
        for t in spec.types:
            computed[t.name] = set(t.total_alphabet)
            decls = t.ports if hasattr(t, "ports") else t.roles
            for d in decls:
                computed[d.name] = set(d.alphabet.total)
                computed[f"{d.name}.initiated"] = set(d.alphabet.initiated)
        for key, want in expected.items():
            total += 1
            if computed.get(key) == want:
                good += 1
    _report(8, "computed alphabets equal every printed alphabet", good == total, f"{good}/{total}")
