import gc
import re

import pytest

from conftest import FIXTURES, assert_matches_golden, emit_plan, load_spec, perfbench_workloads
from oracles import EmittedSets, definition_texts, read_text
from wright2csp import codegen
from wright2csp.codegen import AssertionKind, emit
from wright2csp.engine import TAU, TICK, compile_to_lts
from wright2csp.model import DeclKind
from wright2csp.parser import parse_source
from wright2csp import alphabets, analyzer, cli


def _header(text):
    """Everything the emitted text of a Style holds before its ``-- Style`` line."""
    return text[: text.index("\n-- Style ") + 1]


def test_header_block():
    header = _header(emit_plan("dt1.wrt").text)
    assert "DFA = abstractEvent -> DFA |~| SKIP" in header
    assert "transparent diamond" in header
    assert "transparent normalise" in header
    assert "channel abstractEvent" in header
    assert "quant_semi({},_) = SKIP" in header
    assert "power_set({}) = {{}}" in header
    assert header.splitlines()[0] == "-- FDR compression functions"
    assert _header(emit_plan("dt1.wrt").text) == header  # deterministic


def test_dt1_matches_expected_connector_output():
    assert_matches_golden("dt1.txt", emit_plan("dt1.wrt").text)


def test_calculformule_matches_expected_component_output():
    assert_matches_golden("calculformule.txt", emit_plan("calculformule.wrt").text)


def test_dt3_matches_expected_configuration_output():
    assert_matches_golden("dt3.txt", emit_plan("dt3.wrt").text)


def test_connector_abstraction_uses_connector_alphabet():
    text = emit_plan("dt1.wrt").text
    assert "CSconnectorA = CSconnector [[ x <- abstractEvent | x <- ALPHA_CSconnector ]]" in text
    assert "ALPHA_Glue" not in text


def test_role_equations_are_role_prefixed_and_closed():
    text = emit_plan("dt1.wrt").text
    assert "ROLEClient = ((request -> (result -> ROLEClient)) |~| SKIP)" in text
    # the old failure printed the bare role name in recursive positions
    assert "(result -> Client)" not in text


def test_pipeconn_where_locals_precede_their_parents():
    text = emit_plan("pipeconn.wrt").text
    lines = text.splitlines()
    read_only = next(i for i, l in enumerate(lines) if l.startswith("ReadOnly = "))
    write_only = next(i for i, l in enumerate(lines) if l.startswith("WriteOnly = "))
    glue = next(i for i, l in enumerate(lines) if l.startswith("Glue = "))
    assert read_only < glue and write_only < glue
    assert lines.index("DoRead = ((read -> ROLEReader) [] (readEOF -> ExitOnly))") < lines.index(
        "ROLEReader = (DoRead |~| ExitOnly)"
    )


def test_component_only_style_checks_cleanly():
    # the single-component, single-port style that used to crash the old tool
    from wright2csp.engine import discharge_assertions

    plan = emit_plan("dt2.wrt")
    assert "assert pG [FD= COMPp" in plan.text
    results = discharge_assertions(plan.assertions, plan.definitions)
    assert [v.holds for _, v in results] == [True]


def test_every_assert_line_has_one_assertion_and_vice_versa():
    for fixture in ("dt1.wrt", "dt2.wrt", "dt3.wrt", "calculformule.wrt", "pipeconn.wrt", "double.wrt"):
        plan = emit_plan(fixture)
        assert_lines = [l for l in plan.text.splitlines() if l.startswith("assert ")]
        assert assert_lines == [a.label for a in plan.assertions], fixture


def test_emission_is_deterministic():
    a = emit_plan("dt3.wrt").text
    b = emit_plan("dt3.wrt").text
    assert a == b


def test_assertion_kinds_per_construct():
    plan = emit_plan("dt3.wrt")
    kinds = [a.kind for a in plan.assertions]
    assert kinds.count(AssertionKind.PORT_COMPUTATION) == 2
    assert kinds.count(AssertionKind.ROLE_DEADLOCK_FREE) == 2
    assert kinds.count(AssertionKind.CONNECTOR_DEADLOCK_FREE) == 1
    assert kinds.count(AssertionKind.PORT_ROLE) == 2


def test_property8_equations_present_for_configurations():
    text = emit_plan("dt3.wrt").text
    for needle in (
        "A_OutputPLUS = PORTOutput",
        "C_OriginPLUS = ROLEOrigin",
        "A_OutputPLUSDET = A_OutputPLUS",
        "B_InputPLUS = PORTInput",
        "C_TargetPLUS = ROLETarget",
        "B_InputPLUSDET = B_InputPLUS",
        "assert C_OriginPLUS [FD= A_OutputPLUSDET",
        "assert C_TargetPLUS [FD= B_InputPLUSDET",
        "ROLEOriginDET = ((a -> ROLEOriginDET) [] SKIP)",
        "ROLETargetDET = ((c -> ROLETargetDET) [] SKIP)",
    ):
        assert needle in text, needle


def test_single_port_component_degenerates_to_computation():
    text = emit_plan("dt3.wrt").text
    assert "COMPOutput = (ComputationAtype)\\ diff(ALPHA_Atype, { |Output| })" in text


def test_fully_initiated_port_detr_prints_skip():
    text = emit_plan("calculformule.wrt").text
    assert "PORTOutDETR = SKIP" in text
    assert "PORTInDETR = ((read -> PORTInDETR) [] (close -> SKIP))" in text


def test_initiated_subset_line_only_when_events_observed():
    text = emit_plan("calculformule.wrt").text
    assert "ALPHA_InI = {}" in text
    assert "ALPHA_OutI" not in text
    assert "-- no events observed!" in text


# Port P: a first observed then initiated, b the other way round, c only
# initiated; port Q initiates all its events.
MIXED_POLARITY = (
    "Style S\nComponent C\n"
    "  Port P = _c -> a -> _b -> _a -> b -> P [] TICK\n"
    "  Port Q = _c -> _d -> Q [] TICK\n"
    "  Computation = P.a -> _P.b -> Computation [] _P.c -> Computation [] _Q.c -> _Q.d -> Computation [] TICK\n"
    "Constraints\nEnd Style"
)


def test_initiated_subset_line_keeps_each_events_first_use():
    spec, _ = parse_source(MIXED_POLARITY)
    diags = analyzer.analyze(spec) + alphabets.annotate(spec)
    assert [str(d) for d in diags] == [
        "3:3: warning: event 'a' used both initiated and observed in Port P; keeping the first use",
        "3:3: warning: event 'b' used both initiated and observed in Port P; keeping the first use",
    ]
    text = codegen.emit(spec).text
    ports = text[text.index("--Port Process\n") : text.index("channel P:")]
    assert ports == (
        "--Port Process\n"
        "ALPHA_P = {c, a, b}\n"
        "ALPHA_PI = {c, b}\n"
        "PORTP = ((c -> (a -> (b -> (a -> (b -> PORTP))))) [] SKIP)\n"
        "PG = PORTP[[ x <-P.x | x <- ALPHA_P ]]\n"
        "\n"
        "ALPHA_Q = {c, d}\n"
        "-- no events observed!\n"
        "PORTQ = ((c -> (d -> PORTQ)) [] SKIP)\n"
        "QG = PORTQ[[ x <-Q.x | x <- ALPHA_Q ]]\n"
        "\n"
    )


def test_channel_declarations():
    text = emit_plan("dt1.wrt").text
    assert "channel Client: {request, result}" in text
    assert "channel Server: {invoke, return}" in text
    first = text.splitlines()
    base = next(l for l in first if l.startswith("channel ") and ":" not in l and "abstractEvent" not in l)
    assert set(base[len("channel "):].split(", ")) == {"request", "result", "invoke", "return"}


def test_channel_line_names_the_events_of_a_redefined_where_local():
    # the first L is shadowed for alphabets, but its equation is still emitted
    spec, _ = parse_source(
        "Style S\nComponent C\n  Port In = a -> L where { L = b -> In  L = c -> In }\n"
        "  Computation = In.a -> Computation [] TICK\nConstraints\nEnd Style"
    )
    alphabets.annotate(spec)
    lines = codegen.emit(spec).text.splitlines()
    assert "L = (b -> PORTIn)" in lines
    assert "channel a, b, c" in lines
    assert "channel In: {a, c}" in lines


def test_glue_gets_connector_suffix_only_in_configurations():
    style_text = emit_plan("dt1.wrt").text
    assert "\nGlue = " in style_text
    config_text = emit_plan("dt3.wrt").text
    assert "\nGlueCtype = " in config_text
    assert "\nGlue = " not in config_text


def test_emitted_definitions_resolve_everywhere():
    from wright2csp.engine import compile_to_lts

    for fixture in ("dt1.wrt", "dt3.wrt", "calculformule.wrt", "pipeconn.wrt", "double.wrt", "deadconn.wrt"):
        plan = emit_plan(fixture)
        for name, term in plan.definitions.items():
            compile_to_lts(term, plan.definitions)  # raises if a reference dangles


@pytest.mark.parametrize("attachment", [
    "z.P As k.R",  # no instance z
    "k.R As c.P",  # a role on the left
    "c.R As k.R",  # no port R of c's type
    "u.P As k.R",  # u's type is undeclared
])
def test_an_attachment_that_does_not_resolve_is_a_codegen_error(attachment):
    spec, _ = parse_source(
        "Configuration Bad\nComponent T\n  Port P = a -> P [] TICK\n  Computation = P.a -> Computation [] TICK\n"
        "Connector K\n  Role R = a -> R [] TICK\n  Glue = R.a -> Glue [] TICK\n"
        f"Instances\n  c : T\n  k : K\n  u : Missing\nAttachments\n  {attachment}\nEnd Configuration\n"
    )
    assert analyzer.has_errors(analyzer.analyze(spec))
    alphabets.annotate(spec)
    with pytest.raises(codegen.CodegenError, match=re.escape(f"attachment {attachment} does not resolve")):
        emit(spec)


def test_each_attachment_end_is_resolved_once_and_emit_needs_analysis(monkeypatch):
    source = perfbench_workloads().pipeline_case(5, "t", False).source
    resolved = []
    resolve = analyzer._resolve_end
    monkeypatch.setattr(analyzer, "_resolve_end", lambda *args: resolved.append(args) or resolve(*args))
    spec, _ = parse_source(source)
    assert len(spec.attachments) == 12
    assert not analyzer.analyze(spec) and not alphabets.annotate(spec)
    assert all(att.port.kind is DeclKind.PORT and att.role.kind is DeclKind.ROLE for att in spec.attachments)
    plan = emit(spec)
    assert len(resolved) == 24  # analyze's two per attachment; emit resolves none
    assert sum(a.kind is AssertionKind.PORT_ROLE for a in plan.assertions) == 12

    unanalyzed, _ = parse_source(source)
    alphabets.annotate(unanalyzed)
    first = unanalyzed.attachments[0]
    assert first.port is first.role is None
    with pytest.raises(codegen.CodegenError, match=re.escape(f"attachment {first.left} As {first.right} does")):
        emit(unanalyzed)


def _check(tmp_path, capsys, source):
    """Exit code, standard output and standard error of ``wright2csp check``."""
    path = tmp_path / "spec.wrt"
    path.write_text(source)
    code = cli.main(["check", str(path)])
    out, err = capsys.readouterr()
    return code, out, err


def _defined_names(text):
    return re.findall(r"^(\w+) = ", text, re.M)


ROLE_LOCALS = (
    "Style S\n"
    "Connector K\n"
    "  Role R = Work |~| TICK where { Work = a -> R }\n"
    "  Role S2 = Work |~| TICK where { Work = b -> S2 }\n"
    "  Glue = R.a -> Glue [] S2.b -> Glue [] TICK\n"
    "Constraints\nEnd Style"
)


def test_where_locals_of_two_roles_get_distinct_output_names(tmp_path, capsys):
    spec, _ = parse_source(ROLE_LOCALS)
    analyzer.analyze(spec)
    alphabets.annotate(spec)
    plan = codegen.emit(spec)
    assert plan.diagnostics == []
    names = _defined_names(plan.text)
    assert len(names) == len(set(names))
    assert {"Work", "WorkS2"} <= set(names)
    apart = ROLE_LOCALS.replace("Work |~| TICK where { Work = b", "Other |~| TICK where { Other = b")
    code, out, err = _check(tmp_path, capsys, ROLE_LOCALS)
    assert "defined more than once" not in err
    assert (code, out) == _check(tmp_path, capsys, apart)[:2]
    assert code == 0


def test_where_locals_of_two_ports_get_distinct_output_names_and_follow_to_detr(tmp_path, capsys):
    source = (
        "Style S\n"
        "Component C\n"
        "  Port In = a -> L where { L = b -> In [] TICK }\n"
        "  Port Out = c -> L where { L = d -> Out [] TICK }\n"
        "  Computation = In.a -> Out.c -> In.b -> Out.d -> Computation [] TICK\n"
        "Constraints\nEnd Style"
    )
    spec, _ = parse_source(source)
    analyzer.analyze(spec)
    alphabets.annotate(spec)
    plan = codegen.emit(spec)
    assert plan.diagnostics == []
    names = _defined_names(plan.text)
    assert len(names) == len(set(names))
    assert "\nLOut = ((d -> PORTOut) [] SKIP)\nPORTOut = (c -> LOut)\n" in plan.text
    assert "\nLOutDETR = ((d -> PORTOutDETR) [] SKIP)\nPORTOutDETR = (c -> LOutDETR)\n" in plan.text
    apart = source.replace("c -> L where { L = d", "c -> M where { M = d")
    code, out, err = _check(tmp_path, capsys, source)
    assert "defined more than once" not in err
    assert (code, out) == _check(tmp_path, capsys, apart)[:2]


def test_role_local_det_names_follow_the_renamed_local():
    spec, _ = parse_source(
        "Configuration Cfg\n"
        "Connector K\n"
        "  Role R = Work |~| TICK where { Work = a -> R }\n"
        "  Role S2 = Work |~| TICK where { Work = b -> S2 }\n"
        "  Glue = R.a -> Glue [] S2.b -> Glue [] TICK\n"
        "Instances\n  k : K\nAttachments\nEnd Configuration"
    )
    analyzer.analyze(spec)
    alphabets.annotate(spec)
    plan = codegen.emit(spec)
    assert plan.diagnostics == []
    names = _defined_names(plan.text)
    assert len(names) == len(set(names))
    assert {"Work", "WorkS2", "WorkDET", "WorkS2DET"} <= set(names)
    assert "\nWorkS2DET = (b -> ROLES2DET)\nROLES2DET = (WorkS2DET [] SKIP)\n" in plan.text


def test_a_taken_name_gets_its_owners_name_and_then_a_number():
    spec, _ = parse_source(ROLE_LOCALS)
    alphabets.annotate(spec)
    out = codegen._Out(spec)
    # R is a role channel, a an event, DFA the header's: all three stay fixed
    wanted = ["R", "a", "DFA", "X", "X", "X", "XK"]
    assert [out.name(w, "K") for w in wanted] == ["RK", "aK", "DFAK", "X", "XK", "XK2", "XKK"]


def test_two_connectors_of_a_style_get_distinct_glue_names(tmp_path, capsys):
    k1 = "Connector K1\n  Role R = _e -> R |~| TICK\n  Glue = R.e -> Glue [] TICK\n"
    k2 = "Connector K2\n  Role S = _f -> S |~| TICK\n  Glue = S.f -> Glue [] TICK\n"
    style = "Style S\n{}Constraints\nEnd Style"
    code, out, err = _check(tmp_path, capsys, style.format(k1 + k2))
    assert code == 0
    assert "defined more than once" not in err
    alone = _check(tmp_path, capsys, style.format(k1))[1] + _check(tmp_path, capsys, style.format(k2))[1]
    verdicts = [line for line in out.splitlines() if "DFA [FD= K" in line]
    assert verdicts == [line for line in alone.splitlines() if "DFA [FD= K" in line]
    assert verdicts == ["PASS  assert DFA [FD= K1A", "PASS  assert DFA [FD= K2A"]
    spec, _ = parse_source(style.format(k1 + k2))
    alphabets.annotate(spec)
    text = codegen.emit(spec).text
    assert "\nGlue = ((R.e -> Glue) [] SKIP)\n" in text
    assert "\nGlueK2 = ((S.f -> GlueK2) [] SKIP)\n" in text


# --- engine terms are lowered on first use of plan.definitions -------------------


def _sources():
    """(name, source) of every fixture, star(3), pipeline(3) passing and failing, and one
    translate-workload spec."""
    workloads = perfbench_workloads()
    sources = [(path.name, path.read_text()) for path in sorted(FIXTURES.glob("*.wrt"))]
    sources += [
        ("star(3)", workloads.star_case(3, "t").source),
        ("pipeline(3)", workloads.pipeline_case(3, "t", False).source),
        ("pipeline(3) failing", workloads.pipeline_case(3, "t", True).source),
        ("translate", next(workloads.blocks("translate", 1))[0].source),
    ]
    return sources


def _front_end_plans(sources):
    """(name, plan) for each source the front end accepts."""
    for name, source in sources:
        spec, _ = parse_source(source)
        if not analyzer.has_errors(analyzer.analyze(spec) + alphabets.annotate(spec)):
            yield name, emit(spec)


def test_emit_lowers_no_term_until_definitions_are_read(monkeypatch):
    calls = []
    original = codegen.process_term
    monkeypatch.setattr(codegen, "process_term", lambda *args: calls.append(args) or original(*args))
    plan = emit_plan("dt3.wrt")
    assert calls == []
    definitions = plan.definitions
    lowered = len(calls)
    assert lowered > 0
    assert plan.definitions is definitions  # lowered once, then cached
    assert len(calls) == lowered


def test_defined_process_names_match_the_text():
    # one definition line per equation, and no name defined twice
    for name, plan in _front_end_plans(_sources()):
        defined = _defined_names(plan.text)
        assert len(defined) == len(set(defined)), name
        processes = [n for n in defined if not n.startswith("ALPHA_")]
        assert set(processes) == set(plan.equations) and len(processes) == len(plan.equations), name


def test_front_end_leaves_no_reference_cycles():
    # a tree walk that closes over itself is a cycle only the collector frees
    sources = _sources()  # loading the workload module makes cycles of its own
    gc.collect()
    gc.disable()
    try:
        for _, plan in _front_end_plans(sources):
            plan.definitions
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- the terms' sets are the sets the text denotes --------------------------------


def test_composite_sets_are_the_sets_the_text_denotes():
    for name, plan in _front_end_plans(_sources()):
        sets = EmittedSets(plan.text)
        texts = definition_texts(plan.text)
        # Each side of an assertion performs only events of the set the text names for it:
        # {|p|} for `pG [FD= COMPp`, the union of the `…PLUSDET` line for a port/role check,
        # and {abstractEvent} for `DFA [FD= xA`.  A connector's ALPHA_ set holds only its glue's
        # events, so its check may also perform the role events the glue leaves unsynchronised.
        performed = {}
        for a in plan.assertions:
            impl_text = texts[a.impl_term.name]
            if a.kind is AssertionKind.PORT_COMPUTATION:
                named = sets.evaluate(f"{{|{a.spec_term.name[: -len('G')]}|}}")
            elif a.kind is AssertionKind.PORT_ROLE:
                named = sets.evaluate(re.search(r"\[\|\s*(union\(.*?\))\s*\|\]", impl_text, re.DOTALL).group(1))
            else:
                named = {"abstractEvent"}
                if a.kind is AssertionKind.CONNECTOR_DEADLOCK_FREE:
                    operand = re.fullmatch(r"\S+ = (\S+) \[\[.*", impl_text).group(1)
                    for unsynced in re.findall(r"diff\(\{\|\w+\|\}, (\{.*?\})\)", texts[operand]):
                        named |= sets.evaluate(unsynced)
            for side in (a.spec_term, a.impl_term):
                extra = _performed(side, performed, plan) - named
                assert not extra, (name, a.label, side, extra)


def _performed(term, memo, plan):
    """The regular events (neither tau nor tick) that label a move of ``term``'s LTS."""
    if term not in memo:
        memo[term] = set().union(*compile_to_lts(term, plan.definitions).events) - {TAU, TICK}
    return memo[term]


def test_no_empty_channel_line_or_empty_production_set():
    # CSPM has no `channel` line without a name; `{}` is the empty set `{||}` would print
    sources = [
        ("no events", "Style S Constraints End Style"),
        ("silent glue", "Style S\nConnector K\n  Role R = y -> R [] TICK\n  Glue = TICK\nConstraints\nEnd Style\n"),
    ]
    plans = dict(_front_end_plans(sources))
    assert list(plans) == ["no events", "silent glue"]
    for name, plan in plans.items():
        assert [l for l in plan.text.splitlines() if l.strip() == "channel" or "{||}" in l] == [], name
        _assert_reads_back(name, plan)
    assert "ALPHA_K = {}" in plans["silent glue"].text
    assert EmittedSets(plans["silent glue"].text).alphas["ALPHA_K"] == frozenset()


# --- the text reads back as the terms ------------------------------------------


def _assert_reads_back(name, plan):
    """Reading ``plan.text`` gives back every definition and every assertion."""
    definitions, assertions = read_text(plan.text)
    assert definitions.keys() == plan.definitions.keys(), name
    assert [p for p, term in plan.definitions.items() if definitions[p] != term] == [], name
    assert assertions == [(a.label, a.spec_term, a.impl_term) for a in plan.assertions], name
    return len(definitions)


# Three-way runs of each choice operator whose first two branches share their
# first event: the determinized forms (PORTPDETR, ROLERDET) merge those two
# and keep the third beside them.
RUNS_SOURCE = """Configuration Runs
Component C
  Port P = a -> P [] a -> b -> P [] c -> TICK
  Port Q = _d -> Q |~| _d -> _e -> Q |~| TICK
  Computation = P.a -> Computation [] P.b -> Computation [] P.c -> TICK [] _Q.d -> Computation [] _Q.e -> Computation
Connector K
  Role R = a -> R |~| a -> b -> R |~| c -> TICK
  Role S = _a -> S [] _a -> _b -> S [] _c -> TICK
  Glue = R.a -> S.a -> Glue [] R.b -> S.b -> Glue [] R.c -> S.c -> TICK
Instances
  X : C
  Y : K
Attachments
  X.P As Y.R
End Configuration
"""


def test_the_text_reads_back_as_its_definitions_and_assertions():
    # every operator line too: [| S |], \ S, [[ x <- T | x <- S ]], the
    # ``… [| … |] STOP`` augmentations, the header's DFA and the assert lines
    workloads = perfbench_workloads()
    sources = _sources() + [("three-way runs", RUNS_SOURCE)] + [
        (f"star({k}){' failing' if fail else ''}", workloads.star_case(k, "t", fail).source)
        for k in (2, 3, 4)
        for fail in (None, 2)
    ]
    sources += [
        (f"pipeline({n}){' failing' if fail else ''}", workloads.pipeline_case(n, "t", fail).source)
        for n, fail in ((5, False), (5, True), (20, True))
    ]
    plans = list(_front_end_plans(sources))
    (runs,) = [plan for name, plan in plans if name == "three-way runs"]
    assert "ROLERDET = ((a -> (ROLERDET [] (b -> ROLERDET))) [] (c -> SKIP))" in runs.text.splitlines()
    read = sum(_assert_reads_back(name, plan) for name, plan in plans)
    assert read > 4000


def _ill_typed_events(text):
    """``c.v`` tokens, outside channel and comment lines, whose channel ``c``
    does not declare the value ``v``."""
    channels = EmittedSets(text).channels
    bad = []
    for line in text.splitlines():
        if line.startswith(("channel ", "--")):
            continue
        line = re.sub(r"<-\s*\w+\.x\b", "", line)  # the binder of ``x <- c.x``
        for c, v in re.findall(r"(?<![\w.])(\w+)\.([\w.]*\w)", line):
            if c in channels and v not in channels[c]:
                bad.append(f"{c}.{v}")
    return bad


def test_channel_declarations_are_well_typed():
    for name, plan in _front_end_plans(_sources()):
        assert _ill_typed_events(plan.text) == [], name


def test_channels_declare_values_used_only_by_computation_or_glue(tmp_path, capsys):
    from wright2csp.cli import main

    source = (FIXTURES / "dt3.wrt").read_text()
    source = source.replace(
        "Computation = _Output.a -> Computation |~| TICK",
        "Computation = _Output.a -> Computation |~| _Output.zz -> TICK",
    )
    source = source.replace("[] TICK\nInstances", "[] _Origin.zz -> Glue [] TICK\nInstances")
    [(_, plan)] = _front_end_plans([("zz", source)])
    text = plan.text
    assert "channel Output: {a, zz}" in text
    assert "channel Origin: {a, zz}" in text
    assert _ill_typed_events(text) == []

    spec = tmp_path / "zz.wrt"
    spec.write_text(source)
    assert main(["check", str(spec)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL  assert OutputG [FD= COMPOutput  (failure after trace <<empty>>;"
        " the specification has no move on Output.zz)",
        "PASS  assert InputG [FD= COMPInput",
        "PASS  assert DFA [FD= OriginA",
        "PASS  assert DFA [FD= TargetA",
        "PASS  assert DFA [FD= CtypeA",
        "PASS  assert C_OriginPLUS [FD= A_OutputPLUSDET",
        "PASS  assert C_TargetPLUS [FD= B_InputPLUSDET",
    ]
