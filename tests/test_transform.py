import random

import pytest

from conftest import load_spec
from oracles import (
    SELF,
    expr_event_names,
    expr_lts,
    hide_semantically,
    keep_set,
    project_to,
    project_trace,
    random_declaration,
    random_expr,
    reference_project_declaration,
    traces,
)
from wright2csp.codegen import fdr_expr, process_term
from wright2csp.engine import compile_to_lts
from wright2csp.model import (
    EMPTY,
    ExternalChoice,
    InternalChoice,
    Prefix,
    Ref,
    SUCCESS,
)
from wright2csp.transform import (
    determinized,
    restrict_to_observed,
)


def pf(name, rest, initiated=False):
    return Prefix(name, rest, initiated)


def test_normalize_merges_same_event_internal_choice():
    p = InternalChoice(pf("a", Ref("P")), pf("a", Ref("Q")))
    out = determinized(p)
    assert out == pf("a", ExternalChoice(Ref("P"), Ref("Q")))


def test_normalize_leaves_distinct_events_alone():
    # distinct-event branches stay, as an external choice
    p = InternalChoice(pf("a", Ref("P")), pf("b", Ref("Q")))
    assert determinized(p) == ExternalChoice(pf("a", Ref("P")), pf("b", Ref("Q")))


def test_normalize_applies_to_fixpoint():
    p = InternalChoice(InternalChoice(pf("a", Ref("P")), pf("a", Ref("Q"))), pf("a", Ref("R")))
    out = determinized(p)
    expected = pf("a", ExternalChoice(ExternalChoice(Ref("P"), Ref("Q")), Ref("R")))
    assert out == expected


def test_normalize_merges_below_a_merge():
    # the merged continuations a -> P and a -> Q merge again
    p = InternalChoice(pf("a", pf("a", Ref("P"))), pf("a", pf("a", Ref("Q"), True)))
    out = determinized(p)
    assert out == pf("a", pf("a", ExternalChoice(Ref("P"), Ref("Q"))))
    assert out.initiated is False and out.rest.initiated is False  # the left prefix's polarity


def test_determinize_replaces_internal_choice():
    p = InternalChoice(pf("a", Ref(SELF)), SUCCESS)
    out = determinized(p)
    assert out == ExternalChoice(pf("a", Ref(SELF)), SUCCESS)


def test_determinize_identity_without_choice():
    p = pf("a", SUCCESS)
    assert determinized(p) == p
    already = ExternalChoice(pf("read", Ref("In")), pf("close", SUCCESS))
    assert determinized(already) == already


def count_internal(expr):
    if isinstance(expr, Prefix):
        return count_internal(expr.rest)
    if isinstance(expr, (ExternalChoice, InternalChoice)):
        extra = 1 if isinstance(expr, InternalChoice) else 0
        return extra + count_internal(expr.left) + count_internal(expr.right)
    return 0


def test_determinize_output_has_no_internal_choice():
    rng = random.Random(1)
    for _ in range(100):
        expr = random_expr(rng)
        assert count_internal(determinized(expr)) == 0


def test_projection_rule_examples():
    keep_a = keep_set(["a"])
    # P1 = a -> b -> P1, hiding b keeps the guarded self reference
    p1 = pf("a", pf("b", Ref("P1")))
    assert project_to(p1, keep_a, "P1") == pf("a", Ref("P1"))
    # P2 = b -> P2 erases entirely
    p2 = pf("b", Ref("P2"))
    assert project_to(p2, keep_a, "P2") == EMPTY
    # P3 = a -> P3 [] b -> P3 collapses to the surviving branch
    p3 = ExternalChoice(pf("a", Ref("P3")), pf("b", Ref("P3")))
    assert project_to(p3, keep_a, "P3") == pf("a", Ref("P3"))


def test_projection_is_idempotent():
    rng = random.Random(2)
    for _ in range(200):
        expr = random_expr(rng)
        kept = {n for n in expr_event_names(expr) if rng.random() < 0.5}
        keep = keep_set(kept)
        once = project_to(expr, keep, SELF)
        assert project_to(once, keep, SELF) == once


def test_restrict_to_observed_fully_initiated_port_prints_skip():
    spec = load_spec("calculformule.wrt")
    p_out = spec.types[0].ports[1]
    restricted, diags = restrict_to_observed(p_out)
    assert not diags
    assert restricted.body == SUCCESS  # wholly erased
    assert fdr_expr(determinized(restricted.body), {}) == "SKIP"


def test_restrict_to_observed_all_observed_port_unchanged():
    spec = load_spec("calculformule.wrt")
    p_in = spec.types[0].ports[0]
    restricted, _ = restrict_to_observed(p_in)
    assert restricted.body == p_in.body


def test_restrict_to_observed_needs_the_alphabet_annotate_computes():
    from wright2csp.model import Declaration, DeclKind

    port = Declaration(DeclKind.PORT, "P", pf("a", Ref("P")))
    with pytest.raises(ValueError, match="^alphabet of P not computed$"):
        restrict_to_observed(port)


def test_restrict_mixed_polarity_port():
    # read (observed), ack (initiated): read -> _ack -> P projects to read -> P
    body = pf("read", pf("ack", Ref("P"), True))
    out = project_to(body, keep_set(["read"]), "P")
    assert out == pf("read", Ref("P"))
    # the trace-level oracle agrees
    assert project_trace(("read", "ack", "read", "ack"), {"read"}) == ("read", "read")


def test_trace_projection_oracle_worked_example():
    assert project_trace(tuple("acadbcabc"), {"a", "b"}) == tuple("aabab")


def test_determinization_preserves_traces_on_random_terms():
    rng = random.Random(3)
    for _ in range(200):
        expr = random_expr(rng)
        plain = traces(expr_lts(expr), 8)
        det = determinized(expr)
        det_term = process_term(det, {})
        det_traces = traces(compile_to_lts(det_term, {SELF: det_term}), 8)
        assert det_traces == plain, expr


def test_projection_matches_machine_level_hiding_on_random_terms():
    rng = random.Random(4)
    for _ in range(200):
        expr = random_expr(rng)
        events = expr_event_names(expr)
        kept = {n for n in events if rng.random() < 0.5}
        hidden = events - kept
        semantic = traces(hide_semantically(expr_lts(expr), hidden), 8)
        projected = project_to(expr, keep_set(kept), SELF)
        proj_term = process_term(projected, {})
        syntactic = traces(compile_to_lts(proj_term, {SELF: proj_term}), 8)
        assert syntactic == semantic, (expr, kept)


def test_projection_keeps_references_to_other_names():
    from wright2csp.transform import project_declaration

    spec = load_spec("pipeconn.wrt")
    reader = spec.types[0].roles[1]
    # hiding everything eliminates the prefixes but keeps cross references,
    # so no local erases here
    projected, diags = project_declaration(reader, {})
    assert not diags
    assert [loc.name for loc in projected.locals] == ["DoRead", "ExitOnly"]


def test_projected_where_local_erasure_warns():
    from wright2csp.model import Declaration, DeclKind, EMPTY
    from wright2csp.transform import project_declaration

    # L's body is a hidden self loop, so L erases; the dangling reference in
    # the parent body becomes the empty process
    local = Declaration(DeclKind.WHERE_LOCAL, "L", pf("b", Ref("L")))
    decl = Declaration(DeclKind.ROLE, "R", pf("a", Ref("L")), [local])
    projected, diags = project_declaration(decl, keep_set(["a"]))
    assert projected.locals == []
    assert projected.body == pf("a", EMPTY)
    assert any("erased" in d.message for d in diags)


def test_projection_erases_an_unguarded_cycle_through_a_where_local():
    from wright2csp.model import Declaration, DeclKind
    from wright2csp.transform import project_declaration

    # Out = _c -> L where { L = _d -> Out |~| TICK }: with c and d hidden the
    # references Out -> L -> Out form an unguarded cycle, as the inline
    # Out = _c -> (_d -> Out |~| TICK) has Out -> Out
    local = Declaration(DeclKind.WHERE_LOCAL, "L", InternalChoice(pf("d", Ref("Out"), True), SUCCESS))
    decl = Declaration(DeclKind.PORT, "Out", pf("c", Ref("L"), True), [local])
    projected, diags = project_declaration(decl, {})
    assert not diags
    assert projected.body == SUCCESS  # wholly erased
    assert [(loc.name, loc.body) for loc in projected.locals] == [("L", SUCCESS)]
    # a kept prefix on the cycle guards it, and a reference that closes no
    # cycle is kept
    projected, _ = project_declaration(decl, keep_set(["d"]))
    assert projected.body == Ref("L")
    assert projected.locals[0].body == InternalChoice(pf("d", Ref("Out")), SUCCESS)


def test_projection_decides_erasure_as_the_rounds_that_re_project_every_body():
    from wright2csp.transform import project_declaration

    rng = random.Random(7)
    erasing = 0
    for _ in range(2000):
        decl, keep = random_declaration(rng)
        projected, diags = project_declaration(decl, keep)
        expected, expected_diags = reference_project_declaration(decl, keep)
        assert repr(projected) == repr(expected), (decl, keep)
        assert [str(d) for d in diags] == [str(d) for d in expected_diags], (decl, keep)
        erasing += bool(expected_diags)
    assert erasing >= 300


def _retarget(expr, rng, local):
    """``expr`` with each reference to SELF pointed at ``local`` half the time."""
    if isinstance(expr, Prefix):
        return Prefix(expr.event, _retarget(expr.rest, rng, local), expr.initiated)
    if isinstance(expr, (ExternalChoice, InternalChoice)):
        return type(expr)(_retarget(expr.left, rng, local), _retarget(expr.right, rng, local))
    if isinstance(expr, Ref) and rng.random() < 0.5:
        return Ref(local)
    return expr


def test_restricted_ports_with_a_where_local_never_diverge():
    from wright2csp import alphabets
    from wright2csp.codegen import emit
    from wright2csp.engine import divergent_states
    from wright2csp.model import Component, Declaration, DeclKind, Style

    rng = random.Random(5)
    checked = 0
    for _ in range(300):
        local = Declaration(DeclKind.WHERE_LOCAL, "L", _retarget(random_expr(rng), rng, "L"))
        port = Declaration(DeclKind.PORT, SELF, _retarget(random_expr(rng), rng, "L"), [local])
        other = Declaration(DeclKind.PORT, "Y", pf("e", Ref("Y")))
        computation = Declaration(DeclKind.COMPUTATION, "Computation", SUCCESS)
        spec = Style("S", [Component("C", [port, other], computation)])
        alphabets.annotate(spec)
        plan = emit(spec)
        env = plan.definitions
        for name in env:
            if name.endswith("DETR"):
                lts = compile_to_lts(Ref(name), env)
                assert not any(divergent_states(lts)), (name, port, plan.text)
                checked += 1
    assert checked >= 600
