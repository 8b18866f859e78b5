import random

from conftest import load_spec
from oracles import (
    SELF,
    expr_event_names,
    expr_lts,
    hide_semantically,
    keep_set,
    project_trace,
    random_expr,
    traces,
)
from wright2csp.codegen import fdr_body, process_term
from wright2csp.engine import compile_to_lts
from wright2csp.model import (
    EMPTY,
    EventRef,
    ExternalChoice,
    InternalChoice,
    Prefix,
    Ref,
    SUCCESS,
)
from wright2csp.transform import (
    determinize,
    determinized,
    normalize_for_det,
    project_to,
    restrict_to_observed,
)


def ev(name, initiated=False):
    return EventRef(name, initiated)


def pf(name, rest):
    return Prefix(ev(name), rest)


def test_normalize_merges_same_event_internal_choice():
    p = InternalChoice(pf("a", Ref("P")), pf("a", Ref("Q")))
    out = normalize_for_det(p)
    assert out == Prefix(ev("a"), ExternalChoice(Ref("P"), Ref("Q")))


def test_normalize_leaves_distinct_events_alone():
    p = InternalChoice(pf("a", Ref("P")), pf("b", Ref("Q")))
    assert normalize_for_det(p) == p


def test_normalize_applies_to_fixpoint():
    p = InternalChoice(InternalChoice(pf("a", Ref("P")), pf("a", Ref("Q"))), pf("a", Ref("R")))
    out = normalize_for_det(p)
    expected = Prefix(ev("a"), ExternalChoice(ExternalChoice(Ref("P"), Ref("Q")), Ref("R")))
    assert out == expected


def test_determinize_replaces_internal_choice():
    p = InternalChoice(pf("a", Ref(SELF)), SUCCESS)
    out = determinize(p)
    assert out == ExternalChoice(pf("a", Ref(SELF)), SUCCESS)


def test_determinize_identity_without_choice():
    p = pf("a", SUCCESS)
    assert determinize(p) == p
    already = ExternalChoice(pf("read", Ref("In")), pf("close", SUCCESS))
    assert determinize(already) == already


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
    assert fdr_body(determinized(restricted.body), {}) == "SKIP"


def test_restrict_to_observed_all_observed_port_unchanged():
    spec = load_spec("calculformule.wrt")
    p_in = spec.types[0].ports[0]
    restricted, _ = restrict_to_observed(p_in)
    assert restricted.body == p_in.body


def test_restrict_mixed_polarity_port():
    # read (observed), ack (initiated): read -> _ack -> P projects to read -> P
    body = Prefix(ev("read"), Prefix(ev("ack", True), Ref("P")))
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
    from wright2csp.model import EventSet
    from wright2csp.transform import project_declaration

    spec = load_spec("pipeconn.wrt")
    reader = spec.types[0].roles[1]
    # hiding everything eliminates the prefixes but keeps cross references,
    # so no local erases here
    projected, diags = project_declaration(reader, EventSet())
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
    assert projected.body == Prefix(ev("a"), EMPTY)
    assert any("erased" in d.message for d in diags)
