import random

import pytest

from oracles import rename_with_prefix, set_minus, set_union
from wright2csp.model import (
    EventRef,
    EventSet,
    relation_closure,
    relation_compose,
    scope_event,
    Declaration,
    DeclKind,
    Prefix,
    Ref,
    SUCCESS,
)


def ev(name, initiated=False, scope=()):
    return EventRef(name, initiated, tuple(scope))


def test_eventref_equality_ignores_polarity():
    assert ev("close", True) == ev("close", False)
    assert hash(ev("close", True)) == hash(ev("close", False))
    assert ev("close") != ev("close", scope=("In",))
    assert ev("read") != ev("close")


def test_eventset_first_occurrence_wins_and_order_is_stable():
    s = EventSet([ev("a", True), ev("b"), ev("a", False)])
    assert len(s) == 2
    stored = list(s)
    assert [e.name for e in stored] == ["a", "b"]
    assert stored[0].initiated  # the first occurrence's polarity is kept


def test_set_union_examples():
    empty = EventSet()
    s = set_union(empty, EventSet([ev("close"), ev("write")]))
    assert s.qualified_names() == ["close", "write"]
    a = EventSet([ev("close"), ev("read")])
    b = EventSet([ev("close"), ev("write")])
    assert set_union(a, b).qualified_names() == ["close", "read", "write"]


def test_set_union_calculformule_port_alphabets():
    # ALPHA_In and ALPHA_Out combine to the three base events, polarity-blind
    alpha_in = EventSet([ev("close"), ev("read")])
    alpha_out = EventSet([ev("close", True), ev("write", True)])
    assert set(set_union(alpha_in, alpha_out).qualified_names()) == {"close", "read", "write"}


def test_set_minus_examples():
    ab = EventSet([ev("a"), ev("b")])
    assert set_minus(ab, EventSet([ev("b")])).qualified_names() == ["a"]
    assert set_minus(ab, EventSet()).qualified_names() == ["a", "b"]


def test_set_ops_agree_with_sorted_list_reference():
    # reference model: ordered lists deduplicated by (name, scope)
    rng = random.Random(20240817)
    names = [f"e{i}" for i in range(8)]
    for _ in range(200):
        xs = [ev(rng.choice(names)) for _ in range(rng.randint(0, 32))]
        ys = [ev(rng.choice(names)) for _ in range(rng.randint(0, 32))]

        def ref_dedupe(seq):
            seen, out = set(), []
            for e in seq:
                if e.name not in seen:
                    seen.add(e.name)
                    out.append(e.name)
            return out

        a, b = EventSet(xs), EventSet(ys)
        ref_a, ref_b = ref_dedupe(xs), ref_dedupe(ys)
        ref_union = ref_a + [n for n in ref_b if n not in ref_a]
        ref_minus = [n for n in ref_a if n not in ref_b]
        assert set_union(a, b).qualified_names() == ref_union
        assert set_minus(a, b).qualified_names() == ref_minus


def test_relation_closure_examples():
    assert relation_closure({}) == {}
    two_step = {"P": {"Q": None}, "Q": {"R": None}, "R": {}}
    closed = relation_closure(two_step)
    assert set(closed["P"]) == {"Q", "R"}
    # mutually recursive where-locals: every name reaches all three
    reader = {
        "Reader": {"DoRead": None, "ExitOnly": None},
        "DoRead": {"Reader": None, "ExitOnly": None},
        "ExitOnly": {},
    }
    closed = relation_closure(reader)
    assert set(closed["Reader"]) == {"DoRead", "ExitOnly", "Reader"}
    assert set(closed["DoRead"]) == {"DoRead", "ExitOnly", "Reader"}


def test_relation_closure_idempotent():
    rng = random.Random(7)
    names = ["P", "Q", "R", "S"]
    for _ in range(50):
        rel = {n: {m: None for m in rng.sample(names, rng.randint(0, 3))} for n in names}
        once = relation_closure(rel)
        assert relation_closure(once) == once


def test_relation_compose_examples():
    assert relation_compose({}, {"P": EventSet([ev("a")])})["P"].qualified_names() == ["a"]
    # role with where-locals: events of everything reachable
    p2p = {
        "Reader": {"DoRead": None, "ExitOnly": None},
        "DoRead": {"Reader": None, "ExitOnly": None},
        "ExitOnly": {},
    }
    p2e = {
        "Reader": EventSet(),
        "DoRead": EventSet([ev("read"), ev("readEOF")]),
        "ExitOnly": EventSet([ev("close")]),
    }
    out = relation_compose(relation_closure(p2p), p2e)
    assert set(out["Reader"].qualified_names()) == {"readEOF", "read", "close"}
    # compose reaches through the relation it is given, so the closure call
    # may be dropped without changing the result
    assert relation_compose(p2p, p2e)["Reader"] == out["Reader"]


def test_scope_event_levels():
    scoped = scope_event(ev("read"), "In")
    assert scoped.qualified == "In.read"
    full = scope_event(scoped, "A")
    assert full.qualified == "A.In.read"
    with pytest.raises(ValueError):
        scope_event(full, "Z")


def test_rename_with_prefix():
    decl = Declaration(
        DeclKind.GLUE,
        "Glue",
        Prefix(ev("a", scope=("Origin",)), Ref("Glue")),
    )
    # the attachment A.Output As C.Origin renames Origin.a to Output.a and
    # then qualifies with the instance name
    renamed = rename_with_prefix(decl, "A")
    event = renamed.body.event
    assert event.qualified == "A.Origin.a"
    empty = Declaration(DeclKind.PORT, "P", SUCCESS)
    assert rename_with_prefix(empty, "A").body == SUCCESS
