import random

from conftest import load_spec
from oracles import (
    project_to,
    reference_alphabets,
    relation_closure,
    relation_compose,
    rename_with_prefix,
    set_minus,
    set_union,
)
from wright2csp import alphabets, codegen
from wright2csp.alphabets import compute_declaration_alphabet
from wright2csp.model import (
    Declaration,
    DeclKind,
    ExternalChoice,
    Prefix,
    Ref,
    SUCCESS,
)
from wright2csp.parser import parse_source


def pf(event, rest, initiated=False):
    return Prefix(event, rest, initiated)


def chain(events, rest=SUCCESS):
    """``e1 -> e2 -> ... -> rest``; an event spelled ``_e`` is initiated."""
    for e in reversed(events):
        rest = pf(e.lstrip("_"), rest, e.startswith("_"))
    return rest


def test_prefix_equality_ignores_polarity():
    assert pf("close", SUCCESS, True) == pf("close", SUCCESS, False)
    assert hash(pf("close", SUCCESS, True)) == hash(pf("close", SUCCESS, False))
    assert pf("close", SUCCESS) != pf("In.close", SUCCESS)
    assert pf("read", SUCCESS) != pf("close", SUCCESS)
    # membership in an alphabet is polarity-blind: an initiated use is kept
    # by projection onto an alphabet that holds the event as observed
    body = chain(["_a", "b"], Ref("P"))
    assert project_to(body, {"a": False}, "P") == pf("a", Ref("P"), True)
    assert project_to(body, {"a": False}, "P").initiated


def test_alphabet_first_use_wins_and_order_is_stable():
    decl = Declaration(DeclKind.ROLE, "R", chain(["_a", "b", "a"], Ref("R")))
    alphabet, diags = compute_declaration_alphabet(decl)
    assert list(alphabet.items()) == [("a", True), ("b", False)]
    assert {e: i for e, i in alphabet.items() if i} == {"a": True}
    assert alphabets.observed(alphabet) == {"b": False}
    assert [d.severity for d in diags] == ["warning"]


def test_set_union_examples():
    assert list(set_union({}, {"close": False, "write": False})) == ["close", "write"]
    a = {"close": False, "read": False}
    b = {"close": True, "write": True}
    assert list(set_union(a, b).items()) == [("close", False), ("read", False), ("write", True)]
    # a component's alphabet is this union: the computation's events, then
    # each port's scoped events, in port order
    comp = load_spec("double.wrt").types[0]
    parts = [comp.computation.alphabet]
    parts += [{f"{p.name}.{e}": i for e, i in p.alphabet.items()} for p in comp.ports]
    expected = parts[0]
    for part in parts[1:]:
        expected = set_union(expected, part)
    assert list(comp.total_alphabet.items()) == list(expected.items())


def test_set_union_calculformule_port_alphabets():
    # ALPHA_In and ALPHA_Out combine to the three base events, polarity-blind
    p_in, p_out = load_spec("calculformule.wrt").types[0].ports
    assert set(set_union(p_in.alphabet, p_out.alphabet)) == {"close", "read", "write"}


def test_set_minus_examples():
    ab = {"a": True, "b": False}
    assert set_minus(ab, {"b": True}) == {"a": True}
    assert list(set_minus(ab, {})) == ["a", "b"]
    # dropping the events that name no port keeps the order of the rest
    spec, _ = parse_source(
        "Style S\nComponent C\n  Port P = a -> P [] b -> TICK\n"
        "  Computation = P.a -> X.y -> _P.b -> Q.z -> Computation [] TICK\n"
        "Constraints\nEnd Style"
    )
    alphabets.annotate(spec)
    total = spec.types[0].computation.alphabet
    assert list(total.items()) == [("P.a", False), ("P.b", True)]


def test_set_ops_agree_with_sorted_list_reference():
    # reference model: ordered lists deduplicated by name, first use kept
    rng = random.Random(20240817)
    names = [f"e{i}" for i in range(8)]

    def ref_dedupe(seq):
        out = []
        for e in seq:
            if e[0] not in [n for n, _ in out]:
                out.append(e)
        return out

    for _ in range(200):
        xs = [(rng.choice(names), rng.random() < 0.5) for _ in range(rng.randint(0, 32))]
        ys = [(rng.choice(names), rng.random() < 0.5) for _ in range(rng.randint(0, 32))]
        ref_a, ref_b = ref_dedupe(xs), ref_dedupe(ys)
        a, b = dict(ref_a), dict(ref_b)
        ref_union = ref_a + [(n, i) for n, i in ref_b if n not in a]
        ref_minus = [(n, i) for n, i in ref_a if n not in b]
        assert list(set_union(a, b).items()) == ref_union
        assert list(alphabets._union([a, b]).items()) == ref_union
        assert list(set_minus(a, b).items()) == ref_minus


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
    # the search from one name finds that name and its closure, breadth-first
    assert list(alphabets.reach(reader, "Reader")) == ["Reader", "DoRead", "ExitOnly"]
    assert list(alphabets.reach(reader, "ExitOnly")) == ["ExitOnly"]
    for name in reader:
        assert set(alphabets.reach(reader, name)) == set(closed[name]) | {name}


def test_relation_closure_idempotent():
    rng = random.Random(7)
    names = ["P", "Q", "R", "S"]
    for _ in range(50):
        rel = {n: {m: None for m in rng.sample(names, rng.randint(0, 3))} for n in names}
        once = relation_closure(rel)
        assert relation_closure(once) == once
        for name in rel:
            assert set(alphabets.reach(rel, name)) == set(once[name]) | {name}


def test_relation_compose_examples():
    assert relation_compose({}, {"P": {"a": False}})["P"] == {"a": False}
    # role with where-locals: events of everything reachable
    p2p = {
        "Reader": {"DoRead": None, "ExitOnly": None},
        "DoRead": {"Reader": None, "ExitOnly": None},
        "ExitOnly": {},
    }
    p2e = {
        "Reader": {},
        "DoRead": {"read": False, "readEOF": False},
        "ExitOnly": {"close": False},
    }
    out = relation_compose(relation_closure(p2p), p2e)
    assert set(out["Reader"]) == {"readEOF", "read", "close"}
    # compose reaches through the relation it is given, so the closure call
    # may be dropped without changing the result
    assert relation_compose(p2p, p2e)["Reader"] == out["Reader"]
    # the same role as a declaration: the walk gives the same ordered alphabet
    reader = load_spec("pipeconn.wrt").types[0].roles[1]
    alphabet, _ = compute_declaration_alphabet(reader)
    assert list(alphabet.items()) == list(reference_alphabets(reader)[reader.name].items())
    assert set(alphabet) == set(out["Reader"])


def test_point_alphabets_are_scoped_by_a_name_prefix():
    # a port's events enter the component's alphabet under the port's name,
    # after the computation's, with their polarity: In.b is one the
    # computation leaves out
    spec, _ = parse_source(
        "Style S\nComponent C\n  Port In = a -> In [] b -> In [] TICK\n  Port Out = _c -> Out [] TICK\n"
        "  Computation = In.a -> _Out.c -> Computation [] TICK\nConstraints\nEnd Style"
    )
    alphabets.annotate(spec)
    comp = spec.types[0]
    assert list(comp.total_alphabet.items()) == [("In.a", False), ("Out.c", True), ("In.b", False)]
    assert list(comp.ports[0].alphabet) == ["a", "b"]
    # the consistency check for Out runs In's observed events under In's name
    # and excludes from the synchronisation the one the computation leaves out
    assert "  [| diff({In.a, In.b}, { In.b}) |]" in codegen.emit(spec).text.splitlines()


def test_rename_with_prefix():
    decl = Declaration(DeclKind.GLUE, "Glue", ExternalChoice((pf("Origin.a", Ref("Glue"), True), SUCCESS)))
    # the attachment A.Output As C.Origin renames Origin.a to Output.a and
    # then qualifies with the instance name
    renamed = rename_with_prefix(decl, "A")
    event = renamed.body.branches[0]
    assert event.event == "A.Origin.a"
    assert event.initiated
    empty = Declaration(DeclKind.PORT, "P", SUCCESS)
    assert rename_with_prefix(empty, "A").body == SUCCESS
