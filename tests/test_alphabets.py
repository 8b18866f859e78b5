import random
import time

import pytest

from conftest import fixture_path, load_spec
from wright2csp import alphabets, analyzer, codegen
from wright2csp.alphabets import compute_declaration_alphabet
from oracles import chain_spec, reference_alphabets, set_minus, walk_events, walk_refs
from wright2csp.model import Declaration, DeclKind, ExternalChoice, InternalChoice, Prefix, Ref, SUCCESS
from wright2csp.parser import parse_source


def names(alphabet):
    return set(alphabet)


def test_pipeconn_role_alphabets():
    spec = load_spec("pipeconn.wrt")
    pipe = spec.types[0]
    writer, reader = pipe.roles
    assert names(writer.alphabet.total) == {"close", "write"}
    assert names(reader.alphabet.total) == {"readEOF", "read", "close"}
    assert names(pipe.total_alphabet) == {
        "Reader.readEOF",
        "Reader.read",
        "Reader.close",
        "Writer.write",
        "Writer.close",
    }


def test_writer_has_no_role_internal_events():
    spec = load_spec("pipeconn.wrt")
    pipe = spec.types[0]
    writer = pipe.roles[0]
    scoped = {f"Writer.{e}": i for e, i in writer.alphabet.total.items()}
    internal = set_minus(scoped, pipe.glue.alphabet.total)
    assert len(internal) == 0
    assert "    [| diff({|Writer|}, { }) |]" in codegen.emit(spec).text.splitlines()
    # a role event the glue does not name is left out of the synchronisation,
    # under the role's name
    spec, _ = parse_source(
        "Style S\nConnector K\n  Role R = y -> R [] x -> R [] TICK\n"
        "  Glue = R.x -> Glue [] TICK\nConstraints\nEnd Style"
    )
    alphabets.annotate(spec)
    assert "    [| diff({|R|}, { R.y}) |]" in codegen.emit(spec).text.splitlines()


def test_calcul_component_alphabet():
    spec = load_spec("calculformule.wrt")
    calcul = spec.types[0]
    assert names(calcul.total_alphabet) == {"Out.close", "Out.write", "In.read", "In.close"}
    p_in, p_out = calcul.ports
    assert names(p_in.alphabet.total) == {"close", "read"}
    assert {e for e, i in p_in.alphabet.total.items() if i} == set()
    assert names(p_out.alphabet.total) == {"close", "write"}
    assert names(p_out.alphabet.observed) == set()  # both events initiated


def test_dt3_connector_alphabet_is_glue_alphabet():
    spec = load_spec("dt3.wrt")
    ctype = spec.types[2]
    assert names(ctype.total_alphabet) == {"Target.c", "Origin.a"}
    origin, target = ctype.roles
    assert names(origin.alphabet.total) == {"a"}
    assert names(target.alphabet.total) == {"c"}


def test_alphabet_invariant_under_local_permutation():
    a = """Style S
Connector K
  Role R = DoRead |~| ExitOnly
  where {
    DoRead = read -> R [] readEOF -> ExitOnly
    ExitOnly = close -> TICK
  }
  Glue = R.read -> Glue [] R.readEOF -> Glue [] R.close -> TICK
Constraints
End Style"""
    b = a.replace(
        "DoRead = read -> R [] readEOF -> ExitOnly\n    ExitOnly = close -> TICK",
        "ExitOnly = close -> TICK\n    DoRead = read -> R [] readEOF -> ExitOnly",
    )
    outs = []
    for text in (a, b):
        spec, _ = parse_source(text)
        alphabets.annotate(spec)
        outs.append(names(spec.types[0].roles[0].alphabet.total))
    assert outs[0] == outs[1] == {"read", "readEOF", "close"}


def brute_force_alphabet(decl):
    """Independent oracle: walk bodies through named references with a visited set."""
    bodies = {decl.name: decl.body}
    for loc in decl.locals:
        bodies[loc.name] = loc.body
    seen, events, todo = set(), set(), [decl.name]
    while todo:
        name = todo.pop()
        if name in seen or name not in bodies:
            continue
        seen.add(name)
        for p in walk_events(bodies[name]):
            events.add(p.event)
        todo.extend(walk_refs(bodies[name]))
    return events


def test_closure_alphabet_matches_brute_force_walk():
    for fixture in ("pipeconn.wrt", "dt1.wrt", "dt3.wrt", "calculformule.wrt"):
        spec = load_spec(fixture)
        for t in spec.types:
            decls = t.ports + [t.computation] if hasattr(t, "ports") else t.roles + [t.glue]
            for d in decls:
                info, diags = compute_declaration_alphabet(d)
                assert not diags
                assert names(info.total) == brute_force_alphabet(d)


def test_initiated_observed_partition():
    spec = load_spec("double.wrt")
    for port in spec.types[0].ports:
        a = port.alphabet
        initiated = {e for e, i in a.total.items() if i}
        assert initiated | names(a.observed) == names(a.total)
        assert initiated & names(a.observed) == set()


def test_unresolved_reference_is_an_error():
    spec, _ = parse_source(
        "Style S\nComponent C\n  Port P = a -> Missing\n  Computation = P.a -> Computation\n"
        "Constraints\nEnd Style"
    )
    diags = alphabets.annotate(spec)
    assert any(d.severity == "error" and "Missing" in d.message for d in diags)


def test_unknown_port_prefix_is_diagnosed_and_removed():
    spec, _ = parse_source(
        "Style S\nComponent Double\n  Port Input = read -> Input [] close -> TICK\n"
        "  Computation = Input.read -> Computation [] Input.close -> TICK [] In.fail -> TICK\n"
        "Constraints\nEnd Style"
    )
    diags = alphabets.annotate(spec)
    assert any("In.fail" in d.message and d.severity == "warning" for d in diags)
    comp = spec.types[0]
    assert "In.fail" not in names(comp.total_alphabet)
    assert "In.fail" not in names(comp.computation.alphabet.total)


def test_port_internal_events_warning():
    spec, _ = parse_source(
        "Style S\nComponent C\n  Port P = a -> P [] b -> TICK\n"
        "  Computation = P.a -> Computation [] TICK\nConstraints\nEnd Style"
    )
    diags = alphabets.annotate(spec)
    assert any("internal events" in d.message for d in diags)
    clean, _ = parse_source(
        "Style S\nComponent C\n  Port P = a -> P [] TICK\n"
        "  Computation = P.a -> Computation [] TICK\nConstraints\nEnd Style"
    )
    assert alphabets.annotate(clean) == []


def test_mixed_polarity_is_a_warning():
    spec, _ = parse_source(
        "Style S\nConnector K\n  Role R = a -> _a -> R [] TICK\n"
        "  Glue = R.a -> Glue [] TICK\nConstraints\nEnd Style"
    )
    diags = alphabets.annotate(spec)
    assert any(d.severity == "warning" and "both initiated and observed" in d.message for d in diags)


def test_base_event_names_cover_internal_events():
    spec = load_spec("dt3.wrt")
    assert set(spec.event_names) == {"a", "b", "c"}


# --- the walk against the closure-then-compose oracle -----------------------------


def random_declaration(rng, n_locals):
    """A role ``D`` with ``n_locals`` where-locals whose bodies reference any of
    the names (itself included) or an undeclared one, and prefix events of
    either polarity, scoped or not.  A local is sometimes defined twice."""
    names = ["D"] + [f"L{i}" for i in range(n_locals)]
    events = ["a", "b", "c", "d", "e", "P.x", "Q.y"]

    def build(budget):
        if budget <= 0 or rng.random() < 0.2:
            roll = rng.random()
            if roll < 0.15:
                return SUCCESS
            return Ref("Missing" if roll < 0.2 else rng.choice(names))
        kind = rng.randrange(3)
        if kind == 0:
            event, initiated = rng.choice(events), rng.random() < 0.4
            return Prefix(event, build(budget - 1), initiated)
        cls = ExternalChoice if kind == 1 else InternalChoice
        return cls((build(budget // 2), build(budget - 1 - budget // 2)))

    locals_ = [Declaration(DeclKind.WHERE_LOCAL, n, build(5)) for n in names[1:]]
    if locals_ and rng.random() < 0.1:
        again = Declaration(DeclKind.WHERE_LOCAL, rng.choice(names[1:]), build(5))
        locals_.insert(rng.randrange(len(locals_)), again)
    return Declaration(DeclKind.ROLE, "D", build(5), locals_)


def rerooted(decl, loc):
    """The bodies of ``decl`` with ``loc`` as the declaration: the old
    declaration becomes a where-local, and ``loc``'s other definitions go, so
    every name keeps the body its references resolve to."""
    others = [d for d in decl.locals if d.name != loc.name]
    moved = Declaration(DeclKind.WHERE_LOCAL, decl.name, decl.body)
    return Declaration(DeclKind.ROLE, loc.name, loc.body, [moved, *others])


def test_alphabet_walk_matches_closure_oracle_on_random_relations():
    # the declaration's alphabet, and each where-local's as the declaration of
    # the same bodies re-rooted there, so every start name is covered
    rng = random.Random(11)
    for _ in range(600):
        decl = random_declaration(rng, rng.randrange(8))
        event_names = {}
        info, diags = compute_declaration_alphabet(decl, event_names)
        expected = reference_alphabets(decl)
        assert list(info.total.items()) == list(expected["D"].items()), decl
        last = {loc.name: loc for loc in decl.locals}
        for loc in last.values():
            assert loc.alphabet is None
            total = compute_declaration_alphabet(rerooted(decl, loc))[0].total
            assert list(total.items()) == list(expected[loc.name].items()), decl
        assert {e: i for e, i in info.total.items() if i} == {e: True for e, i in expected["D"].items() if i}
        assert info.observed == {e: False for e, i in expected["D"].items() if not i}
        bodies = [decl.body] + [loc.body for loc in decl.locals]
        unscoped = [p.event.rpartition(".")[2] for b in bodies for p in walk_events(b)]
        assert list(event_names) == list(dict.fromkeys(unscoped))
        last = {"D": decl.body, **{loc.name: loc.body for loc in decl.locals}}
        missing = sum(r == "Missing" for b in last.values() for r in walk_refs(b))
        assert sum(d.severity == "error" for d in diags) == missing


def test_declaration_alphabet_follows_references_breadth_first():
    # the smallest reference graph found where breadth-first order differs from
    # rounds that extend each name's list by its names' lists: those gave
    # l6 before l1, as L3 (reached from L2) lists L6 before L4 (which lists L1)
    spec, _ = parse_source(
        "Style S\nConnector K\n  Role D = d -> L5\n  where {\n    L1 = l1 -> TICK\n    L2 = l2 -> L3\n"
        "    L3 = l3 -> (L3 [] L2 [] L6 [] L5 [] L1 [] D [] L4)\n    L4 = l4 -> (L1 [] D [] L5)\n"
        "    L5 = l5 -> (L2 [] L4)\n    L6 = l6 -> L4\n  }\n  Glue = TICK\nConstraints\nEnd Style"
    )
    role = spec.types[0].roles[0]
    info, diags = compute_declaration_alphabet(role)
    assert diags == []
    assert list(info.total) == ["d", "l5", "l2", "l4", "l3", "l1", "l6"]
    l6 = role.locals[5]
    assert l6.alphabet is None
    assert list(compute_declaration_alphabet(rerooted(role, l6))[0].total) == ["l6", "l4", "l1", "d", "l5", "l2", "l3"]


def test_annotate_searches_once_per_declaration_not_per_where_local(monkeypatch):
    # chain_spec(n) has two declarations with n + 1 where-locals each; a search
    # from every where-local made annotate quadratic in n
    starts = []
    search = alphabets.reach
    monkeypatch.setattr(alphabets, "reach", lambda refs, start: starts.append(start) or search(refs, start))
    spec, _ = parse_source(chain_spec(50))
    assert alphabets.annotate(spec) == []
    assert starts == ["Out", "Computation"]


def test_where_local_chains_of_800_take_seconds():
    # each body of the port and the computation is one where-local of a chain;
    # a reachability search cubic in the where-locals takes minutes on these
    # specs, so the bound is loose
    n = 800
    events = ", ".join(f"e{i}" for i in range(n + 1))
    scoped = ", ".join(f"Out.e{i}" for i in range(n + 1))
    for erase, warned in ((False, sorted(f"L{i}" for i in range(n))), (True, [f"L{i}" for i in range(n, -1, -1)])):
        spec, warnings = parse_source(chain_spec(n, erase))
        start = time.perf_counter()
        diags = warnings + analyzer.analyze(spec) + alphabets.annotate(spec)
        plan = codegen.emit(spec)
        elapsed = time.perf_counter() - start
        assert diags == []
        lines = plan.text.splitlines()
        assert f"ALPHA_Out = {{{events}}}" in lines
        assert f"ALPHA_C = {{|{scoped}|}}" in lines
        assert [d.message for d in plan.diagnostics] == [
            f"where-local '{name}' of Out erased entirely by projection; references to it behave as STOP"
            for name in warned
        ]
        assert elapsed < 10, (erase, elapsed)


# --- the diagnostics alphabets writes, pinned -------------------------------


def test_polarity_warning_text_severity_and_position():
    spec, _ = parse_source(
        "Style S\nConnector K\n  Role R = a -> R [] TICK\n"
        "  Role Q = Go |~| TICK\n    where { Go = _b -> Q.c -> Q [] b -> Go }\n"
        "  Glue = R.a -> Glue [] Q.b -> Glue [] TICK\nConstraints\nEnd Style"
    )
    diags = alphabets.annotate(spec)
    assert [(d.severity, str(d.pos), d.message) for d in diags] == [
        ("warning", "4:3", "event 'b' used both initiated and observed in Role Q; keeping the first use"),
        ("warning", "4:3", "event 'Q.Q.c' of role Q is not in the glue of connector K, "
         "so the connector performs it unsynchronised"),
    ]
    assert str(diags[0]) == (
        "4:3: warning: event 'b' used both initiated and observed in Role Q; keeping the first use"
    )


def test_scoped_event_warning_text_severity_and_position():
    spec, _ = parse_source(
        "Style S\nComponent C\n  Port P = a -> P [] TICK\n"
        "  Computation = P.a -> Computation\n   [] X.y -> TICK [] _Q.z -> X.y -> TICK\n"
        "Connector K\n  Role R = a -> R [] TICK\n  Glue = R.a -> Glue [] S.b -> TICK\n"
        "Constraints\nEnd Style"
    )
    diags = alphabets.annotate(spec)
    assert [(d.severity, str(d.pos), d.message) for d in diags] == [
        ("warning", "4:3", "event 'X.y' in component C names no declared interface point; "
         "removed from the alphabet"),
        ("warning", "4:3", "event 'Q.z' in component C names no declared interface point; "
         "removed from the alphabet"),
        ("warning", "8:3", "event 'S.b' in connector K names no declared interface point; "
         "removed from the alphabet"),
    ]


def test_role_events_the_glue_leaves_out_are_warned_one_by_one():
    # A's log and B's put are no glue events: the connector performs them
    # outside its synchronisation, so its deadlock-freedom check fails
    spec, _ = parse_source(
        "Style S\nConnector K\n  Role A = _put -> A |~| _log -> A |~| TICK\n"
        "  Role B = get -> B [] put -> B [] TICK\n  Glue = A.put -> B.get -> Glue [] TICK\n"
        "Constraints\nEnd Style"
    )
    unsynchronised = "so the connector performs it unsynchronised"
    assert [str(d) for d in alphabets.annotate(spec)] == [
        f"3:3: warning: event 'A.log' of role A is not in the glue of connector K, {unsynchronised}",
        f"4:3: warning: event 'B.put' of role B is not in the glue of connector K, {unsynchronised}",
    ]
    assert "    [| diff({|A|}, { A.log}) |]" in codegen.emit(spec).text.splitlines()


@pytest.mark.parametrize("name", [n for n in alphabets.OUTPUT_NAMES if n != "SKIP"])  # SKIP is a Wright keyword
def test_a_name_of_the_output_is_no_event_port_or_role(name):
    points, _ = parse_source(
        f"Style S\nComponent C\n  Port {name} = a -> {name} [] TICK\n"
        f"  Computation = {name}.a -> Computation [] TICK\n"
        f"Connector K\n  Role {name} = b -> {name} [] TICK\n  Glue = {name}.b -> Glue [] TICK\n"
        "Constraints\nEnd Style"
    )
    event, _ = parse_source(
        f"Style S\nConnector K\n  Role R = {name} -> R [] TICK\n  Glue = R.{name} -> Glue [] TICK\n"
        "Constraints\nEnd Style"
    )
    clash = "is also a name the output defines or prints, so the output would give it two meanings"
    assert [str(d) for d in alphabets.annotate(points)] == [f"3:3: error: Port {name} {clash}",
                                                           f"6:3: error: Role {name} {clash}"]
    assert [str(d) for d in alphabets.annotate(event)] == [f"3:3: error: event {name} in Role R {clash}"]


def test_header_name_errors_are_placed_at_each_names_first_user():
    # P uses two header names, out of header order; a where-local and a later
    # role use one more each; later uses of a reported name add nothing
    spec, _ = parse_source(
        "Style S\nComponent C\n  Port P = abstractEvent -> DFA -> P [] TICK\n"
        "  Port Q = x -> L [] TICK where { L = quant_semi -> Q }\n"
        "  Computation = P.abstractEvent -> P.DFA -> Computation [] Q.x -> Q.quant_semi -> Computation [] TICK\n"
        "Connector K\n  Role R = power_set -> DFA -> R [] TICK\n"
        "  Glue = R.power_set -> R.DFA -> Glue [] TICK\nConstraints\nEnd Style"
    )
    clash = "is also a name the output defines or prints, so the output would give it two meanings"
    assert [str(d) for d in alphabets.annotate(spec)] == [
        f"3:3: error: event DFA in Port P {clash}",
        f"3:3: error: event abstractEvent in Port P {clash}",
        f"4:35: error: event quant_semi in WhereLocal L {clash}",
        f"7:3: error: event power_set in Role R {clash}",
    ]
