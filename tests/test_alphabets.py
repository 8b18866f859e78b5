import pytest

from conftest import fixture_path, load_spec
from wright2csp import alphabets
from wright2csp.alphabets import compute_declaration_alphabet
from wright2csp.model import walk_events, walk_refs
from wright2csp.parser import parse_source


def names(event_set):
    return set(event_set.qualified_names())


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
    internal = writer.alphabet.param_total.minus(pipe.glue.alphabet.total)
    assert len(internal) == 0


def test_calcul_component_alphabet():
    spec = load_spec("calculformule.wrt")
    calcul = spec.types[0]
    assert names(calcul.total_alphabet) == {"Out.close", "Out.write", "In.read", "In.close"}
    p_in, p_out = calcul.ports
    assert names(p_in.alphabet.total) == {"close", "read"}
    assert names(p_in.alphabet.initiated) == set()
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
        for e in walk_events(bodies[name]):
            events.add(e.qualified)
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
        assert names(a.initiated) | names(a.observed) == names(a.total)
        assert names(a.initiated) & names(a.observed) == set()


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
