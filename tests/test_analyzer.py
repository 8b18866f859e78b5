from conftest import fixture_path
from wright2csp import analyzer
from wright2csp.model import SourcePos
from wright2csp.parser import parse_source


def analyze_fixture(name, strict=False):
    spec, _ = parse_source(fixture_path(name).read_text())
    return analyzer.analyze(spec, strict=strict)


def error_rules(diags):
    return [d.rule for d in diags if d.severity == "error"]


def test_dt4_accepted():
    assert analyze_fixture("dt4.wrt") == []


def test_dt5_rejected_with_rule5_message():
    diags = analyze_fixture("dt5.wrt")
    errors = [d for d in diags if d.severity == "error"]
    assert len(errors) == 1
    assert errors[0].rule == 5
    assert "Attachement: Composant.Port as Connecteur.Role" in errors[0].message


def test_duplicate_instance_names_violate_rule1():
    spec, _ = parse_source(
        "Configuration Dup\nComponent T\n  Port P = a -> P [] TICK\n"
        "  Computation = P.a -> Computation [] TICK\n"
        "Connector K\n  Role R = a -> R [] TICK\n  Glue = R.a -> Glue [] TICK\n"
        "Instances\n  A : T\n  A : K\n  K1 : K\nAttachments\n  A.P As K1.R\nEnd Configuration"
    )
    diags = analyzer.analyze(spec)
    assert 1 in error_rules(diags)
    assert any("Identificateur Redondant" in d.message for d in diags)


def test_first_declaration_of_a_name_wins():
    # the instance `A` comes after `Component A`, so `A` stays a component
    # and an attachment through `A` names no declared instance
    spec, _ = parse_source(
        "Configuration Cfg\nComponent A\n  Port P = a -> P [] TICK\n"
        "  Computation = P.a -> Computation [] TICK\n"
        "Connector K\n  Role R = a -> R [] TICK\n  Glue = R.a -> Glue [] TICK\n"
        "Instances\n  A : K\n  B : K\nAttachments\n  A.P As B.R\nEnd Configuration"
    )
    table, _ = analyzer.build_symbol_table(spec)
    assert table["A"] is spec.types[0] and table["B"] is spec.instances[1]
    errors = [str(d) for d in analyzer.analyze(spec) if d.severity == "error"]
    assert errors == [
        "9:3: error: rule=1 ***Identificateur Redondant***",
        "12:3: error: rule=3 ***Identificateur non declarer***",
    ]


def test_an_instance_of_a_twice_declared_type_has_the_first_declaration():
    # `K` is first a component, so `c.P` resolves, `k.R` names no port of
    # `K`, and each instance misses the attachment of the component's port
    spec, _ = parse_source(
        "Configuration Twice\nComponent K\n  Port P = a -> P\n  Computation = P.a -> Computation\n"
        "Connector K\n  Role R = a -> R\n  Glue = R.a -> Glue\n"
        "Instances\n  c : K\n  k : K\nAttachments\n  c.P As k.R\nEnd Configuration\n"
    )
    assert [str(d) for d in analyzer.analyze(spec)] == [
        "5:1: error: rule=1 ***Identificateur Redondant***",
        "12:10: error: rule=4 ***L'Instance et l'Interface non pas le meme Type***",
        "9:3: warning: rule=6 ***Port non relier***",
        "10:3: warning: rule=6 ***Port non relier***",
    ]


def _where_source(port_locals: str, role_locals: str = "") -> str:
    """A configuration whose port ``In`` and role ``R`` carry the given where-locals."""
    port = "  Port In = a -> L where { " + port_locals + " }\n" if port_locals else "  Port In = a -> In [] TICK\n"
    role = "  Role R = a -> M where { " + role_locals + " }\n" if role_locals else "  Role R = a -> R [] TICK\n"
    return (
        "Configuration W\nComponent T\n" + port + "  Computation = In.a -> Computation [] TICK\n"
        "Connector K\n" + role + "  Glue = R.a -> Glue [] TICK\n"
        "Instances\n  A : T\n  B : K\nAttachments\n  A.In As B.R\nEnd Configuration"
    )


def test_repeated_where_local_violates_rule1_at_the_repeat():
    port_col = len("  Port In = a -> L where { ") + 1
    role_col = len("  Role R = a -> M where { ") + 1
    cases = [
        # a local defined twice
        (_where_source("L = b -> In  L = c -> In"), [(3, port_col + len("L = b -> In  "))]),
        # a local named like its declaration
        (_where_source("L = b -> In  In = c -> L"), [(3, port_col + len("L = b -> In  "))]),
        (_where_source("", "M = b -> R  M = c -> R  M = TICK"),
         [(6, role_col + len("M = b -> R  ")), (6, role_col + len("M = b -> R  M = c -> R  "))]),
        (_where_source("", "R = b -> M  M = c -> R"), [(6, role_col)]),
        # a local named like a role, a port or a connector elsewhere
        (_where_source("L = b -> In  R = c -> In"), [(3, port_col + len("L = b -> In  "))]),
        (_where_source("", "M = b -> R  In = c -> R"), [(6, role_col + len("M = b -> R  "))]),
        (_where_source("", "K = b -> R"), [(6, role_col)]),
        # ... or like a port declared after it
        ("Style S\nComponent C\n  Port In = a -> Out where { Out = b -> In }\n  Port Out = c -> Out [] TICK\n"
         "  Computation = In.a -> Computation [] TICK\nConstraints\nEnd Style\n",
         [(3, len("  Port In = a -> Out where { ") + 1)]),
        (_where_source("L = b -> In  M = c -> In", "N = b -> R"), []),
    ]
    for source, positions in cases:
        spec, _ = parse_source(source)
        errors = [d for d in analyzer.analyze(spec) if d.severity == "error"]
        assert [(d.pos.line, d.pos.column) for d in errors] == positions, source
        assert all(d.rule == 1 and d.message == "***Identificateur Redondant***" for d in errors)


def test_each_rule_fixture_yields_exactly_its_rule():
    for n in range(1, 7):
        diags = analyze_fixture(f"rule{n}.wrt", strict=True)
        rules = error_rules(diags)
        assert rules == [n], f"rule{n}.wrt produced {[(d.rule, d.message) for d in diags]}"


def test_rule6_warning_by_default_error_when_strict():
    relaxed = analyze_fixture("rule6.wrt")
    assert all(d.severity == "warning" for d in relaxed)
    assert [d.rule for d in relaxed] == [6]
    strict = analyze_fixture("rule6.wrt", strict=True)
    assert [d.severity for d in strict] == ["error"]


def test_rule6_messages():
    diags = analyze_fixture("rule6.wrt")
    assert any("Port deja relier" in d.message for d in diags)
    unattached, _ = parse_source(
        "Configuration U\nComponent T\n  Port P = a -> P [] TICK\n"
        "  Computation = P.a -> Computation [] TICK\n"
        "Connector K\n  Role R = a -> R [] TICK\n  Glue = R.a -> Glue [] TICK\n"
        "Instances\n  A : T\n  K1 : K\nAttachments\nEnd Configuration"
    )
    diags = analyzer.analyze(unattached)
    messages = " ".join(d.message for d in diags)
    assert "Port non relier" in messages and "Role non relier" in messages
    assert all(d.rule == 6 for d in diags)


def test_rule4_type_membership_message():
    # Input is a real port, but of Btype, not of Atype
    spec, _ = parse_source(
        "Configuration M\nComponent Atype\n  Port Output = a -> Output [] TICK\n"
        "  Computation = Output.a -> Computation [] TICK\n"
        "Component Btype\n  Port Input = c -> Input [] TICK\n"
        "  Computation = Input.c -> Computation [] TICK\n"
        "Connector K\n  Role R = a -> R [] TICK\n  Glue = R.a -> Glue [] TICK\n"
        "Instances\n  A : Atype\n  B : Btype\n  K1 : K\n"
        "Attachments\n  A.Input As K1.R\nEnd Configuration"
    )
    diags = analyzer.analyze(spec)
    r4 = [d for d in diags if d.rule == 4]
    assert len(r4) == 1
    assert "L'Instance et l'Interface non pas le meme Type" in r4[0].message


def test_accepted_configuration_attaches_ports_and_roles_bijectively():
    spec, _ = parse_source(fixture_path("dt4.wrt").read_text())
    assert analyzer.analyze(spec, strict=True) == []
    ports = [(a.left.instance, a.left.point) for a in spec.attachments]
    roles = [(a.right.instance, a.right.point) for a in spec.attachments]
    assert len(set(ports)) == len(ports)
    assert len(set(roles)) == len(roles)


def test_analysis_is_deterministic_and_positioned():
    first = analyze_fixture("dt5.wrt")
    second = analyze_fixture("dt5.wrt")
    assert [str(d) for d in first] == [str(d) for d in second]
    for d in first:
        assert isinstance(d.pos, SourcePos)
        assert d.pos.line >= 1 and d.pos.column >= 1


def test_style_container_name_may_match_a_type_name():
    # Style Double declares Component Double; the container name does not
    # count as a clashing architectural element
    diags = analyze_fixture("double.wrt")
    assert diags == []


def test_a_role_attached_twice_breaks_rule6_at_the_second_attachment():
    spec, _ = parse_source(
        "Configuration Twice\nComponent T\n  Port P = a -> P [] TICK\n  Computation = P.a -> Computation [] TICK\n"
        "Connector K\n  Role R = a -> R [] TICK\n  Glue = R.a -> Glue [] TICK\n"
        "Instances\n  A : T\n  B : T\n  K1 : K\nAttachments\n  A.P As K1.R\n  B.P As K1.R\nEnd Configuration\n"
    )
    assert [str(d) for d in analyzer.analyze(spec)] == ["14:3: warning: rule=6 ***Role deja relier***"]
    assert [str(d) for d in analyzer.analyze(spec, strict=True)] == ["14:3: error: rule=6 ***Role deja relier***"]
