import hashlib
import random
import string

import pytest

from conftest import FIXTURES, fixture_path, perfbench_workloads
from oracles import reference_tokenize
from wright2csp import parser
from wright2csp.model import (
    EMPTY,
    Component,
    Configuration,
    Connector,
    ExternalChoice,
    InternalChoice,
    Prefix,
    Ref,
    SUCCESS,
    Style,
    Success,
)
from wright2csp.parser import (
    ARROW,
    COLON,
    COMMA,
    DOT,
    DOTTED,
    ECHOICE,
    EOF,
    EQUALS,
    ICHOICE,
    IDENT,
    INITEVENT,
    KEYWORD,
    LBRACE,
    LPAREN,
    MAX_NESTING,
    ParseError,
    Parser,
    RBRACE,
    RPAREN,
    parse_source,
    to_wright,
    tokenize,
)


def parse_text(text: str):
    spec, _ = parse_source(text)
    return spec


def _stream(toks):
    """(kind, value, position) of every token of a ``Tokens``."""
    return [(kind, value, toks.pos_at(start)) for kind, value, start in zip(toks.kinds, toks.values, toks.starts)]


def test_tokenize_initiated_and_operators():
    toks = tokenize("_a -> Output |~| TICK")
    kinds = [INITEVENT, ARROW, IDENT, ICHOICE, KEYWORD, EOF]
    assert toks.kinds == kinds
    assert toks.values[0] == ("a", None)
    assert toks.values[4] == "tick" and toks.text(4) == "TICK"


def test_tokenize_empty():
    assert tokenize("").kinds == [EOF]


def test_tokenize_dotted_and_scoped_initiated():
    toks = tokenize("Glue = Origin.a -> _Target.c -> Glue [] TICK")
    assert toks.values[0] == "glue"
    assert toks.kinds[2] is DOTTED and toks.values[2] == ("Origin", "a")
    assert toks.kinds[4] is INITEVENT and toks.values[4] == ("c", "Target")


def test_tokenize_comments_and_positions():
    toks = tokenize("// hi\nPort In")
    assert toks.values[0] == "port"
    pos = toks.pos_at(toks.starts[0])
    assert (pos.line, pos.column) == (2, 1)
    assert toks.pos_at(toks.starts[1]).column == 6


def test_tokenize_illegal_character():
    with pytest.raises(ParseError):
        tokenize("Port $ = TICK")


# Wright fragments for random token soup, with the lexer's edge cases.
WRIGHT_FRAGMENTS = (
    "Style", "configuration", "COMPONENT", "Connector", "port", "Role", "Computation",
    "Glue", "glue", "Instances", "Attachments", "End", "end", "END", "As", "where",
    "TICK", "skip", "Constraints", "constraints", "a", "In", "x1", "é", "Ω", "²", "Ωa",
    "aé", "a²", "½", "Ⅻ", "_", "__", "_1", "_a", "_end", "xend", "1end", "²end", "½end",
    "1", "42", "a.b", "a.1", "a._", "_a._b", "_a.1", "Glue.x", "End.y", "a.²", "_a.²", "In.read",
    "->", "[]", "|~|", "=", ".", ",", ":", "(", ")", "{", "}", "-", ">", "[", "]",
    "|", "~", "/", "//", "// note", "// end", "$", "\f", " ", "  ", "\t", "\n", "\r\n",
    "\r", "Constraints // x\n y 1end", "constraints x.1end", "Constraints a²end b",
    "s\u212aip", "\u017ftyle", "\u0130nstances", "Glue.a.b", "_a.b.c", "\xa0", "\v", "a\u0301",
)


def _lex_outcome(lex, text):
    try:
        return lex(text)
    except ParseError as exc:
        return str(exc)


def _reference_stream(text):
    return [(t.kind, t.value, t.pos) for t in reference_tokenize(text)]


def test_tokenize_matches_reference_lexer():
    sources = [path.read_text() for path in sorted(FIXTURES.glob("*.wrt"))]
    sources += [to_wright(parse_text(text)) for text in list(sources)]
    rng = random.Random(2012)
    for _ in range(5000):
        frags = rng.choices(WRIGHT_FRAGMENTS, k=rng.randint(0, 25))
        sources.append(rng.choice(("", " ", "")).join(frags))
    errors = 0
    for text in sources:
        got = _lex_outcome(lambda t: _stream(tokenize(t)), text)
        assert got == _lex_outcome(_reference_stream, text), repr(text)
        errors += isinstance(got, str)
    assert 1000 < errors < len(sources) - 1000  # both outcomes well covered


def test_parse_source_tokenizes_once_through_the_module_attribute(monkeypatch):
    # the benchmark's tracer times `parser.tokenize` by replacing the attribute
    calls = []

    def counting(source):
        calls.append(source)
        return tokenize(source)

    monkeypatch.setattr(parser, "tokenize", counting)
    source = fixture_path("dt3.wrt").read_text()
    parse_source(source)
    assert calls == [source]


def test_token_count_matches_reference_lexer():
    # the whole (kind, value, position) stream, not only the count
    sources = [path.read_text() for path in sorted(FIXTURES.glob("*.wrt"))]
    sources.append(next(perfbench_workloads().blocks("translate", 1))[0].source)
    for text in sources:
        assert _stream(tokenize(text)) == _reference_stream(text)


# Every kind constant of the parser; kinds are strings compared by identity.
TOKEN_KINDS = (KEYWORD, IDENT, DOTTED, INITEVENT, EOF, ARROW, ECHOICE, ICHOICE, EQUALS, DOT, COMMA, COLON,
               LPAREN, RPAREN, LBRACE, RBRACE)


def test_every_token_kind_is_a_kind_constant():
    # the parser tests kinds with `is`: an equal string that is not the
    # constant itself would read as no kind at all
    assert len(set(TOKEN_KINDS)) == len(TOKEN_KINDS)
    constants = {id(kind) for kind in TOKEN_KINDS}
    sources = [path.read_text() for path in sorted(FIXTURES.glob("*.wrt"))]
    sources.append(next(perfbench_workloads().blocks("translate", 1))[0].source)
    for text in sources:
        toks = tokenize(text)
        assert all(id(kind) in constants for kind in toks.kinds)
        # the benchmark's tracer counts tokens with len()
        assert len(toks) == len(toks.kinds) == len(toks.values) == len(toks.starts)


def _parse_outcome(text):
    """The parsed spec's repr, every record's position included, and the
    parse warnings; or the ``ParseError`` text."""
    try:
        spec, warnings = parse_source(text)
    except ParseError as exc:
        return f"error {exc}"
    return "\n".join([repr(spec), *map(str, warnings)])


def test_parse_results_are_pinned():
    # the digest was taken before the lexer and parser were rewritten for speed,
    # and retaken when attachments gained their ``port`` and ``role`` fields
    # (None after parsing): deleting ", port=None, role=None" from every
    # repr gives the digest of before, 17fe3d2e...e8079.  Retaken again when a
    # choice came to hold its run of branches: printing each choice as the
    # left fold ``ExternalChoice(left=ExternalChoice(left=b1, right=b2),
    # right=b3)`` of its branches gives the digest of before, b8cc2199...3a3f.
    # Retaken when an attachment dropped its ``pos``, always its left end's:
    # printing ", pos=" and the left end's position before ", port=" in
    # every attachment's repr gives the digest of before, f68e179a...e94c
    workloads = perfbench_workloads()
    sources = [path.read_text() for path in sorted(FIXTURES.glob("*.wrt"))]
    sources += [workloads.pipeline_case(5, "t", fail).source for fail in (False, True)]
    sources += [workloads.star_case(3, "t", fail_role).source for fail_role in (None, 2)]
    sources.append(next(workloads.blocks("translate", 1))[0].source)
    digest = hashlib.sha256()
    for text in sources:
        digest.update(_parse_outcome(text).encode() + b"\0")
    assert digest.hexdigest() == "49a7e54843df2da42282158dcce9f9fe27395bde730fcd034e056ce90b6c5149"


def test_parse_dt1_structure():
    spec = parse_text(fixture_path("dt1.wrt").read_text())
    assert isinstance(spec, Style)
    assert spec.name == "ClientServer"
    (conn,) = spec.types
    assert isinstance(conn, Connector)
    assert conn.name == "CSconnector"
    assert [r.name for r in conn.roles] == ["Client", "Server"]
    assert isinstance(conn.roles[0].body, InternalChoice)
    assert isinstance(conn.roles[1].body, ExternalChoice)


def test_parse_port_choice_shape():
    spec = parse_text(
        "Style S\nComponent C\n  Port In = read -> In [] close -> TICK\n"
        "  Computation = In.read -> Computation [] In.close -> TICK\n"
        "Constraints\nEnd Style"
    )
    port = spec.types[0].ports[0]
    body = port.body
    assert isinstance(body, ExternalChoice) and len(body.branches) == 2
    assert body.branches[0] == Prefix(body.branches[0].event, Ref("In"))
    assert body.branches[0].event == "read"
    assert isinstance(body.branches[1].rest, Success)


def test_parse_where_clause_locals():
    spec = parse_text(fixture_path("pipeconn.wrt").read_text())
    reader = spec.types[0].roles[1]
    assert [d.name for d in reader.locals] == ["DoRead", "ExitOnly"]
    assert isinstance(reader.body, InternalChoice)
    glue = spec.types[0].glue
    assert [d.name for d in glue.locals] == ["ReadOnly", "WriteOnly"]


def test_parse_configuration_instances_and_attachments():
    spec = parse_text(fixture_path("dt3.wrt").read_text())
    assert isinstance(spec, Configuration)
    assert [(i.name, i.type_name) for i in spec.instances] == [
        ("A", "Atype"),
        ("B", "Btype"),
        ("C", "Ctype"),
    ]
    att = spec.attachments[0]
    assert (att.left.instance, att.left.point) == ("A", "Output")
    assert (att.right.instance, att.right.point) == ("C", "Origin")


def test_multiple_instance_names_per_line():
    spec = parse_text(
        "Configuration Multi\nComponent T\n  Port P = a -> P [] TICK\n"
        "  Computation = P.a -> Computation [] TICK\n"
        "Connector K\n  Role R = a -> R [] TICK\n  Glue = R.a -> Glue [] TICK\n"
        "Instances\n  P1,P2 : T\n  K1 : K\nAttachments\n  P1.P As K1.R\nEnd Configuration"
    )
    assert [i.name for i in spec.instances] == ["P1", "P2", "K1"]
    assert all(i.type_name == "T" for i in spec.instances[:2])


def test_skip_accepted_for_tick():
    spec = parse_text(
        "Style S\nComponent C\n  Port P = a -> SKIP\n  Computation = P.a -> SKIP\nConstraints\nEnd Style"
    )
    port = spec.types[0].ports[0]
    assert isinstance(port.body.rest, Success)


def test_keywords_case_insensitive():
    spec = parse_text(
        "style s\ncomponent C\n  port P = a -> P [] tick\n  computation = P.a -> Computation [] tick\n"
        "constraints\n // junk skipped here\nend style"
    )
    assert spec.types[0].ports[0].name == "P"


def test_mixed_choice_operators_warn():
    p = Parser(tokenize("Style S\nConnector K\n  Role R = a -> R [] b -> R |~| TICK\n"
                        "  Glue = R.a -> Glue [] TICK\nConstraints\nEnd Style"))
    p.parse_spec()
    assert [(w.severity, str(w.pos)) for w in p.warnings] == [("warning", "3:29")]
    assert p.warnings[0].message == (
        "'[]' and '|~|' mixed at the same level without parentheses; grouping left-to-right"
    )


def test_mixed_choice_warning_is_at_each_operator_that_switches():
    p = Parser(tokenize("Style S\nConnector K\n"
                        "  Role R = a -> R [] b -> R |~| TICK |~| c -> R [] (d -> R |~| TICK)\n"
                        "  Glue = R.a -> Glue [] TICK\nConstraints\nEnd Style"))
    p.parse_spec()
    assert [str(w.pos) for w in p.warnings] == ["3:29", "3:49"]
    assert len({w.message for w in p.warnings}) == 1 and "mixed" in p.warnings[0].message


def parse_role(text):
    return parse_text(f"Style S\nConnector K\n  Role R = {text}\n  Glue = TICK\nConstraints\nEnd Style")


@pytest.mark.parametrize(
    "body",
    [
        lambda levels: "a -> " * (levels - 1) + "TICK",
        # operators that switch at every step: each switch nests the run so far one level down
        lambda levels: "TICK" + "".join(f" {('[]', '|~|')[i % 2]} TICK" for i in range(levels - 1)),
        lambda levels: "(" * (levels - 1) + "TICK" + ")" * (levels - 1),
    ],
    ids=["prefix", "choice", "parentheses"],
)
def test_nesting_limit_is_exact(body):
    parse_role(body(MAX_NESTING))
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING} levels"):
        parse_role(body(MAX_NESTING + 1))


@pytest.mark.parametrize("op, cls", [("[]", ExternalChoice), ("|~|", InternalChoice)])
def test_a_flat_choice_of_any_length_is_one_node(op, cls):
    body = parse_role(f" {op} ".join(f"e{i} -> R" for i in range(5000)) + f" {op} TICK").types[0].roles[0].body
    assert type(body) is cls and len(body.branches) == 5001
    assert body.branches[0] == Prefix("e0", Ref("R")) and body.branches[-1] == SUCCESS
    # a run is one level and its branches one more, however many they are
    run = f" {op} ".join(["TICK"] * 5000)
    parse_role("(" * (MAX_NESTING - 2) + run + ")" * (MAX_NESTING - 2))
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING} levels"):
        parse_role("(" * (MAX_NESTING - 1) + run + ")" * (MAX_NESTING - 1))


# (a shape of n steps, the n to read back): a flat run has no largest n the
# parser accepts, so it is read back at 5 000; for None, that largest n is searched
@pytest.mark.parametrize(
    "body, flat",
    [
        (lambda n: "a -> " * n + "TICK", None),
        (lambda n: " [] ".join(f"e{i} -> R" for i in range(n)), 5000),
        (lambda n: " |~| ".join(f"_e{i} -> R" for i in range(n)), 5000),
        (lambda n: "a -> (R [] " * n + "TICK" + ")" * n, None),
        (lambda n: "R [] (" * n + "TICK" + ")" * n, None),
        (lambda n: "(" * n + "R" + "".join(f" {('[]', '|~|')[i % 2]} R)" for i in range(n)), None),
    ],
    ids=["prefix", "external", "internal", "choice-under-prefix", "right-operand", "alternating"],
)
def test_printed_text_parses_to_the_same_body_up_to_the_nesting_limit(body, flat):
    n = flat
    if n is None:
        n = 1
        while True:  # the largest n the parser accepts
            try:
                parse_role(body(n + 1))
            except ParseError:
                break
            n += 1
        assert n >= MAX_NESTING // 4
    for k in (1, 2, n):
        spec = parse_role(body(k))
        reparsed = parse_role(to_wright(spec).split("Role R = ")[1].split("\n")[0])
        assert repr(reparsed.types[0].roles[0].body) == repr(spec.types[0].roles[0].body), k


def test_stop_is_unprintable_rather_than_printed_as_success():
    # Wright spells no STOP; printed as SKIP, it would read back as successful termination
    spec = parse_text("Style S\nConnector K\n  Role R = TICK\n  Glue = TICK\nConstraints\nEnd Style")
    spec.types[0].roles[0].body = Prefix("a", EMPTY)
    with pytest.raises(TypeError, match="unprintable expression"):
        to_wright(spec)


def test_parse_error_has_position_and_stops():
    with pytest.raises(ParseError) as err:
        parse_text("Style S\nComponent C\n  Port P = ->\nConstraints\nEnd Style")
    assert err.value.pos.line == 3


@pytest.mark.parametrize(
    "source, message",
    [
        ("Style S\nComponent C\n  Computation = TICK\nConstraints\nEnd Style", "3:3: component C declares no ports"),
        ("Style S\nConnector K\n  Glue = TICK\nConstraints\nEnd Style", "3:3: connector K declares no roles"),
    ],
)
def test_a_type_without_interface_points_is_a_parse_error(source, message):
    with pytest.raises(ParseError) as err:
        parse_text(source)
    assert str(err.value) == message


def test_an_instance_line_missing_a_name_is_a_parse_error():
    source = (
        "Configuration Cfg\nComponent T\n  Port P = a -> P [] TICK\n"
        "  Computation = P.a -> Computation [] TICK\nInstances\n  x, : A\nAttachments\nEnd Configuration"
    )
    with pytest.raises(ParseError) as err:
        parse_text(source)
    assert str(err.value) == "6:6: expected identifier, found ':'"


def test_roundtrip_fixture_files():
    for name in (
        "dt1.wrt",
        "dt2.wrt",
        "dt3.wrt",
        "dt4.wrt",
        "dt5.wrt",
        "pipeconn.wrt",
        "double.wrt",
        "calculformule.wrt",
    ):
        spec = parse_text(fixture_path(name).read_text())
        printed = to_wright(spec)
        reparsed = parse_text(printed)
        assert to_wright(reparsed) == printed, name


def test_parser_never_panics_on_garbage():
    rng = random.Random(99)
    chars = string.ascii_letters + string.digits + " \n\t(){}[]|~>-=.,:_/$#é∀\x00"
    for _ in range(400):
        text = "".join(rng.choice(chars) for _ in range(rng.randint(0, 60)))
        try:
            parse_source(text)
        except ParseError:
            pass
    # keyword-shaped prefixes must fail cleanly too
    for text in ("Style", "Style X Component", "Configuration C Instances", "{|"):
        try:
            parse_source(text)
        except ParseError:
            pass
