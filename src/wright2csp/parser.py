"""Lexer and recursive-descent parser for the Wright concrete syntax.

Accepted input is a single Style or Configuration.  Keywords are matched
case-insensitively (inputs in the wild spell them both ways); identifiers are
case-sensitive.  A leading underscore on a name in event position marks the
event as initiated.  ``//`` starts a comment running to end of line, and the
body of a Constraints clause is skipped without lexing.

The lexer is one compiled pattern, matched once per token: the blanks and
comments before it, then a named group per token class.  Line and column come
from counting the newlines passed over.
Process expressions nest at most ``MAX_NESTING`` levels.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from .model import (
    Attachment,
    ArchSpec,
    Component,
    Configuration,
    Connector,
    DeclKind,
    Declaration,
    EventRef,
    ExternalChoice,
    InterfaceRef,
    InternalChoice,
    Instance,
    Prefix,
    ProcessExpr,
    Ref,
    SourcePos,
    Style,
    SUCCESS,
    Success,
    Empty,
    Choice,
)

KEYWORDS = {
    "style",
    "configuration",
    "component",
    "connector",
    "port",
    "role",
    "computation",
    "glue",
    "instances",
    "attachments",
    "end",
    "constraints",
    "as",
    "where",
    "tick",
    "skip",
}


# Deepest process expression accepted, one level per prefix, choice or
# parenthesised group: deeper input would overflow Python's default 1000-frame
# stack in the parser (three frames per parenthesis) or in later tree walks.
MAX_NESTING = 200


class ParseError(Exception):
    def __init__(self, pos: SourcePos, message: str) -> None:
        super().__init__(f"{pos}: {message}")
        self.pos = pos
        self.message = message


class TokKind(Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    DOTTED = "dotted"       # value is (first, second)
    INITEVENT = "initevent"  # value is (name, scope-or-None)
    ARROW = "->"
    ECHOICE = "[]"
    ICHOICE = "|~|"
    EQUALS = "="
    DOT = "."
    COMMA = ","
    COLON = ":"
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    EOF = "eof"


class Token(NamedTuple):
    kind: TokKind
    value: object
    pos: SourcePos
    text: str = ""  # original spelling (keywords are matched case-folded)

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.value!r}, {self.pos})"


# Blanks and comments, then one alternative per token class; ``lastgroup``
# names the class matched, and is None where no token follows the blanks (end
# of input or an illegal character).  ``\w`` is exactly ``str.isalnum`` plus
# ``_``.  ``[^\W\d]`` also admits numerals that are not letters, such as '²',
# which ``tokenize`` rejects.
_TOKEN_RE = re.compile(
    r"((?:[ \t\r\n]+|//[^\n]*)*)"
    r"(?:_(?P<event>\w+)(?:\.(?P<scoped>[^\W\d]\w*))?"
    r"|(?P<word>[^\W\d]\w*)(?:\.(?P<dotted>[^\W\d]\w*))?"
    r"|(?P<op>->|\[\]|\|~\||[=.,:(){}]))?"
)
_OPS = {k.value: k for k in TokKind}
# A Constraints body ends at the first identifier spelled `end` in any case.
# Characters that cannot start an identifier (digits, as in `1end`) are not
# part of it; the group must hold no letter or underscore.
_END_RE = re.compile(r"(?<!\w)(\w*?)[eE][nN][dD](?!\w)")


def _constraints_end(source: str, i: int) -> int:
    for m in _END_RE.finditer(source, i):
        if not any(c.isalpha() or c == "_" for c in m[1]):
            return m.end(1)
    return len(source)


def _illegal_character(source: str, j: int, line: int, line_start: int) -> ParseError:
    return ParseError(SourcePos(line, j - line_start + 1), f"illegal character {source[j]!r}")


def tokenize(source: str) -> list[Token]:
    """Split Wright source into tokens; the list always ends with EOF."""
    out: list[Token] = []
    i, line, line_start = 0, 1, 0
    counted = 0  # ``line`` counts the newlines before this offset
    while True:
        m = _TOKEN_RE.match(source, i)
        start = m.end(1)
        # the previous token holds newlines only if it skipped a Constraints body
        newlines = source.count("\n", counted, start)
        if newlines:
            line += newlines
            line_start = source.rindex("\n", counted, start) + 1
        counted = start
        pos = SourcePos(line, start - line_start + 1)
        kind = m.lastgroup
        if kind is None:
            if start == len(source):
                out.append(Token(TokKind.EOF, None, pos))
                return out
            raise _illegal_character(source, start, line, line_start)
        i = m.end()
        if kind == "op":
            out.append(Token(_OPS[m["op"]], m["op"], pos))
        elif kind == "event":
            out.append(Token(TokKind.INITEVENT, (m["event"], None), pos))
        elif kind == "scoped":
            c = m["scoped"][0]
            if not (c.isalpha() or c == "_"):
                raise _illegal_character(source, m.start("scoped"), line, line_start)
            out.append(Token(TokKind.INITEVENT, (m["scoped"], m["event"]), pos))
        else:
            word = m["word"]
            c = word[0]
            if not (c.isalpha() or c == "_"):
                raise _illegal_character(source, start, line, line_start)
            low = word.lower()
            if low in KEYWORDS:
                # `Glue.a` is KEYWORD, DOT, IDENT: re-lex from after the word
                out.append(Token(TokKind.KEYWORD, low, pos, word))
                i = m.end("word")
                if low == "constraints":
                    i = _constraints_end(source, i)
            elif kind == "dotted":
                c = m["dotted"][0]
                if not (c.isalpha() or c == "_"):
                    raise _illegal_character(source, m.start("dotted"), line, line_start)
                out.append(Token(TokKind.DOTTED, (word, m["dotted"]), pos))
            else:
                out.append(Token(TokKind.IDENT, word, pos))


class Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, tokens: list[Token]) -> None:
        self.toks = tokens
        self.k = 0
        self.warnings: list[str] = []

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[self.k + ahead]

    def next(self) -> Token:
        t = self.peek()
        if t.kind is not TokKind.EOF:
            self.k += 1
        return t

    def at_keyword(self, *words: str) -> bool:
        t = self.peek()
        return t.kind is TokKind.KEYWORD and t.value in words

    def expect_keyword(self, word: str) -> Token:
        t = self.peek()
        if not self.at_keyword(word):
            raise ParseError(t.pos, f"expected '{word}', found {_show(t)}")
        return self.next()

    def expect(self, kind: TokKind) -> Token:
        t = self.peek()
        if t.kind is not kind:
            raise ParseError(t.pos, f"expected {kind.value!r}, found {_show(t)}")
        return self.next()

    def expect_ident(self) -> tuple[str, SourcePos]:
        t = self.peek()
        if t.kind is not TokKind.IDENT:
            raise ParseError(t.pos, f"expected identifier, found {_show(t)}")
        self.next()
        return str(t.value), t.pos

    # -- grammar -----------------------------------------------------------

    def parse_spec(self) -> ArchSpec:
        if self.at_keyword("style"):
            spec = self.parse_style()
        elif self.at_keyword("configuration"):
            spec = self.parse_configuration()
        else:
            t = self.peek()
            raise ParseError(t.pos, f"expected 'Style' or 'Configuration', found {_show(t)}")
        t = self.peek()
        if t.kind is not TokKind.EOF:
            raise ParseError(t.pos, f"trailing input after specification: {_show(t)}")
        return spec

    def parse_style(self) -> Style:
        start = self.expect_keyword("style")
        name, _ = self.expect_ident()
        types = self.parse_type_decls()
        self.expect_keyword("constraints")
        self.expect_keyword("end")
        self.expect_keyword("style")
        return Style(name=name, types=types, pos=start.pos)

    def parse_configuration(self) -> Configuration:
        start = self.expect_keyword("configuration")
        name, _ = self.expect_ident()
        types = self.parse_type_decls()
        self.expect_keyword("instances")
        instances: list[Instance] = []
        while self.peek().kind is TokKind.IDENT:
            instances.extend(self.parse_instance_line())
        self.expect_keyword("attachments")
        attachments: list[Attachment] = []
        while self.peek().kind is TokKind.DOTTED:
            attachments.append(self.parse_attachment())
        self.expect_keyword("end")
        self.expect_keyword("configuration")
        return Configuration(name, types, instances, attachments, pos=start.pos)

    def parse_type_decls(self) -> list[Component | Connector]:
        types: list[Component | Connector] = []
        while True:
            if self.at_keyword("component"):
                types.append(self.parse_component())
            elif self.at_keyword("connector"):
                types.append(self.parse_connector())
            else:
                return types

    def parse_component(self) -> Component:
        start = self.expect_keyword("component")
        name, _ = self.expect_ident()
        ports: list[Declaration] = []
        while self.at_keyword("port"):
            pkw = self.next()
            pname, _ = self.expect_ident()
            self.expect(TokKind.EQUALS)
            body, locals_ = self.parse_process_with_where()
            ports.append(Declaration(DeclKind.PORT, pname, body, locals_, pkw.pos))
        if not ports:
            raise ParseError(self.peek().pos, f"component {name} declares no ports")
        ckw = self.expect_keyword("computation")
        self.expect(TokKind.EQUALS)
        body, locals_ = self.parse_process_with_where()
        computation = Declaration(DeclKind.COMPUTATION, "Computation", body, locals_, ckw.pos)
        return Component(name, ports, computation, pos=start.pos)

    def parse_connector(self) -> Connector:
        start = self.expect_keyword("connector")
        name, _ = self.expect_ident()
        roles: list[Declaration] = []
        while self.at_keyword("role"):
            rkw = self.next()
            rname, _ = self.expect_ident()
            self.expect(TokKind.EQUALS)
            body, locals_ = self.parse_process_with_where()
            roles.append(Declaration(DeclKind.ROLE, rname, body, locals_, rkw.pos))
        if not roles:
            raise ParseError(self.peek().pos, f"connector {name} declares no roles")
        gkw = self.expect_keyword("glue")
        self.expect(TokKind.EQUALS)
        body, locals_ = self.parse_process_with_where()
        glue = Declaration(DeclKind.GLUE, "Glue", body, locals_, gkw.pos)
        return Connector(name, roles, glue, pos=start.pos)

    def parse_instance_line(self) -> list[Instance]:
        names: list[tuple[str, SourcePos]] = [self.expect_ident()]
        while self.peek().kind is TokKind.COMMA:
            self.next()
            names.append(self.expect_ident())
        self.expect(TokKind.COLON)
        tname, _ = self.expect_ident()
        return [Instance(n, tname, p) for n, p in names]

    def parse_attachment(self) -> Attachment:
        left = self.parse_interface()
        self.expect_keyword("as")
        right = self.parse_interface()
        return Attachment(left, right, pos=left.pos)

    def parse_interface(self) -> InterfaceRef:
        t = self.peek()
        if t.kind is not TokKind.DOTTED:
            raise ParseError(t.pos, f"expected instance.point interface, found {_show(t)}")
        self.next()
        inst, point = t.value  # type: ignore[misc]
        return InterfaceRef(inst, point, t.pos)

    def parse_process_with_where(self) -> tuple[ProcessExpr, list[Declaration]]:
        body, _ = self.parse_proc_expr()
        locals_: list[Declaration] = []
        if self.at_keyword("where"):
            self.next()
            self.expect(TokKind.LBRACE)
            while self.peek().kind is TokKind.IDENT:
                lname, lpos = self.expect_ident()
                self.expect(TokKind.EQUALS)
                lbody, _ = self.parse_proc_expr()
                locals_.append(Declaration(DeclKind.WHERE_LOCAL, lname, lbody, [], lpos))
            self.expect(TokKind.RBRACE)
        return body, locals_

    # The expression parsers take the level of the node they parse (the root
    # is level 1) and return the node with its height in levels.

    def _check_nesting(self, t: Token, level: int) -> None:
        if level > MAX_NESTING:
            raise ParseError(t.pos, f"process expression nested deeper than {MAX_NESTING} levels")

    def parse_proc_expr(self, level: int = 1) -> tuple[ProcessExpr, int]:
        left, height = self.parse_prefix_expr(level)
        ops_seen: set[TokKind] = set()
        while self.peek().kind in (TokKind.ECHOICE, TokKind.ICHOICE):
            op = self.next()
            ops_seen.add(op.kind)
            if len(ops_seen) == 2:
                self.warnings.append(
                    f"{op.pos}: '[]' and '|~|' mixed at the same level without "
                    "parentheses; grouping left-to-right"
                )
                ops_seen = {op.kind}
            right, right_height = self.parse_prefix_expr(level + 1)
            # each operator pushes the whole chain so far one level down
            height = max(height, right_height) + 1
            self._check_nesting(op, level + height - 1)
            cls = ExternalChoice if op.kind is TokKind.ECHOICE else InternalChoice
            left = cls(left, right)
        return left, height

    def parse_prefix_expr(self, level: int) -> tuple[ProcessExpr, int]:
        t = self.peek()
        self._check_nesting(t, level)
        if t.kind is TokKind.INITEVENT:
            name, scope = t.value  # type: ignore[misc]
            ev = EventRef(name, True, (scope,) if scope else ())
        elif t.kind is TokKind.DOTTED:
            first, second = t.value  # type: ignore[misc]
            ev = EventRef(second, False, (first,))
        elif t.kind is TokKind.IDENT and self.peek(1).kind is TokKind.ARROW:
            ev = EventRef(str(t.value), False, ())
        else:
            return self.parse_atom(level)
        self.next()
        self.expect(TokKind.ARROW)
        rest, height = self.parse_prefix_expr(level + 1)
        return Prefix(ev, rest), height + 1

    def parse_atom(self, level: int) -> tuple[ProcessExpr, int]:
        t = self.peek()
        if t.kind is TokKind.KEYWORD and t.value in ("tick", "skip"):
            self.next()
            return SUCCESS, 1
        if t.kind is TokKind.KEYWORD and t.value in ("glue", "computation"):
            # the glue/computation processes may refer to themselves by name
            self.next()
            return Ref(t.text), 1
        if t.kind is TokKind.IDENT:
            self.next()
            return Ref(str(t.value)), 1
        if t.kind is TokKind.LPAREN:
            self.next()
            inner, height = self.parse_proc_expr(level + 1)
            self.expect(TokKind.RPAREN)
            return inner, height + 1
        raise ParseError(t.pos, f"expected a process expression, found {_show(t)}")


def _show(t: Token) -> str:
    if t.kind is TokKind.EOF:
        return "end of input"
    if t.kind is TokKind.KEYWORD:
        return f"keyword '{t.value}'"
    if t.kind is TokKind.DOTTED:
        a, b = t.value  # type: ignore[misc]
        return f"'{a}.{b}'"
    if t.kind is TokKind.INITEVENT:
        name, scope = t.value  # type: ignore[misc]
        return "'_" + (f"{scope}.{name}'" if scope else f"{name}'")
    return f"'{t.value}'"


def parse_source(source: str) -> tuple[ArchSpec, list[str]]:
    """Parse a whole file; returns the spec and any parser warnings."""
    p = Parser(tokenize(source))
    spec = p.parse_spec()
    return spec, p.warnings


# --- canonical Wright printing (round-trip support) -------------------------


def _event_src(e: EventRef) -> str:
    return ("_" if e.initiated else "") + e.qualified


def _expr_src(expr: ProcessExpr) -> str:
    if isinstance(expr, Prefix):
        return f"{_event_src(expr.event)} -> {_operand_src(expr.rest)}"
    if isinstance(expr, Choice):
        op = "[]" if isinstance(expr, ExternalChoice) else "|~|"
        return f"{_operand_src(expr.left, type(expr))} {op} {_operand_src(expr.right)}"
    if isinstance(expr, Ref):
        return expr.name
    if isinstance(expr, Success):
        return "TICK"
    if isinstance(expr, Empty):
        return "SKIP"
    raise TypeError(f"unprintable expression {expr!r}")


def _operand_src(expr: ProcessExpr, spine: type | None = None) -> str:
    """An operand, parenthesised only where the parser needs it.

    A prefix binds tighter than a choice, and a chain of one choice operator
    groups to the left, so only a choice that is not the left operand of the
    same operator (``spine``) needs parentheses.  Printed text thus nests no
    deeper than the text it was parsed from, except that a chain mixing both
    operators without parentheses gains one group per switch.
    """
    text = _expr_src(expr)
    return f"({text})" if isinstance(expr, Choice) and type(expr) is not spine else text


def _decl_src(label: str, decl: Declaration, indent: str) -> list[str]:
    lines = [f"{indent}{label} = {_expr_src(decl.body)}"]
    if decl.locals:
        lines[-1] += " where {"
        for loc in decl.locals:
            lines.append(f"{indent}  {loc.name} = {_expr_src(loc.body)}")
        lines.append(f"{indent}}}")
    return lines


def to_wright(spec: ArchSpec) -> str:
    """Render a parsed spec back to canonical Wright source."""
    lines: list[str] = []
    if isinstance(spec, Style):
        lines.append(f"Style {spec.name}")
    else:
        lines.append(f"Configuration {spec.name}")
    for t in spec.types:
        if isinstance(t, Component):
            lines.append(f"Component {t.name}")
            for p in t.ports:
                lines.extend(_decl_src(f"Port {p.name}", p, "  "))
            lines.extend(_decl_src("Computation", t.computation, "  "))
        else:
            lines.append(f"Connector {t.name}")
            for r in t.roles:
                lines.extend(_decl_src(f"Role {r.name}", r, "  "))
            lines.extend(_decl_src("Glue", t.glue, "  "))
    if isinstance(spec, Style):
        lines.append("Constraints")
        lines.append("  // no constraints")
        lines.append("End Style")
    else:
        lines.append("Instances")
        for inst in spec.instances:
            lines.append(f"  {inst.name} : {inst.type_name}")
        lines.append("Attachments")
        for att in spec.attachments:
            lines.append(f"  {att.left} As {att.right}")
        lines.append("End Configuration")
    return "\n".join(lines) + "\n"
