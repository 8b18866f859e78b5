"""Lexer and recursive-descent parser for the Wright concrete syntax.

Accepted input is a single Style or Configuration.  Keywords are matched
case-insensitively (inputs in the wild spell them both ways); identifiers are
case-sensitive.  A leading underscore on a name in event position marks the
event as initiated.  ``//`` starts a comment running to end of line, and the
body of a Constraints clause is skipped without lexing.

The lexer is one compiled pattern, matched once per token: the blanks and
comments before it, then a named group per token class.  It builds no object
per token: it appends each token's kind, value and start offset to three
parallel lists, which the parser reads by index.  A line and column are
computed only where they are needed, for a node that stores a position or for
a diagnostic, by searching a table of line starts.
Process expressions nest at most ``MAX_NESTING`` levels.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from enum import Enum

from .model import (
    Attachment,
    ArchSpec,
    Component,
    Configuration,
    Connector,
    DeclKind,
    Declaration,
    Diagnostic,
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
    Choice,
    parts,
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

# A type's keyword -> its class, the kind of its interface points, the kind of its behaviour
_TYPES = {
    "component": (Component, DeclKind.PORT, DeclKind.COMPUTATION),
    "connector": (Connector, DeclKind.ROLE, DeclKind.GLUE),
}


# Deepest process expression accepted, one level per prefix, choice or
# parenthesised group: deeper input would overflow Python's default 1000-frame
# stack in the parser (three frames per parenthesis) or in later tree walks.
MAX_NESTING = 200
_TOO_DEEP = f"process expression nested deeper than {MAX_NESTING} levels"


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
_OPS = {k.value: (k, k.value) for k in TokKind}
# A Constraints body ends at the first identifier spelled `end` in any case.
# Characters that cannot start an identifier (digits, as in `1end`) are not
# part of it; the group must hold no letter or underscore.
_END_RE = re.compile(r"(?<!\w)(\w*?)[eE][nN][dD](?!\w)")


def _constraints_end(source: str, i: int) -> int:
    for m in _END_RE.finditer(source, i):
        if not any(c.isalpha() or c == "_" for c in m[1]):
            return m.end(1)
    return len(source)


class Tokens:
    """The token stream as parallel lists: the kind, value and start offset of
    each token.  ``len()`` is the token count, EOF included; a position is
    looked up in a table of line starts made on first use."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.kinds: list[TokKind] = []
        self.values: list[object] = []
        self.starts: list[int] = []
        self._line_starts: list[int] | None = None

    def __len__(self) -> int:
        return len(self.kinds)

    def text(self, k: int) -> str:
        """The spelling of keyword ``k``; its value is the same word case-folded."""
        start = self.starts[k]
        return self.source[start : start + len(self.values[k])]  # type: ignore[arg-type]

    def pos_at(self, offset: int) -> SourcePos:
        if self._line_starts is None:
            self._line_starts = [0] + [m.end() for m in re.finditer("\n", self.source)]
        line = bisect_right(self._line_starts, offset)
        return SourcePos(line, offset - self._line_starts[line - 1] + 1)


def tokenize(source: str) -> Tokens:
    """Split Wright source into tokens, ending with EOF: their kinds, values and
    start offsets go to parallel lists, and positions are computed on demand."""
    toks = Tokens(source)
    kind_of, value_of, start_of = toks.kinds.append, toks.values.append, toks.starts.append
    match, i = _TOKEN_RE.match, 0
    while True:
        m = match(source, i)
        start, i, kind = m.end(1), m.end(), m.lastgroup
        if kind == "op":
            tk, value = _OPS[m["op"]]
        elif kind == "event":
            tk, value = TokKind.INITEVENT, (m["event"], None)
        elif kind == "scoped":
            scoped = m["scoped"]
            if not (scoped[0].isalpha() or scoped[0] == "_"):
                raise _illegal_character(toks, m.start("scoped"))
            tk, value = TokKind.INITEVENT, (scoped, m["event"])
        elif kind is None:
            if start < len(source):
                raise _illegal_character(toks, start)
            tk, value = TokKind.EOF, None
        else:
            word = m["word"]
            if not (word[0].isalpha() or word[0] == "_"):
                raise _illegal_character(toks, start)
            value = word.lower()
            if value in KEYWORDS:
                # `Glue.a` is KEYWORD, DOT, IDENT: re-lex from after the word
                tk, i = TokKind.KEYWORD, m.end("word")
                if value == "constraints":
                    i = _constraints_end(source, i)
            elif kind == "dotted":
                dotted = m["dotted"]
                if not (dotted[0].isalpha() or dotted[0] == "_"):
                    raise _illegal_character(toks, m.start("dotted"))
                tk, value = TokKind.DOTTED, (word, dotted)
            else:
                tk, value = TokKind.IDENT, word
        kind_of(tk)
        value_of(value)
        start_of(start)
        if tk is TokKind.EOF:
            return toks


def _illegal_character(toks: Tokens, offset: int) -> ParseError:
    return ParseError(toks.pos_at(offset), f"illegal character {toks.source[offset]!r}")


class Parser:
    """Recursive-descent parser over the token stream, read by index ``k``."""

    def __init__(self, tokens: Tokens) -> None:
        self.toks = tokens
        self.kinds = tokens.kinds
        self.values = tokens.values
        self.k = 0
        self.warnings: list[Diagnostic] = []

    # -- token plumbing ----------------------------------------------------

    def pos(self, k: int | None = None) -> SourcePos:
        """Position of token ``k``, the current one by default."""
        return self.toks.pos_at(self.toks.starts[self.k if k is None else k])

    def error(self, message: str, k: int | None = None) -> ParseError:
        return ParseError(self.pos(k), message)

    def found(self) -> str:
        return _show(self.kinds[self.k], self.values[self.k])

    # A token is stepped past only once its kind is known, so never past EOF.

    def at_keyword(self, *words: str) -> bool:
        return self.kinds[self.k] is TokKind.KEYWORD and self.values[self.k] in words

    def expect_keyword(self, word: str) -> int:
        """Step past keyword ``word``; returns its index."""
        if not self.at_keyword(word):
            raise self.error(f"expected '{word}', found {self.found()}")
        self.k += 1
        return self.k - 1

    def expect(self, kind: TokKind) -> int:
        """Step past a token of ``kind``; returns its index."""
        k = self.k
        if self.kinds[k] is not kind:
            raise self.error(f"expected {kind.value!r}, found {self.found()}")
        self.k = k + 1
        return k

    def expect_ident(self) -> str:
        k = self.k
        if self.kinds[k] is not TokKind.IDENT:
            raise self.error(f"expected identifier, found {self.found()}")
        self.k = k + 1
        return self.values[k]  # type: ignore[return-value]

    # -- grammar -----------------------------------------------------------

    def parse_spec(self) -> ArchSpec:
        if self.at_keyword("style"):
            spec = self.parse_style()
        elif self.at_keyword("configuration"):
            spec = self.parse_configuration()
        else:
            raise self.error(f"expected 'Style' or 'Configuration', found {self.found()}")
        if self.kinds[self.k] is not TokKind.EOF:
            raise self.error(f"trailing input after specification: {self.found()}")
        return spec

    def parse_style(self) -> Style:
        pos = self.pos(self.expect_keyword("style"))
        name = self.expect_ident()
        types = self.parse_type_decls()
        self.expect_keyword("constraints")
        self.expect_keyword("end")
        self.expect_keyword("style")
        return Style(name=name, types=types, pos=pos)

    def parse_configuration(self) -> Configuration:
        pos = self.pos(self.expect_keyword("configuration"))
        name = self.expect_ident()
        types = self.parse_type_decls()
        self.expect_keyword("instances")
        instances: list[Instance] = []
        while self.kinds[self.k] is TokKind.IDENT:
            instances.extend(self.parse_instance_line())
        self.expect_keyword("attachments")
        attachments: list[Attachment] = []
        while self.kinds[self.k] is TokKind.DOTTED:
            attachments.append(self.parse_attachment())
        self.expect_keyword("end")
        self.expect_keyword("configuration")
        return Configuration(name, types, instances, attachments, pos=pos)

    def parse_type_decls(self) -> list[Component | Connector]:
        types: list[Component | Connector] = []
        while self.at_keyword("component", "connector"):
            types.append(self.parse_type())
        return types

    def parse_declaration(self, kind: DeclKind, named: bool) -> Declaration:
        """``Port P = ...``, ``Role R = ...``, ``Computation = ...`` or ``Glue = ...``."""
        pos = self.pos(self.expect_keyword(kind.value.lower()))
        name = self.expect_ident() if named else kind.value
        self.expect(TokKind.EQUALS)
        body, locals_ = self.parse_process_with_where()
        return Declaration(kind, name, body, locals_, pos)

    def parse_type(self) -> Component | Connector:
        """A component (ports, then the computation) or a connector (roles,
        then the glue); the current token is its keyword."""
        word = self.values[self.k]
        cls, point, main = _TYPES[word]  # type: ignore[index]
        pos = self.pos()
        self.k += 1
        name = self.expect_ident()
        points: list[Declaration] = []
        while self.at_keyword(point.value.lower()):
            points.append(self.parse_declaration(point, True))
        if not points:
            raise self.error(f"{word} {name} declares no {point.value.lower()}s")
        return cls(name, points, self.parse_declaration(main, False), pos=pos)

    def parse_instance_line(self) -> list[Instance]:
        names = [(self.pos(), self.expect_ident())]
        while self.kinds[self.k] is TokKind.COMMA:
            self.k += 1
            names.append((self.pos(), self.expect_ident()))
        self.expect(TokKind.COLON)
        tname = self.expect_ident()
        return [Instance(n, tname, p) for p, n in names]

    def parse_attachment(self) -> Attachment:
        left = self.parse_interface()
        self.expect_keyword("as")
        right = self.parse_interface()
        return Attachment(left, right, pos=left.pos)

    def parse_interface(self) -> InterfaceRef:
        k = self.k
        if self.kinds[k] is not TokKind.DOTTED:
            raise self.error(f"expected instance.point interface, found {self.found()}")
        self.k = k + 1
        inst, point = self.values[k]  # type: ignore[misc]
        return InterfaceRef(inst, point, self.pos(k))

    def parse_process_with_where(self) -> tuple[ProcessExpr, list[Declaration]]:
        body, _ = self.parse_proc_expr()
        locals_: list[Declaration] = []
        if self.at_keyword("where"):
            self.k += 1
            self.expect(TokKind.LBRACE)
            while self.kinds[self.k] is TokKind.IDENT:
                lpos = self.pos()
                lname = self.expect_ident()
                self.expect(TokKind.EQUALS)
                lbody, _ = self.parse_proc_expr()
                locals_.append(Declaration(DeclKind.WHERE_LOCAL, lname, lbody, [], lpos))
            self.expect(TokKind.RBRACE)
        return body, locals_

    # The expression parsers take the level of the node they parse (the root
    # is level 1) and return the node with its height in levels.

    def parse_proc_expr(self, level: int = 1) -> tuple[ProcessExpr, int]:
        left, height = self.parse_prefix_expr(level)
        kinds = self.kinds
        last = None  # the chain's previous operator
        while kinds[self.k] in (TokKind.ECHOICE, TokKind.ICHOICE):
            k = self.k
            self.k = k + 1
            op = kinds[k]
            if last is not None and op is not last:
                self.warnings.append(Diagnostic("warning", self.pos(k), "'[]' and '|~|' mixed at the same "
                                                "level without parentheses; grouping left-to-right"))
            last = op
            right, right_height = self.parse_prefix_expr(level + 1)
            # each operator pushes the whole chain so far one level down
            height = max(height, right_height) + 1
            if level + height - 1 > MAX_NESTING:
                raise self.error(_TOO_DEEP, k)
            cls = ExternalChoice if op is TokKind.ECHOICE else InternalChoice
            left = cls(left, right)
        return left, height

    def parse_prefix_expr(self, level: int) -> tuple[ProcessExpr, int]:
        k = self.k
        kind = self.kinds[k]
        if level > MAX_NESTING:
            raise self.error(_TOO_DEEP, k)
        if kind is TokKind.INITEVENT:
            name, scope = self.values[k]  # type: ignore[misc]
            ev, initiated = f"{scope}.{name}" if scope else name, True
        elif kind is TokKind.DOTTED:
            first, second = self.values[k]  # type: ignore[misc]
            ev, initiated = f"{first}.{second}", False
        elif kind is TokKind.IDENT and self.kinds[k + 1] is TokKind.ARROW:
            ev, initiated = self.values[k], False
        else:
            return self.parse_atom(level)
        self.k = k + 1
        self.expect(TokKind.ARROW)
        rest, height = self.parse_prefix_expr(level + 1)
        return Prefix(ev, rest, initiated), height + 1  # type: ignore[arg-type]

    def parse_atom(self, level: int) -> tuple[ProcessExpr, int]:
        k = self.k
        kind, value = self.kinds[k], self.values[k]
        self.k = k + 1
        if kind is TokKind.KEYWORD and value in ("tick", "skip"):
            return SUCCESS, 1
        if kind is TokKind.KEYWORD and value in ("glue", "computation"):
            # the glue/computation processes may refer to themselves by name
            return Ref(self.toks.text(k)), 1
        if kind is TokKind.IDENT:
            return Ref(value), 1  # type: ignore[arg-type]
        if kind is TokKind.LPAREN:
            inner, height = self.parse_proc_expr(level + 1)
            self.expect(TokKind.RPAREN)
            return inner, height + 1
        self.k = k
        raise self.error(f"expected a process expression, found {self.found()}")


def _show(kind: TokKind, value: object) -> str:
    if kind is TokKind.EOF:
        return "end of input"
    if kind is TokKind.KEYWORD:
        return f"keyword '{value}'"
    if kind is TokKind.DOTTED:
        a, b = value  # type: ignore[misc]
        return f"'{a}.{b}'"
    if kind is TokKind.INITEVENT:
        name, scope = value  # type: ignore[misc]
        return "'_" + (f"{scope}.{name}'" if scope else f"{name}'")
    return f"'{value}'"


def parse_source(source: str) -> tuple[ArchSpec, list[Diagnostic]]:
    """Parse a whole file; returns the spec and the parser's warnings."""
    p = Parser(tokenize(source))
    spec = p.parse_spec()
    return spec, p.warnings


# --- canonical Wright printing (round-trip support) -------------------------


def _expr_src(expr: ProcessExpr) -> str:
    if isinstance(expr, Prefix):
        return f"{'_' if expr.initiated else ''}{expr.event} -> {_operand_src(expr.rest)}"
    if isinstance(expr, Choice):
        op = "[]" if isinstance(expr, ExternalChoice) else "|~|"
        return f"{_operand_src(expr.left, type(expr))} {op} {_operand_src(expr.right)}"
    if isinstance(expr, Ref):
        return expr.name
    if isinstance(expr, Success):
        return "TICK"
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
        points, main = parts(t)
        lines.append(f"{type(t).__name__} {t.name}")
        for p in points:
            lines.extend(_decl_src(f"{p.kind.value} {p.name}", p, "  "))
        lines.extend(_decl_src(main.kind.value, main, "  "))
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
