"""Lexer and recursive-descent parser for the Wright concrete syntax.

Accepted input is a single Style or Configuration.  Keywords are matched
case-insensitively (inputs in the wild spell them both ways); identifiers are
case-sensitive.  A leading underscore on a name in event position marks the
event as initiated.  ``//`` starts a comment running to end of line, and the
body of a Constraints clause is skipped without lexing.

The lexer is one compiled pattern, matched once per token: it skips the
blanks and comments before the token without capturing them, and the number
of the group that matched gives the token's class and its start.  It builds no
object per token: it appends each token's kind, value and start offset to
three parallel lists.  A kind is a plain string constant of this module: an
operator's own spelling, or a word such as ``ident``.  The parser reads those
lists by index and tests kinds by identity.  Instance lines, attachments and
prefix chains are each read in one loop over local indices, and a prefix
chain's ``Prefix`` nodes are built from its end.  A line and column are
computed only where they are needed, for a node that stores a position or for
a diagnostic, by searching a table of line starts.
Process expressions nest at most ``MAX_NESTING`` levels, a choice run being one.
"""

from __future__ import annotations

import re
from bisect import bisect_right

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


# Deepest process expression accepted, one level per prefix, choice run or
# parenthesised group: deeper input would overflow Python's default 1000-frame
# stack in the parser (three frames per parenthesis) or in later tree walks.
MAX_NESTING = 200
_TOO_DEEP = f"process expression nested deeper than {MAX_NESTING} levels"


class ParseError(Exception):
    def __init__(self, pos: SourcePos, message: str) -> None:
        super().__init__(f"{pos}: {message}")
        self.pos = pos
        self.message = message


# Token kinds.  An operator's kind is its own spelling, which is also its
# value, so tokenize appends the one object for both.
KEYWORD, IDENT, EOF = "keyword", "ident", "eof"
DOTTED = "dotted"  # value is (first, second)
INITEVENT = "initevent"  # value is (name, scope-or-None)
ARROW, ECHOICE, ICHOICE, EQUALS, DOT, COMMA, COLON = "->", "[]", "|~|", "=", ".", ",", ":"
LPAREN, RPAREN, LBRACE, RBRACE = "(", ")", "{", "}"
_CHOICES = {ECHOICE: ExternalChoice, ICHOICE: InternalChoice}  # operator -> its node

# Blanks and comments, skipped without a group, then one alternative per token
# class.  ``lastindex`` numbers the group that closed last, which tells the
# class apart: 1 an initiated event, 2 a scoped one, 3 a word, 4 a dotted
# name, and from 5 on one group per operator.  It is None where no token
# follows the blanks (end of input or an illegal character).  ``\w`` is
# exactly ``str.isalnum`` plus ``_``.  ``[^\W\d]`` also admits numerals that
# are not letters, such as '²', which ``tokenize`` rejects.
_OPERATORS = (ARROW, ECHOICE, ICHOICE, EQUALS, DOT, COMMA, COLON, LPAREN, RPAREN, LBRACE, RBRACE)
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*)*"
    r"(?:_(\w+)(?:\.([^\W\d]\w*))?"
    r"|([^\W\d]\w*)(?:\.([^\W\d]\w*))?"
    r"|" + "|".join(f"({re.escape(k)})" for k in _OPERATORS) + ")?"
)
_OP_GROUPS = (None,) * 5 + _OPERATORS  # group number -> kind, which is also the value
# A Constraints body ends at the first identifier spelled `end` in any case.
# Characters that cannot start an identifier (digits, as in `1end`) are not
# part of it; the group must hold no letter or underscore.
_END_RE = re.compile(r"(?<!\w)(\w*?)[eE][nN][dD](?!\w)")
_new_pos = tuple.__new__  # SourcePos without its Python-level __new__


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
        self.kinds: list[str] = []
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
        line_starts = self._line_starts
        if line_starts is None:
            line_starts = self._line_starts = [0] + [m.end() for m in re.finditer("\n", self.source)]
        line = bisect_right(line_starts, offset)
        return _new_pos(SourcePos, (line, offset - line_starts[line - 1] + 1))


def tokenize(source: str) -> Tokens:
    """Split Wright source into tokens, ending with EOF: their kinds, values and
    start offsets go to parallel lists, and positions are computed on demand."""
    toks = Tokens(source)
    kind_of, value_of, start_of = toks.kinds.append, toks.values.append, toks.starts.append
    match, ops, i = _TOKEN_RE.match, _OP_GROUPS, 0
    while True:
        m = match(source, i)
        g, i = m.lastindex, m.end()
        if g is None:
            if i < len(source):
                raise _illegal_character(toks, i)
            kind_of(EOF)
            value_of(None)
            start_of(i)
            return toks
        if g > 4:
            tk = value = ops[g]
            start = m.start(g)
        elif g > 2:
            word, start = m[3], m.start(3)
            if not (word[0].isalpha() or word[0] == "_"):
                raise _illegal_character(toks, start)
            value = word.lower()
            if value in KEYWORDS:
                # `Glue.a` is KEYWORD, DOT, IDENT: re-lex from after the word
                tk, i = KEYWORD, start + len(word)
                if value == "constraints":
                    i = _constraints_end(source, i)
            elif g == 4:
                dotted = m[4]
                if not (dotted[0].isalpha() or dotted[0] == "_"):
                    raise _illegal_character(toks, m.start(4))
                tk, value = DOTTED, (word, dotted)
            else:
                tk, value = IDENT, word
        else:
            start, tk = m.start(1) - 1, INITEVENT
            if g == 1:
                value = (m[1], None)
            else:
                scoped = m[2]
                if not (scoped[0].isalpha() or scoped[0] == "_"):
                    raise _illegal_character(toks, m.start(2))
                value = (scoped, m[1])
        kind_of(tk)
        value_of(value)
        start_of(start)


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

    def found(self, k: int | None = None) -> str:
        k = self.k if k is None else k
        return _show(self.kinds[k], self.values[k])

    def expected(self, what: str, k: int | None = None) -> ParseError:
        """``expected <what>, found <token k>``, at token ``k``."""
        return self.error(f"expected {what}, found {self.found(k)}", k)

    # A token is stepped past only once its kind is known, so never past EOF.

    def at_keyword(self, *words: str) -> bool:
        return self.kinds[self.k] is KEYWORD and self.values[self.k] in words

    def expect_keyword(self, word: str) -> int:
        """Step past keyword ``word``; returns its index."""
        if not self.at_keyword(word):
            raise self.expected(f"'{word}'")
        self.k += 1
        return self.k - 1

    def expect(self, kind: str) -> int:
        """Step past a token of ``kind``; returns its index."""
        k = self.k
        if self.kinds[k] is not kind:
            raise self.expected(repr(kind))
        self.k = k + 1
        return k

    def expect_ident(self) -> str:
        k = self.k
        if self.kinds[k] is not IDENT:
            raise self.expected("identifier")
        self.k = k + 1
        return self.values[k]  # type: ignore[return-value]

    # -- grammar -----------------------------------------------------------

    def parse_spec(self) -> ArchSpec:
        if self.at_keyword("style"):
            spec = self.parse_style()
        elif self.at_keyword("configuration"):
            spec = self.parse_configuration()
        else:
            raise self.expected("'Style' or 'Configuration'")
        if self.kinds[self.k] is not EOF:
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
        instances = self.parse_instances()
        self.expect_keyword("attachments")
        attachments = self.parse_attachments()
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
        self.expect(EQUALS)
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

    # Instance and attachment lines are read by local index ``k``; the
    # tokens after a kind just checked exist, since the last one is EOF.

    def parse_instances(self) -> list[Instance]:
        """Instance lines ``a, b : T``."""
        kinds, values, starts, pos_at = self.kinds, self.values, self.toks.starts, self.toks.pos_at
        k = self.k
        instances: list[Instance] = []
        while kinds[k] is IDENT:
            names = [k]
            while kinds[k + 1] is COMMA:
                k += 2
                if kinds[k] is not IDENT:
                    raise self.expected("identifier", k)
                names.append(k)
            if kinds[k + 1] is not COLON:
                raise self.expected("':'", k + 1)
            k += 2
            if kinds[k] is not IDENT:
                raise self.expected("identifier", k)
            tname = values[k]
            instances.extend([Instance(values[j], tname, pos_at(starts[j])) for j in names])  # type: ignore[arg-type]
            k += 1
        self.k = k
        return instances

    def parse_attachments(self) -> list[Attachment]:
        """Attachment lines ``a.p As b.r``."""
        kinds, values, starts, pos_at = self.kinds, self.values, self.toks.starts, self.toks.pos_at
        k = self.k
        attachments: list[Attachment] = []
        while kinds[k] is DOTTED:
            if kinds[k + 1] is not KEYWORD or values[k + 1] != "as":
                raise self.expected("'as'", k + 1)
            if kinds[k + 2] is not DOTTED:
                raise self.expected("instance.point interface", k + 2)
            inst, point = values[k]  # type: ignore[misc]
            left = InterfaceRef(inst, point, pos_at(starts[k]))
            inst, point = values[k + 2]  # type: ignore[misc]
            attachments.append(Attachment(left, InterfaceRef(inst, point, pos_at(starts[k + 2])), pos=left.pos))
            k += 3
        self.k = k
        return attachments

    def parse_process_with_where(self) -> tuple[ProcessExpr, list[Declaration]]:
        body, _ = self.parse_proc_expr()
        locals_: list[Declaration] = []
        if self.at_keyword("where"):
            self.k += 1
            self.expect(LBRACE)
            while self.kinds[self.k] is IDENT:
                lpos = self.pos()
                lname = self.expect_ident()
                self.expect(EQUALS)
                lbody, _ = self.parse_proc_expr()
                locals_.append(Declaration(DeclKind.WHERE_LOCAL, lname, lbody, [], lpos))
            self.expect(RBRACE)
        return body, locals_

    # The expression parsers take the level of the node they parse (the root
    # is level 1) and return the node with its height in levels.  A run of one
    # choice operator is one node, its branches one level down; where the
    # operator switches, the run so far becomes the first branch of the next.

    def parse_proc_expr(self, level: int = 1) -> tuple[ProcessExpr, int]:
        node, height = self.parse_prefix_expr(level)
        kinds, op = self.kinds, None
        while kinds[self.k] in _CHOICES:
            k = self.k
            self.k = k + 1
            if kinds[k] is not op:
                if op is not None:
                    self.warnings.append(Diagnostic("warning", self.pos(k), "'[]' and '|~|' mixed at the same "
                                                    "level without parentheses; grouping left-to-right"))
                    node = _CHOICES[op](tuple(branches))
                op, branches, height = kinds[k], [node], height + 1
            right, right_height = self.parse_prefix_expr(level + 1)
            height = max(height, right_height + 1)
            if level + height - 1 > MAX_NESTING:
                raise self.error(_TOO_DEEP, k)
            branches.append(right)
        return (node, height) if op is None else (_CHOICES[op](tuple(branches)), height)

    def parse_prefix_expr(self, level: int) -> tuple[ProcessExpr, int]:
        """A chain ``e1 -> ... -> en -> atom`` read in one loop, one level per
        prefix; its ``Prefix`` nodes are built from the end."""
        kinds, values, k = self.kinds, self.values, self.k
        chain: list[tuple[str, bool]] = []  # each prefix's event and whether it is initiated
        while True:
            if level > MAX_NESTING:
                raise self.error(_TOO_DEEP, k)
            kind = kinds[k]
            if kind is INITEVENT:
                name, scope = values[k]  # type: ignore[misc]
                chain.append((f"{scope}.{name}" if scope else name, True))
            elif kind is DOTTED:
                first, second = values[k]  # type: ignore[misc]
                chain.append((f"{first}.{second}", False))
            elif kind is IDENT and kinds[k + 1] is ARROW:
                chain.append((values[k], False))  # type: ignore[arg-type]
            else:
                break
            if kinds[k + 1] is not ARROW:
                raise self.expected("'->'", k + 1)
            k += 2
            level += 1
        self.k = k
        node, height = self.parse_atom(level)
        for event, initiated in reversed(chain):
            node = Prefix(event, node, initiated)
        return node, height + len(chain)

    def parse_atom(self, level: int) -> tuple[ProcessExpr, int]:
        k = self.k
        kind, value = self.kinds[k], self.values[k]
        self.k = k + 1
        if kind is KEYWORD and value in ("tick", "skip"):
            return SUCCESS, 1
        if kind is KEYWORD and value in ("glue", "computation"):
            # the glue/computation processes may refer to themselves by name
            return Ref(self.toks.text(k)), 1
        if kind is IDENT:
            return Ref(value), 1  # type: ignore[arg-type]
        if kind is LPAREN:
            inner, height = self.parse_proc_expr(level + 1)
            self.expect(RPAREN)
            return inner, height + 1
        raise self.expected("a process expression", k)


def _show(kind: str, value: object) -> str:
    if kind is EOF:
        return "end of input"
    if kind is KEYWORD:
        return f"keyword '{value}'"
    if kind is DOTTED:
        a, b = value  # type: ignore[misc]
        return f"'{a}.{b}'"
    if kind is INITEVENT:
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
        op = " [] " if isinstance(expr, ExternalChoice) else " |~| "
        return op.join(map(_operand_src, expr.branches))
    if isinstance(expr, Ref):
        return expr.name
    if isinstance(expr, Success):
        return "TICK"
    raise TypeError(f"unprintable expression {expr!r}")


def _operand_src(expr: ProcessExpr) -> str:
    """An operand, parenthesised only where the parser needs it.

    A prefix binds tighter than a choice, and a run of one choice operator is
    one node, so only a choice needs parentheses.  Printed text thus nests no
    deeper than the text it was parsed from, except that a run mixing both
    operators without parentheses gains one group per switch.
    """
    text = _expr_src(expr)
    return f"({text})" if isinstance(expr, Choice) else text


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
