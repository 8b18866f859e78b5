"""FDR-dialect code generation with paired machine-checkable assertions.

For every connector the emitted text carries the role deadlock-freedom checks
(one abstracted refinement against DFA per role) and the connector
deadlock-freedom check over the composed roles-plus-glue process, abstracted
over the connector alphabet.  For every component it carries one
port/computation consistency check per port: the computation runs in parallel
with the determinized, observed-event restriction of every other port, the
result is hidden down to the port's alphabet, and the renamed port process
must be refined by it.  Configurations additionally get one port/role
compatibility check per attachment, built from the two alphabet augmentations
and the determinized role.

Alongside the text, the same checks are produced as structured assertions
over process terms, plus the full environment of named process definitions,
so the embedded engine can discharge exactly what the file asserts.  Emission
records each equation's body with the names it resolves against and lowers
those bodies to engine terms on first use of ``EmitPlan.definitions``, so a
caller that only prints the text (``translate``) never builds them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Union

from .alphabets import base_event_names
from .analyzer import Diagnostic
from .engine import (
    PExt,
    PHide,
    PInt,
    PPar,
    PPrefix,
    PRef,
    PSkip,
    PStop,
    Proc,
    dfa_definitions,
    rename,
)
from .model import (
    ArchSpec,
    Choice,
    Component,
    Configuration,
    Connector,
    Declaration,
    Empty,
    ExternalChoice,
    Prefix,
    ProcessExpr,
    Ref,
    SourcePos,
    Success,
)
from .transform import determinized, restrict_to_observed


class AssertionKind(Enum):
    PORT_COMPUTATION = "P1"
    CONNECTOR_DEADLOCK_FREE = "P2"
    ROLE_DEADLOCK_FREE = "P3"
    PORT_ROLE = "P8"


@dataclass
class Assertion:
    kind: AssertionKind
    label: str  # the exact "assert X [FD= Y" line
    spec_term: Proc
    impl_term: Proc
    alphabet: frozenset[str]


# The right-hand side of a named process: an engine term, or an equation body
# and the names it resolves against, lowered by ``body_term`` when needed.
Definition = Union[Proc, tuple[ProcessExpr, dict[str, str]]]


@dataclass
class EmitPlan:
    text: str
    assertions: list[Assertion]
    equations: dict[str, Definition]
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @cached_property
    def definitions(self) -> dict[str, Proc]:
        """Every named process as an engine term, lowered on first access."""
        return {
            name: body_term(*rhs) if isinstance(rhs, tuple) else rhs
            for name, rhs in self.equations.items()
        }


class CodegenError(Exception):
    pass


# --- process rendering and lowering -----------------------------------------


def fdr_expr(expr: ProcessExpr, names: dict[str, str]) -> str:
    if isinstance(expr, Prefix):
        return f"({expr.event.qualified} -> {fdr_expr(expr.rest, names)})"
    if isinstance(expr, Choice):
        op = "[]" if isinstance(expr, ExternalChoice) else "|~|"
        return f"({fdr_expr(expr.left, names)} {op} {fdr_expr(expr.right, names)})"
    if isinstance(expr, Ref):
        return names.get(expr.name, expr.name)
    if isinstance(expr, Success):
        return "SKIP"
    if isinstance(expr, Empty):
        return "STOP"
    raise CodegenError(f"cannot render {expr!r}")


def fdr_body(expr: ProcessExpr, names: dict[str, str]) -> str:
    """Whole equation right-hand side; an erased body prints as SKIP."""
    if isinstance(expr, (Empty, Success)):
        return "SKIP"
    return fdr_expr(expr, names)


def process_term(expr: ProcessExpr, names: dict[str, str]) -> Proc:
    """Lower a process expression to an engine term (Empty behaves as STOP)."""
    if isinstance(expr, Prefix):
        return PPrefix(expr.event.qualified, process_term(expr.rest, names))
    if isinstance(expr, ExternalChoice):
        return PExt(process_term(expr.left, names), process_term(expr.right, names))
    if isinstance(expr, Choice):
        return PInt(process_term(expr.left, names), process_term(expr.right, names))
    if isinstance(expr, Ref):
        return PRef(names.get(expr.name, expr.name))
    if isinstance(expr, Success):
        return PSkip()
    if isinstance(expr, Empty):
        return PStop()
    raise CodegenError(f"cannot lower {expr!r}")


def body_term(expr: ProcessExpr, names: dict[str, str]) -> Proc:
    """Term for a whole equation; mirrors fdr_body (erased body = SKIP)."""
    if isinstance(expr, Empty):
        return PSkip()
    return process_term(expr, names)


def _set_txt(names: Iterable[str]) -> str:
    items = list(names)
    return "{" + ", ".join(items) + "}"


def _prod_txt(names: Iterable[str]) -> str:
    items = list(names)
    return "{|" + ", ".join(items) + "|}"


# --- emission machinery ------------------------------------------------------


class _Out:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.assertions: list[Assertion] = []
        self.equations: dict[str, Definition] = dict(dfa_definitions())
        self.diagnostics: list[Diagnostic] = []

    def line(self, text: str = "") -> None:
        self.lines.append(text)

    def blank(self) -> None:
        self.lines.append("")

    def define(self, name: str, rhs: Definition) -> None:
        if name in self.equations:
            self.diagnostics.append(
                Diagnostic(
                    "warning",
                    SourcePos(),
                    f"process name '{name}' defined more than once in the output",
                )
            )
        self.equations[name] = rhs

    def equation(self, name: str, body: ProcessExpr, names: dict[str, str]) -> None:
        self.line(f"{name} = {fdr_body(body, names)}")
        self.define(name, (body, names))

    def assertion(self, a: Assertion) -> None:
        self.assertions.append(a)
        self.line(a.label)


HEADER_LINES = [
    "-- FDR compression functions",
    "transparent diamond",
    "transparent normalise",
    "",
    "",
    "-- Wright defined processes",
    "channel abstractEvent",
    "DFA = abstractEvent -> DFA |~| SKIP",
    "",
    "quant_semi({},_) = SKIP",
    "quant_semi(S,PARAM) = |~| i:S @ PARAM(i) ; quant_semi(diff(S,{i}),PARAM)",
    "",
    "power_set({}) = {{}}",
    "power_set(S) = { union(y,{x}) | x <- S, y <- power_set(diff(S,{x}))}",
    "",
    "",
]


def emit_header() -> str:
    return "\n".join(HEADER_LINES) + "\n"


def _local_names(decl: Declaration, head: str, suffix: str = "") -> dict[str, str]:
    names = {decl.name: head}
    for loc in decl.locals:
        names[loc.name] = loc.name + suffix
    return names


def _emit_decl_equations(out: _Out, decl: Declaration, head: str, names: dict[str, str]) -> None:
    """Where-locals first, then the declaration's own equation."""
    for loc in decl.locals:
        out.equation(names[loc.name], loc.body, names)
    out.equation(head, decl.body, names)


# --- connectors ---------------------------------------------------------------


def emit_connector(out: _Out, conn: Connector, in_configuration: bool) -> None:
    glue = conn.glue
    glue_head = "Glue" + (conn.name if in_configuration else "")
    out.line(f"-- Connector {conn.name}")
    out.line("-- generated definitions (to split long sets)")
    out.line(f"ALPHA_{conn.name} = {_prod_txt(conn.total_alphabet.qualified_names())}")
    out.blank()
    _emit_decl_equations(out, glue, glue_head, _local_names(glue, glue_head))
    out.blank()

    for role in conn.roles:
        total = role.alphabet.total
        out.line(f"ALPHA_{role.name} = {_set_txt(total.qualified_names())}")
        names = _local_names(role, f"ROLE{role.name}")
        _emit_decl_equations(out, role, f"ROLE{role.name}", names)
        out.line(f"{role.name}A = ROLE{role.name} [[ x <- abstractEvent | x <- ALPHA_{role.name} ]]")
        out.define(
            f"{role.name}A",
            rename(PRef(f"ROLE{role.name}"), {n: "abstractEvent" for n in total.qualified_names()}),
        )
        out.assertion(
            Assertion(
                AssertionKind.ROLE_DEADLOCK_FREE,
                f"assert DFA [FD= {role.name}A",
                PRef("DFA"),
                PRef(f"{role.name}A"),
                frozenset({"abstractEvent"}),
            )
        )
        out.blank()

    for role in conn.roles:
        out.line(f"channel {role.name}: {_set_txt(role.alphabet.total.qualified_names())}")

    glue_names = set(glue.alphabet.total.qualified_names())
    chain: Proc = PRef(glue_head)
    for i, role in enumerate(conn.roles):
        unscoped = role.alphabet.total.qualified_names()
        internal = sorted(set(role.alphabet.param_total.qualified_names()) - glue_names)
        opener = f"{conn.name} = ( (" if i == 0 else "    ("
        out.line(f"{opener}ROLE{role.name}[[ x <- {role.name}.x | x <- {{{', '.join(unscoped)} }} ]]")
        out.line(f"    [| diff({{|{role.name}|}}, {{ {', '.join(internal)}}}) |]")
    out.line("    " + glue_head + ")" * len(conn.roles) + " )")
    for role in reversed(conn.roles):
        unscoped = role.alphabet.total.qualified_names()
        scoped = set(role.alphabet.param_total.qualified_names())
        scoped |= {n for n in glue_names if n.startswith(role.name + ".")}
        internal = set(role.alphabet.param_total.qualified_names()) - glue_names
        renamed = rename(PRef(f"ROLE{role.name}"), {n: f"{role.name}.{n}" for n in unscoped})
        chain = PPar(renamed, frozenset(scoped - internal), chain)
    out.define(conn.name, chain)

    out.line(f"{conn.name}A = {conn.name} [[ x <- abstractEvent | x <- ALPHA_{conn.name} ]]")
    out.define(
        f"{conn.name}A",
        rename(PRef(conn.name), {n: "abstractEvent" for n in conn.total_alphabet.qualified_names()}),
    )
    out.assertion(
        Assertion(
            AssertionKind.CONNECTOR_DEADLOCK_FREE,
            f"assert DFA [FD= {conn.name}A",
            PRef("DFA"),
            PRef(f"{conn.name}A"),
            frozenset({"abstractEvent"}),
        )
    )
    out.blank()

    if in_configuration:
        for role in conn.roles:
            det = determinized(role.body)
            names = {role.name: f"ROLE{role.name}DET"}
            for loc in role.locals:
                names[loc.name] = f"{loc.name}DET"
            for loc in role.locals:
                out.equation(names[loc.name], determinized(loc.body), names)
            out.equation(f"ROLE{role.name}DET", det, names)
        out.blank()


# --- components ---------------------------------------------------------------


def emit_component(out: _Out, comp: Component) -> None:
    computation = comp.computation
    comp_head = f"Computation{comp.name}"
    out.line(f"-- Component {comp.name}")
    out.line(f"ALPHA_{comp.name} = {_prod_txt(comp.total_alphabet.qualified_names())}")
    _emit_decl_equations(out, computation, comp_head, _local_names(computation, comp_head))
    out.line("--Port Process")
    for port in comp.ports:
        a = port.alphabet
        out.line(f"ALPHA_{port.name} = {_set_txt(a.total.qualified_names())}")
        if a.observed:
            out.line(f"ALPHA_{port.name}I = {_set_txt(a.initiated.qualified_names())}")
        else:
            out.line("-- no events observed!")
        names = _local_names(port, f"PORT{port.name}")
        _emit_decl_equations(out, port, f"PORT{port.name}", names)
        out.line(f"{port.name}G = PORT{port.name}[[ x <-{port.name}.x | x <- ALPHA_{port.name} ]]")
        out.define(
            f"{port.name}G",
            rename(
                PRef(f"PORT{port.name}"),
                {n: f"{port.name}.{n}" for n in a.total.qualified_names()},
            ),
        )
        out.blank()

    for port in comp.ports:
        out.line(f"channel {port.name}: {_set_txt(port.alphabet.total.qualified_names())}")
    out.line("--Deterministic Process restricted to the observed event")
    for port in comp.ports:
        restricted, diags = restrict_to_observed(port)
        out.diagnostics.extend(diags)
        names = {port.name: f"PORT{port.name}DETR"}
        for loc in restricted.locals:
            names[loc.name] = f"{loc.name}DETR"
        for loc in restricted.locals:
            out.equation(names[loc.name], determinized(loc.body), names)
        out.equation(f"PORT{port.name}DETR", determinized(restricted.body), names)
    out.blank()

    comp_total_names = comp.total_alphabet.qualified_names()
    computation_names = set(computation.alphabet.total.qualified_names())
    for port in comp.ports:
        others = [q for q in comp.ports if q is not port]
        chain: Proc = PRef(comp_head)
        first = f"COMP{port.name} = ("
        for q in others:
            obs = q.alphabet.observed.qualified_names()
            scoped_obs = [f"{q.name}.{n}" for n in obs]
            internal = sorted(set(q.alphabet.param_total.qualified_names()) - computation_names)
            seg = f"( PORT{q.name}DETR"
            if obs:
                seg += f" [[ x <- {q.name}.x | x <- {{{', '.join(obs)} }} ]]"
            out.line(first + seg)
            first = "  "
            out.line(f"  [| diff({{{', '.join(scoped_obs)}}}, {{ {', '.join(internal)}}}) |]")
        for q in reversed(others):
            obs = q.alphabet.observed.qualified_names()
            scoped_obs = {f"{q.name}.{n}" for n in obs}
            internal = set(q.alphabet.param_total.qualified_names()) - computation_names
            qterm: Proc = PRef(f"PORT{q.name}DETR")
            if obs:
                qterm = rename(qterm, {n: f"{q.name}.{n}" for n in obs})
            chain = PPar(qterm, frozenset(scoped_obs - internal), chain)
        hidden = frozenset(n for n in comp_total_names if not n.startswith(port.name + "."))
        impl = PHide(chain, hidden)
        out.define(f"COMP{port.name}", impl)
        closers = ")" * len(others) + ")"
        out.line(f"{first}{comp_head}{closers}\\ diff(ALPHA_{comp.name}, {{ |{port.name}| }})")
        alphabet = frozenset(n for n in comp_total_names if n.startswith(port.name + "."))
        out.assertion(
            Assertion(
                AssertionKind.PORT_COMPUTATION,
                f"assert {port.name}G [FD= COMP{port.name}",
                PRef(f"{port.name}G"),
                PRef(f"COMP{port.name}"),
                alphabet,
            )
        )
        out.blank()


# --- configurations and styles -------------------------------------------------


def _attachment_decls(
    instances: dict[str, str], types: dict[str, Union[Component, Connector]], att
) -> tuple[str, Declaration, str, Declaration]:
    """The port and role an attachment joins, given the instance -> type name
    and type name -> type maps of its configuration."""
    try:
        comp = types[instances[att.left.instance]]
        port = next(p for p in comp.ports if p.name == att.left.point)  # type: ignore[union-attr]
        conn = types[instances[att.right.instance]]
        role = next(r for r in conn.roles if r.name == att.right.point)  # type: ignore[union-attr]
    except (KeyError, AttributeError, StopIteration) as exc:
        raise CodegenError(
            f"attachment {att.left} As {att.right} does not resolve; "
            "run static analysis before code generation"
        ) from exc
    return att.left.instance, port, att.right.instance, role


def emit_attachments(out: _Out, spec: Configuration) -> None:
    out.line("--Attachment Test")
    out.blank()
    instances = {i.name: i.type_name for i in spec.instances}
    types: dict[str, Union[Component, Connector]] = {t.name: t for t in spec.types}
    for att in spec.attachments:
        ci, port, ni, role = _attachment_decls(instances, types, att)
        p, r = port.name, role.name
        a_p = set(port.alphabet.total.qualified_names())
        a_r = set(role.alphabet.total.qualified_names())
        out.line(f"{ci}_{p}PLUS = PORT{p}")
        out.line(f"  [| diff( ALPHA_{r} , ALPHA_{p} ) |] STOP")
        out.define(f"{ci}_{p}PLUS", PPar(PRef(f"PORT{p}"), frozenset(a_r - a_p), PStop()))
        out.line(f"{ni}_{r}PLUS = ROLE{r}")
        out.line(f"  [| diff( ALPHA_{p} , ALPHA_{r} ) |] STOP")
        out.define(f"{ni}_{r}PLUS", PPar(PRef(f"ROLE{r}"), frozenset(a_p - a_r), PStop()))
        out.line(f"{ci}_{p}PLUSDET = {ci}_{p}PLUS")
        out.line(f"  [| union(ALPHA_{p} , ALPHA_{r} ) |]")
        out.line(f"  ROLE{r}DET")
        out.define(
            f"{ci}_{p}PLUSDET",
            PPar(PRef(f"{ci}_{p}PLUS"), frozenset(a_p | a_r), PRef(f"ROLE{r}DET")),
        )
        out.assertion(
            Assertion(
                AssertionKind.PORT_ROLE,
                f"assert {ni}_{r}PLUS [FD= {ci}_{p}PLUSDET",
                PRef(f"{ni}_{r}PLUS"),
                PRef(f"{ci}_{p}PLUSDET"),
                frozenset(a_p | a_r),
            )
        )
        out.blank()


def emit(spec: ArchSpec) -> EmitPlan:
    """Emit the full FDR file plus the structured assertions for ``spec``.

    Alphabets must already be annotated (see ``alphabets.annotate``).
    """
    out = _Out()
    out.lines.extend(HEADER_LINES)
    in_config = isinstance(spec, Configuration)
    kw = "Configuration" if in_config else "Style"
    out.line(f"-- {kw} {spec.name}")
    out.line("-- Types declarations")
    out.line("-- events for abstract specification")
    out.line(f"channel {', '.join(base_event_names(spec))}")
    out.blank()
    for t in spec.types:
        if isinstance(t, Component):
            emit_component(out, t)
        else:
            emit_connector(out, t, in_config)
    if in_config:
        emit_attachments(out, spec)
        out.line("-- End Configuration")
    else:
        out.line("-- No constraints")
        out.line("-- End Style")
    text = "\n".join(out.lines) + "\n"
    return EmitPlan(text, out.assertions, out.equations, out.diagnostics)
