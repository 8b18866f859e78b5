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
so the embedded engine can discharge exactly what the file asserts.  Every
set a composite term uses is read from the declaration the text printed for
it: ``ALPHA_x`` lines and ``channel p: {...}`` lines, where ``{|p|}`` covers
the port's or role's own events and every other value the computation or
glue uses under ``p``, so each channel declaration is well typed.  Emission
records each equation's body with the names it resolves against and lowers
those bodies to engine terms on first use of ``EmitPlan.definitions``, so a
caller that only prints the text (``translate``) never builds them.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import Union

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
    slotted,
)
from .transform import determinized, restrict_to_observed


class AssertionKind(Enum):
    PORT_COMPUTATION = "P1"
    CONNECTOR_DEADLOCK_FREE = "P2"
    ROLE_DEADLOCK_FREE = "P3"
    PORT_ROLE = "P8"


@slotted(frozen=False)
class Assertion:
    __slots__ = ("kind", "label", "spec_term", "impl_term", "alphabet")

    def __init__(
        self, kind: AssertionKind, label: str, spec_term: Proc, impl_term: Proc, alphabet: frozenset[str]
    ) -> None:
        self.kind = kind
        self.label = label  # the exact "assert X [FD= Y" line
        self.spec_term = spec_term
        self.impl_term = impl_term
        self.alphabet = alphabet


# The right-hand side of a named process: an engine term, or an equation body
# and the names it resolves against, lowered by ``body_term`` when needed.
Definition = Union[Proc, tuple[ProcessExpr, dict[str, str]]]


@slotted(frozen=False)
class EmitPlan:
    # ``__dict__`` holds only the cached ``definitions``
    __slots__ = ("text", "assertions", "equations", "diagnostics", "__dict__")

    def __init__(
        self,
        text: str,
        assertions: list[Assertion],
        equations: dict[str, Definition],
        diagnostics: list[Diagnostic] | None = None,
    ) -> None:
        self.text = text
        self.assertions = assertions
        self.equations = equations
        self.diagnostics = [] if diagnostics is None else diagnostics

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
        return f"({expr.event} -> {fdr_expr(expr.rest, names)})"
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
        return PPrefix(expr.event, process_term(expr.rest, names))
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


# --- emission machinery ------------------------------------------------------


class _Out:
    """The output lines, the assertions and process definitions they carry,
    and the events of every set name printed so far: ``ALPHA_x`` and ``{|p|}``."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.assertions: list[Assertion] = []
        self.equations: dict[str, Definition] = dict(dfa_definitions())
        self.sets: dict[str, list[str]] = {}
        self.local_names: dict[tuple[str, str], str] = {}  # (owner's base, local) -> name
        self.diagnostics: list[Diagnostic] = []

    def line(self, text: str = "") -> None:
        self.lines.append(text)

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

    def alpha(self, name: str, events: list[str], bar: bool = False) -> None:
        """``ALPHA_name = {...}``, or ``{|...|}`` when ``bar``."""
        self.sets[f"ALPHA_{name}"] = events
        inner = ", ".join(events)
        self.line(f"ALPHA_{name} = " + (f"{{|{inner}|}}" if bar else f"{{{inner}}}"))

    def channel(self, point: Declaration, owner: Union[Component, Connector]) -> None:
        """``channel p: {...}``: the port's or role's own events, then every
        other value its owner's computation or glue uses under ``p``."""
        values = dict.fromkeys(point.alphabet.total)
        prefix = point.name + "."
        for n in owner.total_alphabet:
            if n.startswith(prefix):
                values.setdefault(n[len(prefix):])
        self.line(f"channel {point.name}: {{{', '.join(values)}}}")
        self.sets[f"{{|{point.name}|}}"] = [prefix + v for v in values]


def _fold(pairs: list[tuple[Proc, frozenset[str]]], last: Proc) -> Proc:
    """``op1 [|s1|] (op2 [|s2|] (... last))`` from the (operand, sync) pairs."""
    for operand, sync in reversed(pairs):
        last = PPar(operand, sync, last)
    return last


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


def _emit_decl_equations(
    out: _Out, decl: Declaration, base: str, suffix: str = "", det: bool = False
) -> None:
    """Where-locals first, then the declaration's own equation as ``base + suffix``;
    locals are renamed with ``suffix`` and, with ``det``, bodies determinized.

    A local keeps its plain name unless that name is already defined, as by
    a local of another port or role; it is then suffixed with its owner's
    name.  Its ``DET``/``DETR`` names follow the name its first emission chose.
    """
    head = base + suffix
    names = {decl.name: head}
    for loc in decl.locals:
        key = (base, loc.name)
        if key not in out.local_names:
            taken = loc.name in out.equations
            out.local_names[key] = loc.name + decl.name if taken else loc.name
        names[loc.name] = out.local_names[key] + suffix
    for loc in decl.locals:
        out.equation(names[loc.name], determinized(loc.body) if det else loc.body, names)
    out.equation(head, determinized(decl.body) if det else decl.body, names)


def _deadlock_check(out: _Out, kind: AssertionKind, name: str, process: str) -> None:
    """``nameA``: ``process`` with ``ALPHA_name`` renamed onto abstractEvent, against DFA."""
    out.line(f"{name}A = {process} [[ x <- abstractEvent | x <- ALPHA_{name} ]]")
    out.define(f"{name}A", rename(PRef(process), dict.fromkeys(out.sets[f"ALPHA_{name}"], "abstractEvent")))
    out.assertion(
        Assertion(kind, f"assert DFA [FD= {name}A", PRef("DFA"), PRef(f"{name}A"), frozenset({"abstractEvent"}))
    )


# --- connectors ---------------------------------------------------------------


def emit_connector(out: _Out, conn: Connector, in_configuration: bool) -> None:
    # a second glue in a style is named after its connector, as in configurations
    glue_head = "Glue" + conn.name if in_configuration or "Glue" in out.equations else "Glue"
    out.line(f"-- Connector {conn.name}")
    out.line("-- generated definitions (to split long sets)")
    out.alpha(conn.name, list(conn.total_alphabet), bar=True)
    out.line()
    _emit_decl_equations(out, conn.glue, glue_head)
    out.line()

    for role in conn.roles:
        out.alpha(role.name, list(role.alphabet.total))
        _emit_decl_equations(out, role, f"ROLE{role.name}")
        _deadlock_check(out, AssertionKind.ROLE_DEADLOCK_FREE, role.name, f"ROLE{role.name}")
        out.line()

    for role in conn.roles:
        out.channel(role, conn)

    glue_events = conn.glue.alphabet.total
    pairs = []
    for i, role in enumerate(conn.roles):
        r = role.name
        own = out.sets[f"ALPHA_{r}"]
        internal = sorted(e for e in role.alphabet.param_total if e not in glue_events)
        opener = f"{conn.name} = ( (" if i == 0 else "    ("
        out.line(f"{opener}ROLE{r}[[ x <- {r}.x | x <- {{{', '.join(own)} }} ]]")
        out.line(f"    [| diff({{|{r}|}}, {{ {', '.join(internal)}}}) |]")
        renamed = rename(PRef(f"ROLE{r}"), {n: f"{r}.{n}" for n in own})
        pairs.append((renamed, frozenset(out.sets[f"{{|{r}|}}"]).difference(internal)))
    out.line("    " + glue_head + ")" * len(conn.roles) + " )")
    out.define(conn.name, _fold(pairs, PRef(glue_head)))

    _deadlock_check(out, AssertionKind.CONNECTOR_DEADLOCK_FREE, conn.name, conn.name)
    out.line()

    if in_configuration:
        for role in conn.roles:
            _emit_decl_equations(out, role, f"ROLE{role.name}", "DET", det=True)
        out.line()


# --- components ---------------------------------------------------------------


def emit_component(out: _Out, comp: Component) -> None:
    comp_head = f"Computation{comp.name}"
    out.line(f"-- Component {comp.name}")
    out.alpha(comp.name, list(comp.total_alphabet), bar=True)
    _emit_decl_equations(out, comp.computation, comp_head)
    out.line("--Port Process")
    for port in comp.ports:
        p = port.name
        out.alpha(p, list(port.alphabet.total))
        if port.alphabet.observed:
            out.alpha(f"{p}I", list(port.alphabet.initiated))
        else:
            out.line("-- no events observed!")
        _emit_decl_equations(out, port, f"PORT{p}")
        out.line(f"{p}G = PORT{p}[[ x <-{p}.x | x <- ALPHA_{p} ]]")
        out.define(f"{p}G", rename(PRef(f"PORT{p}"), {n: f"{p}.{n}" for n in out.sets[f"ALPHA_{p}"]}))
        out.line()

    for port in comp.ports:
        out.channel(port, comp)
    out.line("--Deterministic Process restricted to the observed event")
    for port in comp.ports:
        restricted, diags = restrict_to_observed(port)
        out.diagnostics.extend(diags)
        _emit_decl_equations(out, restricted, f"PORT{port.name}", "DETR", det=True)
    out.line()

    computation_events = comp.computation.alphabet.total
    comp_events = frozenset(out.sets[f"ALPHA_{comp.name}"])
    for port in comp.ports:
        p = port.name
        first, pairs = f"COMP{p} = (", []
        for q in comp.ports:
            if q is port:
                continue
            obs = list(q.alphabet.observed)
            scoped_obs = [f"{q.name}.{n}" for n in obs]
            internal = sorted(e for e in q.alphabet.param_total if e not in computation_events)
            seg, term = f"( PORT{q.name}DETR", PRef(f"PORT{q.name}DETR")
            if obs:
                seg += f" [[ x <- {q.name}.x | x <- {{{', '.join(obs)} }} ]]"
                term = rename(term, dict(zip(obs, scoped_obs)))
            out.line(first + seg)
            out.line(f"  [| diff({{{', '.join(scoped_obs)}}}, {{ {', '.join(internal)}}}) |]")
            first = "  "
            pairs.append((term, frozenset(scoped_obs).difference(internal)))
        out.line(f"{first}{comp_head}{')' * (len(pairs) + 1)}\\ diff(ALPHA_{comp.name}, {{ |{p}| }})")
        p_events = frozenset(out.sets[f"{{|{p}|}}"])
        out.define(f"COMP{p}", PHide(_fold(pairs, PRef(comp_head)), comp_events - p_events))
        out.assertion(
            Assertion(
                AssertionKind.PORT_COMPUTATION,
                f"assert {p}G [FD= COMP{p}",
                PRef(f"{p}G"),
                PRef(f"COMP{p}"),
                p_events,
            )
        )
        out.line()


# --- configurations and styles -------------------------------------------------


def _attachment_points(
    instances: dict[str, str], types: dict[str, Union[Component, Connector]], att
) -> tuple[str, str, str, str]:
    """The instances, port and role an attachment joins, given the instance ->
    type name and type name -> type maps of its configuration."""
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
    return att.left.instance, port.name, att.right.instance, role.name


def emit_attachments(out: _Out, spec: Configuration) -> None:
    """One port/role compatibility check per attachment.

    The ``…PLUS`` terms, the union sync set and the ``ROLE{r}DET`` reference
    depend only on the (port, role) pair, so they are built once per pair,
    keyed ``"p r"``, and every attachment of that pair shares them.
    """
    out.line("--Attachment Test")
    out.line()
    instances = {i.name: i.type_name for i in spec.instances}
    types: dict[str, Union[Component, Connector]] = {t.name: t for t in spec.types}
    port_plus: dict[str, Proc] = {}
    role_plus: dict[str, Proc] = {}
    unions: dict[str, frozenset[str]] = {}
    role_det: dict[str, Proc] = {}
    for att in spec.attachments:
        ci, p, ni, r = _attachment_points(instances, types, att)
        pair = f"{p} {r}"
        both = unions.get(pair)
        if both is None:
            a_p, a_r = set(out.sets[f"ALPHA_{p}"]), set(out.sets[f"ALPHA_{r}"])
            port_plus[pair] = PPar(PRef(f"PORT{p}"), frozenset(a_r - a_p), PStop())
            role_plus[pair] = PPar(PRef(f"ROLE{r}"), frozenset(a_p - a_r), PStop())
            both = unions[pair] = frozenset(a_p | a_r)
            role_det[pair] = PRef(f"ROLE{r}DET")
        port_name, role_name = f"{ci}_{p}PLUS", f"{ni}_{r}PLUS"
        out.line(f"{port_name} = PORT{p}")
        out.line(f"  [| diff( ALPHA_{r} , ALPHA_{p} ) |] STOP")
        out.define(port_name, port_plus[pair])
        out.line(f"{role_name} = ROLE{r}")
        out.line(f"  [| diff( ALPHA_{p} , ALPHA_{r} ) |] STOP")
        out.define(role_name, role_plus[pair])
        out.line(f"{port_name}DET = {port_name}")
        out.line(f"  [| union(ALPHA_{p} , ALPHA_{r} ) |]")
        out.line(f"  ROLE{r}DET")
        out.define(f"{port_name}DET", PPar(PRef(port_name), both, role_det[pair]))
        out.assertion(
            Assertion(
                AssertionKind.PORT_ROLE,
                f"assert {role_name} [FD= {port_name}DET",
                PRef(role_name),
                PRef(f"{port_name}DET"),
                both,
            )
        )
        out.line()


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
    out.line(f"channel {', '.join(spec.event_names)}")
    out.line()
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
