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
and the determinized role.  Codegen resolves no names of its own: it reads
each attachment's port and role where ``analyzer.analyze`` recorded them, and
the alphabets where ``alphabets.annotate`` did.

Alongside the text, the same checks are produced as structured assertions
over process terms, plus the full environment of named process definitions,
so the embedded engine can discharge exactly what the file asserts.  Every
set a composite term uses is read from the declaration the text printed for
it: ``ALPHA_x`` lines and ``channel p: {...}`` lines, where ``{|p|}`` covers
the port's or role's own events and every other value the computation or
glue uses under ``p``, so each channel declaration is well typed.  An
engine term is a ``model.ProcessExpr``: the behavioural AST's classes with
every reference resolved to an emitted name, choices lowered by
``process_term``, and the engine's parallel, renaming and hiding.
Emission records each equation's body with the names it resolves against and
lowers those bodies on first use of ``EmitPlan.definitions``, so a caller
that only prints the text (``translate``) never builds them.

Every process and ``ALPHA_`` set name the text defines comes from
``_Out.name``: one table over CSPM's single namespace, which starts with
``alphabets.OUTPUT_NAMES`` and the event, port and role channels, all fixed.  A
definition gets the name it wants if that is free, else that name plus its
owner's (``LOut`` for local ``L`` of port ``Out``, ``GlueK2``, and an
attachment's other end in ``A_x_yPLUSP2_Reader``), numbered from 2 on while
taken.  Derived forms (``…DET``, ``…DETR``, ``…PLUSDET``) want their first
emission's name plus the suffix, and a name another function references
(``PORTp``, ``ROLErDET``, ``ALPHA_p``) is looked up by its Wright element.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import Union

from .alphabets import OUTPUT_NAMES, observed
from .engine import PExt, PHide, PPar, dfa_definitions, rename
from .model import (
    EMPTY,
    ArchSpec,
    Choice,
    Component,
    Configuration,
    Connector,
    Declaration,
    Diagnostic,
    Empty,
    ExternalChoice,
    InternalChoice,
    Prefix,
    ProcessExpr,
    Ref,
    Success,
    parts,
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
    __slots__ = ("kind", "label", "spec_term", "impl_term", "key")

    def __init__(
        self,
        kind: AssertionKind,
        label: str,
        spec_term: ProcessExpr,
        impl_term: ProcessExpr,
        key: str | None = None,
    ) -> None:
        self.kind = kind
        self.label = label  # the exact "assert X [FD= Y" line
        self.spec_term = spec_term
        self.impl_term = impl_term
        # assertions with equal keys have equal verdicts; None promises nothing
        self.key = key


# The right-hand side of a named process: an engine term, or an equation body
# and the names it resolves against, lowered by ``process_term`` when needed.
Definition = Union[ProcessExpr, tuple[ProcessExpr, dict[str, str]]]


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
    def definitions(self) -> dict[str, ProcessExpr]:
        """Every named process as an engine term, lowered on first access."""
        return {
            name: process_term(*rhs) if isinstance(rhs, tuple) else rhs
            for name, rhs in self.equations.items()
        }


class CodegenError(Exception):
    pass


# --- process rendering and lowering -----------------------------------------


def fdr_expr(expr: ProcessExpr, names: dict[str, str]) -> str:
    if isinstance(expr, Prefix):
        return f"({expr.event} -> {fdr_expr(expr.rest, names)})"
    if isinstance(expr, Choice):  # a run prints grouped to the left: ((b1 [] b2) [] b3)
        op = " [] " if isinstance(expr, ExternalChoice) else " |~| "
        parts = ["(" * (len(expr.branches) - 1), fdr_expr(expr.branches[0], names)]
        for branch in expr.branches[1:]:
            parts += op, fdr_expr(branch, names), ")"
        return "".join(parts)
    if isinstance(expr, Ref):
        return names.get(expr.name, expr.name)
    if isinstance(expr, Success):
        return "SKIP"
    if isinstance(expr, Empty):
        return "STOP"
    raise CodegenError(f"cannot render {expr!r}")


def process_term(expr: ProcessExpr, names: dict[str, str]) -> ProcessExpr:
    """Lower an equation body to an engine term: names resolved, a ``[]`` run
    made canonical by ``PExt``, prefix polarity dropped."""
    if isinstance(expr, Prefix):
        return Prefix(expr.event, process_term(expr.rest, names))
    if isinstance(expr, ExternalChoice):
        return PExt(*[process_term(b, names) for b in expr.branches])
    if isinstance(expr, InternalChoice):  # (a |~| b) |~| c is the run a |~| b |~| c to the engine
        first, *rest = [process_term(b, names) for b in expr.branches]
        return InternalChoice((*first.branches, *rest) if type(first) is InternalChoice else (first, *rest))
    if isinstance(expr, Ref):
        return Ref(names.get(expr.name, expr.name))
    if isinstance(expr, (Success, Empty)):
        return expr
    raise CodegenError(f"cannot lower {expr!r}")


# --- emission machinery ------------------------------------------------------


class _Out:
    """The output lines, the assertions and process definitions they carry,
    the events of every set name printed so far (``ALPHA_x`` and ``{|p|}``),
    and the table of every name the text defines."""

    def __init__(self, spec: ArchSpec) -> None:
        self.lines: list[str] = list(HEADER_LINES)
        self.assertions: list[Assertion] = []
        self.equations: dict[str, Definition] = dict(dfa_definitions())
        self.sets: dict[str, list[str]] = {}
        # the names the text defines or prints and every channel (event, port or role) are fixed
        self.taken = {*OUTPUT_NAMES, *spec.event_names}
        for t in spec.types:
            self.taken.update(d.name for d in parts(t)[0])
        # form ("" for a first emission, DET, DETR) -> id of a declaration -> its names
        self.scopes: dict[str, dict[int, dict[str, str]]] = {"": {}, "DET": {}, "DETR": {}}
        self.alphas: dict[int, str] = {}  # id of a Wright element -> its ALPHA_ set's name
        self.diagnostics: list[Diagnostic] = []

    def name(self, wanted: str, owner: str) -> str:
        """A name nothing has taken yet, by the rule of the module docstring."""
        if wanted in self.taken:
            base, i = wanted + owner, 2
            wanted = base
            while wanted in self.taken:
                wanted, i = f"{base}{i}", i + 1
        self.taken.add(wanted)
        return wanted

    def process(self, decl: Declaration, form: str = "") -> str:
        """The name ``decl``'s equation got in the emission of ``form``."""
        return self.scopes[form][id(decl)][decl.name]

    def line(self, text: str = "") -> None:
        self.lines.append(text)

    def equation(self, name: str, body: ProcessExpr, names: dict[str, str]) -> None:
        self.line(f"{name} = {fdr_expr(body, names)}")
        self.equations[name] = (body, names)

    def assertion(self, a: Assertion) -> None:
        self.assertions.append(a)
        self.line(a.label)

    def alpha(self, element: Union[Declaration, Component, Connector], form: str, events: list[str],
              bar: bool = False) -> str:
        """``ALPHA_x = {...}``, or ``{|...|}`` when ``bar`` and ``events`` is
        not empty, where ``x`` is ``element``'s name plus ``form``; returns the
        set's name."""
        name = self.name(f"ALPHA_{element.name}{form}", element.name)
        self.sets[name] = events
        inner = ", ".join(events)
        self.line(f"{name} = " + (f"{{|{inner}|}}" if bar and events else f"{{{inner}}}"))
        return name

    def channel(self, point: Declaration, owner: Union[Component, Connector]) -> None:
        """``channel p: {...}``: the port's or role's own events, then every
        other value its owner's computation or glue uses under ``p``."""
        values = dict.fromkeys(point.alphabet)
        prefix = point.name + "."
        for n in owner.total_alphabet:
            if n.startswith(prefix):
                values.setdefault(n[len(prefix):])
        self.line(f"channel {point.name}: {{{', '.join(values)}}}")
        self.sets[f"{{|{point.name}|}}"] = [prefix + v for v in values]


def _fold(pairs: list[tuple[ProcessExpr, frozenset[str]]], last: ProcessExpr) -> ProcessExpr:
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
    out: _Out, decl: Declaration, owner: str, wanted: str = "", form: str = "", source: Declaration | None = None
) -> str:
    """Where-locals first, then the declaration's own equation, which wants
    the name ``wanted``; returns the name it got.  Each local wants its own
    name, and references resolve to a redefined local's last definition.

    A derived form (``DET`` or ``DETR``) determinizes every body, and each
    name wants the one the first emission of ``source`` (``decl`` itself by
    default) chose, plus ``form``.
    """
    key, own = id(source or decl), []
    first = out.scopes[""][key] if form else {decl.name: wanted}
    names = out.scopes[form][key] = {}
    for d in (decl, *decl.locals):
        own.append(out.name(first.get(d.name, d.name) + form, owner))
        names[d.name] = own[-1]
    for loc, name in zip(decl.locals, own[1:]):
        out.equation(name, determinized(loc.body) if form else loc.body, names)
    out.equation(own[0], determinized(decl.body) if form else decl.body, names)
    return own[0]


def _deadlock_check(out: _Out, kind: AssertionKind, element: Union[Declaration, Connector], process: str) -> None:
    """``process`` with ``element``'s ``ALPHA_`` set renamed onto abstractEvent, against DFA."""
    alpha = out.alphas[id(element)]
    name = out.name(f"{element.name}A", element.name)
    out.line(f"{name} = {process} [[ x <- abstractEvent | x <- {alpha} ]]")
    out.equations[name] = rename(Ref(process), dict.fromkeys(out.sets[alpha], "abstractEvent"))
    out.assertion(Assertion(kind, f"assert DFA [FD= {name}", Ref("DFA"), Ref(name)))


# --- connectors ---------------------------------------------------------------


def emit_connector(out: _Out, conn: Connector, in_configuration: bool) -> None:
    out.line(f"-- Connector {conn.name}")
    out.line("-- generated definitions (to split long sets)")
    out.alphas[id(conn)] = out.alpha(conn, "", list(conn.total_alphabet), bar=True)
    out.line()
    glue = _emit_decl_equations(out, conn.glue, conn.name, "Glue" + conn.name if in_configuration else "Glue")
    out.line()

    for role in conn.roles:
        out.alphas[id(role)] = out.alpha(role, "", list(role.alphabet))
        process = _emit_decl_equations(out, role, role.name, f"ROLE{role.name}")
        _deadlock_check(out, AssertionKind.ROLE_DEADLOCK_FREE, role, process)
        out.line()

    for role in conn.roles:
        out.channel(role, conn)

    name = out.name(conn.name, conn.name)
    pairs = []
    for i, role in enumerate(conn.roles):
        r, process = role.name, out.process(role)
        own = out.sets[out.alphas[id(role)]]
        internal = sorted({f"{r}.{e}" for e in role.alphabet}.difference(conn.glue.alphabet))
        opener = f"{name} = ( (" if i == 0 else "    ("
        out.line(f"{opener}{process}[[ x <- {r}.x | x <- {{{', '.join(own)} }} ]]")
        out.line(f"    [| diff({{|{r}|}}, {{ {', '.join(internal)}}}) |]")
        renamed = rename(Ref(process), {n: f"{r}.{n}" for n in own})
        pairs.append((renamed, frozenset(out.sets[f"{{|{r}|}}"]).difference(internal)))
    out.line("    " + glue + ")" * len(conn.roles) + " )")
    out.equations[name] = _fold(pairs, Ref(glue))

    _deadlock_check(out, AssertionKind.CONNECTOR_DEADLOCK_FREE, conn, name)
    out.line()

    if in_configuration:
        for role in conn.roles:
            _emit_decl_equations(out, role, role.name, form="DET")
        out.line()


# --- components ---------------------------------------------------------------


def emit_component(out: _Out, comp: Component) -> None:
    out.line(f"-- Component {comp.name}")
    comp_alpha = out.alpha(comp, "", list(comp.total_alphabet), bar=True)
    computation = _emit_decl_equations(out, comp.computation, comp.name, f"Computation{comp.name}")
    out.line("--Port Process")
    renamed, observed_events = [], []  # each port's ``…G`` name and observed events
    for port in comp.ports:
        p = port.name
        alpha = out.alphas[id(port)] = out.alpha(port, "", list(port.alphabet))
        observed_events.append(list(observed(port.alphabet)))
        if observed_events[-1]:
            out.alpha(port, "I", [e for e, i in port.alphabet.items() if i])
        else:
            out.line("-- no events observed!")
        process = _emit_decl_equations(out, port, p, f"PORT{p}")
        g = out.name(f"{p}G", p)
        renamed.append(g)
        out.line(f"{g} = {process}[[ x <-{p}.x | x <- {alpha} ]]")
        out.equations[g] = rename(Ref(process), {n: f"{p}.{n}" for n in out.sets[alpha]})
        out.line()

    for port in comp.ports:
        out.channel(port, comp)
    out.line("--Deterministic Process restricted to the observed event")
    for port in comp.ports:
        restricted, diags = restrict_to_observed(port)
        out.diagnostics.extend(diags)
        _emit_decl_equations(out, restricted, port.name, form="DETR", source=port)
    out.line()

    computation_events = comp.computation.alphabet
    comp_events = frozenset(out.sets[comp_alpha])
    for port, g in zip(comp.ports, renamed):
        p = port.name
        name = out.name(f"COMP{p}", p)
        first, pairs = f"{name} = (", []
        for q, obs in zip(comp.ports, observed_events):
            if q is port:
                continue
            scoped_obs = [f"{q.name}.{n}" for n in obs]
            internal = sorted({f"{q.name}.{e}" for e in q.alphabet}.difference(computation_events))
            restricted = out.process(q, "DETR")
            seg, term = f"( {restricted}", Ref(restricted)
            if obs:
                seg += f" [[ x <- {q.name}.x | x <- {{{', '.join(obs)} }} ]]"
                term = rename(term, dict(zip(obs, scoped_obs)))
            out.line(first + seg)
            out.line(f"  [| diff({{{', '.join(scoped_obs)}}}, {{ {', '.join(internal)}}}) |]")
            first = "  "
            pairs.append((term, frozenset(scoped_obs).difference(internal)))
        out.line(f"{first}{computation}{')' * (len(pairs) + 1)}\\ diff({comp_alpha}, {{ |{p}| }})")
        p_events = frozenset(out.sets[f"{{|{p}|}}"])
        out.equations[name] = PHide(_fold(pairs, Ref(computation)), comp_events - p_events)
        out.assertion(Assertion(AssertionKind.PORT_COMPUTATION, f"assert {g} [FD= {name}", Ref(g), Ref(name)))
        out.line()


# --- configurations and styles -------------------------------------------------


def emit_attachments(out: _Out, spec: Configuration) -> None:
    """One port/role compatibility check per attachment, on the port and
    role ``analyzer.analyze`` resolved it to.

    The ``…PLUS`` terms, the union sync set and the ``ROLE{r}DET`` reference
    depend only on the (port, role) pair, so they are built once per pair,
    keyed ``"p r"``, and every attachment of that pair shares them.  So
    does its verdict: the pair is the assertion's ``key``.  Each
    attachment's three equations and its assertion are one block of lines.
    """
    out.line("--Attachment Test")
    out.line()
    shared: dict[str, tuple] = {}  # "p r" -> the pair's names in the text, then its terms
    for att in spec.attachments:
        port, role = att.port, att.role
        if port is None or role is None:
            raise CodegenError(
                f"attachment {att.left} As {att.right} does not resolve; run static analysis before code generation"
            )
        pair = f"{port.name} {role.name}"
        if pair not in shared:
            a_p, a_r = out.alphas[id(port)], out.alphas[id(role)]
            e_p, e_r = set(out.sets[a_p]), set(out.sets[a_r])
            names = out.process(port), out.process(role), out.process(role, "DET"), a_p, a_r
            shared[pair] = names, (
                PPar(Ref(names[0]), frozenset(e_r - e_p), EMPTY),
                PPar(Ref(names[1]), frozenset(e_p - e_r), EMPTY),
                frozenset(e_p | e_r),
                Ref(names[2]),
            )
        (port_process, role_process, det, a_p, a_r), (port_plus, role_plus, both, role_det) = shared[pair]
        port_end, role_end = f"{att.left.instance}_{port.name}", f"{att.right.instance}_{role.name}"
        port_name = out.name(port_end + "PLUS", role_end)
        role_name = out.name(role_end + "PLUS", port_end)
        port_det = out.name(port_name + "DET", role_end)
        out.equations[port_name] = port_plus
        out.equations[role_name] = role_plus
        out.equations[port_det] = PPar(Ref(port_name), both, role_det)
        label = f"assert {role_name} [FD= {port_det}"
        out.assertions.append(Assertion(AssertionKind.PORT_ROLE, label, Ref(role_name), Ref(port_det), pair))
        out.line(
            f"{port_name} = {port_process}\n  [| diff( {a_r} , {a_p} ) |] STOP\n"
            f"{role_name} = {role_process}\n  [| diff( {a_p} , {a_r} ) |] STOP\n"
            f"{port_det} = {port_name}\n  [| union({a_p} , {a_r} ) |]\n  {det}\n"
            f"{label}\n"
        )


def emit(spec: ArchSpec) -> EmitPlan:
    """Emit the full FDR file plus the structured assertions for ``spec``.

    ``spec`` must already be analyzed and annotated: ``analyzer.analyze``
    records each attachment's port and role, which the attachment checks
    read, and ``alphabets.annotate`` fills the alphabets.  An attachment
    that analysis did not resolve is a ``CodegenError``.
    """
    out = _Out(spec)
    in_config = isinstance(spec, Configuration)
    kw = "Configuration" if in_config else "Style"
    out.line(f"-- {kw} {spec.name}")
    out.line("-- Types declarations")
    out.line("-- events for abstract specification")
    if spec.event_names:
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
