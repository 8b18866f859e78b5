"""Static semantics: six structural rules checked over a symbol table.

Rules (diagnosed with the tool's historical French messages):
  1  an identifier names at most one architectural element; a where-local
     names no port, role or connector, nor another local of its where block
  2  instance types must be declared
  3  attachments may only use declared instances
  4  interface points must be ports/roles of the instance's declared type
  5  attachments read component-instance.port As connector-instance.role
  6  every port/role of an instance is attached exactly once (configurations)

All rules run and all findings are collected; nothing aborts at the first
violation.  Rule 6 reports warnings unless ``strict`` is set.  The table
maps each name to the element that declares it, and every name an instance or
attachment uses resolves through it.  This is the one place an attachment's
ends are resolved: ``analyze`` records the port and role of each attachment
that keeps rules 3-5 on its ``port`` and ``role``, which codegen reads.
Components and connectors are walked alike: ``model.parts`` gives their
interface points (ports or roles) and their computation or glue.
"""

from __future__ import annotations

from typing import Union

from .model import (
    ArchSpec,
    Component,
    Configuration,
    Connector,
    Declaration,
    DeclKind,
    Diagnostic,
    Instance,
    InterfaceRef,
    SourcePos,
    parts,
)

# What a where-local may not share its name with: a port or role (the table's
# only declarations) or a connector, whose channel or process the output once
# printed under the bare name.  The output no longer needs the rule, since its
# name table would print local `In` of port `Out` as `InOut`; the rule is kept
# so that `lint` accepts and rejects the same descriptions.
_PRINTED_BARE = (Declaration, Connector)


def build_symbol_table(spec: ArchSpec) -> tuple[dict[str, object], list[Diagnostic]]:
    """Populate the table in document order, reporting rule-1 duplicates.

    A name maps to the element its first declaration declares (a component
    or connector, a port's or role's ``Declaration``, an ``Instance``); a
    later one is a rule-1 error.  The style/configuration name maps to
    ``spec``: it names the whole description, not an element in it, so the
    first element of that name takes it over without a rule-1 error.
    """
    table: dict[str, object] = {spec.name: spec}
    diags: list[Diagnostic] = []

    def declare(name: str, element: object, pos: SourcePos) -> None:
        if table.get(name, spec) is spec:
            table[name] = element
        else:
            diags.append(Diagnostic("error", pos, "***Identificateur Redondant***", 1))

    for t in spec.types:
        declare(t.name, t, t.pos)
        for p in parts(t)[0]:
            declare(p.name, p, p.pos)

    if isinstance(spec, Configuration):
        for inst in spec.instances:
            declare(inst.name, inst, inst.pos)

    # A where-local may name no port, role or connector (its own port or role
    # included), nor an earlier local of its block.  Locals are checked once
    # the table is whole, so a port declared after the local counts too; the
    # sort puts their findings in document order.
    for t in spec.types:
        points, main = parts(t)
        for decl in (*points, main):
            seen: set[str] = set()
            for loc in decl.locals:
                if loc.name in seen or isinstance(table.get(loc.name), _PRINTED_BARE):
                    diags.append(Diagnostic("error", loc.pos, "***Identificateur Redondant***", 1))
                seen.add(loc.name)
    diags.sort(key=lambda d: d.pos)
    return table, diags


def _type(table: dict[str, object], name: str) -> Union[Component, Connector, None]:
    """The component or connector ``name`` resolves to, if it names one."""
    t = table.get(name)
    return t if isinstance(t, (Component, Connector)) else None


def _resolve_end(table: dict[str, object], end: InterfaceRef) -> Union[Declaration, Diagnostic, None]:
    """The port or role an attachment end names: its instance, that
    instance's type, then the point of that type.  An end that does not
    resolve gives the rule-3 or rule-4 diagnostic it breaks, or None when the
    instance's type is undeclared (rule 2 reports that at the instance)."""
    inst = table.get(end.instance)
    if not isinstance(inst, Instance):
        return Diagnostic("error", end.pos, "***Identificateur non declarer***", 3)
    t = _type(table, inst.type_name)
    if t is None:
        return None
    for p in parts(t)[0]:
        if p.name == end.point:
            return p
    if isinstance(table.get(end.point), Declaration):
        return Diagnostic("error", end.pos, "***L'Instance et l'Interface non pas le meme Type***", 4)
    return Diagnostic("error", end.pos, "***La deusieme partie doit etre soit un Port soit un Role***", 4)


def analyze(spec: ArchSpec, strict: bool = False) -> list[Diagnostic]:
    """Run rules 1-6 and return every diagnostic, in document order.

    Each attachment that keeps rules 3-5 gets its port and role
    ``Declaration`` on ``port`` and ``role``; any other gets None on both.
    """
    table, diags = build_symbol_table(spec)
    if not isinstance(spec, Configuration):
        return diags

    # rule 2: instance types declared
    for inst in spec.instances:
        if _type(table, inst.type_name) is None:
            diags.append(Diagnostic("error", inst.pos, "***Type non Declarer***", 2))

    # rules 3-5 per attachment; rule 6 over the well-formed ones
    sev = "error" if strict else "warning"
    attached: set[tuple[str, str]] = set()  # (instance, port or role) attached so far
    for att in spec.attachments:
        att.port = att.role = None
        left, right = _resolve_end(table, att.left), _resolve_end(table, att.right)
        if not isinstance(left, Declaration) or not isinstance(right, Declaration):
            diags.extend(e for e in (left, right) if isinstance(e, Diagnostic))
            continue
        if left.kind is not DeclKind.PORT or right.kind is not DeclKind.ROLE:
            diags.append(Diagnostic("error", att.pos, "***Attachement: Composant.Port as Connecteur.Role***", 5))
            continue
        port, role = (att.left.instance, left.name), (att.right.instance, right.name)
        if port in attached:
            diags.append(Diagnostic(sev, att.pos, "***Port deja relier***", 6))
        if role in attached:
            diags.append(Diagnostic(sev, att.pos, "***Role deja relier***", 6))
        attached.update((port, role))
        att.port, att.role = left, right

    # rule 6: completeness — every port/role of every instance attached
    for inst in spec.instances:
        t = _type(table, inst.type_name)
        if t is None:
            continue
        for p in parts(t)[0]:
            if (inst.name, p.name) not in attached:
                diags.append(Diagnostic(sev, inst.pos, f"***{p.kind.value} non relier***", 6))

    return diags


def has_errors(diags: list[Diagnostic]) -> bool:
    return any(d.severity == "error" for d in diags)
