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
maps each name to what declares it, in the model's own terms: a type's class,
a point's ``DeclKind``, ``Instance``, or the description's class.  Components
and connectors are walked alike: ``model.parts`` gives their interface points
(ports or roles) and their computation or glue.
"""

from __future__ import annotations

from typing import Optional

from .model import (
    ArchSpec,
    Component,
    Configuration,
    Connector,
    DeclKind,
    Instance,
    SourcePos,
    parts,
    slotted,
)

# What a where-local may not share its name with.  These are the elements
# whose channel (a port or role) or process (a connector) the output once
# printed under the bare name.  The output no longer needs the rule, since
# its name table would print local `In` of port `Out` as `InOut`; the rule
# is kept so that `lint` accepts and rejects the same descriptions.
_PRINTED_BARE = (DeclKind.PORT, DeclKind.ROLE, Connector)


@slotted(frozen=False)
class Diagnostic:
    __slots__ = ("severity", "pos", "message", "rule")

    def __init__(self, severity: str, pos: SourcePos, message: str, rule: Optional[int] = None) -> None:
        self.severity = severity  # "error" | "warning"
        self.pos = pos
        self.message = message
        self.rule = rule

    def __str__(self) -> str:
        prefix = f"rule={self.rule} " if self.rule is not None else ""
        return f"{self.pos}: {self.severity}: {prefix}{self.message}"


def build_symbol_table(spec: ArchSpec) -> tuple[dict[str, object], list[Diagnostic]]:
    """Populate the table in document order, reporting rule-1 duplicates.

    A name maps to what its first declaration declares; a later declaration
    of the name is a rule-1 error.  The style/configuration name itself names
    the whole description, not an element inside it, so it does not take
    part in the duplicate check: the first element of that name takes it over.
    """
    table: dict[str, object] = {spec.name: type(spec)}
    diags: list[Diagnostic] = []

    def declare(name: str, what: object, pos: SourcePos) -> None:
        if table.get(name, type(spec)) is type(spec):
            table[name] = what
        else:
            diags.append(Diagnostic("error", pos, "***Identificateur Redondant***", 1))

    for t in spec.types:
        declare(t.name, type(t), t.pos)
        for p in parts(t)[0]:
            declare(p.name, p.kind, p.pos)

    if isinstance(spec, Configuration):
        for inst in spec.instances:
            declare(inst.name, Instance, inst.pos)

    # A where-local may name no port, role or connector (its own port or role
    # included), nor an earlier local of its block.  Locals are checked once
    # the table is whole, so a port declared after the local counts too; the
    # sort puts their findings in document order.
    for t in spec.types:
        points, main = parts(t)
        for decl in (*points, main):
            seen: set[str] = set()
            for loc in decl.locals:
                if loc.name in seen or table.get(loc.name) in _PRINTED_BARE:
                    diags.append(Diagnostic("error", loc.pos, "***Identificateur Redondant***", 1))
                seen.add(loc.name)
    diags.sort(key=lambda d: d.pos)
    return table, diags


def analyze(spec: ArchSpec, strict: bool = False) -> list[Diagnostic]:
    """Run rules 1-6 and return every diagnostic, in document order."""
    table, diags = build_symbol_table(spec)
    if not isinstance(spec, Configuration):
        return diags

    # rule 2: instance types declared; an instance's type is its first
    # declaration's, as the table keeps only that one (so does type_by_name)
    type_names: dict[str, str] = {}
    for inst in spec.instances:
        if table.get(inst.type_name) not in (Component, Connector):
            diags.append(Diagnostic("error", inst.pos, "***Type non Declarer***", 2))
        type_names.setdefault(inst.name, inst.type_name)

    type_by_name: dict[str, Component | Connector] = {t.name: t for t in reversed(spec.types)}

    def resolve_interface(iref) -> Optional[type]:
        """The class of the type whose interface point ``iref`` names, or None
        after appending a diagnostic (none if rule 2 already reported it)."""
        if table.get(iref.instance) is not Instance:
            diags.append(Diagnostic("error", iref.pos, "***Identificateur non declarer***", 3))
            return None
        type_name = type_names[iref.instance]
        if table.get(type_name) not in (Component, Connector):
            # type was undeclared; already reported under rule 2
            return None
        tdecl = type_by_name[type_name]
        if iref.point in [p.name for p in parts(tdecl)[0]]:
            return type(tdecl)
        if table.get(iref.point) in (DeclKind.PORT, DeclKind.ROLE):
            diags.append(Diagnostic("error", iref.pos, "***L'Instance et l'Interface non pas le meme Type***", 4))
        else:
            diags.append(
                Diagnostic("error", iref.pos, "***La deusieme partie doit etre soit un Port soit un Role***", 4)
            )
        return None

    # rules 3-5 per attachment; rule 6 over the well-formed ones
    sev = "error" if strict else "warning"
    ports: set[tuple[str, str]] = set()  # (instance, port) attached so far
    roles: set[tuple[str, str]] = set()  # (instance, role) attached so far
    attached = {Component: ports, Connector: roles}
    for att in spec.attachments:
        left, right = resolve_interface(att.left), resolve_interface(att.right)
        if left is None or right is None:
            continue
        if left is not Component or right is not Connector:
            diags.append(Diagnostic("error", att.pos, "***Attachement: Composant.Port as Connecteur.Role***", 5))
            continue
        port, role = (att.left.instance, att.left.point), (att.right.instance, att.right.point)
        if port in ports:
            diags.append(Diagnostic(sev, att.pos, "***Port deja relier***", 6))
        if role in roles:
            diags.append(Diagnostic(sev, att.pos, "***Role deja relier***", 6))
        ports.add(port)
        roles.add(role)

    # rule 6: completeness — every port/role of every instance attached
    for inst in spec.instances:
        tdecl = type_by_name.get(inst.type_name)
        if tdecl is None:
            continue
        uses = attached[type(tdecl)]
        for p in parts(tdecl)[0]:
            if (inst.name, p.name) not in uses:
                diags.append(Diagnostic(sev, inst.pos, f"***{p.kind.value} non relier***", 6))

    return diags


def has_errors(diags: list[Diagnostic]) -> bool:
    return any(d.severity == "error" for d in diags)
