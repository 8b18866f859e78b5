"""Static semantics: six structural rules checked over a name -> entry symbol table.

Rules (diagnosed with the tool's historical French messages):
  1  an identifier names at most one architectural element; a where-local
     names no port, role or connector, nor another local of its where block
  2  instance types must be declared
  3  attachments may only use declared instances
  4  interface points must be ports/roles of the instance's declared type
  5  attachments read component-instance.port As connector-instance.role
  6  every port/role of an instance is attached exactly once (configurations)

All rules run and all findings are collected; nothing aborts at the first
violation.  Rule 6 reports warnings unless ``strict`` is set.  Components
and connectors are walked alike: ``model.parts`` gives their interface points
(ports or roles) and their computation or glue.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from .model import (
    ArchSpec,
    Component,
    Configuration,
    Connector,
    SourcePos,
    Style,
    parts,
    slotted,
)


class Nature(Enum):
    COMPONENT = "Component"
    CONNECTOR = "Connector"
    PORT = "Port"
    ROLE = "Role"
    INSTANCE = "Instance"
    CONFIGURATION = "Configuration"
    STYLE = "Style"


# A type's class -> its nature and the nature of its interface points
_NATURES = {Component: (Nature.COMPONENT, Nature.PORT), Connector: (Nature.CONNECTOR, Nature.ROLE)}

# Natures whose names the FDR output declares as they are (a channel per port
# and role, a process per connector); a where-local may not reuse them.
_PRINTED_BARE = (Nature.PORT, Nature.ROLE, Nature.CONNECTOR)


@slotted(frozen=False)
class SymbolEntry:
    __slots__ = ("name", "nature", "link", "pos")

    def __init__(
        self,
        name: str,
        nature: Nature,
        link: Optional[SymbolEntry] = None,  # port->component, role->connector, instance->type
        pos: SourcePos = SourcePos(),
    ) -> None:
        self.name = name
        self.nature = nature
        self.link = link
        self.pos = pos


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


def build_symbol_table(spec: ArchSpec) -> tuple[dict[str, SymbolEntry], list[Diagnostic]]:
    """Populate the table in document order, reporting rule-1 duplicates.

    A name maps to its latest entry.  The style/configuration name itself
    names the whole description, not an element inside it, so it does not
    participate in the duplicate check.
    """
    table: dict[str, SymbolEntry] = {}
    diags: list[Diagnostic] = []

    def insert_unique(name: str, nature: Nature, link: Optional[SymbolEntry], pos: SourcePos) -> Optional[SymbolEntry]:
        existing = table.get(name)
        if existing is not None and existing.nature not in (Nature.STYLE, Nature.CONFIGURATION):
            diags.append(Diagnostic("error", pos, "***Identificateur Redondant***", 1))
            return existing
        table[name] = SymbolEntry(name, nature, link, pos)
        return table[name]

    nature = Nature.STYLE if isinstance(spec, Style) else Nature.CONFIGURATION
    table[spec.name] = SymbolEntry(spec.name, nature, None, spec.pos)

    for t in spec.types:
        nature, point_nature = _NATURES[type(t)]
        owner = insert_unique(t.name, nature, None, t.pos)
        for p in parts(t)[0]:
            insert_unique(p.name, point_nature, owner, p.pos)

    if isinstance(spec, Configuration):
        for inst in spec.instances:
            type_entry = table.get(inst.type_name)
            link = type_entry if type_entry and type_entry.nature in (Nature.COMPONENT, Nature.CONNECTOR) else None
            insert_unique(inst.name, Nature.INSTANCE, link, inst.pos)

    # A where-local is printed under its own name, beside the channel of every
    # port and role and the process of every connector, so it may name none of
    # these (its own port or role included), nor an earlier local of its block.
    # Locals are checked once the table is whole, so a port declared after the
    # local counts too; the sort puts their findings in document order.
    for t in spec.types:
        points, main = parts(t)
        for decl in (*points, main):
            seen: set[str] = set()
            for loc in decl.locals:
                entry = table.get(loc.name)
                if loc.name in seen or (entry is not None and entry.nature in _PRINTED_BARE):
                    diags.append(Diagnostic("error", loc.pos, "***Identificateur Redondant***", 1))
                seen.add(loc.name)
    diags.sort(key=lambda d: d.pos)
    return table, diags


def analyze(spec: ArchSpec, strict: bool = False) -> list[Diagnostic]:
    """Run rules 1-6 and return every diagnostic, in document order."""
    table, diags = build_symbol_table(spec)
    if not isinstance(spec, Configuration):
        return diags

    # rule 2: instance types declared
    for inst in spec.instances:
        entry = table.get(inst.type_name)
        if entry is None or entry.nature not in (Nature.COMPONENT, Nature.CONNECTOR):
            diags.append(Diagnostic("error", inst.pos, "***Type non Declarer***", 2))

    type_by_name: dict[str, Component | Connector] = {t.name: t for t in spec.types}

    def resolve_interface(iref) -> Optional[type]:
        """The class of the type whose interface point ``iref`` names, or None
        after appending a diagnostic (none if rule 2 already reported it)."""
        inst_entry = table.get(iref.instance)
        if inst_entry is None or inst_entry.nature is not Nature.INSTANCE:
            diags.append(Diagnostic("error", iref.pos, "***Identificateur non declarer***", 3))
            return None
        if inst_entry.link is None:
            # type was undeclared; already reported under rule 2
            return None
        tdecl = type_by_name.get(inst_entry.link.name)
        if tdecl is None:
            return None
        if iref.point in [p.name for p in parts(tdecl)[0]]:
            return type(tdecl)
        point_entry = table.get(iref.point)
        if point_entry is not None and point_entry.nature in (Nature.PORT, Nature.ROLE):
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
