"""Static semantics: six structural rules checked over a hash-bucket symbol table.

Rules (diagnosed with the tool's historical French messages):
  1  an identifier names at most one architectural element; a where-local
     names no port, role or connector, nor another local of its where block
  2  instance types must be declared
  3  attachments may only use declared instances
  4  interface points must be ports/roles of the instance's declared type
  5  attachments read component-instance.port As connector-instance.role
  6  every port/role of an instance is attached exactly once (configurations)

All rules run and all findings are collected; nothing aborts at the first
violation.  Rule 6 reports warnings unless ``strict`` is set.
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
    slotted,
)

TABLE_SIZE = 211  # prime; keeps bucket chains short for realistic inputs


class Nature(Enum):
    COMPONENT = "Component"
    CONNECTOR = "Connector"
    PORT = "Port"
    ROLE = "Role"
    INSTANCE = "Instance"
    CONFIGURATION = "Configuration"
    STYLE = "Style"


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


class SymbolTable:
    """Fixed-size bucket array with most-recent-first chains."""

    def __init__(self, size: int = TABLE_SIZE) -> None:
        self.size = size
        self.buckets: list[list[SymbolEntry]] = [[] for _ in range(size)]

    def hash(self, name: str) -> int:
        # Bucket numbers never leave the table, so Python's own string hash
        # (computed once per str object) serves.
        return hash(name) % self.size

    def insert(self, entry: SymbolEntry) -> None:
        self.buckets[self.hash(entry.name)].insert(0, entry)

    def lookup(self, name: str) -> Optional[SymbolEntry]:
        for entry in self.buckets[self.hash(name)]:
            if entry.name == name:
                return entry
        return None


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


def _diag(sev: str, rule: Optional[int], pos: SourcePos, text: str) -> Diagnostic:
    return Diagnostic(sev, pos, text, rule)


def build_symbol_table(spec: ArchSpec) -> tuple[SymbolTable, list[Diagnostic]]:
    """Populate the table in document order, reporting rule-1 duplicates.

    The style/configuration name itself names the whole description, not an
    element inside it, so it does not participate in the duplicate check.
    """
    table = SymbolTable()
    diags: list[Diagnostic] = []

    def insert_unique(name: str, nature: Nature, link: Optional[SymbolEntry], pos: SourcePos) -> Optional[SymbolEntry]:
        existing = table.lookup(name)
        if existing is not None and existing.nature not in (Nature.STYLE, Nature.CONFIGURATION):
            diags.append(_diag("error", 1, pos, "***Identificateur Redondant***"))
            return existing
        entry = SymbolEntry(name, nature, link, pos)
        table.insert(entry)
        return entry

    if isinstance(spec, Style):
        table.insert(SymbolEntry(spec.name, Nature.STYLE, None, spec.pos))
    else:
        table.insert(SymbolEntry(spec.name, Nature.CONFIGURATION, None, spec.pos))

    for t in spec.types:
        if isinstance(t, Component):
            owner = insert_unique(t.name, Nature.COMPONENT, None, t.pos)
            for p in t.ports:
                insert_unique(p.name, Nature.PORT, owner, p.pos)
        else:
            owner = insert_unique(t.name, Nature.CONNECTOR, None, t.pos)
            for r in t.roles:
                insert_unique(r.name, Nature.ROLE, owner, r.pos)

    if isinstance(spec, Configuration):
        for inst in spec.instances:
            type_entry = table.lookup(inst.type_name)
            link = type_entry if type_entry and type_entry.nature in (Nature.COMPONENT, Nature.CONNECTOR) else None
            insert_unique(inst.name, Nature.INSTANCE, link, inst.pos)

    # A where-local is printed under its own name, beside the channel of every
    # port and role and the process of every connector, so it may name none of
    # these (its own port or role included), nor an earlier local of its block.
    # Locals are checked once the table is whole, so a port declared after the
    # local counts too; the sort puts their findings in document order.
    for t in spec.types:
        for decl in (*t.ports, t.computation) if isinstance(t, Component) else (*t.roles, t.glue):
            seen: set[str] = set()
            for loc in decl.locals:
                entry = table.lookup(loc.name)
                if loc.name in seen or (entry is not None and entry.nature in _PRINTED_BARE):
                    diags.append(_diag("error", 1, loc.pos, "***Identificateur Redondant***"))
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
        entry = table.lookup(inst.type_name)
        if entry is None or entry.nature not in (Nature.COMPONENT, Nature.CONNECTOR):
            diags.append(_diag("error", 2, inst.pos, "***Type non Declarer***"))

    type_by_name: dict[str, Component | Connector] = {t.name: t for t in spec.types}

    def resolve_interface(iref) -> tuple[Optional[str], bool]:
        """Returns (owner type nature name, ok).  Appends diagnostics on failure."""
        inst_entry = table.lookup(iref.instance)
        if inst_entry is None or inst_entry.nature is not Nature.INSTANCE:
            diags.append(_diag("error", 3, iref.pos, "***Identificateur non declarer***"))
            return None, False
        if inst_entry.link is None:
            # type was undeclared; already reported under rule 2
            return None, False
        tdecl = type_by_name.get(inst_entry.link.name)
        if tdecl is None:
            return None, False
        members = [p.name for p in tdecl.ports] if isinstance(tdecl, Component) else [r.name for r in tdecl.roles]
        if iref.point in members:
            return ("Component" if isinstance(tdecl, Component) else "Connector"), True
        point_entry = table.lookup(iref.point)
        if point_entry is not None and point_entry.nature in (Nature.PORT, Nature.ROLE):
            diags.append(_diag("error", 4, iref.pos, "***L'Instance et l'Interface non pas le meme Type***"))
        else:
            diags.append(
                _diag("error", 4, iref.pos, "***La deusieme partie doit etre soit un Port soit un Role***")
            )
        return None, False

    # rules 3-5 per attachment, rule 6 counting over the well-formed ones
    port_uses: dict[tuple[str, str], int] = {}
    role_uses: dict[tuple[str, str], int] = {}
    for att in spec.attachments:
        left_kind, left_ok = resolve_interface(att.left)
        right_kind, right_ok = resolve_interface(att.right)
        if not (left_ok and right_ok):
            continue
        if left_kind != "Component" or right_kind != "Connector":
            diags.append(
                _diag("error", 5, att.pos, "***Attachement: Composant.Port as Connecteur.Role***")
            )
            continue
        port_key = (att.left.instance, att.left.point)
        role_key = (att.right.instance, att.right.point)
        sev = "error" if strict else "warning"
        if port_uses.get(port_key):
            diags.append(_diag(sev, 6, att.pos, "***Port deja relier***"))
        if role_uses.get(role_key):
            diags.append(_diag(sev, 6, att.pos, "***Role deja relier***"))
        port_uses[port_key] = port_uses.get(port_key, 0) + 1
        role_uses[role_key] = role_uses.get(role_key, 0) + 1

    # rule 6: completeness — every port/role of every instance attached
    sev = "error" if strict else "warning"
    for inst in spec.instances:
        tdecl = type_by_name.get(inst.type_name)
        if tdecl is None:
            continue
        if isinstance(tdecl, Component):
            for p in tdecl.ports:
                if not port_uses.get((inst.name, p.name)):
                    diags.append(_diag(sev, 6, inst.pos, "***Port non relier***"))
        else:
            for r in tdecl.roles:
                if not role_uses.get((inst.name, r.name)):
                    diags.append(_diag(sev, 6, inst.pos, "***Role non relier***"))

    return diags


def has_errors(diags: list[Diagnostic]) -> bool:
    return any(d.severity == "error" for d in diags)
