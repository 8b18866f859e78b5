"""Core data model: structural and behavioural AST plus set/relation machinery.

Structural side: Component / Connector / Configuration / Style.  Behavioural
side: ProcessExpr trees whose leaves are events, named references and the
success process.  EventSet and the relation helpers are the workhorses of
alphabet computation; they keep insertion order so that generated output is
reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Union


class SourcePos(NamedTuple):
    """1-based line/column of a construct in the input file."""

    line: int = 1
    column: int = 1

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


@dataclass(frozen=True, eq=False, slots=True)
class EventRef:
    """A scoped event occurrence.

    ``scope`` holds 0, 1 or 2 qualifying segments (local, port-scoped,
    instance.port-scoped).  Identity deliberately ignores polarity: alphabets
    mix initiated and observed uses of one event and keep the polarity of the
    first occurrence as metadata.
    """

    name: str
    initiated: bool = False
    scope: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(self.scope) > 2:
            raise ValueError(f"event {self.name} over-qualified: {self.scope}")

    def key(self) -> tuple[str, tuple[str, ...]]:
        return (self.name, self.scope)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventRef):
            return NotImplemented
        return self.name == other.name and self.scope == other.scope

    def __hash__(self) -> int:
        return hash((self.name, self.scope))

    @property
    def qualified(self) -> str:
        """Dotted rendering without the polarity marker, e.g. ``In.read``."""
        return ".".join(self.scope + (self.name,))

    def __repr__(self) -> str:
        bar = "_" if self.initiated else ""
        return f"EventRef({bar}{self.qualified})"


# --- behavioural AST ------------------------------------------------------


class ProcessExpr:
    """Base class for process expressions (tagged-union style)."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Prefix(ProcessExpr):
    event: EventRef
    rest: ProcessExpr


@dataclass(frozen=True, slots=True)
class ExternalChoice(ProcessExpr):
    left: ProcessExpr
    right: ProcessExpr


@dataclass(frozen=True, slots=True)
class InternalChoice(ProcessExpr):
    left: ProcessExpr
    right: ProcessExpr


@dataclass(frozen=True, slots=True)
class Ref(ProcessExpr):
    """Reference to a named process (the declaration itself or a local)."""

    name: str


@dataclass(frozen=True, slots=True)
class Success(ProcessExpr):
    """TICK: perform the success event and stop."""


@dataclass(frozen=True, slots=True)
class Empty(ProcessExpr):
    """The eliminated process: the result of projecting everything away.

    Behaves like STOP; printed as SKIP only when it is a whole body.
    """


SUCCESS = Success()
EMPTY = Empty()

Choice = (ExternalChoice, InternalChoice)


def walk_events(expr: ProcessExpr) -> Iterator[EventRef]:
    """Yield every event occurrence in prefix position, left to right."""
    if isinstance(expr, Prefix):
        yield expr.event
        yield from walk_events(expr.rest)
    elif isinstance(expr, Choice):
        yield from walk_events(expr.left)
        yield from walk_events(expr.right)


def walk_refs(expr: ProcessExpr) -> Iterator[str]:
    """Yield every named-process reference in the expression."""
    if isinstance(expr, Prefix):
        yield from walk_refs(expr.rest)
    elif isinstance(expr, Choice):
        yield from walk_refs(expr.left)
        yield from walk_refs(expr.right)
    elif isinstance(expr, Ref):
        yield expr.name


# --- event sets and relations ---------------------------------------------


class EventSet:
    """Finite, duplicate-free, insertion-ordered set of EventRef.

    Membership is polarity-blind (EventRef equality); the first occurrence
    decides the stored polarity.
    """

    __slots__ = ("_items",)

    def __init__(self, items: Iterable[EventRef] = ()) -> None:
        self._items: dict[EventRef, None] = {}
        for e in items:
            self.add(e)

    def add(self, e: EventRef) -> None:
        if e not in self._items:
            self._items[e] = None

    def __contains__(self, e: EventRef) -> bool:
        return e in self._items

    def __iter__(self) -> Iterator[EventRef]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventSet):
            return NotImplemented
        return set(self._items) == set(other._items)

    def __repr__(self) -> str:
        return "{" + ", ".join(repr(e) for e in self) + "}"

    def copy(self) -> "EventSet":
        return EventSet(self)

    def union(self, other: "EventSet") -> "EventSet":
        out = self.copy()
        for e in other:
            out.add(e)
        return out

    def minus(self, other: "EventSet") -> "EventSet":
        return EventSet(e for e in self if e not in other)

    def qualified_names(self) -> list[str]:
        return [e.qualified for e in self]


# A name-to-name relation is an ordered mapping from process names to the
# (ordered) names they reference; a name-to-events relation maps names to
# EventSets.  Plain dicts keep things deterministic.
NameRelation = dict[str, dict[str, None]]
EventRelation = dict[str, EventSet]


def relation_closure(rel: NameRelation) -> NameRelation:
    """Transitive closure of a name-to-name relation."""
    out: NameRelation = {k: dict(v) for k, v in rel.items()}
    changed = True
    while changed:
        changed = False
        for src in out:
            for mid in list(out[src]):
                for dst in out.get(mid, ()):
                    if dst not in out[src]:
                        out[src][dst] = None
                        changed = True
    return out


def relation_compose(p2p: NameRelation, p2e: EventRelation) -> EventRelation:
    """Events of each name plus events of every name reachable from it."""
    out: EventRelation = {}
    for name in p2e:
        acc = p2e[name].copy()
        seen: set[str] = {name}
        frontier = [name]
        while frontier:
            cur = frontier.pop()
            for nxt in p2p.get(cur, ()):
                if nxt in seen:
                    continue
                seen.add(nxt)
                frontier.append(nxt)
                if nxt in p2e:
                    acc = acc.union(p2e[nxt])
        out[name] = acc
    return out


# --- declarations and structural types -------------------------------------


class DeclKind(Enum):
    PORT = "Port"
    ROLE = "Role"
    GLUE = "Glue"
    COMPUTATION = "Computation"
    WHERE_LOCAL = "WhereLocal"


@dataclass
class AlphabetInfo:
    """Total alphabet plus its initiated/observed split and the scoped form."""

    total: EventSet
    initiated: EventSet
    observed: EventSet
    param_total: EventSet


@dataclass
class Declaration:
    kind: DeclKind
    name: str
    body: ProcessExpr
    locals: list["Declaration"] = field(default_factory=list)
    pos: SourcePos = SourcePos()
    alphabet: AlphabetInfo | None = None


@dataclass
class Component:
    name: str
    ports: list[Declaration]
    computation: Declaration
    pos: SourcePos = SourcePos()
    total_alphabet: EventSet | None = None


@dataclass
class Connector:
    name: str
    roles: list[Declaration]
    glue: Declaration
    pos: SourcePos = SourcePos()
    total_alphabet: EventSet | None = None


@dataclass
class Instance:
    name: str
    type_name: str
    pos: SourcePos = SourcePos()


@dataclass
class InterfaceRef:
    instance: str
    point: str
    pos: SourcePos = SourcePos()

    def __str__(self) -> str:
        return f"{self.instance}.{self.point}"


@dataclass
class Attachment:
    left: InterfaceRef
    right: InterfaceRef
    pos: SourcePos = SourcePos()


@dataclass
class Configuration:
    name: str
    types: list[Union[Component, Connector]]
    instances: list[Instance]
    attachments: list[Attachment]
    pos: SourcePos = SourcePos()
    event_names: list[str] = field(default_factory=list)  # filled by alphabets.annotate


@dataclass
class Style:
    name: str
    types: list[Union[Component, Connector]]
    pos: SourcePos = SourcePos()
    event_names: list[str] = field(default_factory=list)  # filled by alphabets.annotate


ArchSpec = Union[Style, Configuration]


# --- scoping helpers --------------------------------------------------------


def scope_event(e: EventRef, owner: str) -> EventRef:
    """Extend the event's scope at the front with ``owner``.

    A two-segment scope is already fully qualified; qualifying further is a
    contract violation.
    """
    if len(e.scope) >= 2:
        raise ValueError(f"cannot scope {e.qualified}: already fully qualified")
    return EventRef(e.name, e.initiated, (owner,) + e.scope)


def scope_set(events: EventSet, owner: str) -> EventSet:
    return EventSet(scope_event(e, owner) for e in events)
