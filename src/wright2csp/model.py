"""Core data model: structural and behavioural AST.

Structural side: Component / Connector / Configuration / Style.  Behavioural
side: ProcessExpr trees whose leaves are named references and the success
process.  An event is its qualified name as a plain string (``read``,
``In.read``); a prefix also records whether its use is initiated (``_read``),
but prefixes compare equal regardless.  An alphabet is an insertion-ordered
``dict`` from qualified name to the polarity of its first use, so generated
output is reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Union


class SourcePos(NamedTuple):
    """1-based line/column of a construct in the input file."""

    line: int = 1
    column: int = 1

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


# --- behavioural AST ------------------------------------------------------


class ProcessExpr:
    """Base class for process expressions (tagged-union style)."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Prefix(ProcessExpr):
    """``event -> rest``.  The event is its qualified name (``read``,
    ``In.read``); equality and hashing ignore its polarity."""

    event: str
    rest: ProcessExpr
    initiated: bool = field(default=False, compare=False)


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


# --- declarations and structural types -------------------------------------


class DeclKind(Enum):
    PORT = "Port"
    ROLE = "Role"
    GLUE = "Glue"
    COMPUTATION = "Computation"
    WHERE_LOCAL = "WhereLocal"


# An alphabet maps each event's qualified name to whether its first use is
# initiated; dicts keep insertion order, so generated output is reproducible.
Alphabet = dict[str, bool]


@dataclass
class AlphabetInfo:
    """Total alphabet plus its initiated/observed split and the scoped form."""

    total: Alphabet
    initiated: Alphabet
    observed: Alphabet
    param_total: Alphabet


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
    total_alphabet: Alphabet | None = None


@dataclass
class Connector:
    name: str
    roles: list[Declaration]
    glue: Declaration
    pos: SourcePos = SourcePos()
    total_alphabet: Alphabet | None = None


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
