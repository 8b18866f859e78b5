"""Core data model: structural and behavioural AST, and findings about them.

Structural side: Component / Connector / Configuration / Style.  A component
and a connector share one shape, interface points plus one behaviour, which
``parts`` returns for either.  Behavioural side: ProcessExpr trees whose
leaves are named references and the success process; the engine steps these
same classes as its sequential terms.  A choice holds the whole run of
branches one operator joins, so a flat choice of any length is one node,
from the parser to the engine.  An event is its qualified name as a
plain string (``read``, ``In.read``); a prefix also records whether its use
is initiated (``_read``), but prefixes compare equal regardless.  An alphabet
is an insertion-ordered ``dict`` from qualified name to the polarity of its
first use, so generated output is reproducible run to run.  The alphabet
fields of the structural records (``Declaration.alphabet``, a type's
``total_alphabet``, a spec's ``event_names``) start empty: ``alphabets.annotate``
is their only writer.  Likewise an attachment's ``port`` and ``role`` start
as None, and ``analyzer.analyze`` is their only writer.  Every finding, from
a parse warning to an emission warning, is one ``Diagnostic``.

The expression and structural classes are plain slotted classes with a
written-out ``__init__``; ``slotted`` derives the ``repr``, equality and
hashing ``@dataclass`` would give them from their ``__slots__``, without
generating code at import.  Process expressions are immutable values, the
structural records are mutable and unhashable.
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter
from typing import Callable, NamedTuple, Optional, Union

# --- plain slotted classes --------------------------------------------------


def _read_only(self, name: str, *value: object) -> None:
    raise AttributeError(f"{type(self).__name__}.{name} is read-only")


def _getter(names: tuple[str, ...]):
    """``self -> tuple`` of the named attributes (``attrgetter`` gives a bare
    value for one name)."""
    if len(names) == 1:
        one = attrgetter(names[0])
        return lambda self: (one(self),)
    return attrgetter(*names) if names else lambda self: ()


def slotted(frozen: bool, compare: tuple[str, ...] | None = None) -> Callable[[type], type]:
    """Class decorator: the methods ``@dataclass`` would write, from ``__slots__``.

    ``repr`` shows every field as ``name=value``; ``==`` compares the
    ``compare`` fields (all by default) of two instances of the same class.
    A frozen class hashes those fields and refuses assignment, so its
    ``__init__`` stores through ``object.__setattr__``; any other class is
    unhashable.  The methods are closures: nothing is compiled at import.
    """

    def derive(cls: type) -> type:
        names = tuple(n for n in cls.__slots__ if n != "__dict__")
        fields, key = _getter(names), _getter(compare or names)
        template = ("{}(%s)" % ", ".join(n + "={!r}" for n in names)).format

        def __repr__(self) -> str:
            return template(type(self).__qualname__, *fields(self))

        def __eq__(self, other: object) -> bool:
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        cls.__repr__, cls.__eq__ = __repr__, __eq__
        if frozen:
            cls.__hash__ = lambda self: hash(key(self))
            cls.__setattr__ = cls.__delattr__ = _read_only
        else:
            cls.__hash__ = None
        return cls

    return derive


class SourcePos(NamedTuple):
    """1-based line/column of a construct in the input file."""

    line: int = 1
    column: int = 1

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


@slotted(frozen=False)
class Diagnostic:
    """An error or warning at a source position; ``rule`` numbers a static rule's."""

    __slots__ = ("severity", "pos", "message", "rule")

    def __init__(self, severity: str, pos: SourcePos, message: str, rule: Optional[int] = None) -> None:
        self.severity = severity  # "error" | "warning"
        self.pos = pos
        self.message = message
        self.rule = rule

    def __str__(self) -> str:
        prefix = f"rule={self.rule} " if self.rule is not None else ""
        return f"{self.pos}: {self.severity}: {prefix}{self.message}"


# --- behavioural AST ------------------------------------------------------


class ProcessExpr:
    """Base class for process expressions (tagged-union style)."""

    __slots__ = ()


@slotted(frozen=True, compare=("event", "rest"))
class Prefix(ProcessExpr):
    """``event -> rest``.  The event is its qualified name (``read``,
    ``In.read``); equality and hashing ignore its polarity."""

    __slots__ = ("event", "rest", "initiated")

    def __init__(self, event: str, rest: ProcessExpr, initiated: bool = False) -> None:
        object.__setattr__(self, "event", event)
        object.__setattr__(self, "rest", rest)
        object.__setattr__(self, "initiated", initiated)


@slotted(frozen=True)
class ExternalChoice(ProcessExpr):
    __slots__ = ("branches",)

    def __init__(self, branches: tuple[ProcessExpr, ...]) -> None:
        object.__setattr__(self, "branches", branches)


@slotted(frozen=True)
class InternalChoice(ProcessExpr):
    __slots__ = ("branches",)

    def __init__(self, branches: tuple[ProcessExpr, ...]) -> None:
        object.__setattr__(self, "branches", branches)


@slotted(frozen=True)
class Ref(ProcessExpr):
    """Reference to a named process (the declaration itself or a local)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "name", name)


@slotted(frozen=True)
class Success(ProcessExpr):
    """TICK: perform the success event and stop."""

    __slots__ = ()


@slotted(frozen=True)
class Empty(ProcessExpr):
    """The eliminated process: the result of projecting everything away.

    Behaves like STOP; a declaration body that projects to it becomes
    SUCCESS (``transform.project_declaration``).
    """

    __slots__ = ()


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


@slotted(frozen=False)
class AlphabetInfo:
    """Total alphabet plus its observed subset: the events whose first use is
    not initiated, which is what property 1 restricts a port to."""

    __slots__ = ("total", "observed")

    def __init__(self, total: Alphabet, observed: Alphabet) -> None:
        self.total = total
        self.observed = observed


@slotted(frozen=False)
class Declaration:
    __slots__ = ("kind", "name", "body", "locals", "pos", "alphabet")

    def __init__(self, kind: DeclKind, name: str, body: ProcessExpr, locals: list[Declaration] | None = None,
                 pos: SourcePos = SourcePos()) -> None:
        self.kind = kind
        self.name = name
        self.body = body
        self.locals = [] if locals is None else locals
        self.pos = pos
        self.alphabet: AlphabetInfo | None = None  # filled by alphabets.annotate


@slotted(frozen=False)
class Component:
    __slots__ = ("name", "ports", "computation", "pos", "total_alphabet")

    def __init__(self, name: str, ports: list[Declaration], computation: Declaration,
                 pos: SourcePos = SourcePos()) -> None:
        self.name = name
        self.ports = ports
        self.computation = computation
        self.pos = pos
        self.total_alphabet: Alphabet | None = None  # filled by alphabets.annotate


@slotted(frozen=False)
class Connector:
    __slots__ = ("name", "roles", "glue", "pos", "total_alphabet")

    def __init__(self, name: str, roles: list[Declaration], glue: Declaration,
                 pos: SourcePos = SourcePos()) -> None:
        self.name = name
        self.roles = roles
        self.glue = glue
        self.pos = pos
        self.total_alphabet: Alphabet | None = None  # filled by alphabets.annotate


def parts(t: Union[Component, Connector]) -> tuple[list[Declaration], Declaration]:
    """A type's interface points and the one behaviour they constrain: a
    component's ports and computation, or a connector's roles and glue."""
    if type(t) is Component:
        return t.ports, t.computation
    return t.roles, t.glue


@slotted(frozen=False)
class Instance:
    __slots__ = ("name", "type_name", "pos")

    def __init__(self, name: str, type_name: str, pos: SourcePos = SourcePos()) -> None:
        self.name = name
        self.type_name = type_name
        self.pos = pos


@slotted(frozen=False)
class InterfaceRef:
    __slots__ = ("instance", "point", "pos")

    def __init__(self, instance: str, point: str, pos: SourcePos = SourcePos()) -> None:
        self.instance = instance
        self.point = point
        self.pos = pos

    def __str__(self) -> str:
        return f"{self.instance}.{self.point}"


@slotted(frozen=False)
class Attachment:
    __slots__ = ("left", "right", "pos", "port", "role")

    def __init__(self, left: InterfaceRef, right: InterfaceRef, pos: SourcePos = SourcePos()) -> None:
        self.left = left
        self.right = right
        self.pos = pos
        # the port and role the two ends resolve to, filled by analyzer.analyze
        self.port: Declaration | None = None
        self.role: Declaration | None = None


@slotted(frozen=False)
class Configuration:
    __slots__ = ("name", "types", "instances", "attachments", "pos", "event_names")

    def __init__(
        self,
        name: str,
        types: list[Union[Component, Connector]],
        instances: list[Instance],
        attachments: list[Attachment],
        pos: SourcePos = SourcePos(),
    ) -> None:
        self.name = name
        self.types = types
        self.instances = instances
        self.attachments = attachments
        self.pos = pos
        self.event_names: list[str] = []  # filled by alphabets.annotate


@slotted(frozen=False)
class Style:
    __slots__ = ("name", "types", "pos", "event_names")

    def __init__(self, name: str, types: list[Union[Component, Connector]], pos: SourcePos = SourcePos()) -> None:
        self.name = name
        self.types = types
        self.pos = pos
        self.event_names: list[str] = []  # filled by alphabets.annotate


ArchSpec = Union[Style, Configuration]
