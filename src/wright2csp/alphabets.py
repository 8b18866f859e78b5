"""Alphabet computation for declarations, components and connectors.

Per declaration, one iterative walk over each body (the declaration's and
each where-local's) collects the names it references and the events it
prefixes.  Each name's alphabet is then its own events followed by those of
every name it reaches, so mutually recursive where-locals contribute their
events to the owning declaration.  An alphabet is an insertion-ordered
``dict`` from qualified event name to the polarity of its first use.  The
result is split into initiated and observed subsets and, for ports and
roles, also scoped with the owner's name (``read`` becomes ``In.read``).
One routine, ``compute_type_alphabet``, serves components and connectors
alike through ``model.parts``: their interface points, then the computation
or glue.
"""

from __future__ import annotations

from .analyzer import Diagnostic
from .model import (
    Alphabet,
    AlphabetInfo,
    ArchSpec,
    Component,
    Connector,
    Declaration,
    ExternalChoice,
    InternalChoice,
    Prefix,
    ProcessExpr,
    Ref,
    parts,
)


# The names the generated file's header defines (see ``codegen.HEADER_LINES``):
# they share CSPM's one namespace with every channel and process.
HEADER_NAMES = ("DFA", "abstractEvent", "quant_semi", "power_set")


def _walk(body: ProcessExpr) -> tuple[list[str], list[Prefix]]:
    """The names referenced and the prefixes of a body, left to right."""
    refs: list[str] = []
    prefixes: list[Prefix] = []
    stack = [body]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Prefix:
            prefixes.append(node)
            stack.append(node.rest)
        elif kind is Ref:
            refs.append(node.name)
        elif kind is ExternalChoice or kind is InternalChoice:
            stack += (node.right, node.left)
    return refs, prefixes


def _reach(refs: dict[str, dict[str, None]]) -> dict[str, dict[str, None]]:
    """The names each name reaches through ``refs``, in the order they are found.

    Rounds run over the names in order until nothing is added.  Each name
    extends its list by the current list of every name on it.  A name's list
    thus depends on the lists of names before it in the same round, so this
    order is not a plain breadth- or depth-first order from that name.
    """
    reach = {n: dict(r) for n, r in refs.items()}
    grew = True
    while grew:
        grew = False
        for found in reach.values():
            for mid in list(found):
                for dst in reach[mid]:
                    if dst not in found:
                        found[dst] = None
                        grew = True
    return reach


def _union(parts: list[Alphabet]) -> Alphabet:
    """Every event of ``parts`` in first-use order, with its first use's polarity."""
    out: Alphabet = {}
    for part in parts:
        out.update(part)
    for part in reversed(parts):
        out.update(part)  # key order stays; the earliest part's polarity wins
    return out


def _info(total: Alphabet) -> AlphabetInfo:
    return AlphabetInfo(
        total,
        {e: True for e, initiated in total.items() if initiated},
        {e: False for e, initiated in total.items() if not initiated},
        {},
    )


def compute_declaration_alphabet(
    decl: Declaration, event_names: dict[str, None] | None = None
) -> tuple[AlphabetInfo, list[Diagnostic]]:
    """Alphabet of a declaration body plus everything reachable via its locals.

    Also adds the unscoped name of every event the bodies use to
    ``event_names``, in first-use order.
    """
    if event_names is None:
        event_names = {}
    diags: list[Diagnostic] = []
    named = [(decl.name, decl.body)] + [(loc.name, loc.body) for loc in decl.locals]
    bodies = dict(named)

    refs: dict[str, dict[str, None]] = {}
    own: dict[str, Alphabet] = {}
    first_use: Alphabet = {}
    for n, body in named:
        names, prefixes = _walk(body)
        if bodies[n] is not body:
            # redefined later: references resolve to the last definition, but
            # codegen still emits this equation, so its events need declaring
            event_names.update(dict.fromkeys(p.event.rpartition(".")[2] for p in prefixes))
            continue
        for ref in names:
            if ref not in bodies:
                diags.append(
                    Diagnostic(
                        "error",
                        decl.pos,
                        f"process reference '{ref}' in {decl.kind.value} {decl.name} "
                        "does not resolve to the declaration or a where-local",
                    )
                )
        refs[n] = {ref: None for ref in names if ref in bodies}
        events = own[n] = {}
        for p in prefixes:
            e, initiated = p.event, p.initiated
            if e not in events:
                events[e] = initiated
                event_names.setdefault(e.rpartition(".")[2], None)
            if first_use.setdefault(e, initiated) != initiated:
                diags.append(
                    Diagnostic(
                        "warning",
                        decl.pos,
                        f"event '{e}' used both initiated and observed "
                        f"in {decl.kind.value} {decl.name}; keeping the first use",
                    )
                )

    if decl.locals:
        reach = _reach({n: refs[n] for n in bodies})  # rounds run in first-definition order
        totals = {n: _union([own[n]] + [own[m] for m in found if m != n]) for n, found in reach.items()}
    else:
        totals = own
    for loc in decl.locals:
        loc.alphabet = _info(totals[loc.name])
    return _info(totals[decl.name]), diags


def compute_type_alphabet(t: Component | Connector, event_names: dict[str, None]) -> list[Diagnostic]:
    """Alphabets of a type's interface points, each also scoped by the point's
    name (``param_total``), then of its computation or glue, whose events
    scoped by no declared point are dropped with a warning.  A connector's
    alphabet is its glue's.  A component's adds its ports' scoped events, with
    a warning if the computation leaves some of them out."""
    diags: list[Diagnostic] = []
    points, main = parts(t)
    for point in points:
        info, d = compute_declaration_alphabet(point, event_names)
        diags.extend(d)
        prefix = point.name + "."
        info.param_total = {prefix + e: i for e, i in info.total.items()}
        point.alphabet = info
    info, d = compute_declaration_alphabet(main, event_names)
    diags.extend(d)
    main.alphabet = info
    point_names = {p.name for p in points}
    bad = [e for e in info.total if "." in e and e.partition(".")[0] not in point_names]
    for e in bad:
        diags.append(Diagnostic("warning", main.pos, f"event '{e}' in {type(t).__name__.lower()} {t.name} names no "
                                "declared interface point; removed from the alphabet"))
    if bad:
        info.total, info.initiated, info.observed = (
            {e: i for e, i in part.items() if e not in bad} for part in (info.total, info.initiated, info.observed)
        )
    t.total_alphabet = info.total
    if type(t) is Component:
        t.total_alphabet = _union([info.total] + [point.alphabet.param_total for point in points])
        if len(t.total_alphabet) > len(info.total):
            diags.append(Diagnostic("warning", t.pos,
                                    "Ports really shouldn't have internal events. Consider this carefully."))
    return diags


def _header_clashes(spec: ArchSpec, names: list[str]) -> list[Diagnostic]:
    """An error at the first declaration whose body uses each event of ``names``."""
    diags: list[Diagnostic] = []
    for t in spec.types:
        points, main = parts(t)
        for owner in points + [main]:
            for d in [owner] + owner.locals:
                used = {prefix.event.rpartition(".")[2] for prefix in _walk(d.body)[1]}
                for e in [e for e in names if e in used]:
                    names.remove(e)
                    diags.append(Diagnostic("error", d.pos, f"event {e} in {d.kind.value} {d.name} is also a name "
                                            "the output's header defines, so the output would define it twice"))
    return diags


def annotate(spec: ArchSpec) -> list[Diagnostic]:
    """Fill in alphabet info across the whole spec, and ``spec.event_names``;
    returns diagnostics.  An event named like a port, a role or a name of the
    output's header (``HEADER_NAMES``) is an error: they share CSPM's one
    namespace."""
    diags: list[Diagnostic] = []
    event_names: dict[str, None] = {}
    for t in spec.types:
        diags += compute_type_alphabet(t, event_names)
    spec.event_names = list(event_names)
    points = [p for t in spec.types for p in parts(t)[0]]
    diags += [Diagnostic("error", p.pos, f"{p.kind.value} {p.name} is also the name of an event, so the output "
                         "would declare its channel twice") for p in points if p.name in event_names]
    header = [e for e in HEADER_NAMES if e in event_names]
    if header:
        diags += _header_clashes(spec, header)
    return diags
