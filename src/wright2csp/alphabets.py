"""Alphabet computation for declarations, components and connectors.

Per declaration, one iterative walk over each body (the declaration's and
each where-local's) collects the names it references and the events it
prefixes.  The declaration's alphabet is its own events followed by those
of every name it reaches, breadth-first (``reach``), so mutually recursive
where-locals add their events to it; a where-local's ``alphabet`` stays None.
An alphabet is an insertion-ordered ``dict`` from qualified event name to
the polarity of its first use; ``AlphabetInfo`` keeps its observed subset
beside it, and the initiated subset is read off it where it is printed.
The walk also maps each unscoped event name to its first user, declaration
or where-local, where ``annotate`` reports a name the output cannot declare.
One routine, ``compute_type_alphabet``, serves components and connectors
alike through ``model.parts``: their interface points, then the computation
or glue.  It warns about point events the computation or glue leaves out.
"""

from __future__ import annotations

from .model import (
    Alphabet,
    AlphabetInfo,
    ArchSpec,
    Component,
    Connector,
    Declaration,
    Diagnostic,
    ExternalChoice,
    InternalChoice,
    Prefix,
    ProcessExpr,
    Ref,
    parts,
)


# The names the generated text defines or prints (``codegen.HEADER_LINES``, STOP,
# keywords) besides the spec's own: they share CSPM's one namespace with every channel.
OUTPUT_NAMES = ("DFA", "abstractEvent", "quant_semi", "power_set", "diff", "union", "STOP", "SKIP", "channel",
                "assert", "transparent", "diamond", "normalise")
_CLASH = "is also a name the output defines or prints, so the output would give it two meanings"


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
            stack += reversed(node.branches)
    return refs, prefixes


def reach(refs: dict[str, dict[str, None]], start: str) -> dict[str, None]:
    """``start`` and every name it reaches through ``refs``, breadth-first.

    Each name's references are followed in the order ``refs`` lists them.
    """
    found = {start: None}
    queue = [start]
    for name in queue:
        for ref in refs[name]:
            if ref not in found:
                found[ref] = None
                queue.append(ref)
    return found


def _union(parts: list[Alphabet]) -> Alphabet:
    """Every event of ``parts`` in first-use order, with its first use's polarity."""
    out: Alphabet = {}
    for part in parts:
        out.update(part)
    for part in reversed(parts):
        out.update(part)  # key order stays; the earliest part's polarity wins
    return out


def _info(total: Alphabet) -> AlphabetInfo:
    return AlphabetInfo(total, {e: False for e, initiated in total.items() if not initiated})


def compute_declaration_alphabet(
    decl: Declaration, event_names: dict[str, Declaration] | None = None
) -> tuple[AlphabetInfo, list[Diagnostic]]:
    """Alphabet of a declaration body, then of each name it reaches through its
    locals, breadth-first.  The locals' ``alphabet`` fields are left as they are.

    Also maps the unscoped name of every event the bodies use to the first of
    ``decl`` and its locals that uses it, in ``event_names``, in first-use order.
    """
    if event_names is None:
        event_names = {}
    diags: list[Diagnostic] = []
    named = [decl] + decl.locals
    bodies = {d.name: d.body for d in named}

    refs: dict[str, dict[str, None]] = {}
    own: dict[str, Alphabet] = {}
    first_use: Alphabet = {}
    for d in named:
        n = d.name
        names, prefixes = _walk(d.body)
        if bodies[n] is not d.body:
            # redefined later: references resolve to the last definition, but
            # codegen still emits this equation, so its events need declaring
            for p in prefixes:
                event_names.setdefault(p.event.rpartition(".")[2], d)
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
                event_names.setdefault(e.rpartition(".")[2], d)
            if first_use.setdefault(e, initiated) != initiated:
                diags.append(
                    Diagnostic(
                        "warning",
                        decl.pos,
                        f"event '{e}' used both initiated and observed "
                        f"in {decl.kind.value} {decl.name}; keeping the first use",
                    )
                )

    return _info(_union([own[m] for m in reach(refs, decl.name)])), diags


def compute_type_alphabet(t: Component | Connector, event_names: dict[str, Declaration]) -> list[Diagnostic]:
    """Alphabets of a type's interface points, then of its computation or
    glue, whose events scoped by no declared point are dropped with a warning.
    A connector's alphabet is its glue's, with a warning for each role event
    the glue leaves out.  A component's adds its ports' events scoped by the
    port's name (``read`` of port ``In`` is ``In.read``), with one warning if
    the computation leaves some of them out."""
    diags: list[Diagnostic] = []
    points, main = parts(t)
    for point in points:
        point.alphabet, d = compute_declaration_alphabet(point, event_names)
        diags.extend(d)
    info, d = compute_declaration_alphabet(main, event_names)
    diags.extend(d)
    point_names = {p.name for p in points}
    bad = [e for e in info.total if "." in e and e.partition(".")[0] not in point_names]
    for e in bad:
        diags.append(Diagnostic("warning", main.pos, f"event '{e}' in {type(t).__name__.lower()} {t.name} names no "
                                "declared interface point; removed from the alphabet"))
    if bad:
        info = _info({e: i for e, i in info.total.items() if e not in bad})
    main.alphabet = info
    t.total_alphabet = info.total
    if type(t) is Component:
        total = t.total_alphabet = dict(info.total)
        for point in points:
            for e, initiated in point.alphabet.total.items():
                total.setdefault(f"{point.name}.{e}", initiated)  # the first use's polarity wins
        if len(total) > len(info.total):
            diags.append(Diagnostic("warning", t.pos,
                                    "Ports really shouldn't have internal events. Consider this carefully."))
    else:
        diags += [Diagnostic("warning", role.pos, f"event '{role.name}.{e}' of role {role.name} is not in the glue of "
                             f"connector {t.name}, so the connector performs it unsynchronised")
                  for role in points for e in role.alphabet.total if f"{role.name}.{e}" not in info.total]
    return diags


def annotate(spec: ArchSpec) -> list[Diagnostic]:
    """Fill in alphabet info across the whole spec, and ``spec.event_names``;
    returns diagnostics.  An event named like a port or a role, and an event,
    port or role named like a name the output defines or prints
    (``OUTPUT_NAMES``), is an error: they share CSPM's one namespace."""
    diags: list[Diagnostic] = []
    event_names: dict[str, Declaration] = {}
    for t in spec.types:
        diags += compute_type_alphabet(t, event_names)
    spec.event_names = list(event_names)
    points = [p for t in spec.types for p in parts(t)[0]]
    diags += [Diagnostic("error", p.pos, f"{p.kind.value} {p.name} is also the name of an event, so the output "
                         "would declare its channel twice") for p in points if p.name in event_names]
    diags += [Diagnostic("error", p.pos, f"{p.kind.value} {p.name} {_CLASH}") for p in points if p.name in OUTPUT_NAMES]
    # each output name at its first user; users in walk order, then OUTPUT_NAMES order
    clashes = [e for e in OUTPUT_NAMES if e in event_names]
    if clashes:
        users = [id(d) for d in event_names.values()]  # declarations are unhashable
        clashes.sort(key=lambda e: users.index(id(event_names[e])))
        diags += [Diagnostic("error", d.pos, f"event {e} in {d.kind.value} {d.name} {_CLASH}")
                  for e in clashes for d in [event_names[e]]]
    return diags
