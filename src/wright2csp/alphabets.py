"""Alphabet computation for declarations, components and connectors.

Per declaration, one iterative walk over each body (the declaration's and
each where-local's) collects the names it references and the events it
prefixes.  Each name's alphabet is then its own events followed by those of
every name it reaches, so mutually recursive where-locals contribute their
events to the owning declaration.  An alphabet is an insertion-ordered
``dict`` from qualified event name to the polarity of its first use.  The
result is split into initiated and observed subsets and, for ports and
roles, also scoped with the owner's name (``read`` becomes ``In.read``).
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
)


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


def _check_scoped_events(owner_kind: str, owner_name: str, decl: Declaration,
                         point_names: set[str], diags: list[Diagnostic]) -> None:
    """Drop events whose scope segment names no declared port/role."""
    a = decl.alphabet
    bad = []
    for e in a.total:
        scope, dot, _ = e.partition(".")
        if dot and scope not in point_names:
            bad.append(e)
            diags.append(
                Diagnostic(
                    "warning",
                    decl.pos,
                    f"event '{e}' in {owner_kind} {owner_name} names no "
                    f"declared interface point; removed from the alphabet",
                )
            )
    if bad:
        a.total, a.initiated, a.observed = (
            {e: i for e, i in s.items() if e not in bad} for s in (a.total, a.initiated, a.observed)
        )


def _scope_points(points: list[Declaration], event_names: dict[str, None],
                  diags: list[Diagnostic]) -> None:
    """Alphabets of ports or roles, with ``param_total`` scoped by the point's name."""
    for point in points:
        info, d = compute_declaration_alphabet(point, event_names)
        diags.extend(d)
        prefix = point.name + "."
        info.param_total = {prefix + e: i for e, i in info.total.items()}
        point.alphabet = info


def compute_component_alphabet(comp: Component,
                               event_names: dict[str, None]) -> tuple[Alphabet, list[Diagnostic]]:
    """Union of scoped port alphabets and the computation alphabet."""
    diags: list[Diagnostic] = []
    _scope_points(comp.ports, event_names, diags)
    cinfo, d = compute_declaration_alphabet(comp.computation, event_names)
    diags.extend(d)
    comp.computation.alphabet = cinfo
    _check_scoped_events("component", comp.name, comp.computation, {p.name for p in comp.ports}, diags)

    computation = cinfo.total
    total = _union([computation] + [port.alphabet.param_total for port in comp.ports])
    if len(total) > len(computation):
        diags.append(
            Diagnostic(
                "warning",
                comp.pos,
                "Ports really shouldn't have internal events. Consider this carefully.",
            )
        )
    comp.total_alphabet = total
    return total, diags


def compute_connector_alphabet(conn: Connector,
                               event_names: dict[str, None]) -> tuple[Alphabet, list[Diagnostic]]:
    """The connector alphabet is the glue alphabet (role events arrive scoped)."""
    diags: list[Diagnostic] = []
    _scope_points(conn.roles, event_names, diags)
    ginfo, d = compute_declaration_alphabet(conn.glue, event_names)
    diags.extend(d)
    conn.glue.alphabet = ginfo
    _check_scoped_events("connector", conn.name, conn.glue, {r.name for r in conn.roles}, diags)
    conn.total_alphabet = ginfo.total
    return conn.total_alphabet, diags


def annotate(spec: ArchSpec) -> list[Diagnostic]:
    """Fill in alphabet info across the whole spec, and ``spec.event_names``;
    returns diagnostics."""
    diags: list[Diagnostic] = []
    event_names: dict[str, None] = {}
    for t in spec.types:
        if isinstance(t, Component):
            _, d = compute_component_alphabet(t, event_names)
        else:
            _, d = compute_connector_alphabet(t, event_names)
        diags.extend(d)
    spec.event_names = list(event_names)
    return diags
