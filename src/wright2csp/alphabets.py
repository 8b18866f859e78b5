"""Alphabet computation for declarations, components and connectors.

Per declaration the pass builds a references relation (process name to the
names it mentions) and an events relation (name to the events it prefixes),
closes the first transitively and composes the two, so mutually recursive
where-locals contribute their events to the owning declaration.  The result
is split into initiated and observed subsets and, for ports and roles, also
scoped with the owner's name (``read`` becomes ``In.read``).
"""

from __future__ import annotations

from .analyzer import Diagnostic
from .model import (
    AlphabetInfo,
    ArchSpec,
    Component,
    Connector,
    Declaration,
    EventSet,
    NameRelation,
    EventRelation,
    relation_closure,
    relation_compose,
    scope_set,
    walk_events,
    walk_refs,
)


def _split_polarity(events: EventSet) -> tuple[EventSet, EventSet]:
    initiated = EventSet(e for e in events if e.initiated)
    observed = EventSet(e for e in events if not e.initiated)
    return initiated, observed


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

    p2p: NameRelation = {n: {} for n in bodies}
    p2e: EventRelation = {n: EventSet() for n in bodies}
    seen_polarity: dict[tuple[str, tuple[str, ...]], bool] = {}
    for n, body in named:
        if bodies[n] is not body:
            # redefined later: references resolve to the last definition, but
            # codegen still emits this equation, so its events need declaring
            event_names.update(dict.fromkeys(ev.name for ev in walk_events(body)))
            continue
        for ref in walk_refs(body):
            if ref not in bodies:
                diags.append(
                    Diagnostic(
                        "error",
                        decl.pos,
                        f"process reference '{ref}' in {decl.kind.value} {decl.name} "
                        "does not resolve to the declaration or a where-local",
                    )
                )
                continue
            p2p[n][ref] = None
        for ev in walk_events(body):
            event_names.setdefault(ev.name, None)
            key = ev.key()
            if key in seen_polarity and seen_polarity[key] != ev.initiated:
                diags.append(
                    Diagnostic(
                        "warning",
                        decl.pos,
                        f"event '{ev.qualified}' used both initiated and observed "
                        f"in {decl.kind.value} {decl.name}; keeping the first use",
                    )
                )
            seen_polarity.setdefault(key, ev.initiated)
            p2e[n].add(ev)

    composed = relation_compose(relation_closure(p2p), p2e)
    total = composed[decl.name]
    initiated, observed = _split_polarity(total)
    info = AlphabetInfo(total=total, initiated=initiated, observed=observed, param_total=EventSet())
    for loc in decl.locals:
        ltotal = composed[loc.name]
        li, lo = _split_polarity(ltotal)
        loc.alphabet = AlphabetInfo(ltotal, li, lo, EventSet())
    return info, diags


def _check_scoped_events(owner_kind: str, owner_name: str, decl: Declaration,
                         point_names: set[str], diags: list[Diagnostic]) -> None:
    """Drop events whose scope segment names no declared port/role."""
    bad = [e for e in decl.alphabet.total if e.scope and e.scope[0] not in point_names]
    for e in bad:
        diags.append(
            Diagnostic(
                "warning",
                decl.pos,
                f"event '{e.qualified}' in {owner_kind} {owner_name} names no "
                f"declared interface point; removed from the alphabet",
            )
        )
    if bad:
        dropped = EventSet(bad)
        a = decl.alphabet
        decl.alphabet = AlphabetInfo(
            total=a.total.minus(dropped),
            initiated=a.initiated.minus(dropped),
            observed=a.observed.minus(dropped),
            param_total=a.param_total,
        )


def compute_component_alphabet(comp: Component,
                               event_names: dict[str, None]) -> tuple[EventSet, list[Diagnostic]]:
    """Union of scoped port alphabets and the computation alphabet."""
    diags: list[Diagnostic] = []
    port_names = {p.name for p in comp.ports}
    for port in comp.ports:
        info, d = compute_declaration_alphabet(port, event_names)
        diags.extend(d)
        info.param_total = scope_set(info.total, port.name)
        port.alphabet = info
    cinfo, d = compute_declaration_alphabet(comp.computation, event_names)
    diags.extend(d)
    comp.computation.alphabet = cinfo
    _check_scoped_events("component", comp.name, comp.computation, port_names, diags)

    total = comp.computation.alphabet.total.copy()
    for port in comp.ports:
        total = total.union(port.alphabet.param_total)
    internal = total.minus(comp.computation.alphabet.total)
    if internal:
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
                               event_names: dict[str, None]) -> tuple[EventSet, list[Diagnostic]]:
    """The connector alphabet is the glue alphabet (role events arrive scoped)."""
    diags: list[Diagnostic] = []
    role_names = {r.name for r in conn.roles}
    for role in conn.roles:
        info, d = compute_declaration_alphabet(role, event_names)
        diags.extend(d)
        info.param_total = scope_set(info.total, role.name)
        role.alphabet = info
    ginfo, d = compute_declaration_alphabet(conn.glue, event_names)
    diags.extend(d)
    conn.glue.alphabet = ginfo
    _check_scoped_events("connector", conn.name, conn.glue, role_names, diags)
    conn.total_alphabet = conn.glue.alphabet.total.copy()
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
