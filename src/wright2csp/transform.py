"""Syntactic process transformations: determinization and projection.

Determinization happens in two steps.  ``normalize_for_det`` merges choices
whose branches prefix the same event (e -> Q [choice] e -> S becomes
e -> (Q [] S)), bottom-up until no rewrite applies; ``determinize`` then
turns every remaining internal choice into an external one.  The composition
preserves the trace set while removing internal decisions.

Projection onto a kept event set works by branch elimination over the tree:

  rule 1  a prefix on a hidden event disappears, keeping its continuation;
  rule 2  a reference back to the process's own name is erased unless some
          surviving prefix above it guards it (references to other names are
          always kept);
  rule 3  a choice with an erased operand collapses to the other operand,
          and to Empty if both were erased.

Rules are applied in a single postorder walk.  Where-locals are projected
under their own names; a local whose body erases completely is deleted and
dangling references to it become Empty (with a warning).
"""

from __future__ import annotations

from .analyzer import Diagnostic
from .model import (
    Choice,
    Declaration,
    EMPTY,
    Empty,
    EventSet,
    ExternalChoice,
    InternalChoice,
    Prefix,
    ProcessExpr,
    Ref,
)


def normalize_for_det(p: ProcessExpr) -> ProcessExpr:
    """Merge same-event choice branches so determinization is trace-safe."""
    if isinstance(p, Choice):
        left = normalize_for_det(p.left)
        right = normalize_for_det(p.right)
        if isinstance(left, Prefix) and isinstance(right, Prefix) and left.event == right.event:
            return Prefix(left.event, normalize_for_det(ExternalChoice(left.rest, right.rest)))
        return type(p)(left, right)
    if isinstance(p, Prefix):
        return Prefix(p.event, normalize_for_det(p.rest))
    return p


def determinize(p: ProcessExpr) -> ProcessExpr:
    """Replace every internal choice by an external one (run normalize first)."""
    if isinstance(p, InternalChoice):
        return ExternalChoice(determinize(p.left), determinize(p.right))
    if isinstance(p, ExternalChoice):
        return ExternalChoice(determinize(p.left), determinize(p.right))
    if isinstance(p, Prefix):
        return Prefix(p.event, determinize(p.rest))
    return p


def determinized(p: ProcessExpr) -> ProcessExpr:
    return determinize(normalize_for_det(p))


def project_to(p: ProcessExpr, keep: EventSet, self_name: str) -> ProcessExpr:
    """Restrict ``p`` to the events in ``keep`` by branch elimination."""
    return _project(p, keep, self_name, False)


def _project(node: ProcessExpr, keep: EventSet, self_name: str, guarded: bool) -> ProcessExpr:
    if isinstance(node, Prefix):
        if node.event in keep:
            return Prefix(node.event, _project(node.rest, keep, self_name, True))
        return _project(node.rest, keep, self_name, guarded)
    if isinstance(node, Choice):
        left = _project(node.left, keep, self_name, guarded)
        right = _project(node.right, keep, self_name, guarded)
        if isinstance(left, Empty):
            return right
        if isinstance(right, Empty):
            return left
        return type(node)(left, right)
    if isinstance(node, Ref):
        if node.name == self_name and not guarded:
            return EMPTY
        return node
    return node


def _substitute_dead_refs(expr: ProcessExpr, dead: set[str]) -> ProcessExpr:
    if isinstance(expr, Prefix):
        rest = _substitute_dead_refs(expr.rest, dead)
        return Prefix(expr.event, rest)
    if isinstance(expr, Choice):
        left = _substitute_dead_refs(expr.left, dead)
        right = _substitute_dead_refs(expr.right, dead)
        if isinstance(left, Empty):
            return right
        if isinstance(right, Empty):
            return left
        return type(expr)(left, right)
    if isinstance(expr, Ref) and expr.name in dead:
        return EMPTY
    return expr


def project_declaration(decl: Declaration, keep: EventSet) -> tuple[Declaration, list[Diagnostic]]:
    """Project a declaration and its where-locals onto ``keep``.

    Locals whose bodies erase completely are removed; references to them are
    rewritten to Empty and choices re-collapsed, iterating because one removal
    can empty another body.
    """
    diags: list[Diagnostic] = []
    body = project_to(decl.body, keep, decl.name)
    locals_ = [
        Declaration(loc.kind, loc.name, project_to(loc.body, keep, loc.name), [], loc.pos)
        for loc in decl.locals
    ]
    while True:
        dead = {loc.name for loc in locals_ if isinstance(loc.body, Empty)}
        if not dead:
            break
        diags.extend(
            Diagnostic(
                "warning",
                decl.pos,
                f"where-local '{name}' of {decl.name} erased entirely by projection; "
                "references to it behave as STOP",
            )
            for name in sorted(dead)
        )
        locals_ = [loc for loc in locals_ if loc.name not in dead]
        body = _substitute_dead_refs(body, dead)
        for loc in locals_:
            loc.body = _substitute_dead_refs(loc.body, dead)
    return Declaration(decl.kind, decl.name, body, locals_, decl.pos, None), diags


def restrict_to_observed(decl: Declaration) -> tuple[Declaration, list[Diagnostic]]:
    """Project away the initiated events, keeping the observed behaviour."""
    if decl.alphabet is None:
        raise ValueError(f"alphabet of {decl.name} not computed")
    return project_declaration(decl, decl.alphabet.observed)
