"""Syntactic process transformations: determinization and projection.

Each rewrite is one bottom-up walk over the body.

Determinization turns every choice into an external one.  Where both
determinized operands prefix the same event, the choice becomes that one
prefix over the determinized choice of their continuations
(e -> Q [choice] e -> S becomes e -> (Q [] S)), so no internal decision is
left and the trace set is kept.

Projection onto a kept event set works by branch elimination over the tree:

  rule 1  a prefix on a hidden event disappears, keeping its continuation;
  rule 2  an unguarded reference (no surviving prefix above it) is erased
          when it closes a cycle of unguarded references through the
          declaration and its where-locals, a reference back to the
          process's own name being the shortest such cycle; every other
          reference is kept;
  rule 3  a choice with an erased operand collapses to the other operand,
          and to Empty if both were erased.

Where-locals are projected under their own names.  A local whose body
erases completely is deleted, references to it become Empty wherever they
stand (with a warning), and the bodies are projected again until no further
local erases.  A declaration body that erases completely becomes SKIP.
"""

from __future__ import annotations

from .alphabets import _reach
from .model import (
    Alphabet,
    Choice,
    Declaration,
    Diagnostic,
    EMPTY,
    Empty,
    ExternalChoice,
    Prefix,
    ProcessExpr,
    Ref,
    SUCCESS,
)


def determinized(p: ProcessExpr) -> ProcessExpr:
    """``p`` with every choice external and same-event branches merged."""
    if isinstance(p, Choice):
        left = determinized(p.left)
        right = determinized(p.right)
        if isinstance(left, Prefix) and isinstance(right, Prefix) and left.event == right.event:
            return Prefix(left.event, determinized(ExternalChoice(left.rest, right.rest)), left.initiated)
        return ExternalChoice(left, right)
    if isinstance(p, Prefix):
        return Prefix(p.event, determinized(p.rest), p.initiated)
    return p


def _project(node: ProcessExpr, keep: Alphabet, erase: set[str], dead: set[str]) -> ProcessExpr:
    """Rules 1-3 on ``node``: a reference to a name in ``erase`` becomes Empty.

    Below a kept prefix only the names in ``dead`` still erase.
    """
    if isinstance(node, Prefix):
        if node.event in keep:
            return Prefix(node.event, _project(node.rest, keep, dead, dead), node.initiated)
        return _project(node.rest, keep, erase, dead)
    if isinstance(node, Choice):
        left = _project(node.left, keep, erase, dead)
        right = _project(node.right, keep, erase, dead)
        if isinstance(left, Empty):
            return right
        if isinstance(right, Empty):
            return left
        return type(node)(left, right)
    if isinstance(node, Ref) and node.name in erase:
        return EMPTY
    return node


def _unguarded_refs(body: ProcessExpr, keep: Alphabet) -> list[str]:
    """The names ``body`` references with no kept prefix above them."""
    refs: list[str] = []
    stack = [body]
    while stack:
        node = stack.pop()
        if isinstance(node, Prefix):
            if node.event not in keep:
                stack.append(node.rest)
        elif isinstance(node, Choice):
            stack += (node.right, node.left)
        elif isinstance(node, Ref):
            refs.append(node.name)
    return refs


def _cycles(decl: Declaration, keep: Alphabet) -> dict[str, set[str]]:
    """For each body's name, the names whose unguarded reference there closes
    a cycle of unguarded references: its own and those that reach it back.

    A longer cycle passes through a where-local that references a name
    unguarded; without one, each name's set is just that name.
    """
    names = {decl.name, *[loc.name for loc in decl.locals]}
    for loc in decl.locals:
        if not names.isdisjoint(_unguarded_refs(loc.body, keep)):
            break
    else:
        return {n: {n} for n in names}
    named = [decl] + decl.locals
    refs = {d.name: {m: None for m in _unguarded_refs(d.body, keep) if m in names} for d in named}
    reach = _reach(refs)
    return {n: {m for m in found if n in reach[m]} | {n} for n, found in refs.items()}


def project_declaration(decl: Declaration, keep: Alphabet) -> tuple[Declaration, list[Diagnostic]]:
    """Project a declaration and its where-locals onto ``keep``.

    Locals whose bodies erase completely are removed and every reference to
    them erased; the original bodies are projected again until no further
    local erases.  A wholly erased declaration body becomes SKIP.
    """
    diags: list[Diagnostic] = []
    cycles = _cycles(decl, keep)
    dead: set[str] = set()
    while True:
        body = _project(decl.body, keep, cycles[decl.name] | dead, dead)
        locals_ = [(loc, _project(loc.body, keep, cycles[loc.name] | dead, dead)) for loc in decl.locals]
        erased = sorted({loc.name for loc, b in locals_ if isinstance(b, Empty) and loc.name not in dead})
        if not erased:
            break
        diags.extend(
            Diagnostic(
                "warning",
                decl.pos,
                f"where-local '{name}' of {decl.name} erased entirely by projection; "
                "references to it behave as STOP",
            )
            for name in erased
        )
        dead.update(erased)
    kept = [Declaration(loc.kind, loc.name, b, [], loc.pos) for loc, b in locals_ if loc.name not in dead]
    if isinstance(body, Empty):
        body = SUCCESS
    return Declaration(decl.kind, decl.name, body, kept, decl.pos, None), diags


def restrict_to_observed(decl: Declaration) -> tuple[Declaration, list[Diagnostic]]:
    """Project away the initiated events, keeping the observed behaviour."""
    if decl.alphabet is None:
        raise ValueError(f"alphabet of {decl.name} not computed")
    return project_declaration(decl, decl.alphabet.observed)
