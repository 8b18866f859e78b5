"""Syntactic process transformations: determinization and projection.

Each rewrite is one bottom-up walk over the body.

Determinization turns every choice into an external one.  It joins a run's
determinized branches once (``_join``): leading prefixes on one event merge
over the join of their continuations (e -> Q [choice] e -> S becomes
e -> (Q [] S)), so no internal decision is left and the trace set is kept;
every later branch is appended.  Nothing determinized is walked again.

Projection onto a kept event set works by branch elimination over the tree:

  rule 1  a prefix on a hidden event disappears, keeping its continuation;
  rule 2  an unguarded reference (no surviving prefix above it) is erased
          when it closes a cycle of unguarded references through the
          declaration and its where-locals, a reference back to the
          process's own name being the shortest such cycle; every other
          reference is kept;
  rule 3  a choice drops its erased branches; with one left it is that
          branch, and with none it is Empty.

Where-locals are projected under their own names.  Erasure is settled
first, on each body's leaves (``_leaves``): an unguarded reference closes a
cycle when a breadth-first search from its target (``alphabets.reach``)
finds its body's name, and a local dies, with a warning, in the first round
in which every leaf of its body closes a cycle or names a dead local.  Then
each surviving body is projected once, references to dead locals becoming
Empty wherever they stand; a declaration body that erases becomes SKIP.
"""

from __future__ import annotations

from .alphabets import reach
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


def _join(run: list[ProcessExpr]) -> ProcessExpr:
    """The determinized choice of determinized operands, in order."""
    head, k = run[0], 1
    while type(head) is Prefix and k < len(run) and type(run[k]) is Prefix and run[k].event == head.event:
        k += 1
    if k > 1:
        head = Prefix(head.event, _join([b.rest for b in run[:k]]), head.initiated)
    if k == len(run):
        return head
    return ExternalChoice((*(head.branches if type(head) is ExternalChoice else (head,)), *run[k:]))


def determinized(p: ProcessExpr) -> ProcessExpr:
    """``p`` with every choice external and same-event branches merged."""
    if isinstance(p, Choice):
        return _join([determinized(b) for b in p.branches])
    if isinstance(p, Prefix):
        return Prefix(p.event, determinized(p.rest), p.initiated)
    return p


def _project(node: ProcessExpr, keep: Alphabet, cycle: set[str], dead: set[str]) -> ProcessExpr:
    """Rules 1-3 on ``node``: a reference to a name in ``cycle`` or ``dead``
    becomes Empty.

    Below a kept prefix only the names in ``dead`` still erase.
    """
    if isinstance(node, Prefix):
        if node.event in keep:
            return Prefix(node.event, _project(node.rest, keep, dead, dead), node.initiated)
        return _project(node.rest, keep, cycle, dead)
    if isinstance(node, Choice):
        kept = tuple(b for b in (_project(b, keep, cycle, dead) for b in node.branches) if type(b) is not Empty)
        if len(kept) > 1:
            return type(node)(kept)
        return kept[0] if kept else EMPTY
    if isinstance(node, Ref) and (node.name in cycle or node.name in dead):
        return EMPTY
    return node


def _leaves(body: ProcessExpr, keep: Alphabet) -> list[str | None]:
    """The name of each reference in ``body`` with no kept prefix above it,
    and None for each SKIP or kept prefix there; an Empty leaf adds nothing."""
    leaves: list[str | None] = []
    stack = [body]
    while stack:
        node = stack.pop()
        if isinstance(node, Prefix) and node.event not in keep:
            stack.append(node.rest)
        elif isinstance(node, Choice):
            stack += reversed(node.branches)
        elif not isinstance(node, Empty):
            leaves.append(node.name if isinstance(node, Ref) else None)
    return leaves


def project_declaration(decl: Declaration, keep: Alphabet) -> tuple[Declaration, list[Diagnostic]]:
    """Project a declaration and its where-locals onto ``keep``.

    Locals whose bodies erase completely are removed and every reference to
    them erased; each surviving body is projected once.  A wholly erased
    declaration body becomes SKIP.
    """
    named = [(d, _leaves(d.body, keep)) for d in [decl, *decl.locals]]
    names = {d.name for d, _ in named}
    refs = {d.name: {m: None for m in found if m in names} for d, found in named}
    cycles = {n: {m for m in found if n in reach(refs, m)} | {n} for n, found in refs.items()}
    # a local erases once every leaf of its body that closes no cycle is dead
    pending = [(loc.name, {*found} - cycles[loc.name]) for loc, found in named[1:]]
    diags: list[Diagnostic] = []
    dead: set[str] = set()
    while erased := sorted({name for name, leaves in pending if name not in dead and leaves <= dead}):
        diags += [
            Diagnostic("warning", decl.pos, f"where-local '{name}' of {decl.name} erased entirely by "
                       "projection; references to it behave as STOP")
            for name in erased
        ]
        dead.update(erased)
    body = _project(decl.body, keep, cycles[decl.name], dead)
    kept = [
        Declaration(loc.kind, loc.name, _project(loc.body, keep, cycles[loc.name], dead), [], loc.pos)
        for loc in decl.locals
        if loc.name not in dead
    ]
    if isinstance(body, Empty):
        body = SUCCESS
    return Declaration(decl.kind, decl.name, body, kept, decl.pos), diags


def restrict_to_observed(decl: Declaration) -> tuple[Declaration, list[Diagnostic]]:
    """Project away the initiated events, keeping the observed behaviour."""
    if decl.alphabet is None:
        raise ValueError(f"alphabet of {decl.name} not computed")
    return project_declaration(decl, decl.alphabet.observed)
