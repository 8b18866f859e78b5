"""Desk-scale failures-divergences refinement engine.

Process terms compile to finite labelled transition systems by
explicit-state exploration, in the style of FDR3's supercombinators.  A term
is a ``model.ProcessExpr``: the behavioural AST's prefix, choices,
reference, ``Success`` (SKIP) and ``Empty`` (STOP), plus this module's
synchronized parallel, renaming and hiding.  Each term position numbers its
own states.  Sequential terms are stepped as terms; a ``|~|`` run takes one
tau to each branch, FD-equivalent to the left-grouped chain the text prints.
Renaming and hiding only relabel moves, so a term under them is stepped in
place, its moves relabelled by its context's composed map.  A parallel
composition is a product over integer states of two operand positions: it
splits each operand state's moves once into a sync table (local moves,
synchronised moves, tick targets) with labels already relabelled, and
builds a pair's moves by joining two tables.  A left table holds its own
state's row (a dict from right state to pair id) and its targets' rows, so
no move builds or hashes a state tuple.  The LTS is the one a breadth-first
search with whole terms as states would build, state numbering included
(the argument precedes ``MAX_NESTING``).  It keeps each state's moves as two
parallel lists, events and targets; its transition triples are derived when
read.  An operator directly under an external choice is not supported
(codegen never emits one), and operators nested more than ``MAX_NESTING``
deep by recursion are a ``ResourceLimitError``.
A subset construction over tau-closures turns an LTS into a normalized
failures-divergences machine.  Refinement is a 0-1 breadth-first search of
the product of that machine with the raw implementation.  A product pair
is one int, its distance and parent sit in two dicts keyed by it, and each
specification node's moves are one dict from event to successor, so
neither a pair nor a move builds a tuple.
One iterative depth-first search over tau edges (``_tau_cycles``) finds
divergent states, and it serves two graphs.  Every tau move of a term
without hiding and without renaming onto tau unfolds a reference or
resolves an internal choice outside any prefix, so when no definition
reaches itself through such unguarded references, no tau path is infinite
(guarded recursion without hiding cannot diverge; Roscoe, *Understanding
Concurrent Systems*, 2010).  The certificate (``_cannot_diverge``) walks
the term and the definitions it reaches and asks the search for a cycle of
unguarded references; when it finds none, the search over the LTS's tau
edges is skipped.  An ``Lts`` built by hand is always searched.
``check_assertion`` compiles each side after applying the unit law of
interleaving, ``P ||| SKIP = P`` (``_drop_skip_siblings``): the emitted
text keeps a port restricted to ``SKIP`` beside the computation, the check
drops it, and ``max_states`` caps the rewritten implementation.
``compile_to_lts`` compiles a term as written.  ``check_assertion`` pauses
the cyclic garbage collector while it compiles, normalizes and refines:
none of these creates a reference cycle.
When many assertions are discharged together, those the caller keys alike
share one check (see ``assertion_verdicts``).  Process terms are plain
slotted classes, immutable and hashable (``model.slotted``).  ``PExt``
builds an external choice in canonical form, flat and ordered by ``repr``;
a state is keyed by term equality, which ignores a prefix's polarity.

Semantic conventions (the usual CSP ones):
  * references unfold through a tau step, so unguarded recursion shows up as
    a tau cycle, i.e. divergence; the references among an external choice's
    branches unfold together, by one tau to the choice with each replaced by
    its body, and every other branch keeps its own moves;
  * termination is distributed: a parallel composition performs the success
    event only when both operands can;
  * a stable state that can terminate refuses any set of regular events but
    never the success event itself; a stable state that cannot terminate
    refuses exactly the sets disjoint from its ready set;
  * a divergent state absorbs all behaviour (chaotic closure).
"""

from __future__ import annotations

import gc
from collections import deque
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .model import EMPTY, SUCCESS, Empty, ExternalChoice, InternalChoice, Prefix, ProcessExpr, Ref, Success, slotted

TAU = "<τ>"  # no Wright event can spell it: an identifier is word characters and dots
TICK = "✓"

DEFAULT_MAX_STATES = 200_000


class EngineError(Exception):
    pass


class ResourceLimitError(EngineError):
    """State or node cap exceeded while exploring."""


class UnresolvedProcessError(EngineError):
    def __init__(self, name: str) -> None:
        super().__init__(f"process reference '{name}' has no definition")
        self.name = name


# --- process terms ----------------------------------------------------------


def PExt(*operands: ProcessExpr) -> ProcessExpr:
    """External choice of the operands in canonical form: a flat
    ``ExternalChoice`` of the distinct branches sorted by ``repr``, or the only one.

    External choice is associative, commutative and idempotent, so nested
    choices collapse into one branch tuple.  This keeps the state space
    finite when an unguarded reference unfolds inside a choice (the unfolding
    reproduces the same canonical term, closing a tau cycle).
    """
    branches: set[ProcessExpr] = set()
    stack = list(operands)
    while stack:
        operand = stack.pop()
        if type(operand) is ExternalChoice:
            stack += operand.branches
        else:
            branches.add(operand)
    if len(branches) == 1:
        return next(iter(branches))
    return ExternalChoice(tuple(sorted(branches, key=repr)))


@slotted(frozen=True)
class PPar(ProcessExpr):
    __slots__ = ("left", "sync", "right")

    def __init__(self, left: ProcessExpr, sync: frozenset[str], right: ProcessExpr) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "sync", sync)
        object.__setattr__(self, "right", right)


@slotted(frozen=True)
class PRename(ProcessExpr):
    __slots__ = ("inner", "mapping")

    def __init__(self, inner: ProcessExpr, mapping: tuple[tuple[str, str], ...]) -> None:
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "mapping", mapping)


@slotted(frozen=True)
class PHide(ProcessExpr):
    __slots__ = ("inner", "hidden")

    def __init__(self, inner: ProcessExpr, hidden: frozenset[str]) -> None:
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "hidden", hidden)


def rename(p: ProcessExpr, mapping: Mapping[str, str]) -> PRename:
    return PRename(p, tuple(sorted(mapping.items())))


def dfa_definitions() -> dict[str, ProcessExpr]:
    """The canonical deadlock-freedom specification over one abstract event."""
    return {"DFA": InternalChoice((Prefix("abstractEvent", Ref("DFA")), SUCCESS))}


# --- compilation to a labelled transition system ----------------------------


class Lts:
    """A labelled transition system stored as two parallel lists per state.

    ``events[s]`` and ``targets[s]`` hold the labels and target states of
    the moves of state ``s``, in order; no move is stored as a tuple.
    ``Lts(n, transitions)`` builds it from ``(source, event, target)``
    triples; ``transitions`` lists them back, by source state.

    ``divergence_free`` is set by ``compile_to_lts`` when the term it
    compiled cannot diverge (see ``_cannot_diverge``, which runs the same
    tau-cycle search on its graph of unguarded references);
    ``divergent_states`` then skips the search over this LTS.
    """

    def __init__(
        self,
        n_states: int,
        transitions: Iterable[tuple[int, str, int]] = (),
        initial: int = 0,
        events: Optional[list[list[str]]] = None,
        targets: Optional[list[list[int]]] = None,
        divergence_free: bool = False,
    ) -> None:
        if events is None:
            events, targets = [[] for _ in range(n_states)], [[] for _ in range(n_states)]
            for s, a, t in transitions:
                events[s].append(a)
                targets[s].append(t)
        self.n_states, self.initial, self.events, self.targets = n_states, initial, events, targets
        self.divergence_free = divergence_free

    @property
    def transitions(self) -> list[tuple[int, str, int]]:
        return [(s, a, t) for s, ev in enumerate(self.events) for a, t in zip(ev, self.targets[s])]


def _step(term: ProcessExpr, env: Mapping[str, ProcessExpr]) -> tuple[list[str], list[ProcessExpr]]:
    """Initial transitions of a sequential term (no operator at its head):
    their events and their successor terms, in order.

    Successors may be operator terms (a reference to a parallel composition,
    say); the ``_Process`` that owns the term enters them.
    """
    if isinstance(term, Empty):
        return [], []
    if isinstance(term, Success):
        return [TICK], [EMPTY]
    if isinstance(term, Prefix):
        return [term.event], [term.rest]
    if isinstance(term, Ref):
        if term.name not in env:
            raise UnresolvedProcessError(term.name)
        return [TAU], [env[term.name]]
    if isinstance(term, InternalChoice):  # one tau to each branch of the run
        return [TAU] * len(term.branches), list(term.branches)
    if isinstance(term, ExternalChoice):  # its references unfold together, by one tau where the first stands
        events: list[str] = []
        nexts: list[ProcessExpr] = []
        unfolded = False
        for branch in term.branches:
            if isinstance(branch, (PPar, PRename, PHide)):
                raise EngineError(f"operator term directly under external choice: {branch!r}")
            if type(branch) is Ref:
                if not unfolded:
                    unfolded = True
                    events.append(TAU)
                    nexts.append(PExt(*(_step(b, env)[1][0] if type(b) is Ref else b for b in term.branches)))
                continue
            ev, nx = _step(branch, env)
            if TAU in ev:
                rest = [b for b in term.branches if b is not branch]
                nx = [PExt(*rest, nxt) if a == TAU else nxt for a, nxt in zip(ev, nx)]
            events += ev
            nexts += nx
        return events, nexts
    raise EngineError(f"unknown process term {term!r}")


# Positions, contexts and parallel nodes.  Operators never change while a
# process runs; only their operands move.  A ``_Process`` numbers the states
# of one term position, each on its first lookup, by appending its key to
# ``states``.  Every sequential term is keyed (context, term): the context
# stands for the chain of renamings and hidings above the term, is numbered
# by (parent context, operator, parameter) and holds the chain's composed
# relabelling; context 0 is the empty chain.  A parallel in context c is a
# state ``(k, l, r)`` of the ``_Par`` node k keyed by (c, sync) over two
# operand positions; it synchronises on its operands' labels and relabels
# the moves it builds by c.  (Nodes are handed ``states`` rather than their
# owner: the reference cycle would keep every node alive until the cyclic
# collector runs.)  Keys correspond one to one to terms, and a key's moves
# are its term's moves under the operational rules, in order.  A state is
# numbered only as the target of a move being built, and the root's moves
# are asked for once per state in id order, so ids follow a term-level
# breadth-first search.  Only parallel nodes ask an operand state's moves
# twice; they keep per-state sync tables.

MAX_NESTING = 200  # nested positions and contexts; a position costs about 3 stack frames


class _Numbering(dict):
    """Numbers each key on its first lookup, appending it to ``states``."""

    def __init__(self, states: list) -> None:
        super().__init__()
        self.states = states

    def __missing__(self, key) -> int:
        s = self[key] = len(self.states)
        self.states.append(key)
        return s


def _too_deep(depth: int) -> None:
    # Each operator recursion (``R = (a -> R) [|X|] Q``, say) nests one more
    # position or context, and stepping a state recurses once per position.
    if depth > MAX_NESTING:
        raise ResourceLimitError(f"operator nesting cap {MAX_NESTING} exceeded")


class _Process:
    """The states of one term position: terms in contexts, or parallel node states."""

    def __init__(self, env: Mapping[str, ProcessExpr], depth: int = 0) -> None:
        _too_deep(depth)
        self.env = env
        self.states: list = []  # (context, term), or a node state (k, l, r)
        self.ids = _Numbering(self.states)  # (context, term) -> id
        self.contexts: dict = {}  # (context, operator, parameter) -> context
        self.maps: list[dict[str, str]] = [{}]  # context -> composed relabelling
        self.depths = [depth]  # context -> nesting level
        self.nodes: list[_Par] = []
        self.index: dict = {}  # (context, sync) -> k, the node's index in nodes

    def enter(self, term: ProcessExpr, c: int = 0) -> int:
        """The state of ``term`` in context ``c``."""
        cls = type(term)
        while cls is PRename or cls is PHide:
            c = self._context(c, term)
            term = term.inner
            cls = type(term)
        if cls is not PPar:
            return self.ids[c, term]
        key = (c, term.sync)
        k = self.index.get(key)
        if k is None:
            k = self.index[key] = len(self.nodes)
            depth = self.depths[c] + 1
            self.nodes.append(_Par(k, self.states, self.env, depth, term.sync, self.maps[c]))
        return self.nodes[k].enter(term)

    def _context(self, c: int, term: PRename | PHide) -> int:
        """The context of the operand of ``term`` (renaming or hiding) in context ``c``."""
        cls = type(term)
        key = (c, cls, term.mapping if cls is PRename else term.hidden)
        inner = self.contexts.get(key)
        if inner is None:
            depth = self.depths[c] + 1
            _too_deep(depth)
            if cls is PRename:
                first = {a: b for a, b in term.mapping if a not in (TAU, TICK)}
            else:
                first = dict.fromkeys(term.hidden, TAU)
            outer = self.maps[c]
            inner = self.contexts[key] = len(self.maps)
            self.maps.append({**outer, **{a: outer.get(b, b) for a, b in first.items()}})
            self.depths.append(depth)
        return inner

    def succ(self, s: int) -> tuple[list[str], list[int]]:
        """The events and target states of the moves of state ``s``."""
        state = self.states[s]
        if len(state) == 3:
            return self.nodes[state[0]].succ(state)
        c, term = state
        events, nexts = _step(term, self.env)
        enter = self.enter
        if c:
            get = self.maps[c].get
            events = list(map(get, events, events))
        return events, [enter(nxt, c) for nxt in nexts]


class _Row(dict):
    """The pairs of left operand state ``l``: right id -> the position's id,
    numbered on first lookup by appending ``(k, l, r)`` to ``states``."""

    __slots__ = ("states", "k", "l")

    def __init__(self, states: list, k: int, l: int) -> None:
        self.states, self.k, self.l = states, k, l

    def __missing__(self, r: int) -> int:
        states = self.states
        s = self[r] = len(states)
        states.append((self.k, self.l, r))
        return s


class _Rows(dict):
    """Left operand state -> its ``_Row``, made on first lookup."""

    __slots__ = ("states", "k")

    def __init__(self, states: list, k: int) -> None:
        self.states, self.k = states, k

    def __missing__(self, l: int) -> _Row:
        row = self[l] = _Row(self.states, self.k, l)
        return row


class _Tables(dict):
    """Operand state -> its sync table, built on first lookup.

    A table is (local events, local targets, synchronised moves, tick
    targets, row).  The right operand's synchronised moves are a dict from
    event to targets, and its row is None.  Given the node's ``rows`` (the
    left operand), a table holds each target's ``_Row`` instead of its id,
    its synchronised moves are (event, label, target row) triples and its
    row is the state's own, so the node numbers a pair with one lookup.
    """

    __slots__ = ("side", "sync", "special", "relabel", "rows")

    def __init__(self, side: _Process, sync: frozenset[str], relabel: dict[str, str],
                 rows: Optional[_Rows]) -> None:
        self.side, self.sync, self.special, self.relabel, self.rows = side, sync, sync | {TICK}, relabel, rows

    def __missing__(self, s: int) -> tuple:
        events, targets = self.side.succ(s)
        rows, row = self.rows, None
        if rows is not None:
            targets, row = list(map(rows.__getitem__, targets)), rows[s]
        special, relabel = self.special, self.relabel
        get = relabel.get
        if special.isdisjoint(events):
            table = (list(map(get, events, events)) if relabel else events), targets, (), (), row
        else:
            sync, by_event = self.sync, rows is None
            lev, ltg, ticks = [], [], []
            synced = {} if by_event else []
            for a, t in zip(events, targets):
                if a not in special:
                    lev.append(get(a, a))
                    ltg.append(t)
                    continue
                if a in sync:
                    if by_event:
                        synced.setdefault(a, []).append(t)
                    else:
                        synced.append((a, get(a, a), t))
                if a == TICK:
                    ticks.append(t)
            table = lev, ltg, synced, ticks, row
        self[s] = table
        return table


class _Par:
    """Synchronised parallel with distributed termination over state pairs.

    A pair joins its operand states' sync tables (``_Tables``) without
    filtering: local moves (neither tick nor synchronised), then each left
    synchronised move with the right ones on its event, then tick pairs.  A
    tick in the sync set is both synchronised and a tick, as in the
    term-level rules.  Synchronisation is decided on the operands' labels;
    the tables hold the labels relabelled by this node's context.  A right
    target is numbered through a C-level ``map`` over the left state's row.
    """

    def __init__(self, k: int, states: list, env: Mapping[str, ProcessExpr], depth: int,
                 sync: frozenset[str], relabel: dict[str, str]) -> None:
        self.tick = relabel.get(TICK, TICK)
        self.left, self.right = _Process(env, depth), _Process(env, depth)
        self.rows = _Rows(states, k)
        self.ltabs = _Tables(self.left, sync, relabel, self.rows)
        self.rtabs = _Tables(self.right, sync, relabel, None)

    def enter(self, term: PPar) -> int:
        return self.rows[self.left.enter(term.left)][self.right.enter(term.right)]

    def succ(self, state: tuple[int, int, int]) -> tuple[list[str], list[int]]:
        _, l, r = state
        lev, lrows, lsync, ltick, row = self.ltabs[l]
        rev, rtg, rsync, rtick, _ = self.rtabs[r]
        events = lev + rev
        if lrows:
            targets = [row2[r] for row2 in lrows]
            targets += map(row.__getitem__, rtg)
        else:
            targets = list(map(row.__getitem__, rtg))
        if rsync:
            for a, label, row2 in lsync:
                got = rsync.get(a)
                if got:
                    events += [label] * len(got)
                    targets += map(row2.__getitem__, got)
        # distributed termination: both operands must succeed together
        if rtick:
            tick = self.tick
            for row2 in ltick:
                events += [tick] * len(rtick)
                targets += map(row2.__getitem__, rtick)
        return events, targets[:]  # extending by a map over-allocates; the copy is exactly sized


def compile_to_lts(term: ProcessExpr, env: Mapping[str, ProcessExpr] | None = None,
                   max_states: int = DEFAULT_MAX_STATES) -> Lts:
    """Explore the reachable state space of ``term``.

    States are numbered in breadth-first order of discovery, so the LTS is
    the same as that of a search with whole terms as states.
    """
    root = _Process(env or {})
    root.enter(term)
    states, nodes, succ = root.states, root.nodes, root.succ
    cap = max(max_states, 1)  # the initial state is always admitted, as in a term-level search
    events: list[list[str]] = []
    targets: list[list[int]] = []
    # Only this loop asks for the root's transitions, once per state in
    # order, so the root numbers its states breadth-first.  (It also visits
    # the states appended while it runs.)  It steps a node state through its
    # node, and drops a state's key once its moves are built.
    for s, state in enumerate(states):
        ev, tg = nodes[state[0]].succ(state) if len(state) == 3 else succ(s)
        states[s] = None
        events.append(ev)
        targets.append(tg)
        if len(states) > cap:
            raise ResourceLimitError(f"state cap {max_states} exceeded")
    return Lts(len(events), events=events, targets=targets, divergence_free=_cannot_diverge(term, root.env))


# --- tau analysis -----------------------------------------------------------


def _cannot_diverge(term: ProcessExpr, env: Mapping[str, ProcessExpr]) -> bool:
    """Whether a certificate shows that no state of ``term`` has an infinite tau path.

    Without hiding and without renaming onto tau, every tau move of a term
    unfolds a reference or resolves an internal choice at an unguarded
    position: one under no prefix.  Those are the term itself, the branches
    of either choice, the operands of ``PPar`` and the inner term of
    ``PRename``.  If no definition reaches itself through references at
    unguarded positions, each such move makes a finite measure smaller, so
    no tau path is infinite (guarded recursion without hiding cannot diverge;
    Roscoe, *Understanding Concurrent Systems*, 2010).

    The walk covers the term and every definition it can reach, under
    prefixes too, numbering each (the term is 0).  It refuses a hiding, a
    renaming onto tau, a tau prefix, a reference it cannot resolve and a
    term it does not know.  Each unguarded reference is a tau edge of a
    graph over those numbers, so the search of ``divergent_states`` finds
    any cycle of unguarded references.
    """
    numbers: dict[str, int] = {}  # reached definition -> its number
    bodies: list[ProcessExpr] = [term]
    targets: list[list[int]] = [[]]  # number -> numbers of the definitions at its unguarded positions
    for body, refs in zip(bodies, targets):  # also visits the bodies appended while it runs
        stack = [(body, False)]  # (term, guarded)
        while stack:
            t, guarded = stack.pop()
            cls = type(t)
            if cls is Prefix:
                if t.event == TAU:
                    return False
                stack.append((t.rest, True))
            elif cls is Ref:
                n = numbers.get(t.name)
                if n is None:
                    if t.name not in env:
                        return False
                    n = numbers[t.name] = len(bodies)
                    bodies.append(env[t.name])
                    targets.append([])
                if not guarded:
                    refs.append(n)
            elif cls is InternalChoice or cls is ExternalChoice:
                stack += [(b, guarded) for b in t.branches]
            elif cls is PPar:
                stack += (t.left, guarded), (t.right, guarded)
            elif cls is PRename:
                if any(b == TAU for _, b in t.mapping):
                    return False
                stack.append((t.inner, guarded))
            elif cls is not Success and cls is not Empty:
                return False  # a hiding, or an unknown term
    return not any(_tau_cycles([[TAU] * len(refs) for refs in targets], targets))


def tau_closure(lts: Lts, states: Iterable[int]) -> frozenset[int]:
    events, targets = lts.events, lts.targets
    seen = set(states)
    stack = list(seen)
    while stack:
        s = stack.pop()
        ev = events[s]
        if TAU not in ev:
            continue
        tg, i = targets[s], -1
        for a in ev:
            i += 1
            if a == TAU:
                t = tg[i]
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
    return frozenset(seen)


def divergent_states(lts: Lts) -> list[bool]:
    """States from which an infinite tau path exists.

    All-False without a search when ``compile_to_lts`` certified the LTS
    divergence-free; otherwise ``_tau_cycles`` searches its tau edges.
    """
    if lts.divergence_free:
        return [False] * lts.n_states
    return _tau_cycles(lts.events, lts.targets)


_OPEN, _SAFE, _DIVERGES = 1, 2, 3  # marks of the depth-first search; _OPEN while on the stack


def _tau_cycles(events: list[list[str]], targets: list[list[int]]) -> list[bool]:
    """Per state of the graph ``(events, targets)``: whether an infinite tau path starts there.

    One iterative depth-first search over tau edges: a state diverges iff
    one of its tau edges leads to a state on the search stack (a tau cycle)
    or to a divergent state.  A state finished otherwise has only finished,
    non-divergent tau successors, so it is safe.  It serves an LTS and the
    graph of unguarded references of ``_cannot_diverge``.
    """
    mark = bytearray(len(events))  # 0 while unseen
    for root, ev in enumerate(events):
        if mark[root] or TAU not in ev:
            continue  # seen, or safe: no tau move
        mark[root] = _OPEN
        path, moves, at = [root], [iter(ev)], [-1]  # an index walk, as in tau_closure, that resumes
        while path:
            s = path[-1]
            tg, i = targets[s], at[-1]
            for a in moves[-1]:
                i += 1
                if a == TAU:
                    t = tg[i]
                    m = mark[t]
                    if not m:
                        ev = events[t]
                        if TAU not in ev:
                            mark[t] = _SAFE  # no tau move
                            continue
                        mark[t] = _OPEN
                        at[-1] = i
                        path.append(t)
                        moves.append(iter(ev))
                        at.append(-1)
                        break
                    if m != _SAFE:  # on the stack, or divergent
                        mark[s] = _DIVERGES
            else:
                path.pop()
                moves.pop()
                at.pop()
                if mark[s] == _OPEN:
                    mark[s] = _SAFE
                elif path:
                    mark[path[-1]] = _DIVERGES
    return [m == _DIVERGES for m in mark]


# --- failures-divergences normalization -------------------------------------


@slotted(frozen=False)
class FdModel:
    """Normalized machine: tau-closed subsets with acceptance/divergence info."""

    __slots__ = ("initial", "divergent", "acceptances", "transitions")

    def __init__(
        self,
        initial: int,
        divergent: list[bool],
        acceptances: list[tuple[frozenset[str], ...]],
        transitions: dict[tuple[int, str], int],
    ) -> None:
        self.initial = initial
        self.divergent = divergent
        self.acceptances = acceptances
        self.transitions = transitions

    @property
    def node_count(self) -> int:
        return len(self.divergent)


def normalize_fd(lts: Lts, max_nodes: int = DEFAULT_MAX_STATES) -> FdModel:
    """Subset construction over tau-closures with divergence marking."""
    div = divergent_states(lts)
    events, targets = lts.events, lts.targets
    initial = tau_closure(lts, [lts.initial])
    node_index: dict[frozenset[int], int] = {initial: 0}
    divergent: list[bool] = []
    acceptances: list[tuple[frozenset[str], ...]] = []
    transitions: dict[tuple[int, str], int] = {}
    # Subsets are visited in the order they are numbered (the loop also
    # visits those appended while it runs), so node n's entries are appended.
    subsets = [initial]
    for n, subset in enumerate(subsets):
        is_div = any(div[s] for s in subset)
        divergent.append(is_div)
        if is_div:
            acceptances.append(())
            continue  # divergence absorbs all behaviour
        accs: list[frozenset[str]] = []
        moves: dict[str, set[int]] = {}
        for s in subset:
            ev = events[s]
            if TAU not in ev:  # a stable state: its events are its ready set
                ready = frozenset(ev)
                if ready not in accs:
                    accs.append(ready)
            tg, i = targets[s], -1
            for a in ev:
                i += 1
                if a != TAU:
                    moves.setdefault(a, set()).add(tg[i])
        # A tick-free ready set refuses exactly the sets disjoint from it, so
        # only subset-minimal ones matter.  Every tick-capable ready set
        # refuses the same family (all sets without tick), so they collapse
        # into one marker; a deadlocked member (empty ready set) dominates it.
        tick_free = [a for a in accs if TICK not in a]
        minimal = [a for a in tick_free if not any(b < a for b in tick_free)]
        if any(TICK in a for a in accs) and frozenset() not in minimal:
            minimal.append(frozenset({TICK}))
        acceptances.append(tuple(minimal))
        for a, reached in sorted(moves.items()):
            nxt = tau_closure(lts, reached)
            t_idx = node_index.get(nxt)
            if t_idx is None:
                if len(node_index) >= max_nodes:
                    raise ResourceLimitError(f"normalization cap {max_nodes} exceeded")
                t_idx = len(node_index)
                node_index[nxt] = t_idx
                subsets.append(nxt)
            transitions[(n, a)] = t_idx
    return FdModel(initial=0, divergent=divergent, acceptances=acceptances, transitions=transitions)


# --- refinement -------------------------------------------------------------


@slotted(frozen=False)
class RefinementVerdict:
    """``unmatched``: on a refusal failure, the events the failing
    implementation state offers that the specification node has no move on,
    sorted (empty otherwise)."""

    __slots__ = ("holds", "counterexample", "explored", "unmatched")

    def __init__(
        self,
        holds: bool,
        counterexample: Optional[tuple[tuple[str, ...], str]] = None,  # (trace, kind)
        explored: int = 0,
        unmatched: tuple[str, ...] = (),
    ) -> None:
        self.holds = holds
        self.counterexample = counterexample
        self.explored = explored
        self.unmatched = unmatched

    def __bool__(self) -> bool:
        return self.holds


def _spec_accepts_refusal(accs: tuple[frozenset[str], ...], ready: frozenset[str]) -> bool:
    """Can the spec node refuse as much as a stable impl state with this ready set?"""
    if TICK in ready:
        return any(TICK in a or not a for a in accs)
    return any(TICK not in a and a <= ready for a in accs)


def check_refinement_fd(spec: FdModel, impl: Lts, max_pairs: int = DEFAULT_MAX_STATES) -> RefinementVerdict:
    """Failures-divergences refinement: does ``impl`` refine ``spec``?

    Product exploration ordered by trace length (tau edges are free), so a
    returned counterexample trace is shortest.  An event the specification
    cannot perform, found at a pair of distance d, gives a trace of d + 1
    events, one more than a refusal or divergence at d would: the first such
    violation is held until every pair at distance d is explored, and a
    refusal or divergence found meanwhile is returned instead.
    """
    impl_div = divergent_states(impl)
    n, events, targets = impl.n_states, impl.events, impl.targets
    spec_div, spec_accs = spec.divergent, spec.acceptances
    # A pair (spec node, impl state) is the int node * n + state.  Per node,
    # ``moves`` maps an event to the successor node times n, and ``accepts``
    # caches _spec_accepts_refusal by ready set.
    moves: list[dict[str, int]] = [{} for _ in spec_div]
    accepts: list[dict[frozenset[str], bool]] = [{} for _ in spec_div]
    for (node, a), t in spec.transitions.items():
        moves[node][a] = t * n
    start = spec.initial * n + impl.initial
    # 0-1 BFS: tau edges cost nothing, visible edges cost one, so the first
    # violating pair finalized sits at minimal visible-trace distance.  A
    # pair's distance is in ``dist`` (-1 once the pair is finalized) and the
    # pair it was reached from in ``parent``, complemented (``~``) when the
    # edge is visible.  That edge is the parent's first visible move onto
    # the pair, since a later one costs no less, so its event is found again.
    dist, parent, explored = {start: 0}, {}, 0
    # The first trace violation's trace, and the distance of the pair it was
    # found at; no pair lies as far as the product has pairs.
    held, held_at = None, len(spec_div) * n

    def trace_of(pair: int, extra: Optional[str] = None) -> tuple[str, ...]:
        labels = [] if extra is None else [extra]
        while pair != start:
            prev = parent[pair]
            if prev < 0:
                prev = ~prev
                s, node_moves = prev % n, moves[prev // n]
                labels.append(next(a for a, t in zip(events[s], targets[s])
                                   if a != TAU and a != TICK and node_moves[a] + t == pair))
            pair = prev
        return tuple(reversed(labels))

    queue = deque([start])
    pop, push, push_tau = queue.popleft, queue.append, queue.appendleft
    while queue:
        pair = pop()
        cost = dist[pair]
        if cost < 0:
            continue  # a stale queue entry
        if cost > held_at:
            break  # every pair as near as the held violation's is explored
        dist[pair] = -1
        explored += 1
        node = pair // n
        base = node * n
        s = pair - base
        if spec_div[node]:
            continue  # spec allows everything from here on
        if impl_div[s]:
            return RefinementVerdict(False, (trace_of(pair), "divergence"), explored)
        ev, node_moves = events[s], moves[node]
        if TAU not in ev:  # a stable state: its events are its ready set
            ready, known = frozenset(ev), accepts[node]
            ok = known.get(ready)
            if ok is None:
                ok = known[ready] = _spec_accepts_refusal(spec_accs[node], ready)
            if not ok:
                unmatched = tuple(sorted(ready.difference(node_moves)))
                return RefinementVerdict(False, (trace_of(pair), "failure"), explored, unmatched)
        tg, i = targets[s], -1  # an index walk: a zip costs more than the few moves of a state
        for a in ev:
            i += 1
            if a == TAU:
                nxt, nxt_cost = base + tg[i], cost
            else:
                spec_base = node_moves.get(a)
                if spec_base is None:
                    if held is None:
                        held, held_at = trace_of(pair, a), cost
                    continue
                if a == TICK:
                    continue  # nothing observable after successful termination
                nxt, nxt_cost = spec_base + tg[i], cost + 1
            # Pairs are finalized in order of distance, so a finalized pair
            # would never get a lower cost; its -1 makes this test skip it.
            old = dist.get(nxt)
            if old is None:
                if len(dist) >= max_pairs:
                    raise ResourceLimitError(f"product cap {max_pairs} exceeded")
            elif old <= nxt_cost:
                continue
            dist[nxt] = nxt_cost
            if a == TAU:
                parent[nxt] = pair
                push_tau(nxt)
            else:
                parent[nxt] = ~pair
                push(nxt)
    if held is not None:
        return RefinementVerdict(False, (held, "failure"), explored)
    return RefinementVerdict(True, None, explored)


def _drop_skip_siblings(term: ProcessExpr, env: Mapping[str, ProcessExpr],
                        done: Optional[dict[str, ProcessExpr]] = None, depth: int = 0) -> ProcessExpr:
    """``term`` with the unit law of interleaving, ``P ||| SKIP = P``, applied.

    The law is applied at operator positions: the term, the operands of
    ``PPar``, the inner term of ``PHide`` and ``PRename``, and the body of a
    reference there whose definition is one of these operators.  A ``PPar``
    with an empty sync set and an operand that is ``SKIP``, or a chain of
    references ending in ``SKIP``, becomes its other operand.  The sibling
    can only terminate, and distributed termination waits for the other
    operand, so the two terms are equal in the failures-divergences model
    (Roscoe, *Understanding Concurrent Systems*, 2010).  A reference whose
    body changes is replaced by that body, which drops only its unfolding
    tau.  Where nothing applies the same object comes back, so such a term
    compiles to the same LTS.  Each definition is rewritten once (``done``
    maps its name to what a reference to it becomes); one met again while
    its body is rewritten (``R = R ||| SKIP``) stays a reference, and nothing
    deeper than ``MAX_NESTING`` levels is rewritten, so a recursion through
    operators still meets the nesting cap when compiled.
    """
    if depth > MAX_NESTING:
        return term
    if done is None:
        done = {}
    cls = type(term)
    if cls is Ref:
        body = env.get(term.name)
        if type(body) is not PPar and type(body) is not PHide and type(body) is not PRename:
            return term
        new = done.get(term.name)
        if new is None:
            done[term.name] = term
            new = _drop_skip_siblings(body, env, done, depth + 1)
            new = done[term.name] = term if new is body else new
        return new
    if cls is PPar:
        if not term.sync:
            for keep, sibling in ((term.left, term.right), (term.right, term.left)):
                seen = set()
                while type(sibling) is Ref and sibling.name not in seen:
                    seen.add(sibling.name)
                    sibling = env.get(sibling.name)
                if type(sibling) is Success:
                    return _drop_skip_siblings(keep, env, done, depth + 1)
        left = _drop_skip_siblings(term.left, env, done, depth + 1)
        right = _drop_skip_siblings(term.right, env, done, depth + 1)
        return term if left is term.left and right is term.right else PPar(left, term.sync, right)
    if cls is PHide or cls is PRename:
        inner = _drop_skip_siblings(term.inner, env, done, depth + 1)
        if inner is term.inner:
            return term
        return PHide(inner, term.hidden) if cls is PHide else PRename(inner, term.mapping)
    return term


def check_assertion(
    spec_term: ProcessExpr,
    impl_term: ProcessExpr,
    env: Mapping[str, ProcessExpr],
    max_states: int = DEFAULT_MAX_STATES,
) -> RefinementVerdict:
    """Compile both sides and decide ``spec_term [FD= impl_term``.

    An event the implementation performs where the specification cannot
    fails the trace check, so the refinement needs no alphabet.  Both sides
    are compiled after ``_drop_skip_siblings``, so a ``SKIP`` sibling that
    the emitted text keeps is not interleaved, and ``max_states`` caps the
    rewritten terms.

    The cyclic garbage collector is paused meanwhile and then restored (left
    off if the caller had turned it off): these phases allocate many objects
    but create no reference cycles, so collecting during them only walks
    live data.  The switch is process-global, so a check running in another
    thread at the same time may turn the collector back on early; that costs
    speed, never correctness.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        spec_lts, impl_lts = (compile_to_lts(_drop_skip_siblings(t, env), env, max_states)
                              for t in (spec_term, impl_term))
        spec_fd = normalize_fd(spec_lts, max_states)
        return check_refinement_fd(spec_fd, impl_lts, max_states)
    finally:
        if enabled:
            gc.enable()


# --- discharging many assertions ---------------------------------------------


def assertion_verdicts(
    assertions: Iterable,
    env: Mapping[str, ProcessExpr],
    max_states: int = DEFAULT_MAX_STATES,
) -> Iterator[tuple[str, RefinementVerdict | EngineError]]:
    """(label, verdict) per assertion, in order; an undecided one has its error.

    Each assertion exposes ``label``, ``spec_term``, ``impl_term`` and
    ``key``.  An equal ``key`` is the caller's promise of an equal verdict:
    an assertion whose key equals an earlier one's gets that assertion's
    verdict object (same ``holds``, counterexample and ``explored``)
    unchecked.  An ``EngineError`` is never reused, since its message may
    name a definition; an assertion whose key is None is always checked on
    its own.
    """
    memo: dict[str, RefinementVerdict] = {}
    for a in assertions:
        verdict = memo.get(a.key)
        if verdict is None:
            try:
                verdict = check_assertion(a.spec_term, a.impl_term, env, max_states)
            except EngineError as exc:
                yield a.label, exc
                continue
            if a.key is not None:
                memo[a.key] = verdict
        yield a.label, verdict


def discharge_assertions(
    assertions: Sequence,
    env: Mapping[str, ProcessExpr],
    max_states: int = DEFAULT_MAX_STATES,
) -> list[tuple[str, RefinementVerdict]]:
    """One verdict per assertion, in emission order (see ``assertion_verdicts``).

    Raises the ``EngineError`` of the first assertion the engine cannot decide.
    """
    out = []
    for label, verdict in assertion_verdicts(assertions, env, max_states):
        if isinstance(verdict, EngineError):
            raise verdict
        out.append((label, verdict))
    return out
