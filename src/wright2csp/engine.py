"""Desk-scale failures-divergences refinement engine.

Process terms (prefix, choices, synchronized parallel, renaming, hiding,
STOP/SKIP, named references) compile to finite labelled transition systems by
explicit-state exploration, in the style of FDR3's supercombinators.  Each
term position numbers its own states.  Sequential terms (prefix, choices,
references, STOP/SKIP) are stepped as terms.  Renaming and hiding only
relabel moves, so they are contexts of a position rather than nodes: a term
under them is stepped in place, its moves relabelled by the context's
composed map.  A parallel composition is a product over integer states of
two operand positions: it splits each operand state's moves once into a sync
table (local moves, synchronised moves by event, tick targets) holding
labels already relabelled by its context, joins two tables per pair of
states, and numbers pairs through a dict of right ids per left id, so none
of its moves builds or hashes a state tuple.  Each move is built once, with
its final label and id.  The LTS is the one a breadth-first search with
whole terms as states would build, state numbering included (the argument
precedes ``MAX_NESTING``); it is stored as adjacency lists, and its
transition triples are derived when read.  An operator directly under an external choice is not
supported (codegen never emits one), and operators nested more than
``MAX_NESTING`` deep by recursion are a ``ResourceLimitError``.
A subset construction over tau-closures turns an LTS into a normalized
failures-divergences machine, and refinement is decided by exploring the
product of the normalized specification with the raw implementation.
Divergent states are found by one iterative depth-first search over tau
edges.  ``check_assertion`` pauses the cyclic garbage collector while it
compiles, normalizes and refines: none of these creates a reference cycle.
When many assertions are discharged together, each distinct one is checked
once: an assertion whose sides equal an earlier one's up to a renaming of
process names (``term_key``) reuses that verdict.  Process terms are plain
slotted classes, immutable and hashable (``model.slotted``); their ``repr``,
which orders the branches of an external choice, is the dataclass one.

Semantic conventions (the usual CSP ones):
  * references unfold through a tau step, so unguarded recursion shows up as
    a tau cycle, i.e. divergence;
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

from .model import slotted

TAU = "τ"
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


class AlphabetMismatchError(EngineError):
    pass


# --- process terms ----------------------------------------------------------


class Proc:
    __slots__ = ()


@slotted(frozen=True)
class PStop(Proc):
    __slots__ = ()


@slotted(frozen=True)
class PSkip(Proc):
    __slots__ = ()


@slotted(frozen=True)
class PPrefix(Proc):
    __slots__ = ("event", "rest")

    def __init__(self, event: str, rest: Proc) -> None:
        object.__setattr__(self, "event", event)
        object.__setattr__(self, "rest", rest)


@slotted(frozen=True)
class PExtN(Proc):
    """External choice, kept flat and canonically ordered.

    External choice is associative, commutative and idempotent, so nested
    choices collapse into one branch tuple.  This keeps the state space
    finite when an unguarded reference unfolds inside a choice (the unfolding
    reproduces the same canonical term, closing a tau cycle).
    """

    __slots__ = ("branches",)

    def __init__(self, branches: tuple[Proc, ...]) -> None:
        object.__setattr__(self, "branches", branches)


def PExt(*operands: Proc) -> Proc:
    """External choice of the operands, flattened into one canonical PExtN."""
    branches: set[Proc] = set()
    for operand in operands:
        if isinstance(operand, PExtN):
            branches.update(operand.branches)
        else:
            branches.add(operand)
    if len(branches) == 1:
        return next(iter(branches))
    return PExtN(tuple(sorted(branches, key=repr)))


@slotted(frozen=True)
class PInt(Proc):
    __slots__ = ("left", "right")

    def __init__(self, left: Proc, right: Proc) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


@slotted(frozen=True)
class PRef(Proc):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "name", name)


@slotted(frozen=True)
class PPar(Proc):
    __slots__ = ("left", "sync", "right")

    def __init__(self, left: Proc, sync: frozenset[str], right: Proc) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "sync", sync)
        object.__setattr__(self, "right", right)


@slotted(frozen=True)
class PRename(Proc):
    __slots__ = ("inner", "mapping")

    def __init__(self, inner: Proc, mapping: tuple[tuple[str, str], ...]) -> None:
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "mapping", mapping)


@slotted(frozen=True)
class PHide(Proc):
    __slots__ = ("inner", "hidden")

    def __init__(self, inner: Proc, hidden: frozenset[str]) -> None:
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "hidden", hidden)


def rename(p: Proc, mapping: Mapping[str, str]) -> PRename:
    return PRename(p, tuple(sorted(mapping.items())))


def dfa_definitions() -> dict[str, Proc]:
    """The canonical deadlock-freedom specification over one abstract event."""
    return {"DFA": PInt(PPrefix("abstractEvent", PRef("DFA")), PSkip())}


# --- compilation to a labelled transition system ----------------------------


class Lts:
    """A labelled transition system stored as adjacency lists.

    ``adj[s]`` holds the moves ``(event, target)`` of state ``s`` in order.
    ``Lts(n, transitions)`` builds it from ``(source, event, target)``
    triples; ``transitions`` lists them back, by source state.  ``labels``
    holds the regular events (neither tau nor tick) that label a move.
    """

    def __init__(
        self,
        n_states: int,
        transitions: Iterable[tuple[int, str, int]] = (),
        initial: int = 0,
        adj: Optional[list[list[tuple[str, int]]]] = None,
    ) -> None:
        if adj is None:
            adj = [[] for _ in range(n_states)]
            for s, a, t in transitions:
                adj[s].append((a, t))
        self.n_states, self.initial, self.adj = n_states, initial, adj
        self.labels = frozenset({a for out in adj for a, _ in out} - {TAU, TICK})

    @property
    def transitions(self) -> list[tuple[int, str, int]]:
        return [(s, a, t) for s, out in enumerate(self.adj) for a, t in out]


def _step(term: Proc, env: Mapping[str, Proc]) -> list[tuple[str, Proc]]:
    """Initial transitions of a sequential term (no operator at its head).

    Successors may be operator terms (a reference to a parallel composition,
    say); the ``_Process`` that owns the term enters them.
    """
    if isinstance(term, PStop):
        return []
    if isinstance(term, PSkip):
        return [(TICK, PStop())]
    if isinstance(term, PPrefix):
        return [(term.event, term.rest)]
    if isinstance(term, PRef):
        if term.name not in env:
            raise UnresolvedProcessError(term.name)
        return [(TAU, env[term.name])]
    if isinstance(term, PInt):
        return [(TAU, term.left), (TAU, term.right)]
    if isinstance(term, PExtN):
        out = []
        for branch in term.branches:
            if isinstance(branch, (PPar, PRename, PHide)):
                raise EngineError(f"operator term directly under external choice: {branch!r}")
            rest = [b for b in term.branches if b is not branch]
            for a, nxt in _step(branch, env):
                if a == TAU:
                    out.append((TAU, PExt(*rest, nxt)))
                else:
                    out.append((a, nxt))
        return out
    raise TypeError(f"unknown process term {term!r}")


# Positions, contexts and parallel nodes.  Operators never change while a
# process runs; only their operands move.  A ``_Process`` numbers the states
# of one term position, each on its first lookup, by appending its key to
# ``states``.  A term under a chain of renamings and hidings is keyed
# (context, term): the context is numbered by (parent context, operator,
# parameter) and holds the chain's composed relabelling; context 0, the
# empty chain, keys the bare term.  A parallel in context c is a state
# ``(k, l, r)`` of the ``_Par`` node k keyed by (c, sync) over two operand
# positions; it synchronises on its operands' labels and relabels the moves
# it builds by c.  (Nodes are handed ``states`` rather than their owner: the
# reference cycle would keep every node alive until the cyclic collector
# runs.)  Keys correspond one to one to terms, and a key's moves are its
# term's moves under the operational rules, in order.  A state is numbered
# only as the target of a move being built, and the root's moves are asked
# for once per state in id order, so ids follow a term-level breadth-first
# search.  Only parallel nodes ask an operand state's moves twice; they keep
# per-state sync tables.

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

    def __init__(self, env: Mapping[str, Proc], depth: int = 0) -> None:
        _too_deep(depth)
        self.env = env
        self.states: list = []  # a term, (context, term), or a node state (k, l, r)
        self.ids = _Numbering(self.states)  # term or (context, term) -> id
        self.contexts: dict = {}  # (context, operator, parameter) -> context
        self.maps: list[dict[str, str]] = [{}]  # context -> composed relabelling
        self.depths = [depth]  # context -> nesting level
        self.nodes: list[_Par] = []
        self.index: dict = {}  # (context, sync) -> k, the node's index in nodes

    def enter(self, term: Proc, c: int = 0) -> int:
        """The state of ``term`` in context ``c``."""
        cls = type(term)
        while cls is PRename or cls is PHide:
            c = self._context(c, term)
            term = term.inner
            cls = type(term)
        if cls is not PPar:
            return self.ids[(c, term) if c else term]
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

    def succ(self, s: int) -> list[tuple[str, int]]:
        """Transitions of state ``s``."""
        state = self.states[s]
        enter = self.enter
        if type(state) is not tuple:
            return [(a, enter(nxt)) for a, nxt in _step(state, self.env)]
        if len(state) == 3:
            return self.nodes[state[0]].succ(state)
        c, term = state
        get = self.maps[c].get
        return [(get(a, a), enter(nxt, c)) for a, nxt in _step(term, self.env)]


class _Row(dict):
    """The pairs of one left operand state: right id -> the position's id.

    A pair is numbered on its first lookup, its ``(k, l, r)`` appended to the
    position's ``states``.
    """

    __slots__ = ("states", "k", "l")

    def __init__(self, states: list, k: int, l: int) -> None:
        self.states, self.k, self.l = states, k, l

    def __missing__(self, r: int) -> int:
        states = self.states
        s = self[r] = len(states)
        states.append((self.k, self.l, r))
        return s


class _Par:
    """Synchronised parallel with distributed termination over state pairs.

    Each operand state's transitions are split once into a sync table:
    local moves (neither tick nor synchronised), synchronised moves and tick
    targets.  The right operand's synchronised moves are grouped by event, so
    a pair joins the two tables without filtering.  A tick in the sync set is
    both synchronised and a tick, as in the term-level rules.  Synchronisation
    is decided on the operands' labels; the tables hold the labels of the
    moves this node builds, relabelled by its context.
    """

    def __init__(
        self, k: int, states: list, env: Mapping[str, Proc], depth: int,
        sync: frozenset[str], relabel: dict[str, str],
    ) -> None:
        self.k, self.states, self.sync, self.special = k, states, sync, sync | {TICK}
        self.relabel, self.tick = relabel, relabel.get(TICK, TICK)
        self.left, self.right = _Process(env, depth), _Process(env, depth)
        # Indexed by operand state, as long as the operands' state lists (see
        # ``_fit``): the left state's pairs, and each side's sync table or
        # None until first needed.
        self.rows: list[_Row] = []
        self.ltabs: list = []  # (local moves, [(event, label, target)], [tick target])
        self.rtabs: list = []  # (local moves, {event: [target]}, [tick target])

    def _fit(self) -> None:
        """Extend the per-operand-state lists to the operands' state counts."""
        n = len(self.left.states)
        rows = self.rows
        if len(rows) < n:
            self.ltabs += [None] * (n - len(rows))
            rows += [_Row(self.states, self.k, l) for l in range(len(rows), n)]
        self.rtabs += [None] * (len(self.right.states) - len(self.rtabs))

    def enter(self, term: PPar) -> int:
        l, r = self.left.enter(term.left), self.right.enter(term.right)
        self._fit()
        return self.rows[l][r]

    def _table(self, side: _Process, tabs: list, s: int, by_event: bool) -> tuple:
        """The sync table of operand state ``s``, stored in ``tabs``."""
        steps = side.succ(s)
        self._fit()
        special, relabel = self.special, self.relabel
        get = relabel.get
        if relabel:
            local = [(get(a, a), t) for a, t in steps if a not in special]
        else:
            local = [step for step in steps if step[0] not in special]
        if len(local) == len(steps):
            table = local, (), ()
        else:
            sync = self.sync
            if by_event:
                synced: dict[str, list[int]] = {}
                for a, t in steps:
                    if a in sync:
                        synced.setdefault(a, []).append(t)
            else:
                synced = [(a, get(a, a), t) for a, t in steps if a in sync]
            table = local, synced, [t for a, t in steps if a == TICK]
        tabs[s] = table
        return table

    def succ(self, state: tuple[int, int, int]) -> list[tuple[str, int]]:
        _, l, r = state
        lloc, lsync, ltick = self.ltabs[l] or self._table(self.left, self.ltabs, l, False)
        rloc, rsync, rtick = self.rtabs[r] or self._table(self.right, self.rtabs, r, True)
        rows = self.rows
        row = rows[l]
        out = [(a, rows[l2][r]) for a, l2 in lloc]
        out += [(a, row[r2]) for a, r2 in rloc]
        if rsync:
            for a, label, l2 in lsync:
                targets = rsync.get(a)
                if targets:
                    row2 = rows[l2]
                    out += [(label, row2[r2]) for r2 in targets]
        # distributed termination: both operands must succeed together
        if rtick:
            tick = self.tick
            for l2 in ltick:
                row2 = rows[l2]
                out += [(tick, row2[r2]) for r2 in rtick]
        return out


def compile_to_lts(
    term: Proc,
    env: Mapping[str, Proc] | None = None,
    max_states: int = DEFAULT_MAX_STATES,
) -> Lts:
    """Explore the reachable state space of ``term``.

    States are numbered in breadth-first order of discovery, so the LTS is
    the same as that of a search with whole terms as states.
    """
    root = _Process(env or {})
    root.enter(term)
    states, succ = root.states, root.succ
    cap = max(max_states, 1)  # the initial state is always admitted, as in a term-level search
    adj: list[list[tuple[str, int]]] = []
    # Only this loop asks for the root's transitions, once per state in
    # order, so the root numbers its states breadth-first.  (It also visits
    # the states appended while it runs.)
    for s, _ in enumerate(states):
        adj.append(succ(s))
        if len(states) > cap:
            raise ResourceLimitError(f"state cap {max_states} exceeded")
    return Lts(len(adj), adj=adj)


# --- tau analysis -----------------------------------------------------------


_OPEN, _SAFE, _DIVERGES = 1, 2, 3  # divergent_states' marks; _OPEN while on the stack


def tau_closure(lts: Lts, states: Iterable[int]) -> frozenset[int]:
    seen = set(states)
    stack = list(seen)
    while stack:
        s = stack.pop()
        for a, t in lts.adj[s]:
            if a == TAU and t not in seen:
                seen.add(t)
                stack.append(t)
    return frozenset(seen)


def divergent_states(lts: Lts) -> list[bool]:
    """States from which an infinite tau path exists.

    One iterative depth-first search over tau edges: a state diverges iff
    one of its tau edges leads to a state on the search stack (a tau cycle)
    or to a divergent state.  A state finished otherwise has only finished,
    non-divergent tau successors, so it is safe.
    """
    adj = lts.adj
    mark = bytearray(lts.n_states)  # 0 while unseen
    for root, out in enumerate(adj):
        if mark[root]:
            continue
        mark[root] = _OPEN
        path, edges = [root], [iter(out)]
        while path:
            for a, t in edges[-1]:
                if a == TAU:
                    m = mark[t]
                    if not m:
                        mark[t] = _OPEN
                        path.append(t)
                        edges.append(iter(adj[t]))
                        break
                    if m != _SAFE:  # on the stack, or divergent
                        mark[path[-1]] = _DIVERGES
            else:
                edges.pop()
                s = path.pop()
                if mark[s] == _OPEN:
                    mark[s] = _SAFE
                elif path:
                    mark[path[-1]] = _DIVERGES
    return [m == _DIVERGES for m in mark]


def stable_ready(lts: Lts, state: int) -> Optional[frozenset[str]]:
    """Ready set of a stable state, or None if the state has a tau move."""
    ready = set()
    for a, _ in lts.adj[state]:
        if a == TAU:
            return None
        ready.add(a)
    return frozenset(ready)


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
    initial = tau_closure(lts, [lts.initial])
    node_index: dict[frozenset[int], int] = {initial: 0}
    divergent: list[bool] = []
    acceptances: list[tuple[frozenset[str], ...]] = []
    transitions: dict[tuple[int, str], int] = {}
    queue: deque[frozenset[int]] = deque([initial])
    while queue:
        subset = queue.popleft()
        n = node_index[subset]
        while len(divergent) <= n:
            divergent.append(False)
            acceptances.append(())
        is_div = any(div[s] for s in subset)
        divergent[n] = is_div
        if is_div:
            continue  # divergence absorbs all behaviour
        accs: list[frozenset[str]] = []
        for s in subset:
            ready = stable_ready(lts, s)
            if ready is not None and ready not in accs:
                accs.append(ready)
        # A tick-free ready set refuses exactly the sets disjoint from it, so
        # only subset-minimal ones matter.  Every tick-capable ready set
        # refuses the same family (all sets without tick), so they collapse
        # into one marker; a deadlocked member (empty ready set) dominates it.
        tick_free = [a for a in accs if TICK not in a]
        minimal = [a for a in tick_free if not any(b < a for b in tick_free)]
        if any(TICK in a for a in accs) and frozenset() not in minimal:
            minimal.append(frozenset({TICK}))
        acceptances[n] = tuple(minimal)
        moves: dict[str, set[int]] = {}
        for s in subset:
            for a, t in lts.adj[s]:
                if a != TAU:
                    moves.setdefault(a, set()).add(t)
        for a, targets in sorted(moves.items()):
            nxt = tau_closure(lts, targets)
            t_idx = node_index.get(nxt)
            if t_idx is None:
                if len(node_index) >= max_nodes:
                    raise ResourceLimitError(f"normalization cap {max_nodes} exceeded")
                t_idx = len(node_index)
                node_index[nxt] = t_idx
                queue.append(nxt)
            transitions[(n, a)] = t_idx
    while len(divergent) < len(node_index):
        divergent.append(False)
        acceptances.append(())
    return FdModel(initial=0, divergent=divergent, acceptances=acceptances, transitions=transitions)


# --- refinement -------------------------------------------------------------


@slotted(frozen=False)
class RefinementVerdict:
    __slots__ = ("holds", "counterexample", "explored")

    def __init__(
        self,
        holds: bool,
        counterexample: Optional[tuple[tuple[str, ...], str]] = None,  # (trace, kind)
        explored: int = 0,
    ) -> None:
        self.holds = holds
        self.counterexample = counterexample
        self.explored = explored

    def __bool__(self) -> bool:
        return self.holds


def _spec_accepts_refusal(accs: tuple[frozenset[str], ...], ready: frozenset[str]) -> bool:
    """Can the spec node refuse as much as a stable impl state with this ready set?"""
    if TICK in ready:
        return any(TICK in a or not a for a in accs)
    return any(TICK not in a and a <= ready for a in accs)


def check_refinement_fd(
    spec: FdModel,
    impl: Lts,
    max_pairs: int = DEFAULT_MAX_STATES,
) -> RefinementVerdict:
    """Failures-divergences refinement: does ``impl`` refine ``spec``?

    Product exploration ordered by trace length (tau edges are free), so a
    returned counterexample trace is shortest.
    """
    impl_div = divergent_states(impl)
    n, adj = impl.n_states, impl.adj
    spec_div, spec_accs, spec_next = spec.divergent, spec.acceptances, spec.transitions.get
    # A pair (spec node, impl state) is the int node * n + state.
    start = spec.initial * n + impl.initial
    # 0-1 BFS: tau edges cost nothing, visible edges cost one, so the first
    # violating pair finalized sits at minimal visible-trace distance.
    # ``best`` maps a pair to (distance, parent pair, label of the edge from
    # the parent); once the pair is finalized its distance reads -1.
    best: dict[int, tuple[int, Optional[int], Optional[str]]] = {start: (0, None, None)}
    accepts: dict[tuple[int, frozenset[str]], bool] = {}  # _spec_accepts_refusal by (node, ready)
    explored = 0

    def trace_of(pair: int, extra: Optional[str] = None) -> tuple[str, ...]:
        labels: list[str] = []
        cur: Optional[int] = pair
        while cur is not None:
            _, cur, label = best[cur]
            if label is not None and label != TAU:
                labels.append(label)
        labels.reverse()
        if extra is not None:
            labels.append(extra)
        return tuple(labels)

    queue: deque[int] = deque([start])
    while queue:
        pair = queue.popleft()
        cost, parent, label = best[pair]
        if cost < 0:
            continue  # a stale queue entry
        best[pair] = (-1, parent, label)
        node, s = divmod(pair, n)
        explored += 1
        if spec_div[node]:
            continue  # spec allows everything from here on
        if impl_div[s]:
            return RefinementVerdict(False, (trace_of(pair), "divergence"), explored)
        ready = stable_ready(impl, s)
        if ready is not None:
            ok = accepts.get((node, ready))
            if ok is None:
                ok = accepts[node, ready] = _spec_accepts_refusal(spec_accs[node], ready)
            if not ok:
                return RefinementVerdict(False, (trace_of(pair), "failure"), explored)
        for a, t in adj[s]:
            if a == TAU:
                nxt, nxt_cost = pair - s + t, cost
            else:
                spec_node = spec_next((node, a))
                if spec_node is None:
                    return RefinementVerdict(False, (trace_of(pair, a), "failure"), explored)
                if a == TICK:
                    continue  # nothing observable after successful termination
                nxt, nxt_cost = spec_node * n + t, cost + 1
            # Pairs are finalized in order of distance, so a finalized pair
            # would never get a lower cost; its -1 makes this test skip it.
            old = best.get(nxt)
            if old is None:
                if len(best) >= max_pairs:
                    raise ResourceLimitError(f"product cap {max_pairs} exceeded")
            elif old[0] <= nxt_cost:
                continue
            best[nxt] = (nxt_cost, pair, a)
            if a == TAU:
                queue.appendleft(nxt)
            else:
                queue.append(nxt)
    return RefinementVerdict(True, None, explored)


def check_assertion(
    spec_term: Proc,
    impl_term: Proc,
    env: Mapping[str, Proc],
    alphabet: frozenset[str],
    max_states: int = DEFAULT_MAX_STATES,
) -> RefinementVerdict:
    """Compile both sides over the same alphabet and decide refinement.

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
        spec_lts = compile_to_lts(spec_term, env, max_states)
        impl_lts = compile_to_lts(impl_term, env, max_states)
        for side, lts in (("specification", spec_lts), ("implementation", impl_lts)):
            extra = lts.labels - alphabet
            if extra:
                raise AlphabetMismatchError(
                    f"{side} performs events outside the assertion alphabet: {sorted(extra)}"
                )
        spec_fd = normalize_fd(spec_lts, max_states)
        return check_refinement_fd(spec_fd, impl_lts, max_states)
    finally:
        if enabled:
            gc.enable()


# --- discharging many assertions ---------------------------------------------


def term_key(term: Proc, env: Mapping[str, Proc]) -> Optional[tuple]:
    """A key of ``term`` and the definitions it reaches that ignores their names.

    The walk visits ``term``, then each definition it reaches in the order
    it first meets the name, each in pre-order, and writes a reference as
    that order number.  Events, sync and hide sets, rename mappings and the
    stored order of external-choice branches are kept as they are.  Two
    terms with equal keys differ only by a one-to-one renaming of the names
    they reach, so ``compile_to_lts`` builds the same LTS for both, state
    numbering and transition order included: it sees a name only through
    the definition it denotes, except where ``_step`` re-sorts an external
    choice by ``repr`` (which shows names) after a branch takes a tau step.

    Returns None, meaning "no key", for a term that reaches an external
    choice with a reference or internal-choice branch (the branches that
    can take a tau step), an unresolved reference or an unknown term type.
    """
    out: list = []
    order: dict[str, int] = {}
    names: list[str] = []
    stack = [term]
    walked = 0
    while True:
        while stack:
            t = stack.pop()
            cls = type(t)
            out.append(cls)
            if cls is PPrefix:
                out.append(t.event)
                stack.append(t.rest)
            elif cls is PRef:
                k = order.get(t.name)
                if k is None:
                    if t.name not in env:
                        return None
                    k = order[t.name] = len(names)
                    names.append(t.name)
                out.append(k)
            elif cls is PExtN:
                if any(type(b) is PRef or type(b) is PInt for b in t.branches):
                    return None
                out.append(len(t.branches))
                stack += reversed(t.branches)
            elif cls is PInt:
                stack += (t.right, t.left)
            elif cls is PPar:
                out.append(t.sync)
                stack += (t.right, t.left)
            elif cls is PRename:
                out.append(t.mapping)
                stack.append(t.inner)
            elif cls is PHide:
                out.append(t.hidden)
                stack.append(t.inner)
            elif cls is not PStop and cls is not PSkip:
                return None
        if walked == len(names):
            return tuple(out)
        stack.append(env[names[walked]])
        walked += 1


def assertion_verdicts(
    assertions: Iterable,
    env: Mapping[str, Proc],
    max_states: int = DEFAULT_MAX_STATES,
) -> Iterator[tuple[str, RefinementVerdict | EngineError]]:
    """(label, verdict) per assertion, in order; an undecided one has its error.

    Each assertion exposes ``label``, ``spec_term``, ``impl_term`` and
    ``alphabet``.  An assertion whose sides have the same ``term_key`` as an
    earlier one's, over the same alphabet, gets that assertion's verdict
    object: same ``holds``, counterexample and ``explored``.  An
    ``EngineError`` is never reused, since its message may name a
    definition; an assertion with no key is always checked on its own.
    """
    memo: dict[tuple, RefinementVerdict] = {}
    for a in assertions:
        spec_key = term_key(a.spec_term, env)
        impl_key = None if spec_key is None else term_key(a.impl_term, env)
        key = None if impl_key is None else (spec_key, impl_key, a.alphabet)
        verdict = memo.get(key)
        if verdict is None:
            try:
                verdict = check_assertion(a.spec_term, a.impl_term, env, a.alphabet, max_states)
            except EngineError as exc:
                yield a.label, exc
                continue
            if key is not None:
                memo[key] = verdict
        yield a.label, verdict


def discharge_assertions(
    assertions: Sequence,
    env: Mapping[str, Proc],
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
