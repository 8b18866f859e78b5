"""Desk-scale failures-divergences refinement engine.

Process terms (prefix, choices, synchronized parallel, renaming, hiding,
STOP/SKIP, named references) compile to finite labelled transition systems by
explicit-state exploration.  Sequential terms (prefix, both choices,
references, STOP/SKIP) are stepped as terms; parallel, renaming and hiding
are composed as products over integer states of their operands, in the style
of FDR3's supercombinators.  The LTS is the one a breadth-first search with
whole terms as states would build, state numbering included.  An operator
directly under an external choice is not supported (codegen never emits one).
A subset construction over tau-closures turns an LTS into a normalized
failures-divergences machine, and refinement is decided by exploring the
product of the normalized specification with the raw implementation.
When many assertions are discharged together, each distinct one is checked
once: an assertion whose sides equal an earlier one's up to a renaming of
process names (``term_key``) reuses that verdict.

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

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence

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


@dataclass(frozen=True)
class PStop(Proc):
    pass


@dataclass(frozen=True)
class PSkip(Proc):
    pass


@dataclass(frozen=True)
class PPrefix(Proc):
    event: str
    rest: Proc


@dataclass(frozen=True)
class PExtN(Proc):
    """External choice, kept flat and canonically ordered.

    External choice is associative, commutative and idempotent, so nested
    choices collapse into one branch tuple.  This keeps the state space
    finite when an unguarded reference unfolds inside a choice (the unfolding
    reproduces the same canonical term, closing a tau cycle).
    """

    branches: tuple[Proc, ...]


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


@dataclass(frozen=True)
class PInt(Proc):
    left: Proc
    right: Proc


@dataclass(frozen=True)
class PRef(Proc):
    name: str


@dataclass(frozen=True)
class PPar(Proc):
    left: Proc
    sync: frozenset[str]
    right: Proc


@dataclass(frozen=True)
class PRename(Proc):
    inner: Proc
    mapping: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class PHide(Proc):
    inner: Proc
    hidden: frozenset[str]


def rename(p: Proc, mapping: Mapping[str, str]) -> PRename:
    return PRename(p, tuple(sorted(mapping.items())))


def dfa_definitions() -> dict[str, Proc]:
    """The canonical deadlock-freedom specification over one abstract event."""
    return {"DFA": PInt(PPrefix("abstractEvent", PRef("DFA")), PSkip())}


# --- compilation to a labelled transition system ----------------------------


@dataclass
class Lts:
    n_states: int
    transitions: list[tuple[int, str, int]]
    initial: int = 0
    adj: list[list[tuple[str, int]]] = field(default_factory=list, repr=False)
    labels: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.adj:
            self.adj = [[] for _ in range(self.n_states)]
            for s, a, t in self.transitions:
                self.adj[s].append((a, t))
        if not self.labels:
            self.labels = frozenset(a for _, a, _ in self.transitions if a not in (TAU, TICK))


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


# Operator nodes.  Parallel, renaming and hiding never change while a process
# runs; only their operands move, so compilation works on integer states.  A
# ``_Process`` numbers the states of whatever term fills one position: it
# steps sequential terms with ``_step`` and hands operator terms to the node
# for that operator and parameter, numbering the node's states as its own.
# Every operand is a ``_Process`` again, so a term's state depends only on the
# term, however it was reached.  Parents ask each state's transitions once,
# except that a parallel node revisits operand states, so it alone caches.


class _Numbering(dict):
    """Numbers each key on its first lookup, appending it to ``states``.

    With a ``tag``, ``states`` gets ``(tag, key)``: several numberings share
    one list.  (An int tag, not the numbering: a reference cycle would keep
    every node alive until the cyclic collector runs.)
    """

    def __init__(self, states: list, tag: Optional[int] = None) -> None:
        super().__init__()
        self.states, self.tag = states, tag

    def __missing__(self, key) -> int:
        s = self[key] = len(self.states)
        self.states.append(key if self.tag is None else (self.tag, key))
        return s


class _Process:
    """The states of one term position: terms, or states of operator nodes."""

    def __init__(self, env: Mapping[str, Proc]) -> None:
        self.env = env
        self.states: list = []  # a term, or (index into operators, node state)
        self.terms = _Numbering(self.states)
        self.operators: list = []  # (node, _Numbering of its states)
        self.index: dict = {}  # (operator, parameter) -> index into operators

    def enter(self, term: Proc) -> int:
        """The state of ``term`` (every node has ``enter`` and ``succ``)."""
        if isinstance(term, PPar):
            key = (PPar, term.sync)
        elif isinstance(term, PRename):
            key = (PRename, term.mapping)
        elif isinstance(term, PHide):
            key = (PHide, term.hidden)
        else:
            return self.terms[term]
        k = self.index.get(key)
        if k is None:
            k = self.index[key] = len(self.operators)
            if key[0] is PPar:
                node = _Par(self.env, term.sync)
            elif key[0] is PRename:
                node = _Relabel(self.env, {a: b for a, b in term.mapping if a not in (TAU, TICK)})
            else:
                node = _Relabel(self.env, dict.fromkeys(term.hidden, TAU))
            self.operators.append((node, _Numbering(self.states, k)))
        node, ids = self.operators[k]
        return ids[node.enter(term)]

    def succ(self, s: int) -> list[tuple[str, int]]:
        """Transitions of state ``s``."""
        state = self.states[s]
        if type(state) is tuple:
            node, ids = self.operators[state[0]]
            return [(a, ids[t]) for a, t in node.succ(state[1])]
        enter = self.enter
        return [(a, enter(nxt)) for a, nxt in _step(state, self.env)]


class _Par:
    """Synchronised parallel with distributed termination over state pairs."""

    def __init__(self, env: Mapping[str, Proc], sync: frozenset[str]) -> None:
        self.left, self.sync, self.right = _Process(env), sync, _Process(env)
        self.lsteps: dict[int, list[tuple[str, int]]] = {}
        self.rsteps: dict[int, list[tuple[str, int]]] = {}
        self.pairs: list[tuple[int, int]] = []
        self.index = _Numbering(self.pairs)

    def enter(self, term: PPar) -> int:
        return self.index[self.left.enter(term.left), self.right.enter(term.right)]

    def succ(self, s: int) -> list[tuple[str, int]]:
        l, r = self.pairs[s]
        lsteps = self.lsteps.get(l)
        if lsteps is None:
            lsteps = self.lsteps[l] = self.left.succ(l)
        rsteps = self.rsteps.get(r)
        if rsteps is None:
            rsteps = self.rsteps[r] = self.right.succ(r)
        sync, index = self.sync, self.index
        out = [(a, index[l2, r]) for a, l2 in lsteps if a != TICK and a not in sync]
        out += [(a, index[l, r2]) for a, r2 in rsteps if a != TICK and a not in sync]
        for a, l2 in lsteps:
            if a in sync:
                out += [(a, index[l2, r2]) for b, r2 in rsteps if b == a]
        # distributed termination: both operands must succeed together
        for a, l2 in lsteps:
            if a == TICK:
                out += [(TICK, index[l2, r2]) for b, r2 in rsteps if b == TICK]
        return out


class _Relabel:
    """Renaming or hiding: the operand's states, with events relabelled."""

    def __init__(self, env: Mapping[str, Proc], relabel: dict[str, str]) -> None:
        self.inner, self.relabel = _Process(env), relabel

    def enter(self, term: PRename | PHide) -> int:
        return self.inner.enter(term.inner)

    def succ(self, s: int) -> list[tuple[str, int]]:
        get = self.relabel.get
        return [(get(a, a), t) for a, t in self.inner.succ(s)]


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
    transitions: list[tuple[int, str, int]] = []
    adj: list[list[tuple[str, int]]] = []
    s = 0
    while s < len(root.states):
        # Only this loop asks for the root's transitions, once per state in
        # order, so the root numbers its states breadth-first.
        out = root.succ(s)
        adj.append(out)
        transitions += [(s, a, t) for a, t in out]
        # the initial state is always admitted, as in a term-level search
        if len(root.states) > max(max_states, 1):
            raise ResourceLimitError(f"state cap {max_states} exceeded")
        s += 1
    return Lts(n_states=s, transitions=transitions, adj=adj)


# --- tau analysis -----------------------------------------------------------


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

    A state is safe once all its tau successors are: peel safe states off
    from the tau-stable ones backwards; whatever is never peeled can always
    take another tau step, so it diverges.
    """
    pending = [0] * lts.n_states  # tau successors not yet known to be safe
    tau_preds: list[list[int]] = [[] for _ in range(lts.n_states)]
    for s, out in enumerate(lts.adj):
        for a, t in out:
            if a == TAU:
                pending[s] += 1
                tau_preds[t].append(s)
    safe = [s for s in range(lts.n_states) if not pending[s]]
    while safe:
        for s in tau_preds[safe.pop()]:
            pending[s] -= 1
            if not pending[s]:
                safe.append(s)
    return [n > 0 for n in pending]


def stable_ready(lts: Lts, state: int) -> Optional[frozenset[str]]:
    """Ready set of a stable state, or None if the state has a tau move."""
    ready = set()
    for a, _ in lts.adj[state]:
        if a == TAU:
            return None
        ready.add(a)
    return frozenset(ready)


# --- failures-divergences normalization -------------------------------------


@dataclass
class FdModel:
    """Normalized machine: tau-closed subsets with acceptance/divergence info."""

    initial: int
    divergent: list[bool]
    acceptances: list[tuple[frozenset[str], ...]]
    transitions: dict[tuple[int, str], int]

    @property
    def node_count(self) -> int:
        return len(self.divergent)

    def node_after(self, trace: Sequence[str]) -> Optional[int]:
        """Node reached by a visible trace; None if the trace is impossible.

        Walking stops at the first divergent node (which absorbs everything)
        and returns it.
        """
        node = self.initial
        for a in trace:
            if self.divergent[node]:
                return node
            nxt = self.transitions.get((node, a))
            if nxt is None:
                return None
            node = nxt
        return node

    def is_divergence(self, trace: Sequence[str]) -> bool:
        node = self.initial
        for a in trace:
            if self.divergent[node]:
                return True
            nxt = self.transitions.get((node, a))
            if nxt is None:
                return False
            node = nxt
        return self.divergent[node]

    def refuses(self, trace: Sequence[str], refusal: Iterable[str]) -> bool:
        """Is (trace, refusal) a failure of the normalized process?"""
        if trace and trace[-1] == TICK:
            prior = self.node_after(trace[:-1])
            if prior is None:
                return False
            return self.divergent[prior] or (prior, TICK) in self.transitions
        node = self.node_after(trace)
        if node is None:
            return False
        if self.divergent[node]:
            return True
        ref = frozenset(refusal)
        for acc in self.acceptances[node]:
            if TICK in acc:
                if TICK not in ref:
                    return True
            elif not (ref & acc):
                return True
        return False


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


@dataclass
class RefinementVerdict:
    holds: bool
    counterexample: Optional[tuple[tuple[str, ...], str]] = None  # (trace, kind)
    explored: int = 0

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
    start = (spec.initial, impl.initial)
    # 0-1 BFS: tau edges cost nothing, visible edges cost one, so the first
    # violating pair finalized sits at minimal visible-trace distance.
    dist: dict[tuple[int, int], int] = {start: 0}
    parents: dict[tuple[int, int], tuple[Optional[tuple[int, int]], Optional[str]]] = {
        start: (None, None)
    }
    done: set[tuple[int, int]] = set()
    explored = 0

    def trace_of(pair: tuple[int, int], extra: Optional[str] = None) -> tuple[str, ...]:
        labels: list[str] = []
        cur: Optional[tuple[int, int]] = pair
        while cur is not None:
            prev, label = parents[cur]
            if label is not None and label != TAU:
                labels.append(label)
            cur = prev
        labels.reverse()
        if extra is not None:
            labels.append(extra)
        return tuple(labels)

    queue: deque[tuple[int, int]] = deque([start])
    while queue:
        pair = queue.popleft()
        if pair in done:
            continue
        done.add(pair)
        node, s = pair
        explored += 1
        if spec.divergent[node]:
            continue  # spec allows everything from here on
        if impl_div[s]:
            return RefinementVerdict(False, (trace_of(pair), "divergence"), explored)
        ready = stable_ready(impl, s)
        if ready is not None and not _spec_accepts_refusal(spec.acceptances[node], ready):
            return RefinementVerdict(False, (trace_of(pair), "failure"), explored)
        for a, t in impl.adj[s]:
            if a == TAU:
                nxt = (node, t)
                cost = dist[pair]
            else:
                spec_next = spec.transitions.get((node, a))
                if spec_next is None:
                    return RefinementVerdict(False, (trace_of(pair, a), "failure"), explored)
                if a == TICK:
                    continue  # nothing observable after successful termination
                nxt = (spec_next, t)
                cost = dist[pair] + 1
            if nxt in done or (nxt in dist and dist[nxt] <= cost):
                continue
            if nxt not in dist and len(dist) >= max_pairs:
                raise ResourceLimitError(f"product cap {max_pairs} exceeded")
            dist[nxt] = cost
            parents[nxt] = (pair, a)
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
    """Compile both sides over the same alphabet and decide refinement."""
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
