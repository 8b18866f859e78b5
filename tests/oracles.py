"""Independent reference implementations used to check the real ones.

Everything here is deliberately naive: direct definitions, explicit
enumeration, no sharing with the code under test beyond its LTS, token kind and
AST data types.
"""

from __future__ import annotations

import itertools
import random
import re
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional

from wright2csp import transform
from wright2csp.alphabets import reach
from wright2csp.codegen import process_term
from wright2csp.engine import (
    DEFAULT_MAX_STATES,
    TAU,
    TICK,
    FdModel,
    Lts,
    PExt,
    PHide,
    PPar,
    PRename,
    RefinementVerdict,
    ResourceLimitError,
    UnresolvedProcessError,
    compile_to_lts,
    divergent_states,
    rename,
    tau_closure,
)
from wright2csp.model import (
    Alphabet,
    Choice,
    Declaration,
    DeclKind,
    Diagnostic,
    EMPTY,
    Empty,
    ExternalChoice,
    InternalChoice,
    Prefix,
    ProcessExpr,
    Ref,
    SUCCESS,
    SourcePos,
    Success,
)
from wright2csp.parser import (
    ARROW,
    COLON,
    COMMA,
    DOT,
    DOTTED,
    ECHOICE,
    EOF,
    EQUALS,
    ICHOICE,
    IDENT,
    INITEVENT,
    KEYWORD,
    KEYWORDS,
    LBRACE,
    LPAREN,
    RBRACE,
    RPAREN,
    ParseError,
)

SELF = "X"


def project_trace(trace, keep):
    """Trace projection: every element of the trace that is in keep, in order."""
    return tuple(e for e in trace if e in keep)


# --- random process terms ----------------------------------------------------


def random_expr(rng: random.Random, alphabet=("a", "b", "c"), max_ops: int = 6) -> ProcessExpr:
    """A closed random body whose references all point at the name SELF."""

    def leaf() -> ProcessExpr:
        return SUCCESS if rng.random() < 0.5 else Ref(SELF)

    def build(budget: int) -> tuple[ProcessExpr, int]:
        if budget <= 0 or rng.random() < 0.25:
            return leaf(), budget
        kind = rng.randrange(3)
        if kind == 0:
            event, initiated = rng.choice(alphabet), rng.random() < 0.4
            rest, budget = build(budget - 1)
            return Prefix(event, rest, initiated), budget
        # a run of n branches stands for the n - 1 binary choices that would join them
        n = rng.randint(2, 5)
        branches, budget = [], budget - (n - 1)
        for _ in range(n):
            branch, budget = build(budget)
            branches.append(branch)
        cls = ExternalChoice if kind == 1 else InternalChoice
        return cls(tuple(branches)), budget

    expr, _ = build(max_ops)
    return expr


def random_operator_term(rng: random.Random, depth: int, alphabet=("a", "b", "c")):
    """(term, env): parallel, renaming and hiding nested up to ``depth`` deep.

    Each sequential operand is a random body bound recursively to its own
    name.  Some operators sit inside sequential terms instead (under a
    prefix, an internal choice or a reference), and some recurse through an
    operator, so the state space may be infinite.
    """
    env: dict[str, ProcessExpr] = {}
    names = itertools.count()

    def fresh(prefix: str) -> str:
        return f"{prefix}{next(names)}"

    def events(p: float) -> frozenset[str]:
        # tick included: the operators must treat it exactly as the reference does
        return frozenset(e for e in alphabet + (TICK,) if rng.random() < p)

    def leaf() -> ProcessExpr:
        name = fresh("X")
        env[name] = process_term(random_expr(rng, alphabet, max_ops=4), {SELF: name})
        return env[name] if rng.random() < 0.5 else Ref(name)

    def build(d: int) -> ProcessExpr:
        if d == 0 or rng.random() < 0.2:
            return leaf()
        kind = rng.randrange(6)
        if kind == 0:
            return PPar(build(d - 1), events(0.5), build(d - 1))
        if kind == 1:
            mapping = {e: rng.choice(alphabet + ("d",)) for e in sorted(events(0.5))}  # draws in a fixed order
            return rename(build(d - 1), mapping)
        if kind == 2:
            return PHide(build(d - 1), events(0.4))
        if kind == 3:
            return Prefix(rng.choice(alphabet), build(d - 1))
        if kind == 4:
            name = fresh("Y")
            env[name] = build(d - 1)
            return InternalChoice((Ref(name), build(d - 1)))
        name = fresh("R")
        env[name] = PPar(Prefix(rng.choice(alphabet), Ref(name)), events(0.6), build(d - 1))
        return Ref(name)

    return build(depth), env


def expr_lts(expr: ProcessExpr, max_states: int = 50_000) -> Lts:
    """Compile a test expression, binding SELF recursively to the body."""
    term = process_term(expr, {})
    return compile_to_lts(term, {SELF: term}, max_states)


def keep_set(names) -> Alphabet:
    """An alphabet of the given (observed) event names, for ``project_to``."""
    return dict.fromkeys(names, False)


def project_to(p: ProcessExpr, keep: Alphabet, self_name: str) -> ProcessExpr:
    """The code under test, not an oracle: branch elimination of one body
    onto ``keep``, where an unguarded reference to ``self_name`` erases.
    A body that erases completely stays ``Empty`` (``project_declaration``
    would make it SKIP)."""
    return transform._project(p, keep, {self_name}, set())


def expr_event_names(expr: ProcessExpr) -> set[str]:
    return {p.event for p in walk_events(expr)}


def hide_semantically(lts: Lts, hidden: set[str]) -> Lts:
    """Machine-level projection: hidden labels become internal moves."""
    transitions = [
        (s, TAU if a in hidden else a, t) for s, a, t in lts.transitions
    ]
    return Lts(n_states=lts.n_states, transitions=transitions, initial=lts.initial)


# --- projection of a declaration with where-locals -----------------------------


def random_declaration(rng: random.Random, events=("a", "b", "c", "d")) -> tuple[Declaration, Alphabet]:
    """(declaration, keep): a port ``P`` with 0-6 where-locals ``L0``...,
    whose bodies prefix kept and hidden events, use both choices, and end in
    SKIP, a reference to any of those names or, rarely, Empty (which no
    parsed body holds)."""
    names = ["P"] + [f"L{i}" for i in range(rng.randrange(7))]
    keep = keep_set(e for e in events if rng.random() < 0.5)

    def build(budget: int) -> ProcessExpr:
        if budget <= 0 or rng.random() < 0.3:
            draw = rng.random()
            return SUCCESS if draw < 0.15 else EMPTY if draw < 0.2 else Ref(rng.choice(names))
        kind = rng.randrange(3)
        if kind == 0:
            return Prefix(rng.choice(events), build(budget - 1), rng.random() < 0.5)
        cls = ExternalChoice if kind == 1 else InternalChoice
        return cls((build(budget - 1), build(budget - 2)))

    locals_ = [
        Declaration(DeclKind.WHERE_LOCAL, name, build(4), [], SourcePos(3 + i, 5))
        for i, name in enumerate(names[1:])
    ]
    return Declaration(DeclKind.PORT, "P", build(4), locals_, SourcePos(2, 3)), keep


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
            stack += reversed(node.branches)
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
    return {n: {m for m in found if n in reach(refs, m)} | {n} for n, found in refs.items()}


def reference_project_declaration(decl: Declaration, keep: Alphabet) -> tuple[Declaration, list[Diagnostic]]:
    """``transform.project_declaration`` by rounds that re-project every
    body: each round projects all bodies with the locals found dead so far,
    and the locals whose bodies came out Empty join the dead set, until a
    round adds none.  It shares ``transform._project`` (rules 1-3 on one
    body) and ``alphabets.reach`` with the code under test, not the decision
    which locals erase."""
    diags: list[Diagnostic] = []
    cycles = _cycles(decl, keep)
    dead: set[str] = set()
    while True:
        body = transform._project(decl.body, keep, cycles[decl.name], dead)
        locals_ = [(loc, transform._project(loc.body, keep, cycles[loc.name], dead)) for loc in decl.locals]
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
    return Declaration(decl.kind, decl.name, body, kept, decl.pos), diags


def reference_determinized(p: ProcessExpr) -> ProcessExpr:
    """``transform.determinized`` as a fold that determinizes the merged
    continuation again at every merge: while the run so far is one prefix and
    the next branch prefixes the same event, the two become that prefix over
    the determinized choice of their continuations.  Quadratic in a run of
    branches on one event."""
    if isinstance(p, Choice):
        head = reference_determinized(p.branches[0])
        for i in range(1, len(p.branches)):
            branch = reference_determinized(p.branches[i])
            if not (isinstance(head, Prefix) and isinstance(branch, Prefix) and head.event == branch.event):
                run = head.branches if type(head) is ExternalChoice else (head,)  # it prints as the left group
                return ExternalChoice((*run, branch, *map(reference_determinized, p.branches[i + 1:])))
            head = Prefix(head.event, reference_determinized(ExternalChoice((head.rest, branch.rest))), head.initiated)
        return head
    if isinstance(p, Prefix):
        return Prefix(p.event, reference_determinized(p.rest), p.initiated)
    return p


# --- term-level state-space exploration -----------------------------------------
#
# The engine's original explorer: every state is a whole process term, and
# parallel, renaming and hiding are stepped by structural rules on the term.
# compile_to_lts must return exactly the same LTS (state numbering and
# transition order included).


def _reference_step(term: ProcessExpr, env, memo: dict) -> tuple[tuple[str, ProcessExpr], ...]:
    """Initial transitions of a term under the standard operational rules."""
    cached = memo.get(term)
    if cached is not None:
        return cached
    out: list[tuple[str, ProcessExpr]]
    if isinstance(term, Empty):
        out = []
    elif isinstance(term, Success):
        out = [(TICK, EMPTY)]
    elif isinstance(term, Prefix):
        out = [(term.event, term.rest)]
    elif isinstance(term, Ref):
        if term.name not in env:
            raise UnresolvedProcessError(term.name)
        out = [(TAU, env[term.name])]
    elif isinstance(term, InternalChoice):  # one tau to each branch of the run
        out = [(TAU, b) for b in term.branches]
    elif isinstance(term, ExternalChoice):
        out = []
        for branch in term.branches:
            rest = [b for b in term.branches if b is not branch]
            for a, nxt in _reference_step(branch, env, memo):
                if a == TAU:
                    out.append((TAU, PExt(*rest, nxt)))
                else:
                    out.append((a, nxt))
    elif isinstance(term, PPar):
        out = []
        lsteps = _reference_step(term.left, env, memo)
        rsteps = _reference_step(term.right, env, memo)
        for a, nxt in lsteps:
            if a == TICK or a in term.sync:
                continue
            out.append((a, PPar(nxt, term.sync, term.right)))
        for a, nxt in rsteps:
            if a == TICK or a in term.sync:
                continue
            out.append((a, PPar(term.left, term.sync, nxt)))
        for a, lnxt in lsteps:
            if a not in term.sync:
                continue
            for b, rnxt in rsteps:
                if b == a:
                    out.append((a, PPar(lnxt, term.sync, rnxt)))
        # distributed termination: both operands must succeed together
        for a, lnxt in lsteps:
            if a != TICK:
                continue
            for b, rnxt in rsteps:
                if b == TICK:
                    out.append((TICK, PPar(lnxt, term.sync, rnxt)))
    elif isinstance(term, PRename):
        mapping = dict(term.mapping)
        out = []
        for a, nxt in _reference_step(term.inner, env, memo):
            label = a if a in (TAU, TICK) else mapping.get(a, a)
            out.append((label, PRename(nxt, term.mapping)))
    elif isinstance(term, PHide):
        out = []
        for a, nxt in _reference_step(term.inner, env, memo):
            label = TAU if a in term.hidden else a
            out.append((label, PHide(nxt, term.hidden)))
    else:
        raise TypeError(f"unknown process term {term!r}")
    result = tuple(out)
    memo[term] = result
    return result


def reference_compile(term: ProcessExpr, env=None, max_states: int = 200_000) -> Lts:
    """Breadth-first exploration with whole terms as states."""
    env = env or {}
    memo: dict = {}
    index: dict[ProcessExpr, int] = {term: 0}
    transitions: list[tuple[int, str, int]] = []
    queue: deque[ProcessExpr] = deque([term])
    while queue:
        cur = queue.popleft()
        s = index[cur]
        for label, nxt in _reference_step(cur, env, memo):
            t = index.get(nxt)
            if t is None:
                if len(index) >= max_states:
                    raise ResourceLimitError(f"state cap {max_states} exceeded")
                t = len(index)
                index[nxt] = t
                queue.append(nxt)
            transitions.append((s, label, t))
    return Lts(n_states=len(index), transitions=transitions)


# --- brute-force failures/divergences -----------------------------------------


@dataclass
class Behaviours:
    """Bounded-depth behaviours: traces, divergences and maximal refusals."""

    alphabet: frozenset[str]
    traces: set[tuple[str, ...]]
    divergences: set[tuple[str, ...]]          # extension-closed within depth
    refusals: dict[tuple[str, ...], set[frozenset[str]]]  # maximal per trace


def _max_refusal(alphabet: frozenset[str], ready: frozenset[str]) -> frozenset[str]:
    if TICK in ready:
        return frozenset(alphabet)  # may refuse every regular event, never tick
    return frozenset(alphabet | {TICK}) - ready


def brute_divergent(lts: Lts) -> list[bool]:
    """Per state: can it reach, by tau steps, a state that lies on a tau cycle?"""

    def tau_successors(s: int) -> set[int]:
        """States reached from s by one or more tau steps."""
        seen: set[int] = set()
        stack = [s]
        while stack:
            u = stack.pop()
            for a, t in zip(lts.events[u], lts.targets[u]):
                if a == TAU and t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen

    after = [tau_successors(s) for s in range(lts.n_states)]
    on_cycle = [s in after[s] for s in range(lts.n_states)]
    return [on_cycle[s] or any(on_cycle[u] for u in after[s]) for s in range(lts.n_states)]


def enumerate_behaviours(lts: Lts, depth: int, alphabet: frozenset[str]) -> Behaviours:
    div = brute_divergent(lts)
    full = frozenset(alphabet | {TICK})
    traces: set[tuple[str, ...]] = set()
    divergences: set[tuple[str, ...]] = set()
    refusals: dict[tuple[str, ...], set[frozenset[str]]] = {}

    def chaos_from(trace: tuple[str, ...], remaining: int) -> None:
        # a divergence allows every behaviour afterwards
        divergences.add(trace)
        traces.add(trace)
        refusals.setdefault(trace, set()).add(full)
        if remaining > 0:
            for a in sorted(alphabet | {TICK}):
                chaos_from(trace + (a,), remaining - 1)

    def visit(subset: frozenset[int], trace: tuple[str, ...], remaining: int) -> None:
        traces.add(trace)
        if any(div[s] for s in subset):
            chaos_from(trace, remaining)
            return
        bucket = refusals.setdefault(trace, set())
        for s in subset:
            ready = set()
            stable = True
            for a in lts.events[s]:
                if a == TAU:
                    stable = False
                    break
                ready.add(a)
            if stable:
                bucket.add(_max_refusal(alphabet, frozenset(ready)))
        if remaining == 0:
            return
        moves: dict[str, set[int]] = {}
        for s in subset:
            for a, t in zip(lts.events[s], lts.targets[s]):
                if a != TAU:
                    moves.setdefault(a, set()).add(t)
        for a, targets in moves.items():
            if a == TICK:
                traces.add(trace + (TICK,))
                refusals.setdefault(trace + (TICK,), set()).add(full)
                continue
            visit(tau_closure(lts, targets), trace + (a,), remaining - 1)

    visit(tau_closure(lts, [lts.initial]), (), depth)
    return Behaviours(frozenset(alphabet), traces, divergences, refusals)


def brute_refines(spec: Lts, impl: Lts, depth: int, alphabet: frozenset[str]) -> bool:
    """Direct failures-divergences containment check, bounded at depth."""
    s = enumerate_behaviours(spec, depth, alphabet)
    i = enumerate_behaviours(impl, depth, alphabet)
    for t in i.divergences:
        if t not in s.divergences:
            return False
    for t in i.traces:
        if t not in s.traces:
            return False
    for t, refs in i.refusals.items():
        want = s.refusals.get(t, set())
        for x in refs:
            if not any(x <= y for y in want):
                return False
    return True


# --- questions about a normalized machine ---------------------------------------


def node_after(fd: FdModel, trace) -> int | None:
    """Node reached by a visible trace; None if the trace is impossible.

    Walking stops at the first divergent node (which absorbs everything)
    and returns it.
    """
    node = fd.initial
    for a in trace:
        if fd.divergent[node]:
            return node
        nxt = fd.transitions.get((node, a))
        if nxt is None:
            return None
        node = nxt
    return node


def is_divergence(fd: FdModel, trace) -> bool:
    node = fd.initial
    for a in trace:
        if fd.divergent[node]:
            return True
        nxt = fd.transitions.get((node, a))
        if nxt is None:
            return False
        node = nxt
    return fd.divergent[node]


def refuses(fd: FdModel, trace, refusal) -> bool:
    """Is (trace, refusal) a failure of the normalized process?"""
    if trace and trace[-1] == TICK:
        prior = node_after(fd, trace[:-1])
        if prior is None:
            return False
        return fd.divergent[prior] or (prior, TICK) in fd.transitions
    node = node_after(fd, trace)
    if node is None:
        return False
    if fd.divergent[node]:
        return True
    ref = frozenset(refusal)
    for acc in fd.acceptances[node]:
        if TICK in acc:
            if TICK not in ref:
                return True
        elif not (ref & acc):
            return True
    return False


# --- reference refinement ------------------------------------------------------


def _reference_accepts_refusal(accs: tuple[frozenset[str], ...], ready: frozenset[str]) -> bool:
    """Can the spec node refuse as much as a stable impl state with this ready set?"""
    if TICK in ready:
        return any(TICK in a or not a for a in accs)
    return any(TICK not in a and a <= ready for a in accs)


def reference_refinement_fd(
    spec: FdModel,
    impl: Lts,
    max_pairs: int = DEFAULT_MAX_STATES,
) -> RefinementVerdict:
    """Failures-divergences refinement: does ``impl`` refine ``spec``?

    The engine's search before its pair records were split into per-field
    dicts: one 3-tuple per pair and a ``(node, event)`` key per
    specification move.  The engine must return the same verdict,
    counterexample, ``explored`` and ``unmatched``, and the same cap error.
    """
    impl_div = divergent_states(impl)
    n, events, targets = impl.n_states, impl.events, impl.targets
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
        ev = events[s]
        if TAU not in ev:  # a stable state: its events are its ready set
            ready = frozenset(ev)
            ok = accepts.get((node, ready))
            if ok is None:
                ok = accepts[node, ready] = _reference_accepts_refusal(spec_accs[node], ready)
            if not ok:
                unmatched = tuple(sorted(a for a in ready if spec_next((node, a)) is None))
                return RefinementVerdict(False, (trace_of(pair), "failure"), explored, unmatched)
        tg, i = targets[s], -1  # an index walk: a zip costs more than the few moves of a state
        for a in ev:
            i += 1
            t = tg[i]
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


# --- random transition systems -------------------------------------------------


def random_lts(rng: random.Random, max_states: int = 5, alphabet=("a", "b")) -> Lts:
    n = rng.randint(1, max_states)
    labels = list(alphabet) + [TAU, TICK]
    transitions = []
    for s in range(n):
        for _ in range(rng.randint(0, 3)):
            transitions.append((s, rng.choice(labels), rng.randrange(n)))
    return Lts(n_states=n, transitions=transitions)


# --- reference lexer ----------------------------------------------------------


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_ident_char(c: str) -> bool:
    return c.isalnum() or c == "_"


class Token(NamedTuple):
    kind: str
    value: object
    pos: SourcePos
    text: str = ""  # original spelling (keywords are matched case-folded)


class _Lexer:
    def __init__(self, source: str) -> None:
        self.src = source
        self.i = 0
        self.line = 1
        self.col = 1

    def pos(self) -> SourcePos:
        return SourcePos(self.line, self.col)

    def _advance(self, n: int = 1) -> None:
        for _ in range(n):
            if self.i < len(self.src):
                if self.src[self.i] == "\n":
                    self.line += 1
                    self.col = 1
                else:
                    self.col += 1
                self.i += 1

    def _peek(self, k: int = 0) -> str:
        j = self.i + k
        return self.src[j] if j < len(self.src) else ""

    def _read_ident(self) -> str:
        start = self.i
        while self.i < len(self.src) and _is_ident_char(self.src[self.i]):
            self._advance()
        return self.src[start : self.i]

    def _skip_constraints_body(self) -> None:
        # The clause body is not Wright; scan raw text for the closing `end`.
        while self.i < len(self.src):
            c = self._peek()
            if _is_ident_start(c):
                start_pos = self.pos()
                word = self._read_ident()
                if word.lower() == "end":
                    # rewind: re-lex `end` as a normal token
                    self.i -= len(word)
                    self.line = start_pos.line
                    self.col = start_pos.column
                    return
            else:
                self._advance()

    def tokens(self) -> list[Token]:
        out: list[Token] = []
        while True:
            while self.i < len(self.src):
                c = self._peek()
                if c in " \t\r\n":
                    self._advance()
                elif c == "/" and self._peek(1) == "/":
                    while self.i < len(self.src) and self._peek() != "\n":
                        self._advance()
                else:
                    break
            if self.i >= len(self.src):
                out.append(Token(EOF, None, self.pos()))
                return out
            pos = self.pos()
            c = self._peek()
            if c == "_" and _is_ident_char(self._peek(1)):
                # initiated event: _name or _name.name
                self._advance()
                first = self._read_ident()
                scope = None
                if self._peek() == "." and _is_ident_start(self._peek(1)):
                    self._advance()
                    second = self._read_ident()
                    scope, name = first, second
                else:
                    name = first
                out.append(Token(INITEVENT, (name, scope), pos))
            elif _is_ident_start(c):
                word = self._read_ident()
                if word.lower() in KEYWORDS:
                    out.append(Token(KEYWORD, word.lower(), pos, word))
                    if word.lower() == "constraints":
                        self._skip_constraints_body()
                elif self._peek() == "." and _is_ident_start(self._peek(1)):
                    self._advance()
                    second = self._read_ident()
                    out.append(Token(DOTTED, (word, second), pos))
                else:
                    out.append(Token(IDENT, word, pos))
            elif c == "-" and self._peek(1) == ">":
                self._advance(2)
                out.append(Token(ARROW, "->", pos))
            elif c == "[" and self._peek(1) == "]":
                self._advance(2)
                out.append(Token(ECHOICE, "[]", pos))
            elif c == "|" and self._peek(1) == "~" and self._peek(2) == "|":
                self._advance(3)
                out.append(Token(ICHOICE, "|~|", pos))
            elif c == "=":
                self._advance()
                out.append(Token(EQUALS, "=", pos))
            elif c == ".":
                self._advance()
                out.append(Token(DOT, ".", pos))
            elif c == ",":
                self._advance()
                out.append(Token(COMMA, ",", pos))
            elif c == ":":
                self._advance()
                out.append(Token(COLON, ":", pos))
            elif c == "(":
                self._advance()
                out.append(Token(LPAREN, "(", pos))
            elif c == ")":
                self._advance()
                out.append(Token(RPAREN, ")", pos))
            elif c == "{":
                self._advance()
                out.append(Token(LBRACE, "{", pos))
            elif c == "}":
                self._advance()
                out.append(Token(RBRACE, "}", pos))
            else:
                raise ParseError(pos, f"illegal character {c!r}")


def reference_tokenize(source: str) -> list[Token]:
    """The character-stepping lexer that the regex tokenizer replaced."""
    return _Lexer(source).tokens()


def _spelling(t: Token) -> str:
    if t.kind is KEYWORD:
        return t.text
    if t.kind is DOTTED:
        return ".".join(t.value)
    if t.kind is INITEVENT:
        name, scope = t.value
        return "_" + (f"{scope}." if scope else "") + name
    return t.value


def token_spans(source: str) -> list[tuple[int, int]]:
    """(start, end) offsets of every token but EOF, as ``reference_tokenize`` reads them."""
    line_starts = [0] + [m.end() for m in re.finditer("\n", source)]
    spans = []
    for t in reference_tokenize(source)[:-1]:
        start = line_starts[t.pos.line - 1] + t.pos.column - 1
        end = start + len(_spelling(t))
        assert source[start:end] == _spelling(t), (t, source[start:end])
        spans.append((start, end))
    return spans


def token_mutants(n: int, seed: int):
    """``n`` seeded token-level mutations of the fixtures: a token deleted,
    doubled, swapped with another, preceded by a token of any fixture, or
    replaced by one (a name, most often, by a name)."""
    rng = random.Random(seed)
    sources = [path.read_text() for path in sorted((Path(__file__).parent / "fixtures").glob("*.wrt"))]
    spans = [token_spans(source) for source in sources]
    words = [source[a:b] for source, sp in zip(sources, spans) for a, b in sp]
    names = sorted({w for w in words if w.isidentifier() and w.lower() not in KEYWORDS})
    for _ in range(n):
        i = rng.randrange(len(sources))
        source, sp = sources[i], spans[i]
        a, b = sp[rng.randrange(len(sp))]
        op = rng.choice(("delete", "double", "swap", "replace", "insert", "rename", "rename"))
        if op == "delete":
            yield source[:a] + source[b:]
        elif op == "double":
            yield source[:b] + " " + source[a:]
        elif op == "swap":
            c, d = sp[rng.randrange(len(sp))]
            if c < a:
                a, b, c, d = c, d, a, b
            if b <= c:
                yield source[:a] + source[c:d] + source[b:c] + source[a:b] + source[d:]
        elif op == "rename" and source[a:b] in names:
            yield source[:a] + rng.choice(names) + source[b:]
        elif op in ("replace", "rename"):
            yield source[:a] + rng.choice(words) + source[b:]
        else:
            yield source[:a] + rng.choice(words) + " " + source[a:]


# --- alphabets: reference walks, relations and set operations ------------------
#
# ``alphabets`` walks each body once, iteratively, and merges each name's
# reachable events in one loop.  These are the direct definitions: recursive
# walks, a transitive closure and a composition, which fix the event order and
# the polarity each name's alphabet must have.


def walk_events(expr: ProcessExpr):
    """Every prefix of the expression, left to right."""
    if isinstance(expr, Prefix):
        yield expr
        yield from walk_events(expr.rest)
    elif isinstance(expr, Choice):
        for branch in expr.branches:
            yield from walk_events(branch)


def walk_refs(expr: ProcessExpr):
    """Every named-process reference in the expression, left to right."""
    if isinstance(expr, Prefix):
        yield from walk_refs(expr.rest)
    elif isinstance(expr, Choice):
        for branch in expr.branches:
            yield from walk_refs(branch)
    elif isinstance(expr, Ref):
        yield expr.name


def set_union(a: Alphabet, b: Alphabet) -> Alphabet:
    """Members of a then b's new members, in order; a member of both keeps a's polarity."""
    out = dict(a)
    for e, initiated in b.items():
        if e not in out:
            out[e] = initiated
    return out


def set_minus(a: Alphabet, b) -> Alphabet:
    """Members of a not in b, a's order and polarities preserved."""
    return {e: initiated for e, initiated in a.items() if e not in b}


def relation_closure(rel: dict[str, dict[str, None]]) -> dict[str, dict[str, None]]:
    """Transitive closure of a name-to-name relation."""
    out = {k: dict(v) for k, v in rel.items()}
    changed = True
    while changed:
        changed = False
        for src in out:
            for mid in list(out[src]):
                for dst in out.get(mid, ()):
                    if dst not in out[src]:
                        out[src][dst] = None
                        changed = True
    return out


def relation_compose(p2p: dict[str, dict[str, None]], p2e: dict[str, Alphabet]) -> dict[str, Alphabet]:
    """Events of each name, then those of every name reachable from it in
    breadth-first order, each name's successors taken in the order it lists them."""
    out: dict[str, Alphabet] = {}
    for name in p2e:
        acc = dict(p2e[name])
        seen: set[str] = {name}
        frontier = deque([name])
        while frontier:
            cur = frontier.popleft()
            for nxt in p2p.get(cur, ()):
                if nxt in seen:
                    continue
                seen.add(nxt)
                frontier.append(nxt)
                if nxt in p2e:
                    acc = set_union(acc, p2e[nxt])
        out[name] = acc
    return out


def reference_alphabets(decl: Declaration) -> dict[str, Alphabet]:
    """Each name's total alphabet, from the relations of the declaration's bodies.

    A name defined twice resolves to its last body; unresolved references are
    left out of the relation.
    """
    bodies = {decl.name: decl.body}
    for loc in decl.locals:
        bodies[loc.name] = loc.body
    p2p = {n: {r: None for r in walk_refs(b) if r in bodies} for n, b in bodies.items()}
    p2e: dict[str, Alphabet] = {}
    for n, b in bodies.items():
        p2e[n] = {}
        for p in walk_events(b):
            p2e[n].setdefault(p.event, p.initiated)
    return relation_compose(p2p, p2e)


def chain_spec(n: int, erase: bool = False) -> str:
    """A lint-clean style whose one component has a port ``Out`` and a
    computation that are each a chain of ``n + 1`` where-locals
    (``L0 = _e0 -> L1 ... Ln = _en -> Out [] TICK``).  With ``erase`` the
    port's chain ends in ``Ln = _en -> Ln`` instead, so restricting the port
    to its observed events erases one more local in each projection round."""
    last = f"_e{n} -> L{n}" if erase else f"_e{n} -> Out [] TICK"
    port = [f"    L{i} = _e{i} -> L{i + 1}" for i in range(n)] + [f"    L{n} = {last}"]
    comp = [f"    M{i} = _Out.e{i} -> M{i + 1}" for i in range(n)] + [f"    M{n} = _Out.e{n} -> Computation [] TICK"]
    return "\n".join(
        ["Style Chain", "Component C", "  Port Out = L0", "  where {", *port, "  }",
         "  Computation = M0", "  where {", *comp, "  }", "Constraints", "End Style", ""]
    )


def wide_component_spec(n: int) -> str:
    """A lint-clean style whose one component has ``n`` output-only ports
    ``P<i> = _e<i> -> P<i> |~| TICK`` and a computation that performs one
    event of each in turn.  No port observes anything, so each port check
    runs the computation beside ``n - 1`` ports restricted to ``SKIP``."""
    ports = [f"  Port P{i} = _e{i} -> P{i} |~| TICK" for i in range(1, n + 1)]
    cycle = " -> ".join(f"_P{i}.e{i}" for i in range(1, n + 1))
    return "\n".join(["Style Wide", "Component C", *ports, f"  Computation = {cycle} -> Computation [] TICK",
                      "Constraints", "End Style", ""])


def flat_choice_spec(external: int = 5000, internal: int = 300) -> str:
    """A lint-clean style whose one port is a flat ``[]`` choice of
    ``external`` prefixes and TICK, and whose one role is a flat ``|~|``
    choice of ``internal`` initiated prefixes and TICK; the computation and
    the glue offer every event of them in one flat ``[]`` choice.  Its three
    assertions pass."""
    port = " [] ".join(f"e{i} -> P" for i in range(external))
    comp = " [] ".join(f"P.e{i} -> Computation" for i in range(external))
    role = " |~| ".join(f"_f{i} -> R" for i in range(internal))
    glue = " [] ".join(f"R.f{i} -> Glue" for i in range(internal))
    return "\n".join(["Style Flat", "Component C", f"  Port P = {port} [] TICK", f"  Computation = {comp} [] TICK",
                      "Connector K", f"  Role R = {role} |~| TICK", f"  Glue = {glue} [] TICK",
                      "Constraints", "End Style", ""])


# --- renaming and trace helpers used only by tests ------------------------------


def _map_events(expr: ProcessExpr, fn) -> ProcessExpr:
    if isinstance(expr, Prefix):
        return Prefix(fn(expr.event), _map_events(expr.rest, fn), expr.initiated)
    if isinstance(expr, Choice):
        return type(expr)(tuple(_map_events(branch, fn) for branch in expr.branches))
    return expr


def rename_with_prefix(decl: Declaration, prefix: str) -> Declaration:
    """Copy of the declaration with every event scoped by ``prefix``."""
    return Declaration(
        kind=decl.kind,
        name=decl.name,
        body=_map_events(decl.body, lambda e: f"{prefix}.{e}"),
        locals=[rename_with_prefix(d, prefix) for d in decl.locals],
        pos=decl.pos,
    )


def traces(lts: Lts, depth: int, include_tick: bool = True) -> set[tuple[str, ...]]:
    """All visible traces of length <= depth (tick-terminated ones included)."""
    memo: dict[tuple[frozenset[int], int], set[tuple[str, ...]]] = {}

    def explore(subset: frozenset[int], remaining: int) -> set[tuple[str, ...]]:
        key = (subset, remaining)
        got = memo.get(key)
        if got is not None:
            return got
        acc: set[tuple[str, ...]] = {()}
        if remaining > 0:
            moves: dict[str, set[int]] = {}
            for s in subset:
                for a, t in zip(lts.events[s], lts.targets[s]):
                    if a == TAU:
                        continue
                    if a == TICK and not include_tick:
                        continue
                    moves.setdefault(a, set()).add(t)
            for a, targets in moves.items():
                if a == TICK:
                    acc.add((TICK,))
                    continue
                for rest in explore(tau_closure(lts, targets), remaining - 1):
                    acc.add((a,) + rest)
        memo[key] = acc
        return acc

    return explore(tau_closure(lts, [lts.initial]), depth)


# --- the set sublanguage of emitted FDR text -----------------------------------

_SET_TOKEN = re.compile(r"\s*([{}|(),]|[\w.]+)")
_DEFINITION = re.compile(r"^(\w+) = ", re.MULTILINE)


class EmittedSets:
    """The set names of an emitted FDR file and what its set expressions denote.

    Reads the ``channel c: {...}`` and ``ALPHA_x = ...`` lines; ``{|c|}`` is
    ``c.v`` for each declared value ``v``, or ``c`` itself for a bare channel
    or a whole event.
    """

    def __init__(self, text: str) -> None:
        self.channels: dict[str, tuple[str, ...]] = {}
        for line in text.splitlines():
            if line.startswith("channel ") and ":" in line:
                name, values = line[len("channel "):].split(":", 1)
                self.channels[name.strip()] = tuple(v.strip() for v in values.strip()[1:-1].split(",") if v.strip())
        self.alphas: dict[str, frozenset[str]] = {}
        for m in re.finditer(r"^(ALPHA_\w+) = (.*)$", text, re.MULTILINE):
            self.alphas[m.group(1)] = self.evaluate(m.group(2))

    def evaluate(self, expr: str) -> frozenset[str]:
        tokens = _SET_TOKEN.findall(expr)
        assert "".join(tokens) == "".join(expr.split()), f"not a set expression: {expr!r}"
        value, end = self.parse(tokens, 0)
        assert end == len(tokens), f"trailing text in set expression {expr!r}"
        return value

    def productions(self, items) -> frozenset[str]:
        out = set()
        for item in items:
            if item in self.channels:
                out.update(f"{item}.{v}" for v in self.channels[item])
            else:
                out.add(item)
        return frozenset(out)

    def parse(self, tokens: list[str], i: int) -> tuple[frozenset[str], int]:
        """The set the expression at ``tokens[i]`` denotes, and the index after it."""
        tok = tokens[i]
        if tok == "{":
            bar = tokens[i + 1] == "|"
            i += 1 + bar
            items = []
            while tokens[i] not in ("}", "|"):
                items.append(tokens[i])
                i += 1 + (tokens[i + 1] == ",")
            if bar:
                assert tokens[i] == "|", tokens
                i += 1
            assert tokens[i] == "}", tokens
            return (self.productions(items) if bar else frozenset(items)), i + 1
        if tok in ("diff", "union"):
            assert tokens[i + 1] == "(", tokens
            left, i = self.parse(tokens, i + 2)
            assert tokens[i] == ",", tokens
            right, i = self.parse(tokens, i + 1)
            assert tokens[i] == ")", tokens
            return (left - right if tok == "diff" else left | right), i + 1
        return self.alphas[tok], i + 1


def definition_texts(text: str) -> dict[str, str]:
    """Each ``name = `` line of ``text`` with the indented lines that follow it."""
    out: dict[str, str] = {}
    lines = text.splitlines()
    for i, line in enumerate(lines):
        m = _DEFINITION.match(line)
        if m:
            j = i + 1
            while j < len(lines) and lines[j][:1] in (" ", "\t"):
                j += 1
            out[m.group(1)] = "\n".join(lines[i:j])
    return out


# --- the process sublanguage of emitted FDR text --------------------------------

_PROCESS_TOKEN = re.compile(r"\s*(->|\[\]|\|~\||\[\||\|\]|\[\[|\]\]|<-|[(){}|,\\]|[\w.]+)")
_ASSERT = re.compile(r"^assert (\w+) \[FD= (\w+)$", re.MULTILINE)


def read_process(text: str, sets: EmittedSets) -> ProcessExpr:
    """The engine term a process expression of emitted FDR text denotes,
    lowered as ``codegen.process_term`` lowers (external choice by ``PExt``,
    a ``|~|`` run grouped to the left into one node).

    Reads names, ``SKIP``, ``STOP``, ``e -> P``, ``P [] Q``, ``P |~| Q``,
    ``P [[ x <- T | x <- S ]]``, ``P [| S |] Q`` and ``P \\ S``, with CSPM's
    precedences: renaming binds tightest, then prefix, ``[]``, ``|~|``,
    parallel and hiding.  ``sets`` evaluates the set expressions.
    """
    tokens = _PROCESS_TOKEN.findall(text)
    assert "".join(tokens) == "".join(text.split()), f"not a process expression: {text!r}"
    tokens += [None, None]  # the end, twice: ``prefix`` looks one token ahead

    def hiding(i: int) -> tuple[ProcessExpr, int]:
        p, i = parallel(i)
        while tokens[i] == "\\":
            hidden, i = sets.parse(tokens, i + 1)
            p = PHide(p, hidden)
        return p, i

    def parallel(i: int) -> tuple[ProcessExpr, int]:
        p, i = internal(i)
        if tokens[i] != "[|":
            return p, i
        sync, i = sets.parse(tokens, i + 1)
        assert tokens[i] == "|]", f"unclosed [| at token {i} of {text!r}"
        q, i = parallel(i + 1)
        return PPar(p, sync, q), i

    def internal(i: int) -> tuple[ProcessExpr, int]:
        p, i = external(i)
        while tokens[i] == "|~|":
            q, i = external(i + 1)
            p = InternalChoice((*p.branches, q) if type(p) is InternalChoice else (p, q))
        return p, i

    def external(i: int) -> tuple[ProcessExpr, int]:
        p, i = prefix(i)
        while tokens[i] == "[]":
            q, i = prefix(i + 1)
            p = PExt(p, q)
        return p, i

    def prefix(i: int) -> tuple[ProcessExpr, int]:
        if tokens[i + 1] != "->":
            return renamed(i)
        rest, j = prefix(i + 2)
        return Prefix(tokens[i], rest), j

    def renamed(i: int) -> tuple[ProcessExpr, int]:
        p, i = primary(i)
        while tokens[i] == "[[":  # [[ x <- T | x <- S ]]: v -> T with v for x, for each v in S
            assert tokens[i + 1:i + 3] == ["x", "<-"] and tokens[i + 4:i + 7] == ["|", "x", "<-"], tokens[i:i + 7]
            segments = tokens[i + 3].split(".")
            source, i = sets.parse(tokens, i + 7)
            assert tokens[i] == "]]", f"unclosed [[ at token {i} of {text!r}"
            p = rename(p, {v: ".".join(v if s == "x" else s for s in segments) for v in source})
            i += 1
        return p, i

    def primary(i: int) -> tuple[ProcessExpr, int]:
        tok = tokens[i]
        if tok == "(":
            p, i = hiding(i + 1)
            assert tokens[i] == ")", f"unclosed group at token {i} of {text!r}"
            return p, i + 1
        assert tok is not None and (tok[0].isalnum() or tok[0] == "_"), f"no process at token {i} of {text!r}"
        return (SUCCESS if tok == "SKIP" else EMPTY if tok == "STOP" else Ref(tok)), i + 1

    p, end = hiding(0)
    assert tokens[end] is None, f"trailing text in process expression {text!r}"
    return p


def read_text(text: str) -> tuple[dict[str, ProcessExpr], list[tuple[str, ProcessExpr, ProcessExpr]]]:
    """The process definitions of emitted FDR text, header included, and its
    ``assert`` lines as (label, specification, implementation)."""
    sets = EmittedSets(text)
    definitions = {
        name: read_process(body.split(" = ", 1)[1], sets)
        for name, body in definition_texts(text).items()
        if name not in sets.alphas
    }
    assertions = [(m.group(0), Ref(m.group(1)), Ref(m.group(2))) for m in _ASSERT.finditer(text)]
    return definitions, assertions
