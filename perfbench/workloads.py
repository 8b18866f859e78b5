"""Seeded Wright spec generators whose answers are known by construction.

Each generator yields ``Case`` objects: the Wright source text an operation
feeds to the program, plus the assertion labels, verdicts and shortest
counterexamples the program must report.  The answers follow from how each
spec is built; none of them comes from running wright2csp.

Every identifier of a case ends in ``_<token>``, a seeded token that is
different for every case of a run, so no two operations see the same input.
Tokens have a fixed length and sit behind a fixed separator, so any ordering
the program derives from names (sorted branches, sorted labels) is the same
for every case and per-operation counts repeat exactly.

Workloads:

* ``star``: ROADMAP's ``star(k)`` probe, k = 6: one component with k ports,
  one connector with k roles.  Half of the cases use a glue that can wait on a
  role that has already terminated, so the connector deadlock check fails
  after one abstract event.
* ``pipeline``: a Configuration Source -> n Filters -> Sink joined by ``Pipe``
  connectors, n = 100 (209 small assertions).  Half of the cases use a Sink
  whose port stops accepting ``eof`` after its first ``read``, which makes the
  last attachment incompatible.
* ``translate``: a Configuration of 200 seeded, distinct component/connector
  type pairs with where-locals; translated only, nothing is checked.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import Iterator, Optional

DFA_EVENT = "abstractEvent"
TOKEN_CHARS = string.ascii_lowercase + string.digits
TOKEN_LEN = 6


@dataclass
class Case:
    source: str
    labels: list[str]
    # One (holds, counterexample) pair per label; None when only translated.
    verdicts: Optional[list[tuple[bool, Optional[tuple[tuple[str, ...], str]]]]]


class _Tokens:
    """Distinct fixed-length tokens drawn from one seeded stream."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.seen: set[str] = set()

    def next(self) -> str:
        while True:
            tok = "".join(self.rng.choice(TOKEN_CHARS) for _ in range(TOKEN_LEN))
            if tok not in self.seen:
                self.seen.add(tok)
                return tok


# --- star(k) ------------------------------------------------------------------


def star_source(k: int, t: str, fail_role: Optional[int] = None) -> str:
    """One component with k ports and one connector with k roles.

    The computation serves its ports in a fixed cycle, so hiding all ports
    but one leaves no unobservable loop and every port/computation check
    passes.  The connector lets each role act independently; its composition
    has 2 * 4**k + 3 states, the largest LTS of the spec.

    With ``fail_role = j`` the glue demands ``Rj.mj`` twice in a row.  Role
    ``Rj`` may terminate after its first ``mj`` and every other role may
    terminate too, so the connector deadlocks after exactly one event.
    """
    lines = [f"Style Star_{t}", f"Component Hub_{t}"]
    for i in range(1, k + 1):
        lines.append(f"  Port P{i}_{t} = _e{i}_{t} -> P{i}_{t} |~| TICK")
    cycle = " -> ".join(f"_P{i}_{t}.e{i}_{t}" for i in range(1, k + 1))
    lines.append(f"  Computation = {cycle} -> Computation [] TICK")
    lines.append(f"Connector Bus_{t}")
    for i in range(1, k + 1):
        lines.append(f"  Role R{i}_{t} = _m{i}_{t} -> R{i}_{t} |~| TICK")
    branches = []
    for i in range(1, k + 1):
        ev = f"R{i}_{t}.m{i}_{t}"
        branches.append(f"{ev} -> {ev} -> Glue" if i == fail_role else f"{ev} -> Glue")
    lines.append(f"  Glue = {' [] '.join(branches)} [] TICK")
    lines += ["Constraints", "  // no constraints", "End Style"]
    return "\n".join(lines) + "\n"


def star_case(k: int, t: str, fail_role: Optional[int] = None) -> Case:
    labels = [f"assert P{i}_{t}G [FD= COMPP{i}_{t}" for i in range(1, k + 1)]
    labels += [f"assert DFA [FD= R{i}_{t}A" for i in range(1, k + 1)]
    labels.append(f"assert DFA [FD= Bus_{t}A")
    verdicts = [(True, None)] * (len(labels) - 1)
    if fail_role is None:
        verdicts.append((True, None))
    else:
        verdicts.append((False, ((DFA_EVENT,), "failure")))
    return Case(star_source(k, t, fail_role), labels, verdicts)


# --- pipeline(n) --------------------------------------------------------------


def pipeline_case(n: int, t: str, fail: bool) -> Case:
    """Source -> n Filters -> Sink, joined by n + 1 Pipe connectors.

    The failing Sink's port and computation agree with each other (its
    port/computation check passes), but after one ``read`` the port no longer
    accepts ``eof``, which the Reader role must accept: the check of the
    last attachment fails after the trace <read>.
    """
    w, r, c, e = (f"{x}_{t}" for x in ("write", "read", "close", "eof"))
    out, inp, fwd, drain = (f"{x}_{t}" for x in ("Out", "In", "Fwd", "Drain"))
    writer, reader = f"Writer_{t}", f"Reader_{t}"
    src_i, sink_i = f"S_{t}", f"K_{t}"
    filt = [f"F{i:03d}_{t}" for i in range(1, n + 1)]
    pipes = [f"P{i:03d}_{t}" for i in range(1, n + 2)]

    lines = [f"Configuration Line_{t}"]
    lines += [
        f"Component Source_{t}",
        f"  Port {out} = _{w} -> {out} |~| _{c} -> TICK",
        f"  Computation = _{out}.{w} -> Computation |~| _{out}.{c} -> TICK",
        f"Component Filter_{t}",
        f"  Port {inp} = {r} -> {inp} [] {e} -> TICK",
        f"  Port {fwd} = _{w} -> {fwd} |~| _{c} -> TICK",
        f"  Computation = {inp}.{r} -> _{fwd}.{w} -> Computation"
        f" [] {inp}.{e} -> _{fwd}.{c} -> TICK",
        f"Component Sink_{t}",
    ]
    if fail:
        late, rest = f"DrainLate_{t}", f"SinkLate_{t}"
        lines += [
            f"  Port {drain} = {r} -> {late} [] {e} -> TICK where {{ {late} = {r} -> {late} }}",
            f"  Computation = {drain}.{r} -> {rest} [] {drain}.{e} -> TICK"
            f" where {{ {rest} = {drain}.{r} -> {rest} }}",
        ]
    else:
        lines += [
            f"  Port {drain} = {r} -> {drain} [] {e} -> TICK",
            f"  Computation = {drain}.{r} -> Computation [] {drain}.{e} -> TICK",
        ]
    lines += [
        f"Connector Pipe_{t}",
        f"  Role {writer} = _{w} -> {writer} |~| _{c} -> TICK",
        f"  Role {reader} = {r} -> {reader} [] {e} -> TICK",
        f"  Glue = {writer}.{w} -> _{reader}.{r} -> Glue [] {writer}.{c} -> _{reader}.{e} -> TICK",
        "Instances",
        f"  {src_i} : Source_{t}",
        *(f"  {f} : Filter_{t}" for f in filt),
        f"  {sink_i} : Sink_{t}",
        *(f"  {p} : Pipe_{t}" for p in pipes),
        "Attachments",
    ]
    atts = [(src_i, out, pipes[0], writer)]
    for i, f in enumerate(filt):
        atts.append((f, inp, pipes[i], reader))
        atts.append((f, fwd, pipes[i + 1], writer))
    atts.append((sink_i, drain, pipes[-1], reader))
    lines += [f"  {ci}.{p} As {ni}.{rl}" for ci, p, ni, rl in atts]
    lines.append("End Configuration")

    labels = [f"assert {p}G [FD= COMP{p}" for p in (out, inp, fwd, drain)]
    labels += [f"assert DFA [FD= {x}A" for x in (writer, reader, f"Pipe_{t}")]
    labels += [f"assert {ni}_{rl}PLUS [FD= {ci}_{p}PLUSDET" for ci, p, ni, rl in atts]
    verdicts = [(True, None)] * len(labels)
    if fail:
        verdicts[-1] = (False, ((r,), "failure"))
    return Case("\n".join(lines) + "\n", labels, verdicts)


# --- translate: many distinct type pairs ---------------------------------------


def _ev(name: str, initiated: bool, scope: str = "") -> str:
    return ("_" if initiated else "") + (f"{scope}." if scope else "") + name


class _Shape:
    """Seeded random bodies with a fixed size, so text size varies little."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def op(self) -> str:
        return self.rng.choice(("[]", "|~|"))

    def body(self, evs: list[str], self_ref: str, local: str, lead: list[str]) -> str:
        """``(a -> b -> X op c -> local) op (d -> TICK)``; ``lead`` starts each branch."""
        ch = self.rng.choice
        first = f"{ch(lead)} -> {ch(evs)} -> {ch((self_ref, local))}"
        return f"({first} {self.op()} {ch(lead)} -> {local}) {self.op()} ({ch(lead)} -> TICK)"

    def local(self, evs: list[str], self_ref: str, local: str, lead: list[str]) -> str:
        """``a -> X op b -> c -> local``: every branch starts with a ``lead`` event."""
        ch = self.rng.choice
        first = f"{ch(lead)} -> {ch((self_ref, local))}"
        return f"{first} {self.op()} {ch(lead)} -> {ch(evs)} -> {local}"


def _decl(keyword: str, name: str, body: str, local: str, local_body: str) -> str:
    head = f"  {keyword} {name} = " if name else f"  {keyword} = "
    return f"{head}{body}\n    where {{ {local} = {local_body} }}"


def translate_template(m: int, rng: random.Random) -> tuple[str, list[str]]:
    """Source text and assertion labels of m seeded type pairs, token left as ``{t}``.

    Pair i has a component with ports A (events x, y) and B (events z, w) and
    a connector with roles U (speaking A's events) and V (speaking the events
    of port B of pair i - 1, which it is attached to); x and z are initiated,
    y and w observed.  Every body refers to its where-local and every branch
    of a port's local starts with an observed event, so restricting a port to
    its observed events never erases a local.  The computation's first branch
    walks every port event once, so the component has no port-only events.
    """
    shape = _Shape(rng)
    ids = [f"{i:03d}" for i in range(1, m + 1)]

    def nm(prefix: str, ix: str) -> str:
        return f"{prefix}{ix}_{{t}}"

    lines = ["Configuration Mesh_{t}"]
    labels: list[str] = []
    attachments: list[tuple[str, str, str, str]] = []
    for k, ix in enumerate(ids):
        prev, nxt = ids[k - 1], ids[(k + 1) % m]
        a, b, u, v = (nm(c, ix) for c in "ABUV")
        speaks = {
            a: (nm("x", ix), nm("y", ix)),
            b: (nm("z", ix), nm("w", ix)),
            u: (nm("x", ix), nm("y", ix)),
            v: (nm("z", prev), nm("w", prev)),
        }
        lines.append(f"Component {nm('Cmp', ix)}")
        for port in (a, b):
            init, obs = speaks[port]
            evs = [_ev(init, True), _ev(obs, False)]
            local = f"L{port}"
            body = shape.body(evs, port, local, evs)
            local_body = shape.local(evs, port, local, [_ev(obs, False)])
            lines.append(_decl("Port", port, body, local, local_body))
            labels.append(f"assert {port}G [FD= COMP{port}")
        scoped = [_ev(e, i == 0, port) for port in (a, b) for i, e in enumerate(speaks[port])]
        rng.shuffle(scoped)
        local = nm("LC", ix)
        rest = shape.body(scoped, "Computation", local, scoped)
        body = f"({' -> '.join(scoped)} -> Computation) {shape.op()} ({rest})"
        local_body = shape.local(scoped, "Computation", local, scoped)
        lines.append(_decl("Computation", "", body, local, local_body))

        lines.append(f"Connector {nm('Con', ix)}")
        glue_evs = []
        for role in (u, v):
            init, obs = speaks[role]
            evs = [_ev(init, True), _ev(obs, False)]
            local = f"L{role}"
            body, local_body = shape.body(evs, role, local, evs), shape.local(evs, role, local, evs)
            lines.append(_decl("Role", role, body, local, local_body))
            labels.append(f"assert DFA [FD= {role}A")
            # The glue observes what a role initiates and initiates what it observes.
            glue_evs += [_ev(init, False, role), _ev(obs, True, role)]
        local = nm("LG", ix)
        body = shape.body(glue_evs, "Glue", local, glue_evs)
        local_body = shape.local(glue_evs, "Glue", local, glue_evs)
        lines.append(_decl("Glue", "", body, local, local_body))
        labels.append(f"assert DFA [FD= {nm('Con', ix)}A")
        attachments += [
            (nm("c", ix), a, nm("n", ix), u),
            (nm("c", ix), b, nm("n", nxt), nm("V", nxt)),
        ]

    lines.append("Instances")
    for ix in ids:
        lines += [f"  {nm('c', ix)} : {nm('Cmp', ix)}", f"  {nm('n', ix)} : {nm('Con', ix)}"]
    lines.append("Attachments")
    for ci, port, ni, role in attachments:
        lines.append(f"  {ci}.{port} As {ni}.{role}")
        labels.append(f"assert {ni}_{role}PLUS [FD= {ci}_{port}PLUSDET")
    lines.append("End Configuration")
    return "\n".join(lines) + "\n", labels


# --- workload streams ------------------------------------------------------------

STAR_K = 6
PIPELINE_FILTERS = 100
TRANSLATE_PAIRS = 200


def blocks(workload: str, seed: int) -> Iterator[list[Case]]:
    """Endless stream of case blocks for a workload.

    A block is the unit a run stops on.  On ``star`` and ``pipeline`` it is one
    passing and one failing case in seeded order, so every run holds exactly
    as many of each and per-operation averages do not depend on run length.
    """
    rng = random.Random(f"{workload}:{seed}")
    tokens = _Tokens(rng)
    if workload == "star":
        fail_role = rng.randint(1, STAR_K)  # one failing role per run
        while True:
            block = [star_case(STAR_K, tokens.next()), star_case(STAR_K, tokens.next(), fail_role)]
            rng.shuffle(block)
            yield block
    elif workload == "pipeline":
        while True:
            block = [pipeline_case(PIPELINE_FILTERS, tokens.next(), f) for f in (False, True)]
            rng.shuffle(block)
            yield block
    elif workload == "translate":
        text, labels = translate_template(TRANSLATE_PAIRS, rng)
        while True:
            t = tokens.next()
            yield [Case(text.replace("{t}", t), [lb.replace("{t}", t) for lb in labels], None)]
    else:
        raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("star", "pipeline", "translate")
