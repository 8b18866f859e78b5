import gc
import hashlib
import random
import re
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

import wright2csp.engine as engine
from conftest import emit_plan, perfbench_workloads
from oracles import (
    brute_divergent,
    brute_refines,
    enumerate_behaviours,
    expr_lts,
    is_divergence,
    node_after,
    random_expr,
    random_lts,
    random_operator_term,
    reference_compile,
    reference_refinement_fd,
    refuses,
    traces,
)
from wright2csp.engine import (
    TAU,
    TICK,
    DEFAULT_MAX_STATES,
    EngineError,
    Lts,
    PExt,
    PHide,
    PPar,
    PRename,
    ResourceLimitError,
    UnresolvedProcessError,
    assertion_verdicts,
    check_assertion,
    check_refinement_fd,
    compile_to_lts,
    dfa_definitions,
    discharge_assertions,
    divergent_states,
    normalize_fd,
    rename,
)
from wright2csp.model import EMPTY, SUCCESS, ExternalChoice, InternalChoice, Prefix, ProcessExpr, Ref
from wright2csp.parser import parse_source
from wright2csp import alphabets, analyzer, codegen
from wright2csp.cli import main


def test_stop_compiles_to_single_dead_state():
    lts = compile_to_lts(EMPTY)
    assert lts.n_states == 1
    assert lts.transitions == []


def test_skip_ticks_once():
    lts = compile_to_lts(SUCCESS)
    assert [(s, a) for s, a, _ in lts.transitions] == [(0, TICK)]


def test_dfa_shape():
    env = dfa_definitions()
    lts = compile_to_lts(env["DFA"], env)
    first = [a for s, a, _ in lts.transitions if s == 0]
    assert first == [TAU, TAU]  # internal choice between looping and stopping
    assert traces(lts, 3) == {(), ("abstractEvent",), ("abstractEvent",) * 2,
                              ("abstractEvent",) * 3, (TICK,),
                              ("abstractEvent", TICK), ("abstractEvent", "abstractEvent", TICK)}


def test_synchronized_parallel_collapses_to_loop():
    # P = (e -> f -> P) [] (g -> P),  Q = e -> (f -> Q [] g -> Q)
    p = PExt(Prefix("e", Prefix("f", Ref("P"))), Prefix("g", Ref("P")))
    q = Prefix("e", PExt(Prefix("f", Ref("Q")), Prefix("g", Ref("Q"))))
    env = {"P": p, "Q": q, "R": Prefix("e", Prefix("f", Ref("R")))}
    par = PPar(Ref("P"), frozenset({"e", "f", "g"}), Ref("Q"))
    assert traces(compile_to_lts(par, env), 6) == traces(compile_to_lts(Ref("R"), env), 6)


def test_rename_and_hide():
    p = Prefix("a", Prefix("b", SUCCESS))
    renamed = rename(p, {"a": "In.a"})
    assert ("In.a",) in traces(compile_to_lts(renamed), 2)
    hidden = PHide(p, frozenset({"a"}))
    assert traces(compile_to_lts(hidden), 2, include_tick=False) == {(), ("b",)}


def test_normalize_prefix_stop_failures():
    lts = compile_to_lts(Prefix("a", EMPTY))
    fd = normalize_fd(lts)
    assert refuses(fd, (), {TICK})
    assert not refuses(fd, (), {"a"})
    assert refuses(fd, ("a",), {"a", TICK})
    assert not is_divergence(fd, ())


def test_normalize_tick_behaviour():
    fd = normalize_fd(compile_to_lts(Prefix("a", SUCCESS)))
    assert refuses(fd, ("a",), {"a"})        # may refuse regular events
    assert not refuses(fd, ("a",), {TICK})   # but never the success event
    assert refuses(fd, ("a", TICK), {"a", TICK})  # anything goes after termination
    assert not refuses(fd, (TICK,), set())   # cannot terminate before the prefix


def test_tau_loop_diverges():
    lts = compile_to_lts(Ref("P"), {"P": Ref("P")})
    fd = normalize_fd(lts)
    assert is_divergence(fd, ())


def test_deterministic_process_has_no_divergence():
    p = PExt(Prefix("a", SUCCESS), Prefix("b", EMPTY))
    fd = normalize_fd(compile_to_lts(p))
    assert not any(fd.divergent)


def test_normalized_deterministic_machine_is_functional():
    # deterministic, divergence-free: one node per trace, refusals are ready
    # complements
    p = PExt(Prefix("a", Prefix("b", SUCCESS)), Prefix("c", EMPTY))
    fd = normalize_fd(compile_to_lts(p))
    assert not any(fd.divergent)
    for node in range(fd.node_count):
        assert len(fd.acceptances[node]) <= 1
    assert refuses(fd, ("a",), {"a", "c"})
    assert not refuses(fd, ("a",), {"b"})


def test_refinement_reflexive_on_fixture_assertions():
    for fixture in ("dt1.wrt", "dt2.wrt", "dt3.wrt", "calculformule.wrt", "pipeconn.wrt", "double.wrt"):
        plan = emit_plan(fixture)
        for a in plan.assertions:
            for side in (a.spec_term, a.impl_term):
                lts = compile_to_lts(side, plan.definitions)
                verdict = check_refinement_fd(normalize_fd(lts), lts)
                assert verdict.holds, (fixture, a.label)


def test_dfa_refinement_catches_deadlock():
    env = dfa_definitions()
    env["DEAD"] = rename(Prefix("x", EMPTY), {"x": "abstractEvent"})
    verdict = check_assertion(Ref("DFA"), Ref("DEAD"), env)
    assert not verdict.holds
    trace, kind = verdict.counterexample
    assert kind == "failure"
    assert trace == ("abstractEvent",)


def test_dfa_refinement_accepts_deadlock_free_role():
    plan = emit_plan("dt1.wrt")
    by_label = {a.label: a for a in plan.assertions}
    a = by_label["assert DFA [FD= ClientA"]
    assert check_assertion(a.spec_term, a.impl_term, plan.definitions).holds


def test_an_event_the_specification_cannot_perform_is_a_failure():
    # ODD may terminate at once, as DFA may, so only its `other` fails
    env = dfa_definitions()
    env["ODD"] = PExt(Prefix("other", EMPTY), SUCCESS)
    verdict = check_assertion(Ref("DFA"), Ref("ODD"), env)
    assert not verdict.holds
    assert verdict.counterexample == (("other",), "failure")


def test_state_cap_is_enforced():
    # an unbounded counter: left operand keeps spawning interleaved copies
    env = {"P": PPar(Prefix("a", Ref("P")), frozenset(), Prefix("a", EMPTY))}
    with pytest.raises(ResourceLimitError):
        compile_to_lts(Ref("P"), env, max_states=50)


FIXTURES_WITH_ASSERTIONS = (
    "calculformule.wrt", "deadconn.wrt", "double.wrt", "dt1.wrt", "dt2.wrt",
    "dt3.wrt", "dt4.wrt", "pipeconn.wrt", "rule6.wrt",
)


def _compiled(compile, term, env, max_states=DEFAULT_MAX_STATES):
    """(n_states, transitions), or the message of a state-cap error."""
    try:
        lts = compile(term, env, max_states)
    except ResourceLimitError as exc:
        return str(exc)
    return lts.n_states, lts.transitions


def test_compile_matches_term_level_reference_on_fixture_assertions():
    sides = 0
    for fixture in FIXTURES_WITH_ASSERTIONS:
        plan = emit_plan(fixture)
        for a in plan.assertions:
            for side in (a.spec_term, a.impl_term):
                want = _compiled(reference_compile, side, plan.definitions)
                assert _compiled(compile_to_lts, side, plan.definitions) == want, (fixture, a.label)
                sides += 1
    assert sides == 68


def test_compile_matches_term_level_reference_on_random_operator_terms():
    rng = random.Random(23)
    outcomes = []
    for i in range(500):  # 300 drew only 14 larger ones once a |~| run took one tau per branch
        term, env = random_operator_term(rng, depth=2 + i % 2)
        want = _compiled(reference_compile, term, env, 150)
        assert _compiled(compile_to_lts, term, env, 150) == want, term
        outcomes.append(want)
    capped = sum(isinstance(o, str) for o in outcomes)
    larger = sum(not isinstance(o, str) and o[0] >= 20 for o in outcomes)
    assert capped >= 20 and larger >= 20, (capped, larger)


def test_operator_term_reached_two_ways_is_one_state():
    # X unfolds inside the first branch to exactly the second branch
    body = PPar(Prefix("a", EMPTY), frozenset(), Prefix("b", EMPTY))
    env = {"X": body}
    right = Prefix("c", EMPTY)
    term = InternalChoice((PPar(Ref("X"), frozenset({"c"}), right), PPar(body, frozenset({"c"}), right)))
    lts = compile_to_lts(term, env)
    assert _compiled(compile_to_lts, term, env) == _compiled(reference_compile, term, env)
    assert lts.n_states == 6


def _compiled_as_reference(term, env=None):
    """The transitions of ``term``, after checking them against the reference."""
    env = env or {}
    n_states, transitions = _compiled(compile_to_lts, term, env)
    assert (n_states, transitions) == _compiled(reference_compile, term, env)
    return transitions


def test_tick_in_the_sync_set_is_both_synchronised_and_distributed():
    term = PPar(PExt(Prefix("a", SUCCESS), SUCCESS), frozenset({TICK}), SUCCESS)
    # the sync pass and the tick pass each join the two ticks
    assert _compiled_as_reference(term) == [
        (0, "a", 1), (0, TICK, 2), (0, TICK, 2), (1, TICK, 2), (1, TICK, 2)]


def test_sync_event_offered_by_one_side_only_is_blocked():
    for left, right in (("a", "b"), ("b", "a")):
        term = PPar(Prefix(left, EMPTY), frozenset({"a"}), Prefix(right, EMPTY))
        assert _compiled_as_reference(term) == [(0, "b", 1)]


def test_sync_joins_each_left_move_with_every_right_move_in_order():
    left = PExt(Prefix("a", Prefix("d", EMPTY)), Prefix("a", Prefix("e", EMPTY)))
    right = PExt(Prefix("a", Prefix("b", EMPTY)), Prefix("a", Prefix("c", EMPTY)))
    # states 1..4 are (d, b), (d, c), (e, b), (e, c): left-major order
    assert _compiled_as_reference(PPar(left, frozenset({"a"}), right)) == [
        (0, "a", 1), (0, "a", 2), (0, "a", 3), (0, "a", 4),
        (1, "d", 5), (1, "b", 6), (2, "d", 7), (2, "c", 6),
        (3, "e", 5), (3, "b", 8), (4, "e", 7), (4, "c", 8),
        (5, "b", 9), (6, "d", 9), (7, "c", 9), (8, "e", 9)]


def test_hiding_and_renaming_over_a_parallel_whose_operands_unfold_references():
    env = {"P": Prefix("a", Prefix("b", Ref("P"))), "Q": Prefix("a", Ref("Q"))}
    par = PPar(Ref("P"), frozenset({"a"}), Ref("Q"))
    term = PHide(rename(par, {"a": "x", "b": "y"}), frozenset({"y"}))
    assert _compiled_as_reference(term, env) == [
        (0, TAU, 1), (0, TAU, 2), (1, TAU, 3), (2, TAU, 3),
        (3, "x", 4), (4, TAU, 0), (4, TAU, 5), (5, TAU, 2)]


def test_lts_round_trips_between_triples_and_adjacency():
    transitions = [(0, "a", 1), (0, TAU, 0), (1, TICK, 2), (1, "b", 0)]
    lts = Lts(3, transitions)
    assert lts.events == [["a", TAU], [TICK, "b"], []]
    assert lts.targets == [[1, 0], [2, 0], []]
    assert lts.transitions == transitions
    assert Lts(lts.n_states, events=lts.events, targets=lts.targets).transitions == transitions


def test_divergent_states_without_tau_moves():
    assert divergent_states(Lts(3, [(0, "a", 1), (1, "b", 2), (2, "a", 0)])) == [False] * 3
    assert divergent_states(Lts(2, [])) == [False, False]


def test_compile_leaves_no_reference_cycles():
    # check_assertion pauses the cyclic collector, which is sound only while
    # compile, normalize and refine create no reference cycles
    plans = [emit_plan("dt3.wrt")]
    spec, _ = parse_source(perfbench_workloads().star_case(3, "t").source)
    alphabets.annotate(spec)
    plans.append(codegen.emit(spec))
    gc.collect()
    gc.disable()
    try:
        for plan in plans:
            for a in plan.assertions:
                spec_fd = normalize_fd(compile_to_lts(a.spec_term, plan.definitions))
                check_refinement_fd(spec_fd, compile_to_lts(a.impl_term, plan.definitions))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_compiled_lts_keeps_no_tuple_per_transition():
    # Two lists per state hold about 70 bytes per transition of this LTS on
    # CPython 3.10-3.13; a tuple per move, as ``(event, target)`` pairs were
    # once stored, adds about 35 more (105 measured).
    spec, _ = parse_source(perfbench_workloads().star_case(5, "t", 2).source)
    assert not alphabets.annotate(spec)
    plan = codegen.emit(spec)
    [connector] = [a for a in plan.assertions if a.label.endswith("Bus_tA")]
    defs = plan.definitions
    compile_to_lts(connector.impl_term, defs)  # warm every lazy cache first
    gc.collect()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        lts = compile_to_lts(connector.impl_term, defs)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    transitions = len(lts.transitions)
    assert transitions == 14_083
    assert retained / transitions < 88, retained / transitions


def test_check_assertion_leaves_the_collector_as_it_found_it():
    env = dfa_definitions()
    env["ODD"] = Prefix("other", EMPTY)
    env["P"] = PPar(Prefix("a", Ref("P")), frozenset(), Prefix("a", EMPTY))
    calls = [
        (True, lambda: check_assertion(Ref("DFA"), Ref("DFA"), env)),
        (False, lambda: check_assertion(Ref("DFA"), Ref("ODD"), env)),
        (ResourceLimitError, lambda: check_assertion(Ref("DFA"), Ref("P"), env, 20)),
    ]
    try:
        for enabled in (True, False):
            for error, call in calls:
                gc.enable() if enabled else gc.disable()
                if isinstance(error, bool):
                    assert call().holds is error
                else:
                    with pytest.raises(error):
                        call()
                assert gc.isenabled() == enabled, (enabled, error)
    finally:
        gc.enable()


def test_state_cap_raises_exactly_where_the_reference_does():
    counter = {"P": PPar(Prefix("a", Ref("P")), frozenset(), Prefix("a", EMPTY))}
    dt3 = emit_plan("dt3.wrt")
    connector = max((a.impl_term for a in dt3.assertions),
                    key=lambda t: compile_to_lts(t, dt3.definitions).n_states)
    term, env = random_operator_term(random.Random(5), depth=3)
    for term, env in ((EMPTY, {}), (Ref("P"), counter), (connector, dt3.definitions), (term, env)):
        for cap in range(-1, 45):
            assert _compiled(compile_to_lts, term, env, cap) == _compiled(reference_compile, term, env, cap), cap


def test_unbounded_operator_nesting_is_a_resource_limit():
    # each `a` nests one more parallel: the stack, not the state count, runs out
    env = {"R0": PPar(Prefix("a", Ref("R0")), frozenset({"b"}), Prefix("b", EMPTY))}
    with pytest.raises(ResourceLimitError, match="state cap 100 exceeded"):
        compile_to_lts(Ref("R0"), env, 100)
    message = f"operator nesting cap {engine.MAX_NESTING} exceeded"
    for cap in (1000, DEFAULT_MAX_STATES):
        with pytest.raises(ResourceLimitError, match=message):
            compile_to_lts(Ref("R0"), env, cap)
    deep = SimpleNamespace(label="deep", spec_term=Ref("R0"), impl_term=Ref("R0"), key=None)
    [(label, verdict)] = assertion_verdicts([deep], env)
    assert label == "deep" and isinstance(verdict, ResourceLimitError)
    assert str(verdict) == message


@pytest.mark.parametrize("wrap", ["rename", "hide", "hide of rename"])
def test_unbounded_nesting_through_renaming_and_hiding_is_a_resource_limit(wrap):
    # R = (a -> R)[[a <- b]] and the like: each unfolding nests one more relabelling
    body = Prefix("a", Ref("R"))
    env = {"R": {"rename": rename(body, {"a": "b"}),
                 "hide": PHide(body, frozenset({"a"})),
                 "hide of rename": PHide(rename(body, {"a": "b"}), frozenset({"b"}))}[wrap]}
    for cap in range(-1, 60):
        want = _compiled(reference_compile, Ref("R"), env, cap)
        assert want == f"state cap {cap} exceeded"
        assert _compiled(compile_to_lts, Ref("R"), env, cap) == want, cap
    message = f"operator nesting cap {engine.MAX_NESTING} exceeded"
    for cap in (1000, DEFAULT_MAX_STATES):
        with pytest.raises(ResourceLimitError, match=message):
            compile_to_lts(Ref("R"), env, cap)


def test_hide_over_rename_over_hide_with_tick_in_the_sets():
    env = {"P": PExt(Prefix("a", Prefix("b", Ref("P"))), Prefix("c", SUCCESS)),
           "Q": PExt(Prefix("a", SUCCESS), Prefix("b", Ref("Q")))}
    par = PPar(Ref("P"), frozenset({"a", TICK}), Ref("Q"))
    last = []
    for inner in (frozenset({"b"}), frozenset({"b", TICK})):
        for outer in (frozenset({"x"}), frozenset({"x", TICK}), frozenset({TICK, "c"})):
            # renaming never applies to tick, so its TICK -> a entry is inert
            term = PHide(rename(PHide(par, inner), {"a": "x", TICK: "a", "c": "b"}), outer)
            transitions = _compiled_as_reference(term, env)
            assert "a" not in {a for _, a, _ in transitions}
            last.append((transitions[9][1], transitions[-1][1]))
    # the synchronised a shows as x unless hidden; the tick, unless either hiding takes it
    assert last == [(TAU, TICK), (TAU, TAU), ("x", TAU), (TAU, TAU), (TAU, TAU), ("x", TAU)]


def test_renaming_over_a_parallel_synchronises_on_the_events_before_renaming():
    # the left side's b is renamed to the synchronised a, the shared a to x
    par = PPar(PExt(Prefix("a", Prefix("b", EMPTY)), Prefix("b", EMPTY)), frozenset({"a"}),
               Prefix("a", Prefix("c", EMPTY)))
    assert _compiled_as_reference(rename(par, {"a": "x", "b": "a"})) == [
        (0, "a", 1), (0, "x", 2), (2, "a", 3), (2, "c", 4), (3, "c", 5), (4, "a", 5)]


def test_equal_renamings_built_apart_reach_one_state():
    body = PPar(Prefix("a", EMPTY), frozenset(), Prefix("b", EMPTY))
    env = {"X": body}
    first, second = rename(Ref("X"), {"a": "c"}), rename(body, {"a": "c"})
    assert first.mapping == second.mapping and first.mapping is not second.mapping
    transitions = _compiled_as_reference(InternalChoice((first, second)), env)
    assert transitions[:3] == [(0, TAU, 1), (0, TAU, 2), (1, TAU, 2)]
    assert compile_to_lts(InternalChoice((first, second)), env).n_states == 6


def test_star_connector_and_computation_sides_match_the_reference():
    workloads = perfbench_workloads()
    sides = 0
    for fail in (None, 2):
        spec, _ = parse_source(workloads.star_case(4, "t", fail).source)
        assert not alphabets.annotate(spec)
        plan = codegen.emit(spec)
        for a in plan.assertions:
            if a.label.endswith("Bus_tA") or "COMPP" in a.label:
                _compiled_as_reference(a.impl_term, plan.definitions)
                sides += 1
    assert sides == 10


def test_compile_matches_the_reference_on_deeper_random_operator_terms():
    rng = random.Random(41)
    cases = [random_operator_term(rng, depth=4) for _ in range(100)]
    wanted = [_compiled(reference_compile, term, env, 200) for term, env in cases]
    capped = sum(isinstance(w, str) for w in wanted)
    assert 10 <= capped <= 90, capped
    # compiling creates no reference cycles (check_assertion pauses the collector)
    gc.collect()
    gc.disable()
    try:
        got = [_compiled(compile_to_lts, term, env, 200) for term, env in cases]
        assert gc.collect() == 0
    finally:
        gc.enable()
    for (term, _), want, outcome in zip(cases, wanted, got):
        assert outcome == want, term


def test_operator_directly_under_external_choice_is_an_error():
    par = PPar(Prefix("a", EMPTY), frozenset(), Prefix("b", EMPTY))
    with pytest.raises(EngineError, match="external choice") as info:
        compile_to_lts(PExt(par, Prefix("c", EMPTY)))
    assert repr(par) in str(info.value)


def test_augmentation_preserves_traces_when_disjoint():
    rng = random.Random(11)
    from oracles import expr_lts, random_expr
    from wright2csp.codegen import process_term
    from oracles import SELF

    for _ in range(100):
        expr = random_expr(rng)
        term = process_term(expr, {})
        env = {SELF: term}
        plain = traces(compile_to_lts(term, env), 6, include_tick=False)
        augmented = PPar(term, frozenset({"zz1", "zz2"}), EMPTY)
        aug = traces(compile_to_lts(augmented, env), 6, include_tick=False)
        assert aug == plain


def test_refinement_agrees_with_brute_force_and_is_transitive():
    rng = random.Random(13)
    alphabet = frozenset({"a", "b"})
    checked = 0
    transitive_triples = 0
    while transitive_triples < 100:
        ms = [random_lts(rng) for _ in range(3)]
        verdicts = {}
        for i, spec in enumerate(ms):
            for j, impl in enumerate(ms):
                spec_fd = normalize_fd(spec)
                v = check_refinement_fd(spec_fd, impl)
                verdicts[(i, j)] = v.holds
                checked += 1
                if v.holds:
                    assert brute_refines(spec, impl, 6, alphabet), (i, j)
                else:
                    trace, _kind = v.counterexample
                    assert not brute_refines(spec, impl, max(len(trace), 1), alphabet), (i, j)
                    # Shortest, whatever its kind: no violation shows within one event less.
                    if trace:
                        assert brute_refines(spec, impl, len(trace) - 1, alphabet), (i, j)
                if i == j:
                    assert v.holds  # reflexivity
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    if verdicts[(i, j)] and verdicts[(j, k)]:
                        assert verdicts[(i, k)], (i, j, k)
        transitive_triples += 1
    assert checked >= 900


def test_counterexample_traces_replay_on_the_implementation():
    rng = random.Random(17)
    alphabet = frozenset({"a", "b"})
    for _ in range(200):
        spec, impl = random_lts(rng), random_lts(rng)
        v = check_refinement_fd(normalize_fd(spec), impl)
        if v.holds:
            continue
        trace, kind = v.counterexample
        behaviours = enumerate_behaviours(impl, len(trace) + 1, alphabet)
        assert tuple(trace) in behaviours.traces


def _refined(check, spec, impl, max_pairs=DEFAULT_MAX_STATES):
    """(holds, counterexample, explored, unmatched), or the message of a product-cap error."""
    try:
        v = check(spec, impl, max_pairs)
    except ResourceLimitError as exc:
        return str(exc)
    return v.holds, v.counterexample, v.explored, v.unmatched


def _agrees_with_the_reference(got, want, spec):
    """The engine's outcome (see ``_refined``) against the reference's, and
    how it differs.  They are equal, except where the reference returns an
    event the specification cannot perform (a trace ``spec`` cannot follow).
    The engine holds that violation until every pair as near is explored, so
    there it returns the same counterexample after exploring at least as
    many pairs ("explored"), a refusal or divergence one event shorter after
    exploring more ("shorter"), or the product cap its further search met
    ("capped later")."""
    if isinstance(want, str) or want[0] or node_after(spec, want[1][0]) is not None:
        return got == want, None
    if isinstance(got, str):
        return got.startswith("product cap "), "capped later"
    holds, (trace, kind), explored, unmatched = got
    if (trace, kind) == want[1]:
        return unmatched == () and explored >= want[2], "explored"
    shorter = len(trace) == len(want[1][0]) - 1 and node_after(spec, trace) is not None
    return not holds and shorter and explored > want[2], "shorter"


def test_refinement_matches_the_reference_search_on_random_pairs():
    rng = random.Random(31)
    seen = dict.fromkeys(("tau cycle", "tick", "divergent spec node", "holds", "divergence", "failure",
                          "unmatched", "capped"), 0)
    differs = dict.fromkeys(("explored", "shorter", "capped later", None), 0)
    for i in range(2400):
        alphabet = ("a", "b", "c")[: rng.randint(1, 3)]
        spec_lts, impl = (random_lts(rng, rng.choice((3, 5, 7)), alphabet) for _ in range(2))
        if i % 2:  # every second spec may also do anything, or stop: the search goes deeper
            n = spec_lts.n_states
            loose = [(s, a, s) for s in range(n) for a in (*alphabet, TICK)] + [(s, TAU, n) for s in range(n)]
            spec_lts = Lts(n + 1, spec_lts.transitions + loose)
        spec = normalize_fd(spec_lts)
        want = _refined(reference_refinement_fd, spec, impl)
        agrees, how = _agrees_with_the_reference(_refined(check_refinement_fd, spec, impl), want, spec)
        assert agrees, i
        differs[how] += 1
        holds, counterexample, _, unmatched = want
        seen["tau cycle"] += any(divergent_states(impl))
        seen["tick"] += any(TICK in ev for ev in impl.events)
        seen["divergent spec node"] += any(spec.divergent)
        seen["holds" if holds else counterexample[1]] += 1
        seen["unmatched"] += bool(unmatched)
        if i % 2 == 0:  # the same cap error, or verdict, at every cap up to the product's size
            for cap in range(1, spec.node_count * impl.n_states + 1):
                want = _refined(reference_refinement_fd, spec, impl, cap)
                agrees, how = _agrees_with_the_reference(_refined(check_refinement_fd, spec, impl, cap), want, spec)
                assert agrees, (i, cap)
                differs[how] += 1
                seen["capped"] += isinstance(want, str)
    assert min(seen.values()) >= 100, seen
    assert min(differs.values()) >= 50, differs  # 1080 (136 with more explored) / 240 / 55 / 6970


def test_a_tau_edge_that_shortens_a_pair_replaces_its_visible_edge():
    # (spec, 1) is first reached by `a`, then at distance 0 through 0 -τ-> 2 -τ-> 1
    spec = normalize_fd(Lts(2, [(0, "a", 0), (0, TAU, 1)]))  # may do `a` or stop, never `b`
    impl = Lts(3, [(0, "a", 1), (0, TAU, 2), (2, TAU, 1), (1, "b", 1)])
    want = (False, (("b",), "failure"), 3, ())
    assert _refined(check_refinement_fd, spec, impl) == _refined(reference_refinement_fd, spec, impl) == want


def test_a_refusal_at_the_same_distance_beats_an_event_the_spec_cannot_perform():
    # the spec must do `b` first; the implementation may terminate at once
    # (a `✓` the spec cannot perform, found first) or, after a tau, refuse `b`
    spec = normalize_fd(Lts(2, [(0, "b", 1), (1, "a", 1), (1, TICK, 1)]))
    impl = Lts(3, [(0, TICK, 1), (0, TAU, 2), (2, "a", 2)])
    assert _refined(check_refinement_fd, spec, impl) == (False, ((), "failure"), 2, ("a",))
    assert _refined(reference_refinement_fd, spec, impl) == (False, ((TICK,), "failure"), 1, ())


def test_discharge_preserves_order():
    plan = emit_plan("dt3.wrt")
    labels = [label for label, _ in discharge_assertions(plan.assertions, plan.definitions)]
    assert labels == [a.label for a in plan.assertions]


def test_divergent_states_match_brute_force():
    rng = random.Random(29)
    divergent = calm = 0
    for _ in range(600):
        lts = random_lts(rng, max_states=rng.randint(1, 12))
        got = divergent_states(lts)
        assert got == brute_divergent(lts), lts.transitions
        divergent += sum(got)
        calm += len(got) - sum(got)
    assert divergent > 200 and calm > 1000, (divergent, calm)
    # tau-dense: long tau paths, many cycles and cross edges
    divergent = calm = 0
    for _ in range(300):
        n, tau_share = rng.randint(1, 30), rng.uniform(0.3, 1.0)
        lts = Lts(n, [(s, TAU if rng.random() < tau_share else "a", rng.randrange(n))
                      for s in range(n) for _ in range(rng.randint(0, 3))])
        got = divergent_states(lts)
        assert got == brute_divergent(lts), lts.transitions
        divergent += sum(got)
        calm += len(got) - sum(got)
    assert divergent > 1000 and calm > 1000, (divergent, calm)


def test_divergence_through_states_the_search_finished_earlier():
    # From 0 the search finishes 1 and 3 (divergent: 3 loops) before it
    # reaches 2, whose only way to the loop is through 1; 4 is finished
    # safe before 5 reaches it
    lts = Lts(6, [(0, TAU, 1), (0, TAU, 2), (1, TAU, 3), (3, TAU, 3), (2, TAU, 1),
                  (4, "a", 0), (5, TAU, 4)])
    assert divergent_states(lts) == [True, True, True, True, False, False]
    assert divergent_states(lts) == brute_divergent(lts)


def test_divergence_at_the_end_of_a_long_tau_chain():
    n = 100_000
    chain = [(s, TAU, s + 1) for s in range(n - 1)]
    assert divergent_states(Lts(n, chain + [(n - 1, TAU, n - 2)])) == [True] * n
    assert divergent_states(Lts(n, chain)) == [False] * n


# --- the divergence certificate ----------------------------------------------


def _certified_sound(lts: Lts) -> bool:
    """Whether the LTS is certified; if it is, no state of it may diverge."""
    if lts.divergence_free:
        searched = divergent_states(Lts(lts.n_states, events=lts.events, targets=lts.targets))
        assert searched == brute_divergent(lts) == [False] * lts.n_states, lts.transitions
    return lts.divergence_free


def _random_corpus():
    """(operator term?, LTS) for 600 seeded random terms: every third a plain
    expression, the others operator terms, whose LTS is None where the state
    cap of 300 trips."""
    rng = random.Random(41)
    for i in range(600):
        if i % 3 == 0:
            yield False, expr_lts(random_expr(rng))
            continue
        term, env = random_operator_term(rng, depth=2 + i % 3)
        try:
            yield True, compile_to_lts(term, env, 300)
        except ResourceLimitError:
            yield True, None


def test_the_random_term_corpus_depends_on_the_seed_alone():
    # CI runs this under two string-hash seeds; each operator term's
    # (states, transitions), or "cap", is the same under both.  Re-pinned
    # when ``random_expr`` came to draw runs of 2 to 5 branches, which
    # changed the corpus (02b16a0d...86e0 before), and again when a |~| run
    # came to take one tau to each branch: 153 of the 400 terms, all with a
    # run of three or more, lost the states of their shortened runs
    # (183e176f...793b before)
    prints = ["cap" if lts is None else (lts.n_states, len(lts.transitions)) for op, lts in _random_corpus() if op]
    assert len(prints) == 400
    digest = hashlib.sha256(repr(prints).encode()).hexdigest()
    assert digest == "8b2a628268f7eaa842e5d0f0650a3b07b408cf48d64da2d58f66011dc8418e10"


def test_the_divergence_certificate_is_sound_on_random_terms():
    certified = refused = divergent_refused = 0
    for _, lts in _random_corpus():
        if lts is None:
            continue
        if _certified_sound(lts):
            certified += 1
        else:
            refused += 1
            divergent_refused += any(divergent_states(lts))
    assert certified >= 150 and refused >= 250 and divergent_refused >= 200, (
        certified, refused, divergent_refused)


def test_the_divergence_certificate_is_sound_on_fixtures_and_workloads():
    plans = [(f, emit_plan(f)) for f in FIXTURES_WITH_ASSERTIONS]
    plans += [(name, plan) for name, plan, _ in _generated_plans()]
    certified = sides = 0
    for name, plan in plans:
        for a in plan.assertions:
            for side in (a.spec_term, a.impl_term):
                certified += _certified_sound(compile_to_lts(side, plan.definitions))
                sides += 1
    assert certified >= 150 and sides - certified >= 20, (certified, sides)


A, P, Q = Ref("A"), Ref("P"), Ref("Q")


@pytest.mark.parametrize("term, env", [
    # a hiding anywhere, even under a prefix and where nothing diverges
    (Prefix("a", PHide(Prefix("b", EMPTY), frozenset({"b"}))), {}),
    # unguarded recursion: P = P, P = a -> STOP [] P, P = Q |~| SKIP with Q = P
    (P, {"P": P}),
    (P, {"P": PExt(Prefix("a", EMPTY), P)}),
    (P, {"P": InternalChoice((Q, SUCCESS)), "Q": P}),
    # a renaming onto tau, and a tau prefix
    (rename(A, {"a": TAU}), {"A": Prefix("a", A)}),
    (Prefix(TAU, EMPTY), {}),
    # a reference that cannot be resolved, even one never reached
    (PPar(EMPTY, frozenset({"a"}), Prefix("a", Ref("Missing"))), {}),
])
def test_the_divergence_certificate_refuses(term, env):
    assert not compile_to_lts(term, env).divergence_free


@pytest.mark.parametrize("term, env", [
    (P, {"P": Prefix("a", P)}),
    (P, {"P": InternalChoice((Prefix("a", P), SUCCESS))}),
    (P, {"P": PExt(Prefix("a", EMPTY), Q), "Q": Prefix("b", Q)}),
    # a reference under a prefix, however it recurses, is guarded
    (P, {"P": InternalChoice((Q, SUCCESS)), "Q": Prefix("a", P)}),
    (rename(PPar(P, frozenset({"a"}), Q), {"a": "c"}), {"P": Prefix("a", P), "Q": Prefix("a", Q)}),
])
def test_the_divergence_certificate_accepts_guarded_recursion_without_hiding(term, env):
    assert compile_to_lts(term, env).divergence_free


# --- one verdict per distinct assertion ------------------------------------------


def _generated_plans():
    """(name, plan, known verdicts) for star(2..4) and pipeline(5), passing and failing."""
    workloads = perfbench_workloads()
    cases = [(f"star({k})", workloads.star_case(k, "t", fail)) for k in (2, 3, 4) for fail in (None, 1)]
    cases += [("pipeline(5)", workloads.pipeline_case(5, "t", fail)) for fail in (False, True)]
    for name, case in cases:
        spec, warnings = parse_source(case.source)
        assert not warnings and not analyzer.analyze(spec) and not alphabets.annotate(spec)
        yield name, codegen.emit(spec), case.verdicts


def _unrewritten(assertion, env):
    """The verdict of ``assertion`` checked on its terms as written, without
    the unit law that ``check_assertion`` applies."""
    spec = normalize_fd(compile_to_lts(assertion.spec_term, env))
    return check_refinement_fd(spec, compile_to_lts(assertion.impl_term, env))


def _outcomes(results):
    return [(label, v.holds, v.counterexample, v.explored) for label, v in results]


def test_memoized_discharge_equals_checking_each_assertion(monkeypatch):
    plans = [(f, emit_plan(f), None) for f in FIXTURES_WITH_ASSERTIONS] + list(_generated_plans())
    checked = []

    def counting(*args):
        checked.append(args)
        return check_assertion(*args)

    monkeypatch.setattr(engine, "check_assertion", counting)
    reused = 0
    for name, plan, known in plans:
        each = [(a.label, check_assertion(a.spec_term, a.impl_term, plan.definitions))
                for a in plan.assertions]
        checked.clear()
        memoized = discharge_assertions(plan.assertions, plan.definitions)
        assert _outcomes(memoized) == _outcomes(each), name
        if known is not None:
            assert [(v.holds, v.counterexample) for _, v in memoized] == known, name
        assert len(checked) == len({id(v) for _, v in memoized}), name
        reused += len(plan.assertions) - len(checked)
        if name == "pipeline(5)":
            assert len(checked) == 11 < len(plan.assertions) == 19, len(checked)
    assert reused == 16, reused


# pipeline(5): the ``explored`` count of each assertion, in emission order: four
# port/computation checks, two role and one connector deadlock check, then the
# twelve attachments, Writer and Reader roles in turn.  ``Fwd`` observes
# nothing, so ``COMPIn`` (index 1) drops its SKIP sibling: its check explores
# 7 pairs, and 15 on the terms as written.
PIPELINE5_EXPLORED = [10, 7, 16, 6, 6, 4, 29] + [20, 12] * 6


@pytest.mark.parametrize("fail", [False, True])
def test_pipeline_attachments_share_pair_terms_and_keep_the_verdict_memo(monkeypatch, fail):
    spec, _ = parse_source(perfbench_workloads().pipeline_case(5, "t", fail).source)
    assert not analyzer.analyze(spec) and not alphabets.annotate(spec)
    plan = codegen.emit(spec)
    defs = plan.definitions
    by_pair: dict = {}
    for att in spec.attachments:
        pair = (att.left.point, att.right.point)
        port_plus = f"{att.left.instance}_{att.left.point}PLUS"
        role_plus = f"{att.right.instance}_{att.right.point}PLUS"
        det = defs[port_plus + "DET"]
        shared = (defs[port_plus], defs[role_plus], det.sync, det.right)
        for first, this in zip(by_pair.setdefault(pair, shared), shared):
            assert this is first, (pair, port_plus, role_plus)
    assert len(by_pair) == 4

    calls = []
    monkeypatch.setattr(engine, "check_assertion", lambda *a: calls.append(a) or check_assertion(*a))
    results = discharge_assertions(plan.assertions, plan.definitions)
    expected = [(True, None, n) for n in PIPELINE5_EXPLORED]
    if fail:
        expected[-1] = (False, (("read_t",), "failure"), 11)
    assert [(v.holds, v.counterexample, v.explored) for _, v in results] == expected
    assert len(calls) == 11
    assert _unrewritten(plan.assertions[1], defs).explored == 15


# --- the engine's error paths ---------------------------------------------------


def test_normalization_stops_at_its_node_cap():
    chain = compile_to_lts(Prefix("a", Prefix("b", Prefix("c", EMPTY))))
    assert normalize_fd(chain, 4).node_count == 4
    with pytest.raises(ResourceLimitError, match=r"^normalization cap 3 exceeded$"):
        normalize_fd(chain, 3)


def test_refinement_stops_at_its_product_cap():
    chain = compile_to_lts(Prefix("a", Prefix("b", Prefix("c", EMPTY))))
    spec = normalize_fd(chain)
    assert check_refinement_fd(spec, chain, 4).holds
    with pytest.raises(ResourceLimitError, match=r"^product cap 3 exceeded$"):
        check_refinement_fd(spec, chain, 3)


def test_a_reference_without_a_definition_is_an_engine_error():
    with pytest.raises(UnresolvedProcessError, match=r"^process reference 'Nope' has no definition$") as info:
        compile_to_lts(Prefix("a", Ref("Nope")), {})
    assert info.value.name == "Nope" and isinstance(info.value, EngineError)


# star(4), passing and failing on role 2: (holds, counterexample, explored) of
# each assertion in emission order (four port checks, four role and one
# connector deadlock check), then the connector implementation's LTS: its
# state and transition counts and the sha256 of ``repr(lts.transitions)``.
# The connector is the tau-heavy product of a glue and four roles.  No port
# observes anything, so each port check drops its three SKIP siblings; on the
# terms as written the port checks explore STAR4_UNREWRITTEN_PORTS pairs.
STAR4_PINS = {
    None: (
        [(True, None, n) for n in (7, 8, 9, 10, 5, 5, 5, 5, 514)],
        (515, 2051, "ed80c7bdf7ec1c78e7efaf58436e2d3972bfcfb6cf1c5a634a7ba4400221161b"),
    ),
    2: (
        [(True, None, n) for n in (7, 8, 9, 10, 5, 5, 5, 5)] + [(False, (("abstractEvent",), "failure"), 519)],
        (771, 2883, "9bb29aadea4d0bc9f1547cd23989e61e5cfcafc315dd25105a301d187f74ccc7"),
    ),
}
STAR4_UNREWRITTEN_PORTS = [57, 65, 73, 81]


@pytest.mark.parametrize("fail", [None, 2])
def test_only_the_star_checks_that_hide_search_for_divergence(monkeypatch, fail):
    spec, _ = parse_source(perfbench_workloads().star_case(4, "t", fail).source)
    assert not alphabets.annotate(spec)
    plan = codegen.emit(spec)
    searches: list[list[int]] = []  # per check: the sizes of the LTSs searched
    divergent = engine.divergent_states

    def checking(*args):
        searches.append([])
        return check_assertion(*args)

    def counting(lts):
        if not lts.divergence_free:
            searches[-1].append(lts.n_states)
        return divergent(lts)

    monkeypatch.setattr(engine, "check_assertion", checking)
    monkeypatch.setattr(engine, "divergent_states", counting)
    discharge_assertions(plan.assertions, plan.definitions)
    # four port checks (the computation hides the other ports), then four
    # role and one connector deadlock check, none of which may search
    assert [bool(s) for s in searches] == [True] * 4 + [False] * 5, searches


@pytest.mark.parametrize("fail", [None, 2])
def test_star_search_order_and_connector_lts_are_pinned(fail):
    spec, _ = parse_source(perfbench_workloads().star_case(4, "t", fail).source)
    assert not alphabets.annotate(spec)
    plan = codegen.emit(spec)
    results = discharge_assertions(plan.assertions, plan.definitions)
    verdicts, (n_states, n_transitions, digest) = STAR4_PINS[fail]
    assert [(v.holds, v.counterexample, v.explored) for _, v in results] == verdicts
    ports = plan.assertions[:4]
    assert [_unrewritten(a, plan.definitions).explored for a in ports] == STAR4_UNREWRITTEN_PORTS
    [connector] = [a for a in plan.assertions if a.label.endswith("Bus_tA")]
    lts = compile_to_lts(connector.impl_term, plan.definitions)
    transitions = lts.transitions
    assert (lts.n_states, len(transitions)) == (n_states, n_transitions)
    assert hashlib.sha256(repr(transitions).encode()).hexdigest() == digest


# The benchmark-size connector: (states, transitions, sha256 of repr(transitions), explored by its check)
STAR6_CONNECTOR_PINS = {
    None: (8195, 47107, "a2583de6682f0d684a24d9fa8609be83151967fb7cedac4f930a49380dc0b089", 8194),
    3: (12291, 66563, "d5cbd367bc23a9c3e9d2e9e23389d7a861f70c9f788890938012477641c2fe81", 8201),
}


@pytest.mark.parametrize("fail", [None, 3])
def test_the_star6_connector_lts_and_its_check_are_pinned(fail):
    spec, _ = parse_source(perfbench_workloads().star_case(6, "t", fail).source)
    assert not alphabets.annotate(spec)
    plan = codegen.emit(spec)
    [connector] = [a for a in plan.assertions if a.label.endswith("Bus_tA")]
    lts = compile_to_lts(connector.impl_term, plan.definitions)
    transitions = lts.transitions
    verdict = check_assertion(connector.spec_term, connector.impl_term, plan.definitions)
    n_states, n_transitions, digest, explored = STAR6_CONNECTOR_PINS[fail]
    assert (lts.n_states, len(transitions), verdict.explored) == (n_states, n_transitions, explored)
    assert hashlib.sha256(repr(transitions).encode()).hexdigest() == digest


# --- the unit law of interleaving, P ||| SKIP = P ------------------------------


def _with_skip_siblings(rng, term, env):
    """``term`` and ``env`` with a random sibling beside some operator positions
    of the term and of the operator definitions: ``SKIP``, a reference or a
    chain of references to ``SKIP`` (the law's operands), or ``STOP`` or a
    reference to ``b -> SKIP`` (not its operands), mostly under an empty sync
    set.  Also whether a sibling the law drops sits under a hiding or a
    renaming of the term."""
    env = dict(env, S0=SUCCESS, S1=Ref("S0"), N=Prefix("b", SUCCESS))
    siblings = [SUCCESS, Ref("S0"), Ref("S1"), EMPTY, Ref("N")]
    relabelled = False

    def wrap(t, under):
        nonlocal relabelled
        cls = type(t)
        if cls is PPar:
            t = PPar(wrap(t.left, under), t.sync, wrap(t.right, under))
        elif cls is PHide:
            t = PHide(wrap(t.inner, True), t.hidden)
        elif cls is PRename:
            t = PRename(wrap(t.inner, True), t.mapping)
        if rng.random() < 0.4:
            sibling = rng.choice(siblings)
            sync = frozenset() if rng.random() < 0.8 else frozenset({"a"})
            t = PPar(t, sync, sibling) if rng.random() < 0.5 else PPar(sibling, sync, t)
            relabelled |= under and not sync and sibling in siblings[:3]
        return t

    for name, body in list(env.items()):
        if type(body) in (PPar, PHide, PRename):
            env[name] = wrap(body, False)
    relabelled = False
    term = wrap(term, False)
    return term, env, relabelled


def test_the_unit_law_keeps_failures_divergences_on_random_operator_terms():
    rng = random.Random(31)
    alphabet = frozenset("abcd")  # a renaming may map onto d
    compared = fired = relabelled = 0
    for i in range(300):
        term, env, under = _with_skip_siblings(rng, *random_operator_term(rng, depth=2 + i % 2))
        rewritten = engine._drop_skip_siblings(term, env)
        assert not under or rewritten is not term
        try:
            full, short = (compile_to_lts(t, env, 400) for t in (term, rewritten))
        except ResourceLimitError:
            continue
        assert brute_refines(full, short, 4, alphabet) and brute_refines(short, full, 4, alphabet), term
        compared += 1
        fired += rewritten is not term
        relabelled += under
    assert compared >= 200 and fired >= 80 and relabelled >= 25, (compared, fired, relabelled)


def test_the_unit_law_fires_only_beside_skip_in_an_interleaving():
    a_skip = Prefix("a", SUCCESS)
    hidden = frozenset({"a"})
    env = {"S": SUCCESS, "T": Ref("S"), "N": Prefix("b", SUCCESS), "L": Ref("L"),
           "P": PHide(PPar(a_skip, frozenset(), Ref("T")), hidden), "Q": PHide(a_skip, hidden)}
    drop = engine._drop_skip_siblings
    for sibling in (SUCCESS, Ref("S"), Ref("T")):
        for term in (PPar(a_skip, frozenset(), sibling), PPar(sibling, frozenset(), a_skip)):
            assert drop(term, env) is a_skip
            assert drop(PHide(term, hidden), env) == PHide(a_skip, hidden)
            assert drop(rename(term, {"a": "b"}), env) == rename(a_skip, {"a": "b"})
    # a reference whose body changes becomes that body; one whose body does not stays
    assert drop(Ref("P"), env) == PHide(a_skip, hidden)
    assert drop(PPar(Ref("Q"), frozenset({"a"}), Ref("P")), env) == PPar(Ref("Q"), frozenset({"a"}), env["Q"])
    for term in (
        PPar(SUCCESS, frozenset({"a"}), Prefix("a", EMPTY)),  # a sync set: SKIP refuses a
        PPar(EMPTY, frozenset(), a_skip),  # STOP never terminates
        PPar(Ref("N"), frozenset(), a_skip),  # a reference to a definition that is not SKIP
        PPar(Ref("L"), frozenset(), a_skip),  # a cycle of references is not SKIP
        PPar(Ref("Nope"), frozenset(), a_skip),  # nor is a reference without a definition
        Prefix("b", PPar(SUCCESS, frozenset(), a_skip)),  # no operator position
        InternalChoice((PPar(SUCCESS, frozenset(), a_skip), EMPTY)),
    ):
        assert drop(term, env) is term, term
    deadlock = check_assertion(Prefix("a", EMPTY), PPar(SUCCESS, frozenset({"a"}), Prefix("a", EMPTY)), env)
    assert (deadlock.holds, deadlock.counterexample) == (False, ((), "failure"))
    with pytest.raises(UnresolvedProcessError, match="'Nope'"):
        check_assertion(a_skip, PPar(Ref("Nope"), frozenset(), a_skip), env)
    # unguarded recursion through operators still meets the nesting cap
    message = f"^operator nesting cap {engine.MAX_NESTING} exceeded$"
    for body in (PPar(Ref("R"), frozenset(), SUCCESS), PPar(SUCCESS, frozenset(), Ref("R"))):
        with pytest.raises(ResourceLimitError, match=message):
            check_assertion(a_skip, Ref("R"), {"R": body})
    # each definition is rewritten once, however often the term reaches it
    with pytest.raises(ResourceLimitError, match="^state cap 1000 exceeded$"):
        check_assertion(a_skip, Ref("R"), {"R": PPar(Ref("R"), frozenset({"a"}), Ref("R"))}, 1000)


def test_the_unit_law_leaves_every_verdict_unchanged():
    workloads = perfbench_workloads()
    plans = [(f, emit_plan(f)) for f in FIXTURES_WITH_ASSERTIONS]
    cases = [(f"star({k}, {fail})", workloads.star_case(k, "t", fail)) for k in range(2, 7) for fail in (None, 1)]
    cases += [("pipeline(5)", workloads.pipeline_case(5, "t", False)),
              ("pipeline(20, fail)", workloads.pipeline_case(20, "t", True))]
    for name, case in cases:
        spec, _ = parse_source(case.source)
        assert not analyzer.analyze(spec) and not alphabets.annotate(spec)
        plans.append((name, codegen.emit(spec)))
    applied = {}
    for name, plan in plans:
        env = plan.definitions
        for a in plan.assertions:
            v, w = check_assertion(a.spec_term, a.impl_term, env), _unrewritten(a, env)
            assert (v.holds, v.counterexample, v.unmatched) == (w.holds, w.counterexample, w.unmatched), a.label
            if any(engine._drop_skip_siblings(t, env) is not t for t in (a.spec_term, a.impl_term)):
                applied[name] = applied.get(name, 0) + 1
    stars = {f"star({k}, {fail})": k for k in range(2, 7) for fail in (None, 1)}
    assert applied == {"calculformule.wrt": 1, "double.wrt": 1, **stars, "pipeline(5)": 1, "pipeline(20, fail)": 1}


def test_the_unit_law_stops_at_the_nesting_cap_of_a_deep_chain():
    # D0 = D1 ||| a -> STOP, ..., D599 = D600 ||| a -> STOP, D600 = SKIP: the
    # rewrite stops MAX_NESTING levels down instead of overflowing the stack,
    # and the chain's interleaved prefixes meet the state cap
    env = {f"D{i}": PPar(Ref(f"D{i + 1}"), frozenset(), Prefix("a", EMPTY)) for i in range(600)}
    env |= {"D600": SUCCESS, **dfa_definitions()}
    deep = SimpleNamespace(label="assert DFA [FD= D0", spec_term=Ref("DFA"), impl_term=Ref("D0"), key=None)
    ((label, error),) = assertion_verdicts([deep], env, 1000)
    assert label == deep.label
    assert isinstance(error, ResourceLimitError) and str(error) == "state cap 1000 exceeded"


def test_a_hand_built_external_choice_is_an_engine_term():
    # written order, a nested run and a repeated branch: the same process as its canonical form
    a, b, x = Prefix("a", EMPTY), Prefix("b", SUCCESS), Ref("X")
    written = ExternalChoice((b, ExternalChoice((x, a)), b))
    canonical = PExt(written)
    assert canonical.branches == (a, b, x)
    env = {"X": Prefix("c", Ref("X"))}
    assert _compiled_as_reference(written, env)[:4] == [(0, "b", 1), (0, TAU, 2), (0, "a", 3), (0, "b", 1)]
    for spec, impl in ((written, canonical), (canonical, written)):
        assert check_assertion(spec, impl, env).holds
    assert not check_assertion(written, ExternalChoice((a, x)), env).holds


def test_an_internal_choice_run_takes_one_tau_to_each_branch():
    # in written order; the chain the text prints, ((a |~| b) |~| c), has one
    # state more, for its inner run
    a, b, c = (Prefix(e, EMPTY) for e in "abc")
    assert _compiled_as_reference(InternalChoice((a, b, c))) == [
        (0, TAU, 1), (0, TAU, 2), (0, TAU, 3), (1, "a", 4), (2, "b", 4), (3, "c", 4)]
    assert _compiled_as_reference(InternalChoice((InternalChoice((a, b)), c))) == [
        (0, TAU, 1), (0, TAU, 2), (1, TAU, 3), (1, TAU, 4), (2, "c", 5), (3, "a", 5), (4, "b", 5)]
    # the run, 1 000 prefixes and STOP: no state for a run cut short
    long = InternalChoice(tuple(Prefix(f"e{i}", EMPTY) for i in range(1000)))
    assert compile_to_lts(long).n_states == 1002
    assert check_assertion(long, long, {}).holds


def _left_nested(term):
    """``term`` with every ``|~|`` run of three or more branches nested to the
    left, as the text prints it: binary choices only."""
    cls = type(term)
    if cls is InternalChoice:
        head, *rest = map(_left_nested, term.branches)
        for branch in rest:
            head = InternalChoice((head, branch))
        return head
    if cls is ExternalChoice:
        return ExternalChoice(tuple(map(_left_nested, term.branches)))
    if cls is Prefix:
        return Prefix(term.event, _left_nested(term.rest))
    if cls is PPar:
        return PPar(_left_nested(term.left), term.sync, _left_nested(term.right))
    if cls is PRename:
        return PRename(_left_nested(term.inner), term.mapping)
    if cls is PHide:
        return PHide(_left_nested(term.inner), term.hidden)
    return term


def test_a_flat_internal_run_is_failures_divergences_equal_to_its_left_nested_chain():
    # internal choice is associative (Roscoe, Understanding Concurrent Systems,
    # 2010); the bounded brute-force check reads both LTSs and neither stepper
    from wright2csp.codegen import process_term
    from oracles import SELF

    rng = random.Random(37)
    alphabet = frozenset("abcd")  # a renaming may map onto d
    compared = nested = 0
    for i in range(400):
        if i % 2:
            term, env = random_operator_term(rng, depth=2 + i % 4 // 2)
        else:
            term = process_term(random_expr(rng), {})
            env = {SELF: term}
        chain, chain_env = _left_nested(term), {n: _left_nested(t) for n, t in env.items()}
        try:
            flat, binary = compile_to_lts(term, env, 400), compile_to_lts(chain, chain_env, 400)
        except ResourceLimitError:
            continue
        assert brute_refines(flat, binary, 4, alphabet) and brute_refines(binary, flat, 4, alphabet), term
        compared += 1
        nested += flat.n_states != binary.n_states
    assert compared >= 300 and nested >= 100, (compared, nested)


def test_erroring_duplicate_is_rechecked_and_names_itself():
    env = {}
    assertions = []
    for i in (1, 2):
        env[f"A{i}"] = Prefix("a", Ref(f"A{i}"))
        env[f"S{i}"] = PExt(PPar(Ref(f"A{i}"), frozenset(), EMPTY), Prefix("c", EMPTY))
        # equal keys: were the verdict not an error, the second would reuse it
        assertions.append(SimpleNamespace(label=f"assert {i}", spec_term=Ref(f"S{i}"),
                                          impl_term=Ref(f"S{i}"), key="S"))
    (label1, err1), (label2, err2) = assertion_verdicts(assertions, env)
    assert isinstance(err1, EngineError) and isinstance(err2, EngineError)
    assert (label1, label2) == ("assert 1", "assert 2")
    assert "A1" in str(err1) and "A2" in str(err2) and "A1" not in str(err2)
    with pytest.raises(EngineError, match="A1"):
        discharge_assertions(assertions, env)
    # a verdict that is no error is reused by the next assertion of its key
    same = [SimpleNamespace(label=f"assert {i}", spec_term=Ref(f"A{i}"), impl_term=Ref(f"A{i}"), key="A")
            for i in (1, 2)]
    (_, v1), (_, v2) = assertion_verdicts(same, env)
    assert v1.holds and v2 is v1


class _Unknown(ProcessExpr):
    """A process term the engine has no rule for."""

    __slots__ = ()


def test_an_unknown_term_is_an_engine_error_of_its_own_assertion():
    unknown = _Unknown()
    assertions = [SimpleNamespace(label=f"assert {i}", spec_term=term, impl_term=term, key=None)
                  for i, term in enumerate((unknown, Prefix("a", EMPTY)))]
    (_, error), (_, verdict) = assertion_verdicts(assertions, {})
    assert isinstance(error, EngineError) and "unknown process term" in str(error)
    assert verdict.holds


# Attachments ``A_x.y`` and ``A.x_y`` both want the port process name
# ``A_x_yPLUS``; the second gets ``A_x_yPLUSP2_Reader``, owned by its role end.
# Attachment 3 has attachment 1's (port, role) pair, and so its verdict.
CLASH_SOURCE = """Configuration Clash
Component Good
  Port y = a -> y
  Computation = y.a -> Computation
Component Bad
  Port x_y = b -> x_y
  Computation = x_y.b -> Computation
Connector Pipe
  Role Reader = a -> Reader
  Glue = Reader.a -> Glue
Instances
  A_x : Good
  A : Bad
  B : Good
  P1 : Pipe
  P2 : Pipe
  P3 : Pipe
Attachments
  A_x.y As P1.Reader
  A.x_y As P2.Reader
  B.y As P3.Reader
End Configuration
"""


def test_clashing_attachment_names_keep_the_verdict_and_pair_keys(tmp_path, capsys):
    spec, _ = parse_source(CLASH_SOURCE)
    assert not analyzer.analyze(spec) and not alphabets.annotate(spec)
    plan = codegen.emit(spec)
    assert plan.diagnostics == []
    assert [a.key for a in plan.assertions][-3:] == ["y Reader", "x_y Reader", "y Reader"]
    each = [(a.label, check_assertion(a.spec_term, a.impl_term, plan.definitions))
            for a in plan.assertions]
    assert _outcomes(discharge_assertions(plan.assertions, plan.definitions)) == _outcomes(each)

    path = tmp_path / "clash.wrt"
    path.write_text(CLASH_SOURCE)
    assert main(["check", str(path)]) == 1
    attachments = capsys.readouterr().out.splitlines()[-3:]
    assert attachments == [
        "PASS  assert P1_ReaderPLUS [FD= A_x_yPLUSDET",
        "FAIL  assert P2_ReaderPLUS [FD= A_x_yPLUSP2_ReaderDET  (failure after trace <<empty>>)",
        "PASS  assert P3_ReaderPLUS [FD= B_yPLUSDET",
    ]


# Specs where two Wright elements want one output name, each beside the same
# spec with the clash renamed apart: an attachment's port process
# (``A_x_yPLUS``), one port attached twice (``B_InputPLUS``), a role's
# deadlock check and its connector (``RA``), a where-local and another port's
# renamed process (``OutG``), and a role's determinized form and another
# role's process (``ROLERDET``).
RULE6 = (Path(__file__).parent / "fixtures" / "rule6.wrt").read_text()
ROLE_CHECK = (
    "Style S\nConnector RA\n  Role R = _a -> R |~| TICK\n  Glue = R.a -> Glue [] TICK\nConstraints\nEnd Style\n"
)
LOCAL_G = (
    "Style S\nComponent C\n  Port In = a -> OutG where { OutG = b -> In }\n  Port Out = c -> Out\n"
    "  Computation = In.a -> In.b -> Out.c -> Computation\nConstraints\nEnd Style\n"
)
ROLES_DET = """Configuration Cfg
Component Cm
  Port P = _a -> P |~| TICK
  Port Q = _b -> Q |~| TICK
  Computation = _P.a -> _Q.b -> Computation |~| TICK
Connector K
  Role R = _a -> R |~| TICK
  Role RDET = _b -> RDET |~| TICK
  Glue = R.a -> Glue [] RDET.b -> Glue [] TICK
Instances
  c : Cm
  k : K
Attachments
  c.P As k.R
  c.Q As k.RDET
End Configuration
"""
CLASHES = {
    "attachment": (CLASH_SOURCE, CLASH_SOURCE.replace("A_x", "C")),
    "rule6": (
        RULE6, RULE6.replace("C : Ctype", "C : Ctype\n  B2 : Btype").replace("B.Input As C.T", "B2.Input As C.T")
    ),
    "role check": (ROLE_CHECK, ROLE_CHECK.replace("RA", "K")),
    "where-local": (LOCAL_G, LOCAL_G.replace("OutG", "M")),
    "role DET": (ROLES_DET, ROLES_DET.replace("RDET", "S")),
}


def _names_and_verdicts(source):
    """The names the emitted text defines, and (holds, trace length) per assertion."""
    spec, _ = parse_source(source)
    assert not analyzer.has_errors(analyzer.analyze(spec) + alphabets.annotate(spec))
    plan = codegen.emit(spec)
    verdicts = [v if isinstance(v, EngineError) else (v.holds, len(v.counterexample[0]) if v.counterexample else 0)
                for _, v in assertion_verdicts(plan.assertions, plan.definitions)]
    return re.findall(r"^(\w+) = ", plan.text, re.MULTILINE), verdicts


@pytest.mark.parametrize("case", CLASHES)
def test_a_name_two_elements_want_is_defined_once_and_keeps_the_verdicts(case):
    source, apart = CLASHES[case]
    names, verdicts = _names_and_verdicts(source)
    assert len(names) == len(set(names))
    assert verdicts == _names_and_verdicts(apart)[1]
