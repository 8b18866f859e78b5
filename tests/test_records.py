"""Contract of the package's record and value classes.

Engine terms and the behavioural AST are immutable, hashable values; the
structural model, diagnostics, assertions and results are mutable records.
Both kinds print, compare and construct as dataclasses would: the ``repr``
fixes transition order (``PExt`` sorts branches by it), so it is pinned here
byte for byte.
"""

import inspect
import os
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

import wright2csp
from wright2csp import analyzer, codegen
from wright2csp.codegen import Assertion, AssertionKind, EmitPlan
from wright2csp.engine import (
    FdModel,
    PExt,
    PHide,
    PPar,
    PRename,
    RefinementVerdict,
    rename,
)
from wright2csp.model import (
    EMPTY,
    SUCCESS,
    Attachment,
    Component,
    Configuration,
    Connector,
    Declaration,
    DeclKind,
    Diagnostic,
    Empty,
    ExternalChoice,
    Instance,
    InterfaceRef,
    InternalChoice,
    Prefix,
    Ref,
    SourcePos,
    Style,
    Success,
)

SRC = Path(__file__).resolve().parents[1] / "src"
POS = SourcePos(2, 3)
NO_POS = "pos=SourcePos(line=1, column=1)"


def _decl(kind, name, body):
    return Declaration(kind, name, body)


# (value, its exact repr); each value class appears at least once.
VALUES = [
    (Prefix("In.read", Ref("P"), True), "Prefix(event='In.read', rest=Ref(name='P'), initiated=True)"),
    (
        ExternalChoice((Ref("A"), SUCCESS, Ref("A"))),  # written order, repeats kept
        "ExternalChoice(branches=(Ref(name='A'), Success(), Ref(name='A')))",
    ),
    (InternalChoice((EMPTY, Ref("B"))), "InternalChoice(branches=(Empty(), Ref(name='B')))"),
    (Ref("P"), "Ref(name='P')"),
    (Success(), "Success()"),
    (Empty(), "Empty()"),
    (
        PPar(Ref("A"), frozenset({"a"}), Ref("B")),
        "PPar(left=Ref(name='A'), sync=frozenset({'a'}), right=Ref(name='B'))",
    ),
    (rename(Ref("A"), {"b": "x", "a": "x"}), "PRename(inner=Ref(name='A'), mapping=(('a', 'x'), ('b', 'x')))"),
    (PHide(Ref("A"), frozenset({"a"})), "PHide(inner=Ref(name='A'), hidden=frozenset({'a'}))"),
]

# (record built positionally, the same record built by keyword, its exact repr)
RECORDS = [
    (
        Declaration(DeclKind.PORT, "In", Ref("In")),
        Declaration(kind=DeclKind.PORT, name="In", body=Ref("In")),
        f"Declaration(kind=<DeclKind.PORT: 'Port'>, name='In', body=Ref(name='In'), locals=[], {NO_POS}, alphabet=None)",
    ),
    (
        Component("C", [], _decl(DeclKind.COMPUTATION, "Computation", SUCCESS), POS),
        Component(name="C", ports=[], computation=_decl(DeclKind.COMPUTATION, "Computation", SUCCESS), pos=POS),
        "Component(name='C', ports=[], computation=Declaration(kind=<DeclKind.COMPUTATION: 'Computation'>, "
        f"name='Computation', body=Success(), locals=[], {NO_POS}, alphabet=None), "
        "pos=SourcePos(line=2, column=3), total_alphabet=None)",
    ),
    (
        Connector("K", [], _decl(DeclKind.GLUE, "Glue", EMPTY)),
        Connector(name="K", roles=[], glue=_decl(DeclKind.GLUE, "Glue", EMPTY)),
        "Connector(name='K', roles=[], glue=Declaration(kind=<DeclKind.GLUE: 'Glue'>, name='Glue', "
        f"body=Empty(), locals=[], {NO_POS}, alphabet=None), {NO_POS}, total_alphabet=None)",
    ),
    (
        Instance("c", "C", POS),
        Instance(name="c", type_name="C", pos=POS),
        "Instance(name='c', type_name='C', pos=SourcePos(line=2, column=3))",
    ),
    (
        InterfaceRef("c", "In"),
        InterfaceRef(instance="c", point="In"),
        f"InterfaceRef(instance='c', point='In', {NO_POS})",
    ),
    (
        Attachment(InterfaceRef("c", "In"), InterfaceRef("k", "R")),
        Attachment(left=InterfaceRef("c", "In"), right=InterfaceRef("k", "R")),
        f"Attachment(left=InterfaceRef(instance='c', point='In', {NO_POS}), "
        f"right=InterfaceRef(instance='k', point='R', {NO_POS}), port=None, role=None)",
    ),
    (
        Configuration("Cfg", [], [], []),
        Configuration(name="Cfg", types=[], instances=[], attachments=[]),
        f"Configuration(name='Cfg', types=[], instances=[], attachments=[], {NO_POS}, event_names=[])",
    ),
    (Style("S", []), Style(name="S", types=[]), f"Style(name='S', types=[], {NO_POS}, event_names=[])"),
    (
        FdModel(0, [False], [(frozenset({"a"}),)], {(0, "a"): 0}),
        FdModel(initial=0, divergent=[False], acceptances=[(frozenset({"a"}),)], transitions={(0, "a"): 0}),
        "FdModel(initial=0, divergent=[False], acceptances=[(frozenset({'a'}),)], transitions={(0, 'a'): 0})",
    ),
    (
        RefinementVerdict(False, (("a",), "failure"), 3),
        RefinementVerdict(holds=False, counterexample=(("a",), "failure"), explored=3),
        "RefinementVerdict(holds=False, counterexample=(('a',), 'failure'), explored=3, unmatched=())",
    ),
    (
        Diagnostic("error", POS, "bad", 1),
        Diagnostic(severity="error", pos=POS, message="bad", rule=1),
        "Diagnostic(severity='error', pos=SourcePos(line=2, column=3), message='bad', rule=1)",
    ),
    (
        Assertion(AssertionKind.PORT_ROLE, "assert A [FD= B", Ref("A"), Ref("B"), "p r"),
        Assertion(
            kind=AssertionKind.PORT_ROLE,
            label="assert A [FD= B",
            spec_term=Ref("A"),
            impl_term=Ref("B"),
            key="p r",
        ),
        "Assertion(kind=<AssertionKind.PORT_ROLE: 'P8'>, label='assert A [FD= B', spec_term=Ref(name='A'), "
        "impl_term=Ref(name='B'), key='p r')",
    ),
    (
        EmitPlan("text", [], {"A": EMPTY}),
        EmitPlan(text="text", assertions=[], equations={"A": EMPTY}),
        "EmitPlan(text='text', assertions=[], equations={'A': Empty()}, diagnostics=[])",
    ),
]


def _fields(obj):
    """Field names in declaration order: the constructor's parameters."""
    return list(inspect.signature(type(obj)).parameters)


# The engine states that Wright behaviour lowers to, one per engine class
# these model values replaced and under its name: lowering keeps the term's
# class, resolves its names and drops prefix polarity.
LOWERED = [
    ("PStop", codegen.process_term(Empty(), {}), "Empty()"),
    ("PSkip", codegen.process_term(Success(), {}), "Success()"),
    (
        "PPrefix",
        codegen.process_term(Prefix("a", Prefix("b", EMPTY, True), True), {}),
        "Prefix(event='a', rest=Prefix(event='b', rest=Empty(), initiated=False), initiated=False)",
    ),
    (
        "PInt",
        # a run whose first branch is a run of the same operator is one run to the engine
        codegen.process_term(InternalChoice((InternalChoice((Ref("A"), SUCCESS)), Ref("B"))), {}),
        "InternalChoice(branches=(Ref(name='A'), Success(), Ref(name='B')))",
    ),
    (
        "PExtN",
        codegen.process_term(ExternalChoice((Prefix("b", SUCCESS), Ref("X"), Prefix("a", EMPTY, True))), {}),
        "ExternalChoice(branches=(Prefix(event='a', rest=Empty(), initiated=False), "
        "Prefix(event='b', rest=Success(), initiated=False), Ref(name='X')))",
    ),
    ("PRef", codegen.process_term(Ref("A"), {"A": "C_A"}), "Ref(name='C_A')"),
]
VALUES += [(value, text) for _, value, text in LOWERED]

VALUE_IDS = [type(case[0]).__name__ for case in VALUES[: -len(LOWERED)]] + [case[0] for case in LOWERED]
RECORD_IDS = [type(case[0]).__name__ for case in RECORDS]


def _shows_fields_in_order(obj, text):
    """The repr names every field, in constructor order, as a keyword."""
    at = text.find("(")
    for name in _fields(obj):
        at = text.find(f"{name}=", at)
        if at < 0:
            return False
    return text.startswith(f"{type(obj).__name__}(")


@pytest.mark.parametrize("value, text", VALUES, ids=VALUE_IDS)
def test_value_repr_is_pinned(value, text):
    assert repr(value) == text
    assert _shows_fields_in_order(value, text)


@pytest.mark.parametrize("record, by_keyword, text", RECORDS, ids=RECORD_IDS)
def test_record_repr_is_pinned(record, by_keyword, text):
    assert repr(record) == text
    assert repr(by_keyword) == text
    assert _shows_fields_in_order(record, text)


def test_pext_orders_branches_by_repr():
    a, b, x = Prefix("a", EMPTY), Prefix("b", SUCCESS), Ref("X")
    for operands in [(b, x, a), (x, a, b), (a, PExt(x, b)), (ExternalChoice((x, ExternalChoice((b, a, b)))),)]:
        assert PExt(*operands).branches == (a, b, x)
    assert PExt(a, a) is a


@pytest.mark.parametrize("value, text", VALUES, ids=VALUE_IDS)
def test_values_compare_and_hash_by_their_fields(value, text):
    again = eval(text)  # the repr rebuilds an equal, separate value (PRename is imported for it)
    assert again == value and again is not value
    assert hash(again) == hash(value)
    assert {value: 1}[again] == 1
    assert value != object() and value.__eq__(object()) is NotImplemented


def test_equality_ignores_prefix_polarity_and_never_crosses_classes():
    assert Prefix("a", SUCCESS, True) == Prefix("a", SUCCESS, False)
    assert hash(Prefix("a", SUCCESS, True)) == hash(Prefix("a", SUCCESS))
    assert Prefix("a", SUCCESS) != Prefix("a", EMPTY)
    assert Success() != Empty() and Success().__eq__(Empty()) is NotImplemented
    assert Success() == SUCCESS and Empty() == EMPTY
    assert ExternalChoice((Ref("A"), SUCCESS)) != InternalChoice((Ref("A"), SUCCESS))
    assert len({EMPTY, SUCCESS, EMPTY, Success(), Empty(), SUCCESS}) == 2


@pytest.mark.parametrize("value, text", VALUES, ids=VALUE_IDS)
def test_values_are_immutable(value, text):
    for name in _fields(value):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


@pytest.mark.parametrize("record, by_keyword, text", RECORDS, ids=RECORD_IDS)
def test_records_are_mutable_unhashable_and_compare_by_fields(record, by_keyword, text):
    assert record == by_keyword and record is not by_keyword
    assert record != object() and record.__eq__(object()) is NotImplemented
    with pytest.raises(TypeError):
        hash(record)
    for name in _fields(record):
        setattr(by_keyword, name, "changed")
        assert getattr(by_keyword, name) == "changed"
        assert record != by_keyword
        setattr(by_keyword, name, getattr(record, name))
        assert record == by_keyword


def test_default_lists_are_fresh_per_record():
    pairs = [
        (Declaration(DeclKind.PORT, "P", SUCCESS), Declaration(DeclKind.PORT, "P", SUCCESS), "locals"),
        (Configuration("C", [], [], []), Configuration("C", [], [], []), "event_names"),
        (Style("S", []), Style("S", []), "event_names"),
        (EmitPlan("", [], {}), EmitPlan("", [], {}), "diagnostics"),
    ]
    for first, second, name in pairs:
        getattr(first, name).append("x")
        assert getattr(second, name) == []


def test_defaults_match_the_dataclass_signatures():
    assert RefinementVerdict(True) == RefinementVerdict(True, None, 0, ())
    assert Diagnostic("warning", POS, "m") == Diagnostic("warning", POS, "m", None)
    kind = AssertionKind.ROLE_DEADLOCK_FREE
    assert Assertion(kind, "l", EMPTY, EMPTY) == Assertion(kind, "l", EMPTY, EMPTY, None)
    assert Declaration(DeclKind.ROLE, "R", SUCCESS) == Declaration(DeclKind.ROLE, "R", SUCCESS, [], SourcePos())
    assert Prefix("a", SUCCESS).initiated is False


def test_record_helpers_survive():
    assert wright2csp.Diagnostic is analyzer.Diagnostic is Diagnostic  # defined once, in model
    assert str(InterfaceRef("c", "In")) == "c.In"
    assert str(Diagnostic("error", POS, "bad", 1)) == "2:3: error: rule=1 bad"
    assert not RefinementVerdict(False) and RefinementVerdict(True)
    assert FdModel(0, [False, True], [(), ()], {}).node_count == 2


def test_emit_plan_definitions_are_computed_once(monkeypatch):
    lowered = []

    def counting_process_term(expr, names):
        lowered.append(expr)
        return Ref(names.get(expr.name, expr.name))

    monkeypatch.setattr(codegen, "process_term", counting_process_term)
    plan = EmitPlan("A = B", [], {"A": (Ref("B"), {}), "S": EMPTY})
    assert isinstance(vars(EmitPlan)["definitions"], cached_property)
    first = plan.definitions
    assert first == {"A": Ref("B"), "S": EMPTY}
    assert plan.definitions is first and lowered == [Ref("B")]
    # the cached lowering is not a field: it changes neither repr nor equality
    assert plan == EmitPlan("A = B", [], {"A": (Ref("B"), {}), "S": EMPTY})
    assert "definitions" not in repr(plan)


# --- start-up: the classes are written out, not generated at import ---------------

LAYERS = ["model", "parser", "analyzer", "alphabets", "transform", "codegen", "engine"]


def test_import_loads_every_layer_and_no_class_generator():
    # -S keeps site hooks (.pth files) from importing anything first
    code = "import sys, wright2csp; print(' '.join(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    loaded = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert [layer for layer in LAYERS if f"wright2csp.{layer}" not in loaded] == []
    assert "dataclasses" not in loaded and "inspect" not in loaded


@pytest.mark.parametrize("obj", [case[0] for case in VALUES + RECORDS], ids=VALUE_IDS + RECORD_IDS)
def test_every_class_declares_its_slots(obj):
    assert "__slots__" in vars(type(obj))
    # EmitPlan keeps a __dict__ only for its cached lowering
    assert hasattr(obj, "__dict__") == (type(obj) is EmitPlan)
