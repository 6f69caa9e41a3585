import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from memlang import bigraph as B
from memlang import denot as D
from memlang import opsem as O
from memlang import progen as P
from memlang import syntax as S
from memlang import typecheck as TC
from memlang.dist import ONE, FinDist

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = ROOT / "programs"
THIRD = Fraction(1, 3)


def load(name: str) -> S.Comp:
    return S.parse_program((PROGRAMS / name).read_text())


def terminal() -> O.Configuration:
    return O.enumerate_bigstep(load("golden_trace.mem")).items()[0][0]


# Each builder makes a new value, structurally equal to the last one it made.
BUILDERS = {
    "term": lambda: load("golden_trace.mem"),
    "marker": lambda: S.MemoCtx(S.Return(S.Var("y")), 0, 1, O.FrozenMap({"x": O.AtomV(1)})),
    "value": lambda: O.PairV(O.AtomV(0), O.PairV(O.FunV(1), O.BoolV(True))),
    "env": lambda: O.FrozenMap({"b": O.BoolV(False), "a": O.AtomV(2)}),
    "closure": lambda: O.Closure("y", S.parse_program("flip(1/3)"), O.FrozenMap({"a": O.AtomV(0)})),
    "configuration": terminal,
    "observation": lambda: O.observe(terminal()),
    "pending": lambda: B.Pending(THIRD),
    "graph": lambda: B.PartialBigraph([0], [0, 1], {(0, 0): None, (0, 1): True}),
    "world": lambda: B.TotalBigraph([0], [0], {(0, 0): B.Pending(THIRD)}),
    "class": lambda: D.den_program(load("sound/memo_pair.mem")).items()[0][0],
}


@pytest.mark.parametrize("hashed_first", ["neither", "first", "second", "both"])
@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_equal_values_built_apart_hash_equal(kind, hashed_first):
    a, b = BUILDERS[kind](), BUILDERS[kind]()
    assert a is not b
    if hashed_first in ("first", "both"):
        hash(a)
    if hashed_first in ("second", "both"):
        hash(b)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a: 1, b: 2}) == 1


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_hashed_values_keep_no_instance_dict(kind):
    # the kept hash lives in a slot, so it costs no per-instance dict
    assert not hasattr(BUILDERS[kind](), "__dict__")


def pending_class() -> D.CanonicalClass:
    world = B.TotalBigraph([0], [0], {(0, 0): B.Pending(THIRD)})
    return D.canonicalize(D.EMPTY_WORLD, world, O.PairV(O.FunV(0), O.AtomV(0)), {0: THIRD})


def test_drawn_class_does_not_keep_a_stale_hash():
    cls = pending_class()
    assert cls.pending() == {(0, 0): THIRD}
    hash(cls)
    drawn = cls.drawn({(0, 0): True})
    built = D.CanonicalClass(
        cls.base, cls.value, cls.fresh_funs, cls.fresh_biases, cls.fresh_atoms, ((0, 0, True),)
    )
    assert drawn != cls
    assert drawn == built and hash(drawn) == hash(built)


def test_replaced_class_does_not_keep_a_stale_hash():
    cls = pending_class()
    hash(cls)
    replaced = cls._replace(fresh_biases=(Fraction(1, 4),))
    built = pending_class()._replace(fresh_biases=(Fraction(1, 4),))
    assert replaced != cls
    assert replaced == built and hash(replaced) == hash(built)


@pytest.mark.parametrize("a, b", [
    (O.FunV(1), O.AtomV(1)),
    (O.BoolV(True), S.BoolLit(True)),
    (S.Var("x"), S.Return(S.Var("x"))),
    (O.EMPTY_MAP, B.empty()),
    (B.Pending(THIRD), THIRD),
    # a class is a named tuple, and hashes as the tuple of its fields does
    (BUILDERS["class"](), tuple(BUILDERS["class"]())),
])
def test_values_of_different_types_stay_unequal(a, b):
    hash(a), hash(b)
    assert a != b and b != a
    assert len({a: 1, b: 2}) == 2


# ---------------------------------------------------------------------------
# The node contract: every node, value, configuration, pending edge, product
# type and report class, with a sample value's exact repr, its field names,
# and constructor arguments for another value of the same class.

HALF_ = Fraction(1, 2)
GRAPH = lambda: B.PartialBigraph([0], [0], {(0, 0): True})  # noqa: E731
TRUE_CLASS = "CanonicalClass(base=TotalBigraph(left=[], right=[], edges=[]), value=BoolV(value=True), fresh_funs=(), fresh_biases=(), fresh_atoms=(), ext_edges=())"


def _dist():
    # merged by the constructor, as the checker's reports are
    return FinDist({D.canonicalize(D.EMPTY_WORLD, D.EMPTY_WORLD, O.BoolV(True), {}): ONE})


# name -> (class, builder of the constructor arguments, field names, repr)
NODES = {
    "BoolLit": (S.BoolLit, lambda: (True,), ("value",), "BoolLit(value=True)"),
    "Var": (S.Var, lambda: ("x",), ("name",), "Var(name='x')"),
    "PairVal": (S.PairVal, lambda: (S.BoolLit(False), S.Var("y")), ("fst", "snd"),
                "PairVal(fst=BoolLit(value=False), snd=Var(name='y'))"),
    "Return": (S.Return, lambda: (S.Var("x"),), ("value",), "Return(value=Var(name='x'))"),
    "Let": (S.Let, lambda: ("x", S.Flip(THIRD), S.Return(S.Var("x"))), ("name", "bound", "body"),
            "Let(name='x', bound=Flip(bias=Fraction(1, 3)), body=Return(value=Var(name='x')))"),
    "If": (S.If, lambda: (S.Var("c"), S.Return(S.BoolLit(True)), S.Return(S.BoolLit(False))),
           ("cond", "then", "orelse"),
           "If(cond=Var(name='c'), then=Return(value=BoolLit(value=True)), "
           "orelse=Return(value=BoolLit(value=False)))"),
    "Match": (S.Match, lambda: (S.Var("p"), "a", "b", S.Return(S.Var("a"))),
              ("subject", "fst_name", "snd_name", "body"),
              "Match(subject=Var(name='p'), fst_name='a', snd_name='b', body=Return(value=Var(name='a')))"),
    "Flip": (S.Flip, lambda: (HALF_,), ("bias",), "Flip(bias=Fraction(1, 2))"),
    "Fresh": (S.Fresh, lambda: (), (), "Fresh()"),
    "Eq": (S.Eq, lambda: (S.Var("a"), S.Var("b")), ("lhs", "rhs"), "Eq(lhs=Var(name='a'), rhs=Var(name='b'))"),
    "MemFn": (S.MemFn, lambda: ("x", S.Flip(Fraction(1, 4))), ("binder", "body"),
              "MemFn(binder='x', body=Flip(bias=Fraction(1, 4)))"),
    "App": (S.App, lambda: (S.Var("f"), S.Var("a")), ("fn", "arg"), "App(fn=Var(name='f'), arg=Var(name='a'))"),
    "MemoCtx": (S.MemoCtx, lambda: (S.Return(S.Var("y")), 0, 1, O.FrozenMap({"x": O.AtomV(1)})),
                ("inner", "fun_label", "atom_label", "restore_env"),
                "MemoCtx(inner=Return(value=Var(name='y')), fun_label=0, atom_label=1, "
                "restore_env=FrozenMap({'x': AtomV(label=1)}))"),
    "BoolV": (O.BoolV, lambda: (True,), ("value",), "BoolV(value=True)"),
    "FunV": (O.FunV, lambda: (1,), ("label",), "FunV(label=1)"),
    "AtomV": (O.AtomV, lambda: (2,), ("label",), "AtomV(label=2)"),
    "PairV": (O.PairV, lambda: (O.AtomV(0), O.FunV(1)), ("fst", "snd"),
              "PairV(fst=AtomV(label=0), snd=FunV(label=1))"),
    "Closure": (O.Closure, lambda: ("y", S.Flip(THIRD), O.FrozenMap({"a": O.AtomV(0)})),
                ("binder", "body", "captured"),
                "Closure(binder='y', body=Flip(bias=Fraction(1, 3)), captured=FrozenMap({'a': AtomV(label=0)}))"),
    "Configuration": (O.Configuration,
                      lambda: (O.FrozenMap({"x": O.BoolV(False)}), S.Return(S.Var("x")), B.empty(), O.EMPTY_MAP),
                      ("env", "term", "graph", "closures"),
                      "Configuration(env=FrozenMap({'x': BoolV(value=False)}), term=Return(value=Var(name='x')), "
                      "graph=PartialBigraph(left=[], right=[], edges=[]), closures=FrozenMap({}))"),
    "Observation": (O.Observation, lambda: (O.BoolV(True), B.empty(), ()), ("value", "graph", "closures"),
                    "Observation(value=BoolV(value=True), graph=PartialBigraph(left=[], right=[], edges=[]), "
                    "closures=())"),
    "Pending": (B.Pending, lambda: (THIRD,), ("chance",), "Pending(chance=Fraction(1, 3))"),
    "Embedding": (B.Embedding, lambda: (GRAPH(), GRAPH(), ((0, 0),), ((0, 0),)),
                  ("source", "target", "left_map", "right_map"),
                  "Embedding(source=PartialBigraph(left=[0], right=[0], edges=[((0, 0), True)]), "
                  "target=PartialBigraph(left=[0], right=[0], edges=[((0, 0), True)]), "
                  "left_map=((0, 0),), right_map=((0, 0),))"),
    "ProdT": (TC.ProdT, lambda: (TC.BOOL, TC.ProdT(TC.ATOM, TC.FUN)), ("fst", "snd"), "(bool * (atom * fun))"),
    "SoundnessReport": (D.SoundnessReport, lambda: (_dist(), _dist(), True, _dist(), True),
                        ("lhs", "rhs", "equal", "bias_formula_rhs", "bias_formula_agrees"),
                        f"SoundnessReport(lhs=FinDist({{{TRUE_CLASS}: 1}}), rhs=FinDist({{{TRUE_CLASS}: 1}}), "
                        f"equal=True, bias_formula_rhs=FinDist({{{TRUE_CLASS}: 1}}), bias_formula_agrees=True)"),
    "SuiteResult": (P.SuiteResult, lambda: ("mem", 3, 0, 2, [{"case": 1}]),
                    ("suite", "count", "seed", "passed", "failures"),
                    "SuiteResult(suite='mem', count=3, seed=0, passed=2, failures=[{'case': 1}])"),
}
# the reports are named tuples handed to a caller, not keys: they are not hashed
HASHED = sorted(set(NODES) - {"SoundnessReport", "SuiteResult"})


def build(name):
    cls, args, _, _ = NODES[name]
    return cls(*args())


@pytest.mark.parametrize("name", sorted(NODES))
def test_a_node_repr_names_its_class_and_fields(name):
    assert repr(build(name)) == NODES[name][3]


@pytest.mark.parametrize("name", sorted(NODES))
def test_a_node_is_built_positionally_or_by_keyword(name):
    cls, args, fields, _ = NODES[name]
    values = args()
    by_position, by_keyword = cls(*values), cls(**dict(zip(fields, values)))
    assert by_position == by_keyword
    assert [getattr(by_keyword, field) for field in fields] == list(values)


@pytest.mark.parametrize("name", sorted(NODES))
def test_a_node_rejects_a_wrong_argument_count_or_an_unknown_keyword(name):
    cls, args, _, _ = NODES[name]
    values = args()
    with pytest.raises(TypeError):
        cls(*values, None)
    if values:
        with pytest.raises(TypeError):
            cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, bogus=None)


@pytest.mark.parametrize("name", sorted(NODES))
def test_a_node_field_cannot_be_set_or_deleted(name):
    value = build(name)
    for field in NODES[name][2]:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.bogus = None
    assert repr(value) == NODES[name][3]


@pytest.mark.parametrize("name", sorted(NODES))
def test_nodes_compare_by_type_and_fields(name):
    cls, args, _, _ = NODES[name]
    a, b = build(name), build(name)
    assert a is not b and a == b and not a != b
    values = args()
    if values:
        assert a != cls(*values[:-1], object())
    for other in sorted(set(NODES) - {name}):
        assert a != build(other) and build(other) != a


@pytest.mark.parametrize("name", HASHED)
def test_equal_nodes_hash_equal(name):
    a, b = build(name), build(name)
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1


@pytest.mark.parametrize("name", sorted(NODES))
def test_a_node_keeps_no_instance_dict(name):
    assert not hasattr(build(name), "__dict__")


@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
@pytest.mark.parametrize("name", sorted(NODES))
def test_a_copied_or_pickled_node_is_equal(name, duplicate):
    value = build(name)
    if name in HASHED:
        hash(value)
    again = duplicate(value)
    assert type(again) is type(value) and again == value
    assert repr(again) == repr(value)
    if name in HASHED:
        assert hash(again) == hash(value)


_BUILD = """
from fractions import Fraction
from memlang import opsem as O, syntax as S
let = S.Let("x", S.Flip(Fraction(1, 3)), S.Return(S.PairVal(S.Var("x"), S.Var("y"))))
closure = O.Closure("a", let, O.FrozenMap({"y": O.AtomV(0), "f": O.FunV(1)}))
config = O.Configuration(O.FrozenMap({"y": O.AtomV(0)}), let, O.EMPTY_GRAPH, O.FrozenMap({1: closure}))
values = [let, closure, config]
"""
_DUMP = _BUILD + """
import pickle, sys
for value in values:
    hash(value)
sys.stdout.buffer.write(pickle.dumps(values))
"""
_LOAD = _BUILD + """
import pickle, sys
loaded = pickle.loads(sys.stdin.buffer.read())
for old, new in zip(loaded, values, strict=True):
    assert hash(old) == hash(new), (old, new)
    assert {new: "found"}.get(old) == "found", old
print("ok")
"""


def test_a_node_pickled_in_one_process_hashes_afresh_in_another():
    # a string's hash differs between processes: a node that carried its
    # kept hash through a pickle would miss its own dict entry
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    dumped = subprocess.run([sys.executable, "-c", _DUMP], env={**env, "PYTHONHASHSEED": "1"},
                            capture_output=True, check=True).stdout
    loaded = subprocess.run([sys.executable, "-c", _LOAD], env={**env, "PYTHONHASHSEED": "2"},
                            input=dumped, capture_output=True)
    assert loaded.returncode == 0, loaded.stderr.decode()
    assert loaded.stdout == b"ok\n"
