from fractions import Fraction
from pathlib import Path

import pytest

from memlang import bigraph as B
from memlang import denot as D
from memlang import opsem as O
from memlang import syntax as S

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"
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
