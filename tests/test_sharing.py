"""The shared booleans: each boolean value, returned literal and per-world
boolean class is built once, and no per-object cache is read by raising."""

import sys
from fractions import Fraction
from pathlib import Path

from memlang import bigraph as B
from memlang import denot as D
from memlang import opsem as O
from memlang import syntax as S
from memlang.progen import soundness_corpus

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"
BUNDLED = sorted(PROGRAMS.rglob("*.mem"))
SOUND = sorted((PROGRAMS / "sound").glob("*.mem"))


def load(path: Path) -> S.Comp:
    return S.parse_program(path.read_text())


def test_checking_the_corpus_raises_no_attribute_error():
    # a first read of a kept hash, size, free-variable tuple or world takes
    # a default; a caught AttributeError would show here as an exception event
    corpus = soundness_corpus(200, 20243)
    raised = []

    def tracer(frame, event, arg):
        if event == "exception" and issubclass(arg[0], AttributeError):
            if frame.f_globals.get("__name__", "").startswith("memlang"):
                raised.append((frame.f_code.co_name, frame.f_lineno))
        return tracer

    outer = sys.gettrace()
    sys.settrace(tracer)
    try:
        for program in corpus:
            D.check_soundness(program)
    finally:
        sys.settrace(outer)
    assert raised == []


def test_a_literal_evaluates_to_a_shared_boolean():
    for flag in (False, True):
        value = O.eval_value(O.EMPTY_MAP, S.BoolLit(flag))
        assert value is O.BOOLS[flag] and value == O.BoolV(flag)
        assert O.RETURNED_BOOLS[flag] == S.Return(S.BoolLit(flag))


def _replacement(successor: O.Configuration, depth: int) -> S.ExtTerm:
    # the node a step put where its redex stood, under the same spine
    term = successor.term
    for _ in range(depth):
        term = term.bound if isinstance(term, S.Let) else term.inner
    return term


def test_every_boolean_a_step_returns_is_a_shared_literal():
    # over every step of every bundled program: flips, applications on a
    # defined edge, equalities and memo returns all return a shared literal
    rules = set()
    for path in BUNDLED:
        todo = [O.initial_configuration(load(path))]
        while todo:
            config = todo.pop()
            if O.is_terminal(config):
                continue
            spine, redex = O.decompose(config.term)
            for successor, _ in O.step(config).items():
                todo.append(successor)
                new = _replacement(successor, len(spine))
                # an if or a let hands on a literal of the program's own
                if isinstance(redex, (S.Flip, S.App, S.Eq, S.MemoCtx)) and isinstance(new, S.Return):
                    assert new is O.RETURNED_BOOLS[new.value.value]
                    rules.add(type(redex).__name__)
    assert rules == {"Flip", "App", "Eq", "MemoCtx"}


def world_with_a_function() -> tuple[B.TotalBigraph, B.TotalBigraph]:
    world = B.TotalBigraph([0], [0, 1], {(0, 0): True, (0, 1): False})
    wider, _ = world.add_left_defined({0: False, 1: True})
    return world, wider


def test_a_world_shares_its_two_boolean_classes():
    world, wider = world_with_a_function()
    third = Fraction(1, 3)
    true, false = [cls for cls, _ in D.den_flip(world, third).items()]
    for flag, shared in ((False, false), (True, true)):
        built = D.CanonicalClass(world, O.BoolV(flag), (), (), (), ())
        assert shared == built and hash(shared) == hash(built)
        assert shared.base is world and shared.value is O.BOOLS[flag]
        atom = 0 if flag else 1
        others = [
            D.den_app(world, 0, atom).items()[0][0],
            D.den_eq(world, 0, 0 if flag else 1).items()[0][0],
            D.unit(world, O.BoolV(flag)).items()[0][0],
            D.canonicalize(world, world, O.BoolV(flag), {}),
            # a class read from a wider world and cut back to the base
            D.canonicalize(world, wider, O.BoolV(flag), {1: third}),
        ]
        assert all(cls is shared for cls in others)
    kept = world._bool_classes
    assert len(kept) == 2 and kept[0] is false and kept[1] is true
    # a wider world keeps its own pair
    assert D.unit(wider, O.BOOLS[True]).items()[0][0] is not true


def test_a_world_keeps_no_more_than_its_two_boolean_classes():
    world, _ = world_with_a_function()
    first = D._bool_classes(world)
    for path in SOUND:
        D.den_comp(load(path), world, {}, {0: Fraction(1, 2)})
    assert D._bool_classes(world) is first and len(first) == 2
    assert B.TotalBigraph.__slots__ == ("_bool_classes",)
    assert not hasattr(world, "__dict__")


def test_every_boolean_class_a_denotation_holds_is_its_worlds():
    # den_comp's own results on the bundled sound programs, before expand
    # copies the classes it draws
    checked = 0
    for path in SOUND:
        for cls in D.den_comp(load(path), D.EMPTY_WORLD, {}, {}).support():
            if isinstance(cls.value, O.BoolV):
                assert cls is D._bool_classes(cls.base)[cls.value.value]
                checked += 1
    assert checked >= 4
