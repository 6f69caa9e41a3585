"""The shared booleans: each boolean value and returned literal is built
once, no per-object cache is read by raising, and no world or class is
left to the cyclic collector."""

import gc
import sys
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


def test_a_checking_pass_leaves_no_world_or_class_to_the_cyclic_collector():
    # a world keeps no class and a class keeps nothing but its fields, so a
    # warm pass over criterion 6's corpus frees its worlds and classes by
    # reference counting; DEBUG_SAVEALL keeps whatever the collector finds
    corpus = soundness_corpus(200, 20243)
    for program in corpus:
        D.check_soundness(program)
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        for program in corpus:
            D.check_soundness(program)
        gc.collect()
        found = [obj for obj in gc.garbage if isinstance(obj, (B.TotalBigraph, D.CanonicalClass))]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert len(found) == 0
