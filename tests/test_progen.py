import random

from hypothesis import given, settings
from hypothesis import strategies as st

from memlang import syntax as S
from memlang import typecheck as TC
from memlang.progen import (
    ProgramGen,
    _scope_from,
    run_dataflow_suite,
    run_mem_law_suite,
    run_monad_suite,
    soundness_corpus,
)


def _count(comp, klass) -> int:
    n, stack = 0, [comp]
    while stack:
        t = stack.pop()
        if isinstance(t, klass):
            n += 1
        if isinstance(t, S.Let):
            stack += [t.bound, t.body]
        elif isinstance(t, S.If):
            stack += [t.then, t.orelse]
        elif isinstance(t, (S.Match, S.MemFn)):
            stack.append(t.body)
    return n


def _memfns(comp):
    out, stack = [], [comp]
    while stack:
        t = stack.pop()
        if isinstance(t, S.MemFn):
            out.append(t)
        if isinstance(t, S.Let):
            stack += [t.bound, t.body]
        elif isinstance(t, S.If):
            stack += [t.then, t.orelse]
        elif isinstance(t, (S.Match, S.MemFn)):
            stack.append(t.body)
    return out


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_generated_programs_welltyped_clean_within_budgets(seed):
    gen = ProgramGen(random.Random(seed), max_flips=3, max_freshes=3, max_memfns=2, max_depth=8)
    program = gen.program()
    TC.type_of_comp(TC.EMPTY_CTX, program)
    assert S.free_vars(program) == frozenset()
    assert _count(program, S.Flip) <= 3
    assert _count(program, S.Fresh) <= 3
    assert _count(program, S.MemFn) <= 2
    for fn in _memfns(program):
        assert S.syntactic_freshness_check(fn)


def test_generation_deterministic_per_seed():
    a = soundness_corpus(10, 99)
    b = soundness_corpus(10, 99)
    assert a == b
    assert soundness_corpus(10, 100) != a


def test_corpus_exercises_all_constructs():
    corpus = soundness_corpus(300, 2024)
    assert any(_count(p, S.Match) for p in corpus)
    assert any(_count(p, S.MemFn) for p in corpus)
    assert any(_count(p, S.App) for p in corpus)
    assert any(_count(p, S.Eq) for p in corpus)
    assert any(_count(p, S.If) for p in corpus)


def test_suites_pass_at_small_sizes():
    assert run_mem_law_suite(6, 5).ok
    assert run_dataflow_suite(6, 5).ok
    assert run_monad_suite(3, 5).ok


def test_suite_results_are_reproducible():
    first = run_dataflow_suite(4, 11)
    second = run_dataflow_suite(4, 11)
    assert first.to_json() == second.to_json()


def test_a_pair_whose_part_the_scope_cannot_build_is_a_variable():
    # dataflow suite, seed 0, case 41: xl is an (atom * bool) pair and the
    # scope has no atom-typed name to build one from
    pair = TC.ProdT(TC.ATOM, TC.BOOL)
    gen = ProgramGen(random.Random(0))
    scope = _scope_from({"xl": pair, "xr": TC.BOOL})
    assert gen._val(scope, pair) == S.Var("xl")
    nested = TC.ProdT(pair, TC.BOOL)
    assert gen._val(_scope_from({"xl": pair}), nested).fst == S.Var("xl")
    # a pair the scope can build is built from its parts, as before
    assert isinstance(gen._val(_scope_from({"a": TC.ATOM}), pair), S.PairVal)
