import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlang import syntax as S
from memlang import typecheck as TC
from memlang.progen import ProgramGen


def test_value_typing_examples():
    assert TC.type_of_value(TC.EMPTY_CTX, S.BoolLit(True)) == TC.BOOL
    ctx = TC.EMPTY_CTX.extend("x", TC.ATOM)
    assert TC.type_of_value(ctx, S.PairVal(S.Var("x"), S.BoolLit(True))) == TC.ProdT(
        TC.ATOM, TC.BOOL
    )
    with pytest.raises(TC.UnboundVariable):
        TC.type_of_value(TC.EMPTY_CTX, S.Var("x"))


def test_context_lookup_is_rightmost():
    ctx = TC.EMPTY_CTX.extend("x", TC.ATOM).extend("x", TC.BOOL)
    assert ctx.lookup("x") == TC.BOOL


def test_comp_typing_examples():
    p = S.Let("x", S.Fresh(), S.Eq(S.Var("x"), S.Var("x")))
    assert TC.type_of_comp(TC.EMPTY_CTX, p) == TC.BOOL
    fn = S.parse_program("memfn y. flip(1/3)")
    assert TC.type_of_comp(TC.EMPTY_CTX, fn) == TC.FUN
    with pytest.raises(TC.TypeMismatch):
        TC.type_of_comp(TC.EMPTY_CTX, S.MemFn("y", S.Fresh()))


def test_if_and_match_rules():
    good = S.parse_program("if true then return true else flip(1/2)")
    assert TC.type_of_comp(TC.EMPTY_CTX, good) == TC.BOOL
    with pytest.raises(TC.TypeMismatch):
        TC.type_of_comp(TC.EMPTY_CTX, S.parse_program("if true then return true else fresh()"))
    ctx = TC.EMPTY_CTX.extend("p", TC.ProdT(TC.ATOM, TC.BOOL))
    m = S.parse_program("match p as (a, b) in a == a")
    assert TC.type_of_comp(ctx, m) == TC.BOOL
    with pytest.raises(TC.TypeMismatch):
        TC.type_of_comp(TC.EMPTY_CTX, S.parse_program("match true as (a, b) in return a"))


def test_equality_only_at_atoms():
    with pytest.raises(TC.TypeMismatch):
        TC.type_of_comp(TC.EMPTY_CTX, S.Eq(S.BoolLit(True), S.BoolLit(False)))


def test_application_shapes():
    ctx = TC.EMPTY_CTX.extend("f", TC.FUN).extend("a", TC.ATOM)
    assert TC.type_of_comp(ctx, S.App(S.Var("f"), S.Var("a"))) == TC.BOOL
    with pytest.raises(TC.TypeMismatch):
        TC.type_of_comp(ctx, S.App(S.Var("a"), S.Var("a")))
    with pytest.raises(TC.TypeMismatch):
        TC.type_of_comp(ctx, S.App(S.Var("f"), S.Var("f")))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_generated_programs_typecheck_deterministically(seed):
    program = ProgramGen(random.Random(seed)).program()
    first = TC.type_of_comp(TC.EMPTY_CTX, program)
    second = TC.type_of_comp(TC.EMPTY_CTX, program)
    assert first == second


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_weakening(seed):
    program = ProgramGen(random.Random(seed)).program()
    ty = TC.type_of_comp(TC.EMPTY_CTX, program)
    padded = TC.EMPTY_CTX.extend("unusedatom", TC.ATOM).extend("unusedfun", TC.FUN)
    assert TC.type_of_comp(padded, program) == ty


# -- extended terms ---------------------------------------------------------


def _marker(inner, fun=0, atom=0):
    return S.MemoCtx(inner, fun, atom, None)


def test_ext_single_marker_consumes_pair():
    term = _marker(S.Return(S.BoolLit(True)))
    assert TC.type_of_ext(TC.EMPTY_CTX, [(0, 0)], term) == TC.BOOL


def test_ext_plain_term_needs_empty_stack():
    assert TC.type_of_ext(TC.EMPTY_CTX, [], S.Return(S.BoolLit(True))) == TC.BOOL
    with pytest.raises(TC.StackMismatch):
        TC.type_of_ext(TC.EMPTY_CTX, [(0, 0)], S.Return(S.BoolLit(True)))


def test_ext_duplicate_pair_rejected():
    nested = _marker(_marker(S.Return(S.BoolLit(True))))
    with pytest.raises(TC.DuplicateStackPair):
        TC.type_of_ext(TC.EMPTY_CTX, [(0, 0), (0, 0)], nested)


def test_ext_nested_markers_outermost_first():
    inner = _marker(S.Flip(S.parse_program("flip(1/2)").bias), fun=0, atom=0)
    outer = _marker(inner, fun=1, atom=0)
    assert TC.type_of_ext(TC.EMPTY_CTX, [(1, 0), (0, 0)], outer) == TC.BOOL
    with pytest.raises(TC.StackMismatch):
        TC.type_of_ext(TC.EMPTY_CTX, [(0, 0), (1, 0)], outer)


def test_ext_let_splits_stack_between_subterms():
    bound = _marker(S.Return(S.BoolLit(True)), fun=0, atom=0)
    term = S.Let("x", bound, S.Return(S.Var("x")))
    assert TC.type_of_ext(TC.EMPTY_CTX, [(0, 0)], term) == TC.BOOL


def test_ext_marker_on_let_body_jumps_to_head():
    bound = _marker(S.Return(S.BoolLit(True)), fun=0, atom=0)
    body = _marker(S.Return(S.Var("x")), fun=1, atom=0)
    term = S.Let("x", bound, body)
    # the body's pair precedes the bound term's pair on the stack
    assert TC.type_of_ext(TC.EMPTY_CTX, [(1, 0), (0, 0)], term) == TC.BOOL
    with pytest.raises(TC.StackMismatch):
        TC.type_of_ext(TC.EMPTY_CTX, [(0, 0), (1, 0)], term)


def test_ext_marker_on_else_branch_jumps_to_head():
    then = _marker(S.Return(S.BoolLit(True)), fun=0, atom=0)
    orelse = _marker(S.Return(S.BoolLit(False)), fun=1, atom=0)
    term = S.If(S.BoolLit(True), then, orelse)
    assert TC.type_of_ext(TC.EMPTY_CTX, [(1, 0), (0, 0)], term) == TC.BOOL


def test_ext_match_body_marker():
    ctx = TC.EMPTY_CTX.extend("p", TC.ProdT(TC.BOOL, TC.BOOL))
    term = S.Match(S.Var("p"), "a", "b", _marker(S.Return(S.Var("a"))))
    assert TC.type_of_ext(ctx, [(0, 0)], term) == TC.BOOL


@pytest.mark.parametrize("position", ["top", "let bound", "let body", "then", "else", "match"])
def test_ext_marker_requires_a_boolean_result(position):
    # a marker writes its body's result into the memo-table, so a body of
    # another type is rejected in every position a marker can take
    ctx = TC.EMPTY_CTX.extend("a", TC.ATOM).extend("p", TC.ProdT(TC.ATOM, TC.BOOL))
    for inner, found in [(S.Return(S.Var("a")), "atom"), (S.MemFn("z", S.Flip(1)), "fun")]:
        m = _marker(inner)
        term = {
            "top": m,
            "let bound": S.Let("x", m, S.Return(S.BoolLit(True))),
            "let body": S.Let("x", S.Return(S.BoolLit(True)), m),
            "then": S.If(S.BoolLit(True), m, S.Return(S.Var("a"))),
            "else": S.If(S.BoolLit(True), S.Return(S.Var("a")), m),
            "match": S.Match(S.Var("p"), "b", "c", m),
        }[position]
        with pytest.raises(TC.TypeMismatch) as exc:
            TC.type_of_ext(ctx, [(0, 0)], term)
        assert exc.value.expected == "bool (memoized result)" and exc.value.found == found


def test_source_typing_rejects_memo_markers():
    # a source computation is typed at the empty stack, so any marker in it,
    # on the spine or inside a memoized body, has no pair to consume
    marked = _marker(S.Return(S.BoolLit(True)))
    for term in (marked, S.Let("x", marked, S.Return(S.Var("x"))), S.MemFn("y", marked)):
        with pytest.raises(TC.StackMismatch):
            TC.type_of_comp(TC.EMPTY_CTX, term)


@pytest.mark.parametrize("ty", [TC.BOOL, TC.ATOM, TC.FUN], ids=repr)
def test_a_base_type_copied_or_pickled_is_the_same_object(ty):
    assert copy.copy(ty) is ty
    assert copy.deepcopy(ty) is ty
    assert pickle.loads(pickle.dumps(ty)) is ty
    pair = pickle.loads(pickle.dumps(TC.ProdT(ty, TC.BOOL)))
    assert pair.fst is ty and pair.snd is TC.BOOL


def test_base_types_are_compared_and_hashed_by_identity():
    assert len({TC.BOOL, TC.ATOM, TC.FUN}) == 3
    assert TC.BOOL == TC.BOOL and TC.BOOL != TC.ATOM and TC.ATOM != TC.FUN
    assert hash(TC.BOOL) == object.__hash__(TC.BOOL)
    assert [repr(t) for t in (TC.BOOL, TC.ATOM, TC.FUN)] == ["bool", "atom", "fun"]


def test_product_types_compare_and_hash_structurally():
    a = TC.ProdT(TC.ATOM, TC.ProdT(TC.BOOL, TC.FUN))
    b = TC.ProdT(TC.ATOM, TC.ProdT(TC.BOOL, TC.FUN))
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: "x"}[b] == "x"
    assert a != TC.ProdT(TC.ATOM, TC.ProdT(TC.FUN, TC.BOOL))
    assert TC.ProdT(TC.BOOL, TC.BOOL) != TC.BOOL
    assert copy.deepcopy(a) == a
