import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlang import syntax as S
from memlang.progen import ProgramGen


def test_parse_smallest_program():
    assert S.parse_program("return true") == S.Return(S.BoolLit(True))


def test_parse_memoized_coin_program():
    text = "let val x <- fresh() in let val f <- memfn y. flip(1/3) in f @ x"
    assert S.parse_program(text) == S.Let(
        "x",
        S.Fresh(),
        S.Let(
            "f",
            S.MemFn("y", S.Flip(Fraction(1, 3))),
            S.App(S.Var("f"), S.Var("x")),
        ),
    )


def test_parse_truncated_input_fails_with_position():
    with pytest.raises(S.ParseError) as exc:
        S.parse_program("let val x <-")
    assert exc.value.line == 1
    assert exc.value.expected


def test_parse_error_reports_expected_set():
    with pytest.raises(S.ParseError) as exc:
        S.parse_program("x")
    assert {"==", "@"} <= set(exc.value.expected)


def test_decimal_biases_are_exact_rationals():
    assert S.parse_program("flip(0.5)") == S.Flip(Fraction(1, 2))
    assert S.parse_program("flip(0.1)") == S.Flip(Fraction(1, 10))
    with pytest.raises(S.ParseError):
        S.parse_program("flip(3/2)")
    with pytest.raises(S.ParseError):
        S.parse_program("flip(1/0)")


def test_comments_and_whitespace_insensitive():
    text = """
    # leading comment
    let val x <-    fresh() in   # trailing comment
    return x
    """
    assert S.parse_program(text) == S.Let("x", S.Fresh(), S.Return(S.Var("x")))


def test_reserved_words_are_not_identifiers():
    with pytest.raises(S.ParseError):
        S.parse_program("let val flip <- fresh() in return true")


def test_nested_let_and_if_parse_greedily():
    text = (
        "let val a <- let val b <- flip(1/2) in return b in "
        "if a then return true else return false"
    )
    parsed = S.parse_program(text)
    assert isinstance(parsed, S.Let)
    assert isinstance(parsed.bound, S.Let)
    assert isinstance(parsed.body, S.If)


def test_pretty_examples():
    assert S.pretty(S.Return(S.BoolLit(True))) == "return true"
    assert S.pretty(S.Flip(Fraction(1, 3))) == "flip(1/3)"
    assert S.pretty(S.MemFn("y", S.Flip(Fraction(1, 2)))) == "memfn y. flip(1/2)"
    assert S.pretty(S.Flip(Fraction(1))) == "flip(1)"


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_parse_pretty_roundtrip(seed):
    program = ProgramGen(random.Random(seed)).program()
    again = S.parse_program(S.pretty(program))
    assert again == program
    assert S.alpha_eq(again, program)


def test_free_vars_examples():
    assert S.free_vars(S.App(S.Var("f"), S.Var("y"))) == {"f", "y"}
    assert S.free_vars(S.MemFn("y", S.App(S.Var("f"), S.Var("y")))) == {"f"}
    assert S.free_vars(S.Let("x", S.Fresh(), S.Return(S.Var("x")))) == frozenset()


def test_free_vars_binders():
    body = S.Match(S.Var("p"), "a", "b", S.Eq(S.Var("a"), S.Var("c")))
    assert S.free_vars(body) == {"p", "c"}


def test_alpha_eq_examples():
    a = S.MemFn("x", S.Return(S.Var("x")))
    b = S.MemFn("y", S.Return(S.Var("y")))
    assert S.alpha_eq(a, b)
    assert S.alpha_eq(S.MemFn("x", S.Return(S.Var("z"))), S.MemFn("y", S.Return(S.Var("z"))))
    assert not S.alpha_eq(a, S.MemFn("x", S.Return(S.BoolLit(True))))


def test_alpha_eq_distinguishes_free_names():
    assert not S.alpha_eq(S.Return(S.Var("x")), S.Return(S.Var("y")))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_alpha_eq_is_equivalence(seed):
    rng = random.Random(seed)
    a = ProgramGen(rng).program()
    b = S.alpha_canonical(a)
    # reflexive, symmetric against a renamed copy, transitive through it
    assert S.alpha_eq(a, a)
    assert S.alpha_eq(a, b) and S.alpha_eq(b, a)
    c = S.alpha_canonical(b)
    assert S.alpha_eq(a, c)


def test_substitute_examples():
    assert S.substitute(S.Return(S.Var("x")), "x", S.BoolLit(True)) == S.Return(
        S.BoolLit(True)
    )
    fn = S.MemFn("x", S.Return(S.Var("x")))
    assert S.substitute(fn, "x", S.BoolLit(True)) == fn
    assert S.substitute(S.Eq(S.Var("x"), S.Var("y")), "x", S.Var("z")) == S.Eq(
        S.Var("z"), S.Var("y")
    )


def test_substitute_avoids_capture():
    # replacing y inside a binder named x must not capture the substituted x
    term = S.Let("x", S.Fresh(), S.Eq(S.Var("x"), S.Var("y")))
    out = S.substitute(term, "y", S.Var("x"))
    assert isinstance(out, S.Let)
    assert out.name != "x"
    assert out.body == S.Eq(S.Var(out.name), S.Var("x"))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["x1", "b2", "f1", "zz"]))
def test_substitute_free_var_bound(seed, name):
    program = ProgramGen(random.Random(seed)).program()
    out = S.substitute(program, name, S.Var("fresh_target"))
    assert S.free_vars(out) <= (S.free_vars(program) - {name}) | {"fresh_target"}


def test_substitute_respects_alpha_eq():
    a = S.MemFn("u", S.Let("v", S.Return(S.Var("z")), S.Eq(S.Var("u"), S.Var("w"))))
    b = S.MemFn("p", S.Let("q", S.Return(S.Var("z")), S.Eq(S.Var("p"), S.Var("w"))))
    assert S.alpha_eq(a, b)
    sa = S.substitute(a, "w", S.Var("k"))
    sb = S.substitute(b, "w", S.Var("k"))
    assert S.alpha_eq(sa, sb)


def _parse_memfn(text: str) -> S.MemFn:
    fn = S.parse_program(text)
    assert isinstance(fn, S.MemFn)
    return fn


def test_freshness_check_accepts_constant_coin():
    assert S.syntactic_freshness_check(_parse_memfn("memfn x. flip(1/2)"))


def test_freshness_check_accepts_captured_atom_application():
    fn = _parse_memfn(
        "memfn x. let val b <- f @ x0 in if b then return true else x == x0"
    )
    assert S.syntactic_freshness_check(fn)


def test_freshness_check_rejects_binder_application():
    assert not S.syntactic_freshness_check(_parse_memfn("memfn y. f @ y"))


def test_freshness_check_rejects_locally_bound_argument():
    fn = _parse_memfn("memfn y. let val z <- fresh() in f @ z")
    assert not S.syntactic_freshness_check(fn)


@pytest.mark.parametrize("digit", ["²", "٣", "１"])
def test_only_ascii_digits_are_numbers(digit):
    with pytest.raises(S.ParseError, match="unexpected character"):
        S.parse_program(f"flip({digit})")
    with pytest.raises(S.ParseError, match="unexpected character"):
        S.parse_program(f"flip(1/{digit})")


@pytest.mark.parametrize(
    "text", ["flip(1/" + "9" * 5000 + ")", "flip(0." + "0" * 5000 + "1)"], ids=["fraction", "decimal"]
)
def test_number_with_too_many_digits_is_a_parse_error(text):
    with pytest.raises(S.ParseError, match="too many digits"):
        S.parse_program(text)
