import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlang import cli
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


@pytest.mark.parametrize(
    "text, col",
    [("return # c", 11), ("let val x <- flip(1/2) in # body missing", 41)],
)
def test_end_of_input_after_a_trailing_comment_is_one_past_the_last_character(tmp_path, capsys, text, col):
    with pytest.raises(S.ParseError) as exc:
        S.parse_program(text)
    assert (exc.value.line, exc.value.col, exc.value.found) == (1, col, "end of input")
    assert col == len(text) + 1
    source = tmp_path / "trailing.mem"
    source.write_text(text, encoding="utf-8")
    assert cli.main(["check", str(source)]) == 1
    assert json.loads(capsys.readouterr().out)["error"].startswith(f"1:{col}: ")


# Pieces a text is drawn from: every kind of token, keywords run together
# with letters, blanks, comments, newlines, and letters and digits outside
# ASCII, of which only the letters may be in a word
_PIECES = [
    "return", "let", "val", "in", "if", "then", "else", "match", "as", "flip",
    "fresh", "memfn", "true", "false", "x", "y_1", "inx", "é", "xé", "a٣", "b²",
    "²", "٣", "１", "1", "0", "0.5", "1/3", "2/0", "0.5/2", "1.",
    "<-", "==", "(", ")", ",", ".", "@", "/", "<", "=", "$",
    " ", "\t", "\r", "\n", "# c", "#(x", "# é",
]


def _offset(text: str, line: int, col: int) -> int:
    lines = text.split("\n")
    assert 1 <= line <= len(lines) and 1 <= col <= len(lines[line - 1]) + 1
    return sum(len(earlier) + 1 for earlier in lines[: line - 1]) + col - 1


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=16).map("".join))
def test_a_parse_error_points_at_what_its_message_names(text):
    try:
        S.parse_program(text)
    except S.ParseError as exc:
        at = _offset(text, exc.line, exc.col)
        if exc.message.startswith("unexpected character"):
            assert exc.message == f"unexpected character {text[at]!r}"
        elif exc.found == "end of input":
            assert at == len(text)
        else:
            # a token found where another was expected, a reserved word, or
            # the number of a bias, a zero denominator or an overlong number
            found = exc.found or re.match(r"[0-9.]+", text[at:])[0]
            assert text.startswith(found, at)
            # a whole word or number, not its tail: only a number ends just
            # before a word starts
            if at and found[0].isalnum() and re.match(r"\w", text[at - 1]):
                assert found[0].isalpha() and text[at - 1] in "0123456789"
