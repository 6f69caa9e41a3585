"""Surface syntax, abstract syntax, and purely syntactic analyses.

The term language is layered into values and computations.  Computations are
sequenced with ``let val x <- u in t``; the effectful primitives are
``flip(RAT)`` (biased coin), ``fresh()`` (new atomic name), atom equality
``v == w``, memoized random boolean functions ``memfn x. u``, and
application ``v @ w``.  Source files are UTF-8 with ``#`` line comments.

Biases are exact rationals: ``flip(1/3)`` and ``flip(0.5)`` are stored as
``Fraction`` values, never floats.

The lexer is one compiled regular expression scanned with ``finditer``: each
match is a token and the blanks and comments before it.  A token is a plain
tuple ``(kind, text, offset)``; a ``ParseError``'s line and column are
computed from the offset only when the error is raised, and the end of input
sits one past the last character, after a trailing comment too.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import count
from typing import Any, Optional, Union

from .hashonce import HashOnce, set_field

Ident = str

# ---------------------------------------------------------------------------
# Abstract syntax
#
# Nodes are immutable, plain slotted classes whose ``__init__`` stores each
# field; ``HashOnce`` gives them structural equality, their ``repr`` and
# their pickles, and keeps their hash after the first ``hash()``.
# Computations and memo markers also keep the evaluator's progress
# measure, once ``opsem._term_size`` has computed it, and computations
# their free variables, once ``free_var_names`` has.


class _Term(HashOnce):
    __slots__ = ("_size", "_fv")


class BoolLit(HashOnce):
    __slots__ = _fields = ("value",)

    def __init__(self, value: bool):
        set_field(self, "value", value)


class Var(HashOnce):
    __slots__ = _fields = ("name",)

    def __init__(self, name: Ident):
        set_field(self, "name", name)


class PairVal(HashOnce):
    __slots__ = _fields = ("fst", "snd")

    def __init__(self, fst: Val, snd: Val):
        set_field(self, "fst", fst)
        set_field(self, "snd", snd)


Val = Union[BoolLit, Var, PairVal]


class Return(_Term):
    __slots__ = _fields = ("value",)

    def __init__(self, value: Val):
        set_field(self, "value", value)


class Let(_Term):
    __slots__ = _fields = ("name", "bound", "body")

    def __init__(self, name: Ident, bound: Comp, body: Comp):
        set_field(self, "name", name)
        set_field(self, "bound", bound)
        set_field(self, "body", body)


class If(_Term):
    __slots__ = _fields = ("cond", "then", "orelse")

    def __init__(self, cond: Val, then: Comp, orelse: Comp):
        set_field(self, "cond", cond)
        set_field(self, "then", then)
        set_field(self, "orelse", orelse)


class Match(_Term):
    __slots__ = _fields = ("subject", "fst_name", "snd_name", "body")

    def __init__(self, subject: Val, fst_name: Ident, snd_name: Ident, body: Comp):
        set_field(self, "subject", subject)
        set_field(self, "fst_name", fst_name)
        set_field(self, "snd_name", snd_name)
        set_field(self, "body", body)


class Flip(_Term):
    __slots__ = _fields = ("bias",)

    def __init__(self, bias: Fraction):
        set_field(self, "bias", bias)


class Fresh(_Term):
    __slots__ = ()


class Eq(_Term):
    __slots__ = _fields = ("lhs", "rhs")

    def __init__(self, lhs: Val, rhs: Val):
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)


class MemFn(_Term):
    __slots__ = _fields = ("binder", "body")

    def __init__(self, binder: Ident, body: Comp):
        set_field(self, "binder", binder)
        set_field(self, "body", body)


class App(_Term):
    __slots__ = _fields = ("fn", "arg")

    def __init__(self, fn: Val, arg: Val):
        set_field(self, "fn", fn)
        set_field(self, "arg", arg)


Comp = Union[Return, Let, If, Match, Flip, Fresh, Eq, MemFn, App]


class MemoCtx(_Term):
    """Pending memoization marker produced only by the evaluator.

    Wraps a computation whose boolean result must be written to the
    memo-table edge ``(fun_label, atom_label)``; afterwards the environment
    is restored to ``restore_env``.  The payload is opaque to the syntactic
    layer and to the typechecker.
    """

    __slots__ = _fields = ("inner", "fun_label", "atom_label", "restore_env")

    def __init__(self, inner: ExtTerm, fun_label: int, atom_label: int, restore_env: Any):
        set_field(self, "inner", inner)
        set_field(self, "fun_label", fun_label)
        set_field(self, "atom_label", atom_label)
        set_field(self, "restore_env", restore_env)


ExtTerm = Union[Comp, MemoCtx]

KEYWORDS = frozenset(
    [
        "return", "let", "val", "in", "if", "then", "else",
        "match", "as", "flip", "fresh", "memfn", "true", "false",
    ]
)


# ---------------------------------------------------------------------------
# Lexer


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, expected=(), found: Optional[str] = None):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col
        self.expected = frozenset(expected)
        self.found = found


# (kind, text, offset): kind is "kw", "ident", "number", "sym" or "eof", and
# the offset is that of the token's first character in the source
Token = tuple[str, str, int]

# Each match is the blanks and comments before one token, then the token.
# Identifiers are words that start with a letter: [^\W\d_] also admits
# numerals that are not letters ("²", "½"), so a word that does not start
# with an ASCII letter is checked with str.isalpha.  Numbers are ASCII
# digits only: str.isdigit() also accepts "²".  Every other character is
# unexpected.
_TOKEN = re.compile(
    r"""[ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*
    (?:(?P<kw>(?:%s)(?!\w))
      |(?P<ident>[A-Za-z]\w*)
      |(?P<number>[0-9]+(?:\.[0-9]+)?)
      |(?P<sym><-|==|[(),.@/])
      |(?P<eof>\Z)
      |(?P<word>[^\W\d_]\w*)
      |(?P<bad>.))"""
    % "|".join(sorted(KEYWORDS)),
    re.VERBOSE,
)
_CHECKED = frozenset({"word", "bad", "eof"})


def _line_col(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        tok = (kind, m[kind], m.start(kind))
        if kind in _CHECKED:
            if kind == "eof":  # always the last match
                break
            if kind == "bad" or not tok[1][0].isalpha():
                raise ParseError(f"unexpected character {tok[1][0]!r}", *_line_col(text, tok[2]))
            tok = ("ident", *tok[1:])
        tokens.append(tok)
    tokens.append(tok)
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent; the grammar is LL(1) over this token stream).
# A keyword or symbol is told by its text alone: no identifier or number
# has the text of one.

_VAL_WORDS = frozenset({"true", "false", "("})
_VAL_EXPECTED = frozenset({"true", "false", "identifier", "("})
_COMP_EXPECTED = frozenset(
    {"return", "let", "if", "match", "flip", "fresh", "memfn", "true", "false", "identifier", "("}
)


class _Parser:
    """The tokens are kept in reverse, so that ``take`` pops the next one
    and ``tokens[-1]`` peeks at it.  The end-of-input token is taken only
    where it is an error.  ``parse_comp`` runs one frame per nesting level."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)[::-1]
        self.take = self.tokens.pop

    def error(self, message: str, tok: Token, expected=(), found: Optional[str] = None) -> ParseError:
        return ParseError(message, *_line_col(self.text, tok[2]), expected, found)

    def fail(self, expected, tok: Token) -> ParseError:
        found = tok[1] or "end of input"
        exp = ", ".join(sorted(expected))
        return self.error(f"expected {exp}, found {found!r}", tok, expected, found)

    def expect(self, word: str) -> None:
        tok = self.take()
        if tok[1] != word:
            raise self.fail({word}, tok)

    def ident(self) -> str:
        tok = self.take()
        if tok[0] == "ident":
            return tok[1]
        if tok[0] == "kw":
            raise self.error(
                f"reserved word {tok[1]!r} cannot be used as an identifier",
                tok, {"identifier"}, tok[1],
            )
        raise self.fail({"identifier"}, tok)

    def literal(self, tok: Token, text: str) -> Fraction:
        try:
            return Fraction(text)
        except ValueError:  # more digits than Python converts to an int
            raise self.error("number has too many digits", tok) from None

    def parse_val(self, tok: Token) -> Val:
        """The value that starts at ``tok``, which is already taken."""
        kind, word, _ = tok
        if kind == "ident":
            return Var(word)
        if word == "true" or word == "false":
            return BoolLit(word == "true")
        if word == "(":
            fst = self.parse_val(self.take())
            self.expect(",")
            snd = self.parse_val(self.take())
            self.expect(")")
            return PairVal(fst, snd)
        raise self.fail(_VAL_EXPECTED, tok)

    def parse_rat(self) -> Fraction:
        tok = self.take()
        if tok[0] != "number":
            raise self.fail({"number"}, tok)
        if self.tokens[-1][1] == "/":
            if "." in tok[1]:
                raise self.error(
                    "decimal numerator not allowed in a fraction", tok, {"integer"}, tok[1]
                )
            self.take()
            den = self.take()
            if den[0] != "number" or "." in den[1]:
                raise self.fail({"integer"}, den)
            if not den[1].strip("0"):
                raise self.error("zero denominator", den)
            value = self.literal(tok, f"{tok[1]}/{den[1]}")
        else:
            value = self.literal(tok, tok[1])
        if value < 0 or value > 1:
            raise self.error(f"bias must be between 0 and 1, got {value}", tok)
        return value

    def parse_comp(self) -> Comp:
        tok = self.take()
        word = tok[1]
        if word == "let":
            self.expect("val")
            name = self.ident()
            self.expect("<-")
            bound = self.parse_comp()
            self.expect("in")
            return Let(name, bound, self.parse_comp())
        if word == "return":
            return Return(self.parse_val(self.take()))
        if word == "flip":
            self.expect("(")
            bias = self.parse_rat()
            self.expect(")")
            return Flip(bias)
        if word == "fresh":
            self.expect("(")
            self.expect(")")
            return Fresh()
        if word == "memfn":
            binder = self.ident()
            self.expect(".")
            return MemFn(binder, self.parse_comp())
        if word == "if":
            cond = self.parse_val(self.take())
            self.expect("then")
            then = self.parse_comp()
            self.expect("else")
            return If(cond, then, self.parse_comp())
        if word == "match":
            subject = self.parse_val(self.take())
            self.expect("as")
            self.expect("(")
            fst = self.ident()
            self.expect(",")
            snd = self.ident()
            self.expect(")")
            self.expect("in")
            return Match(subject, fst, snd, self.parse_comp())
        if tok[0] == "ident" or word in _VAL_WORDS:
            lhs = self.parse_val(tok)
            op = self.take()
            if op[1] == "==":
                return Eq(lhs, self.parse_val(self.take()))
            if op[1] == "@":
                return App(lhs, self.parse_val(self.take()))
            raise self.fail({"==", "@"}, op)
        raise self.fail(_COMP_EXPECTED, tok)


def parse_program(text: str) -> Comp:
    """Parse a whole program; raises ParseError on malformed input."""
    parser = _Parser(text)
    comp = parser.parse_comp()
    if parser.tokens[-1][0] != "eof":
        raise parser.fail({"end of input"}, parser.tokens[-1])
    return comp


# ---------------------------------------------------------------------------
# Pretty-printer (the normative formatter; output reparses to the same tree)


def pretty_val(v: Val) -> str:
    if isinstance(v, BoolLit):
        return "true" if v.value else "false"
    if isinstance(v, Var):
        return v.name
    if isinstance(v, PairVal):
        return f"({pretty_val(v.fst)}, {pretty_val(v.snd)})"
    raise TypeError(f"not a value: {v!r}")


def pretty(c: ExtTerm) -> str:
    if isinstance(c, Return):
        return f"return {pretty_val(c.value)}"
    if isinstance(c, Let):
        return f"let val {c.name} <- {pretty(c.bound)} in {pretty(c.body)}"
    if isinstance(c, If):
        return f"if {pretty_val(c.cond)} then {pretty(c.then)} else {pretty(c.orelse)}"
    if isinstance(c, Match):
        return (
            f"match {pretty_val(c.subject)} as ({c.fst_name}, {c.snd_name}) "
            f"in {pretty(c.body)}"
        )
    if isinstance(c, Flip):
        return f"flip({c.bias})"
    if isinstance(c, Fresh):
        return "fresh()"
    if isinstance(c, Eq):
        return f"{pretty_val(c.lhs)} == {pretty_val(c.rhs)}"
    if isinstance(c, MemFn):
        return f"memfn {c.binder}. {pretty(c.body)}"
    if isinstance(c, App):
        return f"{pretty_val(c.fn)} @ {pretty_val(c.arg)}"
    if isinstance(c, MemoCtx):
        # trace display only; not part of the surface grammar
        return f"{{{{{pretty(c.inner)}}}}}^(fun{c.fun_label},atom{c.atom_label})"
    raise TypeError(f"not a term: {c!r}")


# ---------------------------------------------------------------------------
# Free variables, alpha-equivalence, substitution, the freshness check.
# These walk a computation through ``_parts`` and ``_with_parts``, the one
# place that says what each construct binds in which sub-computation.

_Scope = tuple[tuple[Ident, ...], Comp]


def _parts(c: Comp) -> tuple[tuple[Val, ...], tuple[_Scope, ...]]:
    """A computation's value operands, and its sub-computations each paired
    with the names it binds there, in source order."""
    if isinstance(c, Return):
        return (c.value,), ()
    if isinstance(c, Let):
        return (), (((), c.bound), ((c.name,), c.body))
    if isinstance(c, If):
        return (c.cond,), (((), c.then), ((), c.orelse))
    if isinstance(c, Match):
        return (c.subject,), (((c.fst_name, c.snd_name), c.body),)
    if isinstance(c, (Flip, Fresh)):
        return (), ()
    if isinstance(c, Eq):
        return (c.lhs, c.rhs), ()
    if isinstance(c, MemFn):
        return (), (((c.binder,), c.body),)
    if isinstance(c, App):
        return (c.fn, c.arg), ()
    raise TypeError(f"not a computation: {c!r}")


def _with_parts(c: Comp, vals: list[Val], scopes: list[_Scope]) -> Comp:
    """``c`` rebuilt from parts shaped as ``_parts(c)`` returns them."""
    if isinstance(c, Let):
        (_, bound), ((name,), body) = scopes
        return Let(name, bound, body)
    if isinstance(c, Match):
        (((fst, snd), body),) = scopes
        return Match(*vals, fst, snd, body)
    if isinstance(c, MemFn):
        (((binder,), body),) = scopes
        return MemFn(binder, body)
    if isinstance(c, (Flip, Fresh)):
        return c
    # Return, If, Eq, App: the values, then the bodies, which bind nothing
    return type(c)(*vals, *(body for _, body in scopes))


def _map_vars(v: Val, sigma: dict[Ident, Val]) -> Val:
    """``v`` with each variable in ``sigma`` replaced by its image."""
    if isinstance(v, Var):
        return sigma.get(v.name, v)
    if isinstance(v, PairVal):
        return PairVal(_map_vars(v.fst, sigma), _map_vars(v.snd, sigma))
    return v


def free_vars_val(v: Val) -> frozenset[Ident]:
    if isinstance(v, BoolLit):
        return frozenset()
    if isinstance(v, Var):
        return frozenset([v.name])
    return free_vars_val(v.fst) | free_vars_val(v.snd)


def free_var_names(c: Comp) -> tuple[Ident, ...]:
    """A computation's free variables, sorted.  Kept on the node: a term is
    walked once however often its subterms are asked.  A loop, not a
    generator, so that a nested term costs one frame per level."""
    fv = getattr(c, "_fv", None)
    if fv is not None:
        return fv
    vals, scopes = _parts(c)
    names: set[Ident] = set()
    for v in vals:
        names |= free_vars_val(v)
    for binders, body in scopes:
        names |= set(free_var_names(body)).difference(binders)
    fv = tuple(sorted(names))
    set_field(c, "_fv", fv)
    return fv


def free_vars(c: Comp) -> frozenset[Ident]:
    return frozenset(free_var_names(c))


def alpha_canonical(c: Comp) -> Comp:
    """Rename bound variables to %0, %1, ... in binder-occurrence order.

    The % prefix cannot appear in source identifiers, so canonical forms of
    alpha-equivalent terms are structurally equal and never capture free
    variables.
    """
    counter = count()

    def go(c: Comp, env: dict[Ident, Val]) -> Comp:
        vals, scopes = _parts(c)
        renamed = []
        for binders, body in scopes:
            names = tuple(f"%{next(counter)}" for _ in binders)
            inner = {**env, **{b: Var(n) for b, n in zip(binders, names)}}
            renamed.append((names, go(body, inner)))
        return _with_parts(c, [_map_vars(v, env) for v in vals], renamed)

    return go(c, {})


def alpha_eq(a: Comp, b: Comp) -> bool:
    """Equality up to consistent renaming of bound variables."""
    return alpha_canonical(a) == alpha_canonical(b)


def _fresh_name(base: Ident, avoid: frozenset[Ident]) -> Ident:
    i = 1
    while f"{base}_{i}" in avoid:
        i += 1
    return f"{base}_{i}"


def substitute(c: Comp, x: Ident, replacement: Val) -> Comp:
    """Capture-avoiding substitution of a value for a free variable.

    A scope that binds ``x`` is left alone; elsewhere each binder that would
    capture a variable of ``replacement`` is renamed first, in order.
    """
    repl_fvs = free_vars_val(replacement)
    vals, scopes = _parts(c)
    out = []
    for binders, body in scopes:
        if x not in binders:
            renamed = []
            for b in binders:
                if b in repl_fvs:
                    new = _fresh_name(b, repl_fvs | free_vars(body) | {x})
                    body = substitute(body, b, Var(new))
                    b = new
                renamed.append(b)
            binders, body = tuple(renamed), substitute(body, x, replacement)
        out.append((binders, body))
    return _with_parts(c, [_map_vars(v, {x: replacement}) for v in vals], out)


def syntactic_freshness_check(fn: MemFn) -> bool:
    """Sufficient check that a memoized function's bias on a new atom does
    not depend on the new atom's connections.

    Returns False iff some application subterm's argument variable is bound
    inside the abstraction (the memoized binder or a local binder); such an
    argument can name an atom the abstraction itself is being asked about.
    True guarantees the world-indexed evaluator accepts the function at
    every world; False only means the cheap check is inconclusive.
    """
    if not isinstance(fn, MemFn):
        raise TypeError(f"expected a memfn node, got {fn!r}")

    def ok(c: Comp, bound: frozenset[Ident]) -> bool:
        vals, scopes = _parts(c)
        if isinstance(c, App):
            _, arg = vals
            return not (isinstance(arg, Var) and arg.name in bound)
        return all(ok(body, bound.union(binders)) for binders, body in scopes)

    return ok(fn, frozenset())
