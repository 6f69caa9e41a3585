"""Surface syntax, abstract syntax, and purely syntactic analyses.

The term language is layered into values and computations.  Computations are
sequenced with ``let val x <- u in t``; the effectful primitives are
``flip(RAT)`` (biased coin), ``fresh()`` (new atomic name), atom equality
``v == w``, memoized random boolean functions ``memfn x. u``, and
application ``v @ w``.  Source files are UTF-8 with ``#`` line comments.

Biases are exact rationals: ``flip(1/3)`` and ``flip(0.5)`` are stored as
``Fraction`` values, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Any, Optional, Union

from .hashonce import HashOnce

Ident = str

# ---------------------------------------------------------------------------
# Abstract syntax
#
# Nodes are immutable and keep their hash after the first ``hash()``
# (``HashOnce``).  Computations and memo markers also keep the evaluator's
# progress measure, once ``opsem._term_size`` has computed it, and
# computations their free variables, once ``free_var_names`` has.


class _Term(HashOnce):
    __slots__ = ("_size", "_fv")


@dataclass(frozen=True, slots=True)
class BoolLit(HashOnce):
    value: bool


@dataclass(frozen=True, slots=True)
class Var(HashOnce):
    name: Ident


@dataclass(frozen=True, slots=True)
class PairVal(HashOnce):
    fst: "Val"
    snd: "Val"


Val = Union[BoolLit, Var, PairVal]


@dataclass(frozen=True, slots=True)
class Return(_Term):
    value: Val


@dataclass(frozen=True, slots=True)
class Let(_Term):
    name: Ident
    bound: "Comp"
    body: "Comp"


@dataclass(frozen=True, slots=True)
class If(_Term):
    cond: Val
    then: "Comp"
    orelse: "Comp"


@dataclass(frozen=True, slots=True)
class Match(_Term):
    subject: Val
    fst_name: Ident
    snd_name: Ident
    body: "Comp"


@dataclass(frozen=True, slots=True)
class Flip(_Term):
    bias: Fraction


@dataclass(frozen=True, slots=True)
class Fresh(_Term):
    pass


@dataclass(frozen=True, slots=True)
class Eq(_Term):
    lhs: Val
    rhs: Val


@dataclass(frozen=True, slots=True)
class MemFn(_Term):
    binder: Ident
    body: "Comp"


@dataclass(frozen=True, slots=True)
class App(_Term):
    fn: Val
    arg: Val


Comp = Union[Return, Let, If, Match, Flip, Fresh, Eq, MemFn, App]


@dataclass(frozen=True, slots=True)
class MemoCtx(_Term):
    """Pending memoization marker produced only by the evaluator.

    Wraps a computation whose boolean result must be written to the
    memo-table edge ``(fun_label, atom_label)``; afterwards the environment
    is restored to ``restore_env``.  The payload is opaque to the syntactic
    layer and to the typechecker.
    """

    inner: "ExtTerm"
    fun_label: int
    atom_label: int
    restore_env: Any


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


@dataclass(frozen=True)
class Token:
    kind: str  # "kw" | "ident" | "number" | "sym" | "eof"
    text: str
    line: int
    col: int


_DIGITS = frozenset("0123456789")  # ASCII only: str.isdigit() also accepts "²"
_SYMBOLS = ("<-", "==", "(", ")", ",", ".", "@", "/")


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(text)

    def error(message: str) -> ParseError:
        return ParseError(message, line, col)

    while i < n:
        c = text[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if c in " \t\r":
            i, col = i + 1, col + 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "kw" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, start_line, start_col))
            col += j - i
            i = j
            continue
        if c in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1] in _DIGITS:
                j += 1
                while j < n and text[j] in _DIGITS:
                    j += 1
            tokens.append(Token("number", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token("sym", sym, start_line, start_col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise error(f"unexpected character {c!r}")
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent; the grammar is LL(1) over this token stream)

_VAL_STARTERS = frozenset({("kw", "true"), ("kw", "false")})


def _literal(tok: Token, text: str) -> Fraction:
    try:
        return Fraction(text)
    except ValueError:  # more digits than Python converts to an int
        raise ParseError("number has too many digits", tok.line, tok.col) from None


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected) -> ParseError:
        tok = self.peek()
        found = tok.text or "end of input"
        exp = ", ".join(sorted(expected))
        return ParseError(
            f"expected {exp}, found {found!r}", tok.line, tok.col, expected, found
        )

    def expect_sym(self, sym: str) -> Token:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == sym:
            return self.advance()
        raise self.fail({sym})

    def expect_kw(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind == "kw" and tok.text == word:
            return self.advance()
        raise self.fail({word})

    def expect_ident(self) -> str:
        tok = self.peek()
        if tok.kind == "ident":
            return self.advance().text
        if tok.kind == "kw":
            raise ParseError(
                f"reserved word {tok.text!r} cannot be used as an identifier",
                tok.line, tok.col, {"identifier"}, tok.text,
            )
        raise self.fail({"identifier"})

    def starts_value(self) -> bool:
        tok = self.peek()
        return (
            tok.kind == "ident"
            or (tok.kind, tok.text) in _VAL_STARTERS
            or (tok.kind == "sym" and tok.text == "(")
        )

    def parse_val(self) -> Val:
        tok = self.peek()
        if tok.kind == "kw" and tok.text in ("true", "false"):
            self.advance()
            return BoolLit(tok.text == "true")
        if tok.kind == "ident":
            return Var(self.advance().text)
        if tok.kind == "sym" and tok.text == "(":
            self.advance()
            fst = self.parse_val()
            self.expect_sym(",")
            snd = self.parse_val()
            self.expect_sym(")")
            return PairVal(fst, snd)
        raise self.fail({"true", "false", "identifier", "("})

    def parse_rat(self) -> Fraction:
        tok = self.peek()
        if tok.kind != "number":
            raise self.fail({"number"})
        self.advance()
        if self.peek().kind == "sym" and self.peek().text == "/":
            if "." in tok.text:
                raise ParseError(
                    "decimal numerator not allowed in a fraction",
                    tok.line, tok.col, {"integer"}, tok.text,
                )
            self.advance()
            den = self.peek()
            if den.kind != "number" or "." in den.text:
                raise self.fail({"integer"})
            self.advance()
            if not den.text.strip("0"):
                raise ParseError("zero denominator", den.line, den.col)
            value = _literal(tok, f"{tok.text}/{den.text}")
        else:
            value = _literal(tok, tok.text)
        if value < 0 or value > 1:
            raise ParseError(
                f"bias must be between 0 and 1, got {value}", tok.line, tok.col
            )
        return value

    def parse_comp(self) -> Comp:
        tok = self.peek()
        if tok.kind == "kw":
            if tok.text == "return":
                self.advance()
                return Return(self.parse_val())
            if tok.text == "let":
                self.advance()
                self.expect_kw("val")
                name = self.expect_ident()
                self.expect_sym("<-")
                bound = self.parse_comp()
                self.expect_kw("in")
                body = self.parse_comp()
                return Let(name, bound, body)
            if tok.text == "if":
                self.advance()
                cond = self.parse_val()
                self.expect_kw("then")
                then = self.parse_comp()
                self.expect_kw("else")
                orelse = self.parse_comp()
                return If(cond, then, orelse)
            if tok.text == "match":
                self.advance()
                subject = self.parse_val()
                self.expect_kw("as")
                self.expect_sym("(")
                fst = self.expect_ident()
                self.expect_sym(",")
                snd = self.expect_ident()
                self.expect_sym(")")
                self.expect_kw("in")
                body = self.parse_comp()
                return Match(subject, fst, snd, body)
            if tok.text == "flip":
                self.advance()
                self.expect_sym("(")
                bias = self.parse_rat()
                self.expect_sym(")")
                return Flip(bias)
            if tok.text == "fresh":
                self.advance()
                self.expect_sym("(")
                self.expect_sym(")")
                return Fresh()
            if tok.text == "memfn":
                self.advance()
                binder = self.expect_ident()
                self.expect_sym(".")
                return MemFn(binder, self.parse_comp())
        if self.starts_value():
            lhs = self.parse_val()
            op = self.peek()
            if op.kind == "sym" and op.text == "==":
                self.advance()
                return Eq(lhs, self.parse_val())
            if op.kind == "sym" and op.text == "@":
                self.advance()
                return App(lhs, self.parse_val())
            raise self.fail({"==", "@"})
        raise self.fail(
            {"return", "let", "if", "match", "flip", "fresh", "memfn",
             "true", "false", "identifier", "("}
        )


def parse_program(text: str) -> Comp:
    """Parse a whole program; raises ParseError on malformed input."""
    parser = _Parser(text)
    comp = parser.parse_comp()
    if parser.peek().kind != "eof":
        raise parser.fail({"end of input"})
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
    object.__setattr__(c, "_fv", fv)
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
