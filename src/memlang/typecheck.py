"""Type synthesis for values, computations, and evaluator-extended terms.

Every construct's type is determined by its parts, so checking is pure
synthesis over a context of declarations.  Extended terms additionally
thread a stack of pending memoization pairs; a memo marker consumes the
pair at the head of the stack, and the stack is split between subterms
according to the textual position of the markers.  A source computation
is typed as an extended term at the empty stack, so one walker carries
every rule.

The base types ``BOOL``, ``ATOM`` and ``FUN`` are the one instance of their
class each, compared and hashed by identity (a copy or an unpickled copy is
the same object); products (``ProdT``) compare and hash structurally.
"""

from __future__ import annotations

from typing import Iterable, Optional

from . import syntax as S
from .hashonce import HashOnce, set_field

# ---------------------------------------------------------------------------
# Types


class _BaseType:
    """A base type has one instance, the module-level constant named by
    ``_name``: it is compared and hashed by identity, and a copy or an
    unpickled copy of it is that instance again."""

    __slots__ = ()
    _name: str

    def __repr__(self) -> str:
        return self._name.lower()

    def __reduce__(self) -> str:
        return self._name


class BoolT(_BaseType):
    __slots__ = ()
    _name = "BOOL"


class AtomT(_BaseType):
    __slots__ = ()
    _name = "ATOM"


class FunT(_BaseType):
    __slots__ = ()
    _name = "FUN"


class ProdT(HashOnce):
    __slots__ = _fields = ("fst", "snd")

    def __init__(self, fst: Ty, snd: Ty):
        set_field(self, "fst", fst)
        set_field(self, "snd", snd)

    def __repr__(self) -> str:
        return f"({self.fst!r} * {self.snd!r})"


Ty = BoolT | AtomT | FunT | ProdT

BOOL = BoolT()
ATOM = AtomT()
FUN = FunT()


class UnboundVariable(Exception):
    def __init__(self, name: str):
        super().__init__(f"unbound variable {name!r}")
        self.name = name


class TypeMismatch(Exception):
    def __init__(self, expected: str, found: str, where: str):
        super().__init__(f"expected {expected}, found {found} in {where}")
        self.expected = expected
        self.found = found
        self.where = where


class StackMismatch(Exception):
    pass


class DuplicateStackPair(Exception):
    def __init__(self, pair: tuple[int, int]):
        super().__init__(f"memoization pair {pair} occurs twice on the stack")
        self.pair = pair


class TyCtx:
    """Ordered list of declarations; later declarations shadow earlier ones."""

    __slots__ = ("_decls",)

    def __init__(self, decls: Iterable[tuple[S.Ident, Ty]] = ()):
        self._decls = tuple(decls)

    def extend(self, name: S.Ident, ty: Ty) -> "TyCtx":
        return TyCtx(self._decls + ((name, ty),))

    def lookup(self, name: S.Ident) -> Optional[Ty]:
        for decl_name, ty in reversed(self._decls):
            if decl_name == name:
                return ty
        return None

    def decls(self) -> tuple[tuple[S.Ident, Ty], ...]:
        return self._decls

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TyCtx) and self._decls == other._decls

    def __hash__(self) -> int:
        return hash(self._decls)

    def __repr__(self) -> str:
        return "TyCtx(" + ", ".join(f"{n}: {t!r}" for n, t in self._decls) + ")"


EMPTY_CTX = TyCtx()


def type_of_value(ctx: TyCtx, v: S.Val) -> Ty:
    if isinstance(v, S.BoolLit):
        return BOOL
    if isinstance(v, S.Var):
        ty = ctx.lookup(v.name)
        if ty is None:
            raise UnboundVariable(v.name)
        return ty
    if isinstance(v, S.PairVal):
        return ProdT(type_of_value(ctx, v.fst), type_of_value(ctx, v.snd))
    raise TypeError(f"not a value: {v!r}")


MemoStack = tuple[tuple[int, int], ...]


def type_of_ext(ctx: TyCtx, stack: Iterable[tuple[int, int]], e: S.ExtTerm) -> Ty:
    """Type an extended term against its pending-memoization stack.

    The stack lists pairs outermost-first: each memo marker consumes the
    head, and a marker on a let body or else branch jumps ahead of the pairs
    of its sibling subterm.  The whole stack must be consumed exactly.
    """
    stack = tuple(stack)
    ty, rest = _check_ext(ctx, stack, e)
    if rest:
        raise StackMismatch(f"unconsumed stack pairs {list(rest)}")
    return ty


def type_of_comp(ctx: TyCtx, c: S.Comp) -> Ty:
    """Type a source computation: an extended term at the empty stack."""
    return type_of_ext(ctx, (), c)


def _pop(stack: MemoStack, marker: S.MemoCtx) -> MemoStack:
    pair = (marker.fun_label, marker.atom_label)
    if not stack or stack[0] != pair:
        raise StackMismatch(
            f"memo marker {pair} does not match stack head "
            f"{stack[0] if stack else '(empty)'}"
        )
    rest = stack[1:]
    if pair in rest:
        raise DuplicateStackPair(pair)
    return rest


def _memo_result(ty: Ty, marker: S.MemoCtx) -> Ty:
    """A marker writes its body's result into the memo-table, so the body
    must yield a boolean, wherever the marker stands."""
    if ty is not BOOL:
        raise TypeMismatch("bool (memoized result)", repr(ty), S.pretty(marker))
    return ty


def _check_ext(ctx: TyCtx, stack: MemoStack, e: S.ExtTerm) -> tuple[Ty, MemoStack]:
    if isinstance(e, S.MemoCtx):
        ty, rest = _check_ext(ctx, _pop(stack, e), e.inner)
        return _memo_result(ty, e), rest
    if isinstance(e, S.Let):
        if isinstance(e.body, S.MemoCtx):
            # the body's marker pair precedes the pairs of the bound term
            rest = _pop(stack, e.body)
            bound_ty, rest = _check_ext(ctx, rest, e.bound)
            ty, rest = _check_ext(ctx.extend(e.name, bound_ty), rest, e.body.inner)
            return _memo_result(ty, e.body), rest
        bound_ty, rest = _check_ext(ctx, stack, e.bound)
        return _check_ext(ctx.extend(e.name, bound_ty), rest, e.body)
    if isinstance(e, S.If):
        cond_ty = type_of_value(ctx, e.cond)
        if cond_ty is not BOOL:
            raise TypeMismatch("bool", repr(cond_ty), S.pretty(e))
        orelse: S.ExtTerm = e.orelse
        if isinstance(orelse, S.MemoCtx):
            stack = _pop(stack, orelse)
            orelse = orelse.inner
        then_ty, rest = _check_ext(ctx, stack, e.then)
        else_ty, rest = _check_ext(ctx, rest, orelse)
        if isinstance(e.orelse, S.MemoCtx):
            _memo_result(else_ty, e.orelse)
        if then_ty != else_ty:
            raise TypeMismatch(repr(then_ty), repr(else_ty), S.pretty(e))
        return then_ty, rest
    if isinstance(e, S.Match):
        subject_ty = type_of_value(ctx, e.subject)
        if not isinstance(subject_ty, ProdT):
            raise TypeMismatch("a product", repr(subject_ty), S.pretty(e))
        inner = ctx.extend(e.fst_name, subject_ty.fst).extend(e.snd_name, subject_ty.snd)
        return _check_ext(inner, stack, e.body)
    # the remaining rules consume nothing and pass the stack on unchanged
    if isinstance(e, S.Return):
        return type_of_value(ctx, e.value), stack
    if isinstance(e, S.Flip):
        if e.bias < 0 or e.bias > 1:
            raise TypeMismatch("bias in [0, 1]", str(e.bias), S.pretty(e))
        return BOOL, stack
    if isinstance(e, S.Fresh):
        return ATOM, stack
    if isinstance(e, S.Eq):
        for side in (e.lhs, e.rhs):
            ty = type_of_value(ctx, side)
            if ty is not ATOM:
                raise TypeMismatch("atom", repr(ty), S.pretty(e))
        return BOOL, stack
    if isinstance(e, S.MemFn):
        # a body is source syntax: it carries no markers of its own
        body_ty = type_of_comp(ctx.extend(e.binder, ATOM), e.body)
        if body_ty is not BOOL:
            raise TypeMismatch("bool (memoized function body)", repr(body_ty), S.pretty(e))
        return FUN, stack
    if isinstance(e, S.App):
        fn_ty = type_of_value(ctx, e.fn)
        if fn_ty is not FUN:
            raise TypeMismatch("fun", repr(fn_ty), S.pretty(e))
        arg_ty = type_of_value(ctx, e.arg)
        if arg_ty is not ATOM:
            raise TypeMismatch("atom", repr(arg_ty), S.pretty(e))
        return BOOL, stack
    raise TypeError(f"not a computation: {e!r}")
