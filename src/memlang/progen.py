"""Stratified random generation of well-typed programs, plus the law suites
(memoization, dataflow, monad laws) built on the generator.

All randomness flows through an explicit ``random.Random``, so every suite
is reproducible from (count, seed).  Generated memoized bodies only apply
functions to atoms bound outside the outermost enclosing abstraction, so
they always pass the cheap freshness check and are safe for the
world-indexed evaluator.

A generator's scope indexes its names by type as it binds them, so asking
for the names of a type is one dict lookup.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Sequence

from . import bigraph as B
from . import denot as D
from . import opsem as O
from . import syntax as S
from . import typecheck as TC
from .dist import dist_eq

BIASES = (
    Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
    Fraction(2, 3), Fraction(3, 4), Fraction(1),
)


def let_chain(bindings: list[tuple[str, S.Comp]], tail: S.Comp) -> S.Comp:
    out = tail
    for name, comp in reversed(bindings):
        out = S.Let(name, comp, out)
    return out


class _Scope(NamedTuple):
    """The names in scope, indexed by type: ``bind`` extends the index, so
    asking for the names of a type is one lookup, not a scan."""

    types: tuple[TC.Ty, ...]  # the type of each binding, in binding order
    by_type: Mapping[TC.Ty, tuple[str, ...]]  # each type's names, in binding order
    pairs: tuple[tuple[str, TC.ProdT], ...]  # the bindings of product type
    clean_atoms: frozenset[str]  # atoms usable as application arguments
    in_memfn: bool

    def bind(self, name: str, ty: TC.Ty) -> "_Scope":
        clean, pairs = self.clean_atoms, self.pairs
        if ty is TC.ATOM and not self.in_memfn:
            clean = clean | {name}
        elif isinstance(ty, TC.ProdT):
            pairs += ((name, ty),)
        by_type = {**self.by_type, ty: self.by_type.get(ty, ()) + (name,)}
        return _Scope(self.types + (ty,), by_type, pairs, clean, self.in_memfn)


_EMPTY_SCOPE = _Scope((), {}, (), frozenset(), False)


def _scope_from(types: Mapping[str, TC.Ty]) -> _Scope:
    scope = _EMPTY_SCOPE
    for name, ty in types.items():
        scope = scope.bind(name, ty)
    return scope


class ProgramGen:
    """Generator of well-typed closed programs within static budgets."""

    def __init__(
        self,
        rng: random.Random,
        max_flips: int = 3,
        max_freshes: int = 3,
        max_memfns: int = 2,
        max_depth: int = 8,
    ):
        self.rng = rng
        self.max_flips = max_flips
        self.max_freshes = max_freshes
        self.max_memfns = max_memfns
        self.max_depth = max_depth
        self._flips = 0
        self._freshes = 0
        self._memfns = 0
        self._names = 0

    # -- scope helpers ------------------------------------------------------

    def _ident(self, prefix: str) -> str:
        self._names += 1
        return f"{prefix}{self._names}"

    @staticmethod
    def _of_type(scope: _Scope, ty: TC.Ty) -> Sequence[str]:
        return scope.by_type.get(ty, ())

    def _app_args(self, scope: _Scope) -> Sequence[str]:
        if scope.in_memfn:
            return sorted(scope.clean_atoms)
        return self._of_type(scope, TC.ATOM)

    def _value_types(self, scope: _Scope) -> list[TC.Ty]:
        out: list[TC.Ty] = [TC.BOOL]
        if self._of_type(scope, TC.ATOM):
            out.append(TC.ATOM)
        if self._of_type(scope, TC.FUN):
            out.append(TC.FUN)
        return out

    def _realizable(self, scope: _Scope, ty: TC.Ty) -> bool:
        """Whether ``_val`` can build a value of ``ty`` in ``scope``.  Draws
        nothing from the rng."""
        if ty is TC.BOOL or self._of_type(scope, ty):
            return True
        return (
            isinstance(ty, TC.ProdT)
            and self._realizable(scope, ty.fst)
            and self._realizable(scope, ty.snd)
        )

    def _val(self, scope: _Scope, ty: TC.Ty) -> S.Val:
        """A value of ``ty``.  A pair is built from its parts when the scope
        can build both, and is a variable of the whole product type
        otherwise; such a type came from the scope, so it has one."""
        if ty is TC.BOOL:
            names = self._of_type(scope, TC.BOOL)
            if names and self.rng.random() < 0.5:
                return S.Var(self.rng.choice(names))
            return S.BoolLit(self.rng.random() < 0.5)
        if (
            isinstance(ty, TC.ProdT)
            and self._realizable(scope, ty.fst)
            and self._realizable(scope, ty.snd)
        ):
            return S.PairVal(self._val(scope, ty.fst), self._val(scope, ty.snd))
        names = self._of_type(scope, ty)
        return S.Var(self.rng.choice(names))

    # -- computations -------------------------------------------------------

    def program(self) -> S.Comp:
        return self._comp(_scope_from({}), 0, None)

    def program_over(self, types: Mapping[str, TC.Ty]) -> S.Comp:
        return self._comp(_scope_from(types), 0, None)

    def gen_memfn(self, outer: Mapping[str, TC.Ty]) -> S.MemFn:
        return self._memfn_rhs(_scope_from(outer), 0)

    def _memfn_rhs(self, scope: _Scope, depth: int) -> S.MemFn:
        self._memfns += 1
        binder = self._ident("x")
        if scope.in_memfn:
            clean = scope.clean_atoms
        else:
            clean = frozenset(self._of_type(scope, TC.ATOM))
        inner = scope._replace(clean_atoms=clean, in_memfn=True).bind(binder, TC.ATOM)
        return S.MemFn(binder, self._comp(inner, depth + 1, TC.BOOL))

    def _branch_want(self, scope: _Scope) -> TC.Ty:
        candidates: list[TC.Ty] = [TC.BOOL, TC.BOOL]
        candidates.extend(scope.types)
        return self.rng.choice(candidates)

    def _statement(self, scope: _Scope, depth: int) -> tuple[str, S.Comp, TC.Ty]:
        feasible: list[str] = []
        if self._flips < self.max_flips:
            feasible += ["flip"] * 3
        if self._freshes < self.max_freshes:
            feasible += ["fresh"] * 3
        if self._memfns < self.max_memfns and depth + 1 < self.max_depth:
            feasible += ["memfn"] * 2
        if self._of_type(scope, TC.ATOM):
            feasible += ["eq"] * 2
        if self._of_type(scope, TC.FUN) and self._app_args(scope):
            feasible += ["app"] * 3
        feasible += ["retval"]
        if depth + 1 < self.max_depth:
            feasible += ["ifc"] * 2
            if scope.pairs:
                feasible += ["matchc"]
        kind = self.rng.choice(feasible)
        if kind in ("flip", "eq", "app"):
            return self._ident("b"), self._bool_leaf(kind, scope), TC.BOOL
        if kind == "fresh":
            self._freshes += 1
            return self._ident("x"), S.Fresh(), TC.ATOM
        if kind == "memfn":
            return self._ident("f"), self._memfn_rhs(scope, depth), TC.FUN
        if kind == "retval":
            value_types = self._value_types(scope)
            ty: TC.Ty = self.rng.choice(value_types)
            if self.rng.random() < 0.3:
                ty = TC.ProdT(self.rng.choice(value_types), self.rng.choice(value_types))
            return self._ident("v"), S.Return(self._val(scope, ty)), ty
        if kind == "ifc":
            want = self._branch_want(scope)
            bools = self._of_type(scope, TC.BOOL)
            if bools and self.rng.random() < 0.6:
                scrut: S.Val = S.Var(self.rng.choice(bools))
            else:
                scrut = S.BoolLit(self.rng.random() < 0.5)
            then = self._comp(scope, depth + 1, want)
            orelse = self._comp(scope, depth + 1, want)
            return self._ident("v"), S.If(scrut, then, orelse), want
        if kind == "matchc":
            name, prod = self.rng.choice(scope.pairs)
            fst, snd = self._ident("m"), self._ident("m")
            inner = scope.bind(fst, prod.fst).bind(snd, prod.snd)
            want = self._branch_want(inner)
            body = self._comp(inner, depth + 1, want)
            return self._ident("v"), S.Match(S.Var(name), fst, snd, body), want
        raise AssertionError(kind)

    def _finisher(self, scope: _Scope, want: Optional[TC.Ty]) -> S.Comp:
        if want is None:
            options: list[TC.Ty] = [TC.BOOL] * 3
            if self._of_type(scope, TC.ATOM):
                options += [TC.ATOM] * 2
            if self._of_type(scope, TC.FUN):
                options += [TC.FUN] * 2
            value_types = self._value_types(scope)
            if self.rng.random() < 0.35:
                options.append(
                    TC.ProdT(self.rng.choice(value_types), self.rng.choice(value_types))
                )
            want = self.rng.choice(options)
        if want is TC.BOOL:
            kinds = ["retval", "retval"]
            if self._flips < self.max_flips:
                kinds += ["flip"] * 2
            if self._of_type(scope, TC.ATOM):
                kinds += ["eq"] * 2
            if self._of_type(scope, TC.FUN) and self._app_args(scope):
                kinds += ["app"] * 2
            kind = self.rng.choice(kinds)
            if kind == "retval":
                return S.Return(self._val(scope, TC.BOOL))
            return self._bool_leaf(kind, scope)
        return S.Return(self._val(scope, want))

    def _bool_leaf(self, kind: str, scope: _Scope) -> S.Comp:
        """A boolean leaf: kind "flip", "eq" (an atom equality) or "app" (a
        function applied to an atom it may be applied to)."""
        if kind == "flip":
            self._flips += 1
            return S.Flip(self.rng.choice(BIASES))
        if kind == "eq":
            atoms = self._of_type(scope, TC.ATOM)
            return S.Eq(S.Var(self.rng.choice(atoms)), S.Var(self.rng.choice(atoms)))
        fun = self.rng.choice(self._of_type(scope, TC.FUN))
        arg = self.rng.choice(self._app_args(scope))
        return S.App(S.Var(fun), S.Var(arg))

    def _comp(self, scope: _Scope, depth: int, want: Optional[TC.Ty]) -> S.Comp:
        bindings: list[tuple[str, S.Comp]] = []
        room = self.max_depth - depth - 1
        while len(bindings) < room and self.rng.random() < 0.72:
            name, rhs, ty = self._statement(scope, depth + len(bindings))
            bindings.append((name, rhs))
            scope = scope.bind(name, ty)
        return let_chain(bindings, self._finisher(scope, want))


# ---------------------------------------------------------------------------
# Law suites


class SuiteResult(NamedTuple):
    suite: str
    count: int
    seed: int
    passed: int
    failures: list[dict]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return self._asdict()


def soundness_corpus(count: int, seed: int) -> list[S.Comp]:
    """Closed, freshness-clean, well-typed programs for end-to-end checks."""
    rng = random.Random(seed)
    return [ProgramGen(rng).program() for _ in range(count)]


def _mem_instance(rng: random.Random) -> tuple[list[tuple[str, S.Comp]], S.MemFn]:
    """A shared setup prefix and a clean memoized abstraction over it."""
    setup: list[tuple[str, S.Comp]] = [("anchor", S.Fresh())]
    outer: dict[str, TC.Ty] = {"anchor": TC.ATOM}
    if rng.random() < 0.5:
        setup.append(("helper", S.MemFn("w", S.Flip(rng.choice(BIASES)))))
        outer["helper"] = TC.FUN
    gen = ProgramGen(rng, max_flips=2, max_freshes=1, max_memfns=1, max_depth=5)
    setup.append(("nu", S.Fresh()))
    body_scope = dict(outer)
    if rng.random() < 0.5:
        # let the body mention the probe atom itself
        body_scope["nu"] = TC.ATOM
    fn = gen.gen_memfn(body_scope)
    if not S.syntactic_freshness_check(fn):
        raise ValueError(f"generated abstraction is not freshness-clean: {S.pretty(fn)}")
    return setup, fn


def mem_law_programs(setup: list[tuple[str, S.Comp]], fn: S.MemFn) -> dict[str, tuple[S.Comp, S.Comp]]:
    """The program pairs a memoized function must equate.

    one_sample: binding the function and applying it once is running the
    body directly.  two_sample: applying twice at the same atom duplicates a
    single sample.  probe: sampling the function's answer at one atom first
    does not disturb its answer elsewhere.
    """
    inlined = S.substitute(fn.body, fn.binder, S.Var("nu"))
    app = S.App(S.Var("fnm"), S.Var("nu"))
    one_lhs = let_chain([*setup, ("fnm", fn), ("r1", app)], S.Return(S.Var("r1")))
    one_rhs = let_chain([*setup, ("r1", inlined)], S.Return(S.Var("r1")))
    pair = S.Return(S.PairVal(S.Var("r1"), S.Var("r2")))
    two_lhs = let_chain([*setup, ("fnm", fn), ("r1", app), ("r2", app)], pair)
    two_rhs = let_chain(
        [*setup, ("r1", inlined)], S.Return(S.PairVal(S.Var("r1"), S.Var("r1")))
    )
    probe_lhs = let_chain(
        [*setup, ("nu2", S.Fresh()), ("fnm", fn), ("r1", app),
         ("r2", S.App(S.Var("fnm"), S.Var("nu2")))],
        pair,
    )
    probe_rhs = let_chain(
        [*setup, ("nu2", S.Fresh()), ("r1", inlined), ("fnm", fn),
         ("r2", S.App(S.Var("fnm"), S.Var("nu2")))],
        pair,
    )
    return {
        "one_sample": (one_lhs, one_rhs),
        "two_sample": (two_lhs, two_rhs),
        "probe": (probe_lhs, probe_rhs),
    }


def run_mem_law_suite(count: int, seed: int) -> SuiteResult:
    """Check the memoization equations in both semantics on generated bodies."""
    rng = random.Random(seed)
    failures = []
    for index in range(count):
        setup, fn = _mem_instance(rng)
        for name, (lhs, rhs) in mem_law_programs(setup, fn).items():
            TC.type_of_comp(TC.EMPTY_CTX, lhs)
            TC.type_of_comp(TC.EMPTY_CTX, rhs)
            if not dist_eq(D.den_program(lhs), D.den_program(rhs)):
                failures.append(
                    {"case": index, "law": name, "semantics": "compositional",
                     "lhs": S.pretty(lhs), "rhs": S.pretty(rhs)}
                )
            if not dist_eq(O.observational_bigstep(lhs), O.observational_bigstep(rhs)):
                failures.append(
                    {"case": index, "law": name, "semantics": "operational",
                     "lhs": S.pretty(lhs), "rhs": S.pretty(rhs)}
                )
    return SuiteResult("mem", count, seed, count - len({f["case"] for f in failures}), failures)


def run_dataflow_suite(count: int, seed: int) -> SuiteResult:
    """Check reorder and discard equations on generated binding triples."""
    rng = random.Random(seed)
    failures = []
    for index in range(count):
        t1 = ProgramGen(rng, 2, 2, 1, 4).program()
        t2 = ProgramGen(rng, 2, 2, 1, 4).program()
        ty1 = TC.type_of_comp(TC.EMPTY_CTX, t1)
        ty2 = TC.type_of_comp(TC.EMPTY_CTX, t2)
        u = ProgramGen(rng, 1, 1, 1, 4).program_over({"xl": ty1, "xr": ty2})
        if not D.check_dataflow(t1, t2, u, "xl", "xr"):
            failures.append(
                {"case": index, "t1": S.pretty(t1), "t2": S.pretty(t2), "u": S.pretty(u)}
            )
    return SuiteResult("dataflow", count, seed, count - len(failures), failures)


def _random_world(rng: random.Random):
    n_funs = rng.randint(0, 2)
    n_atoms = rng.randint(0, 2)
    edges = {
        (f, a): rng.random() < 0.5 for f in range(n_funs) for a in range(n_atoms)
    }
    graph = B.TotalBigraph(range(n_funs), range(n_atoms), edges)
    types: dict[str, TC.Ty] = {}
    values: dict[str, O.EnvValue] = {}
    for f in range(n_funs):
        types[f"gf{f}"] = TC.FUN
        values[f"gf{f}"] = O.FunV(f)
    for a in range(n_atoms):
        types[f"ga{a}"] = TC.ATOM
        values[f"ga{a}"] = O.AtomV(a)
    types["gb"] = TC.BOOL
    values["gb"] = O.BOOLS[rng.random() < 0.5]
    return graph, types, O.FrozenMap(values)


def _random_bias(rng: random.Random, graph: B.TotalBigraph) -> dict[int, Fraction]:
    return {f: Fraction(rng.randint(0, 4), 4) for f in graph.left}


def run_monad_suite(count: int, seed: int) -> SuiteResult:
    """Check unit and associativity equations pointwise at five random bias
    states per case on random small worlds."""
    rng = random.Random(seed)
    failures = []
    for index in range(count):
        B.check_undefined_budget(0)  # as den_program does, whatever the case reaches
        graph, types, env = _random_world(rng)
        ctx = TC.TyCtx(types.items())
        m_comp = ProgramGen(rng, 2, 1, 1, 4).program_over(types)
        ty_m = TC.type_of_comp(ctx, m_comp)
        k_comp = ProgramGen(rng, 1, 1, 1, 4).program_over({**types, "xk": ty_m})
        ty_k = TC.type_of_comp(ctx.extend("xk", ty_m), k_comp)
        l_comp = ProgramGen(rng, 1, 1, 0, 4).program_over({**types, "yk": ty_k})
        # a value type the scope can realize, for the left unit law
        unit_gen = ProgramGen(rng)
        tv = rng.choice(unit_gen._value_types(_scope_from(types)))
        unit_val = unit_gen._val(_scope_from(types), tv)
        k2_comp = ProgramGen(rng, 1, 1, 1, 4).program_over({**types, "xk": tv})
        checks = {
            "right_unit": (
                S.Let("xk", m_comp, S.Return(S.Var("xk"))),
                m_comp,
            ),
            "assoc": (
                S.Let("yk", S.Let("xk", m_comp, k_comp), l_comp),
                S.Let("xk", m_comp, S.Let("yk", k_comp, l_comp)),
            ),
        }
        for _ in range(5):
            lam = _random_bias(rng, graph)
            got = D.den_comp(S.Let("xk", S.Return(unit_val), k2_comp), graph, env, lam)
            expected = D.den_comp(
                k2_comp, graph, env.set("xk", O.eval_value(env, unit_val)), lam
            )
            if not dist_eq(D.expand(got), D.expand(expected)):
                failures.append({"case": index, "law": "left_unit", "bias": str(lam)})
            for law, (lhs, rhs) in checks.items():
                if not dist_eq(
                    D.expand(D.den_comp(lhs, graph, env, lam)),
                    D.expand(D.den_comp(rhs, graph, env, lam)),
                ):
                    failures.append({"case": index, "law": law, "bias": str(lam)})
    return SuiteResult("monad", count, seed, count - len({f["case"] for f in failures}), failures)
