"""Small-step reduction, seeded sampling, and exact exhaustive execution.

A configuration bundles an environment (variables to runtime values), the
term under evaluation, the partial memo-table, and the closures backing the
function labels.  Reduction finds the unique leftmost-outermost redex, fires
one rule, and either stays deterministic or, at a coin flip, splits into an
exact two-point distribution over successor configurations.  The redex's
evaluation context is the term's own spine above it: the lets whose bound
term, and the memo markers whose body, hold the redex, outermost first.  A
step rebuilds that spine around the rule's result and reads the pending
memoizations off its markers.

``enumerate_bigstep`` unfolds ``step`` exhaustively with exact rational
weights; ``run_sampled`` follows one trace of ``step`` with a seeded generator;
``observe`` quotients terminal configurations down to the data a caller can
actually distinguish (returned value, the reachable slice of the memo-table,
and retained closures up to bound-variable renaming).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Mapping, Optional, Union

from . import bigraph as B
from . import syntax as S
from . import typecheck as TC
from .dist import ONE, ZERO, FinDist, dirac, map_dist
from .hashonce import HashOnce

_STEP_BUDGET = 1_000_000


class Stuck(Exception):
    """No redex found in a non-terminal term; unreachable for typed input."""


class MalformedConfiguration(Exception):
    pass


class StepBudgetExceeded(Exception):
    """``enumerate_bigstep`` took more than ``_STEP_BUDGET`` steps."""


class JudgementFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# Runtime values and immutable maps


@dataclass(frozen=True, slots=True)
class BoolV(HashOnce):
    value: bool


@dataclass(frozen=True, slots=True)
class FunV(HashOnce):
    label: int


@dataclass(frozen=True, slots=True)
class AtomV(HashOnce):
    label: int


@dataclass(frozen=True, slots=True)
class PairV(HashOnce):
    fst: "EnvValue"
    snd: "EnvValue"


EnvValue = Union[BoolV, FunV, AtomV, PairV]


_first = itemgetter(0)


class FrozenMap(HashOnce):
    """Small immutable map with deterministic ordering, usable as a dict key."""

    __slots__ = ("_d", "_key")
    _hash_key = attrgetter("_key")

    def __init__(self, items: Mapping | Iterable[tuple] = ()):
        d = dict(items)
        self._d = d
        self._key = tuple(sorted(d.items(), key=lambda kv: kv[0]))

    def set(self, key, value) -> "FrozenMap":
        """This map with ``key`` bound to ``value``; the pair goes into its
        sorted place, replacing the key's old pair if it has one."""
        d = dict(self._d)
        d[key] = value
        items = self._key
        i = bisect_left(items, key, key=_first)
        end = i + 1 if i < len(items) and items[i][0] == key else i
        out = FrozenMap.__new__(FrozenMap)
        out._d = d
        out._key = items[:i] + ((key, value),) + items[end:]
        return out

    def get(self, key, default=None):
        return self._d.get(key, default)

    def __getitem__(self, key):
        return self._d[key]

    def __contains__(self, key) -> bool:
        return key in self._d

    def keys(self):
        return [k for k, _ in self._key]

    def items(self) -> tuple:
        return self._key

    def __iter__(self) -> Iterator:
        return iter(self.keys())

    def __len__(self) -> int:
        return len(self._d)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FrozenMap) and self._key == other._key

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v!r}" for k, v in self._key)
        return "FrozenMap({" + inner + "})"


EMPTY_MAP = FrozenMap()


@dataclass(frozen=True, slots=True)
class Closure(HashOnce):
    binder: S.Ident
    body: S.Comp
    captured: FrozenMap  # name -> EnvValue


@dataclass(frozen=True, slots=True)
class Configuration(HashOnce):
    env: FrozenMap  # name -> EnvValue
    term: S.ExtTerm
    graph: B.PartialBigraph
    closures: FrozenMap  # fun label -> Closure


def initial_configuration(program: S.Comp) -> Configuration:
    return Configuration(EMPTY_MAP, program, B.empty(), EMPTY_MAP)


def eval_value(env: FrozenMap, v: S.Val) -> EnvValue:
    if isinstance(v, S.BoolLit):
        return BoolV(v.value)
    if isinstance(v, S.Var):
        if v.name not in env:
            raise TC.UnboundVariable(v.name)
        return env[v.name]
    if isinstance(v, S.PairVal):
        return PairV(eval_value(env, v.fst), eval_value(env, v.snd))
    raise TypeError(f"not a value: {v!r}")


def value_to_json(value: EnvValue):
    """JSON form: booleans as-is, labels as "fun<i>"/"atom<i>", pairs as
    two-element arrays."""
    if isinstance(value, BoolV):
        return value.value
    if isinstance(value, FunV):
        return f"fun{value.label}"
    if isinstance(value, AtomV):
        return f"atom{value.label}"
    if isinstance(value, PairV):
        return [value_to_json(value.fst), value_to_json(value.snd)]
    raise TypeError(f"not a runtime value: {value!r}")


def value_labels(
    value: EnvValue, funs: Optional[list[int]] = None, atoms: Optional[list[int]] = None
) -> tuple[list[int], list[int]]:
    """(function labels, atom labels) mentioned in a runtime value, in
    first-occurrence order of a left-to-right traversal.  Labels are
    appended to ``funs``/``atoms`` when given, skipping ones already there."""
    funs = [] if funs is None else funs
    atoms = [] if atoms is None else atoms
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, FunV):
            if v.label not in funs:
                funs.append(v.label)
        elif isinstance(v, AtomV):
            if v.label not in atoms:
                atoms.append(v.label)
        elif isinstance(v, PairV):
            stack.append(v.snd)
            stack.append(v.fst)
    return funs, atoms


def relabel(value: EnvValue, fmap: Mapping[int, int], amap: Mapping[int, int]) -> EnvValue:
    """Rename a value's function and atom labels; labels missing from a map
    are kept."""
    if isinstance(value, FunV):
        return FunV(fmap.get(value.label, value.label))
    if isinstance(value, AtomV):
        return AtomV(amap.get(value.label, value.label))
    if isinstance(value, PairV):
        return PairV(relabel(value.fst, fmap, amap), relabel(value.snd, fmap, amap))
    return value


# ---------------------------------------------------------------------------
# Redex decomposition


Spine = tuple[S.ExtTerm, ...]  # the Let and MemoCtx nodes above a redex
Decomposition = tuple[Spine, S.ExtTerm]


def _is_terminal_comp(t: S.ExtTerm) -> bool:
    return isinstance(t, (S.Return, S.MemFn, S.Fresh))


def decompose(term: S.ExtTerm) -> Optional[Decomposition]:
    """Split a term into its reduction context and unique redex.  The
    context is the term's own spine above the redex, outermost first: each
    let whose bound term, and each memo marker whose body, holds the redex.

    Returns None when the term is terminal (a return, a function
    abstraction, or a bare fresh() at the top level).
    """
    spine: list[S.ExtTerm] = []
    t = term
    while True:
        if isinstance(t, S.Let):
            if _is_terminal_comp(t.bound):
                return tuple(spine), t
            spine.append(t)
            t = t.bound
        elif isinstance(t, S.MemoCtx):
            if isinstance(t.inner, S.Return):
                return tuple(spine), t
            spine.append(t)
            t = t.inner
        elif _is_terminal_comp(t):
            if spine:
                raise Stuck(f"terminal {S.pretty(t)} under a reduction context")
            return None
        elif isinstance(t, (S.If, S.Match, S.Flip, S.Eq, S.App)):
            return tuple(spine), t
        else:
            raise Stuck(f"no redex in {t!r}")


def recompose(spine: Spine, term: S.ExtTerm) -> S.ExtTerm:
    """The spine rebuilt around ``term`` in place of its redex."""
    out = term
    for node in reversed(spine):
        if isinstance(node, S.Let):
            out = S.Let(node.name, out, node.body)
        else:
            out = S.MemoCtx(out, node.fun_label, node.atom_label, node.restore_env)
    return out


def _markers(dec: Optional[Decomposition]) -> list[S.MemoCtx]:
    """The memo markers of a decomposition, outermost first: those on its
    spine, then the redex when it is one."""
    if dec is None:
        return []
    spine, redex = dec
    return [t for t in (*spine, redex) if isinstance(t, S.MemoCtx)]


# ---------------------------------------------------------------------------
# One-step reduction


def _validate(config: Configuration, dec: Optional[Decomposition]) -> None:
    if config.closures._d.keys() != config.graph.left:
        raise MalformedConfiguration("closure map must cover exactly the function labels")
    funs: list[int] = []
    atoms: list[int] = []
    for _, value in config.env.items():
        value_labels(value, funs, atoms)
    if not config.graph.left.issuperset(funs) or not config.graph.right.issuperset(atoms):
        raise MalformedConfiguration("environment mentions labels outside the graph")
    for marker in _markers(dec):
        if marker.fun_label not in config.graph.left or marker.atom_label not in config.graph.right:
            raise MalformedConfiguration("memo marker mentions labels outside the graph")


def _term_size(t: S.ExtTerm) -> int:
    # Sized so that every rule except an application on an unsampled edge
    # strictly shrinks the term: one plus the sizes of the parts, except
    # that a bare return weighs only its value and a flip weighs 2.  Kept
    # on the node: a step rebuilds only the spine above its redex.  A loop,
    # not a generator, so that a nested term costs one frame per level.
    try:
        return t._size
    except AttributeError:
        pass
    if isinstance(t, S.Return):
        n = _val_size(t.value)
    elif isinstance(t, S.Flip):
        n = 2
    elif isinstance(t, S.MemoCtx):
        n = 1 + _term_size(t.inner)
    else:
        vals, scopes = S._parts(t)
        n = 1
        for v in vals:
            n += _val_size(v)
        for _, body in scopes:
            n += _term_size(body)
    object.__setattr__(t, "_size", n)
    return n


def _val_size(v: S.Val) -> int:
    if isinstance(v, S.PairVal):
        return 1 + _val_size(v.fst) + _val_size(v.snd)
    return 1


def _as_bool(value: EnvValue, what: str) -> bool:
    if not isinstance(value, BoolV):
        raise MalformedConfiguration(f"{what} must be a boolean, got {value!r}")
    return value.value


def _step_outcomes(config: Configuration, dec: Optional[Decomposition]) -> FinDist[Configuration]:
    """The distribution of successors of one reduction at the configuration's
    decomposition ``dec``: a point mass except at a flip, whose true branch
    comes first."""
    _validate(config, dec)
    if dec is None:
        raise MalformedConfiguration("configuration is terminal")
    spine, redex = dec
    env, graph, closures = config.env, config.graph, config.closures
    before = _term_size(config.term)

    def out(term, new_env=env, new_graph=graph, new_closures=closures, shrinks=True):
        successor = Configuration(new_env, recompose(spine, term), new_graph, new_closures)
        # progress: every rule shrinks the term except entering a pending
        # memoization, which permanently claims one unsampled edge
        if shrinks and _term_size(successor.term) >= before:
            raise MalformedConfiguration(f"step did not shrink {S.pretty(config.term)}")
        return successor

    if isinstance(redex, S.Let):
        bound = redex.bound
        if isinstance(bound, S.Return):
            value = eval_value(env, bound.value)
            return dirac(out(redex.body, env.set(redex.name, value)))
        if isinstance(bound, S.MemFn):
            graph2, fun = graph.add_left_undef()
            closures2 = closures.set(fun, Closure(bound.binder, bound.body, env))
            return dirac(out(redex.body, env.set(redex.name, FunV(fun)), graph2, closures2))
        if isinstance(bound, S.Fresh):
            graph2, atom = graph.add_right_undef()
            return dirac(out(redex.body, env.set(redex.name, AtomV(atom)), graph2))
        raise Stuck(f"let-bound term is not terminal: {S.pretty(bound)}")
    if isinstance(redex, S.MemoCtx):
        inner = redex.inner
        if not isinstance(inner, S.Return):
            raise Stuck("memo marker redex must wrap a return")
        result = eval_value(env, inner.value)
        flag = _as_bool(result, "memoized result")
        graph2 = graph.set_edge(redex.fun_label, redex.atom_label, flag)
        restored = redex.restore_env
        return dirac(out(S.Return(S.BoolLit(flag)), restored, graph2))
    if isinstance(redex, S.App):
        fn = eval_value(env, redex.fn)
        arg = eval_value(env, redex.arg)
        if not isinstance(fn, FunV) or not isinstance(arg, AtomV):
            raise MalformedConfiguration("application needs a function and an atom")
        edge = graph.edge(fn.label, arg.label)
        if edge is not None:
            return dirac(out(S.Return(S.BoolLit(edge))))
        closure = closures.get(fn.label)
        if closure is None:
            raise MalformedConfiguration(f"no closure for function label {fn.label}")
        call_env = closure.captured.set(closure.binder, arg)
        marker = S.MemoCtx(closure.body, fn.label, arg.label, env)
        return dirac(out(marker, call_env, shrinks=False))
    if isinstance(redex, S.Eq):
        lhs = eval_value(env, redex.lhs)
        rhs = eval_value(env, redex.rhs)
        if not isinstance(lhs, AtomV) or not isinstance(rhs, AtomV):
            raise MalformedConfiguration("equality compares atoms")
        return dirac(out(S.Return(S.BoolLit(lhs == rhs))))
    if isinstance(redex, S.Flip):
        theta = Fraction(redex.bias)
        return FinDist(
            [
                (out(S.Return(S.BoolLit(True))), theta),
                (out(S.Return(S.BoolLit(False))), ONE - theta),
            ]
        )
    if isinstance(redex, S.If):
        flag = _as_bool(eval_value(env, redex.cond), "if scrutinee")
        return dirac(out(redex.then if flag else redex.orelse))
    if isinstance(redex, S.Match):
        subject = eval_value(env, redex.subject)
        if not isinstance(subject, PairV):
            raise MalformedConfiguration("match scrutinee must be a pair")
        env2 = env.set(redex.fst_name, subject.fst).set(redex.snd_name, subject.snd)
        return dirac(out(redex.body, env2))
    raise Stuck(f"unrecognized redex {redex!r}")


def step(config: Configuration) -> FinDist[Configuration]:
    """One reduction: a point mass except at a coin flip."""
    return _step_outcomes(config, decompose(config.term))


def is_terminal(config: Configuration) -> bool:
    """Whether the configuration has finished: ``decompose`` finds no redex
    only in a return, a function abstraction or a bare ``fresh()`` at the
    top of the term, so the top of the term decides it without a
    decomposition.  A malformed term is left for ``step`` to reject."""
    return _is_terminal_comp(config.term)


def run_sampled(program: S.Comp, seed: int) -> tuple[Configuration, list[Configuration]]:
    """Iterate ``step`` with a seeded generator, one decomposition a step.
    Every ``flip(t)`` draws from the unit interval, even when t is 0 or 1,
    and takes the true branch (listed first) iff the draw is below t."""
    rng = random.Random(seed)
    config = initial_configuration(program)
    trace = [config]
    while True:
        dec = decompose(config.term)
        if dec is None:
            return config, trace
        draw = Fraction(rng.random()) if isinstance(dec[1], S.Flip) else ZERO
        running = ZERO
        for successor, weight in _step_outcomes(config, dec).items():
            running += weight
            if draw < running:
                break
        config = successor
        trace.append(config)


def enumerate_bigstep(program: S.Comp) -> FinDist[Configuration]:
    """Exact distribution over terminal configurations."""
    pending: list[tuple[Configuration, Fraction]] = [
        (initial_configuration(program), ONE)
    ]
    terminals: list[tuple[Configuration, Fraction]] = []
    steps = 0
    while pending:
        config, weight = pending.pop()
        if is_terminal(config):
            terminals.append((config, weight))
            continue
        steps += 1
        if steps > _STEP_BUDGET:
            raise StepBudgetExceeded(f"exhaustive enumeration exceeded {_STEP_BUDGET} steps")
        for successor, q in step(config).items():
            # a factor that is the ONE object is not multiplied
            pending.append((successor, q if weight is ONE else weight if q is ONE else weight * q))
    return FinDist(terminals)


# ---------------------------------------------------------------------------
# Configuration judgements and invariants


def _shape_type(value: EnvValue) -> TC.Ty:
    if isinstance(value, BoolV):
        return TC.BOOL
    if isinstance(value, FunV):
        return TC.FUN
    if isinstance(value, AtomV):
        return TC.ATOM
    return TC.ProdT(_shape_type(value.fst), _shape_type(value.snd))


def _pairs(markers: list[S.MemoCtx]) -> tuple[tuple[int, int], ...]:
    return tuple((m.fun_label, m.atom_label) for m in markers)


def memo_stack(term: S.ExtTerm) -> tuple[tuple[int, int], ...]:
    """Pending memoization pairs along the evaluation spine, outermost first."""
    return _pairs(_markers(decompose(term)))


def config_judgement(config: Configuration) -> tuple[TC.TyCtx, tuple[tuple[int, int], ...], TC.Ty]:
    """Reconstruct the typing of a configuration: the context derived from
    the environment's value shapes, the pending memoization stack, and the
    term's type.  Failure signals an evaluator bug on accessible input.

    While a memoization body runs, the running environment belongs to the
    callee, but the continuation around each marker refers to the caller
    variables stored in that marker's restore environment.  The context
    therefore merges the restore environments along the spine (oldest
    first) with the running environment, newer entries shadowing."""
    markers = _markers(decompose(config.term))
    decls: dict[str, TC.Ty] = {}
    for env in [*(m.restore_env for m in markers), config.env]:
        for name, value in env.items():
            decls[name] = _shape_type(value)
    ctx = TC.TyCtx(sorted(decls.items()))
    stack = _pairs(markers)
    try:
        ty = TC.type_of_ext(ctx, stack, config.term)
    except (TC.TypeMismatch, TC.UnboundVariable, TC.StackMismatch, TC.DuplicateStackPair) as exc:
        raise JudgementFailure(str(exc)) from exc
    return ctx, stack, ty


def check_stack_invariants(config: Configuration) -> bool:
    """Pending pairs are duplicate-free, and an application about to sample
    a new edge never targets a function already being memoized."""
    dec = decompose(config.term)
    pairs = _pairs(_markers(dec))
    if len(pairs) != len(set(pairs)):
        return False
    if dec is not None and isinstance(dec[1], S.App):
        redex = dec[1]
        fn = eval_value(config.env, redex.fn)
        arg = eval_value(config.env, redex.arg)
        if isinstance(fn, FunV) and isinstance(arg, AtomV):
            if config.graph.edge(fn.label, arg.label) is None:
                if any(f == fn.label for f, _ in pairs):
                    return False
    return True


# ---------------------------------------------------------------------------
# Observations of terminal configurations


@dataclass(frozen=True, slots=True)
class Observation(HashOnce):
    """What a caller can distinguish about a terminal configuration: the
    returned value, the slice of the memo-table reachable from it, and the
    retained closures with bound variables renamed canonically.  Labels are
    renumbered in first-occurrence order of a left-to-right traversal."""

    value: EnvValue
    graph: B.PartialBigraph
    closures: tuple  # ((label, canonical MemFn, ((name, EnvValue), ...)), ...)


def observe(config: Configuration) -> Observation:
    if not isinstance(config.term, S.Return):
        raise MalformedConfiguration(
            f"observation requires a returned value, got {S.pretty(config.term)}"
        )
    value = eval_value(config.env, config.term.value)

    funs, atoms = value_labels(value)
    kept_envs: dict[int, list[tuple[str, EnvValue]]] = {}
    i = 0
    while i < len(funs):
        label = funs[i]
        i += 1
        closure = config.closures[label]
        names = sorted(S.free_vars(closure.body) - {closure.binder})
        items = []
        for name in names:
            if name not in closure.captured:
                raise MalformedConfiguration(
                    f"closure for function {label} misses captured {name!r}"
                )
            captured = closure.captured[name]
            items.append((name, captured))
            value_labels(captured, funs, atoms)
        kept_envs[label] = items

    graph, fmap, amap = B.renumbered_slice(config.graph, funs, atoms)
    closures = tuple(
        (
            fmap[label],
            S.alpha_canonical(
                S.MemFn(config.closures[label].binder, config.closures[label].body)
            ),
            tuple((name, relabel(v, fmap, amap)) for name, v in kept_envs[label]),
        )
        for label in funs
    )
    return Observation(relabel(value, fmap, amap), graph, closures)


def observational_bigstep(program: S.Comp) -> FinDist[Observation]:
    """Exact distribution over observations of terminal configurations."""
    return map_dist(enumerate_bigstep(program), observe)
