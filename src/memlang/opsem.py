"""Small-step reduction, seeded sampling, and exact exhaustive execution.

A configuration bundles an environment (variables to runtime values), the
term under evaluation, the partial memo-table, and the closures backing the
function labels.  Reduction finds the unique leftmost-outermost redex, fires
one rule, and either stays deterministic or, at a coin flip, splits into an
exact two-point distribution over successor configurations.  The redex's
evaluation context is the term's own spine above it: the lets whose bound
term, and the memo markers whose body, hold the redex, outermost first.
The rules are written once (``_fire``) and fill the hole the redex leaves.
``step`` rebuilds the spine around what fills it and reads the pending
memoizations off its markers.  The exhaustive enumerator keeps the spine
instead, as frames linked from the hole up, and seeks the next redex from
the hole rather than from the root (refocusing), so a reduction costs the
same at any depth and a configuration is built only at a terminal.

Environments and closure maps are ``FrozenMap``s: read-only dicts that
hash by their items.

Every reduction checks its configuration, on what each part already keeps
rather than by a walk: the closure map must cover the graph's functions,
an environment keeps the labels its values mention (``FrozenMap.labels``,
derived as the map is built) and they must lie in the graph, and the
progress check compares the redex with what fills its hole, since the
spine around them is unchanged.  ``step`` checks every memo marker on its
spine against the graph; the enumerator checks each one when its search
first meets it, which is as much, since the graph only grows.

Booleans are shared: a literal evaluates to one of the two ``BOOLS``, and
a rule that yields a boolean (a flip, an application on a defined edge, an
equality, a memo return) puts one of the two ``RETURNED_BOOLS`` in place of
its redex, so none of them is built or hashed again.

``terminal_paths`` unfolds the reduction exhaustively, along the paths of
``step`` and with exact rational weights, and ``enumerate_bigstep`` merges
its terminals; ``run_sampled``
follows one trace of ``step`` with a seeded generator; ``observe``
quotients terminal configurations down to the data a caller can actually
distinguish (returned value, the reachable slice of the memo-table, and
retained closures up to bound-variable renaming).
"""

from __future__ import annotations

import random
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Union

from . import bigraph as B
from . import syntax as S
from . import typecheck as TC
from .dist import ONE, ZERO, FinDist, MassError, dirac, map_dist, two_point
from .hashonce import HashOnce, set_field

_STEP_BUDGET = 1_000_000


class Stuck(Exception):
    """No redex found in a non-terminal term; unreachable for typed input."""


class MalformedConfiguration(Exception):
    pass


class StepBudgetExceeded(Exception):
    """An exhaustive enumeration (``terminal_paths``, which
    ``enumerate_bigstep`` and ``denot.check_soundness`` run) took more than
    ``_STEP_BUDGET`` reductions."""


class JudgementFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# Runtime values and immutable maps


class BoolV(HashOnce):
    __slots__ = _fields = ("value",)

    def __init__(self, value: bool):
        set_field(self, "value", value)


class FunV(HashOnce):
    __slots__ = _fields = ("label",)

    def __init__(self, label: int):
        set_field(self, "label", label)


class AtomV(HashOnce):
    __slots__ = _fields = ("label",)

    def __init__(self, label: int):
        set_field(self, "label", label)


class PairV(HashOnce):
    __slots__ = _fields = ("fst", "snd")

    def __init__(self, fst: EnvValue, snd: EnvValue):
        set_field(self, "fst", fst)
        set_field(self, "snd", snd)


EnvValue = Union[BoolV, FunV, AtomV, PairV]

# the two boolean values, and the two returned boolean literals a step puts
# in place of a redex, indexed by the boolean: built and hashed once
BOOLS = (BoolV(False), BoolV(True))
RETURNED_BOOLS = (S.Return(S.BoolLit(False)), S.Return(S.BoolLit(True)))


_first = itemgetter(0)


class FrozenMap(dict):
    """Small immutable map, usable as a dict key: a dict whose mutators
    raise ``TypeError``.  It hashes as the frozenset of its items, taken on
    the first ``hash()`` and kept in a slot, and equals any dict with the
    same items, whatever their order.

    The map also keeps the labels its values mention (``labels``).  ``set``
    derives them from this map's and the new value's, and walks every value
    again only when the key was bound already, whose old value's labels may
    go."""

    __slots__ = ("_hash", "_labels")

    def __init__(self, items: Mapping | Iterable[tuple] = ()):
        super().__init__(items)
        self._labels = _labels_of(self.values())

    def _frozen(self, *args, **kwargs):
        raise TypeError("a FrozenMap cannot be changed")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _frozen

    def __reduce__(self):
        # a copy or a pickle is rebuilt through the constructor, since the
        # default protocol would fill it through the mutators
        return FrozenMap, (dict(self),)

    def set(self, key, value) -> "FrozenMap":
        """This map with ``key`` bound to ``value``."""
        out = FrozenMap.__new__(FrozenMap)
        dict.update(out, self)
        dict.__setitem__(out, key, value)
        funs, atoms = self._labels
        if key in self:
            out._labels = _labels_of(out.values())
        elif type(value) is AtomV:
            out._labels = (funs, atoms.union((value.label,)))
        elif type(value) is FunV:
            out._labels = (funs.union((value.label,)), atoms)
        elif type(value) is PairV:
            new_funs, new_atoms = value_labels(value)
            out._labels = (funs.union(new_funs), atoms.union(new_atoms))
        else:
            out._labels = self._labels
        return out

    def labels(self) -> tuple[frozenset[int], frozenset[int]]:
        """(function labels, atom labels) the values mention."""
        return self._labels

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = self._hash = hash(frozenset(self.items()))
        return h

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v!r}" for k, v in sorted(self.items(), key=_first))
        return "FrozenMap({" + inner + "})"


def _labels_of(values: Iterable) -> tuple[frozenset[int], frozenset[int]]:
    funs: list[int] = []
    atoms: list[int] = []
    for value in values:
        value_labels(value, funs, atoms)
    return frozenset(funs), frozenset(atoms)


EMPTY_MAP = FrozenMap()
EMPTY_GRAPH = B.empty()


class Closure(HashOnce):
    __slots__ = _fields = ("binder", "body", "captured")

    def __init__(self, binder: S.Ident, body: S.Comp, captured: FrozenMap):
        set_field(self, "binder", binder)
        set_field(self, "body", body)
        set_field(self, "captured", captured)  # name -> EnvValue


class Configuration(HashOnce):
    __slots__ = _fields = ("env", "term", "graph", "closures")

    def __init__(self, env: FrozenMap, term: S.ExtTerm, graph: B.PartialBigraph, closures: FrozenMap):
        set_field(self, "env", env)  # name -> EnvValue
        set_field(self, "term", term)
        set_field(self, "graph", graph)
        set_field(self, "closures", closures)  # fun label -> Closure


def initial_configuration(program: S.Comp) -> Configuration:
    return Configuration(EMPTY_MAP, program, EMPTY_GRAPH, EMPTY_MAP)


def eval_value(env: FrozenMap, v: S.Val) -> EnvValue:
    if isinstance(v, S.BoolLit):
        return BOOLS[v.value]
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
# the same nodes linked innermost first, each as (node, the frames above
# it), None above the outermost; successors of one redex share them
Frames = Optional[tuple]

_TERMINAL_COMPS = (S.Return, S.MemFn, S.Fresh)


def _refocus(
    t: S.ExtTerm, frames: Frames, graph: Optional[B.PartialBigraph] = None
) -> Optional[tuple[Frames, S.ExtTerm]]:
    """The redex next to reduce when ``t`` fills the hole under ``frames``:
    (the frames above it, the redex), or None when ``t`` is terminal with
    no frame above it.  The search descends from ``t`` through each let's
    bound term and each marker's body.  A terminal ``t`` goes into the frame
    above it, which becomes the redex: a let binding it, or a marker
    returning it.  Given a graph, each marker met on the way down is
    checked against it."""
    while True:
        if isinstance(t, S.Let):
            if isinstance(t.bound, _TERMINAL_COMPS):
                return frames, t
            frames = (t, frames)
            t = t.bound
        elif isinstance(t, S.MemoCtx):
            if graph is not None:
                _check_marker(t, graph)
            if isinstance(t.inner, S.Return):
                return frames, t
            frames = (t, frames)
            t = t.inner
        elif isinstance(t, _TERMINAL_COMPS):
            if frames is None:
                return None
            node, frames = frames
            if isinstance(node, S.Let):
                return frames, S.Let(node.name, t, node.body)
            if isinstance(t, S.Return):
                return frames, S.MemoCtx(t, node.fun_label, node.atom_label, node.restore_env)
            raise Stuck(f"terminal {S.pretty(t)} under a reduction context")
        elif isinstance(t, (S.If, S.Match, S.Flip, S.Eq, S.App)):
            return frames, t
        else:
            raise Stuck(f"no redex in {t!r}")


def _spine(frames: Frames) -> Spine:
    spine = []
    while frames is not None:
        node, frames = frames
        spine.append(node)
    spine.reverse()
    return tuple(spine)


def decompose(term: S.ExtTerm) -> Optional[Decomposition]:
    """Split a term into its reduction context and unique redex.  The
    context is the term's own spine above the redex, outermost first: each
    let whose bound term, and each memo marker whose body, holds the redex.

    Returns None when the term is terminal (a return, a function
    abstraction, or a bare fresh() at the top level).
    """
    found = _refocus(term, None)
    if found is None:
        return None
    frames, redex = found
    return _spine(frames), redex


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


def _check_maps(env: FrozenMap, graph: B.PartialBigraph, closures: FrozenMap) -> None:
    left = graph.left
    if closures.keys() != left:
        raise MalformedConfiguration("closure map must cover exactly the function labels")
    funs, atoms = env.labels()
    if not funs <= left or not atoms <= graph.right:
        raise MalformedConfiguration("environment mentions labels outside the graph")


def _check_marker(marker: S.MemoCtx, graph: B.PartialBigraph) -> None:
    if marker.fun_label not in graph.left or marker.atom_label not in graph.right:
        raise MalformedConfiguration("memo marker mentions labels outside the graph")


def _term_size(t: S.ExtTerm) -> int:
    # Sized so that every rule except an application on an unsampled edge
    # strictly shrinks the term: one plus the sizes of the parts, except
    # that a bare return weighs only its value and a flip weighs 2.  Kept
    # on the node: the enumerator builds only the let or marker a
    # terminal is plugged into, and step the spine above its redex.  A
    # loop, not a generator, so that a nested term costs one frame per
    # level.
    n = getattr(t, "_size", None)
    if n is not None:
        return n
    if isinstance(t, S.Return):
        n = _val_size(t.value)
    elif isinstance(t, S.Let):
        n = 1 + _term_size(t.bound) + _term_size(t.body)
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
    set_field(t, "_size", n)
    return n


def _val_size(v: S.Val) -> int:
    if isinstance(v, S.PairVal):
        return 1 + _val_size(v.fst) + _val_size(v.snd)
    return 1


def _as_bool(value: EnvValue, what: str) -> bool:
    if not isinstance(value, BoolV):
        raise MalformedConfiguration(f"{what} must be a boolean, got {value!r}")
    return value.value


def _fire(redex: S.ExtTerm, env: FrozenMap, graph: B.PartialBigraph, closures: FrozenMap) -> tuple[tuple, ...]:
    """The rules of the reduction, each written once: the successors of
    ``redex`` under the given maps, each as (what fills the hole, env,
    graph, closures, weight).  There is one, of weight ONE, except at a
    flip: its true branch comes first, weighted by the bias, and its false
    branch after, weighted by the rest.  A flip's weights are not checked
    here: ``step`` and ``terminal_paths`` each drop a branch of weight 0
    and reject a negative one, as ``two_point`` does."""
    if isinstance(redex, S.Let):
        bound = redex.bound
        if isinstance(bound, S.Return):
            env2 = env.set(redex.name, eval_value(env, bound.value))
            successors = ((redex.body, env2, graph, closures, ONE),)
        elif isinstance(bound, S.MemFn):
            graph2, fun = graph.add_left_undef()
            closures2 = closures.set(fun, Closure(bound.binder, bound.body, env))
            successors = ((redex.body, env.set(redex.name, FunV(fun)), graph2, closures2, ONE),)
        elif isinstance(bound, S.Fresh):
            graph2, atom = graph.add_right_undef()
            successors = ((redex.body, env.set(redex.name, AtomV(atom)), graph2, closures, ONE),)
        else:
            raise Stuck(f"let-bound term is not terminal: {S.pretty(bound)}")
    elif isinstance(redex, S.MemoCtx):
        inner = redex.inner
        if not isinstance(inner, S.Return):
            raise Stuck("memo marker redex must wrap a return")
        flag = _as_bool(eval_value(env, inner.value), "memoized result")
        graph2 = graph.set_edge(redex.fun_label, redex.atom_label, flag)
        successors = ((RETURNED_BOOLS[flag], redex.restore_env, graph2, closures, ONE),)
    elif isinstance(redex, S.App):
        fn = eval_value(env, redex.fn)
        arg = eval_value(env, redex.arg)
        if not isinstance(fn, FunV) or not isinstance(arg, AtomV):
            raise MalformedConfiguration("application needs a function and an atom")
        edge = graph.edge(fn.label, arg.label)
        if edge is not None:
            successors = ((RETURNED_BOOLS[edge], env, graph, closures, ONE),)
        else:
            closure = closures.get(fn.label)
            if closure is None:
                raise MalformedConfiguration(f"no closure for function label {fn.label}")
            call_env = closure.captured.set(closure.binder, arg)
            marker = S.MemoCtx(closure.body, fn.label, arg.label, env)
            # entering a memoization claims an unsampled edge for good
            # instead of shrinking the term: the one rule exempt from the
            # progress check
            return ((marker, call_env, graph, closures, ONE),)
    elif isinstance(redex, S.Eq):
        lhs = eval_value(env, redex.lhs)
        rhs = eval_value(env, redex.rhs)
        if not isinstance(lhs, AtomV) or not isinstance(rhs, AtomV):
            raise MalformedConfiguration("equality compares atoms")
        successors = ((RETURNED_BOOLS[lhs == rhs], env, graph, closures, ONE),)
    elif isinstance(redex, S.Flip):
        p = redex.bias if isinstance(redex.bias, Fraction) else Fraction(redex.bias)
        successors = (
            (RETURNED_BOOLS[True], env, graph, closures, p),
            (RETURNED_BOOLS[False], env, graph, closures, ONE - p),
        )
    elif isinstance(redex, S.If):
        flag = _as_bool(eval_value(env, redex.cond), "if scrutinee")
        successors = ((redex.then if flag else redex.orelse, env, graph, closures, ONE),)
    elif isinstance(redex, S.Match):
        subject = eval_value(env, redex.subject)
        if not isinstance(subject, PairV):
            raise MalformedConfiguration("match scrutinee must be a pair")
        env2 = env.set(redex.fst_name, subject.fst).set(redex.snd_name, subject.snd)
        successors = ((redex.body, env2, graph, closures, ONE),)
    else:
        raise Stuck(f"unrecognized redex {redex!r}")
    # progress: every other rule shrinks the term.  The frames around the
    # hole stay as they are, so the term shrinks exactly when what fills
    # the hole is smaller than the redex.
    before = _term_size(redex)
    for successor in successors:
        if _term_size(successor[0]) >= before:
            raise MalformedConfiguration(f"step did not shrink {S.pretty(redex)}")
    return successors


def _step_outcomes(config: Configuration, dec: Optional[Decomposition]) -> FinDist[Configuration]:
    """The distribution of successors of one reduction at the configuration's
    decomposition ``dec``: a point mass except at a flip, whose true branch
    comes first."""
    _check_maps(config.env, config.graph, config.closures)
    for marker in _markers(dec):
        _check_marker(marker, config.graph)
    if dec is None:
        raise MalformedConfiguration("configuration is terminal")
    spine, redex = dec
    successors = [
        Configuration(env, recompose(spine, term), graph, closures)
        for term, env, graph, closures, _ in _fire(redex, config.env, config.graph, config.closures)
    ]
    if len(successors) == 1:
        return dirac(successors[0])
    # the two successors differ in their terms, so nothing is merged
    return two_point(successors[0], successors[1], redex.bias)


def step(config: Configuration) -> FinDist[Configuration]:
    """One reduction: a point mass except at a coin flip."""
    return _step_outcomes(config, decompose(config.term))


def is_terminal(config: Configuration) -> bool:
    """Whether the configuration has finished: ``decompose`` finds no redex
    only in a return, a function abstraction or a bare ``fresh()`` at the
    top of the term, so the top of the term decides it without a
    decomposition.  A malformed term is left for ``step`` to reject."""
    return isinstance(config.term, _TERMINAL_COMPS)


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
    return FinDist(terminal_paths(program))


def terminal_paths(program: S.Comp) -> list[tuple[Configuration, Fraction]]:
    """Every path of ``step`` from the program to a terminal configuration,
    as (terminal, the product of the path's weights), not merged: equal
    terminals reached along different paths appear once per path.

    The paths are walked depth first from a stack, each reduction's
    successors pushed in ``step``'s order, so the false branch of a flip
    is walked first.  A pending state keeps the frames above its hole in
    place of a whole term: a reduction fills the hole, and the next redex
    is sought from there, not from the root (refocusing: Danvy and
    Nielsen, "Refocusing in reduction semantics", BRICS RS-04-26, 2004).
    Frames are shared, not rebuilt, and a ``Configuration`` is built only
    at a terminal.  Each state is checked as ``step`` checks it: its maps
    before every reduction, and each memo marker when the search first
    meets it, which suffices as the graph only grows."""
    pending = [(None, program, EMPTY_MAP, EMPTY_GRAPH, EMPTY_MAP, ONE)]
    terminals: list[tuple[Configuration, Fraction]] = []
    budget = _STEP_BUDGET
    steps = 0
    while pending:
        frames, term, env, graph, closures, weight = pending.pop()
        if frames is None and isinstance(term, _TERMINAL_COMPS):
            terminals.append((Configuration(env, term, graph, closures), weight))
            continue
        steps += 1
        if steps > budget:
            raise StepBudgetExceeded(f"exhaustive enumeration exceeded {budget} steps")
        frames, redex = _refocus(term, frames, graph)
        _check_maps(env, graph, closures)
        for term, env, graph, closures, q in _fire(redex, env, graph, closures):
            # a factor that is the ONE object is not multiplied
            if q is ONE:
                q = weight
            elif q.numerator <= 0:
                if q:
                    successor = Configuration(env, recompose(_spine(frames), term), graph, closures)
                    raise MassError(f"negative weight {q} for {successor!r}")
                continue  # the branch a flip of bias 0 or 1 never takes
            elif weight is not ONE:
                q = weight * q
            pending.append((frames, term, env, graph, closures, q))
    return terminals


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


class Observation(HashOnce):
    """What a caller can distinguish about a terminal configuration: the
    returned value, the slice of the memo-table reachable from it, and the
    retained closures with bound variables renamed canonically.  Labels are
    renumbered in first-occurrence order of a left-to-right traversal."""

    __slots__ = _fields = ("value", "graph", "closures")

    def __init__(self, value: EnvValue, graph: B.PartialBigraph, closures: tuple):
        set_field(self, "value", value)
        set_field(self, "graph", graph)
        # ((label, canonical MemFn, ((name, EnvValue), ...)), ...)
        set_field(self, "closures", closures)


def observe(config: Configuration) -> Observation:
    """The observation of a terminal configuration.  A bare ``memfn`` or
    ``fresh()`` is taken one step further, through ``let val %r <- t in
    return %r``: no source program can bind a ``%`` name
    (``S.alpha_canonical`` relies on the same), so the binding shadows
    nothing, and the step returns the new function or atom."""
    if isinstance(config.term, (S.MemFn, S.Fresh)):
        bound = S.Let("%r", config.term, S.Return(S.Var("%r")))
        ((config, _),) = step(Configuration(config.env, bound, config.graph, config.closures)).items()
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
