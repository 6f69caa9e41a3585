"""Compositional semantics over totally populated memo-table worlds.

A computation is evaluated at a world g (a total bigraph) and a bias state,
which assigns each of g's functions its chance of answering true on atoms
that do not exist yet.  ``den_comp`` checks the bias state on every call:
it must assign exactly g's functions.  The values are checked once: a
state that passes is coerced to exact probabilities in [0, 1] and kept as
a read-only ``_CheckedBias``, which later calls take as it is, while any
other mapping (a caller's own, ``bind``'s extension by a class's fresh
biases, ``_closure_biases``' result) is coerced in full.

The result is an exact distribution over canonical classes: a result value
together with just the fresh structure it mentions.  Fresh nodes a value
does not mention are garbage-collected and their edge choices marginalized
away, so boolean results always collapse to bare classes.  ``bind``
evaluates a let body at each class's extended world, under the bias state
extended by the class's fresh functions.

A class records, relative to its base world: the value, fresh function
labels with their biases (the chance of answering true on atoms that do not
exist yet), fresh atom labels, and every edge touching a fresh node.  Fresh
labels are renumbered to the smallest labels absent from the base, in first
occurrence order of a left-to-right traversal of the value, which makes the
representative canonical.  A value that mentions no fresh node lives at the
identity extension: its class has no fresh part, and ``class_world`` gives
back the base world itself, so such a result is neither rebuilt nor
relabelled.  ``bind`` runs its body for such a class at its own graph
object, whichever equal world the class was computed at, so the body's
classes are already canonical over the base and are kept un-rebased; when
such a class is the whole bound result, the body's result is ``bind``'s,
by the monad's left unit law ``return x >>= f = f x`` (Moggi, "Notions of
computation and monads", 1991).

Memoized functions are interpreted by a row of answers over the existing
atoms (one probability per atom, obtained by running the body on that
atom) plus a single bias for future atoms.  That bias must not depend on
how a hypothetical new atom is wired to the existing functions;
``FreshnessViolation`` reports a witnessing pair of wirings when it does:
the all-False wiring and the first wiring, in binary-counting order over
the sorted functions, whose probability differs.  The new atom's column
is split only on the edges the body reads.

Edges are drawn lazily.  ``den_mem`` and ``den_fresh`` each return one
class, in which every undetermined edge of the new row or column is
*pending* (``bigraph.Pending``): an independent coin with an exact chance,
stored as a plain bool when the chance is 0 or 1.  ``transport``'s cross
edges are pending in the same way.  When ``den_app`` reads a pending edge
it raises ``EdgeRead``; the ``bind`` whose class owns the edge splits that
class into its two outcomes and evaluates its body again on each, so a
body, and any row computed inside it, stays correlated with the edges it
read.  A pending edge nobody reads is garbage-collected with its node, or
survives into a result, where ``expand`` draws it as a Bernoulli product.
``expand`` runs where results are observed: ``den_program``, each leaf
of ``den_config`` and the law suites.

A configuration's unsampled edges are split the same way: ``den_config``
gives each a placeholder, splits one only when the closure biases, the
chain-rule probabilities or the term read it, and leaves every other one
to ``expand`` as a coin.

A result is a function of the world, the bias state, the term and the
values of the term's free variables, so ``den_comp`` keeps the results it
returns in a table and looks each evaluation up there first (Michie's
memo functions, "Memo functions and machine learning", Nature 1968).  The
key is (term, world, the free variables' values); each key holds its bias
states, compared by ``==``, with their results.  A ``let`` body that
ignores its binder thus runs once for all the classes whose world it
shares, and a ``memfn`` body that ignores its binder once for a whole row.
A call that raises (``EdgeRead``, ``FreshnessViolation``) stores nothing,
so splits and witnesses are what a fresh evaluation gives.  The table is
passed explicitly and lives for one top-level call: ``den_comp`` without
one starts its own, as ``den_program`` does, and ``check_soundness``
starts a second one for all of its terminals, so the two sides it
compares never share one.  The table replaced a per-call cache of closure
biases and chain-rule probabilities keyed on a configuration's closures
and completed world.  ``check_soundness`` denotes once each group of
terminals that agree on all that a configuration's denotation reads: the
term, the values of its free variables, the memo-table and the closures.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, TypeVar, Union

from . import bigraph as B
from . import opsem as O
from . import syntax as S
from .dist import FinDist, ONE, ZERO, HALF, as_prob, dirac, dist_eq, mixed
from .hashonce import HashOnce

BiasState = Mapping[int, Fraction]
K = TypeVar("K")
# (term, world, values of the term's free variables) -> [(bias state, result)]
Table = dict[tuple, list[tuple["_CheckedBias", "FinDist[CanonicalClass]"]]]

EMPTY_WORLD = B.empty_total()


class NonCollapsedClass(Exception):
    """A boolean-typed result still carries world data; canonicalization bug."""


class EdgeRead(Exception):
    """``den_app`` read a pending edge; the ``bind`` that owns it draws it
    and evaluates its body again on each outcome."""

    def __init__(self, pair: tuple[int, int]):
        super().__init__(f"edge {pair} was read before it was drawn")
        self.pair = pair


class FreshnessViolation(Exception):
    """A memoized body's bias on a new atom depends on the atom's wiring."""

    def __init__(self, body: S.Comp, witness_a, witness_b):
        conn_a, prob_a = witness_a
        conn_b, prob_b = witness_b
        super().__init__(
            f"body {S.pretty(body)!r} is not freshness-invariant: "
            f"wiring {dict(conn_a)} yields true-probability {prob_a}, "
            f"wiring {dict(conn_b)} yields {prob_b}"
        )
        self.body = body
        self.witness_a = witness_a
        self.witness_b = witness_b


class _CheckedBias(dict):
    """A bias state ``_bias_state`` has coerced: exact probabilities in
    [0, 1].  It cannot be changed, since ``den_comp``'s table keeps it."""

    __slots__ = ()

    def _frozen(self, *args, **kwargs):
        raise TypeError("a checked bias state cannot be changed")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _frozen


def _bias_state(graph: B.TotalBigraph, bias: BiasState) -> _CheckedBias:
    """The bias state as exact probabilities; it must assign exactly the
    world's functions, each a probability in [0, 1].  The keys are compared
    on every call; a state this function returned before is not coerced
    again."""
    if bias.keys() != graph.left:
        raise ValueError(f"bias state must assign exactly the functions {sorted(graph.left)}")
    if type(bias) is _CheckedBias:
        return bias
    return _CheckedBias({f: as_prob(p) for f, p in bias.items()})


# ---------------------------------------------------------------------------
# Canonical classes


@dataclass(frozen=True, slots=True)
class CanonicalClass(HashOnce):
    base: B.TotalBigraph
    value: O.EnvValue
    fresh_funs: tuple[int, ...]
    fresh_biases: tuple[Fraction, ...]
    fresh_atoms: tuple[int, ...]
    ext_edges: tuple[tuple[int, int, B.EdgeVal], ...]

    def bias_of(self, fun: int) -> Fraction:
        return self.fresh_biases[self.fresh_funs.index(fun)]

    def ext_edge(self, fun: int, atom: int) -> B.EdgeVal:
        for f, a, v in self.ext_edges:
            if f == fun and a == atom:
                return v
        raise KeyError((fun, atom))

    def is_identity(self) -> bool:
        """No fresh function, atom or edge: the class lives at its base
        world, the identity extension."""
        return not (self.fresh_funs or self.fresh_atoms or self.ext_edges)

    def pending(self) -> dict[tuple[int, int], Fraction]:
        """The chance of each edge not drawn yet."""
        return {(f, a): v.chance for f, a, v in self.ext_edges if isinstance(v, B.Pending)}

    def drawn(self, outcome: Mapping[tuple[int, int], bool]) -> "CanonicalClass":
        """This class with the pending edges in ``outcome`` drawn."""
        edges = tuple((f, a, outcome.get((f, a), v)) for f, a, v in self.ext_edges)
        return dataclasses.replace(self, ext_edges=edges)

    def to_json(self) -> dict:
        return {
            "value": O.value_to_json(self.value),
            "graph": {
                "fresh_left": list(self.fresh_funs),
                "fresh_right": list(self.fresh_atoms),
                "edges": [[f, a, v] for f, a, v in self.ext_edges],
            },
            "biases": {
                f"fun{f}": str(b) for f, b in zip(self.fresh_funs, self.fresh_biases)
            },
        }


def canonicalize(
    base: B.TotalBigraph,
    world: B.TotalBigraph,
    value: O.EnvValue,
    biases: Mapping[int, Fraction],
) -> CanonicalClass:
    """Canonical representative of a value living in an extension of base.

    Fresh nodes absent from the value are discarded together with their
    edges and biases; the retained ones are renumbered to the smallest
    labels the base does not use, in first-occurrence order.  A value that
    mentions no fresh node lives at the identity extension of the base:
    its class holds the value as it is, with no fresh part.
    """
    if base is not world and not (base.left <= world.left and base.right <= world.right):
        raise ValueError("world does not extend the base graph")

    funs, atoms = O.value_labels(value)
    fresh_fun_order = [f for f in funs if f not in base.left]
    fresh_atom_order = [a for a in atoms if a not in base.right]
    if not fresh_fun_order and not fresh_atom_order:
        # the identity extension: no relabelling, no edge leaves the base
        return CanonicalClass(base, value, (), (), (), ())
    fmap = dict(zip(fresh_fun_order, B.smallest_free(len(fresh_fun_order), base.left)))
    amap = dict(zip(fresh_atom_order, B.smallest_free(len(fresh_atom_order), base.right)))

    # only the pairs that touch a fresh node: each fresh function with every
    # atom, and each base function with the fresh atoms
    pairs = [(f, a) for f in fresh_fun_order for a in [*base.right, *fresh_atom_order]]
    pairs += [(f, a) for f in base.left for a in fresh_atom_order]
    edges: list[tuple[int, int, B.EdgeVal]] = []
    for f, a in pairs:
        v = world.edge(f, a)
        if v is None:
            raise ValueError(f"world leaves edge ({f}, {a}) unsampled")
        edges.append((fmap.get(f, f), amap.get(a, a), v))
    return CanonicalClass(
        base,
        O.relabel(value, fmap, amap),
        tuple(fmap.values()),
        tuple(as_prob(biases[f]) for f in fresh_fun_order),
        tuple(amap.values()),
        tuple(sorted(edges)),
    )


def class_world(cls: CanonicalClass) -> B.TotalBigraph:
    """Rebuild the total world a class describes: base plus fresh nodes.
    A class with no fresh part describes its base world, which is returned
    as it is."""
    if cls.is_identity():
        return cls.base
    edges = {pair: v for pair, v in cls.base.edge_items()}
    for f, a, v in cls.ext_edges:
        edges[(f, a)] = v
    return B.TotalBigraph(
        set(cls.base.left) | set(cls.fresh_funs),
        set(cls.base.right) | set(cls.fresh_atoms),
        edges,
    )


# ---------------------------------------------------------------------------
# The monad at a bias state


def _bernoulli_product(chances: Mapping[K, Fraction]) -> Iterator[tuple[dict[K, bool], Fraction]]:
    """Every joint outcome of independent coins, one per key of ``chances``
    (the chance of True), with its product weight; weight-0 outcomes are
    skipped.  Outcomes come in binary-counting order, False before True."""
    keys = list(chances)
    for bits in itertools.product((False, True), repeat=len(keys)):
        weight = ONE
        for key, bit in zip(keys, bits):
            weight *= chances[key] if bit else ONE - chances[key]
        if weight != ZERO:
            yield dict(zip(keys, bits)), weight


# An edge not assigned yet in a split on read: any read of it splits, and a
# leaf replaces it before anything computed from it is kept.
_UNASSIGNED = B.Pending(HALF)


def _edge(chance: Fraction) -> bool | B.Pending:
    """An edge that is true with ``chance``, pending unless the chance is
    0 or 1."""
    if chance == ONE or chance == ZERO:
        return chance == ONE
    return B.Pending(chance)


def expand(dist: FinDist[CanonicalClass]) -> FinDist[CanonicalClass]:
    """Draw the pending edges that survive in a result: each class becomes
    the Bernoulli product over its pending edges.  A result with nothing
    pending is returned as it is."""
    pending = [cls.pending() for cls in dist]
    if not any(pending):
        return dist
    out = []
    for (cls, p), chances in zip(dist.items(), pending):
        B.check_undefined_budget(len(chances))
        for outcome, weight in _bernoulli_product(chances):
            out.append((cls.drawn(outcome), p * weight))
    return FinDist(out)


def unit(graph: B.TotalBigraph, value: O.EnvValue) -> FinDist[CanonicalClass]:
    return dirac(canonicalize(graph, graph, value, {}))


def _rebase(base: B.TotalBigraph, cls: CanonicalClass, biases: BiasState) -> CanonicalClass:
    """A class re-expressed over ``base``, a sub-world of its own base;
    ``biases`` covers the functions its base adds to ``base``, and the
    class's fresh biases are merged in."""
    all_biases = dict(biases)
    all_biases.update(zip(cls.fresh_funs, cls.fresh_biases))
    return canonicalize(base, class_world(cls), cls.value, all_biases)


def bind(
    graph: B.TotalBigraph,
    bias: dict[int, Fraction],
    dist: FinDist[CanonicalClass],
    name: S.Ident,
    body: S.Comp,
    env: O.FrozenMap,
    table: Table | None = None,
) -> FinDist[CanonicalClass]:
    """Sequence a result at (graph, bias) with ``body``, evaluated with
    ``name`` bound to each class's value at that class's own world, under
    the bias state extended by the class's fresh function biases.

    The body's classes, living over the extended world, are re-expressed
    over graph by unioning the fresh parts; one ``FinDist`` of them all
    merges branches that differ only in discarded nodes.  A class with no
    fresh part lives at graph (the identity extension), whatever world
    object it was computed at.  Its body runs at graph itself, and there is
    nothing to re-express: the body's classes are already canonical over
    graph and are kept as they are, and a weight that is the ``ONE`` object
    is not multiplied.  If that class is the whole of ``dist``, the body's
    result is the result: the left unit law, ``return x >>= f = f x``.

    A class's pending edges stay pending while the body runs.  When the
    body reads one, the class is split into its two outcomes and the body
    runs again on each; a read of an edge the class does not own goes on
    to the bind that owns it.  ``MEMLANG_MAX_UNDEF`` bounds the edges split
    on one path.  Classes are taken in distribution order,
    each split False before True, so the first ``FreshnessViolation``
    raised is always the same.
    """
    weighted = []
    todo = [(cls, p, 0) for cls, p in dist.items()[::-1]]
    while todo:
        cls, p, drawn = todo.pop()
        # a class with no fresh part lives at graph, whichever equal world
        # object it was computed at; nothing is carried, den_comp copies the bias
        identity = cls.is_identity()
        world = graph if identity else class_world(cls)
        carried = dict(zip(cls.fresh_funs, cls.fresh_biases))
        lam = bias if identity else {**bias, **carried}
        try:
            result = den_comp(body, world, env.set(name, cls.value), lam, table)
        except EdgeRead as read:
            chance = cls.pending().get(read.pair)
            if chance is None:
                raise
            B.check_undefined_budget(drawn + 1)
            todo.append((cls.drawn({read.pair: True}), p * chance, drawn + 1))
            todo.append((cls.drawn({read.pair: False}), p * (ONE - chance), drawn + 1))
            continue
        items = result.items()
        for cls2, _ in items:
            if cls2.base is not world and cls2.base != world:
                raise ValueError("let body must answer at the extended world")
        if not identity:
            items = [(_rebase(graph, cls2, carried), q) for cls2, q in items]
        elif len(dist) == 1:
            return result
        weighted += items if p is ONE else [(cls2, p if q is ONE else p * q) for cls2, q in items]
    return FinDist(weighted)


def transport(
    result: FinDist[CanonicalClass], emb: B.Embedding, bias2: BiasState
) -> FinDist[CanonicalClass]:
    """Reindex a result along a world extension.

    ``result`` is the source world's result at the pullback of ``bias2``
    (a bias state of the target) along the embedding; each class is pushed
    into the larger world.  Edges between a class's fresh nodes and the
    extension's new nodes are not determined by either side, so they are
    pending: a new function's edge to a fresh atom has the function's
    bias, and a fresh function's edge to a new atom the class's recorded
    bias.  The target is a world: a target with an unsampled edge raises
    ``ValueError`` when a class's world is built over it.
    """
    target = emb.target
    bias2 = _bias_state(target, bias2)
    lmap, rmap = emb.lmap(), emb.rmap()
    new_funs = sorted(set(target.left) - set(lmap.values()))
    new_atoms = sorted(set(target.right) - set(rmap.values()))
    next_f = max(list(target.left) + [-1]) + 1
    next_a = max(list(target.right) + [-1]) + 1
    flattened: list[tuple[CanonicalClass, Fraction]] = []
    for cls, p in result.items():
        if cls.base != emb.source:
            raise ValueError("embedding source must be the result's world")
        falias = {f: next_f + i for i, f in enumerate(cls.fresh_funs)}
        aalias = {a: next_a + i for i, a in enumerate(cls.fresh_atoms)}
        fbias = {falias[f]: b for f, b in zip(cls.fresh_funs, cls.fresh_biases)}
        fmap = {**lmap, **falias}
        amap = {**rmap, **aalias}
        edges = dict(target.edge_items())
        edges.update({(fmap[f], amap[a]): v for f, a, v in cls.ext_edges})
        edges.update(
            {(nf, aalias[a]): _edge(bias2[nf]) for nf in new_funs for a in cls.fresh_atoms}
        )
        edges.update(
            {(falias[f], na): _edge(fbias[falias[f]]) for f in cls.fresh_funs for na in new_atoms}
        )
        world = B.TotalBigraph(
            set(target.left) | set(falias.values()),
            set(target.right) | set(aalias.values()),
            edges,
        )
        flattened.append((canonicalize(target, world, O.relabel(cls.value, fmap, amap), fbias), p))
    return FinDist(flattened)


# ---------------------------------------------------------------------------
# Denotations of the primitives


def _bool_class(graph: B.TotalBigraph, flag: bool) -> CanonicalClass:
    return canonicalize(graph, graph, O.BoolV(flag), {})


def den_flip(graph: B.TotalBigraph, theta) -> FinDist[CanonicalClass]:
    theta = as_prob(theta)
    return FinDist([(_bool_class(graph, True), theta), (_bool_class(graph, False), ONE - theta)])


def den_app(graph: B.TotalBigraph, fun: int, atom: int) -> FinDist[CanonicalClass]:
    edge = graph.edge(fun, atom)
    if isinstance(edge, B.Pending):
        raise EdgeRead((fun, atom))
    return unit(graph, O.BoolV(edge))


def den_eq(graph: B.TotalBigraph, atom_a: int, atom_b: int) -> FinDist[CanonicalClass]:
    return unit(graph, O.BoolV(atom_a == atom_b))


def den_fresh(graph: B.TotalBigraph, bias: BiasState) -> FinDist[CanonicalClass]:
    """A new atom whose edge from each existing function is pending with
    that function's bias."""
    bias = _bias_state(graph, bias)
    world, atom = graph.add_right_defined({f: _edge(p) for f, p in bias.items()})
    return dirac(canonicalize(graph, world, O.AtomV(atom), {}))


def prob_true(dist: FinDist[CanonicalClass]) -> Fraction:
    """Mass of the true class of a boolean result (which must be collapsed)."""
    total = ZERO
    for cls, p in dist.items():
        if cls.fresh_funs or cls.fresh_atoms or not isinstance(cls.value, O.BoolV):
            raise NonCollapsedClass(f"boolean result carries world data: {cls!r}")
        if cls.value.value:
            # the first true weight is taken as it is, not added to 0
            total = p if total is ZERO else total + p
    return total


def clear_caches() -> None:
    """Does nothing: this module keeps no state between calls.  Kept for
    callers that still clear before each run."""


def _fresh_bias(
    graph: B.TotalBigraph,
    env: O.FrozenMap,
    binder: S.Ident,
    body: S.Comp,
    bias: BiasState,
    table: Table | None,
) -> Fraction:
    """The body's true-probability on a brand-new atom, checked to be the
    same for every wiring of that atom to the existing functions.

    The atom's column starts pending and is split only on the edges the
    body reads, so each leaf of the split fixes the probability for every
    wiring that agrees with it there.  A leaf stands for its least wiring
    (unread edges False); leaves are compared in binary-counting order of
    those wirings over the sorted functions, so the witnesses are the
    all-False wiring and the first wiring whose probability differs.  A
    violation inside the body is held to its leaf's turn in that order,
    so the first failure is the one the wirings meet in counting order."""
    funs = sorted(graph.left)
    leaves = []
    todo: list[dict[int, bool]] = [{}]
    while todo:
        assign = todo.pop()
        B.check_undefined_budget(len(assign))
        world, atom = graph.add_right_defined({f: assign.get(f, _UNASSIGNED) for f in funs})
        try:
            q = prob_true(den_comp(body, world, env.set(binder, O.AtomV(atom)), bias, table))
        except EdgeRead as read:
            fun, read_atom = read.pair
            if read_atom != atom:
                raise
            todo += [{**assign, fun: True}, {**assign, fun: False}]
            continue
        except FreshnessViolation as violation:
            q = violation
        leaves.append((tuple((f, assign.get(f, False)) for f in funs), q))
    leaves.sort(key=lambda leaf: [bit for _, bit in leaf[0]])
    first = leaves[0]
    for conn, q in leaves:
        if isinstance(q, FreshnessViolation):
            raise q
        if q != first[1]:
            raise FreshnessViolation(body, first, (conn, q))
    return first[1]


def den_mem(
    graph: B.TotalBigraph,
    env: O.FrozenMap,
    binder: S.Ident,
    body: S.Comp,
    bias: BiasState,
    table: Table | None = None,
) -> FinDist[CanonicalClass]:
    """A new function: its answer on each existing atom is pending with the
    body's probability at that atom, and its bias on future atoms is the
    body's (wiring-independent) probability on a new atom."""
    bias = _bias_state(graph, bias)
    row = {
        a: _edge(prob_true(den_comp(body, graph, env.set(binder, O.AtomV(a)), bias, table)))
        for a in sorted(graph.right)
    }
    new_bias = _fresh_bias(graph, env, binder, body, bias, table)
    world, fun = graph.add_left_defined(row)
    return dirac(canonicalize(graph, world, O.FunV(fun), {fun: new_bias}))


def den_comp(
    comp: S.Comp,
    graph: B.TotalBigraph,
    env: O.FrozenMap,
    bias: BiasState,
    table: Table | None = None,
) -> FinDist[CanonicalClass]:
    """Compositional interpretation of a well-typed computation whose free
    variables are covered by env over the given world, at a bias state
    assigning a probability to each of the world's functions.

    ``table`` holds the results already computed in the same top-level
    call (see the module docstring); a call without one starts its own."""
    bias = _bias_state(graph, bias)
    if table is None:
        table = {}
    # a result depends on the environment only through the term's free
    # variables; an unbound one is None here and raises where it is read
    entries = table.setdefault((comp, graph, tuple(map(env.get, S.free_var_names(comp)))), [])
    for seen, result in entries:
        if seen == bias:
            return result
    if isinstance(comp, S.Return):
        result = unit(graph, O.eval_value(env, comp.value))
    elif isinstance(comp, S.Let):
        bound = den_comp(comp.bound, graph, env, bias, table)
        result = bind(graph, bias, bound, comp.name, comp.body, env, table)
    elif isinstance(comp, S.If):
        flag = O.eval_value(env, comp.cond)
        if not isinstance(flag, O.BoolV):
            raise O.MalformedConfiguration("if scrutinee must be a boolean")
        result = den_comp(comp.then if flag.value else comp.orelse, graph, env, bias, table)
    elif isinstance(comp, S.Match):
        subject = O.eval_value(env, comp.subject)
        if not isinstance(subject, O.PairV):
            raise O.MalformedConfiguration("match scrutinee must be a pair")
        env2 = env.set(comp.fst_name, subject.fst).set(comp.snd_name, subject.snd)
        result = den_comp(comp.body, graph, env2, bias, table)
    elif isinstance(comp, S.Flip):
        result = den_flip(graph, comp.bias)
    elif isinstance(comp, S.Fresh):
        result = den_fresh(graph, bias)
    elif isinstance(comp, S.Eq):
        lhs = O.eval_value(env, comp.lhs)
        rhs = O.eval_value(env, comp.rhs)
        if not isinstance(lhs, O.AtomV) or not isinstance(rhs, O.AtomV):
            raise O.MalformedConfiguration("equality compares atoms")
        result = den_eq(graph, lhs.label, rhs.label)
    elif isinstance(comp, S.App):
        fn = O.eval_value(env, comp.fn)
        arg = O.eval_value(env, comp.arg)
        if not isinstance(fn, O.FunV) or not isinstance(arg, O.AtomV):
            raise O.MalformedConfiguration("application needs a function and an atom")
        result = den_app(graph, fn.label, arg.label)
    elif isinstance(comp, S.MemFn):
        result = den_mem(graph, env, comp.binder, comp.body, bias, table)
    else:
        raise TypeError(f"not a computation: {comp!r}")
    # only a returned result is kept: an edge read or a freshness violation
    # propagates and is met afresh by the next evaluation
    entries.append((bias, result))
    return result


def den_program(program: S.Comp) -> FinDist[CanonicalClass]:
    """Denotation of a closed program at the empty world, with every edge
    it returns drawn."""
    B.check_undefined_budget(0)  # an invalid MEMLANG_MAX_UNDEF fails even where nothing expands
    return expand(den_comp(program, EMPTY_WORLD, O.EMPTY_MAP, {}))


def mem_phi(
    graph: B.TotalBigraph, dist: FinDist[CanonicalClass], query: Union[int, Mapping[int, bool]]
) -> Fraction:
    """Probability that a function-typed result at a world answers true at
    a query point: an existing atom (by label) or a hypothetical new atom
    given as its wiring to the existing functions."""
    if isinstance(query, int):
        if query not in graph.right:
            raise ValueError(f"atom {query} does not exist in the world")
    else:
        if set(query) != set(graph.left):
            raise ValueError("wiring must assign exactly the existing functions")
    total = ZERO
    for cls, p in dist.items():
        v = cls.value
        if not isinstance(v, O.FunV):
            raise NonCollapsedClass(f"function-typed result expected, got {cls!r}")
        fresh = v.label not in graph.left
        if isinstance(query, int):
            answer = cls.ext_edge(v.label, query) if fresh else graph.edge(v.label, query)
        else:
            answer = cls.bias_of(v.label) if fresh else query[v.label]
        total += p * (answer.chance if isinstance(answer, B.Pending) else Fraction(answer))
    return total


# ---------------------------------------------------------------------------
# Configuration denotation and the checkers


def _closure_biases(closures: O.FrozenMap, world: B.TotalBigraph, table: Table) -> dict[int, Fraction]:
    """Bias of every function, derived from its closure at the world.
    Computed in creation order; a body can only mention older functions,
    and wirings to unmentioned ones marginalize out, so the 1/2 placeholder
    for not-yet-computed entries cannot influence the result."""
    biases: dict[int, Fraction] = {}
    for fun in sorted(world.left):
        closure = closures[fun]
        lam = {f: biases.get(f, HALF) for f in world.left}
        biases[fun] = _fresh_bias(world, closure.captured, closure.binder, closure.body, lam, table)
    return biases


def _completed(graph: B.PartialBigraph, assign: Mapping[tuple[int, int], bool], fill) -> B.TotalBigraph:
    """``graph`` with each unsampled edge taken from ``assign`` if it is
    there and ``fill(pair)`` otherwise."""
    edges = {
        pair: v if v is not None else assign[pair] if pair in assign else fill(pair)
        for pair, v in graph.edge_items()
    }
    return B.TotalBigraph(graph.left, graph.right, edges)


def _observed(result: FinDist[CanonicalClass], world: B.TotalBigraph, biases: BiasState) -> FinDist[CanonicalClass]:
    """A term's result moved onto ``world``, which differs from its base only
    on edges the term did not read, over the empty world, drawn."""
    moved = [(dataclasses.replace(cls, base=world), q) for cls, q in result.items()]
    return expand(FinDist([(_rebase(EMPTY_WORLD, cls, biases), q) for cls, q in moved]))


# a weight and the weighted classes of one leaf, per leaf
Leaves = list[tuple[Fraction, list[tuple[CanonicalClass, Fraction]]]]


def _den_config(config: O.Configuration, table: Table) -> tuple[Leaves, Leaves]:
    """Both weightings of a configuration's completions, from one pass:
    (chain rule, single bias), each as its weighted leaves, not yet mixed.
    See ``den_config``.  The closure biases and chain-rule probabilities
    are evaluated at every leaf, through ``table``."""
    if O.memo_stack(config.term):
        raise ValueError("configuration denotation requires a marker-free term")
    graph, closures = config.graph, config.closures
    undef = graph.undefined_pairs()
    chain, single = [], []
    todo: list[dict[tuple[int, int], bool]] = [{}]
    while todo:
        assign = todo.pop()
        B.check_undefined_budget(len(assign))
        world = _completed(graph, assign, lambda pair: _UNASSIGNED)
        try:
            biases = _closure_biases(closures, world, table)
            p = {}
            for fun, atom in sorted(undef):
                closure = closures[fun]
                env = closure.captured.set(closure.binder, O.AtomV(atom))
                p[(fun, atom)] = prob_true(den_comp(closure.body, world, env, biases, table))
            chain_w = single_w = ONE
            for (fun, atom), bit in assign.items():
                chain_w *= p[(fun, atom)] if bit else ONE - p[(fun, atom)]
                single_w *= biases[fun] if bit else ONE - biases[fun]
            if chain_w == ZERO and single_w == ZERO:
                continue
            result = den_comp(config.term, world, config.env, biases, table)
        except EdgeRead as read:
            if read.pair not in undef:
                raise
            todo += [{**assign, read.pair: True}, {**assign, read.pair: False}]
            continue
        # nothing at this leaf reads an unassigned edge, so the sum over its
        # two values is the coin ``expand`` draws where the edge survives
        chain_world = _completed(graph, assign, lambda pair: _edge(p[pair]))
        single_world = _completed(graph, assign, lambda pair: _edge(biases[pair[0]]))
        chain_dist = _observed(result, chain_world, biases)
        single_dist = chain_dist if single_world == chain_world else _observed(result, single_world, biases)
        chain.append((chain_w, chain_dist.items()))
        single.append((single_w, single_dist.items()))
    return chain, single


def den_config(config: O.Configuration) -> FinDist[CanonicalClass]:
    """Denotation of a configuration over the empty base world.

    Each completion of the unsampled edges is weighted by the chain rule:
    the factor for edge (f, a) is the probability f's closure body yields
    true at atom a in the completed world.  (Weighting every edge of f by
    f's single bias instead agrees for constant bodies but not in general;
    ``check_soundness`` reports that variant as ``bias_formula_rhs``.)

    The completions are not enumerated.  The unsampled edges start as
    placeholders, and an edge is split into False and True only when the
    closure biases, the chain-rule probabilities or the term read it; each
    leaf weighs just the edges it read.  An edge no leaf reads does not
    change anything computed there, so the sum over its two values is a
    coin with its chain-rule chance (or f's bias), which ``expand`` draws
    if the result mentions the edge.  ``MEMLANG_MAX_UNDEF`` bounds the
    edges read on one path.
    """
    return FinDist(mixed(_den_config(config, {})[0]))


@dataclass
class SoundnessReport:
    lhs: FinDist[CanonicalClass]
    rhs: FinDist[CanonicalClass]
    equal: bool
    bias_formula_rhs: FinDist[CanonicalClass]
    bias_formula_agrees: bool


def check_soundness(program: S.Comp) -> SoundnessReport:
    """Compare the compositional denotation of a closed program with the
    weighted sum of its terminal configurations' denotations.  Each sum is
    merged once, over every terminal's leaves; the leaf weights of each
    terminal and the terminal weights are each checked to sum to 1.

    ``_den_config`` reads a terminal's term, the values of the term's free
    variables, its graph and its closures, and nothing else.  Terminals
    that agree on all four are denoted once, at their summed weight, in
    the place of the first of them, so each sum keeps its order."""
    lhs = den_program(program)
    terminals = O.enumerate_bigstep(program)
    groups: dict[tuple, list] = {}
    for cfg, w in terminals.items():
        key = (cfg.term, tuple(map(cfg.env.get, S.free_var_names(cfg.term))), cfg.graph, cfg.closures)
        if key in groups:
            groups[key][1] += w
        else:
            groups[key] = [cfg, w]
    table: Table = {}  # the terminals' own, not den_program's; lives for this call
    chain_terms, single_terms = [], []
    for cfg, w in groups.values():
        chain, single = _den_config(cfg, table)
        chain_terms.append((w, mixed(chain)))
        single_terms.append((w, mixed(single)))
    rhs = FinDist(mixed(chain_terms))
    bias_rhs = FinDist(mixed(single_terms))
    return SoundnessReport(
        lhs=lhs,
        rhs=rhs,
        equal=dist_eq(lhs, rhs),
        bias_formula_rhs=bias_rhs,
        bias_formula_agrees=dist_eq(rhs, bias_rhs),
    )


def check_dataflow(t1: S.Comp, t2: S.Comp, u: S.Comp, x1: S.Ident, x2: S.Ident) -> bool:
    """Reordering independent bindings and discarding an unused one must
    not change the denotation."""
    if x1 in S.free_vars(t2) or x2 in S.free_vars(t1):
        raise ValueError("bound variables must not occur in the other binding")
    ordered = S.Let(x1, t1, S.Let(x2, t2, u))
    swapped = S.Let(x2, t2, S.Let(x1, t1, u))
    commute = dist_eq(den_program(ordered), den_program(swapped))
    discard = dist_eq(den_program(S.Let(x1, t1, t2)), den_program(t2))
    return commute and discard
