"""Compositional semantics over totally populated memo-table worlds.

A computation is evaluated at a world g (a total bigraph) and a bias state,
which assigns each of g's functions its chance of answering true on atoms
that do not exist yet.  ``den_comp`` checks the bias state on every call:
it must assign exactly g's functions.  The values are checked once: a
state that passes is coerced to exact probabilities in [0, 1] and kept as
a read-only ``_CheckedBias``, which later calls take as it is, as they
take ``_closure_biases``' result, while any other mapping (a caller's own,
``bind``'s extension by a class's fresh biases) is coerced in full.

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
computation and monads", 1991).  A class is a named tuple of its six
fields, equal only to a class with the same fields; it keeps nothing
else, so any other world it describes is rebuilt by ``class_world``.

Memoized functions are interpreted by a row of answers over the existing
atoms (one probability per atom, obtained by running the body on that
atom) plus a single bias for future atoms.  A body that ignores its binder
answers alike on every atom, so it runs once for the whole row.  The bias
must not depend on how a hypothetical new atom is wired to the existing
functions; ``FreshnessViolation`` reports a witnessing pair of wirings
when it does: the all-False wiring and the first wiring, in
binary-counting order over the sorted functions, whose probability
differs.  The new atom's column is split only on the edges the body
reads.

Edges are drawn lazily.  ``den_mem`` and ``den_fresh`` each return one
class, in which every undetermined edge of the new row or column is
*pending* (``bigraph.Pending``): an independent coin with an exact chance,
stored as a plain bool when the chance is 0 or 1.  Each builds its class
in closed form: the new node takes the smallest label the world does not
use, and its row or column is all the fresh structure the class has, so
neither calls ``canonicalize``, and ``den_fresh`` builds no world.
``transport``'s cross edges are pending in the same way.  When
``den_app`` reads a pending edge it raises ``EdgeRead``; the ``bind``
whose class owns the edge splits that class into its two outcomes and
evaluates its body again on each, so a body, and any row computed inside
it, stays correlated with the edges it read.  A pending edge nobody reads
is garbage-collected with its node, or survives into a result, where
``expand`` draws it as a Bernoulli product.  ``expand`` runs where
results are observed: ``den_program``, each leaf of ``den_config`` and
the law suites.

A configuration's unsampled edges are split the same way: ``den_config``
gives each a placeholder, splits one only when the closure biases, the
chain-rule probabilities or the term read it, and leaves every other one
to ``expand`` as a coin.  A leaf that read every unsampled edge is
observed at the one world it was evaluated at.

A result is a function of the world, the bias state, the term and the
values of the term's free variables, so ``den_comp`` keeps the results it
returns in a table and looks an evaluation up there first (Michie's memo
functions, "Memo functions and machine learning", Nature 1968).  The key
is (term, world, the free variables' values); each key holds its bias
states, compared by ``==``, with their results.  A lookup pays only where
it is cheaper than the evaluation it saves, so only a ``let``, a
``match``, a ``flip``, a ``fresh()`` and a ``memfn`` are kept.  A
``return``, an equality and an application are evaluated at once, which
costs less than building, hashing and storing their key, and an ``if``
only picks its branch, which is looked up in its turn.  A ``let`` body
that ignores its binder thus runs once for all the classes whose world it
shares.  A ``memfn`` body that ignores its binder needs no lookup to run
once for a whole row: ``den_mem`` evaluates it once and gives every atom
that answer.  A call that raises (``EdgeRead``, ``FreshnessViolation``)
stores nothing, so splits and witnesses are what a fresh evaluation
gives.  The table is passed explicitly and lives for one
top-level call: ``den_comp`` without one starts its own, as
``den_program`` does, and ``check_soundness`` starts a second one for all
of its terminals, so the two sides it compares never share one.  The
table holds nothing but these results.  ``check_soundness`` denotes once
each group of terminals that agree on all that a configuration's
denotation reads: the term, the values of its free variables, the
memo-table and, of each closure, the binder, the body and the captured
values of the body's other free variables.  It groups the enumerator's
paths unmerged, and where every leaf weighs and observes the same under
both weightings, its single-bias sum is the chain-rule sum itself.

A boolean mentions no label, so its class is the identity class at the
base, which ``canonicalize`` builds at once, without walking the value for
labels.  A flip's result is an unmerged ``dist.two_point`` coin over the
world's two boolean classes, hashed only when looked up.  An environment
is any mapping from names to values, a configuration's ``opsem.FrozenMap``
as it is, and each binding copies it into a plain dict (``{**env, name:
value}``): the table keys on the values of a term's free variables, so
nothing here reads an environment's hash, order or labels.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple, TypeVar, Union

from . import bigraph as B
from . import opsem as O
from . import syntax as S
from .dist import FinDist, HALF, ONE, ZERO, MassError, as_prob, dirac, dist_eq, mixed, two_point

BiasState = Mapping[int, Fraction]
K = TypeVar("K")
# (term, world, values of the term's free variables) -> [(bias state, result)]
Table = dict[tuple, list[tuple["_CheckedBias", "FinDist[CanonicalClass]"]]]

EMPTY_WORLD = B.TotalBigraph()


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

    def __reduce__(self):
        # a copy or a pickle is rebuilt through the constructor, since the
        # default protocol would fill it through the mutators
        return _CheckedBias, (dict(self),)


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


class CanonicalClass(NamedTuple):
    base: B.TotalBigraph
    value: O.EnvValue
    fresh_funs: tuple[int, ...]
    fresh_biases: tuple[Fraction, ...]
    fresh_atoms: tuple[int, ...]
    ext_edges: tuple[tuple[int, int, B.EdgeVal], ...]

    # a class equals only a class, never the plain tuple of its fields
    def __eq__(self, other: object) -> bool:
        return type(other) is CanonicalClass and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

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
        return self._replace(ext_edges=edges)

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
    its class holds the value as it is, with no fresh part.  A boolean
    mentions no node at all, so its class is built without a walk.

    ``world`` must agree with the base on the base's edges.
    """
    if base is not world and not (base.left <= world.left and base.right <= world.right):
        raise ValueError("world does not extend the base graph")
    if type(value) is O.BoolV:
        return CanonicalClass(base, value, (), (), (), ())
    funs, atoms = O.value_labels(value)
    fresh_fun_order = [f for f in funs if f not in base.left]
    fresh_atom_order = [a for a in atoms if a not in base.right]
    if not fresh_fun_order and not fresh_atom_order:
        # the identity extension: no relabelling, no edge leaves the base
        return CanonicalClass(base, value, (), (), (), ())
    new_funs = B.smallest_free(len(fresh_fun_order), base.left)
    new_atoms = B.smallest_free(len(fresh_atom_order), base.right)
    fmap = dict(zip(fresh_fun_order, new_funs))
    amap = dict(zip(fresh_atom_order, new_atoms))

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
    """The total world a class describes: its base plus its fresh nodes.  A
    class with no fresh part describes its base world, which is returned as
    it is; any other world is rebuilt."""
    if cls.is_identity():
        return cls.base
    return cls.base.extended(cls.fresh_funs, cls.fresh_atoms, {(f, a): v for f, a, v in cls.ext_edges})


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
    0 or 1.  Tested on the integer parts, as ``as_prob`` does: a lowest-terms
    0 is 0/1 and a lowest-terms 1 is 1/1."""
    numerator = chance.numerator
    if numerator == 0:
        return False
    if numerator == chance.denominator:
        return True
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
    ``biases`` covers the functions that base adds to ``base``, and the
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
    env: Mapping[S.Ident, O.EnvValue],
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
        # object it was computed at, and carries no bias: the body runs
        # under the checked state as it is
        identity = cls.is_identity()
        if identity:
            world, lam = graph, bias
        else:
            world = class_world(cls)
            carried = dict(zip(cls.fresh_funs, cls.fresh_biases))
            lam = {**bias, **carried}
        try:
            result = den_comp(body, world, {**env, name: cls.value}, lam, table)
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
    bias.  The target must be a world: one with an unsampled edge raises
    ``ValueError``.
    """
    target = emb.target
    bias2 = _bias_state(target, bias2)
    if target.undefined_pairs():
        raise ValueError("transport's target must be a world: it has an unsampled edge")
    lmap, rmap = emb.lmap(), emb.rmap()
    new_funs = sorted(set(target.left) - set(lmap.values()))
    new_atoms = sorted(set(target.right) - set(rmap.values()))
    flattened: list[tuple[CanonicalClass, Fraction]] = []
    for cls, p in result.items():
        if cls.base != emb.source:
            raise ValueError("embedding source must be the result's world")
        # temporary labels for the fresh nodes; canonicalize renumbers them
        falias = dict(zip(cls.fresh_funs, B.smallest_free(len(cls.fresh_funs), target.left)))
        aalias = dict(zip(cls.fresh_atoms, B.smallest_free(len(cls.fresh_atoms), target.right)))
        fbias = {falias[f]: b for f, b in zip(cls.fresh_funs, cls.fresh_biases)}
        fmap = {**lmap, **falias}
        amap = {**rmap, **aalias}
        edges = {(fmap[f], amap[a]): v for f, a, v in cls.ext_edges}
        edges.update({(nf, aalias[a]): _edge(bias2[nf]) for nf in new_funs for a in cls.fresh_atoms})
        edges.update({(f, na): _edge(b) for f, b in fbias.items() for na in new_atoms})
        world = target.extended(falias.values(), aalias.values(), edges)
        flattened.append((canonicalize(target, world, O.relabel(cls.value, fmap, amap), fbias), p))
    return FinDist(flattened)


# ---------------------------------------------------------------------------
# Denotations of the primitives


def den_flip(graph: B.TotalBigraph, theta) -> FinDist[CanonicalClass]:
    """The coin with chance ``theta`` of true over the world's two boolean
    classes, which differ, so nothing is merged."""
    true = CanonicalClass(graph, O.BOOLS[True], (), (), (), ())
    false = CanonicalClass(graph, O.BOOLS[False], (), (), (), ())
    return two_point(true, false, as_prob(theta))


def den_app(graph: B.TotalBigraph, fun: int, atom: int) -> FinDist[CanonicalClass]:
    edge = graph.edge(fun, atom)
    if isinstance(edge, B.Pending):
        raise EdgeRead((fun, atom))
    return unit(graph, O.BOOLS[edge])


def den_eq(graph: B.TotalBigraph, atom_a: int, atom_b: int) -> FinDist[CanonicalClass]:
    return unit(graph, O.BOOLS[atom_a == atom_b])


def den_fresh(graph: B.TotalBigraph, bias: BiasState) -> FinDist[CanonicalClass]:
    """A new atom whose edge from each existing function is pending with
    that function's bias.  Its class is built in closed form: the atom
    takes the smallest label the world does not use, and its column is the
    class's only fresh structure, so no world is built and nothing is left
    for ``canonicalize`` to discard or renumber."""
    bias = _bias_state(graph, bias)
    (atom,) = B.smallest_free(1, graph.right)
    column = tuple((f, atom, _edge(p)) for f, p in sorted(bias.items()))
    return dirac(CanonicalClass(graph, O.AtomV(atom), (), (), (atom,), column))


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
    env: Mapping[S.Ident, O.EnvValue],
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
            q = prob_true(den_comp(body, world, {**env, binder: O.AtomV(atom)}, bias, table))
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
    env: Mapping[S.Ident, O.EnvValue],
    binder: S.Ident,
    body: S.Comp,
    bias: BiasState,
    table: Table | None = None,
) -> FinDist[CanonicalClass]:
    """A new function: its answer on each existing atom is pending with the
    body's probability at that atom, and its bias on future atoms is the
    body's (wiring-independent) probability on a new atom.

    A body that ignores its binder (one that rebinds it included) answers
    alike on every atom, so it runs once, with ``env`` as it is, for the
    whole row.  The class is read off the row in closed form: the function
    takes the smallest label the world does not use, and its row, in atom
    order, is the class's only fresh structure, so ``canonicalize`` is not
    called."""
    bias = _bias_state(graph, bias)
    atoms = sorted(graph.right)
    if atoms and binder not in S.free_var_names(body):
        row = dict.fromkeys(atoms, _edge(prob_true(den_comp(body, graph, env, bias, table))))
    else:
        row = {
            a: _edge(prob_true(den_comp(body, graph, {**env, binder: O.AtomV(a)}, bias, table)))
            for a in atoms
        }
    new_bias = _fresh_bias(graph, env, binder, body, bias, table)
    # nothing reads this world: a row is added to one because that is where
    # membench/tracing.py counts the rows built (bigraph.rows_built)
    graph.add_left_defined(row)
    (fun,) = B.smallest_free(1, graph.left)
    edges = tuple((fun, a, v) for a, v in row.items())
    return dirac(CanonicalClass(graph, O.FunV(fun), (fun,), (as_prob(new_bias),), (), edges))


def den_comp(
    comp: S.Comp,
    graph: B.TotalBigraph,
    env: Mapping[S.Ident, O.EnvValue],
    bias: BiasState,
    table: Table | None = None,
) -> FinDist[CanonicalClass]:
    """Compositional interpretation of a well-typed computation whose free
    variables are covered by env over the given world, at a bias state
    assigning a probability to each of the world's functions.

    ``table`` holds the results already computed in the same top-level
    call (see the module docstring); a call without one starts its own."""
    bias = _bias_state(graph, bias)
    # a leaf, and an if that only picks its branch, costs less to evaluate
    # than to look up, so it is evaluated before the table is consulted
    if isinstance(comp, S.Return):
        return unit(graph, O.eval_value(env, comp.value))
    if isinstance(comp, S.If):
        flag = O.eval_value(env, comp.cond)
        if not isinstance(flag, O.BoolV):
            raise O.MalformedConfiguration("if scrutinee must be a boolean")
        return den_comp(comp.then if flag.value else comp.orelse, graph, env, bias, table)
    if isinstance(comp, S.Eq):
        lhs = O.eval_value(env, comp.lhs)
        rhs = O.eval_value(env, comp.rhs)
        if not isinstance(lhs, O.AtomV) or not isinstance(rhs, O.AtomV):
            raise O.MalformedConfiguration("equality compares atoms")
        return den_eq(graph, lhs.label, rhs.label)
    if isinstance(comp, S.App):
        fn = O.eval_value(env, comp.fn)
        arg = O.eval_value(env, comp.arg)
        if not isinstance(fn, O.FunV) or not isinstance(arg, O.AtomV):
            raise O.MalformedConfiguration("application needs a function and an atom")
        return den_app(graph, fn.label, arg.label)
    if table is None:
        table = {}
    # a result depends on the environment only through the term's free
    # variables; an unbound one is None here and raises where it is read
    entries = table.setdefault((comp, graph, tuple(map(env.get, S.free_var_names(comp)))), [])
    for seen, result in entries:
        if seen == bias:
            return result
    if isinstance(comp, S.Let):
        bound = den_comp(comp.bound, graph, env, bias, table)
        result = bind(graph, bias, bound, comp.name, comp.body, env, table)
    elif isinstance(comp, S.Match):
        subject = O.eval_value(env, comp.subject)
        if not isinstance(subject, O.PairV):
            raise O.MalformedConfiguration("match scrutinee must be a pair")
        env2 = {**env, comp.fst_name: subject.fst, comp.snd_name: subject.snd}
        result = den_comp(comp.body, graph, env2, bias, table)
    elif isinstance(comp, S.Flip):
        result = den_flip(graph, comp.bias)
    elif isinstance(comp, S.Fresh):
        result = den_fresh(graph, bias)
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
    return expand(den_comp(program, EMPTY_WORLD, {}, {}))


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


def _closure_biases(closures: O.FrozenMap, world: B.TotalBigraph, table: Table) -> _CheckedBias:
    """Bias of every function, derived from its closure at the world, as a
    checked bias state.  Computed in creation order; a body can only
    mention older functions, and wirings to unmentioned ones marginalize
    out, so the 1/2 placeholder for not-yet-computed entries cannot
    influence the result."""
    biases: dict[int, Fraction] = {}
    for fun in sorted(world.left):
        closure = closures[fun]
        lam = _bias_state(world, {f: biases.get(f, HALF) for f in world.left})
        biases[fun] = _fresh_bias(world, closure.captured, closure.binder, closure.body, lam, table)
    return _bias_state(world, biases)


def _observed(result: FinDist[CanonicalClass], world: B.TotalBigraph, biases: BiasState) -> FinDist[CanonicalClass]:
    """A term's result moved onto ``world``, which differs from its base only
    on edges the term did not read, over the empty world, drawn.  A class
    over ``world`` in place of its base is the same class, since it touches
    none of those edges."""
    return expand(FinDist([(_rebase(EMPTY_WORLD, cls._replace(base=world), biases), q) for cls, q in result.items()]))


# a weight and the weighted classes of one leaf, per leaf
Leaves = list[tuple[Fraction, list[tuple[CanonicalClass, Fraction]]]]


def _den_config(config: O.Configuration, table: Table) -> tuple[Leaves, Leaves]:
    """Both weightings of a configuration's completions, from one pass:
    (chain rule, single bias), each as its weighted leaves, not yet mixed.
    See ``den_config``.  The closure biases and chain-rule probabilities
    are evaluated at every leaf, through ``table``.  When every leaf has
    the same weight and the same observed world under both, the single-bias
    leaves are the chain-rule list itself."""
    if O.memo_stack(config.term):
        raise ValueError("configuration denotation requires a marker-free term")
    graph, closures = config.graph, config.closures
    undef = graph.undefined_pairs()
    chain, single = [], []
    agree = True
    todo: list[dict[tuple[int, int], bool]] = [{}]
    while todo:
        assign = todo.pop()
        B.check_undefined_budget(len(assign))
        world = graph.completed(lambda pair: assign.get(pair, _UNASSIGNED))
        try:
            biases = _closure_biases(closures, world, table)
            p = {}
            for fun, atom in sorted(undef):
                closure = closures[fun]
                env = {**closure.captured, closure.binder: O.AtomV(atom)}
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
        if len(assign) == len(undef):
            # every unsampled edge was read: the leaf's world is the observed one
            chain_world = single_world = world
        else:
            # nothing at this leaf reads an unassigned edge, so the sum over its
            # two values is the coin ``expand`` draws where the edge survives
            chain_world = graph.completed(lambda pair: assign.get(pair, _edge(p[pair])))
            single_world = graph.completed(lambda pair: assign.get(pair, _edge(biases[pair[0]])))
        chain_dist = _observed(result, chain_world, biases)
        single_dist = chain_dist if single_world == chain_world else _observed(result, single_world, biases)
        agree = agree and single_dist is chain_dist and single_w == chain_w
        chain.append((chain_w, chain_dist.items()))
        single.append((single_w, single_dist.items()))
    return chain, chain if agree else single


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


class SoundnessReport(NamedTuple):
    lhs: FinDist[CanonicalClass]
    rhs: FinDist[CanonicalClass]
    equal: bool
    bias_formula_rhs: FinDist[CanonicalClass]
    bias_formula_agrees: bool


def _read_of(closure: O.Closure) -> tuple:
    """What ``_den_config`` reads of a closure: its binder, its body and the
    captured values of the body's free variables other than the binder,
    which each call binds afresh."""
    names = [name for name in S.free_var_names(closure.body) if name != closure.binder]
    return closure.binder, closure.body, tuple(map(closure.captured.get, names))


def check_soundness(program: S.Comp) -> SoundnessReport:
    """Compare the compositional denotation of a closed program with the
    weighted sum of its terminal configurations' denotations.  Each sum is
    merged once, over every terminal's leaves; the leaf weights of each
    terminal and the terminal weights are each checked to sum to 1.  The
    terminals are the paths of ``opsem.terminal_paths``, which
    ``enumerate_bigstep`` would merge first: each path's weight is checked
    to be non-negative, and the weights of the groups below, which sum to
    what the paths' do, are checked to sum to 1 where the sums mix them.
    Where every terminal's leaves have the same weight and world under
    both weightings, ``bias_formula_rhs`` is ``rhs`` itself.

    ``_den_config`` reads a terminal's term, the values of the term's free
    variables, its graph and, of each closure, the binder, the body and
    the captured values of the body's other free variables, and nothing
    else.  Terminals that agree on all of these are denoted once, at their
    summed weight, in the place of the first of them, so each sum keeps
    its order."""
    lhs = den_program(program)
    groups: dict[tuple, list] = {}
    for cfg, w in O.terminal_paths(program):
        if w.numerator < 0:
            raise MassError(f"negative weight {w} for a terminal path")
        closures = tuple((label, *_read_of(closure)) for label, closure in cfg.closures.items())
        key = (cfg.term, tuple(map(cfg.env.get, S.free_var_names(cfg.term))), cfg.graph, closures)
        if key in groups:
            groups[key][1] += w
        else:
            groups[key] = [cfg, w]
    table: Table = {}  # the terminals' own, not den_program's; lives for this call
    chain_terms, single_terms = [], []
    agree = True
    for cfg, w in groups.values():
        chain, single = _den_config(cfg, table)
        chain_items = mixed(chain)
        chain_terms.append((w, chain_items))
        single_terms.append((w, chain_items if single is chain else mixed(single)))
        agree = agree and single is chain
    rhs = FinDist(mixed(chain_terms))
    # where every terminal's leaves agree, the two sums are the same items
    bias_rhs = rhs if agree else FinDist(mixed(single_terms))
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
