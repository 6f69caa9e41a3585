import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlang import bigraph as B
from memlang import denot as D
from memlang import opsem as O
from memlang import syntax as S
from memlang import typecheck as TC
from memlang.dist import FinDist, ONE, ZERO, as_prob, dist_eq, mixed, weighted_mix
from memlang.progen import (
    ProgramGen,
    _mem_instance,
    _random_world,
    mem_law_programs,
    soundness_corpus,
)

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)
EMPTY = D.EMPTY_WORLD


def load(name: str) -> S.Comp:
    return S.parse_program((PROGRAMS / name).read_text())


def bool_dist(dist) -> dict:
    out = {}
    for cls, w in dist.items():
        assert not cls.fresh_funs and not cls.fresh_atoms
        assert isinstance(cls.value, O.BoolV)
        out[cls.value.value] = w
    return out


def one_fun_world(edge_to=None) -> B.TotalBigraph:
    if edge_to is None:
        return B.TotalBigraph([0], [], {})
    return B.TotalBigraph([0], [0], {(0, 0): edge_to})


# -- canonical classes --------------------------------------------------------


def test_canonicalize_no_fresh_parts():
    g = one_fun_world(edge_to=True)
    cls = D.canonicalize(g, g, O.BoolV(True), {})
    assert cls.fresh_funs == () and cls.fresh_atoms == () and cls.ext_edges == ()
    assert cls.value == O.BoolV(True)


def test_canonicalize_fresh_atom_keeps_column():
    g = one_fun_world()
    h, atom = g.add_right_defined({0: True})
    cls = D.canonicalize(g, h, O.AtomV(atom), {})
    assert cls.fresh_atoms == (0,)
    assert cls.ext_edges == ((0, 0, True),)


def test_canonicalize_discards_unused_nodes():
    g = one_fun_world(edge_to=True)
    base_cls = D.canonicalize(g, g, O.BoolV(True), {})
    h, fun = g.add_left_defined({0: False})
    dropped = D.canonicalize(g, h, O.BoolV(True), {fun: HALF})
    assert dropped == base_cls


def test_canonicalize_renumbers_in_first_occurrence_order():
    g = EMPTY
    h, a1 = g.add_right_defined({})
    h, a2 = h.add_right_defined({})
    swapped = D.canonicalize(g, h, O.PairV(O.AtomV(a2), O.AtomV(a1)), {})
    assert swapped.value == O.PairV(O.AtomV(0), O.AtomV(1))


def test_class_world_roundtrip():
    g = one_fun_world()
    h, atom = g.add_right_defined({0: False})
    cls = D.canonicalize(g, h, O.AtomV(atom), {})
    world = D.class_world(cls)
    assert world.edge(0, cls.fresh_atoms[0]) is False


def rebuilt_world(cls: D.CanonicalClass) -> B.TotalBigraph:
    """The world a class describes, built anew: base edges plus ext_edges."""
    edges = dict(cls.base.edge_items())
    edges.update({(f, a): v for f, a, v in cls.ext_edges})
    return B.TotalBigraph(
        cls.base.left | set(cls.fresh_funs), cls.base.right | set(cls.fresh_atoms), edges
    )


def general_canonicalize(base, world, value, biases) -> D.CanonicalClass:
    """canonicalize's general construction written out: relabel the fresh
    nodes the value mentions and keep every world edge that touches one of
    them and no other fresh node."""
    funs, atoms = O.value_labels(value)
    fresh_funs = [f for f in funs if f not in base.left]
    fresh_atoms = [a for a in atoms if a not in base.right]
    fmap = dict(zip(fresh_funs, B.smallest_free(len(fresh_funs), base.left)))
    amap = dict(zip(fresh_atoms, B.smallest_free(len(fresh_atoms), base.right)))
    edges = sorted(
        (fmap.get(f, f), amap.get(a, a), v)
        for (f, a), v in world.edge_items()
        if (f in fmap or a in amap)
        and (f in fmap or f in base.left)
        and (a in amap or a in base.right)
    )
    return D.CanonicalClass(
        base,
        O.relabel(value, fmap, amap),
        tuple(fmap.values()),
        tuple(biases[f] for f in fresh_funs),
        tuple(amap.values()),
        tuple(edges),
    )


def reference_bind(graph, bias, dist, name, body, env, table=None):
    """bind's general construction for every class, identity extensions
    included: the body runs at the class's world built anew, each of its
    classes is re-canonicalized over graph, every weight is multiplied and
    one FinDist merges them all.  ``table`` is bind's and is not used: each
    body runs with a table of its own."""
    weighted = []
    todo = dist.items()[::-1]
    while todo:
        cls, p = todo.pop()
        world = rebuilt_world(cls)
        carried = dict(zip(cls.fresh_funs, cls.fresh_biases))
        try:
            result = D.den_comp(body, world, env.set(name, cls.value), {**bias, **carried})
        except D.EdgeRead as read:
            chance = cls.pending().get(read.pair)
            if chance is None:
                raise
            todo.append((cls.drawn({read.pair: True}), p * chance))
            todo.append((cls.drawn({read.pair: False}), p * (ONE - chance)))
            continue
        for cls2, q in result.items():
            assert cls2.base == world
            biases = {**carried, **dict(zip(cls2.fresh_funs, cls2.fresh_biases))}
            weighted.append((general_canonicalize(graph, rebuilt_world(cls2), cls2.value, biases), p * q))
    return FinDist(weighted)


def test_identity_extension_equals_the_general_construction(monkeypatch):
    # every class bind sequences and _rebase re-expresses, over the sound
    # programs and a slice of criterion 6's corpus; every bind call's result
    # (or exception) is the reference construction's, item for item
    bound, rebased = [], []
    bind, rebase = D.bind, D._rebase
    in_reference = []
    left_unit = []

    def reference(*args):
        in_reference.append(True)
        try:
            return reference_bind(*args)
        finally:
            in_reference.pop()

    def recording_bind(graph, bias, dist, *rest):
        if in_reference:  # the binds inside the reference are not compared
            return bind(graph, bias, dist, *rest)
        bound.extend(dist)
        try:
            result = bind(graph, bias, dist, *rest)
        except (D.EdgeRead, D.FreshnessViolation) as exc:
            with pytest.raises(type(exc)) as expected:
                reference(graph, bias, dist, *rest)
            assert str(expected.value) == str(exc)
            raise
        expected = reference(graph, bias, dist, *rest)
        assert result == expected and result.items() == expected.items()
        left_unit.append(len(dist) == 1 and D.class_world(dist.items()[0][0]) is graph)
        return result

    def recording_rebase(base, cls, biases):
        rebased.append((base, cls, dict(biases)))
        return rebase(base, cls, biases)

    monkeypatch.setattr(D, "bind", recording_bind)
    monkeypatch.setattr(D, "_rebase", recording_rebase)
    programs = [S.parse_program(p.read_text()) for p in sorted((PROGRAMS / "sound").glob("*.mem"))]
    for program in programs + soundness_corpus(20, 20243):
        D.check_soundness(program)
    assert any(left_unit) and not all(left_unit)
    classes = bound + [cls for _, cls, _ in rebased]
    identity = [not (cls.fresh_funs or cls.fresh_atoms or cls.ext_edges) for cls in classes]
    assert any(identity) and not all(identity)
    assert any(cls.fresh_atoms and not cls.fresh_funs for cls in classes)
    for cls, is_identity in zip(classes, identity):
        world = D.class_world(cls)
        assert world == rebuilt_world(cls)
        assert (world is cls.base) == is_identity
        carried = dict(zip(cls.fresh_funs, cls.fresh_biases))
        again = D.canonicalize(cls.base, world, cls.value, carried)
        assert again == general_canonicalize(cls.base, rebuilt_world(cls), cls.value, carried) == cls
        assert (again.value is cls.value) == is_identity  # kept, not relabelled
    for base, cls, biases in rebased:
        biases.update(zip(cls.fresh_funs, cls.fresh_biases))
        expected = general_canonicalize(base, rebuilt_world(cls), cls.value, biases)
        assert rebase(base, cls, biases) == expected


# -- unit, bind, transport ------------------------------------------------------


def test_unit_examples():
    assert bool_dist(D.unit(EMPTY, O.BoolV(True))) == {True: ONE}
    g = one_fun_world(edge_to=True)
    d = D.unit(g, O.AtomV(0))
    ((cls, w),) = d.items()
    assert w == ONE and cls.value == O.AtomV(0) and cls.fresh_atoms == ()


def test_bind_left_unit_via_let():
    lhs = D.den_program(S.parse_program("let val b <- flip(1/3) in return b"))
    rhs = D.den_program(S.parse_program("flip(1/3)"))
    assert dist_eq(lhs, rhs)


def test_bind_right_unit_at_a_bias_state():
    g = one_fun_world()
    for p in (Fraction(0), THIRD, ONE):
        m = D.den_fresh(g, {0: p})
        back = D.bind(g, {0: p}, m, "x", S.Return(S.Var("x")), O.EMPTY_MAP)
        assert dist_eq(m, back)


def test_transport_identity():
    g = one_fun_world(edge_to=True)
    for p in (Fraction(0), HALF, ONE):
        m = D.den_fresh(g, {0: p})
        moved = D.transport(m, B.Embedding.inclusion(g, g), {0: p})
        assert dist_eq(m, moved)


def test_transport_unit_naturality():
    g = EMPTY
    g2, atom = g.add_right_defined({})
    m = D.unit(g, O.BoolV(False))
    moved = D.transport(m, B.Embedding.inclusion(g, g2), {})
    assert dist_eq(moved, D.unit(g2, O.BoolV(False)))


def test_transport_fresh_atom_splits_on_new_function_bias():
    # a result holding a fresh atom, moved into a world with one more
    # function, acquires that function's edge with the function's bias
    m = D.den_fresh(EMPTY, {})
    g2 = one_fun_world()
    got = D.expand(D.transport(m, B.Embedding.inclusion(EMPTY, g2), {0: THIRD}))
    expected = D.expand(D.den_fresh(g2, {0: THIRD}))
    assert dist_eq(got, expected)
    weights = sorted(w for _, w in got.items())
    assert weights == [THIRD, Fraction(2, 3)]


@pytest.mark.parametrize("fresh", [False, True], ids=["unit", "fresh_atom"])
def test_transport_onto_a_target_with_an_unsampled_edge_raises(fresh):
    m = D.den_fresh(EMPTY, {}) if fresh else D.unit(EMPTY, O.BoolV(False))
    partial = B.PartialBigraph([0], [0], {(0, 0): None})
    with pytest.raises(ValueError):
        D.transport(m, B.Embedding.inclusion(EMPTY, partial), {0: HALF})


def test_transport_fresh_fun_fills_new_atom_with_recorded_bias():
    fn = S.parse_program("memfn y. flip(1/3)")
    m = D.den_comp(fn, EMPTY, O.EMPTY_MAP, {})
    g2, atom = EMPTY.add_right_defined({})
    got = D.transport(m, B.Embedding.inclusion(EMPTY, g2), {})
    expected = D.den_comp(fn, g2, O.EMPTY_MAP, {})
    assert dist_eq(got, expected)


@pytest.mark.parametrize(
    "bias",
    [{}, {0: HALF, 1: HALF}, {0: Fraction(3, 2)}, {0: Fraction(-1, 4)}],
    ids=["misses_function", "extra_function", "above_one", "below_zero"],
)
def test_den_comp_rejects_bad_bias_state(bias):
    with pytest.raises(ValueError):
        D.den_comp(S.parse_program("flip(1/2)"), one_fun_world(), O.EMPTY_MAP, bias)


def test_a_checked_bias_state_is_still_compared_with_the_world():
    # a state den_comp has checked once is not coerced again, but its keys
    # are compared with every world it is used at
    checked = D._bias_state(one_fun_world(), {0: 0.5})
    assert checked == {0: HALF} and isinstance(checked[0], Fraction)
    assert D._bias_state(one_fun_world(edge_to=True), checked) is checked
    with pytest.raises(ValueError, match="exactly the functions"):
        D._bias_state(EMPTY, checked)
    with pytest.raises(ValueError, match="exactly the functions"):
        D.den_comp(S.parse_program("flip(1/2)"), B.TotalBigraph([0, 1], [], {}), O.EMPTY_MAP, checked)
    # den_comp's table keeps the state, so nobody may change it
    with pytest.raises(TypeError):
        checked[0] = ONE
    with pytest.raises(TypeError):
        checked.update({0: ONE})
    assert checked == {0: HALF}


def bind_dropping_carried_biases(graph, bias, dist, name, body, env, table=None):
    """``bind`` with one fault: a class's body runs under the bias state it
    was given, without the biases of the fresh functions the class carries."""
    weighted = []
    for cls, p in dist.items():
        result = D.den_comp(body, D.class_world(cls), env.set(name, cls.value), bias, table)
        carried = dict(zip(cls.fresh_funs, cls.fresh_biases))
        weighted += [(D._rebase(graph, cls2, carried), p * q) for cls2, q in result.items()]
    return FinDist(weighted)


def test_a_bind_that_drops_a_carried_bias_is_rejected(monkeypatch):
    # the body runs at a world with f's function, under the program's
    # checked (empty) state; `python -O` runs this test too (test_golden)
    p = S.parse_program("let val f <- memfn x. flip(1/3) in let val a <- fresh() in f @ a")
    assert bool_dist(D.den_program(p)) == {True: THIRD, False: Fraction(2, 3)}
    monkeypatch.setattr(D, "bind", bind_dropping_carried_biases)
    with pytest.raises(ValueError, match="exactly the functions"):
        D.den_program(p)


# -- primitive denotations -----------------------------------------------------


def test_den_flip_examples():
    assert bool_dist(D.den_flip(EMPTY, ONE)) == {True: ONE}
    assert bool_dist(D.den_flip(EMPTY, THIRD)) == {True: THIRD, False: Fraction(2, 3)}
    assert bool_dist(D.den_flip(EMPTY, HALF)) == {True: HALF, False: HALF}


def test_den_app_reads_table():
    g = one_fun_world(edge_to=True)
    assert bool_dist(D.den_app(g, 0, 0)) == {True: ONE}
    g2 = one_fun_world(edge_to=False)
    assert bool_dist(D.den_app(g2, 0, 0)) == {False: ONE}


def test_den_eq_examples():
    g = B.TotalBigraph([], [0, 1], {})
    assert bool_dist(D.den_eq(g, 0, 0)) == {True: ONE}
    assert bool_dist(D.den_eq(g, 0, 1)) == {False: ONE}


def test_two_fresh_atoms_never_equal():
    p = S.parse_program("let val x <- fresh() in let val y <- fresh() in x == y")
    assert bool_dist(D.den_program(p)) == {False: ONE}


def test_den_fresh_lone_atom():
    d = D.den_fresh(EMPTY, {})
    ((cls, w),) = d.items()
    assert w == ONE and cls.fresh_atoms == (0,) and cls.ext_edges == ()


def test_den_fresh_one_function_product_weights():
    d = D.expand(D.den_fresh(one_fun_world(), {0: THIRD}))
    by_edge = {cls.ext_edges[0][2]: w for cls, w in d.items()}
    assert by_edge == {True: THIRD, False: Fraction(2, 3)}


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8))
def test_den_fresh_mass_one_any_bias(num, num2):
    g = B.TotalBigraph([0, 1], [], {})
    bias = {0: Fraction(num, 8), 1: Fraction(num2, 8)}
    dist = D.den_fresh(g, bias)
    assert sum((w for _, w in dist.items()), Fraction(0)) == 1


def test_prob_true_examples():
    assert D.prob_true(D.den_flip(EMPTY, THIRD)) == THIRD
    assert D.prob_true(D.unit(EMPTY, O.BoolV(True))) == ONE
    p = S.parse_program("let val x <- fresh() in return true")
    g = one_fun_world()
    assert D.prob_true(D.den_comp(p, g, O.EMPTY_MAP, {0: HALF})) == ONE


def test_prob_true_rejects_noncollapsed():
    with pytest.raises(D.NonCollapsedClass):
        D.prob_true(D.den_fresh(EMPTY, {}))


# -- memoized functions ----------------------------------------------------------


def test_den_mem_constant_coin_one_atom():
    g = B.TotalBigraph([], [0], {})
    d = D.expand(D.den_mem(g, O.EMPTY_MAP, "y", S.Flip(THIRD), {}))
    rows = {cls.ext_edges[0][2]: (w, cls.fresh_biases[0]) for cls, w in d.items()}
    assert rows == {True: (THIRD, THIRD), False: (Fraction(2, 3), THIRD)}


def test_den_mem_recognizer_body():
    # body answers a coin at the captured atom and false elsewhere
    body = S.parse_program(
        "let val b <- x == x0 in if b then flip(1/2) else return false"
    )
    g = B.TotalBigraph([], [0], {})
    env = O.FrozenMap({"x0": O.AtomV(0)})
    d = D.expand(D.den_mem(g, env, "x", body, {}))
    rows = {cls.ext_edges[0][2]: (w, cls.fresh_biases[0]) for cls, w in d.items()}
    assert rows == {
        True: (HALF, Fraction(0)),
        False: (HALF, Fraction(0)),
    }


def test_den_mem_rejects_binder_application_with_witnesses():
    g = one_fun_world()
    env = O.FrozenMap({"f": O.FunV(0)})
    with pytest.raises(D.FreshnessViolation) as exc:
        D.den_mem(g, env, "y", S.App(S.Var("f"), S.Var("y")), {0: HALF})
    wa, wb = exc.value.witness_a, exc.value.witness_b
    assert {wa[1], wb[1]} == {Fraction(0), ONE}
    assert wa[0] != wb[0]


def test_den_comp_p1_reproduction():
    p = load("sound/p1_third.mem")
    assert bool_dist(D.den_program(p)) == {True: THIRD, False: Fraction(2, 3)}


def test_den_comp_memo_pair_diagonal():
    d = D.den_program(load("sound/memo_pair.mem"))
    values = {cls.value: w for cls, w in d.items()}
    assert values == {
        O.PairV(O.BoolV(True), O.BoolV(True)): HALF,
        O.PairV(O.BoolV(False), O.BoolV(False)): HALF,
    }


def test_mem_phi_on_existing_function():
    g = one_fun_world(edge_to=True)
    m = D.unit(g, O.FunV(0))
    assert D.mem_phi(g, m, 0) == ONE
    assert D.mem_phi(g, m, {0: False}) == Fraction(0)


def test_mem_phi_on_sampled_function():
    g = B.TotalBigraph([], [0], {})
    m = D.den_comp(S.parse_program("memfn y. flip(1/3)"), g, O.EMPTY_MAP, {})
    assert D.mem_phi(g, m, 0) == THIRD  # mix 1/3 * 1 + 2/3 * 0
    assert D.mem_phi(g, m, {}) == THIRD  # recorded bias on a new atom


# -- pending edges ----------------------------------------------------------------


def scaling_family(n: int) -> S.Comp:
    """n fresh atoms, then two memfns of which only the first is applied."""
    atoms = "".join(f"let val a{i} <- fresh() in " for i in range(n))
    return S.parse_program(
        atoms + "let val f <- memfn x. flip(1/2) in "
        "let val g <- memfn x. flip(1/2) in f @ a0"
    )


def test_scaling_family_at_ten_atoms_is_a_fair_coin():
    assert bool_dist(D.den_program(scaling_family(10))) == {True: HALF, False: HALF}


def chained_family(n: int) -> S.Comp:
    """n memfns, then one fresh atom to which only the first is applied."""
    funs = "".join(f"let val f{i} <- memfn x. flip(1/2) in " for i in range(n))
    return S.parse_program(funs + "let val a <- fresh() in f0 @ a")


def test_scaling_family_builds_linearly_many_rows_and_wirings(monkeypatch):
    counts = {"rows": 0, "wirings": 0}
    add_left = B.TotalBigraph.add_left_defined
    add_right = B.TotalBigraph.add_right_defined

    def counted_left(graph, row):
        counts["rows"] += 1
        return add_left(graph, row)

    def counted_right(graph, column):
        counts["wirings"] += 1
        return add_right(graph, column)

    monkeypatch.setattr(B.TotalBigraph, "add_left_defined", counted_left)
    monkeypatch.setattr(B.TotalBigraph, "add_right_defined", counted_right)
    # check_soundness on the chained family builds n + 1 wirings in
    # den_program and n for each of its two terminal configurations
    for family, n, run, wirings_per_n in (
        (scaling_family, 12, D.den_program, 2),
        (chained_family, 10, D.check_soundness, 4),
    ):
        counts.update(rows=0, wirings=0)
        run(family(n))
        assert 0 < counts["rows"] <= n and 0 < counts["wirings"] <= wirings_per_n * n


def test_memfn_body_reading_a_pending_edge_stays_correlated():
    # g's row at a is f's edge to a, which is still pending when g is built
    prefix = (
        "let val a <- fresh() in let val f <- memfn x. flip(1/3) in "
        "let val g <- memfn y. f @ a in "
    )
    p = S.parse_program(prefix + "let val u <- g @ a in let val v <- f @ a in return (u, v)")
    values = {cls.value: w for cls, w in D.den_program(p).items()}
    assert values == {
        O.PairV(O.BoolV(True), O.BoolV(True)): THIRD,
        O.PairV(O.BoolV(False), O.BoolV(False)): Fraction(2, 3),
    }
    assert D.check_soundness(p).equal
    # with nothing else reading f @ a, building g alone must draw the edge
    alone = S.parse_program(prefix + "g @ a")
    assert bool_dist(D.den_program(alone)) == {True: THIRD, False: Fraction(2, 3)}


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=3), st.integers(0, 2))
def test_expand_den_fresh_is_the_bernoulli_product(chances, n_atoms):
    funs = range(len(chances))
    atoms = range(n_atoms)
    graph = B.TotalBigraph(funs, atoms, {(f, a): (f + a) % 2 == 0 for f in funs for a in atoms})
    bias = {f: Fraction(c, 4) for f, c in zip(funs, chances)}
    expected = []
    for bits in itertools.product((False, True), repeat=len(chances)):
        weight = ONE
        for f, bit in zip(funs, bits):
            weight *= bias[f] if bit else ONE - bias[f]
        world, atom = graph.add_right_defined(dict(zip(funs, bits)))
        expected.append((D.canonicalize(graph, world, O.AtomV(atom), {}), weight))
    got = D.expand(D.den_fresh(graph, bias))
    assert dist_eq(got, FinDist(expected))
    assert D.expand(got) is got


def test_expand_checks_the_undefined_budget(monkeypatch):
    g = B.TotalBigraph([], [0, 1, 2], {})
    d = D.den_mem(g, O.EMPTY_MAP, "y", S.Flip(THIRD), {})
    monkeypatch.setenv("MEMLANG_MAX_UNDEF", "2")
    with pytest.raises(B.TooManyUndefined):
        D.expand(d)
    monkeypatch.setenv("MEMLANG_MAX_UNDEF", "3")
    assert len(D.expand(d)) == 8


def test_corpus_reads_pending_edges_and_none_escapes(monkeypatch):
    """den_program on criterion 6's corpus reads pending edges, and the bind
    owning each one catches it; an escaping read would fail this test.
    (check_soundness on the same corpus is criterion 6 itself.)"""
    reads = []
    den_app = D.den_app

    def recorded(graph, fun, atom):
        try:
            return den_app(graph, fun, atom)
        except D.EdgeRead as read:
            reads.append(read.pair)
            raise

    monkeypatch.setattr(D, "den_app", recorded)
    for program in soundness_corpus(200, 20243):
        D.den_program(program)
    assert reads


# -- configuration denotation ---------------------------------------------------


def test_den_config_initial_equals_compositional():
    p = load("sound/p1_third.mem")
    assert dist_eq(D.den_config(O.initial_configuration(p)), D.den_program(p))


def test_den_config_chain_rule_on_unsampled_edge():
    p = load("sound/undef_edge_terminal.mem")
    ((cfg, w),) = O.enumerate_bigstep(p).items()
    assert w == ONE and cfg.graph.undefined_pairs() == {(0, 0)}
    got = D.den_config(cfg)
    value = O.PairV(O.FunV(0), O.AtomV(0))
    expected = FinDist(
        {
            D.CanonicalClass(EMPTY, value, (0,), (Fraction(0),), (0,), ((0, 0, True),)): HALF,
            D.CanonicalClass(EMPTY, value, (0,), (Fraction(0),), (0,), ((0, 0, False),)): HALF,
        }
    )
    assert dist_eq(got, expected)
    assert dist_eq(got, D.den_program(p))
    # the single-bias weighting puts everything on the bias-0 completion
    alt = D.check_soundness(p).bias_formula_rhs
    assert not dist_eq(alt, got)
    ((alt_cls, alt_w),) = alt.items()
    assert alt_w == ONE and alt_cls.ext_edges == ((0, 0, False),)


def test_per_step_denotation_preserved_on_marker_free_steps():
    p = S.parse_program(
        "let val b <- flip(1/4) in let val x <- fresh() in return (b, x)"
    )
    cfg = O.initial_configuration(p)
    while not O.is_terminal(cfg):
        succ = O.step(cfg)
        if any(O.memo_stack(c.term) for c in succ.support()):
            break
        from memlang.dist import weighted_mix

        mixed = weighted_mix([(w, D.den_config(c)) for c, w in succ.items()])
        assert dist_eq(D.den_config(cfg), mixed)
        cfg = next(iter(succ.support()))


def eager_fresh_bias(graph, env, binder, body, bias):
    """Every wiring of a new atom in binary-counting order over the sorted
    functions: the first wiring and the first that differs from it, or the
    common probability."""
    funs = sorted(graph.left)
    first = None
    for bits in itertools.product((False, True), repeat=len(funs)):
        conn = tuple(zip(funs, bits))
        world, atom = graph.add_right_defined(dict(conn))
        q = D.prob_true(D.den_comp(body, world, env.set(binder, O.AtomV(atom)), bias))
        if first is None:
            first = (conn, q)
        elif q != first[1]:
            return first, (conn, q)
    return first[1]


def eager_closure_biases(config, total):
    biases = {}
    for fun in sorted(total.left):
        closure = config.closures[fun]
        lam = {f: biases.get(f, HALF) for f in total.left}
        biases[fun] = eager_fresh_bias(total, closure.captured, closure.binder, closure.body, lam)
    return biases


def eager_den_config(config):
    """Both weightings of a configuration, summed over every completion of
    its unsampled edges in binary-counting order over the sorted pairs."""
    undef = sorted(config.graph.undefined_pairs())
    chain, single = [], []
    for bits in itertools.product((False, True), repeat=len(undef)):
        assign = dict(zip(undef, bits))
        edges = {pair: assign.get(pair, v) for pair, v in config.graph.edge_items()}
        total = B.TotalBigraph(config.graph.left, config.graph.right, edges)
        biases = eager_closure_biases(config, total)
        chain_w = single_w = ONE
        for (fun, atom), bit in assign.items():
            closure = config.closures[fun]
            env = closure.captured.set(closure.binder, O.AtomV(atom))
            p = D.prob_true(D.den_comp(closure.body, total, env, biases))
            q = biases[fun]
            chain_w *= p if bit else ONE - p
            single_w *= q if bit else ONE - q
        if chain_w == ZERO and single_w == ZERO:
            continue
        result = D.den_comp(config.term, total, config.env, biases)
        rebased = [(D._rebase(EMPTY, cls, biases), q) for cls, q in result.items()]
        dist = D.expand(FinDist(rebased))
        chain.append((chain_w, dist))
        single.append((single_w, dist))
    return weighted_mix(chain), weighted_mix(single)


def test_lazy_completions_equal_the_eager_sum():
    """check_soundness's rhs and bias_formula_rhs, drawn by splitting on the
    edges read, equal the sum over every completion.  The corpus slice is
    criterion 6's programs whose terminals keep at most 3 unsampled edges
    (44 of the 51 with any), which keeps the eager sum near one second."""
    cases = [(p, O.enumerate_bigstep(p)) for p in (load("sound/undef_edge_terminal.mem"), scaling_family(3))]
    for program in soundness_corpus(200, 20243):
        terminals = O.enumerate_bigstep(program)
        if 0 < max(len(cfg.graph.undefined_pairs()) for cfg in terminals.support()) <= 3:
            cases.append((program, terminals))
    assert len(cases) == 46
    for program, terminals in cases:
        halves = [(w, eager_den_config(cfg)) for cfg, w in terminals.items()]
        report = D.check_soundness(program)
        assert report.rhs == weighted_mix([(w, chain) for w, (chain, _) in halves])
        assert report.bias_formula_rhs == weighted_mix([(w, single) for w, (_, single) in halves])


def test_lazy_wirings_report_the_eager_witnesses():
    # the body reads f1 before f0, so its split order is not the sorted order
    # of the functions; the first differing wiring is {0: False, 1: True}
    g = B.TotalBigraph([0, 1], [], {})
    env = O.FrozenMap({"f0": O.FunV(0), "f1": O.FunV(1)})
    body = S.parse_program("let val b1 <- f1 @ x in if b1 then return true else f0 @ x")
    bias = {0: HALF, 1: THIRD}
    with pytest.raises(D.FreshnessViolation) as exc:
        D.den_mem(g, env, "x", body, bias)
    expected = eager_fresh_bias(g, env, "x", body, bias)
    assert (exc.value.witness_a, exc.value.witness_b) == expected
    assert expected[1] == (((0, False), (1, True)), ONE)


# -- the checkers ----------------------------------------------------------------


def test_check_soundness_examples():
    for name in ("sound/p1_third.mem", "sound/memo_pair.mem", "sound/pair_mixed.mem"):
        report = D.check_soundness(load(name))
        assert report.equal, name


def counted_flips(monkeypatch) -> list:
    """The biases of the flips den_comp evaluates from now on."""
    thetas = []
    den_flip = D.den_flip

    def counted(graph, theta):
        thetas.append(theta)
        return den_flip(graph, theta)

    monkeypatch.setattr(D, "den_flip", counted)
    return thetas


def test_check_soundness_denotes_a_shared_memo_table_once(monkeypatch):
    # four terminals, one per pair of trailing flips, share the memo-table
    # and the closure of f; they differ only in their environments.  f's
    # body runs twice for den_program (its row and its bias on a new atom)
    # and twice for all four terminals together (the chain-rule probability
    # at a and the closure bias)
    p = S.parse_program(
        "let val a <- fresh() in let val f <- memfn x. flip(1/3) in "
        "let val b1 <- flip(1/2) in let val b2 <- flip(1/2) in return (f, b1)"
    )
    terminals = O.enumerate_bigstep(p)
    assert len(terminals) == 4 and len({(c.graph, c.closures) for c in terminals.support()}) == 1
    thetas = counted_flips(monkeypatch)
    assert D.check_soundness(p).equal
    assert thetas.count(THIRD) == 4


def family(n: int) -> S.Comp:
    # n fresh atoms, then two memoized coins, one of them applied
    atoms = "".join(f"let val a{i} <- fresh() in " for i in range(n))
    return S.parse_program(
        atoms + "let val f <- memfn x. flip(1/2) in let val g <- memfn x. flip(1/2) in f @ a0"
    )


@pytest.mark.parametrize("n", [1, 3, 5])
def test_den_program_runs_a_body_once_per_world(monkeypatch, n):
    # a body that ignores its binder runs once for a whole row, whatever n
    # is, and once more on a new atom.  f's body runs twice; g's runs twice
    # in each of three runs of its let: the first reads f's pending edge at
    # a0, and the bind that owns it runs the body again on each outcome
    thetas = counted_flips(monkeypatch)
    assert bool_dist(D.den_program(family(n))) == {True: HALF, False: HALF}
    assert len(thetas) == 8


def test_den_program_keeps_no_table_between_calls(monkeypatch):
    p = load("sound/p1_third.mem")
    before = D.den_program(p)
    den_flip = D.den_flip
    monkeypatch.setattr(D, "den_flip", lambda graph, theta: den_flip(graph, ONE - as_prob(theta)))
    assert not dist_eq(D.den_program(p), before)


def test_check_soundness_splits_each_terminal_on_its_own_reads(monkeypatch):
    # four terminals share the memo-table and closures; each reads f at the
    # two atoms its flips chose, two of the four unsampled edges, so it has
    # 2^2 leaves (a split over the union of their reads would have 2^4 each)
    p = S.parse_program(
        "let val a0 <- fresh() in let val a1 <- fresh() in "
        "let val a2 <- fresh() in let val a3 <- fresh() in "
        "let val f <- memfn x. flip(1/2) in "
        "let val b0 <- flip(1/2) in let val c0 <- if b0 then return a0 else return a1 in "
        "let val b1 <- flip(1/2) in let val c1 <- if b1 then return a2 else return a3 in "
        "memfn y. let val d <- f @ c0 in f @ c1"
    )
    terminals = O.enumerate_bigstep(p)
    assert len(terminals) == 4 and len({(c.graph, c.closures) for c in terminals.support()}) == 1
    calls = []
    observed = D._observed

    def counted(*args):
        calls.append(args)
        return observed(*args)

    monkeypatch.setattr(D, "_observed", counted)
    assert D.check_soundness(p).equal
    assert len(calls) == 4 * 2**2


def soundness_sums_per_terminal(program):
    """check_soundness's rhs and bias_formula_rhs, with every terminal
    denoted on its own."""
    chain, single = [], []
    for cfg, w in O.enumerate_bigstep(program).items():
        chain_leaves, single_leaves = D._den_config(cfg, {})
        chain.append((w, mixed(chain_leaves)))
        single.append((w, mixed(single_leaves)))
    return FinDist(mixed(chain)), FinDist(mixed(single))


def counted_configs(monkeypatch) -> list:
    """The configurations _den_config denotes from now on."""
    configs = []
    den_config = D._den_config

    def counted(config, table):
        configs.append(config)
        return den_config(config, table)

    monkeypatch.setattr(D, "_den_config", counted)
    return configs


@pytest.mark.parametrize(
    "source, denoted",
    [
        # two terminals that differ only in b, which `return x` does not read
        ("let val b <- flip(1/3) in let val x <- fresh() in return x", 1),
        # two terminals whose closures capture different values of b
        ("let val b <- flip(1/3) in let val f <- memfn x. return b in return f", 2),
    ],
    ids=["env_outside_the_term", "captured_value"],
)
def test_check_soundness_denotes_terminals_once_per_what_they_read(monkeypatch, source, denoted):
    p = S.parse_program(source)
    assert len(O.enumerate_bigstep(p)) == 2
    rhs, bias_rhs = soundness_sums_per_terminal(p)
    configs = counted_configs(monkeypatch)
    report = D.check_soundness(p)
    assert len(configs) == denoted
    assert report.equal
    # the same sums, in the same order
    assert report.rhs == rhs and repr(report.rhs) == repr(rhs)
    assert report.bias_formula_rhs == bias_rhs and repr(report.bias_formula_rhs) == repr(bias_rhs)


def test_check_soundness_logs_bias_formula_divergence():
    report = D.check_soundness(load("sound/undef_edge_terminal.mem"))
    assert report.equal
    assert not report.bias_formula_agrees


def test_check_dataflow_examples():
    assert D.check_dataflow(
        S.Flip(THIRD), S.Fresh(), S.Return(S.Var("x1")), "x1", "x2"
    )
    assert D.check_dataflow(
        S.Fresh(), S.Return(S.BoolLit(True)), S.Return(S.BoolLit(True)), "x1", "x2"
    )
    assert D.check_dataflow(
        S.Fresh(), S.Fresh(), S.Eq(S.Var("x1"), S.Var("x2")), "x1", "x2"
    )


def test_check_dataflow_rejects_bad_preconditions():
    with pytest.raises(ValueError):
        D.check_dataflow(S.Return(S.Var("x2")), S.Fresh(), S.Return(S.BoolLit(True)), "x1", "x2")


# -- structural invariants --------------------------------------------------------


def _assert_class_shape(cls: D.CanonicalClass, ty: TC.Ty) -> None:
    """Results are an existing node, or one fresh node with full wiring."""
    base = cls.base
    if ty == TC.BOOL:
        assert isinstance(cls.value, O.BoolV)
        assert not cls.fresh_funs and not cls.fresh_atoms
    elif ty == TC.ATOM:
        assert isinstance(cls.value, O.AtomV)
        if cls.value.label in base.right:
            assert not cls.fresh_atoms
        else:
            assert cls.fresh_atoms == (cls.value.label,)
            assert {(f, a) for f, a, _ in cls.ext_edges} >= {
                (f, cls.value.label) for f in base.left
            }
    elif ty == TC.FUN:
        assert isinstance(cls.value, O.FunV)
        if cls.value.label in base.left:
            assert not cls.fresh_funs
        else:
            assert cls.fresh_funs == (cls.value.label,)
            assert len(cls.fresh_biases) == 1
            assert {(f, a) for f, a, _ in cls.ext_edges} >= {
                (cls.value.label, a) for a in base.right
            }


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_result_class_shapes(seed):
    rng = random.Random(seed)
    graph, types, env = _random_world(rng)
    comp = ProgramGen(rng, 2, 1, 1, 4).program_over(types)
    ty = TC.type_of_comp(TC.TyCtx(types.items()), comp)
    if not isinstance(ty, (TC.BoolT, TC.AtomT, TC.FunT)):
        return
    bias = {f: Fraction(rng.randint(0, 4), 4) for f in graph.left}
    for cls, _ in D.den_comp(comp, graph, env, bias).items():
        _assert_class_shape(cls, ty)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_boolean_results_always_collapse(seed):
    rng = random.Random(seed)
    graph, types, env = _random_world(rng)
    comp = ProgramGen(rng, 2, 1, 1, 4).program_over(types)
    ty = TC.type_of_comp(TC.TyCtx(types.items()), comp)
    if ty != TC.BOOL:
        return
    bias = {f: Fraction(rng.randint(0, 4), 4) for f in graph.left}
    for cls, _ in D.den_comp(comp, graph, env, bias).items():
        assert not cls.fresh_funs and not cls.fresh_atoms


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_naturality_of_den_comp_under_one_sided_extension(seed):
    rng = random.Random(seed)
    graph, types, env = _random_world(rng)
    comp = ProgramGen(rng, 2, 1, 1, 4).program_over(types)
    if rng.random() < 0.5:
        bigger, _ = graph.add_left_defined({a: rng.random() < 0.5 for a in graph.right})
    else:
        bigger, _ = graph.add_right_defined({f: rng.random() < 0.5 for f in graph.left})
    inclusion = B.Embedding.inclusion(graph, bigger)
    for _ in range(3):
        bias = {f: Fraction(rng.randint(0, 4), 4) for f in bigger.left}
        pulled = {f: bias[f] for f in graph.left}
        moved = D.transport(D.den_comp(comp, graph, env, pulled), inclusion, bias)
        assert dist_eq(moved, D.den_comp(comp, bigger, env, bias))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_memo_law_holds_compositionally(seed):
    rng = random.Random(seed)
    setup, fn = _mem_instance(rng)
    for lhs, rhs in mem_law_programs(setup, fn).values():
        assert dist_eq(D.den_program(lhs), D.den_program(rhs))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_syntactic_check_implies_semantic_acceptance(seed):
    rng = random.Random(seed)
    graph, types, env = _random_world(rng)
    fn = ProgramGen(rng, 2, 1, 1, 4).gen_memfn(types)
    assert S.syntactic_freshness_check(fn)
    bias = {f: Fraction(rng.randint(0, 4), 4) for f in graph.left}
    D.den_mem(graph, env, fn.binder, fn.body, bias)  # must not raise
