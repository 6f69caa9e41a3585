import copy
import itertools
import operator
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlang import bigraph as B
from memlang import opsem as O
from memlang import syntax as S
from memlang import typecheck as TC
from memlang.dist import ONE, FinDist, MassError, dist_eq
from memlang.progen import ProgramGen, mem_law_programs, soundness_corpus, _mem_instance

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def load(name: str) -> S.Comp:
    return S.parse_program((PROGRAMS / name).read_text())


# -- value labels -------------------------------------------------------------


def test_value_labels_first_occurrence_order():
    value = O.PairV(O.PairV(O.AtomV(3), O.FunV(5)), O.PairV(O.AtomV(1), O.AtomV(3)))
    assert O.value_labels(value) == ([5], [3, 1])
    assert O.value_labels(O.BoolV(True)) == ([], [])


def test_value_labels_extends_given_lists():
    funs, atoms = [7], [1]
    out = O.value_labels(O.PairV(O.FunV(2), O.PairV(O.AtomV(1), O.AtomV(0))), funs, atoms)
    assert out[0] is funs and out[1] is atoms
    assert (funs, atoms) == ([7, 2], [1, 0])


def test_relabel_keeps_unmapped_labels():
    value = O.PairV(O.FunV(0), O.PairV(O.AtomV(1), O.AtomV(2)))
    expected = O.PairV(O.FunV(9), O.PairV(O.AtomV(1), O.AtomV(4)))
    assert O.relabel(value, {0: 9}, {2: 4}) == expected
    assert O.relabel(O.BoolV(False), {}, {}) == O.BoolV(False)


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(st.text("abc", max_size=3), st.integers(0, 3), max_size=6),
    st.lists(st.tuples(st.text("abc", max_size=3), st.integers(0, 3)), max_size=6),
)
def test_frozen_map_set_equals_building_the_map_afresh(start, updates):
    m, d = O.FrozenMap(start), dict(start)
    for key, value in updates:
        m = m.set(key, value)
        d[key] = value
        fresh = O.FrozenMap(d)
        assert m.items() == fresh.items() and m.keys() == fresh.keys()
        assert m == fresh and hash(m) == hash(fresh)
        assert m[key] == value and len(m) == len(d)


@pytest.mark.parametrize("mutate", [
    lambda m: operator.setitem(m, "c", O.BoolV(True)),
    lambda m: operator.delitem(m, "a"),
    lambda m: operator.ior(m, {"c": O.BoolV(True)}),
    lambda m: m.clear(),
    lambda m: m.pop("a"),
    lambda m: m.popitem(),
    lambda m: m.setdefault("c", O.BoolV(True)),
    lambda m: m.update({"a": O.AtomV(1)}),
], ids=["setitem", "delitem", "ior", "clear", "pop", "popitem", "setdefault", "update"])
def test_frozen_map_mutators_raise_and_change_nothing(mutate):
    m = O.FrozenMap({"a": O.AtomV(0), "b": O.FunV(1)})
    h, labels = hash(m), m.labels()
    with pytest.raises(TypeError):
        mutate(m)
    assert m == {"a": O.AtomV(0), "b": O.FunV(1)} and list(m) == ["a", "b"]
    assert hash(m) == h and m.labels() == labels


def test_frozen_maps_built_in_different_orders_are_one_key():
    items = [("b", O.AtomV(0)), ("a", O.FunV(1)), ("c", O.BoolV(False))]
    m1 = O.FrozenMap(items)
    m2 = O.EMPTY_MAP.set("c", O.BoolV(False)).set("a", O.FunV(1)).set("b", O.AtomV(0))
    assert list(m1) != list(m2)
    assert m1 == m2 and hash(m1) == hash(m2) and len({m1: 1, m2: 2}) == 1
    assert repr(m1) == repr(m2) == (
        "FrozenMap({'a': FunV(label=1), 'b': AtomV(label=0), 'c': BoolV(value=False)})"
    )


def test_a_frozen_map_equals_a_plain_dict_with_its_items():
    m = O.FrozenMap({"x": O.AtomV(0)}).set("f", O.FunV(2))
    assert m == {"f": O.FunV(2), "x": O.AtomV(0)} and {"x": O.AtomV(0), "f": O.FunV(2)} == m
    assert m != {"x": O.AtomV(0)} and m != {"x": O.AtomV(0), "f": O.FunV(3)}
    assert dict(m) == {**m} == m


@pytest.mark.parametrize("rebuild", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
def test_a_copied_or_pickled_configuration_is_equal(rebuild):
    ((config, _),) = O.enumerate_bigstep(S.parse_program(
        "let val a <- fresh() in let val f <- memfn x. x == a in return (f, a)")).items()
    again = rebuild(config)
    assert again == config and hash(again) == hash(config)
    assert again.env.labels() == config.env.labels() and type(again.closures) is O.FrozenMap


def _walked_labels(m: O.FrozenMap) -> tuple[frozenset, frozenset]:
    funs, atoms = [], []
    for _, value in m.items():
        O.value_labels(value, funs, atoms)
    return frozenset(funs), frozenset(atoms)


_LEAVES = st.one_of(
    st.builds(O.BoolV, st.booleans()),
    st.builds(O.FunV, st.integers(0, 3)),
    st.builds(O.AtomV, st.integers(0, 3)),
)
RUNTIME_VALUES = st.recursive(_LEAVES, lambda inner: st.builds(O.PairV, inner, inner), max_leaves=4)


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(st.sampled_from("abcd"), RUNTIME_VALUES, max_size=3),
    st.lists(st.tuples(st.sampled_from("abcd"), RUNTIME_VALUES), max_size=8),
)
def test_kept_labels_equal_a_walk_of_the_values(start, updates):
    # new keys and overwritten ones, with values that mention labels and
    # values that do not
    m = O.FrozenMap(start)
    assert m.labels() == _walked_labels(m)
    for key, value in updates:
        m = m.set(key, value)
        assert m.labels() == _walked_labels(m)


@pytest.mark.parametrize("path", sorted((PROGRAMS / "sound").glob("*.mem")), ids=lambda p: p.stem)
def test_every_reached_environment_keeps_the_labels_of_its_values(path):
    # the running environment and every marker's restore environment, on
    # each configuration the enumerator reaches
    pending = [O.initial_configuration(load(f"sound/{path.name}"))]
    while pending:
        config = pending.pop()
        envs = [config.env, *(m.restore_env for m in O._markers(O.decompose(config.term)))]
        for env in envs:
            assert env.labels() == _walked_labels(env)
        if not O.is_terminal(config):
            pending += [succ for succ, _ in O.step(config).items()]


def _one_atom_config(env: O.FrozenMap) -> O.Configuration:
    graph, _ = B.empty().add_right_undef()  # atom 0, no function
    return O.Configuration(env, S.parse_program("flip(1/2)"), graph, O.EMPTY_MAP)


INSIDE = O.EMPTY_MAP.set("x", O.AtomV(0))


@pytest.mark.parametrize(
    "env",
    [
        INSIDE.set("y", O.AtomV(5)),  # a new key
        INSIDE.set("x", O.AtomV(5)),  # an overwritten key
        INSIDE.set("p", O.PairV(O.BoolV(True), O.FunV(0))),  # a label inside a pair
        O.FrozenMap({"x": O.AtomV(0), "f": O.FunV(2)}),  # built at once
    ],
    ids=["new-key", "overwritten-key", "pair", "constructor"],
)
def test_step_rejects_an_environment_naming_a_label_outside_the_graph(env):
    with pytest.raises(O.MalformedConfiguration, match="environment mentions labels outside the graph"):
        O.step(_one_atom_config(env))
    # an overwrite drops the old value's label, and a new key or a pair
    # naming a label inside the graph steps
    inside = O.FrozenMap({"x": O.AtomV(5)}).set("x", O.AtomV(0)).set("p", O.PairV(O.AtomV(0), O.BoolV(False)))
    assert O.step(_one_atom_config(inside))


@pytest.mark.parametrize("restored_atom, ok", [(0, True), (5, False)])
def test_step_rejects_a_restored_environment_naming_a_label_outside_the_graph(restored_atom, ok):
    graph, atom = B.empty().add_right_undef()
    graph, fun = graph.add_left_undef()
    closures = O.FrozenMap({fun: O.Closure("y", S.Flip(HALF), O.EMPTY_MAP)})
    restore = O.EMPTY_MAP.set("z", O.AtomV(restored_atom))
    marker = S.MemoCtx(S.Return(S.BoolLit(True)), fun, atom, restore)
    term = S.Let("b", marker, S.Return(S.Var("b")))
    cfg = O.Configuration(O.EMPTY_MAP.set("y", O.AtomV(atom)), term, graph, closures)
    ((restored, _),) = O.step(cfg).items()
    assert restored.env is restore
    if ok:
        assert O.step(restored)
    else:
        with pytest.raises(O.MalformedConfiguration, match="environment mentions labels outside the graph"):
            O.step(restored)


# -- eval_value ---------------------------------------------------------------


def test_eval_value_examples():
    assert O.eval_value(O.EMPTY_MAP, S.BoolLit(True)) == O.BoolV(True)
    env = O.FrozenMap({"x": O.AtomV(0)})
    assert O.eval_value(env, S.PairVal(S.Var("x"), S.BoolLit(True))) == O.PairV(
        O.AtomV(0), O.BoolV(True)
    )
    with pytest.raises(TC.UnboundVariable):
        O.eval_value(O.EMPTY_MAP, S.Var("missing"))


def test_eval_value_nested_context():
    # x: bool, y: fun, z: ((fun x bool) x atom)
    env = O.FrozenMap(
        {
            "x": O.BoolV(True),
            "y": O.FunV(0),
            "z": O.PairV(O.PairV(O.FunV(1), O.BoolV(True)), O.AtomV(0)),
        }
    )
    assert O.eval_value(env, S.Var("z")) == O.PairV(
        O.PairV(O.FunV(1), O.BoolV(True)), O.AtomV(0)
    )


# -- decompose ----------------------------------------------------------------


def test_decompose_examples():
    p = S.parse_program("let val x <- flip(1/2) in return x")
    frames, redex = O.decompose(p)
    assert redex == S.Flip(HALF)
    assert frames == (p,)
    assert O.decompose(S.parse_program("return true")) is None
    marker = S.MemoCtx(S.Return(S.BoolLit(True)), 0, 0, O.EMPTY_MAP)
    frames2, redex2 = O.decompose(marker)
    assert frames2 == () and redex2 is marker


def test_decompose_terminal_forms():
    assert O.decompose(S.parse_program("fresh()")) is None
    assert O.decompose(S.parse_program("memfn x. flip(1/2)")) is None
    frames, redex = O.decompose(S.parse_program("let val x <- fresh() in return x"))
    assert isinstance(redex, S.Let) and frames == ()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_decompose_recompose_roundtrip(seed):
    program = ProgramGen(random.Random(seed)).program()
    dec = O.decompose(program)
    if dec is not None:
        frames, redex = dec
        assert O.recompose(frames, redex) == program


# -- step -----------------------------------------------------------------


def test_step_flip_is_two_point():
    cfg = O.initial_configuration(S.parse_program("flip(1/2)"))
    out = O.step(cfg)
    assert len(out) == 2
    terms = {S.pretty(c.term): w for c, w in out.items()}
    assert terms == {"return true": HALF, "return false": HALF}


def test_step_flip_degenerate():
    cfg = O.initial_configuration(S.parse_program("flip(1)"))
    out = O.step(cfg)
    assert len(out) == 1
    ((succ, w),) = out.items()
    assert w == ONE and S.pretty(succ.term) == "return true"


@pytest.mark.parametrize("program", ["flip(1/3)", "let val b <- flip(3/4) in return (b, b)", "flip(0)", "flip(1)"])
def test_a_flip_step_is_the_general_coin_and_hashes_no_successor(program):
    cfg = O.initial_configuration(S.parse_program(program))
    out = O.step(cfg)
    assert not any(hasattr(succ, "_hash") for succ, _ in out.items())
    # the same successors, weighted by the flip's bias and merged by FinDist
    spine, flip = O.decompose(cfg.term)
    theta = Fraction(flip.bias)
    succ = {
        flag: O.Configuration(cfg.env, O.recompose(spine, S.Return(S.BoolLit(flag))), cfg.graph, cfg.closures)
        for flag in (True, False)
    }
    general = FinDist([(succ[True], theta), (succ[False], ONE - theta)])
    assert out.items() == general.items() and out == general and repr(out) == repr(general)


@pytest.mark.parametrize("bias", [Fraction(3, 2), Fraction(-1, 2)])
def test_a_flip_step_rejects_a_bias_outside_the_unit_interval(bias):
    # the error FinDist raises on the two weighted successors
    cfg = O.initial_configuration(S.Flip(bias))
    true_succ = O.Configuration(O.EMPTY_MAP, S.Return(S.BoolLit(True)), cfg.graph, O.EMPTY_MAP)
    false_succ = O.Configuration(O.EMPTY_MAP, S.Return(S.BoolLit(False)), cfg.graph, O.EMPTY_MAP)
    with pytest.raises(MassError) as expected:
        FinDist([(true_succ, bias), (false_succ, ONE - bias)])
    with pytest.raises(MassError) as got:
        O.step(cfg)
    assert str(got.value) == str(expected.value)


def test_step_progress_check_survives_optimization(monkeypatch):
    # a size measure that never shrinks makes every non-memo step a violation
    monkeypatch.setattr(O, "_term_size", lambda term: 1)
    program = S.parse_program("flip(1/2)")
    with pytest.raises(O.MalformedConfiguration, match="did not shrink"):
        O.step(O.initial_configuration(program))
    # the sampler reduces through step, so it runs the same check
    with pytest.raises(O.MalformedConfiguration, match="did not shrink"):
        O.run_sampled(program, seed=0)


def _val_size(v) -> int:
    return 1 + _val_size(v.fst) + _val_size(v.snd) if isinstance(v, S.PairVal) else 1


def _walked_size(t) -> int:
    # the progress measure computed afresh, with nothing kept on the nodes
    if isinstance(t, S.Return):
        return _val_size(t.value)
    if isinstance(t, S.Let):
        return 1 + _walked_size(t.bound) + _walked_size(t.body)
    if isinstance(t, S.If):
        return 1 + _val_size(t.cond) + _walked_size(t.then) + _walked_size(t.orelse)
    if isinstance(t, S.Match):
        return 1 + _val_size(t.subject) + _walked_size(t.body)
    if isinstance(t, S.Flip):
        return 2
    if isinstance(t, S.Fresh):
        return 1
    if isinstance(t, S.Eq):
        return 1 + _val_size(t.lhs) + _val_size(t.rhs)
    if isinstance(t, S.MemFn):
        return 1 + _walked_size(t.body)
    if isinstance(t, S.App):
        return 1 + _val_size(t.fn) + _val_size(t.arg)
    return 1 + _walked_size(t.inner)  # MemoCtx


def _subterms(t):
    yield t
    for child in (getattr(t, name, None) for name in ("bound", "body", "then", "orelse", "inner")):
        if child is not None:
            yield from _subterms(child)


@pytest.mark.parametrize(
    "path", sorted(PROGRAMS.rglob("*.mem")), ids=lambda p: str(p.relative_to(PROGRAMS))
)
def test_kept_term_size_equals_a_fresh_walk(path):
    # every configuration the reference enumeration visits, with the sizes
    # that terminal_paths and then step kept on the nodes while they ran
    program = S.parse_program(path.read_text())
    terminals = O.terminal_paths(program)
    visited = []
    _reference_paths(program, visited)
    assert len(visited) > len(terminals)
    for config in visited:
        for t in _subterms(config.term):
            assert O._term_size(t) == _walked_size(t), S.pretty(t)


def _spine_markers(term):
    # the memo markers along the evaluation spine (through let-bound terms
    # and marker bodies), outermost first, found by a walk of their own
    markers = []
    t = term
    while True:
        if isinstance(t, S.MemoCtx):
            markers.append(t)
            t = t.inner
        elif isinstance(t, S.Let):
            t = t.bound
        else:
            return markers


@pytest.mark.parametrize(
    "path", sorted(PROGRAMS.rglob("*.mem")), ids=lambda p: str(p.relative_to(PROGRAMS))
)
def test_is_terminal_agrees_with_decompose(path):
    # is_terminal reads only the top of the term; decompose must find no
    # redex in exactly those configurations the reference enumeration
    # meets, its spine must rebuild the term, and its markers must be the
    # ones a walk of the spine finds
    met = []
    terminals = _reference_paths(S.parse_program(path.read_text()), met)
    assert len(met) > len(terminals)
    for config in met:
        term = config.term
        dec = O.decompose(term)
        assert O.is_terminal(config) == (dec is None), S.pretty(term)
        if dec is not None:
            assert O.recompose(*dec) == term, S.pretty(term)
        expected = tuple((m.fun_label, m.atom_label) for m in _spine_markers(term))
        assert O.memo_stack(term) == expected, S.pretty(term)


def test_terminal_under_a_marker_is_stuck_in_step():
    # not terminal at the top, and step, not is_terminal, rejects it
    graph, atom = B.empty().add_right_undef()
    graph, label = graph.add_left_undef()
    closures = O.FrozenMap({label: O.Closure("y", S.Flip(HALF), O.EMPTY_MAP)})
    marker = S.MemoCtx(S.MemFn("z", S.Flip(HALF)), label, atom, O.EMPTY_MAP)
    cfg = O.Configuration(O.EMPTY_MAP, marker, graph, closures)
    assert not O.is_terminal(cfg)
    with pytest.raises(O.Stuck, match="under a reduction context"):
        O.step(cfg)


@pytest.mark.parametrize("fun, atom", [(1, 0), (0, 1)])
def test_step_rejects_marker_outside_graph(fun, atom):
    graph, _ = B.empty().add_right_undef()
    graph, label = graph.add_left_undef()
    closures = O.FrozenMap({label: O.Closure("y", S.Flip(HALF), O.EMPTY_MAP)})
    marker = S.MemoCtx(S.Flip(HALF), fun, atom, O.EMPTY_MAP)
    cfg = O.Configuration(O.EMPTY_MAP, S.Let("b", marker, S.Return(S.Var("b"))), graph, closures)
    with pytest.raises(O.MalformedConfiguration, match="memo marker mentions labels outside the graph"):
        O.step(cfg)


def test_step_let_return_extends_env():
    cfg = O.initial_configuration(
        S.parse_program("let val b <- return true in return b")
    )
    ((succ, _),) = O.step(cfg).items()
    assert succ.env["b"] == O.BoolV(True)
    assert succ.term == S.Return(S.Var("b"))


def test_step_memo_return_writes_edge_and_restores_env():
    graph, atom = B.empty().add_right_undef()
    graph, fun = graph.add_left_undef()
    caller_env = O.FrozenMap({"x0": O.AtomV(atom), "f": O.FunV(fun)})
    body_env = O.FrozenMap({"y": O.AtomV(atom)})
    closures = O.FrozenMap(
        {fun: O.Closure("y", S.Flip(HALF), O.EMPTY_MAP)}
    )
    marker = S.MemoCtx(S.Return(S.BoolLit(True)), fun, atom, caller_env)
    cfg = O.Configuration(body_env, marker, graph, closures)
    ((succ, _),) = O.step(cfg).items()
    assert succ.env == caller_env
    assert succ.graph.edge(fun, atom) is True
    assert succ.term == S.Return(S.BoolLit(True))


def test_step_app_on_sampled_edge_reads_table():
    graph, atom = B.empty().add_right_undef()
    graph, fun = graph.add_left_undef()
    graph = graph.set_edge(fun, atom, False)
    env = O.FrozenMap({"f": O.FunV(fun), "a": O.AtomV(atom)})
    closures = O.FrozenMap({fun: O.Closure("y", S.Flip(HALF), O.EMPTY_MAP)})
    cfg = O.Configuration(env, S.App(S.Var("f"), S.Var("a")), graph, closures)
    ((succ, _),) = O.step(cfg).items()
    assert succ.term == S.Return(S.BoolLit(False))
    assert succ.env == env


def test_step_app_on_unsampled_edge_enters_marker():
    graph, atom = B.empty().add_right_undef()
    graph, fun = graph.add_left_undef()
    captured = O.FrozenMap({"x0": O.AtomV(atom)})
    env = O.FrozenMap({"f": O.FunV(fun), "a": O.AtomV(atom), "x0": O.AtomV(atom)})
    closures = O.FrozenMap({fun: O.Closure("y", S.Eq(S.Var("y"), S.Var("x0")), captured)})
    cfg = O.Configuration(env, S.App(S.Var("f"), S.Var("a")), graph, closures)
    ((succ, _),) = O.step(cfg).items()
    assert succ.term == S.MemoCtx(S.Eq(S.Var("y"), S.Var("x0")), fun, atom, env)
    assert succ.env == captured.set("y", O.AtomV(atom))


# -- enumerate_bigstep ------------------------------------------------------


def test_enumerate_smallest_program():
    d = O.enumerate_bigstep(S.parse_program("return true"))
    assert len(d) == 1
    ((cfg, w),) = d.items()
    assert w == ONE and cfg.term == S.Return(S.BoolLit(True))


def test_enumerate_golden_program_two_halves():
    d = O.enumerate_bigstep(load("golden_trace.mem"))
    assert len(d) == 2
    for cfg, w in d.items():
        assert w == HALF
        assert isinstance(cfg.term, S.Return)
        flag = O.eval_value(cfg.env, cfg.term.value)
        assert isinstance(flag, O.BoolV)
        # both memo-table edges carry the flipped value
        assert cfg.graph.edge(0, 0) is flag.value
        assert cfg.graph.edge(1, 0) is flag.value


def _flip_product_oracle(biases):
    """Independent oracle: distribution of a tuple of independent flips."""
    out = {}
    for bits in itertools.product([True, False], repeat=len(biases)):
        w = ONE
        for bias, bit in zip(biases, bits):
            w *= bias if bit else 1 - bias
        if w:
            out[bits] = out.get(bits, 0) + w
    return out


def test_enumerate_two_flips_matches_product_oracle():
    p = S.parse_program(
        "let val b <- flip(1/3) in let val c <- flip(1/3) in return (b, c)"
    )
    d = O.enumerate_bigstep(p)
    got = {}
    for cfg, w in d.items():
        value = O.eval_value(cfg.env, cfg.term.value)
        got[(value.fst.value, value.snd.value)] = w
    assert got == _flip_product_oracle([THIRD, THIRD])
    # frozen expectation from the oracle
    assert got == {
        (True, True): Fraction(1, 9),
        (True, False): Fraction(2, 9),
        (False, True): Fraction(2, 9),
        (False, False): Fraction(4, 9),
    }


# -- terminal_paths against a reference enumerator -----------------------------


def _reference_paths(program, visited=None):
    """``terminal_paths`` written as a plain loop over ``step``: pop a
    configuration, keep it if terminal, else push its successors in
    ``step``'s order.  Every configuration popped is appended to
    ``visited`` when given."""
    pending = [(O.initial_configuration(program), ONE)]
    terminals = []
    steps = 0
    while pending:
        config, weight = pending.pop()
        if visited is not None:
            visited.append(config)
        if O.is_terminal(config):
            terminals.append((config, weight))
            continue
        steps += 1
        if steps > O._STEP_BUDGET:
            raise O.StepBudgetExceeded(f"exhaustive enumeration exceeded {O._STEP_BUDGET} steps")
        for successor, q in O.step(config).items():
            pending.append((successor, weight * q))
    return terminals


def _assert_same_paths(program):
    got = O.terminal_paths(program)
    expected = _reference_paths(program)
    assert got == expected, S.pretty(program)
    assert repr(got) == repr(expected)


def bound_nested(depth: int, bottom: S.Comp = S.Flip(HALF)) -> S.Comp:
    """``let y1 <- (let y0 <- bottom in return y0) in return y1``, ``depth``
    lets deep, each nested in the bound position of the next."""
    term = bottom
    for i in range(depth):
        term = S.Let(f"y{i}", term, S.Return(S.Var(f"y{i}")))
    return term


@pytest.mark.parametrize(
    "path", sorted(PROGRAMS.rglob("*.mem")), ids=lambda p: str(p.relative_to(PROGRAMS))
)
def test_terminal_paths_equal_the_reference_on_the_bundled_programs(path):
    _assert_same_paths(S.parse_program(path.read_text()))


def test_terminal_paths_equal_the_reference_on_criterion_6():
    for program in soundness_corpus(200, 20243):
        _assert_same_paths(program)


def test_terminal_paths_equal_the_reference_on_heavy_programs():
    rng = random.Random(7)
    for _ in range(60):
        _assert_same_paths(ProgramGen(rng, 6, 5, 4, 12).program())


@pytest.mark.parametrize("depth", [1, 2, 5, 40])
def test_terminal_paths_equal_the_reference_on_bound_nested_chains(depth):
    _assert_same_paths(bound_nested(depth))
    # a chain whose bottom binds a function and an atom and applies one to
    # the other, so a marker stands under every let
    applied = S.parse_program("let val f <- memfn x. flip(1/3) in let val a <- fresh() in f @ a")
    _assert_same_paths(bound_nested(depth, applied))


def test_terminal_paths_accepts_a_source_marker_whose_labels_exist_when_it_is_reached():
    marker = S.MemoCtx(S.Return(S.BoolLit(True)), 0, 0, O.EMPTY_MAP)
    program = S.Let("a", S.Fresh(), S.Let("f", S.MemFn("x", S.Flip(HALF)), marker))
    _assert_same_paths(program)
    assert [cfg.graph.edge(0, 0) for cfg, _ in O.terminal_paths(program)] == [True]


def _raised(run, program):
    with pytest.raises(Exception) as info:
        run(program)
    return type(info.value), str(info.value)


def test_terminal_paths_exceeds_the_step_budget_as_the_reference_does(monkeypatch):
    monkeypatch.setattr(O, "_STEP_BUDGET", 3)
    program = load("sound/memo_pair.mem")
    got = _raised(O.terminal_paths, program)
    assert got == _raised(_reference_paths, program)
    assert got == (O.StepBudgetExceeded, "exhaustive enumeration exceeded 3 steps")
    # a program of exactly three steps stays within the budget
    _assert_same_paths(S.parse_program("let val x <- flip(1) in let val y <- return x in return y"))


def test_terminal_paths_drops_the_branch_a_certain_flip_never_takes():
    program = S.parse_program("let val b <- flip(0) in let val c <- flip(1) in return (b, c)")
    _assert_same_paths(program)
    assert len(O.terminal_paths(program)) == 1


@pytest.mark.parametrize("bias", [Fraction(3, 2), Fraction(-1, 2)])
@pytest.mark.parametrize("nested", [False, True])
def test_terminal_paths_rejects_a_bias_outside_the_unit_interval_as_step_does(bias, nested):
    # the MassError names the successor configuration with the negative weight
    program = S.Flip(bias)
    if nested:
        program = S.Let("b", S.Let("c", program, S.Return(S.Var("c"))), S.Return(S.Var("b")))
    got = _raised(O.terminal_paths, program)
    assert got == _raised(_reference_paths, program)
    assert got[0] is MassError and "negative weight" in got[1]


@pytest.mark.parametrize("where", ["top", "bound", "body"])
def test_terminal_paths_rejects_a_source_marker_outside_the_graph(where):
    marker = S.MemoCtx(S.Return(S.BoolLit(True)), 0, 0, O.EMPTY_MAP)
    program = {
        "top": marker,
        "bound": S.Let("b", marker, S.Return(S.Var("b"))),
        "body": S.Let("b", S.Flip(HALF), marker),
    }[where]
    got = _raised(O.terminal_paths, program)
    assert got == _raised(_reference_paths, program)
    assert got == (O.MalformedConfiguration, "memo marker mentions labels outside the graph")


# -- judgements and invariants ------------------------------------------------


def test_config_judgement_initial_and_terminal():
    p = load("sound/p1_third.mem")
    initial = O.initial_configuration(p)
    ctx, stack, ty = O.config_judgement(initial)
    assert stack == () and ty == TC.BOOL and ctx.decls() == ()
    for cfg in O.enumerate_bigstep(p).support():
        _, stack, ty = O.config_judgement(cfg)
        assert stack == () and ty == TC.BOOL


def test_config_judgement_mid_configuration_stack():
    p = load("golden_trace.mem")
    cfg = O.initial_configuration(p)
    seen_stacks = set()
    frontier = [cfg]
    while frontier:
        cfg = frontier.pop()
        _, stack, _ = O.config_judgement(cfg)
        seen_stacks.add(stack)
        if not O.is_terminal(cfg):
            frontier.extend(O.step(cfg).support())
    # the nested markers appear with the outer pair (fun1, atom0) first
    assert ((1, 0), (0, 0)) in seen_stacks


def test_config_judgement_rejects_a_marker_around_a_non_boolean():
    # the marker would write an atom into the memo-table
    graph, atom = B.empty().add_right_undef()
    graph, fun = graph.add_left_undef()
    closures = O.FrozenMap({fun: O.Closure("y", S.Flip(HALF), O.EMPTY_MAP)})
    body = S.parse_program("let val y <- fresh() in return y")
    cfg = O.Configuration(O.EMPTY_MAP, S.MemoCtx(body, fun, atom, O.EMPTY_MAP), graph, closures)
    assert S.pretty(cfg.term) == "{{let val y <- fresh() in return y}}^(fun0,atom0)"
    with pytest.raises(O.JudgementFailure, match="memoized result"):
        O.config_judgement(cfg)


def test_check_stack_invariants_examples():
    p = load("golden_trace.mem")
    assert O.check_stack_invariants(O.initial_configuration(p))
    graph, atom = B.empty().add_right_undef()
    graph, fun = graph.add_left_undef()
    closures = O.FrozenMap({fun: O.Closure("y", S.Flip(HALF), O.EMPTY_MAP)})
    dup = S.MemoCtx(
        S.MemoCtx(S.Return(S.BoolLit(True)), fun, atom, O.EMPTY_MAP),
        fun, atom, O.EMPTY_MAP,
    )
    bad = O.Configuration(O.EMPTY_MAP, dup, graph, closures)
    assert not O.check_stack_invariants(bad)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_reachable_configurations_welltyped_and_invariant(seed):
    program = ProgramGen(random.Random(seed), 2, 2, 2, 6).program()
    frontier = [O.initial_configuration(program)]
    while frontier:
        cfg = frontier.pop()
        O.config_judgement(cfg)
        assert O.check_stack_invariants(cfg)
        if not O.is_terminal(cfg):
            frontier.extend(O.step(cfg).support())


# -- sampling ------------------------------------------------------------------


def test_run_sampled_trivial_trace():
    final, trace = O.run_sampled(S.parse_program("return true"), seed=3)
    assert len(trace) == 1 and final.term == S.Return(S.BoolLit(True))


def test_run_sampled_deterministic_per_seed():
    p = load("sound/memo_pair.mem")
    a = O.run_sampled(p, 42)
    b = O.run_sampled(p, 42)
    assert a == b


def test_run_sampled_decomposes_once_per_step(monkeypatch):
    # twelve configurations: eleven steps and the terminal one
    calls = []
    decompose = O.decompose

    def counted(term):
        calls.append(term)
        return decompose(term)

    monkeypatch.setattr(O, "decompose", counted)
    _, trace = O.run_sampled(load("golden_trace.mem"), seed=0)
    assert len(trace) == 12 and len(calls) == 12
    assert calls == [config.term for config in trace]


def test_run_sampled_lands_in_enumeration_support():
    p = load("sound/memo_pair.mem")
    support = O.enumerate_bigstep(p).support()
    for seed in range(25):
        final, _ = O.run_sampled(p, seed)
        assert final in support


# -- observations ---------------------------------------------------------------


def test_observe_plain_boolean():
    d = O.enumerate_bigstep(S.parse_program("return true"))
    ((cfg, _),) = d.items()
    obs = O.observe(cfg)
    assert obs.value == O.BoolV(True)
    assert obs.graph == B.empty()
    assert obs.closures == ()


def test_observe_restricts_to_reachable_labels():
    # the function is unrelated to the returned atom and must vanish
    p = S.parse_program(
        "let val a <- fresh() in let val f <- memfn y. flip(1/2) in return a"
    )
    ((cfg, _),) = O.enumerate_bigstep(p).items()
    obs = O.observe(cfg)
    assert obs.value == O.AtomV(0)
    assert set(obs.graph.left) == set() and set(obs.graph.right) == {0}
    assert obs.closures == ()


def test_observe_keeps_closures_of_returned_functions():
    p = S.parse_program("let val f <- memfn y. flip(1/2) in return f")
    ((cfg, _),) = O.enumerate_bigstep(p).items()
    obs = O.observe(cfg)
    assert obs.value == O.FunV(0)
    (label, fn, env_items) = obs.closures[0]
    assert label == 0 and env_items == ()
    assert S.alpha_eq(fn, S.MemFn("z", S.Flip(HALF)))


def test_observational_diagonal_programs_agree():
    two_apps = load("sound/diag_two_apps.mem")
    one_app = load("sound/diag_one_app.mem")
    assert dist_eq(O.observational_bigstep(two_apps), O.observational_bigstep(one_app))


def test_observational_memo_pair_never_mixed():
    d = O.observational_bigstep(load("sound/memo_pair.mem"))
    values = {obs.value: w for obs, w in d.items()}
    assert values == {
        O.PairV(O.BoolV(True), O.BoolV(True)): HALF,
        O.PairV(O.BoolV(False), O.BoolV(False)): HALF,
    }


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_memo_law_holds_operationally(seed):
    rng = random.Random(seed)
    setup, fn = _mem_instance(rng)
    programs = mem_law_programs(setup, fn)
    for lhs, rhs in programs.values():
        assert dist_eq(O.observational_bigstep(lhs), O.observational_bigstep(rhs))
