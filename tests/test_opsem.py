import itertools
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
from memlang.dist import ONE, dist_eq
from memlang.progen import ProgramGen, mem_law_programs, _mem_instance

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
def test_kept_term_size_equals_a_fresh_walk(monkeypatch, path):
    # every configuration the enumeration visits, with the sizes that step
    # kept on its nodes while it ran
    visited = []
    step = O.step

    def recording_step(config):
        visited.append(config)
        return step(config)

    monkeypatch.setattr(O, "step", recording_step)
    terminals = O.enumerate_bigstep(S.parse_program(path.read_text()))
    visited += terminals.support()
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
def test_is_terminal_agrees_with_decompose(monkeypatch, path):
    # is_terminal reads only the top of the term; decompose must find no
    # redex in exactly those configurations the enumeration meets, its
    # spine must rebuild the term, and its markers must be the ones a walk
    # of the spine finds
    met = []
    is_terminal = O.is_terminal

    def recording_is_terminal(config):
        met.append(config)
        return is_terminal(config)

    monkeypatch.setattr(O, "is_terminal", recording_is_terminal)
    terminals = O.enumerate_bigstep(S.parse_program(path.read_text()))
    assert len(met) > len(terminals)
    for config in met:
        term = config.term
        dec = O.decompose(term)
        assert is_terminal(config) == (dec is None), S.pretty(term)
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
