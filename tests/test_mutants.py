"""Mutation analysis of both semantics: each mutant is a plausible wrong
``step`` or a wrong denotation of a primitive, patched in for one test
only, and the soundness check must report a mismatch on the programs
named for it: bundled ones, or ones kept inline here.

A ``step`` mutant wraps ``opsem._fire``, the one function holding the
reduction's rules, which ``step`` and ``terminal_paths`` both reduce
through.  It takes a redex and the environment, graph and closures around
it, and returns the successors of the redex it changes in ``_fire``'s
form: (what fills the hole, environment, graph, closures, weight).  A denotational mutant replaces
a function ``denot`` calls through its module (a primitive, ``bind`` or
``expand``); ``den_comp``'s table lives for one call, so it cannot hide the
mutant behind a result computed before."""

import inspect
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from memlang import bigraph as B
from memlang import denot as D
from memlang import opsem as O
from memlang import syntax as S
from memlang.denot import check_soundness
from memlang.dist import HALF, ONE, FinDist, as_prob, dist_eq

SOUND = Path(__file__).resolve().parent.parent / "programs" / "sound"


def _negated_sampled_edge(fire):
    """An application on a sampled edge returns the edge's negation."""

    def mutant(redex, env, graph, closures):
        if isinstance(redex, S.App):
            fn = O.eval_value(env, redex.fn)
            arg = O.eval_value(env, redex.arg)
            edge = graph.edge(fn.label, arg.label)
            if edge is not None:
                return ((S.Return(S.BoolLit(not edge)), env, graph, closures, ONE),)
        return fire(redex, env, graph, closures)

    return mutant


def _negated_memo_write(fire):
    """A memo marker returns its result but writes the negation into the
    memo-table."""

    def mutant(redex, env, graph, closures):
        if isinstance(redex, S.MemoCtx):
            flag = O.eval_value(env, redex.inner.value).value
            graph = graph.set_edge(redex.fun_label, redex.atom_label, not flag)
            return ((S.Return(S.BoolLit(flag)), redex.restore_env, graph, closures, ONE),)
        return fire(redex, env, graph, closures)

    return mutant


def _swapped_flip(fire):
    """A flip of bias t takes its true branch with chance 1 - t."""

    def mutant(redex, env, graph, closures):
        if isinstance(redex, S.Flip):
            redex = S.Flip(1 - redex.bias)
        return fire(redex, env, graph, closures)

    return mutant


def _swapped_den_flip(den_flip):
    """The denotation of a flip of bias t is true with chance 1 - t."""

    def mutant(graph, theta):
        return den_flip(graph, ONE - as_prob(theta))

    return mutant


def _negated_drawn_edge(den_app):
    """An application on a drawn edge denotes the edge's negation."""

    def mutant(graph, fun, atom):
        edge = graph.edge(fun, atom)
        if isinstance(edge, B.Pending):
            return den_app(graph, fun, atom)
        return D.unit(graph, O.BoolV(not edge))

    return mutant


def _complement_fresh_bias(fresh_bias):
    """A memoized function's bias on an atom created after it is 1 - q."""

    def mutant(*args):
        return ONE - fresh_bias(*args)

    return mutant


def _half_fresh_bias(fresh_bias):
    """A memoized function's bias on an atom created after it is 1/2."""

    def mutant(*args):
        fresh_bias(*args)  # keeps the freshness check
        return HALF

    return mutant


def _half_wired_fresh(den_fresh):
    """A new atom's edge from each function is pending with chance 1/2, not
    with the function's bias."""

    def mutant(graph, bias):
        return den_fresh(graph, {f: HALF for f in graph.left})

    return mutant


# the two outcomes ``bind`` evaluates its body on again when the body reads
# a pending edge its class owns
_SPLIT = (
    "todo.append((cls.drawn({read.pair: True}), p * chance, drawn + 1))\n"
    "            todo.append((cls.drawn({read.pair: False}), p * (ONE - chance), drawn + 1))"
)


def _false_branch_only(bind):
    """A let whose body reads a pending edge of its class keeps only the
    False outcome, at the class's whole weight.  Built from ``bind``'s own
    source with the split's two outcomes replaced by the one."""
    source = inspect.getsource(bind)
    assert source.count(_SPLIT) == 1, "bind's split is no longer written as this mutant expects"
    namespace = dict(vars(D))
    exec(source.replace(_SPLIT, "todo.append((cls.drawn({read.pair: False}), p, drawn + 1))"), namespace)
    return namespace["bind"]


def _complement_expand(expand):
    """A pending edge that survives into a result is drawn true with the
    complement of its chance."""

    def mutant(dist):
        flipped = [
            (cls.drawn({pair: B.Pending(ONE - c) for pair, c in cls.pending().items()}), p)
            for cls, p in dist.items()
        ]
        return expand(FinDist(flipped))

    return mutant


# programs kept inline rather than under ``programs/sound``, whose
# ``soundness --dir`` output is pinned
INLINE = {
    # a function made before the atom it is applied to: the result is the
    # function's bias on a future atom (with fresh() bound first, no atom
    # is made after the function, and neither mutant is killed)
    "fresh_after_memfn": "let val f <- memfn x. flip(1/3) in let val a <- fresh() in f @ a",
    # the same with a body that reads its binder, so the function's bias is
    # taken at a world with a new atom, not at the function's own world
    "binder_read_after_memfn": (
        "let val c <- fresh() in let val f <- memfn x. x == c in let val a <- fresh() in f @ a"
    ),
}


def _program(name):
    if name in INLINE:
        return S.parse_program(INLINE[name])
    return S.parse_program((SOUND / f"{name}.mem").read_text())


# mutant -> the bundled programs on which the soundness check kills it
KILLS = {
    _negated_sampled_edge: ["diag_two_apps", "memo_pair"],
    _negated_memo_write: ["diag_two_apps", "memo_pair", "pair_mixed"],
    _swapped_flip: ["p1_third", "pair_mixed"],
}


@pytest.mark.parametrize(
    "mutate, name",
    [(mutate, name) for mutate, names in KILLS.items() for name in names],
    ids=lambda x: getattr(x, "__name__", x).lstrip("_"),
)
def test_soundness_check_kills_step_mutant(monkeypatch, mutate, name):
    program = S.parse_program((SOUND / f"{name}.mem").read_text())
    assert check_soundness(program).equal
    monkeypatch.setattr(O, "_fire", mutate(O._fire))
    assert not check_soundness(program).equal


@pytest.mark.parametrize("mutate", list(KILLS), ids=lambda f: f.__name__.lstrip("_"))
def test_a_step_mutant_changes_the_enumeration(monkeypatch, mutate):
    # so a mutant that no longer applies, say because the rules moved,
    # fails here by name rather than passing for a reason of its own
    programs = [S.parse_program((SOUND / f"{name}.mem").read_text()) for name in KILLS[mutate]]
    before = [O.terminal_paths(program) for program in programs]
    monkeypatch.setattr(O, "_fire", mutate(O._fire))
    assert any(O.terminal_paths(p) != paths for p, paths in zip(programs, before))


# denotational mutant -> (the function it replaces, the programs that kill it)
DEN_KILLS = {
    _swapped_den_flip: ("den_flip", ["p1_third", "pair_mixed"]),
    _negated_drawn_edge: ("den_app", ["p1_third", "pair_mixed"]),
    _complement_fresh_bias: ("_fresh_bias", ["fresh_after_memfn", "binder_read_after_memfn"]),
    _half_fresh_bias: ("_fresh_bias", ["fresh_after_memfn", "binder_read_after_memfn"]),
    _half_wired_fresh: ("den_fresh", ["fresh_after_memfn"]),
    _false_branch_only: (
        "bind",
        ["diag_one_app", "diag_two_apps", "fresh_invariant_pos", "memo_pair", "p1_half", "p1_third",
         "fresh_after_memfn"],
    ),
}


@pytest.mark.parametrize(
    "mutate, name",
    [(mutate, name) for mutate, (_, names) in DEN_KILLS.items() for name in names],
    ids=lambda x: getattr(x, "__name__", x).lstrip("_"),
)
def test_soundness_check_kills_denotational_mutant(monkeypatch, mutate, name):
    program = _program(name)
    assert check_soundness(program).equal
    attr = DEN_KILLS[mutate][0]
    monkeypatch.setattr(D, attr, mutate(getattr(D, attr)))
    assert not check_soundness(program).equal


def test_exact_distribution_kills_complement_expand_mutant(monkeypatch):
    # both sides of the soundness check, and the law suites, draw through
    # expand, so none of them sees this mutant; a pinned result does
    program = S.parse_program("let val a <- fresh() in let val f <- memfn x. flip(1/3) in return (f, a)")
    pair = O.PairV(O.FunV(0), O.AtomV(0))
    pinned = {
        (pair, (Fraction(1, 3),), ((0, 0, True),)): Fraction(1, 3),
        (pair, (Fraction(1, 3),), ((0, 0, False),)): Fraction(2, 3),
    }

    def denoted():
        return {(c.value, c.fresh_biases, c.ext_edges): p for c, p in D.den_program(program).items()}

    assert denoted() == pinned
    monkeypatch.setattr(D, "expand", _complement_expand(D.expand))
    assert denoted() != pinned


def _forgetful_free_vars(free_vars):
    """A closure body's free names, less the alphabetically first: the
    observation forgets that captured variable and what it reaches."""

    def mutant(body):
        names = free_vars(body)
        return names - {min(names)} if names else names

    return mutant


def test_observation_kills_forgotten_capture_mutant(monkeypatch):
    # the closure captures the returned atom in one program and an atom
    # the result reaches only through the closure in the other
    same = S.parse_program(
        "let val a <- fresh() in let val f <- memfn x. x == a in return (f, a)"
    )
    other = S.parse_program(
        "let val b <- fresh() in let val a <- fresh() in "
        "let val f <- memfn x. x == a in return (f, b)"
    )
    assert not dist_eq(O.observational_bigstep(same), O.observational_bigstep(other))
    # only observe asks opsem's syntax module for free names
    forgetful = SimpleNamespace(**{**vars(S), "free_vars": _forgetful_free_vars(S.free_vars)})
    monkeypatch.setattr(O, "S", forgetful)
    assert dist_eq(O.observational_bigstep(same), O.observational_bigstep(other))
