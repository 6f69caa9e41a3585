"""Mutation analysis of the operational side: each mutant is a plausible
wrong ``step``, patched in for one test only, and the soundness check must
report a mismatch on the bundled programs named for it.

A mutant wraps the real ``step`` and rebuilds the successor of the redex it
changes through the public ``decompose`` and ``recompose``, so it does not
depend on how ``step`` is written."""

from pathlib import Path

import pytest

from memlang import opsem as O
from memlang import syntax as S
from memlang.denot import check_soundness
from memlang.dist import dirac

SOUND = Path(__file__).resolve().parent.parent / "programs" / "sound"


def _negated_sampled_edge(step):
    """An application on a sampled edge returns the edge's negation."""

    def mutant(config):
        dec = O.decompose(config.term)
        if dec is not None and isinstance(dec[1], S.App):
            spine, redex = dec
            fn = O.eval_value(config.env, redex.fn)
            arg = O.eval_value(config.env, redex.arg)
            edge = config.graph.edge(fn.label, arg.label)
            if edge is not None:
                term = O.recompose(spine, S.Return(S.BoolLit(not edge)))
                return dirac(O.Configuration(config.env, term, config.graph, config.closures))
        return step(config)

    return mutant


def _negated_memo_write(step):
    """A memo marker returns its result but writes the negation into the
    memo-table."""

    def mutant(config):
        dec = O.decompose(config.term)
        if dec is not None and isinstance(dec[1], S.MemoCtx):
            spine, marker = dec
            flag = O.eval_value(config.env, marker.inner.value).value
            graph = config.graph.set_edge(marker.fun_label, marker.atom_label, not flag)
            term = O.recompose(spine, S.Return(S.BoolLit(flag)))
            return dirac(O.Configuration(marker.restore_env, term, graph, config.closures))
        return step(config)

    return mutant


def _swapped_flip(step):
    """A flip of bias t takes its true branch with chance 1 - t."""

    def mutant(config):
        dec = O.decompose(config.term)
        if dec is not None and isinstance(dec[1], S.Flip):
            spine, flip = dec
            term = O.recompose(spine, S.Flip(1 - flip.bias))
            return step(O.Configuration(config.env, term, config.graph, config.closures))
        return step(config)

    return mutant


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
    monkeypatch.setattr(O, "step", mutate(O.step))
    assert not check_soundness(program).equal
