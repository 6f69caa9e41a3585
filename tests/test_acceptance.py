"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line and enforcing its stated time budget."""

import hashlib
import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from memlang import cli
from memlang import denot as D
from memlang import opsem as O
from memlang import syntax as S
from memlang import typecheck as TC
from memlang.dist import dist_eq
from memlang.progen import (
    let_chain,
    run_dataflow_suite,
    run_mem_law_suite,
    run_monad_suite,
    soundness_corpus,
)

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


@contextmanager
def criterion(number, description, budget=None):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"criterion {number} exceeded its {budget}s budget: {elapsed:.1f}s"
            )
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL ({description})")
        raise
    print(f"ACCEPTANCE {number}: PASS ({description}) [{elapsed:.2f}s]")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else {})


def p1_text(theta: str) -> str:
    return f"let val x <- fresh() in let val f <- memfn y. flip({theta}) in f @ x"


def test_criterion_1_memoized_coin_reproduction(capsys, tmp_path):
    with criterion(1, "memoized coin program yields the bias exactly, both semantics"):
        for theta_text, theta in [("0", Fraction(0)), ("1/3", THIRD), ("1/2", HALF), ("1", Fraction(1))]:
            path = tmp_path / f"p1_{theta.numerator}_{theta.denominator}.mem"
            path.write_text(p1_text(theta_text) + "\n")
            expected = {}
            if theta:
                expected[True] = str(theta)
            if theta != 1:
                expected[False] = str(1 - theta)
            for command, flags in (("denote", ()), ("enumerate", ("--observe",))):
                start = time.monotonic()
                code, payload = run_cli(capsys, command, str(path), *flags)
                assert code == 0
                assert time.monotonic() - start < 1.0
                got = {row["value"]: row["prob"] for row in payload["distribution"]}
                assert got == expected, (command, theta_text, got)


GOLDEN_PROGRAM = (
    "let val x0 <- fresh() in "
    "let val f1 <- memfn x. let val b <- x == x0 in if b then flip(1/2) else return false in "
    "let val f2 <- memfn y. f1 @ y in f2 @ x0"
)

GOLDEN_BODY = "let val b <- x == x0 in if b then flip(1/2) else return false"


def _golden_terms(flag: str) -> list[str]:
    rest2 = "let val f2 <- memfn y. f1 @ y in f2 @ x0"
    nested = "{{%s}}^(fun0,atom0)}}^(fun1,atom0)"
    return [
        GOLDEN_PROGRAM,
        f"let val f1 <- memfn x. {GOLDEN_BODY} in {rest2}",
        rest2,
        "f2 @ x0",
        "{{f1 @ y}}^(fun1,atom0)",
        "{{" + nested % GOLDEN_BODY,
        "{{" + nested % "let val b <- return true in if b then flip(1/2) else return false",
        "{{" + nested % "if b then flip(1/2) else return false",
        "{{" + nested % "flip(1/2)",
        "{{" + nested % f"return {flag}",
        "{{return " + flag + "}}^(fun1,atom0)",
        f"return {flag}",
    ]


def _golden_snapshots(flag: str) -> dict[int, dict]:
    edge = flag
    gamma0 = {"f1": "fun0", "f2": "fun1", "x0": "atom0"}
    return {
        0: {"env": {}, "graph": {"left": [], "right": [], "edges": []}},
        1: {"env": {"x0": "atom0"}, "graph": {"left": [], "right": [0], "edges": []}},
        2: {
            "env": {"f1": "fun0", "x0": "atom0"},
            "graph": {"left": [0], "right": [0], "edges": [[0, 0, "undef"]]},
        },
        3: {
            "env": gamma0,
            "graph": {
                "left": [0, 1], "right": [0],
                "edges": [[0, 0, "undef"], [1, 0, "undef"]],
            },
        },
        4: {"env": {"f1": "fun0", "x0": "atom0", "y": "atom0"}},
        5: {"env": {"x": "atom0", "x0": "atom0"}},
        7: {"env": {"b": True, "x": "atom0", "x0": "atom0"}},
        10: {
            "env": {"f1": "fun0", "x0": "atom0", "y": "atom0"},
            "graph": {
                "left": [0, 1], "right": [0],
                "edges": [[0, 0, edge], [1, 0, "undef"]],
            },
        },
        11: {
            "env": gamma0,
            "graph": {
                "left": [0, 1], "right": [0],
                "edges": [[0, 0, edge], [1, 0, edge]],
            },
        },
    }


GOLDEN_CLOSURES = {
    "fun0": {"binder": "x", "body": GOLDEN_BODY, "env": {"x0": "atom0"}},
    "fun1": {"binder": "y", "body": "f1 @ y", "env": {"f1": "fun0", "x0": "atom0"}},
}


def test_criterion_2_golden_trace(capsys):
    with criterion(2, "step-by-step trace and exact halves for the two-function program"):
        path = str(PROGRAMS / "golden_trace.mem")
        seeds = {}
        for seed in range(64):
            code, payload = run_cli(capsys, "run", path, "--seed", str(seed))
            assert code == 0
            seeds.setdefault(payload["result"], seed)
            if len(seeds) == 2:
                break
        assert set(seeds) == {True, False}, "both flip branches must be forced"
        for flag, seed in sorted(seeds.items()):
            code, payload = run_cli(capsys, "run", path, "--seed", str(seed), "--trace")
            assert code == 0
            trace = payload["trace"]
            assert len(trace) == 12
            assert [row["term"] for row in trace] == _golden_terms(str(flag).lower())
            for index, expected in _golden_snapshots(str(flag).lower()).items():
                for key, value in expected.items():
                    assert trace[index][key] == value, (flag, index, key)
            assert trace[3]["closures"] == GOLDEN_CLOSURES
        code, payload = run_cli(capsys, "enumerate", path)
        assert code == 0
        assert [row["prob"] for row in payload["distribution"]] == ["1/2", "1/2"]


def _diagonal_programs(setup, binder, body):
    app = S.App(S.Var("h"), S.Var("probe"))
    shared = [*setup, ("probe", S.Fresh()), ("h", S.MemFn(binder, body))]
    two = let_chain(
        [*shared, ("v1", app), ("v2", app)],
        S.Return(S.PairVal(S.Var("v1"), S.Var("v2"))),
    )
    one = let_chain(
        [*shared, ("v1", app)],
        S.Return(S.PairVal(S.Var("v1"), S.Var("v1"))),
    )
    return two, one


def test_criterion_3_duplicated_application_schemas():
    with criterion(3, "two applications at one atom equal one duplicated sample"):
        positive_body = S.parse_program(
            "let val b <- f @ x0 in if b then return true else y == x0"
        )
        cases = [
            ([], "y", S.Flip(HALF)),
            ([], "y", S.Flip(THIRD)),
            (
                [("x0", S.Fresh()), ("f", S.MemFn("w", S.Flip(HALF)))],
                "y",
                positive_body,
            ),
        ]
        for setup, binder, body in cases:
            two, one = _diagonal_programs(setup, binder, body)
            TC.type_of_comp(TC.EMPTY_CTX, two)
            TC.type_of_comp(TC.EMPTY_CTX, one)
            start = time.monotonic()
            assert dist_eq(
                O.observational_bigstep(two), O.observational_bigstep(one)
            )
            assert time.monotonic() - start < 1.0


def test_criterion_4_memoization_law():
    with criterion(4, "memoization equations on 100 generated bodies, both semantics", budget=60):
        result = run_mem_law_suite(100, seed=20240)
        assert result.ok, result.failures[:3]


def test_criterion_5_dataflow_and_monad_laws():
    with criterion(5, "reorder/discard on 100 triples plus pointwise monad laws", budget=120):
        dataflow = run_dataflow_suite(100, seed=20241)
        assert dataflow.ok, dataflow.failures[:3]
        monad = run_monad_suite(20, seed=20242)
        assert monad.ok, monad.failures[:3]


CORPUS_SEED = 20243
BENCH_DIGESTS = json.loads(
    (PROGRAMS.parent / "membench" / "baseline.json").read_text(encoding="utf-8")
)["digests"]


def bench_digest(payloads) -> str:
    """sha256 of each payload as ``memlang`` prints it, in order: the
    digest ``membench/run.py`` checks against ``baseline.json``."""
    h = hashlib.sha256()
    for payload in payloads:
        h.update(json.dumps(payload, sort_keys=True, indent=2).encode())
        h.update(b"\n")
    return h.hexdigest()


def soundness_payload(report: D.SoundnessReport) -> dict:
    """The payload of ``memlang soundness FILE``, less the file name."""
    payload = {
        "equal": report.equal,
        "lhs": cli._sorted_dist(report.lhs, cli._class_row),
        "rhs": cli._sorted_dist(report.rhs, cli._class_row),
        "bias_formula_agrees": report.bias_formula_agrees,
    }
    if not report.bias_formula_agrees:
        payload["bias_formula_rhs"] = cli._sorted_dist(report.bias_formula_rhs, cli._class_row)
    return payload


def test_criterion_6_soundness_corpus():
    with criterion(6, "exact agreement of the two semantics on 200 programs", budget=300):
        corpus = soundness_corpus(200, CORPUS_SEED)
        divergences = 0
        undef_terminal_programs = 0
        payloads = []
        for index, program in enumerate(corpus):
            report = D.check_soundness(program)
            assert report.equal, (index, S.pretty(program))
            payloads.append(soundness_payload(report))
            if not report.bias_formula_agrees:
                divergences += 1
            if any(
                cfg.graph.undefined_pairs()
                for cfg in O.enumerate_bigstep(program).support()
            ):
                undef_terminal_programs += 1
        for path in sorted((PROGRAMS / "sound").glob("*.mem")):
            report = D.check_soundness(S.parse_program(path.read_text()))
            assert report.equal, path.name
            if not report.bias_formula_agrees:
                divergences += 1
        assert undef_terminal_programs > 0, "corpus must cover unsampled-edge terminals"
        assert bench_digest(payloads) == BENCH_DIGESTS["soundness_corpus"]
        print(
            f"  (criterion 6 note: {undef_terminal_programs} programs kept unsampled "
            f"edges; single-bias completion weights diverged on {divergences} programs, "
            f"logged not failed)"
        )


def test_scaling_family_matches_the_benchmark_digest():
    # n fresh atoms, then two memfns of which only the first is applied
    payloads = []
    for n in range(1, 6):
        atoms = "".join(f"let val a{i} <- fresh() in " for i in range(n))
        program = S.parse_program(
            atoms + "let val f <- memfn x. flip(1/2) in "
            "let val g <- memfn x. flip(1/2) in f @ a0"
        )
        payloads.append({"distribution": cli._sorted_dist(D.den_program(program), cli._class_row)})
    assert bench_digest(payloads) == BENCH_DIGESTS["fresh_denote"]


def _check_class_shape(cls: D.CanonicalClass, ty) -> None:
    fresh_labels = set(cls.fresh_funs) | set(cls.fresh_atoms)
    funs, atoms = O.value_labels(cls.value)
    assert set(cls.fresh_funs) <= set(funs) | set(cls.base.left)
    assert set(cls.fresh_atoms) <= set(atoms) | set(cls.base.right)
    assert len(cls.fresh_biases) == len(cls.fresh_funs)
    if ty == TC.BOOL:
        assert isinstance(cls.value, O.BoolV) and not fresh_labels
    elif ty == TC.ATOM:
        assert isinstance(cls.value, O.AtomV)
        assert cls.value.label in cls.base.right or cls.fresh_atoms == (cls.value.label,)
    elif ty == TC.FUN:
        assert isinstance(cls.value, O.FunV)
        assert cls.value.label in cls.base.left or cls.fresh_funs == (cls.value.label,)


def test_criterion_7_invariant_sweeps():
    with criterion(7, "typing, stack, and class-shape invariants over the corpus", budget=300):
        corpus = soundness_corpus(200, CORPUS_SEED)
        for program in corpus:
            ty = TC.type_of_comp(TC.EMPTY_CTX, program)
            frontier = [O.initial_configuration(program)]
            while frontier:
                cfg = frontier.pop()
                O.config_judgement(cfg)
                assert O.check_stack_invariants(cfg)
                if not O.is_terminal(cfg):
                    frontier.extend(O.step(cfg).support())
            dist = D.den_program(program)
            total = Fraction(0)
            for cls, weight in dist.items():
                total += weight
                _check_class_shape(cls, ty)
            assert total == 1


def test_criterion_8_freshness_rejection():
    with criterion(8, "wiring-dependent bodies rejected with witnesses, positive example accepted"):
        for name in ("reject_apply_binder.mem", "reject_negation.mem"):
            program = S.parse_program((PROGRAMS / name).read_text())
            fns = []
            stack = [program]
            while stack:
                node = stack.pop()
                if isinstance(node, S.MemFn):
                    fns.append(node)
                    stack.append(node.body)
                elif isinstance(node, S.Let):
                    stack.extend([node.bound, node.body])
                elif isinstance(node, S.If):
                    stack.extend([node.then, node.orelse])
                elif isinstance(node, S.Match):
                    stack.append(node.body)
            assert any(not S.syntactic_freshness_check(fn) for fn in fns), name
            try:
                D.den_program(program)
                raise AssertionError(f"{name} must be rejected")
            except D.FreshnessViolation as exc:
                wiring_a, prob_a = exc.witness_a
                wiring_b, prob_b = exc.witness_b
                assert wiring_a != wiring_b and prob_a != prob_b
        positive = S.parse_program((PROGRAMS / "sound" / "fresh_invariant_pos.mem").read_text())
        fn = positive.body.body.bound
        assert isinstance(fn, S.MemFn)
        assert S.syntactic_freshness_check(fn)
        D.den_program(positive)  # must not raise


def test_criterion_9_sampler_consistency():
    with criterion(9, "sampler frequencies and enumeration support agree"):
        program = S.parse_program(p1_text("1/3"))
        hits = 0
        runs = 3000
        for seed in range(runs):
            final, _ = O.run_sampled(program, seed)
            value = O.eval_value(final.env, final.term.value)
            hits += bool(value.value)
        sigma = math.sqrt((1 / 3) * (2 / 3) / runs)
        assert abs(hits / runs - 1 / 3) < 3 * sigma, hits
        for index, program in enumerate(soundness_corpus(40, 20244)):
            support = O.enumerate_bigstep(program).support()
            for seed in range(5):
                final, _ = O.run_sampled(program, seed)
                assert final in support, index
