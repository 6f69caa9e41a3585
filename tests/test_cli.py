import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from memlang import cli
from memlang import denot as D
from memlang import opsem as O
from memlang import syntax as S
from memlang.dist import FinDist, ONE

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = ROOT / "programs"


def run_cli(capsys, *argv) -> tuple[int, dict]:
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else {})


def test_check_ok(capsys):
    code, payload = run_cli(capsys, "check", str(PROGRAMS / "sound" / "p1_third.mem"))
    assert code == 0
    assert payload["ok"] is True and payload["type"] == "bool"


def test_check_type_error(capsys, tmp_path):
    bad = tmp_path / "bad.mem"
    bad.write_text("memfn y. fresh()\n")
    code, payload = run_cli(capsys, "check", str(bad))
    assert code == 1
    assert "bool" in payload["error"]


def test_check_syntax_error(capsys, tmp_path):
    bad = tmp_path / "bad.mem"
    bad.write_text("let val x <-\n")
    code, payload = run_cli(capsys, "check", str(bad))
    assert code == 1


def test_missing_file_is_usage_error(capsys):
    code = cli.main(["run", "no_such_file.mem"])
    assert code == 64


@pytest.mark.parametrize("command", ["check", "denote", "enumerate", "run", "soundness"])
def test_too_deep_nesting_is_usage_error(capsys, tmp_path, command):
    # 1500 is past the parser's limit; the deepest chain `check` accepts
    # is past every other command's (enumerate and run now meet it in the
    # parser, which they reach one frame deeper than `check` does)
    for depth in (1500,) if command == "check" else (1500, NESTING_LIMITS["check"]):
        deep = tmp_path / "deep.mem"
        deep.write_text("".join(f"let val x{i} <- return true in " for i in range(depth)) + "return x0\n")
        code = cli.main([command, str(deep)])
        captured = capsys.readouterr()
        assert code == 64, depth
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "too deep" in captured.err


@pytest.mark.parametrize("command", ["denote", "soundness"])
def test_denote_and_soundness_accept_400_deep_nesting(capsys, tmp_path, command):
    deep = tmp_path / "deep.mem"
    deep.write_text("".join(f"let val x{i} <- return true in " for i in range(400)) + "return x0\n")
    code, payload = run_cli(capsys, command, str(deep))
    assert code == 0
    rows = payload["distribution"] if command == "denote" else payload["lhs"]
    assert [(row["value"], row["prob"]) for row in rows] == [(True, "1")]


# the deepest `let` chain each command accepts, as README documents it
NESTING_LIMITS = {"check": 988, "enumerate": 987, "run": 987, "denote": 493, "soundness": 492}


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the documented limits are CPython 3.11's",
)
@pytest.mark.parametrize("command", sorted(NESTING_LIMITS))
def test_documented_nesting_limit_is_exact(tmp_path, command):
    # a fresh interpreter, so the stack under the command is the CLI's own;
    # an extra frame per `let` in an evaluator lowers the limit
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("MEMLANG_MAX_UNDEF", None)
    codes = []
    for depth in (NESTING_LIMITS[command], NESTING_LIMITS[command] + 1):
        deep = tmp_path / f"deep{depth}.mem"
        deep.write_text("".join(f"let val x{i} <- return true in " for i in range(depth)) + "return x0\n")
        proc = subprocess.run(
            [sys.executable, "-m", "memlang.cli", command, str(deep)],
            cwd=ROOT, env=env, capture_output=True, check=False,
        )
        codes.append(proc.returncode)
    assert codes == [0, 64]


def test_run_deterministic_per_seed(capsys):
    path = str(PROGRAMS / "sound" / "memo_pair.mem")
    code1, payload1 = run_cli(capsys, "run", path, "--seed", "7")
    code2, payload2 = run_cli(capsys, "run", path, "--seed", "7")
    assert code1 == code2 == 0
    assert payload1 == payload2
    assert payload1["result"] in ([True, True], [False, False])


def test_run_trace_includes_configurations(capsys):
    path = str(PROGRAMS / "golden_trace.mem")
    code, payload = run_cli(capsys, "run", path, "--seed", "1", "--trace")
    assert code == 0
    assert len(payload["trace"]) == 12
    assert payload["trace"][0]["term"].startswith("let val x0 <- fresh()")


def test_enumerate_p1(capsys):
    code, payload = run_cli(
        capsys, "enumerate", str(PROGRAMS / "sound" / "p1_third.mem"), "--observe"
    )
    assert code == 0
    dist = {row["value"]: row["prob"] for row in payload["distribution"]}
    assert dist == {True: "1/3", False: "2/3"}


@pytest.mark.parametrize("text", [
    "fresh()",
    "memfn x. flip(1/2)",
    "let val a <- fresh() in memfn x. x == a",
])
def test_enumerate_observes_a_bare_fresh_or_memfn_as_returned(capsys, tmp_path, text):
    # a terminal bare fresh() or memfn is observed as if it were bound and
    # returned
    returned = f"let val r <- {text} in return r"
    assert O.observational_bigstep(S.parse_program(text)) == O.observational_bigstep(S.parse_program(returned))
    payloads = []
    for name, source in (("bare.mem", text), ("returned.mem", returned)):
        path = tmp_path / name
        path.write_text(source + "\n")
        code, payload = run_cli(capsys, "enumerate", str(path), "--observe")
        assert code == 0 and payload["semantics"] == "exhaustive-observed"
        del payload["file"]
        payloads.append(payload)
    assert payloads[0] == payloads[1]


def test_enumerate_diagonal_byte_identical(capsys):
    code1 = cli.main(["enumerate", str(PROGRAMS / "sound" / "diag_two_apps.mem"), "--observe"])
    out1 = capsys.readouterr().out
    code2 = cli.main(["enumerate", str(PROGRAMS / "sound" / "diag_one_app.mem"), "--observe"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    # identical bytes apart from the differing file names
    payload1 = json.loads(out1)
    payload2 = json.loads(out2)
    del payload1["file"], payload2["file"]
    assert json.dumps(payload1, sort_keys=True) == json.dumps(payload2, sort_keys=True)


def test_denote_p1(capsys):
    code, payload = run_cli(capsys, "denote", str(PROGRAMS / "sound" / "p1_third.mem"))
    assert code == 0
    dist = {row["value"]: row["prob"] for row in payload["distribution"]}
    assert dist == {True: "1/3", False: "2/3"}


def test_denote_rejects_unclean_program(capsys):
    code, payload = run_cli(capsys, "denote", str(PROGRAMS / "reject_apply_binder.mem"))
    assert code == 2
    assert len(payload["witnesses"]) == 2


def test_soundness_single_file(capsys):
    code, payload = run_cli(capsys, "soundness", str(PROGRAMS / "sound" / "p1_third.mem"))
    assert code == 0
    assert payload["equal"] is True


def test_soundness_directory(capsys):
    code, payload = run_cli(capsys, "soundness", "--dir", str(PROGRAMS / "sound"))
    assert code == 0
    assert payload["all_equal"] is True
    assert len(payload["results"]) == 9


def test_soundness_mismatch_exit_code(capsys, monkeypatch, tmp_path):
    true_cls = D.canonicalize(D.EMPTY_WORLD, D.EMPTY_WORLD, O.BoolV(True), {})
    false_cls = D.canonicalize(D.EMPTY_WORLD, D.EMPTY_WORLD, O.BoolV(False), {})
    unequal = D.SoundnessReport(
        lhs=FinDist({true_cls: ONE}),
        rhs=FinDist({false_cls: ONE}),
        equal=False,
        bias_formula_rhs=FinDist({false_cls: ONE}),
        bias_formula_agrees=True,
    )
    monkeypatch.setattr(D, "check_soundness", lambda program: unequal)
    target = tmp_path / "p.mem"
    target.write_text("return true\n")
    code, payload = run_cli(capsys, "soundness", str(target))
    assert code == 3
    assert payload["equal"] is False


def test_laws_commands(capsys):
    code, payload = run_cli(capsys, "laws", "--mem", "--count", "3", "--seed", "2")
    assert code == 0 and payload["failures"] == []
    code, payload = run_cli(capsys, "laws", "--dataflow", "--count", "3", "--seed", "2")
    assert code == 0 and payload["failures"] == []
    code, payload = run_cli(capsys, "laws", "--monad", "--count", "2", "--seed", "2")
    assert code == 0 and payload["failures"] == []


# law suite runs whose generator once asked for a pair it could not build
LAWS_PINNED = {
    "--dataflow --count 50 --seed 0": "f80f81e2526fcb1ba072205fc23c2d82dcfce68a3661dd113eae40bbe11dfff7",
    "--monad --count 200 --seed 2": "ba7fa36193fa1cb57a2e397f1d57eb24a376abab89fde50df32608c67e7112a4",
}


@pytest.mark.parametrize("argv", sorted(LAWS_PINNED))
def test_laws_runs_every_generated_case(capsys, monkeypatch, argv):
    monkeypatch.delenv("MEMLANG_MAX_UNDEF", raising=False)
    code = cli.main(["laws", *argv.split()])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["failures"] == []
    assert hashlib.sha256(out.encode()).hexdigest() == LAWS_PINNED[argv]


def test_a_law_suite_that_cannot_run_a_case_exits_3(capsys, monkeypatch):
    def broken(count, seed):
        raise IndexError("Cannot choose from an empty sequence")

    monkeypatch.setattr(cli.G, "run_dataflow_suite", broken)
    code = cli.main(["laws", "--dataflow", "--count", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "IndexError" in captured.err


def test_json_flag_is_gone(capsys):
    path = str(PROGRAMS / "sound" / "p1_third.mem")
    assert cli.main(["denote", "--json", path]) == 64
    assert cli.main(["enumerate", "--json", path]) == 64


@pytest.mark.parametrize("value", ["abc", "-1", "2.5"])
def test_invalid_max_undef_is_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("MEMLANG_MAX_UNDEF", value)
    code = cli.main(["soundness", str(PROGRAMS / "sound" / "p1_third.mem")])
    err = capsys.readouterr().err
    assert code == 64
    assert err.count("\n") == 1 and "MEMLANG_MAX_UNDEF" in err


@pytest.mark.parametrize("source", ["diffuse_eq", "flip"])
def test_denote_rejects_an_invalid_max_undef_where_nothing_expands(capsys, monkeypatch, tmp_path, source):
    program = PROGRAMS / "sound" / "diffuse_eq.mem"
    if source == "flip":
        program = tmp_path / "flip.mem"
        program.write_text("flip(1/2)\n")
    monkeypatch.setenv("MEMLANG_MAX_UNDEF", "abc")
    assert "MEMLANG_MAX_UNDEF" in assert_usage_error(capsys, "denote", str(program))
    # the operational commands expand nothing and keep ignoring the limit
    assert cli.main(["enumerate", str(program)]) == 0
    assert cli.main(["run", str(program)]) == 0


@pytest.mark.parametrize("command", ["enumerate", "soundness"])
def test_step_budget_is_usage_error(capsys, monkeypatch, command):
    monkeypatch.setattr(O, "_STEP_BUDGET", 3)
    err = assert_usage_error(capsys, command, str(PROGRAMS / "sound" / "memo_pair.mem"))
    assert "3 steps" in err and "Traceback" not in err


def test_fresh_bias_over_budget_is_usage_error(capsys, monkeypatch, tmp_path):
    # the fourth memfn's body reads three edges of a new atom's column
    program = tmp_path / "four_memfns.mem"
    program.write_text(
        "".join(f"let val f{i} <- memfn x. flip(1/2) in " for i in range(3))
        + "let val f3 <- memfn x. let val b0 <- f0 @ x in let val b1 <- f1 @ x in "
        "let val b2 <- f2 @ x in flip(1/2) in return true\n"
    )
    monkeypatch.setenv("MEMLANG_MAX_UNDEF", "2")
    code = cli.main(["denote", str(program)])
    captured = capsys.readouterr()
    assert code == 64 and captured.out == ""
    assert captured.err.count("\n") == 1 and "MEMLANG_MAX_UNDEF" in captured.err
    assert "Traceback" not in captured.err


def test_soundness_over_unread_edges_ignores_the_budget(capsys, tmp_path):
    # the terminal leaves 23 edges unsampled, over the default limit of 20,
    # and no closure body reads any of them
    program = tmp_path / "scaling12.mem"
    program.write_text(
        "".join(f"let val a{i} <- fresh() in " for i in range(12))
        + "let val f <- memfn x. flip(1/2) in let val g <- memfn x. flip(1/2) in f @ a0\n"
    )
    code, payload = run_cli(capsys, "soundness", str(program))
    assert code == 0 and payload["equal"] is True


def test_soundness_budget_bounds_the_edges_read(capsys, monkeypatch, tmp_path):
    # three edges stay unsampled; the closures of g and h read two of them,
    # and the result h reaches both closures
    program = tmp_path / "chain.mem"
    program.write_text(
        "let val a <- fresh() in let val f <- memfn x. flip(1/2) in "
        "let val g <- memfn x. f @ a in let val h <- memfn x. g @ a in return h\n"
    )
    monkeypatch.setenv("MEMLANG_MAX_UNDEF", "1")
    code = cli.main(["soundness", str(program)])
    captured = capsys.readouterr()
    assert code == 64 and captured.out == ""
    assert captured.err.count("\n") == 1 and "MEMLANG_MAX_UNDEF" in captured.err
    monkeypatch.setenv("MEMLANG_MAX_UNDEF", "2")
    code, payload = run_cli(capsys, "soundness", str(program))
    assert code == 0 and payload["equal"] is True


def test_soundness_never_splits_an_edge_the_result_cannot_reach(capsys, monkeypatch, tmp_path):
    # the same chain, returning true: no closure is reachable from the
    # result, so the terminal is denoted at an empty memo-table and none of
    # its unsampled edges is split
    program = tmp_path / "chain.mem"
    program.write_text(
        "let val a <- fresh() in let val f <- memfn x. flip(1/2) in "
        "let val g <- memfn x. f @ a in let val h <- memfn x. g @ a in return true\n"
    )
    monkeypatch.setenv("MEMLANG_MAX_UNDEF", "1")
    code, payload = run_cli(capsys, "soundness", str(program))
    assert code == 0 and payload["equal"] is True


@pytest.mark.parametrize("command", ["check", "denote", "soundness", "enumerate"])
def test_source_that_is_not_utf8_is_usage_error(capsys, tmp_path, command):
    program = tmp_path / "latin1.mem"
    program.write_bytes(b"# caf\xe9\nreturn true\n")
    code = cli.main([command, str(program)])
    captured = capsys.readouterr()
    assert code == 64 and captured.out == ""
    assert captured.err.count("\n") == 1 and "byte offset 5" in captured.err
    assert "Traceback" not in captured.err


def test_soundness_requires_target(capsys):
    assert cli.main(["soundness"]) == 64


def assert_usage_error(capsys, *argv) -> str:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 64 and captured.out == ""
    assert captured.err.count("\n") == 1
    return captured.err


def test_let_split_budget_bounds_the_edges_read(capsys, monkeypatch, tmp_path):
    # the let binding f splits its class on three pending row edges, one per read
    program = tmp_path / "reads.mem"
    program.write_text(
        "let val a0 <- fresh() in let val a1 <- fresh() in let val a2 <- fresh() in "
        "let val f <- memfn x. flip(1/2) in "
        "let val b0 <- f @ a0 in let val b1 <- f @ a1 in let val b2 <- f @ a2 in return b0\n"
    )
    monkeypatch.setenv("MEMLANG_MAX_UNDEF", "2")
    assert "MEMLANG_MAX_UNDEF" in assert_usage_error(capsys, "denote", str(program))
    monkeypatch.setenv("MEMLANG_MAX_UNDEF", "3")
    code, payload = run_cli(capsys, "denote", str(program))
    assert code == 0
    assert [(row["value"], row["prob"]) for row in payload["distribution"]] == [
        (False, "1/2"), (True, "1/2")
    ]


@pytest.mark.parametrize("command", ["check", "run", "enumerate", "denote", "soundness"])
def test_non_ascii_digit_is_a_syntax_error(capsys, tmp_path, command):
    program = tmp_path / "superscript.mem"
    program.write_text("flip(²)\n", encoding="utf-8")
    code = cli.main([command, str(program)])
    captured = capsys.readouterr()
    assert code == 1
    if command == "check":
        assert "unexpected character" in json.loads(captured.out)["error"]
    else:
        assert captured.out == "" and "unexpected character" in captured.err


@pytest.mark.parametrize("suite", ["--mem", "--dataflow", "--monad"])
def test_every_laws_suite_rejects_an_invalid_max_undef(capsys, monkeypatch, suite):
    # seed 13's one monad case reaches no memfn, split or drawn edge
    monkeypatch.setenv("MEMLANG_MAX_UNDEF", "abc")
    assert "MEMLANG_MAX_UNDEF" in assert_usage_error(capsys, "laws", suite, "--count", "1", "--seed", "13")
    code, payload = run_cli(capsys, "laws", suite, "--count", "0")
    assert code == 0 and payload["failures"] == []


def test_laws_negative_count_is_usage_error(capsys):
    assert "--count" in assert_usage_error(capsys, "laws", "--mem", "--count", "-3")


@pytest.mark.parametrize("target", ["missing", "file"])
def test_soundness_dir_must_be_a_directory(capsys, tmp_path, target):
    path = tmp_path / "programs"
    if target == "file":
        path.write_text("return true\n")
    assert "not a directory" in assert_usage_error(capsys, "soundness", "--dir", str(path))


def test_soundness_file_and_dir_is_usage_error(capsys):
    path = str(PROGRAMS / "sound" / "p1_third.mem")
    assert "not both" in assert_usage_error(capsys, "soundness", path, "--dir", str(PROGRAMS / "sound"))
