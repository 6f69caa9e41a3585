"""Every input maps to a documented exit code.

``cli.main`` on any source file returns 0, 1, 2, 3 or 64 and lets no
exception escape.  Sources are drawn as small raw bytes, and as soup of the
grammar's tokens mixed with short arbitrary text.  Each law suite, at a
drawn count and seed, exits 0 or 3 with its JSON report on stdout.
"""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memlang import cli

EXIT_CODES = {0, 1, 2, 3, 64}
COMMANDS = (["check"], ["denote"], ["enumerate"], ["soundness"], ["run", "--seed", "0"])

TOKENS = [
    "return", "let", "val", "in", "if", "then", "else", "match", "as",
    "flip", "fresh", "memfn", "true", "false",
    "<-", "==", "(", ")", ",", ".", "@", "/", "#",
    "x", "y", "f", "a", "0", "1", "2", "1/2", "0.5", "\n",
]

NAMES = st.sampled_from(["x", "y", "f", "a"])
VALUES = st.recursive(
    st.sampled_from(["true", "false"]) | NAMES,
    lambda v: st.tuples(v, v).map("({0[0]}, {0[1]})".format),
    max_leaves=3,
)
# well-formed programs, most of them ill-typed, so the evaluators run too
PROGRAMS = st.recursive(
    VALUES.map("return {}".format)
    | st.sampled_from(["flip(1/2)", "flip(0)", "flip(1)", "fresh()"])
    | st.tuples(VALUES, st.sampled_from(["==", "@"]), VALUES).map(" ".join),
    lambda c: st.tuples(NAMES, c, c).map("let val {0[0]} <- {0[1]} in {0[2]}".format)
    | st.tuples(VALUES, c, c).map("if {0[0]} then {0[1]} else {0[2]}".format)
    | st.tuples(VALUES, NAMES, NAMES, c).map("match {0[0]} as ({0[1]}, {0[2]}) in {0[3]}".format)
    | st.tuples(NAMES, c).map("memfn {0[0]}. {0[1]}".format),
    max_leaves=6,
)
SOUP = st.lists(st.sampled_from(TOKENS) | st.text(max_size=3) | PROGRAMS, max_size=12)

sources = st.binary(max_size=40) | PROGRAMS.map(str.encode) | SOUP.map(lambda parts: " ".join(parts).encode())


@pytest.fixture(scope="module")
def source_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.mem"


@settings(max_examples=150, deadline=None)
@given(sources)
@example("flip(²)".encode("utf-8"))
@example(b"let val a <- fresh() in let val f <- memfn x. flip(1/2) in f @ a")
def test_every_input_maps_to_a_documented_exit_code(source_path, data):
    source_path.write_bytes(data)
    for command in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([*command, str(source_path)])
        assert code in EXIT_CODES, (command, data)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["--mem", "--dataflow", "--monad"]), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_every_law_suite_run_reports_json_with_a_documented_exit_code(suite, count, seed):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["laws", suite, "--count", str(count), "--seed", str(seed)])
    assert code in (0, 3), (suite, count, seed)
    assert json.loads(out.getvalue())["command"] == "laws"
    assert "Traceback" not in err.getvalue()
