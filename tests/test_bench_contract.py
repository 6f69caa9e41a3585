"""The library names the benchmark under ``membench/`` calls or wraps.

``membench/tracing.py`` wraps functions and methods by name, and
``membench/run.py`` and ``membench/workloads.py`` call more; a rename breaks
a benchmark run, traced or not, without failing any other test.  The
tracer is loaded from its file, read-only, and installed on memlang imported
afresh, as the benchmark imports it."""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

MEMBENCH = Path(__file__).resolve().parent.parent / "membench"
# the modules membench/run.py imports, in its order
MODULES = ("syntax", "typecheck", "dist", "bigraph", "opsem", "denot", "progen", "cli")
# the names membench/run.py and membench/workloads.py call or read
CALLED = [
    ("denot", "clear_caches"),
    ("denot", "check_soundness"),
    ("denot", "den_program"),
    ("cli", "_sorted_dist"),
    ("cli", "_class_row"),
    ("opsem", "BoolV"),
    ("dist", "HALF"),
    ("typecheck", "EMPTY_CTX"),
    ("typecheck", "type_of_comp"),
    ("syntax", "parse_program"),
    ("syntax", "pretty"),
    ("progen", "soundness_corpus"),
]


def _is_memlang(name: str) -> bool:
    return name == "memlang" or name.startswith("memlang.")


@pytest.fixture(scope="module")
def fresh_memlang():
    """memlang imported afresh; the modules other tests hold are put back
    in ``sys.modules`` at once, so only this namespace sees the new ones."""
    saved = {name: module for name, module in sys.modules.items() if _is_memlang(name)}
    for name in saved:
        del sys.modules[name]
    try:
        modules = {name: importlib.import_module(f"memlang.{name}") for name in MODULES}
    finally:
        for name in [name for name in sys.modules if _is_memlang(name)]:
            del sys.modules[name]
        sys.modules.update(saved)
    return SimpleNamespace(**modules, modules=lambda: list(modules.values()))


def _tracing():
    spec = importlib.util.spec_from_file_location("membench_tracing", MEMBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, name", CALLED, ids=lambda x: x)
def test_the_benchmark_finds_the_names_it_calls(fresh_memlang, module, name):
    assert hasattr(getattr(fresh_memlang, module), name)


def test_the_benchmark_tracer_installs_counts_and_uninstalls(fresh_memlang):
    lib, tracing = fresh_memlang, _tracing()
    tracer = tracing.Tracer()
    patches = tracing.install(lib, tracer)
    try:
        program = lib.syntax.parse_program("let val f <- memfn x. flip(1/3) in let val a <- fresh() in f @ a")
        assert lib.denot.check_soundness(program).equal
        graph, _ = lib.bigraph.empty().add_right_undef()
        graph.add_left_undef()[0].completions()
    finally:
        tracing.uninstall(patches)
    assert tracer.counts["bigraph.rows_built"] > 0 and tracer.counts["bigraph.wirings_built"] > 0
    assert tracer.calls["denot.check_soundness"] == 1
    assert tracer.counts["bigraph.completions_expanded"] == 2
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original
