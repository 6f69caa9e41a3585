"""tools/opcodes.py's counters, run on a few programs, so the script keeps
working as the package changes."""

import importlib.util
import sys
from pathlib import Path

from memlang import denot, opsem, progen

TOOL = Path(__file__).resolve().parent.parent / "tools" / "opcodes.py"


def _tool():
    spec = importlib.util.spec_from_file_location("opcodes_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_set_up_count_is_positive_and_repeatable():
    tool = _tool()
    tool.set_up(3, 20243)  # a first call runs some one-time work of the library
    first = tool.count_opcodes(lambda: tool.set_up(3, 20243))
    assert first > 1000
    assert tool.count_opcodes(lambda: tool.set_up(3, 20243)) == first
    assert tool.count_opcodes(lambda: tool.set_up(6, 20243)) > first


def test_the_warm_checker_count_is_positive_and_repeatable():
    tool = _tool()
    programs = progen.soundness_corpus(3, 20243)
    first = tool.warm_count(denot.check_soundness, programs)
    assert first > 1000
    assert tool.warm_count(denot.check_soundness, programs) == first
    family = [tool.syntax.parse_program(tool.family_text(n)) for n in (1, 2)]
    assert tool.warm_count(denot.den_program, family) > 0


def test_the_import_count_is_positive_and_repeatable():
    tool = _tool()
    before = {name: module for name, module in sys.modules.items() if name.startswith("memlang")}
    first = tool.import_count()
    assert first > 1000
    assert tool.import_count() == first
    # the caller's own modules are put back
    assert {name: module for name, module in sys.modules.items() if name.startswith("memlang")} == before


def test_the_bound_nested_count_repeats_and_grows_linearly():
    # refocusing finds each redex from the hole, so a step costs the same
    # at any depth of the chain above it; a search from the root makes the
    # count quadratic, and the ratio about 4
    tool = _tool()
    first = tool.warm_count(opsem.terminal_paths, [tool.bound_nested(200)])
    assert first > 1000
    assert tool.warm_count(opsem.terminal_paths, [tool.bound_nested(200)]) == first
    assert tool.warm_count(opsem.terminal_paths, [tool.bound_nested(400)]) < 2.5 * first


def test_the_heavy_count_is_positive_and_repeatable():
    tool = _tool()
    programs = tool.heavy_programs(3, 8)
    # the first programs of the counted set, drawn the same way each time
    assert programs == tool.heavy_programs(50, 8)[:3]
    first = tool.warm_count(denot.check_soundness, programs)
    assert first > 1000
    assert tool.warm_count(denot.check_soundness, programs) == first


def test_the_family_growth_repeats_and_rises_with_n():
    tool = _tool()
    first = tool.family_growth()
    assert first == tool.family_growth()
    assert 0 < first["n3"] < first["n4"] < first["n5"]
    assert first["log2_per_n"] > 0


def test_the_terminal_sums_count_repeats_and_is_part_of_the_checker():
    # the work check_soundness does after terminal_paths, counted alone
    tool = _tool()
    programs = progen.soundness_corpus(3, 20243)
    first = tool.terminal_sums_count(programs)
    assert first > 1000
    assert tool.terminal_sums_count(programs) == first
    assert first < tool.warm_count(denot.check_soundness, programs)


def test_the_worlds_built_counts_repeat():
    # graphs built in one warm pass; _set is put back after each count
    tool = _tool()
    set_graph = tool.bigraph.PartialBigraph._set
    for fn, programs in (
        (denot.den_program, [tool.syntax.parse_program(tool.family_text(n)) for n in (1, 2, 3)]),
        (denot.check_soundness, progen.soundness_corpus(5, 20243)),
    ):
        first = tool.worlds_built(fn, programs)
        assert first > 0
        assert tool.worlds_built(fn, programs) == first
        assert tool.bigraph.PartialBigraph._set is set_graph
