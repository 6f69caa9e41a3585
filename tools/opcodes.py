"""Count the Python opcodes that importing the package, the front end and
one warm pass of the checker execute.

    python tools/opcodes.py

Prints a JSON object with six counts:

- ``criterion6_check_soundness``: ``check_soundness`` over criterion 6's
  corpus, ``progen.soundness_corpus(200, 20243)``;
- ``family_den_program``: ``den_program`` over the fresh_denote family,
  n = 1..5 (``membench/workloads.py``'s ``family_text``);
- ``criterion6_setup``: generating criterion 6's corpus, then printing,
  parsing and typechecking each program, as the soundness_corpus
  benchmark sets up its items;
- ``import``: one warm re-import of the eight modules that
  ``membench/run.py``'s ``import_memlang`` imports, after the ``memlang``
  modules are dropped from ``sys.modules``, as it does.  Compiling the
  source is C and is not counted, nor are the frames of the import system
  itself, which differ with whether a bytecode cache exists; what the
  modules run as they load (class bodies and whatever they call) is;
- ``bound_nested_terminal_paths``: ``terminal_paths`` on ``bound_nested(200)``,
  a chain of 200 lets each nested in the bound position of the next,
  whose cost per step must not grow with the depth of the chain;
- ``heavy_check_soundness``: ``check_soundness`` over ``heavy_programs(50, 8)``,
  50 programs each drawn by a new ``ProgramGen(rng, 6, 5, 4, 12)`` on one
  ``random.Random(8)``: larger programs than criterion 6's, with more
  memfns and fresh atoms.

Each checker pass is counted with ``sys.settrace`` and
``frame.f_trace_opcodes`` after one untraced pass over the same program
objects, so the caches a term keeps on itself (its size, its free
variables, its hash) are warm.  The set-up builds its programs afresh,
so it is counted once, on new objects, after the library has run once;
the re-import is counted after one untraced re-import.
Unlike wall time, the count does not depend on the load of the machine:
for one tree and one Python version it is fixed once the hash seed is, so
the script runs itself again under ``PYTHONHASHSEED=0`` when that is not
set.  It imports the ``memlang`` of the tree it lives in.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from memlang import denot, opsem, progen, syntax, typecheck  # noqa: E402
from membench.workloads import FAMILY_SIZES, family_text  # noqa: E402


# membench/run.py's MODULES, in its order
MODULES = ("syntax", "typecheck", "dist", "bigraph", "opsem", "denot", "progen", "cli")


def count_opcodes(run) -> int:
    """Opcodes executed by ``run()``, counted in every Python frame it
    enters except the import system's own.  The cyclic collector is paused
    meanwhile, so no finalizer of other garbage runs inside the count."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename.startswith("<frozen importlib"):
            return None
        frame.f_trace_opcodes = True
        return local

    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
        if collecting:
            gc.enable()
    return count


def warm_count(fn, programs) -> int:
    def run():
        for program in programs:
            fn(program)

    run()
    return count_opcodes(run)


def set_up(count: int, seed: int) -> None:
    """Generate ``soundness_corpus(count, seed)``, then print, parse and
    typecheck each program."""
    for program in progen.soundness_corpus(count, seed):
        parsed = syntax.parse_program(syntax.pretty(program))
        typecheck.type_of_comp(typecheck.EMPTY_CTX, parsed)


def bound_nested(depth: int) -> syntax.Comp:
    """``let y1 <- (let y0 <- flip(1/2) in return y0) in return y1``,
    ``depth`` lets deep, each in the bound position of the next."""
    term = syntax.Flip(Fraction(1, 2))
    for i in range(depth):
        term = syntax.Let(f"y{i}", term, syntax.Return(syntax.Var(f"y{i}")))
    return term


def heavy_programs(count: int, seed: int) -> list[syntax.Comp]:
    """``count`` programs, each drawn by a new ``ProgramGen(rng, 6, 5, 4, 12)``
    on one ``random.Random(seed)``.  One generator reused for every program
    would spend its budgets on the first and make trivial programs after it."""
    rng = random.Random(seed)
    return [progen.ProgramGen(rng, 6, 5, 4, 12).program() for _ in range(count)]


def import_count() -> int:
    """Opcodes of one warm re-import of ``MODULES``.  The modules imported
    before the call are put back afterwards, so a caller keeps its own."""
    kept = _drop_memlang()

    def reimport():
        _drop_memlang()
        for name in MODULES:
            importlib.import_module(f"memlang.{name}")

    try:
        reimport()
        return count_opcodes(reimport)
    finally:
        _drop_memlang()
        sys.modules.update(kept)


def _drop_memlang() -> dict:
    """Remove the ``memlang`` modules from ``sys.modules`` and return them."""
    names = [name for name in sys.modules if name.partition(".")[0] == "memlang"]
    return {name: sys.modules.pop(name) for name in names}


def main() -> None:
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    corpus = progen.soundness_corpus(200, 20243)
    family = [syntax.parse_program(family_text(n)) for n in FAMILY_SIZES]
    counts = {
        "criterion6_check_soundness": warm_count(denot.check_soundness, corpus),
        "family_den_program": warm_count(denot.den_program, family),
        "criterion6_setup": count_opcodes(lambda: set_up(200, 20243)),
        "import": import_count(),
        "bound_nested_terminal_paths": warm_count(opsem.terminal_paths, [bound_nested(200)]),
        "heavy_check_soundness": warm_count(denot.check_soundness, heavy_programs(50, 8)),
    }
    print(json.dumps(counts, indent=1))


if __name__ == "__main__":
    main()
