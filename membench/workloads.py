"""The two benchmark workloads.

Each workload builds its items from the seed in ``setup`` and checks one
item in ``evaluate``, through the library's public entry points only.

The programs are fixed: soundness_corpus uses criterion 6's corpus
(``progen.soundness_corpus(200, 20243)``) and fresh_denote the scaling
family.  A corpus drawn afresh from each seed would make runs incomparable,
because the corpus cost is heavy-tailed: 200 programs took from 6 s to over
37 s depending on the generator seed on a 2-core x86 machine.  The seed sets
the order the items run in, so every seed gives the same digest.

``evaluate`` returns the verdict and the raw outputs; ``to_json`` turns the
outputs into the rows ``memlang`` prints (sorted-key JSON), which the
harness digests outside the timed region.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from types import SimpleNamespace

CORPUS_SIZE = 200
CORPUS_SEED = 20243
FAMILY_SIZES = range(1, 6)

_NAME_CONSTRUCT = re.compile(r"\bfresh\b|\bmemfn\b")


@dataclass
class Item:
    index: int  # position in the unshuffled input list; digests follow it
    size: int  # number of fresh() and memfn constructs in the program
    program: object


def name_constructs(text: str) -> int:
    return len(_NAME_CONSTRUCT.findall(text))


def _parsed_items(lib: SimpleNamespace, texts: list[str], rng: random.Random) -> list[Item]:
    """Parse and typecheck every text, in an order drawn from ``rng``."""
    order = list(range(len(texts)))
    rng.shuffle(order)
    items = []
    for index in order:
        program = lib.syntax.parse_program(texts[index])
        lib.typecheck.type_of_comp(lib.typecheck.EMPTY_CTX, program)
        items.append(Item(index, name_constructs(texts[index]), program))
    return items


def _corpus_texts(lib: SimpleNamespace) -> list[str]:
    programs = lib.progen.soundness_corpus(CORPUS_SIZE, CORPUS_SEED)
    return [lib.syntax.pretty(program) for program in programs]


def _mass_is_one(dist) -> bool:
    return sum((p for _, p in dist.items()), 0) == 1


class SoundnessCorpus:
    name = "soundness_corpus"

    def setup(self, lib: SimpleNamespace, seed: int) -> list[Item]:
        return _parsed_items(lib, _corpus_texts(lib), random.Random(seed))

    def evaluate(self, lib: SimpleNamespace, item: Item):
        report = lib.denot.check_soundness(item.program)
        return report.equal, report

    def to_json(self, lib: SimpleNamespace, report) -> dict:
        # the payload of `memlang soundness FILE`, less the file name
        payload = {
            "equal": report.equal,
            "lhs": lib.cli._sorted_dist(report.lhs, lib.cli._class_row),
            "rhs": lib.cli._sorted_dist(report.rhs, lib.cli._class_row),
            "bias_formula_agrees": report.bias_formula_agrees,
        }
        if not report.bias_formula_agrees:
            payload["bias_formula_rhs"] = lib.cli._sorted_dist(
                report.bias_formula_rhs, lib.cli._class_row)
        return payload


def family_text(n: int) -> str:
    """``a0..a{n-1} <- fresh(); f, g <- memfn x. flip(1/2); f @ a0``: the
    unused g still costs 2^n rows in den_mem."""
    atoms = "".join(f"let val a{i} <- fresh() in " for i in range(n))
    return (atoms + "let val f <- memfn x. flip(1/2) in "
            "let val g <- memfn x. flip(1/2) in f @ a0")


class FreshDenote:
    name = "fresh_denote"

    def setup(self, lib: SimpleNamespace, seed: int) -> list[Item]:
        texts = [family_text(n) for n in FAMILY_SIZES]
        return _parsed_items(lib, texts, random.Random(seed))

    def evaluate(self, lib: SimpleNamespace, item: Item):
        dist = lib.denot.den_program(item.program)
        half = lib.dist.HALF
        ok = _mass_is_one(dist) and len(dist) == 2 and all(
            isinstance(cls.value, lib.opsem.BoolV)
            and not (cls.fresh_funs or cls.fresh_atoms or cls.ext_edges)
            and p == half
            for cls, p in dist.items()
        )
        return ok, dist

    def to_json(self, lib: SimpleNamespace, dist) -> dict:
        return {"distribution": lib.cli._sorted_dist(dist, lib.cli._class_row)}


WORKLOADS = {w.name: w for w in (SoundnessCorpus(), FreshDenote())}
