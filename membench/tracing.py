"""Spans and counters for traced benchmark runs.

The library is not edited: ``install`` replaces public functions and methods
of an imported memlang with wrappers, as module or class attributes, in the
traced process only, and ``uninstall`` puts the originals back.  A wrapper opens a span (name, start, end,
parent span, item id) around the call and may count something about the
result.  Spans are kept in memory in flat arrays and written out at exit.

A span's self time is its duration minus the time its direct child spans
cover, so a recursive call such as ``denot.den_mem`` is not counted twice,
and the self times of all spans add up to the durations of the root spans.
"""

from __future__ import annotations

import array
import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array.array("q")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.span_parent = array.array("q")
        self.span_item = array.array("q")
        self.item = -1
        self._stack: list[list] = []  # [span index, time covered by children]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.peaks: Counter[str] = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> None:
        index = len(self.span_start)
        self.span_name.append(self._id(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_item.append(self.item)
        self.span_end.append(0.0)
        self._stack.append([index, 0.0])
        self.span_start.append(time.perf_counter())

    def close(self) -> None:
        end = time.perf_counter()
        index, covered = self._stack.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        name = self.names[self.span_name[index]]
        self.self_s[name] += duration - covered
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration

    @contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def reset_totals(self) -> None:
        """Start new aggregates; recorded spans are kept."""
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.peaks = Counter()

    def duration(self, name: str, parent: str | None = None) -> float:
        """Total duration of the spans named ``name``, only those whose
        parent span is named ``parent`` when it is given."""
        if name not in self._ids or (parent is not None and parent not in self._ids):
            return 0.0
        wanted = self._ids[name]
        parent_id = None if parent is None else self._ids[parent]
        names, parents = self.span_name, self.span_parent
        total = 0.0
        for i in range(len(names)):
            if names[i] != wanted:
                continue
            p = parents[i]
            if parent_id is None or (p >= 0 and names[p] == parent_id):
                total += self.span_end[i] - self.span_start[i]
        return total

    def write(self, path: Path, header: dict) -> None:
        """Write every span as JSON columns; start and end are seconds on
        ``time.perf_counter``'s clock."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(header)
        payload["names"] = self.names
        payload["spans"] = {
            "name": self.span_name.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
            "item": self.span_item.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _spanned(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if after is not None:
            after(tracer, result)
        return result

    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _replace_function(lib, module_name: str, attr: str, make, patches: list) -> None:
    """Replace a module-level function everywhere memlang bound it, so calls
    through ``from .dist import weighted_mix`` are wrapped too."""
    original = getattr(getattr(lib, module_name), attr)
    wrapper = make(original)
    for module in lib.modules():
        for key, value in list(vars(module).items()):
            if value is original:
                patches.append((module, key, original))
                setattr(module, key, wrapper)


def _replace_method(cls, attr: str, wrapper, patches: list) -> None:
    patches.append((cls, attr, getattr(cls, attr)))
    setattr(cls, attr, wrapper)


def _count_terminals(tracer: Tracer, dist) -> None:
    tracer.counts["opsem.terminals"] += len(dist)


def _count_completions(tracer: Tracer, completions) -> None:
    tracer.counts["bigraph.completions_expanded"] += len(completions)
    undefined = len(completions[0][1]) if completions else 0
    tracer.peaks["bigraph.peak_undef"] = max(tracer.peaks["bigraph.peak_undef"], undefined)


# (module, function, span name, result hook); span names are "module.function".
SPANNED_FUNCTIONS = (
    ("syntax", "parse_program", None),
    ("typecheck", "type_of_comp", None),
    ("progen", "soundness_corpus", None),
    ("opsem", "enumerate_bigstep", _count_terminals),
    ("denot", "check_soundness", None),
    ("denot", "den_program", None),
    ("denot", "den_mem", None),
    ("denot", "canonicalize", None),
    ("dist", "weighted_mix", None),
    ("dist", "dist_eq", None),
)

# (module, function, counter name): calls counted without a span.
COUNTED_FUNCTIONS = (
    ("opsem", "step", "opsem.step_calls"),
    ("denot", "prob_true", "denot.prob_true_calls"),
)


def install(lib, tracer: Tracer) -> list:
    """Wrap the traced entry points of the memlang modules held by ``lib``;
    returns the replaced attributes for ``uninstall``."""
    patches: list = []
    for module, attr, after in SPANNED_FUNCTIONS:
        name = f"{module}.{attr}"
        _replace_function(lib, module, attr,
                          lambda fn, name=name, after=after: _spanned(tracer, name, fn, after),
                          patches)
    for module, attr, counter in COUNTED_FUNCTIONS:
        _replace_function(lib, module, attr,
                          lambda fn, counter=counter: _counted(tracer, counter, fn), patches)
    graph = lib.bigraph.TotalBigraph
    _replace_method(graph, "add_left_defined",
                    _counted(tracer, "bigraph.rows_built", graph.add_left_defined), patches)
    _replace_method(graph, "add_right_defined",
                    _counted(tracer, "bigraph.wirings_built", graph.add_right_defined), patches)
    partial = lib.bigraph.PartialBigraph
    _replace_method(partial, "completions",
                    _spanned(tracer, "bigraph.completions", partial.completions,
                             _count_completions), patches)
    findist = lib.dist.FinDist
    _replace_method(findist, "__init__",
                    _spanned(tracer, "dist.FinDist", findist.__init__), patches)
    return patches


def uninstall(patches: list) -> None:
    """Put back what ``install`` replaced."""
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
