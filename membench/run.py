"""Benchmark of the memlang checker, end to end and per module.

Usage, from the root of the repository:

    python3 membench/run.py --workload soundness_corpus --seed 1 --seconds 60 --trace 0

Workloads: soundness_corpus and fresh_denote (see workloads.py and
BENCHMARK.json for why each is there), or ``all``, which runs each in its
own fresh process and prints every figure.

A run imports memlang from ``src/`` and builds its items (set-up, timed
``SETUP_REPEATS`` times with a fresh import each time, spread over the run;
the median is ``setup_s``).  It then runs the items for ``--seconds``: every
item once, then cheap items in every round and multi-second ones less often
(see ``run_items``).  Every item starts from ``denot.clear_caches()``, as one
``memlang`` invocation on one file does, and has a time limit past which it
counts as failed.  An item's latency is the least time its library calls
and verdict took over its runs.  The output rows of each item's first
passing run are digested outside the timed region, and the digest must
equal the one in ``baseline.json``.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  With ``--trace 1`` the run sets up once with the
library's entry points wrapped (tracing.py), then alternates untraced and
traced passes over all items for at most ``--seconds`` (at least one
pair), writes every span to
``membench/out/``, and reports the per-layer metrics (per traced pass;
set-up layers from the traced set-up) and the tracing overhead.  End-to-end
metrics come from untraced runs only.

Timing uses ``time.perf_counter`` and memory ``resource.getrusage`` on this
process alone.  Exit status: 0 when every output is correct, 1 when an
output check fails, 2 when memlang cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from tracing import Tracer, install, uninstall
from workloads import WORKLOADS, Item

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BASELINE = BENCH_DIR / "baseline.json"
TRACE_DIR = BENCH_DIR / "out"

MODULES = ("syntax", "typecheck", "dist", "bigraph", "opsem", "denot", "progen", "cli")
SETUP_REPEATS = 9
ITEM_LIMIT_S = 60.0
# run_items raises each item's allowance by seconds / ALLOWANCE_STEPS a round
ALLOWANCE_STEPS = 600
# latency_ms_tail is the highest percentile with TAIL_BEYOND items beyond it
# (p90 of the corpus); with no more items than that, the slowest.  Ten items
# beyond it would give p95, which rests on one 80 ms program and spread 0.15
# over seeds where p90 spread 0.06 to 0.12.
TAIL_BEYOND = 20

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
    ("growth_log2_per_n", "log2/n"),
)

# (metric, unit, phase, source): phase "setup" reads the one traced set-up,
# "pass" the traced passes divided by their number, "run" the traced passes
# as a whole.  Sources name a span's self time ("self:"), a call count
# ("calls:"), a counter ("count:") or a peak ("peak:").
PER_LAYER = (
    ("syntax.parse_s", "s", "setup", "self:syntax.parse_program"),
    ("typecheck.type_of_comp_s", "s", "setup", "self:typecheck.type_of_comp"),
    ("progen.soundness_corpus_s", "s", "setup", "self:progen.soundness_corpus"),
    ("opsem.enumerate_bigstep_s", "s", "pass", "self:opsem.enumerate_bigstep"),
    ("opsem.step_calls", "count", "pass", "count:opsem.step_calls"),
    ("opsem.terminals", "count", "pass", "count:opsem.terminals"),
    ("bigraph.rows_built", "count", "pass", "count:bigraph.rows_built"),
    ("bigraph.wirings_built", "count", "pass", "count:bigraph.wirings_built"),
    ("bigraph.completions_s", "s", "pass", "self:bigraph.completions"),
    ("bigraph.completions_expanded", "count", "pass", "count:bigraph.completions_expanded"),
    ("bigraph.peak_undef", "count", "run", "peak:bigraph.peak_undef"),
    ("denot.config_phase_s", "s", "pass", "config_phase"),
    ("denot.prob_true_calls", "count", "pass", "count:denot.prob_true_calls"),
    ("denot.prob_cache_entries", "count", "run", "peak:denot.prob_cache_entries"),
    ("denot.den_program_s", "s", "pass", "self:denot.den_program"),
    ("denot.den_mem_calls", "count", "pass", "calls:denot.den_mem"),
    ("denot.den_mem_s", "s", "pass", "self:denot.den_mem"),
    ("denot.canonicalize_calls", "count", "pass", "calls:denot.canonicalize"),
    ("denot.canonicalize_s", "s", "pass", "self:denot.canonicalize"),
    ("dist.findist_built", "count", "pass", "calls:dist.FinDist"),
    ("dist.findist_s", "s", "pass", "self:dist.FinDist"),
    ("dist.weighted_mix_s", "s", "pass", "self:dist.weighted_mix"),
    ("dist.dist_eq_s", "s", "pass", "self:dist.dist_eq"),
    ("trace.overhead", "ratio", "run", "overhead"),
)


class MemlangMissing(Exception):
    """The checkout has no memlang sources to benchmark."""


class ItemTimeout(Exception):
    """An item ran past its time limit."""


class Library(SimpleNamespace):
    """One import of the memlang modules."""

    def modules(self) -> list:
        return [getattr(self, name) for name in MODULES]


def import_memlang() -> Library:
    """Import memlang from ``src/`` afresh, dropping any earlier import."""
    if not (SRC / "memlang" / "__init__.py").is_file():
        raise MemlangMissing(f"no memlang package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "memlang" or n.startswith("memlang.")]:
        del sys.modules[name]
    lib = Library(**{name: importlib.import_module(f"memlang.{name}") for name in MODULES})
    if Path(lib.cli.__file__).resolve().parent != SRC / "memlang":
        raise MemlangMissing(f"memlang was imported from {lib.cli.__file__}, not {SRC}")
    return lib


@contextmanager
def time_limit(seconds: float):
    """Raise ItemTimeout in this process once ``seconds`` have passed."""

    def on_alarm(signum, frame):
        raise ItemTimeout(f"item exceeded its {seconds} s limit")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def expected_digest(workload: str) -> str | None:
    return json.loads(BASELINE.read_text(encoding="utf-8"))["digests"].get(workload)


def digest(rows: dict[int, dict]) -> str:
    """sha256 of each item's rows, as ``memlang`` prints them, in item order."""
    h = hashlib.sha256()
    for index in sorted(rows):
        h.update(json.dumps(rows[index], sort_keys=True, indent=2).encode())
        h.update(b"\n")
    return h.hexdigest()


@dataclass
class Runs:
    best: dict[int, float] = field(default_factory=dict)  # item index -> least latency, s
    spent: dict[int, float] = field(default_factory=dict)  # item index -> time in its runs, s
    count: dict[int, int] = field(default_factory=dict)  # item index -> number of its runs
    sizes: dict[int, int] = field(default_factory=dict)
    rows: dict[int, dict] = field(default_factory=dict)  # rows of each item's first passing run
    round_seconds: list[float] = field(default_factory=list)  # time in items, per round
    attempted: int = 0
    failed: int = 0


def _run_item(workload, lib: Library, item: Item, item_limit: float,
              tracer: Tracer | None) -> tuple[bool, object, float]:
    """One cold run of an item: its verdict, outputs and latency."""
    lib.denot.clear_caches()
    ok, outputs = False, None
    if tracer is not None:
        tracer.item = item.index
        tracer.open("bench.item")
    t0 = time.perf_counter()
    try:
        with time_limit(item_limit):
            ok, outputs = workload.evaluate(lib, item)
    except ItemTimeout as exc:
        print(f"item {item.index}: {exc}", file=sys.stderr)
    except Exception:  # a failing item is counted; the run goes on
        print(f"item {item.index} raised:", file=sys.stderr)
        traceback.print_exc()
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.close()
        tracer.item = -1
    return ok, outputs, elapsed


def run_items(workload, lib: Library, items: list[Item], seconds: float,
              item_limit: float = ITEM_LIMIT_S, tracer: Tracer | None = None,
              out: Runs | None = None, tick=None) -> Runs:
    """Runs of ``items`` for about ``seconds``, added to ``out`` when it is
    given.

    The first round runs every item once.  Each later round reruns the items
    that still fit in ``seconds`` and have taken less time so far than the
    round's allowance, which grows by ``seconds / ALLOWANCE_STEPS`` a round.
    In a 60 s run of the corpus, the three 3 to 7 s programs, which take 80%
    of a pass, run once, while the 2 ms ones run in every round, about twenty
    times spread over the whole run.  ``tick(elapsed)``, when given, is
    called before each run.

    Every run starts from cleared caches, as one ``memlang`` invocation on
    one file does, so its work does not depend on what ran before it.  An
    item's latency is the least of its runs (timeit's convention: other
    tenants of a shared host only ever add time).
    """
    out = Runs() if out is None else out
    step = seconds / ALLOWANCE_STEPS
    started = time.perf_counter()
    allowance = 0.0
    first = True
    while True:
        allowance += step
        busy = 0.0
        for item in items:
            elapsed = time.perf_counter() - started
            if not first and (out.spent[item.index] >= allowance
                              or elapsed + out.best[item.index] > seconds):
                continue
            if tick is not None:
                tick(elapsed)
            out.attempted += 1
            ok, outputs, latency = _run_item(workload, lib, item, item_limit, tracer)
            if tracer is not None:
                entries = len(getattr(lib.denot, "_PROB_CACHE", ()))
                tracer.peaks["denot.prob_cache_entries"] = max(
                    tracer.peaks["denot.prob_cache_entries"], entries)
            busy += latency
            out.best[item.index] = min(latency, out.best.get(item.index, latency))
            out.spent[item.index] = out.spent.get(item.index, 0.0) + latency
            out.count[item.index] = out.count.get(item.index, 0) + 1
            out.sizes[item.index] = item.size
            if not ok:
                out.failed += 1
            elif item.index not in out.rows:
                out.rows[item.index] = workload.to_json(lib, outputs)
        if busy:
            out.round_seconds.append(busy)
        first = False
        elapsed = time.perf_counter() - started
        if not any(elapsed + out.best[item.index] <= seconds for item in items):
            return out


def tail(sorted_values: list[float]) -> tuple[float, float, int]:
    """The tail value, its percentile and how many values lie beyond it."""
    n = len(sorted_values)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return sorted_values[rank - 1], 100 * rank / n, n - rank


def growth_log2_per_n(runs: Runs) -> float:
    """Least-squares slope of log2(median latency) against n, the number of
    fresh() and memfn constructs, over the three largest n."""
    by_size: dict[int, list[float]] = {}
    for index, seconds in runs.best.items():
        by_size.setdefault(runs.sizes[index], []).append(seconds)
    sizes = sorted(by_size)[-3:]
    if len(sizes) < 3:
        raise ValueError("growth needs items of at least three sizes")
    ys = [math.log2(statistics.median(by_size[n])) for n in sizes]
    mean_x, mean_y = statistics.fmean(sizes), statistics.fmean(ys)
    return (sum((x - mean_x) * (y - mean_y) for x, y in zip(sizes, ys))
            / sum((x - mean_x) ** 2 for x in sizes))


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    notes: list[str]

    def to_json(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in self.metrics.items()},
        }


def _check(workload, runs: Runs, notes: list[str]) -> bool:
    expected = expected_digest(workload.name)
    found = digest(runs.rows)
    notes.append(f"failed_ratio = {runs.failed}/{runs.attempted}")
    notes.append(f"digest = {found} ({'matches' if found == expected else 'DIFFERS FROM'}"
                 f" baseline {expected})")
    return runs.failed == 0 and found == expected


def measure(name: str, seed: int, seconds: float) -> Result:
    """An untraced run: the end-to-end metrics."""
    workload = WORKLOADS[name]
    setups = []

    def set_up():
        t0 = time.perf_counter()
        lib = import_memlang()
        items = workload.setup(lib, seed)
        setups.append(time.perf_counter() - t0)
        return lib, items

    def tick(elapsed):
        # later set-ups are spread over the run, so setup_s is not taken in
        # one moment of a host whose speed drifts
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * seconds / SETUP_REPEATS:
            kept = {n: m for n, m in sys.modules.items() if n.partition(".")[0] == "memlang"}
            set_up()
            # the run keeps its own import, which code in memlang may still
            # import from; the new one is freed at once, so that when it goes
            # does not move peak_rss_mb
            sys.modules.update(kept)
            gc.collect()

    lib, items = set_up()
    runs = run_items(workload, lib, items, seconds, tick=tick)
    while len(setups) < SETUP_REPEATS:
        tick(math.inf)
    notes: list[str] = []
    correct = _check(workload, runs, notes)
    latencies = sorted(runs.best.values())
    tail_s, percentile, beyond = tail(latencies)
    counts = sorted(runs.count.values())
    notes.append(f"latency_ms_tail is p{percentile:g} of {len(latencies)} items "
                 f"({beyond} beyond it); {runs.attempted} timed runs in "
                 f"{len(runs.round_seconds)} rounds, {counts[0]} to {counts[-1]} per item")
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": len(latencies) / sum(latencies),
        "latency_ms_p50": statistics.median(latencies) * 1000,
        "latency_ms_tail": tail_s * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "growth_log2_per_n": growth_log2_per_n(runs),
    }
    units = dict(END_TO_END)
    return Result(correct, runs.attempted, runs.failed,
                  {k: (v, units[k]) for k, v in metrics.items()}, notes)


def _layer_value(source: str, totals: dict, tracer: Tracer, overhead: float) -> float:
    if source == "overhead":
        return overhead
    if source == "config_phase":
        # check_soundness's time outside den_program and enumerate_bigstep
        total = tracer.duration("denot.check_soundness")
        inner = (tracer.duration("denot.den_program", parent="denot.check_soundness")
                 + tracer.duration("opsem.enumerate_bigstep", parent="denot.check_soundness"))
        return total - inner
    kind, key = source.split(":", 1)
    return float(totals[kind].get(key, 0))


def _totals(tracer: Tracer) -> dict:
    return {"self": dict(tracer.self_s), "calls": dict(tracer.calls),
            "count": dict(tracer.counts), "peak": dict(tracer.peaks)}


def measure_traced(name: str, seed: int, seconds: float) -> tuple[Result, Tracer]:
    """A traced run: the per-layer metrics and the tracing overhead."""
    workload = WORKLOADS[name]
    lib = import_memlang()
    tracer = Tracer()
    patches = install(lib, tracer)
    with tracer.span("bench.setup"):
        items = workload.setup(lib, seed)
    uninstall(patches)
    setup_totals = _totals(tracer)
    tracer.reset_totals()
    first_pass_span = len(tracer.span_start)
    # untraced and traced passes alternate, so a change in the host's
    # speed during the run reaches both sides
    plain, traced = Runs(), Runs()
    started = time.perf_counter()
    last = 0.0
    while last == 0.0 or time.perf_counter() - started + last <= seconds:
        pair_started = time.perf_counter()
        run_items(workload, lib, items, 0, out=plain)
        patches = install(lib, tracer)
        run_items(workload, lib, items, 0, tracer=tracer, out=traced)
        uninstall(patches)
        last = time.perf_counter() - pair_started
    pass_totals = _totals(tracer)
    notes: list[str] = []
    plain_ok = _check(workload, plain, notes)
    correct = _check(workload, traced, notes) and plain_ok
    # least pass time on each side, like item latencies
    overhead = min(traced.round_seconds) / min(plain.round_seconds) - 1
    notes.append(f"tracing overhead = {overhead:.4f} (least traced pass "
                 f"{min(traced.round_seconds):.4f} s of {len(traced.round_seconds)}, least "
                 f"untraced {min(plain.round_seconds):.4f} s of {len(plain.round_seconds)})")
    notes.append(f"spans recorded = {len(tracer.span_start)} "
                 f"({len(tracer.span_start) - first_pass_span} in traced passes)")
    metrics = {}
    for metric, unit, phase, source in PER_LAYER:
        totals = setup_totals if phase == "setup" else pass_totals
        value = _layer_value(source, totals, tracer, overhead)
        if phase == "pass":
            value /= len(traced.round_seconds)
        metrics[metric] = (value, unit)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    return Result(correct, attempted, failed, metrics, notes), tracer


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    # a run may overrun --seconds by its first pass (a traced pair of
    # passes) and its set-ups; each item is bounded by ITEM_LIMIT_S
    limit = 2 * seconds + 2 * ITEM_LIMIT_S
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        try:
            child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=limit)
        except subprocess.TimeoutExpired:
            print(f"[{name}] did not finish within {limit} s", file=sys.stderr)
            return 1
        lines = child.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if child.returncode not in (0, 1) or not lines:
            print(f"[{name}] exited with {child.returncode}", file=sys.stderr)
            return child.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        if args.trace:
            result, tracer = measure_traced(args.workload, args.seed, args.seconds)
            path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(path, {"workload": args.workload, "seed": args.seed})
            result.notes.append(f"spans written to {path.relative_to(ROOT)}")
        else:
            result = measure(args.workload, args.seed, args.seconds)
    except MemlangMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for metric, (value, unit) in result.metrics.items():
        print(f"{metric} = {value} {unit}")
    for note in result.notes:
        print(note)
    print(json.dumps(result.to_json()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
