"""Tests of the benchmark itself: python -m pytest membench"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import run
from tracing import Tracer, install
from workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def _fresh_items(lib, sizes):
    items = WORKLOADS["fresh_denote"].setup(lib, seed=0)
    return [item for item in items if item.size - 2 in sizes]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(capsys, trace, section):
    code = run.main(["--workload", "fresh_denote", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    printed = _last_json(capsys)
    assert code == 0 and printed["correct"] and printed["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in printed["metrics"].items()} == declared


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_perturbed_distribution_fails_digest_check():
    lib = run.import_memlang()
    workload = WORKLOADS["fresh_denote"]
    items = workload.setup(lib, seed=0)
    good = run.run_items(workload, lib, items, seconds=0)
    assert good.failed == 0 and run.digest(good.rows) == run.expected_digest("fresh_denote")

    honest = lib.denot.den_program

    def perturbed(program):
        rows = [(cls, Fraction(1, 3) if cls.value.value else Fraction(2, 3))
                for cls, _ in honest(program).items()]
        return lib.dist.FinDist(rows)

    lib.denot.den_program = perturbed
    bad = run.run_items(workload, lib, items, seconds=0)
    assert bad.failed == len(items)
    assert run.digest(bad.rows) != run.digest(good.rows)
    assert not run._check(workload, bad, [])


def test_digest_sees_one_changed_probability():
    rows = {0: {"distribution": [{"prob": "1/2"}, {"prob": "1/2"}]}}
    changed = {0: {"distribution": [{"prob": "1/3"}, {"prob": "1/2"}]}}
    assert run.digest(rows) != run.digest(changed)


def test_traced_self_times_sum_to_traced_wall_time():
    lib = run.import_memlang()
    tracer = Tracer()
    install(lib, tracer)
    workload = WORKLOADS["fresh_denote"]
    with tracer.span("bench.setup"):
        items = _fresh_items(lib, {3, 4})
    runs = run.run_items(workload, lib, items, seconds=0, tracer=tracer)
    assert runs.failed == 0
    assert tracer.calls["denot.den_mem"] > 0 and tracer.calls["dist.FinDist"] > 0
    roots = tracer.duration("bench.setup") + tracer.duration("bench.item")
    assert math.isclose(sum(tracer.self_s.values()), roots, rel_tol=1e-9, abs_tol=1e-9)
    assert all(t >= -1e-9 for t in tracer.self_s.values())


def test_cheap_items_run_more_often_than_costly_ones():
    lib = run.import_memlang()
    workload = WORKLOADS["fresh_denote"]
    items = _fresh_items(lib, {1, 5})
    runs = run.run_items(workload, lib, items, seconds=1.0)
    cheap, costly = (runs.count[item.index] for item in sorted(items, key=lambda i: i.size))
    assert runs.failed == 0 and cheap > 2 * costly


def test_hang_guard_fires_on_tiny_limit():
    lib = run.import_memlang()
    workload = WORKLOADS["fresh_denote"]
    items = _fresh_items(lib, {5})
    runs = run.run_items(workload, lib, items, seconds=0, item_limit=0.001)
    assert runs.attempted == 1 and runs.failed == 1
    assert runs.best[items[0].index] < 0.25
    # the interrupted call leaves the library usable
    assert run.run_items(workload, lib, items, seconds=0).failed == 0


def test_fails_without_memlang_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "membench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    argv = [sys.executable, "membench/run.py", "--workload", "fresh_denote",
            "--seed", "0", "--seconds", "1", "--trace", "0"]
    child = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert child.returncode not in (0, 1)
    assert child.stdout == ""
