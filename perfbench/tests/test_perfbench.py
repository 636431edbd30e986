"""Tests of the benchmark itself (run: ``python3 -m pytest perfbench/tests``).

They drive ``perfbench/run.py`` at the reduced ``smoke`` size, so they
check the benchmark's plumbing and its checks, not the program's speed.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import layers, run
from perfbench.tracer import Tracer, bucket_bounds, bucket_of, quantile_ns
from perfbench.workloads import WORKLOADS

REPO = Path(__file__).resolve().parents[2]
BENCH = json.loads((REPO / "BENCHMARK.json").read_text())


def drive(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    return doc


def test_benchmark_json_matches_run_py():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == list(
        layers.PER_LAYER
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = drive("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", trace, "--size", "smoke")
    doc = result_of(proc)
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    declared = BENCH["per_layer"] if trace == "1" else BENCH["end_to_end"]
    assert list(doc["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = doc["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    text = proc.stdout
    printed = [m["name"] for m in declared]
    if trace == "1":
        printed += [name for name, _, _ in layers.WORKLOAD_SPECIFIC]
    for name in printed:
        assert name in text
    assert "failed_frac" in text and "provenance" in text


def test_default_seed_matches_the_recorded_outputs():
    doc = result_of(drive("--workload", "stream-qos", "--seconds", "0", "--size", "smoke"))
    assert doc["correct"] and doc["failed"] == 0


def bench_copy(root: Path) -> Path:
    """A checkout holding ``BENCHMARK.json`` and ``perfbench/`` only."""
    shutil.copy(REPO / "BENCHMARK.json", root)
    shutil.copytree(REPO / "perfbench", root / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    return root


@pytest.mark.parametrize("workload", ["burst-eft", "sweep-pool"])
def test_a_tampered_recorded_value_fails_the_run(tmp_path, workload):
    checkout = bench_copy(tmp_path)
    (checkout / "src").symlink_to(REPO / "src", target_is_directory=True)
    recorded = checkout / "perfbench" / "expected.json"
    expected = json.loads(recorded.read_text())
    entry = expected["smoke"][workload]
    if workload == "sweep-pool":
        entry["rows"][1]["makespan_ms"] += 1e-3
    else:
        entry["makespan_ms"] += 1e-3
    recorded.write_text(json.dumps(expected))
    doc = result_of(drive("--workload", workload, "--seconds", "0", "--size", "smoke",
                          cwd=checkout))
    assert not doc["correct"]
    assert 0 < doc["failed"] <= doc["attempted"]


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    proc = drive("--workload", "burst-eft", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=bench_copy(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _spin(ns: int) -> None:
    end = time.perf_counter_ns() + ns
    while time.perf_counter_ns() < end:
        pass


class _Layered:
    def root(self):
        _spin(20_000)
        for _ in range(3):
            self.child()
        _spin(10_000)

    def child(self):
        _spin(5_000)
        self.leaf()

    def leaf(self):
        _spin(2_000)


def test_tracer_self_times_add_up_to_the_root():
    tracer = Tracer(window=100)
    for name in ("root", "child", "leaf"):
        tracer.wrap(_Layered, name, name)
    try:
        _Layered().root()
    finally:
        tracer.uninstall()
    aggs = tracer.aggs
    assert [aggs[n].count for n in ("root", "child", "leaf")] == [1, 3, 3]
    assert all(a.self_ns >= 0 for a in aggs.values())
    assert sum(a.self_ns for a in aggs.values()) == aggs["root"].total_ns
    assert aggs["child"].self_ns == aggs["child"].total_ns - aggs["leaf"].total_ns
    assert _Layered.root.__name__ == "root" and not hasattr(_Layered.root, "__wrapped__")


def test_traced_run_spans_add_up_within_rounding(tmp_path):
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, "perfbench/workloads.py", "--workload", "burst-eft",
         "--size", "smoke", "--tmp", str(tmp_path / "tmp"), "--trace", str(trace)],
        cwd=REPO, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    agg = doc["trace"]["aggs"]
    metrics = doc["trace"]["layers"]
    assert all(self_ns >= 0 for _count, _total, self_ns in agg.values())

    events = json.loads(trace.read_text())["traceEvents"]
    assert events and doc["trace"]["aggs"][layers.ROOT][0] == 1
    by_id = {e["args"]["id"]: e for e in events}
    child_us: dict[int, float] = {}
    for e in events:
        parent = e["args"]["parent"]
        if parent:
            assert parent in by_id, "span window must hold every parent"
            child_us[parent] = child_us.get(parent, 0.0) + e["dur"]
    self_us = {i: e["dur"] - child_us.get(i, 0.0) for i, e in by_id.items()}
    assert min(self_us.values()) > -1e-3

    def root_of(e):
        while e["args"]["parent"]:
            e = by_id[e["args"]["parent"]]
        return e

    (root,) = [e for e in events if e["name"] == layers.ROOT]
    tree = [i for i, e in by_id.items() if root_of(e) is root]
    assert sum(self_us[i] for i in tree) == pytest.approx(root["dur"], abs=1e-3 * len(tree))
    assert self_us[root["args"]["id"]] == pytest.approx(
        metrics["virtual.self_s"] * 1e6, abs=1e-3 * len(tree)
    )
    children = sum(self_us[i] for i in tree if i != root["args"]["id"])
    assert children + metrics["virtual.self_s"] * 1e6 == pytest.approx(
        metrics["virtual.run_s"] * 1e6, abs=1e-3 * len(tree)
    )


def test_histogram_buckets_cover_each_duration():
    rng = random.Random(1)
    for ns in [0, 1, 31, 32, 33, 63, 64, 1000] + [rng.randrange(1, 10**10) for _ in range(2000)]:
        lo, hi = bucket_bounds(bucket_of(ns))
        assert lo <= ns < hi


def test_histogram_quantiles_track_the_samples():
    rng = random.Random(2)
    samples = sorted(rng.randrange(1_000, 1_000_000) for _ in range(5000))
    hist: dict[int, int] = {}
    for ns in samples:
        b = bucket_of(ns)
        hist[b] = hist.get(b, 0) + 1
    for q in (0.5, 0.99):
        exact = samples[int(q * len(samples)) - 1]
        assert quantile_ns(hist, q) == pytest.approx(exact, rel=0.07)
