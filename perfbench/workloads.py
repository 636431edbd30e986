"""The benchmark's four workloads, and one repetition of one of them.

Run as a script, this file performs one repetition in the current (fresh)
process and prints one JSON object on stdout::

    python3 perfbench/workloads.py --workload burst-eft --seed 7 --tmp DIR
        [--size smoke] [--trace perfbench/out/trace.json]

The workloads are built from the program's public constructors
(``Emulation``, ``validation_workload``, ``workload_at_rate``,
``ArrivalSpec``, ``VirtualBackend``, ``run_campaign``).  The pure-Python
core is pinned in-process and, for campaign workers, through
``DSSOC_CORE``, so a stray native build cannot change what is measured.

Every workload is a batch job on the host: arrival schedules are in
modeled time inside the discrete-event simulation, so there is no
host-side load generator whose lateness would need reporting.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

#: set-ups per repetition; set-up time is the median of all of them
SETUPS = 7
#: a sweep-pool set-up takes about 1.5 ms, so each of its samples times
#: this many set-ups and divides by the count
SWEEP_SETUP_BATCH = 25
DEFAULT_SEED = 7
SWEEP_JOBS = 2

SDR_MIX = (("range_detection", 2.0), ("wifi_rx", 1.0), ("wifi_tx", 1.0))
QOS = {
    "deadlines": {"*": 2000.0},
    "admission": {"max_pending": 64, "policy": "drop-newest"},
}
SWEEP_CONFIGS = ("1C+0F", "1C+1F", "1C+2F", "2C+0F", "2C+1F", "2C+2F", "3C+2F")

#: per-size parameters; "smoke" is a reduced size for the benchmark's tests
SIZES: dict[str, dict[str, dict]] = {
    "full": {
        "burst-eft": {"apps": {"range_detection": 50, "wifi_tx": 37, "pulse_doppler": 12}},
        "steady-frfs": {"frames": 1.0},
        "stream-qos": {"duration_ms": 1500.0, "burst_ms": 22.5},
        "sweep-pool": {
            "configs": SWEEP_CONFIGS,
            "policies": ("frfs", "met", "eft"),
            "apps": ("range_detection", "wifi_tx", "wifi_rx"),
            "seeds": 4,
        },
    },
    "smoke": {
        "burst-eft": {"apps": {"range_detection": 3, "wifi_tx": 2, "pulse_doppler": 1}},
        "steady-frfs": {"frames": 0.05},
        "stream-qos": {"duration_ms": 60.0, "burst_ms": 3.0},
        "sweep-pool": {
            "configs": ("1C+1F", "2C+1F"),
            "policies": ("frfs", "eft"),
            "apps": ("wifi_tx",),
            "seeds": 2,
        },
    },
}
WORKLOADS = tuple(SIZES["full"])


def _emulation_setup(name: str, seed: int, p: dict):
    """``Emulation(...)`` + workload build + ``build_session``."""
    import repro.experiments.workloads as exp_workloads
    import repro.runtime.workload as workload_mod
    from repro.runtime.emulation import Emulation

    if name == "burst-eft":
        emu = Emulation(
            config="3C+2F", policy="eft", jitter=True, seed=seed,
            materialize_memory=False,
        )
        workload = workload_mod.validation_workload(dict(p["apps"]))
    elif name == "steady-frfs":
        emu = Emulation(
            config="3C+2F", policy="frfs", jitter=False, seed=seed,
            materialize_memory=False,
        )
        workload = exp_workloads.workload_at_rate(
            4.57, p["frames"] * exp_workloads.TIME_FRAME_US
        )
    else:  # stream-qos: 2.5 apps/ms with two 6x bursts at 25% and 60%
        d = p["duration_ms"]
        emu = Emulation(
            config="3C+2F", policy="frfs+edf", jitter=True, seed=seed,
            materialize_memory=False, qos=QOS,
        )
        workload = workload_mod.ArrivalSpec(
            kind="bursty", apps=SDR_MIX, rate_per_ms=2.5, duration_ms=d,
            seed=seed,
            bursts=((0.25 * d, p["burst_ms"], 15.0), (0.60 * d, p["burst_ms"], 15.0)),
        ).build()
    return emu.build_session(workload)


def _outputs(summary: dict) -> dict:
    """The modeled outputs the benchmark checks (``events`` excluded)."""
    qos = summary.get("qos") or {}
    return {
        "tasks": summary["tasks"],
        "apps_injected": summary["apps_injected"],
        "apps_completed": summary["apps_completed"],
        "apps_dropped": qos.get("apps_dropped", 0),
        "apps_degraded": summary["apps_degraded"],
        "makespan_ms": summary["makespan_ms"],
        "sched_invocations": summary["sched_invocations"],
        "interrupted": bool(summary.get("interrupted", False)),
    }


def run_emulation(name: str, seed: int, p: dict, setups: int) -> dict:
    from repro.runtime.backends.virtual import VirtualBackend

    setup_s = []
    session = None
    for _ in range(setups):
        session = None
        gc.collect()
        t0 = time.perf_counter()
        session = _emulation_setup(name, seed, p)
        setup_s.append(time.perf_counter() - t0)
    gc.collect()
    backend = VirtualBackend()
    t0 = time.perf_counter()
    stats = backend.run(session)
    run_s = time.perf_counter() - t0
    outputs = _outputs(stats.summary())
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "tasks": stats.task_count,
        "cells": 1,
        "outputs": outputs,
        "peak_rss_mb": _peak_rss_mb(),
    }


def sweep_grid(seed: int, p: dict):
    from repro.dse.grid import SweepGrid, validation_sweep

    return SweepGrid(
        configs=tuple(p["configs"]),
        policies=tuple(p["policies"]),
        workloads=tuple(validation_sweep({app: 1}) for app in p["apps"]),
        seeds=tuple(seed + i for i in range(p["seeds"])),
        jitter=True,
    )


def run_sweep(seed: int, p: dict, tmp: Path, setups: int) -> dict:
    """``run_campaign(grid, jobs=2, out_dir=<fresh dir>)``, cache and journal on."""
    import repro.dse.runner as runner_mod

    setup_s = []
    for i in range(setups):
        gc.collect()
        t0 = time.perf_counter()
        for j in range(SWEEP_SETUP_BATCH):
            cells = sweep_grid(seed, p).expand()
            out_dir = tmp / f"campaign-{i}-{j}"
            out_dir.mkdir(parents=True)
        setup_s.append((time.perf_counter() - t0) / SWEEP_SETUP_BATCH)
    t0 = time.perf_counter()
    result = runner_mod.run_campaign(cells, jobs=SWEEP_JOBS, out_dir=out_dir)
    run_s = time.perf_counter() - t0
    _reap_children()
    rows = [r.row() for r in result.results]
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "tasks": sum(r.get("tasks") or 0 for r in rows),
        "cells": len(rows),
        "rows": rows,
        "peak_rss_mb": _peak_rss_mb(),
    }


def _reap_children(timeout_s: float = 60.0) -> None:
    """Wait for the campaign's pool workers to exit (they are shut down
    without waiting), so no process outlives the repetition."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for proc in multiprocessing.active_children():
                proc.kill()
                proc.join(5)
            break
        time.sleep(0.01)


def _peak_rss_mb() -> float:
    """Peak RSS of this process or any reaped child (Linux: KiB units)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    scale = 1.0 if sys.platform == "darwin" else 1024.0
    return max(own, kids) * scale / 2**20


def repetition(name: str, seed: int, size: str, tmp: Path, trace: Path | None) -> dict:
    from repro import core

    p = SIZES[size][name]
    # A traced repetition sets up once, so set-up spans are not multiplied.
    setups = SETUPS if trace is None else 1
    tracer = None
    if trace is not None:
        from perfbench import layers
        from perfbench.tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
        if name == "sweep-pool":
            dump_dir = tmp / "trace-workers"
            dump_dir.mkdir(parents=True)
            tracer.follow_forks(dump_dir, {layers.ROOT})
    with core.forced("pure"):
        if name == "sweep-pool":
            doc = run_sweep(seed, p, tmp, setups)
        else:
            doc = run_emulation(name, seed, p, setups)
        doc["core"] = core.core_info()
    doc.update(workload=name, seed=seed, size=size)
    if tracer is not None:
        tracer.uninstall()
        if name == "sweep-pool":
            doc["trace_worker_dumps"] = tracer.merge_dumps(tmp / "trace-workers")
        doc["trace"] = {
            "aggs": {n: [a.count, a.total_ns, a.self_ns] for n, a in tracer.aggs.items()},
            "layers": layers.metrics(
                tracer,
                # campaign cells each set up one emulation in a worker
                setups=doc["cells"] if name == "sweep-pool" else setups,
                rows=doc.get("rows"),
                campaign_wall_s=doc["run_s"],
                jobs=SWEEP_JOBS,
            ),
        }
        tracer.write_chrome(trace, layers.LAYER_OF)
    return doc


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--size", default="full", choices=tuple(SIZES))
    ap.add_argument("--tmp", required=True, type=Path)
    ap.add_argument("--trace", type=Path, default=None)
    args = ap.parse_args(argv)
    os.environ["DSSOC_CORE"] = "pure"
    doc = repetition(args.workload, args.seed, args.size, args.tmp, args.trace)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(REPO / "src"), str(REPO)]
    sys.exit(main())
