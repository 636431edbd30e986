"""Benchmark entry point: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each repetition runs in a fresh process
(``perfbench/workloads.py``) and this script repeats it while another
repetition still fits in ``--seconds`` (at least three times with
``--trace 0``).  Every repetition's modeled outputs are checked; a
mismatch counts as a failed operation.

``--trace 0`` reports the end-to-end metrics, each the median over the
repetitions.  ``--trace 1`` alternates untraced and traced repetitions and
reports the per-layer metrics, each the median over the traced ones, plus
the traced/untraced wall ratio.  The workload-specific layer metrics are
printed and recorded but left out of the last line.  A traced repetition
also writes its span window as Chrome trace-event JSON to
``perfbench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record with every
sample and the run's provenance goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

if __name__ == "__main__":
    sys.path.insert(0, str(REPO))

from perfbench import checks, layers  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, SIZES, WORKLOADS  # noqa: E402

#: name, unit, better — in the order BENCHMARK.json lists them
END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("tasks_per_s", "tasks/s", "higher"),
    ("cells_per_s", "cells/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
MIN_REPS = 3
#: no repetition starts after this long and none may take longer than
#: REP_TIMEOUT_S, so a run ends within 180 s whatever ``--seconds`` says
HARD_STOP_S = 120.0
REP_TIMEOUT_S = 50.0


def run_repetition(workload: str, seed: int, size: str, traced: bool, index: int) -> dict:
    """One repetition in a fresh process; raises RuntimeError on failure."""
    tmp = OUT / f"tmp-{os.getpid()}-{index}"
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed), "--size", size,
        "--tmp", str(tmp),
    ]
    if traced:
        cmd += ["--trace", str(OUT / f"trace-{workload}-seed{seed}.json")]
    env = dict(os.environ, DSSOC_CORE="pure")
    try:
        proc = subprocess.run(
            cmd, cwd=REPO, env=env, capture_output=True, text=True,
            timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"repetition timed out after {exc.timeout:g}s") from None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise RuntimeError(f"repetition exited with {proc.returncode}:\n{tail}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"repetition printed no result: {proc.stdout[-500:]!r}") from None


def expected_cells(workload: str, size: str) -> int:
    if workload != "sweep-pool":
        return 1
    p = SIZES[size][workload]
    return len(p["configs"]) * len(p["policies"]) * len(p["apps"]) * p["seeds"]


class Checker:
    """Checks every repetition and keeps the attempted/failed tally."""

    def __init__(self, workload: str, seed: int, size: str, expected: dict) -> None:
        self.workload = workload
        self.cells = expected_cells(workload, size)
        recorded = expected if expected.get("seed") == seed else {}
        self.expected = recorded.get(size, {}).get(workload)
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def crashed(self, error: str) -> None:
        self.attempted += self.cells
        self.failed += self.cells
        self.problems.append(error)

    def check(self, doc: dict) -> None:
        pinned = []
        if doc["core"].get("variant") != "pure":
            pinned.append(f"core {doc['core']} is not the pinned pure core")
        if self.workload == "sweep-pool":
            self._check_rows(doc["rows"], pinned)
            return
        self.attempted += 1
        found = pinned + checks.check_outputs(doc["outputs"], self.expected, self.first)
        if self.first is None:
            self.first = doc["outputs"]
        if found:
            self.failed += 1
            self.problems.extend(found)

    def _check_rows(self, rows: list[dict], pinned: list[str]) -> None:
        recorded = {r["cell_id"]: r for r in self.expected["rows"]} if self.expected else None
        first = (
            {r["cell_id"]: checks.stable_row(r) for r in self.first}
            if self.first is not None else None
        )
        if self.first is None:
            self.first = rows
        missing = max(0, self.cells - len(rows))
        self.attempted += max(self.cells, len(rows))
        self.failed += missing
        if missing:
            self.problems.append(f"{missing} cells missing from the campaign")
        for row in rows:
            cid = row.get("cell_id")
            found = pinned + checks.check_row(
                row,
                recorded.get(cid, {"cell_id": "not recorded"}) if recorded else None,
                first.get(cid) if first else None,
            )
            if found:
                self.failed += 1
                self.problems.extend(found)


def rep_metrics(doc: dict) -> dict[str, float]:
    """End-to-end metric values of one untraced repetition."""
    if doc["workload"] == "sweep-pool":
        cells_per_s = doc["cells"] / doc["run_s"]
    else:
        # A single emulation is one cell: its own set-up plus its run.
        cells_per_s = 1.0 / (doc["setup_s"][-1] + doc["run_s"])
    return {
        "tasks_per_s": doc["tasks"] / doc["run_s"],
        "cells_per_s": cells_per_s,
        "peak_rss_mb": doc["peak_rss_mb"],
    }


def git_commit() -> str | None:
    if not (REPO / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True
    )
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def provenance(args, reps: list[dict]) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "core": reps[0]["core"] if reps else None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full", choices=tuple(SIZES),
                    help="smoke: reduced workloads for the benchmark's own tests")
    ap.add_argument("--record", action="store_true",
                    help="write this run's outputs into expected.json (default seed only)")
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {REPO / 'src'}", file=sys.stderr)
        return 2
    if args.record and args.seed != DEFAULT_SEED:
        print(f"perfbench: --record needs the default seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    OUT.mkdir(exist_ok=True)
    checker = Checker(args.workload, args.seed, args.size, expected)

    untraced: list[dict] = []
    traced: list[dict] = []
    t_start = time.monotonic()
    index = 0
    #: host seconds each repetition took, traced and untraced apart
    took: dict[bool, list[float]] = {False: [], True: []}
    while True:
        elapsed = time.monotonic() - t_start
        is_traced = bool(args.trace) and index % 2 == 1
        if args.trace:
            enough = untraced and traced
        else:
            enough = len(untraced) >= MIN_REPS
        # Start another repetition only if it should end within --seconds.
        expected_s = statistics.median(took[is_traced]) if took[is_traced] else 0.0
        if (enough and elapsed + expected_s > args.seconds) or elapsed >= HARD_STOP_S:
            break
        t_rep = time.monotonic()
        try:
            doc = run_repetition(args.workload, args.seed, args.size, is_traced, index)
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            checker.crashed(str(exc))
        else:
            checker.check(doc)
            (traced if is_traced else untraced).append(doc)
        took[is_traced].append(time.monotonic() - t_rep)
        index += 1
    reps = untraced + traced
    if not untraced or (args.trace and not traced):
        print("perfbench: no repetition completed; no result", file=sys.stderr)
        return 1

    if args.trace:
        units = {name: unit for name, unit, _ in layers.PER_LAYER + layers.WORKLOAD_SPECIFIC}
        samples = {
            name: [doc["trace"]["layers"][name] for doc in traced]
            for name in units if name != "trace.overhead_ratio"
        }
        samples["trace.overhead_ratio"] = [
            statistics.median(d["run_s"] for d in traced)
            / statistics.median(d["run_s"] for d in untraced)
        ]
        reported = [name for name, _, _ in layers.PER_LAYER]
    else:
        units = {name: unit for name, unit, _ in END_TO_END}
        per_rep = [rep_metrics(doc) for doc in untraced]
        samples = {name: [m[name] for m in per_rep] for name in units if name != "setup_s"}
        samples["setup_s"] = [s for doc in untraced for s in doc["setup_s"]]
        reported = list(units)
    metrics = {
        name: {"value": statistics.median(samples[name]), "unit": unit}
        for name, unit in units.items()
    }
    prov = provenance(args, reps)

    for problem in checker.problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    if args.record:
        record(args, expected, untraced[0])

    failed_frac = checker.failed / checker.attempted
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(untraced)} untraced + {len(traced)} traced repetitions "
          f"in {time.monotonic() - t_start:.1f} s")
    for name, m in metrics.items():
        n = len(samples[name])
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']:8s} (median of {n})")
    print(f"  {'failed_frac':40s} {failed_frac:14.6g} {'ratio':8s} "
          f"({checker.failed} of {checker.attempted} failed)")
    print("provenance " + json.dumps(prov))
    record_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps({
        "provenance": prov,
        "metrics": metrics,
        "samples": samples,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems,
    }, indent=1))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: metrics[name] for name in reported},
    }))
    return 0


def record(args, expected: dict, doc: dict) -> None:
    """Store one repetition's modeled outputs as the recorded values."""
    expected["seed"] = args.seed
    if args.workload == "sweep-pool":
        entry = {"rows": [checks.stable_row(r) for r in doc["rows"]]}
    else:
        entry = {k: v for k, v in doc["outputs"].items() if k != "interrupted"}
    expected.setdefault(args.size, {})[args.workload] = entry
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"perfbench: recorded {args.size}/{args.workload} in {EXPECTED}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
