"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/steadiness.py [--workloads burst-eft,sweep-pool] [--seeds 10]
        [--seconds 30] [--trace 0] [--out perfbench/results/steadiness-set1.json]
    python3 perfbench/steadiness.py --compare SET1.json SET2.json

For every workload and metric it prints the median of the per-seed values
and the distance between their first and third quartiles as a share of
that median (``statistics.quantiles(values, n=4)``), next to the metric's
bound from ``BENCHMARK.json``.  Seeds are 1..N; the defaults are every
workload and ``run_seconds`` from ``BENCHMARK.json``.

``--compare`` reads two such reports (two sets of runs of the same
commit) and prints, per workload and metric, both medians and spreads and
how far the second median moved from the first in the metric's worse
direction, next to its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def compare(first: dict, second: dict, metrics: dict[str, dict]) -> list[str]:
    """Markdown table of the median shift from ``first`` to ``second``."""
    lines = [
        "| workload | metric | set 1 median (spread) | set 2 median (spread) "
        "| worse by | bound |",
        "|---|---|---|---|---|---|",
    ]
    for workload, entry in second["workloads"].items():
        for name, m2 in entry["metrics"].items():
            if name not in metrics:  # workload-specific layer metric
                continue
            m1 = first["workloads"][workload]["metrics"][name]
            if m1["median"]:
                shift = m2["median"] / m1["median"] - 1
            else:
                shift = 0.0 if m2["median"] == 0 else float("inf")
            worse = -shift if metrics[name]["better"] == "higher" else shift
            lines.append(
                f"| {workload} | {name} | {m1['median']:.4g} ({m1['iqr_share']:.1%}) "
                f"| {m2['median']:.4g} ({m2['iqr_share']:.1%}) | {worse:+.1%} "
                f"| {metrics[name].get('bound')} |"
            )
    return lines


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None)
    ap.add_argument("--compare", type=Path, nargs=2, metavar=("SET1", "SET2"))
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    if args.compare:
        first, second = (json.loads(p.read_text()) for p in args.compare)
        declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
        print("\n".join(compare(first, second, declared)))
        return 0

    report: dict = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.seeds + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=REPO, capture_output=True, text=True, check=True,
            )
            json.loads(proc.stdout.strip().splitlines()[-1])  # the result line parses
            # the run's record also holds the workload-specific layer metrics
            record = HERE / "out" / f"result-{workload}-seed{seed}-trace{args.trace}.json"
            result = json.loads(record.read_text())
            del result["samples"], result["problems"]
            runs.append(result)
            print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        entry = {"runs": runs, "metrics": {}}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            entry["metrics"][name] = {
                "median": statistics.median(values),
                "iqr_share": spread(values),
                "bound": bounds.get(name),
            }
            print(f"  {workload:12s} {name:36s} median {statistics.median(values):12.6g}"
                  f"  spread {spread(values):7.2%}  bound {bounds.get(name)}")
        report["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
