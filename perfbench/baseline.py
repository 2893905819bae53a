"""Measure the baseline record, perfbench/baseline.json.

Run from the repository root:

    python3 perfbench/baseline.py

Each workload of BENCHMARK.json runs ten times untraced, with seeds
1..10, and once traced at seed 8020.  The record holds, per workload,
the median and quartiles of every end-to-end metric with its spread
(interquartile distance over the median), the traced per-layer metrics
and the workload's "why" from BENCHMARK.json.  Its "layer_map", which
end-to-end metric each layer metric should move, is static text kept
from the existing record.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "baseline.json")
RUNS = 10


def run(workload: str, seed: int, trace: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result, info = json.loads(lines[-1]), json.loads(lines[-2])["info"]
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output: {info['failures']}")
    return {"result": result, "info": info}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    with open(OUT, encoding="utf-8") as fh:
        layer_map = json.load(fh)["layer_map"]
    record = {"workloads": {}, "layer_map": layer_map}
    for entry in bench["workloads"]:
        workload = entry["name"]
        runs = [run(workload, seed, 0, seconds) for seed in range(1, RUNS + 1)]
        end_to_end = {}
        for metric in bench["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            end_to_end[metric["name"]] = {
                "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                "bound": metric["bound"], "unit": metric["unit"], "values": values}
            print(f"{workload:16} {metric['name']:12} median {median:.4f} "
                  f"spread {(q3 - q1) / median:.4f} (bound {metric['bound']})", flush=True)
        traced = run(workload, 8020, 1, seconds)
        record["workloads"][workload] = {
            "why": entry["why"],
            "end_to_end": end_to_end,
            "per_layer_seed_8020": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            "exact_counts_seed_8020": traced["info"]["exact_counts"],
            "jobs_per_run": [r["info"]["jobs"] for r in runs],
        }
        meta = runs[0]["info"]
        record["machine"] = {k: meta[k] for k in ("python", "cpu_count", "cpu_model",
                                                  "git_commit", "source_sha256")}
        record["machine"]["platform"] = platform.platform()
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
