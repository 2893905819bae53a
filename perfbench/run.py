"""Benchmark of ramseylab, end to end and per module.

Usage, from the repository root:

    python3 perfbench/run.py --workload scan_acceptance --seed 8020 \
        --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen): scan_acceptance,
scan_search, ramsey_check, density.  The load is a closed loop with one
client: each job runs in a fresh interpreter, so module-level memos
start cold as they do for a command-line user, and the next job starts
when the previous one has ended.

--trace 0 runs jobs until --seconds is spent (at least three) and
reports the end-to-end metrics as medians over the jobs:
  wall_ref_s   the job, from its first library call to its last result,
               at reference host speed (probe.py)
  setup_s      interpreter start to the inputs being built, over the
               jobs and ten set-up-only processes before each job
  peak_rss_mb  peak resident memory of the process that ran the job
The shared host's speed swings too far for raw wall time to tell one
commit from another, so the job's time is rescaled by probes of the
host's speed taken while it runs.  The raw wall_s, and the highest
wall_s with ten jobs beyond it, are in the metadata line.
--trace 1 runs pairs of one untraced and one traced job (at least two
pairs), and reports the per-layer metrics of the traced jobs (see
tracer.py).  Counts that are exact must agree between the traced jobs.
Jobs inherit the caller's environment, hash randomisation included, as
a command-line user's process would.

Every job's outputs are checked (workloads.py); the last line of
standard output is the JSON result.  An earlier line gives the run's
metadata and raw samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracer import LAYER_UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scan_acceptance", "scan_search", "ramsey_check", "density")
MIN_JOBS = 3
MIN_TRACED = 2
SETUP_PROBES = 10  # per job
RUN_LIMIT_S = 150.0  # stop starting jobs past this, whatever --seconds says
EXACT_COUNTS = ("coloring.nodes", "coloring.checks", "perturb.calls",
                "perturb.decisions", "coloring.shortcut_hits",
                "graphs.graph_init_calls", "coloring.cnf_clauses")


class JobError(RuntimeError):
    pass


def launch(workload: str, seed: int, *, trace: int = 0, setup_only: bool = False,
           span_file: str | None = None, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "job.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if span_file:
        cmd += ["--span-file", span_file]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as exc:
        raise JobError(f"{workload} job exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise JobError(f"{workload} job exited with {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - started
    out["elapsed_s"] = time.monotonic() - started
    return out


def metadata() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "ramseylab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"python": platform.python_version(), "cpu_count": os.cpu_count(),
            "cpu_model": cpu, "git_commit": git_commit(),
            "source_sha256": digest.hexdigest()}


def git_commit():
    """HEAD's commit, or None when the checkout has no .git of its own."""
    try:
        proc = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"),
                               "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def timed_run(workload: str, seed: int, seconds: float, start: float):
    def left():
        return RUN_LIMIT_S - (time.monotonic() - start)

    launch(workload, seed, setup_only=True, timeout=left())  # compiles bytecode; not counted
    setups, jobs = [], []
    while True:
        # set-up-only probes between jobs spread the samples over the run
        probes_started = time.monotonic()
        for _ in range(SETUP_PROBES):
            setups.append(launch(workload, seed, setup_only=True, timeout=left())["setup_s"])
        probes_s = time.monotonic() - probes_started
        jobs.append(launch(workload, seed, timeout=left()))
        setups.append(jobs[-1]["setup_s"])
        predicted = probes_s + statistics.median(j["elapsed_s"] for j in jobs)
        elapsed = time.monotonic() - start
        if len(jobs) >= MIN_JOBS and elapsed + predicted > seconds:
            break
        if predicted > left():
            break
    walls = sorted(j["wall_s"] for j in jobs)
    metrics = {"wall_ref_s": (statistics.median(j["wall_ref_s"] for j in jobs), "s"),
               "setup_s": (statistics.median(setups), "s"),
               "peak_rss_mb": (statistics.median(j["peak_rss_mb"] for j in jobs), "MB")}
    n = len(walls)
    info = {"jobs": n, "wall_s": statistics.median(walls), "wall_s_samples": walls,
            # the highest percentile with ten samples beyond it needs 11 jobs
            "wall_s_tail": walls[n - 11] if n >= 11 else None,
            "wall_s_max": walls[-1],
            "wall_ref_s_samples": [j["wall_ref_s"] for j in jobs],
            "probes_per_job": statistics.median(j["probes"] for j in jobs),
            "setup_s_samples": setups}
    return metrics, info, jobs


def traced_run(workload: str, seed: int, seconds: float, start: float):
    def left():
        return RUN_LIMIT_S - (time.monotonic() - start)

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    untraced, traced = [], []
    while True:
        untraced.append(launch(workload, seed, timeout=left()))
        span_file = os.path.join(out_dir, f"spans-{workload}-{seed}-{len(traced)}.json")
        traced.append(launch(workload, seed, trace=1, span_file=span_file, timeout=left()))
        predicted = untraced[-1]["elapsed_s"] + traced[-1]["elapsed_s"]
        elapsed = time.monotonic() - start
        if len(traced) >= MIN_TRACED and elapsed + predicted > seconds:
            break
        if predicted > left():
            break
    layers = [j["layers"] for j in traced]
    mismatched = [k for k in EXACT_COUNTS if len({m[k] for m in layers}) > 1]
    jobs = untraced + traced
    # each traced job against the untraced job just before it, both at
    # reference speed, so the host's drift cancels
    extra = {"trace.overhead_s": statistics.median(
                 t["wall_ref_s"] - u["wall_ref_s"] for u, t in zip(untraced, traced)),
             "fail_ratio": sum(j["failed"] for j in jobs) / sum(j["attempted"] for j in jobs)}
    metrics = {}
    for key, unit in LAYER_UNITS.items():
        values = [m[key] for m in layers] if key not in extra else [extra[key]]
        metrics[key] = (values[0] if len(set(values)) == 1 else statistics.median(values), unit)
    info = {"traced_jobs": len(traced), "span_files": out_dir,
            "exact_counts": {k: layers[0][k] for k in EXACT_COUNTS},
            "exact_count_mismatch": mismatched}
    return metrics, info, jobs


def main() -> int:
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=8020)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "ramseylab", "__init__.py")):
        print(f"error: no ramseylab sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, info, jobs = traced_run(args.workload, args.seed, args.seconds, start)
        else:
            metrics, info, jobs = timed_run(args.workload, args.seed, args.seconds, start)
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(j["attempted"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    notes = [note for j in jobs for note in j.get("notes", [])][:10]
    notes += [j["raised"] for j in jobs if "raised" in j][:1]
    info.update(metadata(), workload=args.workload, seed=args.seed, trace=args.trace,
                fail_ratio=failed / attempted, failures=notes)
    if args.workload == "ramsey_check":
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            ref = json.load(fh)["ramsey_check"]["queries"]
        info["query_nodes"] = jobs[0].get("query_nodes")
        info["query_nodes_match_reference"] = info["query_nodes"] == {
            label: q["nodes"] for label, q in ref.items()}
    correct = failed == 0 and not info.get("exact_count_mismatch")
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
