"""One job of one workload in a fresh interpreter; see run.py.

Prints one JSON line: when the inputs were ready (for setup_s), the
job's wall time and its time at reference host speed (probe.py), peak
RSS, the outcome of every checked operation, and with --trace 1 the
per-layer metrics of the traced job.  With --setup-only it stops once
the inputs are built.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

from probe import Sampler

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--span-file")
    args = ap.parse_args()

    from workloads import WORKLOADS, library, workdir_root

    lab = library()
    workload = WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix="job-", dir=workdir_root(ROOT))
    try:
        inputs = workload.setup(lab, args.seed, workdir)
        ready = time.monotonic()
        out = {"ready": ready}
        if args.setup_only:
            print(json.dumps(out))
            return 0
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install(lab)
        # Probes land in whatever call is running, so a traced job's layer
        # times each take their share of the probes' 1%.
        sampler = Sampler()
        sampler.start()
        start = time.perf_counter()
        try:
            outputs = workload.run(lab, inputs)
        except Exception:
            # a raising call fails the whole job: count every operation failed
            out.update(raised=traceback.format_exc(),
                       attempted=workload.ops, failed=workload.ops)
            outputs = None
        traced_s = time.perf_counter() - start
        sampler.stop()
        out["wall_s"], out["wall_ref_s"] = sampler.result()
        out["probes"] = len(sampler.durations)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall()
            if args.span_file:
                tracer.dump(args.span_file)
        if outputs is not None:
            with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
                reference = json.load(fh)
            try:
                res = workload.check(outputs, inputs, reference)
            except Exception:
                # outputs too malformed to check: count every operation failed
                out.update(raised=traceback.format_exc(),
                           attempted=workload.ops, failed=workload.ops)
            else:
                out.update(attempted=res.attempted, failed=res.failed, notes=res.notes)
            if args.workload == "ramsey_check":
                out["query_nodes"] = {label: v.stats.nodes
                                      for label, (_, v, _) in outputs["queries"].items()}
        if tracer is not None:
            out["layers"] = tracer.metrics(args.workload, traced_s,
                                           out.get("query_nodes", {}))
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
