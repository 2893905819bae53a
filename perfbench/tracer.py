"""Spans and counters around the library's calls, from outside the library.

The tracer rebinds the names the library looks up when it makes a call
(module attributes and ``Graph.__init__``), so no library file changes.
Calls at the granularity of a scan row, a decision or a query become
spans with a name, start, end and parent.  The hot inner calls become
aggregates: a count, total time and self time, and no record per call.
A call's self time is its duration minus the time its traced children
cover.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

_SHORTCUT_NOTE = "complete subgraph on"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, tag, parent, start, end, child_s, info]
        self.stack: list[list] = []      # open frames; a frame's [5] collects child time
        self.aggregates: dict[str, list] = {}  # name -> [count, total_s, self_s]
        self._undo: list = []

    # -- wrappers ------------------------------------------------------

    def span(self, owner, attr: str, name: str, tag=None, info=None):
        """Record each call of owner.attr as a span."""
        fn = getattr(owner, attr)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = next((f[7] for f in reversed(stack) if f[7] is not None), None)
            rec = [name, tag(*args, **kwargs) if tag else None, parent,
                   0.0, 0.0, 0.0, None, len(spans)]
            spans.append(rec)
            stack.append(rec)
            rec[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
                if stack:
                    stack[-1][5] += rec[4] - rec[3]
            if info:
                rec[6] = info(result)
            return result

        self._rebind(owner, attr, wrapper)

    def frame(self, owner, attr: str, name: str):
        """Aggregate owner.attr: count, total and self time, no span."""
        fn = getattr(owner, attr)
        stack, clock = self.stack, time.perf_counter
        agg = self.aggregates.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [None, None, None, 0.0, 0.0, 0.0, None, None]
            stack.append(rec)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - rec[5]
                if stack:
                    stack[-1][5] += dur

        self._rebind(owner, attr, wrapper)

    def leaf(self, owner, attr: str, name: str, own_layer: bool):
        """Count and time a call that makes no traced calls.  A leaf of
        another layer is subtracted from its caller's self time; a leaf
        of the caller's own layer stays in it."""
        fn = getattr(owner, attr)
        stack, clock = self.stack, time.perf_counter
        agg = self.aggregates.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            dur = clock() - start
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur
            if not own_layer and stack:
                stack[-1][5] += dur
            return result

        self._rebind(owner, attr, wrapper)

    def _rebind(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def install(self, lab):
        """Wrap every traced entry point of the library modules in lab."""
        p, c, d = lab.perturb, lab.coloring, lab.densities
        self.span(lab.experiments, "run_experiment", "experiments.run_experiment")
        self.span(lab.experiments, "threshold_scan", "experiments.threshold_scan")
        self.span(p, "monte_carlo_ramsey", "perturb.row",
                  tag=lambda base, targets, prob, trials, *a, **k: trials)
        self.frame(p, "perturb", "perturb.perturb")
        self.frame(p, "sample_gnp", "perturb.sample_gnp")
        self.leaf(p, "edge_variate", "perturb.edge_variate", own_layer=True)
        self.leaf(lab.graphs.Graph, "__init__", "graphs.graph_init", own_layer=False)
        verdict_info = lambda v: (v.status, v.stats.nodes, v.stats.checks,
                                  v.stats.note.startswith(_SHORTCUT_NOTE))
        # the scan reaches the engine through perturb's own binding
        self.span(p, "decide_ramsey", "coloring.decide", info=verdict_info)
        self.span(c, "decide_ramsey", "coloring.decide", info=verdict_info)
        self.span(c, "targets_ramsey_number", "coloring.shortcut_lookup")
        self.span(c, "verify_coloring", "coloring.verify")
        self.span(c, "export_cnf", "coloring.cnf", info=lambda doc: len(doc.clauses))
        for fn, label in (("m2", "m2"), ("m2_asym", "m2_asym"), ("rho", "rho"),
                          ("is_strictly_2_balanced", "strict_balance"), ("mu1", "mu1")):
            self.span(d, fn, f"densities.{label}",
                      tag=lambda h, *a, **k: getattr(h, "n", None))
        self.span(lab.thresholds, "threshold_oracle", "thresholds.oracle")
        self.span(lab.facts, "default_fact_suite", "facts.suite",
                  info=lambda reports: sum(r.status == "verified" for r in reports))

    # -- results -------------------------------------------------------

    def dump(self, path: str):
        names = ("name", "tag", "parent", "start", "end", "child_s", "info")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(names, rec[:7])) for rec in self.spans],
                       "aggregates": {k: dict(zip(("count", "total_s", "self_s"), v))
                                      for k, v in self.aggregates.items()}}, fh)

    def metrics(self, workload: str, wall_s: float, query_nodes: dict) -> dict:
        """Per-layer metrics of one traced job, named as in LAYER_UNITS;
        query_nodes gives the ramsey_check node count of each query."""
        spans = self.spans
        by = {}
        for rec in spans:
            by.setdefault(rec[0], []).append(rec)

        def dur(rec):
            return rec[4] - rec[3]

        def total(name):
            return sum(dur(r) for r in by.get(name, ()))

        def agg(name, i):
            return self.aggregates.get(name, [0, 0.0, 0.0])[i]

        def under(rec, name):
            parent = rec[2]
            while parent is not None:
                if spans[parent][0] == name:
                    return True
                parent = spans[parent][2]
            return False

        # Decisions made for the caller, not the complete-host searches the
        # shortcut lookup runs on its own behalf.
        decides = [r for r in by.get("coloring.decide", ())
                   if not under(r, "coloring.shortcut_lookup")]
        rows = by.get("perturb.row", [])
        row_ms = sorted(dur(r) * 1e3 for r in rows)
        decide_self = sum(dur(r) - r[5] for r in decides)
        nodes = sum(r[6][1] for r in decides)
        decisions = sum(1 for r in decides if r[2] is not None and spans[r[2]][0] == "perturb.row")
        trial_points = sum(r[1] for r in rows)
        m = {
            "perturb.calls": agg("perturb.perturb", 0),
            "perturb.self_s": agg("perturb.perturb", 2) + agg("perturb.sample_gnp", 2),
            "perturb.variates": agg("perturb.edge_variate", 0),
            "perturb.row_ms.p50": statistics.median(row_ms) if row_ms else 0.0,
            "perturb.row_ms.tail": tail(row_ms) if row_ms else 0.0,
            "perturb.decisions": decisions,
            "perturb.trial_points": trial_points,
            "perturb.cache_hit_ratio": 1 - decisions / trial_points if trial_points else 0.0,
            "graphs.graph_init_calls": agg("graphs.graph_init", 0),
            "graphs.graph_init_s": agg("graphs.graph_init", 1),
            "coloring.decide_calls": len(decides),
            "coloring.decide_self_s": decide_self,
            "coloring.nodes": nodes,
            "coloring.checks": sum(r[6][2] for r in decides),
            "coloring.nodes_per_s": nodes / decide_self if decide_self else 0.0,
            "coloring.shortcut_hits": sum(1 for r in decides if r[6][3]),
            "coloring.shortcut_lookup_calls": len(by.get("coloring.shortcut_lookup", ())),
            "coloring.shortcut_lookup_s": total("coloring.shortcut_lookup"),
            "coloring.verify_calls": len(by.get("coloring.verify", ())),
            "coloring.verify_s": total("coloring.verify"),
            "coloring.cnf_s": total("coloring.cnf"),
            "coloring.cnf_clauses": sum(r[6] for r in by.get("coloring.cnf", ())),
            "thresholds.oracle_calls": len(by.get("thresholds.oracle", ())),
            "thresholds.oracle_s": total("thresholds.oracle"),
            "facts.suite_s": total("facts.suite"),
            "facts.verified": sum(r[6] for r in by.get("facts.suite", ())),
            "experiments.overhead_s": total("experiments.run_experiment")
            - total("experiments.threshold_scan"),
        }
        for label in QUERY_LABELS:
            m[f"coloring.nodes.{label}"] = query_nodes.get(label, 0)
        for status in ("ramsey", "not_ramsey", "inconclusive"):
            m[f"coloring.verdict.{status}"] = sum(1 for r in decides if r[6][0] == status)
        for fn in DENSITY_FNS:
            for n in DENSITY_SIZES:
                m[f"densities.{fn}_s.n{n}"] = sum(
                    dur(r) for r in by.get(f"densities.{fn}", ())
                    if r[1] == n and r[2] is None)
        top_coloring = [r for name in ("coloring.decide", "coloring.cnf", "coloring.verify")
                        for r in by.get(name, ()) if r[2] is None]
        named = {
            "scan_acceptance": agg("perturb.perturb", 1),
            "scan_search": sum(dur(r) for r in decides),
            "ramsey_check": sum(dur(r) for r in top_coloring),
            "density": sum(dur(r) for name in by if name.startswith("densities.")
                           for r in by[name] if r[2] is None),
        }[workload]
        m["trace.layer_share"] = named / wall_s
        return m


DENSITY_FNS = ("m2", "m2_asym", "rho", "strict_balance", "mu1")
DENSITY_SIZES = (14, 16, 18)
QUERY_LABELS = ("K9-K3-K4", "K9-C3-C5", "K7-K4e-K3")

# Every per-layer metric with its unit; run.py adds the last two.
LAYER_UNITS = {
    "perturb.calls": "count", "perturb.self_s": "s", "perturb.variates": "count",
    "perturb.row_ms.p50": "ms", "perturb.row_ms.tail": "ms",
    "perturb.decisions": "count", "perturb.trial_points": "count",
    "perturb.cache_hit_ratio": "ratio",
    "graphs.graph_init_calls": "count", "graphs.graph_init_s": "s",
    "coloring.decide_calls": "count", "coloring.decide_self_s": "s",
    "coloring.nodes": "count", "coloring.checks": "count",
    "coloring.nodes_per_s": "1/s",
    **{f"coloring.nodes.{label}": "count" for label in QUERY_LABELS},
    **{f"coloring.verdict.{s}": "count" for s in ("ramsey", "not_ramsey", "inconclusive")},
    "coloring.shortcut_hits": "count", "coloring.shortcut_lookup_calls": "count",
    "coloring.shortcut_lookup_s": "s", "coloring.verify_calls": "count",
    "coloring.verify_s": "s", "coloring.cnf_s": "s", "coloring.cnf_clauses": "count",
    **{f"densities.{fn}_s.n{n}": "s" for fn in DENSITY_FNS for n in DENSITY_SIZES},
    "thresholds.oracle_calls": "count", "thresholds.oracle_s": "s",
    "facts.suite_s": "s", "facts.verified": "count",
    "experiments.overhead_s": "s",
    "trace.layer_share": "ratio",
    "trace.overhead_s": "s",
    "fail_ratio": "ratio",
}


def tail(sorted_values):
    """The highest value with at least ten samples above it, or the
    maximum when there are fewer than eleven samples."""
    n = len(sorted_values)
    return sorted_values[n - 11] if n >= 11 else sorted_values[-1]
