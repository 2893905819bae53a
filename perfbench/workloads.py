"""The four benchmark workloads: inputs, the timed job, and output checks.

Each workload calls the library only through module attributes found in
``sys.modules`` at call time, so the tracer can rebind those names and
see every call.  ``setup`` builds the inputs, ``run`` is the timed job,
and ``check`` compares the outputs with the recorded seed-commit outputs
(``reference.json``) and with exact properties that hold for any seed.
An operation fails when its output fails a check, when it raises, or
when it reports ``inconclusive``.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

WILSON_SLACK = 1e-12
MODULES = ("perturb", "graphs", "coloring", "densities", "thresholds",
           "facts", "experiments")


def library() -> SimpleNamespace:
    """The package's modules, looked up in sys.modules.

    ``import ramseylab.perturb`` binds the re-exported function of that
    name, not the module, so attribute access on the package is wrong.
    """
    import ramseylab  # noqa: F401  (registers the submodules)
    return SimpleNamespace(**{m: sys.modules[f"ramseylab.{m}"] for m in MODULES})


def _frac(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


class Result:
    """Per-operation outcomes of one job, with the first few failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def op(self, ok: bool, note: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(note)


# ---------------------------------------------------------------------
# Monte Carlo scans through experiments.run_experiment


class Scan:
    """A scan manifest run through run_experiment.  With fixed_seed the
    workload ignores the benchmark seed and always scans that one."""

    def __init__(self, name, bases, targets, grid, trials, rows, fixed_seed=None):
        self.name = name
        self.bases, self.targets, self.grid = bases, targets, grid
        self.trials, self.rows = trials, rows
        self.ops = rows
        self.fixed_seed = fixed_seed

    def setup(self, lab, seed: int, workdir: str):
        seed = seed if self.fixed_seed is None else self.fixed_seed
        manifest = {"op": "scan",
                    "args": {"bases": list(self.bases), "targets": self.targets,
                             "p_grid": dict(self.grid), "trials": self.trials},
                    "seed": seed, "out": "results.csv"}
        # Build what run_experiment will build, so import and construction
        # costs land in setup and a malformed manifest fails before timing.
        hosts = [lab.graphs.build_family(b) for b in self.bases]
        lab.experiments.parse_targets(self.targets)
        grid = lab.perturb.log_spaced_grid(self.grid["lo"], self.grid["hi"],
                                           self.grid["per_decade"])
        return {"manifest": manifest, "workdir": workdir, "seed": seed,
                "sizes": sorted(h.n for h in hosts), "grid": sorted(grid)}

    def run(self, lab, inputs):
        done = lab.experiments.run_experiment(inputs["manifest"],
                                              base_dir=inputs["workdir"])
        with open(done["out"], encoding="utf-8") as fh:
            return fh.read()

    def check(self, text: str, inputs, reference: dict) -> Result:
        res = Result()
        rows = list(csv.DictReader(io.StringIO(text)))
        expected = {(n, p) for n in inputs["sizes"] for p in inputs["grid"]}
        if len(rows) != self.rows or len(expected) != self.rows:
            res.op(False, f"{len(rows)} rows, expected {self.rows}")
        ref_rows = None
        ref = reference.get(self.name, {}).get("csv", {}).get(str(inputs["seed"]))
        if ref is not None:
            ref_rows = ref.splitlines()[1:]
        lines = text.splitlines()[1:]
        last: dict[int, int] = {}
        for i, row in enumerate(rows):
            n, p = int(row["n"]), float(row["p"])
            trials, succ = int(row["trials"]), int(row["successes"])
            inconclusive = int(row["inconclusive"])
            lo, hi = float(row["wilson_lo"]), float(row["wilson_hi"])
            problems = []
            if (n, p) not in expected:
                problems.append("unexpected (n, p)")
            if trials != self.trials or not 0 <= succ <= trials:
                problems.append("bad trial or success count")
            if inconclusive:
                problems.append(f"{inconclusive} inconclusive")
            # the bounds are rounded floats: at rate 1 the upper one is 1 - 2**-53
            rate = succ / trials
            if not (0 <= lo <= rate + WILSON_SLACK and rate - WILSON_SLACK <= hi <= 1):
                problems.append("rate outside its Wilson interval")
            # Common random numbers nest the hosts in p, and Ramseyness is
            # monotone under adding edges, so successes never fall in p.
            if succ < last.get(n, 0):
                problems.append("successes decrease in p")
            last[n] = succ
            if ref_rows is not None and (i >= len(ref_rows) or lines[i] != ref_rows[i]):
                problems.append("differs from the seed-commit CSV")
            res.op(not problems, f"row n={n} p={p!r}: {', '.join(problems)}")
        return res


# ---------------------------------------------------------------------
# Exact decisions the way `ramseylab ramsey-check --cnf` runs them


def _k4_minus_edge(lab):
    es = [e for e in itertools.combinations(range(4), 2) if e != (2, 3)]
    return lab.graphs.arbitrary(lab.graphs.Graph.from_edges(4, es))


class RamseyCheck:
    name = "ramsey_check"
    QUERIES = ("K9-K3-K4", "K9-C3-C5", "K7-K4e-K3", "K8-K3-K4")
    ops = len(QUERIES) + 10  # queries plus the default fact suite

    def setup(self, lab, seed: int, workdir: str):
        g = lab.graphs
        pats = {"K3": g.clique(3), "K4": g.clique(4), "C3": g.cycle(3),
                "C5": g.cycle(5), "K4e": _k4_minus_edge(lab)}
        queries = {}
        for label in self.QUERIES:
            host, red, blue = label.split("-")
            queries[label] = lab.coloring.ramsey_query(
                g.clique_graph(int(host[1:])), [[pats[red]], [pats[blue]]])
        return {"queries": queries}

    def run(self, lab, inputs):
        out = {}
        for label, query in inputs["queries"].items():
            doc = lab.coloring.export_cnf(query)
            verdict = lab.coloring.decide_ramsey(query)
            violations = None
            if verdict.witness is not None:
                violations = lab.coloring.verify_coloring(verdict.witness, query)
            out[label] = (doc, verdict, violations)
        reports = lab.facts.default_fact_suite()
        return {"queries": out, "facts": reports}

    def check(self, outputs, inputs, reference: dict) -> Result:
        res = Result()
        ref = reference[self.name]
        for label, (doc, verdict, violations) in outputs["queries"].items():
            want = ref["queries"][label]
            problems = []
            if verdict.status != want["status"]:
                problems.append(f"status {verdict.status}, expected {want['status']}")
            if len(doc.clauses) != want["cnf_clauses"] or doc.nvars != want["cnf_vars"]:
                problems.append("CNF size differs from the seed commit")
            if verdict.status == "not_ramsey":
                problems += _check_witness(verdict.witness, inputs["queries"][label], doc)
                if violations:
                    problems.append("verify_coloring reports violations")
            res.op(not problems, f"{label}: {', '.join(problems)}")
        for report, want in zip(outputs["facts"], ref["facts"]):
            ok = report.fact_id == want["fact_id"] and report.status == want["status"]
            res.op(ok, f"fact {report.fact_id}: {report.status}")
        if len(outputs["facts"]) != len(ref["facts"]):
            res.op(False, f"{len(outputs['facts'])} facts, expected {len(ref['facts'])}")
        return res


def _check_witness(coloring, query, doc) -> list[str]:
    """Brute-force check of a two-colouring against clique targets, and
    that it satisfies the exported CNF (variable i+1 = edge i has colour 0)."""
    if coloring is None:
        return ["not_ramsey without a witness"]
    problems = []
    color = dict(zip(query.host.edges(), coloring.colors))
    for c, pats in enumerate(query.targets):
        for pat in pats:
            if pat.kind != "clique":
                return ["witness check supports clique targets only"]
            for vs in itertools.combinations(range(query.host.n), pat.size):
                if all(color.get(e) == c for e in itertools.combinations(vs, 2)):
                    problems.append(f"monochromatic K{pat.size} in colour {c}")
    truth = [col == 0 for col in coloring.colors]
    for clause in doc.clauses:
        if not any(truth[abs(lit) - 1] == (lit > 0) for lit in clause):
            problems.append("witness violates a CNF clause")
            break
    return problems


# ---------------------------------------------------------------------
# Exact density calculus and the threshold oracle


class Density:
    name = "density"
    SIZES = (14, 16, 18)
    DENSITIES = ("1/3", "3/5", "5/7", "7/9")
    ops = 5 * len(SIZES) + 2 * 21 * len(DENSITIES)  # density calls plus oracle calls

    def setup(self, lab, seed: int, workdir: str):
        g = lab.graphs
        hosts = {n: g.turan_graph(n, 3) for n in self.SIZES}
        pairs = [(g.clique(t), g.clique(s)) for t in range(3, 9) for s in range(3, t + 1)]
        pairs += [(g.cycle(k), g.cycle(l)) for k in range(3, 9) for l in range(3, k + 1)]
        oracle = [(a, b, Fraction(d)) for a, b in pairs for d in self.DENSITIES]
        return {"hosts": hosts, "k3": g.clique(3), "oracle": oracle}

    def run(self, lab, inputs):
        d = lab.densities
        k3 = inputs["k3"]
        values = {}
        for n, host in inputs["hosts"].items():
            values[f"m2.n{n}"] = d.m2(host)
            values[f"m2_asym.n{n}"] = d.m2_asym(host, k3)
            values[f"rho.n{n}"] = d.rho(host)
            values[f"strict_balance.n{n}"] = d.is_strictly_2_balanced(host)
            values[f"mu1.n{n}"] = d.mu1(host, 100, Fraction(1, 10))
        answers = [lab.thresholds.threshold_oracle([a, b], dens)
                   for a, b, dens in inputs["oracle"]]
        return {"values": values, "oracle": answers}

    def check(self, outputs, inputs, reference: dict) -> Result:
        res = Result()
        ref = reference[self.name]
        for key, value in outputs["values"].items():
            got = value if isinstance(value, bool) else _frac(value)
            res.op(got == ref["values"][key], f"{key} = {got}, expected {ref['values'][key]}")
        for (a, b, dens), answer, want in zip(inputs["oracle"], outputs["oracle"], ref["oracle"]):
            res.op(answer.to_jsonable() == want,
                   f"oracle {a.describe()},{b.describe()} at {dens}")
        if len(outputs["oracle"]) != len(ref["oracle"]):
            res.op(False, "oracle answer count differs")
        return res


WORKLOADS = {
    "scan_acceptance": Scan("scan_acceptance", ("turan:15,5", "turan:20,5"), "C3,C3",
                            {"lo": 0.002, "hi": 0.2, "per_decade": 13}, 400, 54),
    # Its cost swings by a third between seeds (per-trial cost has a
    # coefficient of variation near 1 over only 40 trials), more than any
    # affordable run length averages out, so it scans one fixed seed.
    "scan_search": Scan("scan_search", ("turan:9,3",), "C3,C5",
                        {"lo": 0.02, "hi": 0.5, "per_decade": 6}, 40, 9,
                        fixed_seed=8020),
    "ramsey_check": RamseyCheck(),
    "density": Density(),
}


def snapshot(name: str, outputs, seed: int) -> dict:
    """The reference record of one job's outputs (see record_reference.py)."""
    if isinstance(WORKLOADS[name], Scan):
        return {"csv": {str(seed): outputs}}
    if name == "ramsey_check":
        return {"queries": {label: {"status": v.status, "nodes": v.stats.nodes,
                                    "checks": v.stats.checks,
                                    "cnf_clauses": len(doc.clauses), "cnf_vars": doc.nvars}
                            for label, (doc, v, _) in outputs["queries"].items()},
                "facts": [{"fact_id": r.fact_id, "status": r.status}
                          for r in outputs["facts"]]}
    return {"values": {k: v if isinstance(v, bool) else _frac(v)
                       for k, v in outputs["values"].items()},
            "oracle": [a.to_jsonable() for a in outputs["oracle"]]}


def workdir_root(root: str) -> str:
    path = os.path.join(root, ".perfbench_out")
    os.makedirs(path, exist_ok=True)
    return path
