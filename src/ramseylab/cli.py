"""Command-line front end.

Subcommands: density, threshold, ramsey-check, construct, scan, facts,
replay.  Results print as JSON (facts also as CSV rows, with --format
csv) and can be written with --out; a scan writes its CSV there.  Exit
codes: 0 success, 2 inconclusive (node budget exhausted) or uncovered,
1 error, usage errors included.  Searches are limited by node count
only; bound a whole run's wall time from outside, e.g. with
`timeout 60 ramseylab ...`.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from . import graph6
from .coloring import (DEFAULT_NODE_BUDGET, INCONCLUSIVE, decide_ramsey,
                       export_cnf, ramsey_query, verify_coloring)
from .constructions import (ConstructionError, bipartite_decomposition,
                            clique_split_coloring, lift_coloring,
                            odd_cycle_free_multicoloring, turan_blue_composite,
                            _avoiding_coloring)
from .densities import _frac, d2, m2, m2_asym, mu0, mu1, rho, rho_k_with_partition
from .experiments import (ManifestError, PACKAGE_VERSION, _fact_report, parse_pattern,
                          parse_targets, replay, run_experiment)
from .facts import REFUTED, default_fact_suite
from .graphs import Graph, build_family, clique_graph
from .perturb import DEFAULT_PER_DECADE, log_spaced_grid
from .thresholds import UNKNOWN, threshold_oracle

OK, ERROR, UNDECIDED = 0, 1, 2


_NUMBER_KINDS = {int: "an integer", float: "a number",
                 Fraction: "an exact rational such as 2/5"}


def _number_arg(kind, text: str, option: str):
    """kind(text), for kind int, float or Fraction; text that does not
    parse is an error naming the option and the text."""
    try:
        return kind(text)
    except ZeroDivisionError:
        raise ManifestError(f"{option}: {text!r} has a zero denominator") from None
    except ValueError:
        raise ManifestError(f"{option} needs {_NUMBER_KINDS[kind]}, "
                            f"got {text!r}") from None


def _family_arg(args) -> Graph:
    """--family, which some constructions require."""
    if args.family is None:
        raise ManifestError(f"--name {args.name} needs --family")
    return _graph_arg(args.family)


def _graph_arg(text: str) -> Graph:
    """A host graph: family descriptor when it has a ':', else graph6."""
    if ":" in text:
        return build_family(text)
    return graph6.decode(text)


def _grid_arg(text: str) -> list[float]:
    """Probability grid: 'lo:hi[:per_decade]' log spaced, or 'a,b,c'."""
    if ":" in text:
        pieces = text.split(":")
        per_decade = (_number_arg(int, pieces[2], "--p-grid PER_DECADE")
                      if len(pieces) > 2 else DEFAULT_PER_DECADE)
        return log_spaced_grid(_number_arg(float, pieces[0], "--p-grid LO"),
                               _number_arg(float, pieces[1], "--p-grid HI"), per_decade)
    return [_number_arg(float, tok, "--p-grid") for tok in text.split(",") if tok]


def _rows_to_csv(rows: list[dict]) -> str:
    import csv
    import io

    fields: list[str] = []
    for row in rows:
        fields.extend(k for k in row if k not in fields)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: json.dumps(v) if isinstance(v, (dict, list)) else v
                         for k, v in row.items()})
    return buf.getvalue()


def _emit(payload, args) -> None:
    if getattr(args, "format", "json") == "csv":
        # only facts takes --format: one row per fact report
        text = _rows_to_csv(payload if isinstance(payload, list) else [payload])
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_density(args) -> int:
    if args.m2 is not None:
        g = _graph_arg(args.m2)
        payload = {"op": "m2", "graph": args.m2, "value": _frac(m2(g))}
    elif args.m2_asym is not None:
        g1, g2 = (_graph_arg(tok) for tok in args.m2_asym)
        payload = {"op": "m2_asym", "graphs": list(args.m2_asym),
                   "value": _frac(m2_asym(g1, g2))}
    elif args.d2 is not None:
        payload = {"op": "d2", "graph": args.d2,
                   "value": _frac(d2(_graph_arg(args.d2)))}
    elif args.rho is not None:
        payload = {"op": "rho", "graph": args.rho,
                   "value": _frac(rho(_graph_arg(args.rho)))}
    elif args.rho_k is not None:
        code, k_text = args.rho_k
        k = _number_arg(int, k_text, "--rho-k K")
        value, parts = rho_k_with_partition(_graph_arg(code), k)
        payload = {"op": "rho_k", "graph": code, "k": k,
                   "value": _frac(value),
                   "partition": [sorted(part) for part in parts]}
    else:
        code, n_text, p_text = args.mu
        g = _graph_arg(code)
        n = _number_arg(int, n_text, "--mu N")
        p = _number_arg(Fraction, p_text, "--mu P")
        payload = {"op": "mu", "graph": code, "n": n, "p": _frac(p),
                   "mu0": _frac(mu0(g, n, p)), "mu1": _frac(mu1(g, n, p))}
    _emit(payload, args)
    return OK


def _cmd_threshold(args) -> int:
    patterns = []
    for tok in args.patterns.split(","):
        pats = [parse_pattern(t) for t in tok.split("+")]
        if len(pats) != 1:
            raise ManifestError("the threshold oracle takes one pattern per color")
        patterns.append(pats[0])
    density = _number_arg(Fraction, args.density, "--density")
    answer = threshold_oracle(patterns, density)
    payload = answer.to_jsonable()
    payload["patterns"] = [p.describe() for p in patterns]
    payload["density"] = _frac(density)
    _emit(payload, args)
    return UNDECIDED if answer.kind == UNKNOWN else OK


def _targets_text(args) -> str:
    """--targets, or --red and --blue joined in its 'K3,K3+C5' form."""
    if args.targets:
        return args.targets
    if not (args.red and args.blue):
        raise ManifestError("need --red and --blue, or --targets")
    if "," in args.red + args.blue:
        raise ManifestError("--red and --blue take one color each; use --targets")
    return f"{args.red},{args.blue}"


def _build_query(args):
    host = _graph_arg(args.host)
    targets = parse_targets(_targets_text(args))
    forbidden = None
    if args.forbid:
        with open(args.forbid, encoding="utf-8") as fh:
            forbidden = json.load(fh)
    return ramsey_query(host, targets, forbidden, node_budget=args.budget_nodes)


def _cmd_ramsey_check(args) -> int:
    query = _build_query(args)
    if args.cnf:
        doc = export_cnf(query)
        with open(args.cnf, "w", encoding="utf-8") as fh:
            fh.write(doc.dimacs())
    verdict = decide_ramsey(query)
    payload = {"host_vertices": query.host.n, "host_edges": len(query.host.edges()),
               "status": verdict.status,
               "nodes": verdict.stats.nodes, "elapsed": round(verdict.stats.elapsed, 4)}
    if verdict.witness is not None:
        payload["witness"] = verdict.witness.to_jsonable()
        payload["witness_violations"] = len(verify_coloring(verdict.witness, query))
    if args.cnf:
        payload["cnf"] = args.cnf
    _emit(payload, args)
    return UNDECIDED if verdict.status == INCONCLUSIVE else OK


def _coloring_payload(coloring, checks: dict) -> dict:
    return {"coloring": coloring.to_jsonable(), "verified": True, "checks": checks}


def _cmd_construct(args) -> int:
    name = args.name
    if name == "bip-decomp":
        g = _family_arg(args)
        classes = bipartite_decomposition(g, args.i)
        payload = {"classes": [graph6.encode(c) for c in classes],
                   "verified": True,
                   "checks": {"class_edges": [c.edge_count for c in classes],
                              "total_edges": g.edge_count}}
    elif name == "multicycle":
        coloring = odd_cycle_free_multicoloring(args.n, args.r, args.band)
        payload = _coloring_payload(coloring, {
            "colors": coloring.r,
            "odd_cycle_free": [not coloring.color_subgraph(c).has_odd_cycle()
                               for c in range(coloring.r)]})
    elif name == "lift":
        base = _avoiding_coloring(clique_graph(args.k), parse_targets(args.avoid),
                                  f"K_{args.k}")
        blown = _family_arg(args)
        coloring = lift_coloring(base, blown)
        payload = _coloring_payload(coloring, {
            "base": base.to_jsonable(), "lifted_vertices": blown.n})
    elif name == "turan-blue":
        from .graphs import clique, part_vertices, turan_graph
        from .perturb import sample_gnp
        skeleton = turan_graph(args.n, args.k)
        inner = []
        for idx in range(args.k):
            part_graph = sample_gnp(len(part_vertices(skeleton, idx)), args.p, args.seed,
                                    trial=idx)
            inner.append(_avoiding_coloring(
                part_graph, [clique(args.t), clique(args.ell)], f"part {idx}"))
        coloring = turan_blue_composite(args.n, args.k, inner, args.t,
                                        args.ell, args.s)
        payload = _coloring_payload(coloring, {
            "parts": args.k, "avoids_red_clique": args.t,
            "avoids_blue_clique": args.s or args.k * (args.ell - 1) + 1})
    elif name == "k4-lower":
        from .perturb import sample_gnp
        if args.s is None:
            raise ManifestError(f"--name {name} needs --s")
        rnd = sample_gnp(args.n, args.p, args.seed)
        a_size = args.a_size if args.a_size is not None else args.n // 2
        ab = (list(range(a_size)), list(range(a_size, args.n)))
        coloring = clique_split_coloring(args.n, args.k, args.s, args.t, ab, rnd)
        payload = _coloring_payload(coloring, {
            "a_size": a_size, "random_edges": rnd.edge_count,
            "avoids_red_clique": args.t, "avoids_blue_clique": args.s})
    else:
        raise ManifestError(f"unknown construction {name!r}")
    _emit(payload, args)
    return OK


def _cmd_scan(args) -> int:
    manifest = {
        "op": "scan",
        "args": {"bases": args.base, "targets": _targets_text(args),
                 "p_grid": _grid_arg(args.p_grid), "trials": args.trials,
                 "node_budget": args.budget_nodes},
        "out": args.out or "results.csv",
    }
    if args.seed is not None:
        manifest["seed"] = args.seed
    result = run_experiment(manifest)
    bases = [build_family(b) for b in manifest["args"]["bases"]]
    scan_summary = {"out": result["out"], "manifest": result["manifest"],
                    "seed": result["resolved"]["seed"],
                    "sizes": [g.n for g in bases]}
    sys.stdout.write(json.dumps(scan_summary, indent=2) + "\n")
    return OK


def _cmd_facts(args) -> int:
    if args.fact_args is not None and not args.only:
        raise ManifestError("--fact-args needs --only")
    if args.only:
        extra = {}
        if args.fact_args:
            extra = json.loads(args.fact_args)
        reports = [_fact_report(args.only, extra)]
    else:
        reports = default_fact_suite()
    payload = [r.to_jsonable() for r in reports]
    _emit(payload if len(payload) > 1 else payload[0], args)
    statuses = {r.status for r in reports}
    if REFUTED in statuses:
        return ERROR
    if INCONCLUSIVE in statuses:
        return UNDECIDED
    return OK


def _cmd_replay(args) -> int:
    report = replay(args.manifest)
    _emit(report, args)
    return OK if report["identical"] else ERROR


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but a usage error exits with ERROR: argparse's
    own status 2 is this CLI's "inconclusive".  Subparsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ramseylab",
        description="Ramsey properties of randomly perturbed dense graphs: "
                    "exact small-case search, density calculus, threshold "
                    "classification, verified constructions, Monte Carlo scans.")
    parser.add_argument("--version", action="version", version=PACKAGE_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budget=False):
        p.add_argument("--out", help="write the result here instead of stdout")
        if budget:
            p.add_argument("--budget-nodes", type=int, default=DEFAULT_NODE_BUDGET,
                           help="search node budget")

    p = sub.add_parser("density", help="exact density calculus on graph6 or "
                                       "family inputs such as turan:6,3")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--m2", metavar="GRAPH")
    group.add_argument("--m2-asym", nargs=2, metavar=("GRAPH1", "GRAPH2"))
    group.add_argument("--d2", metavar="GRAPH")
    group.add_argument("--rho", metavar="GRAPH")
    group.add_argument("--rho-k", nargs=2, metavar=("GRAPH", "K"))
    group.add_argument("--mu", nargs=3, metavar=("GRAPH", "N", "P"),
                       help="mu0 and mu1 at vertex count N, probability P")
    common(p)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("threshold",
                       help="classify the perturbed Ramsey threshold exponent")
    p.add_argument("--patterns", required=True,
                   help="one pattern per color, comma separated: K5,K3")
    p.add_argument("--density", required=True, help="seed density, e.g. 2/5")
    common(p)
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("ramsey-check", help="exact Ramsey decision on one host")
    p.add_argument("--host", required=True, help="graph6 or family like turan:12,4")
    p.add_argument("--red", help="color-0 targets, '+'-separated")
    p.add_argument("--blue", help="color-1 targets")
    p.add_argument("--targets", help="all colors at once: K3,K3+C5[,...]")
    p.add_argument("--forbid", help="JSON file: per color, list of vertex lists")
    p.add_argument("--cnf", help="also write the DIMACS encoding here")
    common(p, budget=True)
    p.set_defaults(func=_cmd_ramsey_check)

    p = sub.add_parser("construct", help="verified adversarial colorings")
    p.add_argument("--name", required=True,
                   choices=("turan-blue", "k4-lower", "lift", "bip-decomp",
                            "multicycle"))
    p.add_argument("--family", help="host family (bip-decomp, lift)")
    p.add_argument("--i", type=int, default=2, help="bipartite class count")
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--k", type=int, default=4, help="part count")
    p.add_argument("--r", type=int, default=3, help="color count (multicycle)")
    p.add_argument("--band", type=int, default=1, choices=(1, 2))
    p.add_argument("--t", type=int, default=5)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--ell", type=int, default=3)
    p.add_argument("--p", type=float, default=0.0,
                   help="random-part edge probability")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--a-size", type=int, default=None)
    p.add_argument("--avoid", default="C3+C5+C7,C3+C5+C7",
                   help="targets the lifted base coloring must avoid")
    common(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("scan", help="Monte Carlo success curves over a p grid")
    p.add_argument("--base", action="append", required=True,
                   help="base family, repeatable: turan:15,5")
    p.add_argument("--red")
    p.add_argument("--blue")
    p.add_argument("--targets")
    p.add_argument("--p-grid", required=True,
                   help="'lo:hi[:per_decade]' or explicit 'a,b,c'")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    common(p, budget=True)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("facts", help="run the verified-facts suite")
    p.add_argument("--only", help="one fact id instead of the whole suite")
    p.add_argument("--fact-args", help="JSON kwargs for --only")
    p.add_argument("--format", choices=("csv", "json"), default="json",
                   help="csv: one row per fact")
    common(p)
    p.set_defaults(func=_cmd_facts)

    p = sub.add_parser("replay", help="re-run a stored experiment manifest")
    p.add_argument("manifest", help="path to a resolved .manifest.json")
    common(p)
    p.set_defaults(func=_cmd_replay)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ManifestError, ConstructionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
