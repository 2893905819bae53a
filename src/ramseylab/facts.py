"""Machine-checked small facts with certificates.

Each entry point re-derives one concrete combinatorial statement with
the exact engine or by direct enumeration and returns a FactReport:
status "verified" or "refuted" with a certificate, or "inconclusive"
when a search's node budget ran out.  Exploratory observations (small
cases outside any claim) are kept in a separate field and never count
as verification.  Each fact is one function registered by _fact under
its manifest op name, which also times it.
"""

from __future__ import annotations

import functools
import time
from typing import Optional

from .coloring import (DEFAULT_NODE_BUDGET, DEFAULT_RAMSEY_CAP, INCONCLUSIVE,
                       NOT_RAMSEY, RAMSEY, _normalize_targets, decide_ramsey,
                       ramsey_query, targets_ramsey_number)
from .densities import _frac, rho_bound_hm
from .graphs import (Graph, Pattern, _Record, _check_order, _check_power, clique_graph,
                     clique, cycle, hm_graph, hmr_graph, path, part_vertices)

VERIFIED = "verified"
REFUTED = "refuted"


class FactReport(_Record):
    def __init__(self, fact_id: str, statement: str, status: str,
                 certificate: Optional[dict] = None, exploration: Optional[dict] = None,
                 runtime: float = 0.0):
        self.fact_id = fact_id
        self.statement = statement
        self.status = status
        self.certificate = {} if certificate is None else certificate
        self.exploration = {} if exploration is None else exploration
        self.runtime = runtime

    def to_jsonable(self) -> dict:
        return {"fact_id": self.fact_id, "statement": self.statement,
                "status": self.status, "certificate": self.certificate,
                "exploration": self.exploration,
                "runtime": round(self.runtime, 6)}


_FACTS: dict = {}  # manifest op name -> fact function


def _fact(op: str):
    """Register a fact function under the manifest op name op; the
    registered function sets the runtime of the report it returns."""
    def register(fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.monotonic()
            report = fn(*args, **kwargs)
            report.runtime = time.monotonic() - t0
            return report
        _FACTS[op] = timed
        return timed
    return register


def _forced_pair(n: int, targets, node_budget: int = DEFAULT_NODE_BUDGET):
    """Decide K_n and K_{n-1} against targets.

    Returns the status (verified when K_n is Ramsey and K_{n-1} is not,
    inconclusive when either search ran out, refuted otherwise), both
    verdicts, and whether every color class of K_{n-1}'s witness is
    bipartite (None without a witness)."""
    upper = decide_ramsey(ramsey_query(clique_graph(n), targets, node_budget=node_budget))
    lower = decide_ramsey(ramsey_query(clique_graph(n - 1), targets, node_budget=node_budget))
    if INCONCLUSIVE in (upper.status, lower.status):
        status = INCONCLUSIVE
    else:
        status = VERIFIED if (upper.status, lower.status) == (RAMSEY, NOT_RAMSEY) else REFUTED
    bipartite = None if lower.witness is None else all(
        not lower.witness.color_subgraph(c).has_odd_cycle() for c in range(lower.witness.r))
    return status, upper, lower, bipartite


@_fact("list_cycle_lemma")
def verify_list_cycle_lemma() -> FactReport:
    """The complete graph first forces {red triangle} vs {blue triangle
    or blue 5-cycle} at five vertices."""
    targets = [[cycle(3)], [cycle(3), cycle(5)]]
    status, on5, on4, bipartite = _forced_pair(5, targets)
    cert = {"k4_status": on4.status, "k5_status": on5.status,
            "k5_nodes": on5.stats.nodes}
    if on4.witness is not None:
        cert["k4_witness"] = on4.witness.to_jsonable()
        cert["k4_witness_valid"] = bipartite
    return FactReport(
        "list_cycle_lemma",
        "two-coloring any K_n with n >= 5 forces a red triangle or a blue "
        "cycle from {C3, C5}, and K_4 does not",
        status, cert)


def _odd_cycles_up_to(n: int) -> list[Pattern]:
    return [cycle(length) for length in range(3, n + 1, 2)]


@_fact("odd_cycle_unavoidable")
def verify_odd_cycle_unavoidable(r: int,
                                 node_budget: int = DEFAULT_NODE_BUDGET) -> FactReport:
    """Every r-coloring of the complete graph on 2^r + 1 vertices has a
    monochromatic odd cycle, and 2^r vertices do not suffice."""
    if r < 1:
        raise ValueError(f"r must be at least 1, got {r}")
    _check_power(r)
    n = (1 << r) + 1
    _check_order(n)  # before r target lists of 2^(r-1) cycles each
    statement = (f"every {r}-coloring of K_{n} has a monochromatic odd cycle, "
                 f"while K_{n - 1} admits one with all classes bipartite")
    if r == 1:
        has = clique_graph(n).has_odd_cycle()
        avoid = not clique_graph(n - 1).has_odd_cycle()
        return FactReport("odd_cycle_unavoidable_r1", statement,
                          VERIFIED if has and avoid else REFUTED,
                          {"k3_has_odd_cycle": has, "k2_bipartite": avoid})
    status, upper, lower, bipartite = _forced_pair(n, [_odd_cycles_up_to(n)] * r, node_budget)
    cert = {"forced_status": upper.status, "forced_nodes": upper.stats.nodes,
            "tight_status": lower.status}
    if lower.witness is not None:
        cert["tight_witness"] = lower.witness.to_jsonable()
        cert["tight_witness_bipartite_classes"] = bipartite
    return FactReport(f"odd_cycle_unavoidable_r{r}", statement, status, cert)


@_fact("small_ramsey")
def verify_small_ramsey(first, second, expected: Optional[int] = None,
                        n_hi: int = DEFAULT_RAMSEY_CAP) -> FactReport:
    """Exhaustively locate the least complete-graph size forcing the
    two target families."""
    targets = _normalize_targets([first, second])
    value = targets_ramsey_number(targets, cap=n_hi)
    names = " | ".join("+".join(p.describe() for p in side) for side in targets)
    cert = {"value": value, "search_cap": n_hi}
    if value is None:
        status = INCONCLUSIVE
    elif expected is None:
        status = VERIFIED
    else:
        status = VERIFIED if value == expected else REFUTED
        cert["expected"] = expected
    return FactReport("small_ramsey", f"Ramsey number of ({names}) on complete hosts",
                      status, cert)


@_fact("path_readings")
def path_ramsey_readings(k: int, ell: int, n_hi: int = DEFAULT_RAMSEY_CAP) -> FactReport:
    """Both conventions for an index-(k-1) path, side by side.

    Reading A takes k-1 vertices, reading B k-1 edges (k vertices).
    Exploratory: the numbers are reported, nothing is asserted.
    """
    by_vertices = targets_ramsey_number([[path(k - 1)], [path(ell - 1)]], cap=n_hi)
    by_edges = targets_ramsey_number([[path(k)], [path(ell)]], cap=n_hi)
    return FactReport(
        "path_index_readings",
        f"smallest complete host forcing a path pair at index ({k - 1}, {ell - 1}), "
        "under the vertex-count and edge-count readings",
        VERIFIED,
        {"note": "both readings computed; no convention is asserted"},
        exploration={"vertex_count_reading": by_vertices,
                     "edge_count_reading": by_edges})


def _check_matched_structure(g: Graph, m: int, parts: int,
                             matched: set[tuple[int, int]]) -> dict:
    cert: dict = {"parts": parts, "part_size": m}
    sizes_ok = all(len(part_vertices(g, p)) == m for p in range(parts))
    cert["part_sizes_ok"] = sizes_ok
    ok = sizes_ok
    for p in range(parts):
        vs = part_vertices(g, p)
        if any(g.has_edge(u, v) for u in vs for v in vs if u < v):
            cert[f"part_{p}_internal_edges"] = True
            ok = False
    for p in range(parts):
        for q in range(p + 1, parts):
            vp, vq = part_vertices(g, p), part_vertices(g, q)
            degs = [sum(1 for v in vq if g.has_edge(u, v)) for u in vp]
            if (p, q) in matched:
                good = all(d == 1 for d in degs)
                back = [sum(1 for u in vp if g.has_edge(u, v)) for v in vq]
                good = good and all(d == 1 for d in back)
            else:
                good = all(d == len(vq) for d in degs)
            if not good:
                cert[f"pair_{p}_{q}_wrong"] = True
                ok = False
    cert["edge_count"] = g.edge_count
    cert["structure_ok"] = ok
    return cert


@_fact("matched_gadget")
def verify_matched_gadget(m: int, k: int = 3, ell: int = 5,
                          explore_budget_nodes: int = 2 * 10 ** 6) -> FactReport:
    """Structure of the five-part gadget: two cross matchings, complete
    otherwise, and a three-piece partition of density at most 1/2.

    For m <= 2 also attempts the cycle Ramsey decision on the gadget,
    recorded as exploration only (the property is only claimed for
    large part sizes)."""
    g = hm_graph(m)
    cert = _check_matched_structure(g, m, 5, {(0, 1), (2, 3)})
    expected_edges = 2 * m + 8 * m * m
    cert["edge_count_expected"] = expected_edges
    ok = cert["structure_ok"] and g.edge_count == expected_edges
    bound, groups = rho_bound_hm(m, 2)
    cert["partition_density_bound"] = _frac(bound)
    cert["partition_pieces"] = len(groups)
    exploration: dict = {}
    if m <= 2:
        verdict = decide_ramsey(ramsey_query(g, [cycle(k), cycle(ell)],
                                             node_budget=explore_budget_nodes))
        exploration[f"ramsey_c{k}_c{ell}_at_m{m}"] = verdict.status
        if verdict.witness is not None:
            exploration["witness"] = verdict.witness.to_jsonable()
    return FactReport(
        "matched_gadget_structure",
        f"five parts of size {m}, matchings between the first two part "
        f"pairs, complete elsewhere, {expected_edges} edges, and a "
        "3-piece partition of density at most 1/2",
        VERIFIED if ok else REFUTED, cert, exploration)


@_fact("matched_gadget_general")
def verify_matched_gadget_general(m: int, r: int) -> FactReport:
    """Structure of the (2^r + 1)-part generalization, and agreement
    with the five-part gadget at r = 2."""
    g = hmr_graph(m, r)
    parts = (1 << r) + 1
    matched = {(2 * i, 2 * i + 1) for i in range(1 << (r - 1))}
    cert = _check_matched_structure(g, m, parts, matched)
    ok = cert["structure_ok"]
    if r == 2:
        cert["equals_five_part_gadget"] = (g == hm_graph(m))
        ok = ok and cert["equals_five_part_gadget"]
    bound, groups = rho_bound_hm(m, r)
    cert["partition_density_bound"] = _frac(bound)
    cert["partition_pieces"] = len(groups)
    return FactReport(
        "matched_gadget_general_structure",
        f"{parts} parts of size {m} with {len(matched)} cross matchings, "
        "complete elsewhere, and a partition into "
        f"{(1 << (r - 1)) + 1} pieces of density at most 1/2",
        VERIFIED if ok else REFUTED, cert)


@_fact("bipartite_split")
def verify_bipartite_split(i: int, n: Optional[int] = None) -> FactReport:
    """A complete 2^i-partite graph splits into i bipartite graphs."""
    from .constructions import bipartite_decomposition
    from .graphs import turan_graph

    if i < 1:
        raise ValueError(f"i must be at least 1, got {i}")
    _check_power(i)
    parts = 1 << i
    if n is None:
        n = 3 * parts
    g = turan_graph(n, parts)
    classes = bipartite_decomposition(g, i)
    sizes = [sub.edge_count for sub in classes]
    ok = (sum(sizes) == g.edge_count
          and all(not sub.has_odd_cycle() for sub in classes))
    return FactReport(
        "bipartite_split",
        f"the complete {parts}-partite graph on {n} vertices splits into "
        f"{i} edge-disjoint bipartite graphs",
        VERIFIED if ok else REFUTED,
        {"class_edge_counts": sizes, "total_edges": g.edge_count})


def default_fact_suite() -> list[FactReport]:
    """The standing collection of checked facts, cheap enough to run
    routinely."""
    return [
        verify_list_cycle_lemma(),
        verify_odd_cycle_unavoidable(1),
        verify_odd_cycle_unavoidable(2),
        verify_small_ramsey(cycle(3), cycle(5), expected=9),
        verify_small_ramsey(clique(3), clique(3), expected=6),
        path_ramsey_readings(4, 4),
        verify_matched_gadget(1),
        verify_matched_gadget_general(1, 3),
        verify_bipartite_split(2),
        verify_bipartite_split(3),
    ]
