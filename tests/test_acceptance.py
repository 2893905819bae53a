"""End-to-end acceptance gate, one numbered criterion per test.

Each test prints a single "ACCEPTANCE n: PASS/FAIL" line before its
assertions fire (run pytest -s to see the lines for green runs), states
its tolerance, and measures its own runtime against the stated budget.
Wherever a criterion demands an independent route, the check here is
written from scratch with plain loops rather than through the package.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import dpll
import oracles
from ramseylab.coloring import (EdgeColoring, NOT_RAMSEY, RAMSEY, decide_ramsey,
                                export_cnf, ramsey_query, targets_ramsey_number,
                                verify_coloring)
from ramseylab.constructions import (bipartite_decomposition,
                                     clique_split_coloring, lift_coloring,
                                     odd_cycle_free_multicoloring,
                                     turan_blue_composite)
from ramseylab.densities import m2, m2_asym, mu0, mu1, rho, rho_k
from ramseylab.experiments import replay, run_experiment
from ramseylab.facts import verify_list_cycle_lemma, verify_odd_cycle_unavoidable
from ramseylab.graphs import (Graph, blowup, clique, clique_graph,
                              complete_multipartite, contains_pattern, cycle,
                              cycle_graph, empty_graph, hm_graph, hmr_graph,
                              part_vertices, path_graph, turan_graph)
from ramseylab.perturb import drc_select, sample_gnp
from ramseylab.thresholds import (EXACT, ZERO, threshold_oracle)


def report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_list_ramsey_number():
    """R({C3},{C3,C5}) = 5: verified K4 counterexample, exhaustive K5."""
    t0 = time.monotonic()
    fact = verify_list_cycle_lemma()
    cert = fact.certificate
    value = targets_ramsey_number([[cycle(3)], [cycle(3), cycle(5)]], cap=6)
    dt = time.monotonic() - t0
    ok = (fact.status == "verified"
          and cert["k4_status"] == NOT_RAMSEY
          and cert["k5_status"] == RAMSEY
          and cert["k4_witness_valid"] is True
          and value == 5
          and dt < 1.0)
    report(1, ok, f"list Ramsey number ({{C3}} vs {{C3,C5}}) = {value}, "
                  f"K4 counterexample verified, K5 exhaustive [exact] ({dt:.2f}s < 1s)")


def test_criterion_2_k5_forces_monochromatic_odd_cycle():
    """All 2^10 two-colorings of K5, checked by a local bipartiteness test."""
    t0 = time.monotonic()

    def bipartite(n, edge_list):
        adj = [[] for _ in range(n)]
        for u, v in edge_list:
            adj[u].append(v)
            adj[v].append(u)
        side = [None] * n
        for s in range(n):
            if side[s] is not None:
                continue
            side[s] = 0
            stack = [s]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if side[y] is None:
                        side[y] = 1 - side[x]
                        stack.append(y)
                    elif side[y] == side[x]:
                        return False
        return True

    def avoiding_colorings(n):
        edges = list(itertools.combinations(range(n), 2))
        count = 0
        for mask in range(1 << len(edges)):
            red = [e for i, e in enumerate(edges) if mask >> i & 1]
            blue = [e for i, e in enumerate(edges) if not mask >> i & 1]
            if bipartite(n, red) and bipartite(n, blue):
                count += 1
        return count

    on_k5 = avoiding_colorings(5)
    on_k4 = avoiding_colorings(4)

    fact = verify_odd_cycle_unavoidable(2)
    cert = fact.certificate
    dt = time.monotonic() - t0
    ok = (on_k5 == 0
          and on_k4 > 0
          and fact.status == "verified"
          and cert["forced_status"] == RAMSEY
          and cert["tight_status"] == NOT_RAMSEY
          and cert["tight_witness_bipartite_classes"] is True
          and dt < 1.0)
    report(2, ok, f"all 1024 two-colorings of K5 have a monochromatic odd cycle "
                  f"(local route: 0 avoiding; K4 has {on_k4}), engine agrees "
                  f"[exact] ({dt:.2f}s < 1s)")


def test_criterion_3_engine_and_sat_solver_agree():
    """K6 Ramsey / K5 not for (C3,C3); CNF export decided by a separate solver."""
    t0 = time.monotonic()
    q6 = ramsey_query(clique_graph(6), [cycle(3), cycle(3)])
    q5 = ramsey_query(clique_graph(5), [cycle(3), cycle(3)])
    v6 = decide_ramsey(q6)
    v5 = decide_ramsey(q5)
    witness_ok = v5.witness is not None and verify_coloring(v5.witness, q5) == []

    doc5 = export_cnf(q5)
    model5 = dpll.solve(doc5.nvars, doc5.clauses)
    sat_ok = model5 is not None and dpll.check_model(doc5.clauses, model5)
    decoded_ok = False
    if sat_ok:
        # var i+1 true means canonical edge i is red
        colors = tuple(0 if model5[i + 1] else 1 for i in range(doc5.nvars))
        decoded = EdgeColoring(clique_graph(5), 2, colors)
        decoded_ok = verify_coloring(decoded, q5) == []
    doc6 = export_cnf(q6)
    unsat_ok = dpll.solve(doc6.nvars, doc6.clauses) is None
    dt = time.monotonic() - t0
    ok = (v6.status == RAMSEY and v5.status == NOT_RAMSEY and witness_ok
          and sat_ok and decoded_ok and unsat_ok and dt < 5.0)
    report(3, ok, f"K6 (C3,C3)-Ramsey, K5 not (witness verified); CNF SAT for K5 "
                  f"(model decodes to a valid coloring), UNSAT for K6 "
                  f"[exact] ({dt:.2f}s < 5s)")


def test_criterion_4_density_oracle_equivalence():
    """m2, m2(.,.), rho, rho_k, mu0, mu1 against subset/partition brutes."""
    t0 = time.monotonic()
    rng = random.Random(404)
    pool = []
    for _ in range(500):
        n = rng.randint(2, 8)
        pool.append(oracles.random_graph(rng, n, rng.choice([0.2, 0.35, 0.5, 0.7, 0.9])))
    named = ([clique_graph(t) for t in range(2, 9)]
             + [cycle_graph(length) for length in range(3, 10)]
             + [path_graph(k) for k in range(2, 9)]
             + [turan_graph(6, 2), turan_graph(6, 3), turan_graph(7, 3), turan_graph(8, 4)]
             + [complete_multipartite([1, 2, 3]), complete_multipartite([2, 2, 2, 2])]
             + [blowup(cycle_graph(5), 2), hm_graph(1), hmr_graph(1, 3),
                empty_graph(1), empty_graph(4)])
    checked = 0
    for g in pool + named:
        assert rho(g) == oracles.rho_brute(g)
        for k in (2, 3):
            assert rho_k(g, k) == oracles.rho_k_brute(g, k)
        if g.edge_count:
            assert m2(g) == oracles.m2_brute(g)
            p = Fraction(rng.randint(1, 9), 10)
            nh = rng.randint(g.n, 20)
            assert mu0(g, nh, p) == oracles.mu0_brute(g, nh, p)
            assert mu1(g, nh, p) == oracles.mu1_brute(g, nh, p)
        checked += 1
    edged = [g for g in pool if g.edge_count]
    pairs = 0
    for i in range(0, len(edged) - 1, 2):
        g1, g2 = edged[i], edged[i + 1]
        h1, h2 = (g1, g2) if m2(g1) >= m2(g2) else (g2, g1)
        assert m2_asym(h1, h2) == oracles.m2_asym_brute(h1, h2)
        pairs += 1
    dt = time.monotonic() - t0
    ok = checked == 500 + len(named) and pairs >= 200 and dt < 60.0
    report(4, ok, f"{checked} graphs (500 random <=8 vertices + {len(named)} named) "
                  f"and {pairs} ordered pairs agree with brute-force oracles "
                  f"[exact rational equality] ({dt:.1f}s < 60s)")


def test_criterion_5_closed_forms():
    """Clique density closed forms and the 3-partition density of K6."""
    t0 = time.monotonic()
    ok = True
    for t in range(3, 8):
        ok = ok and m2(clique_graph(t)) == Fraction(t + 1, 2)
        ok = ok and m2_asym(clique_graph(t), clique_graph(3)) == Fraction(t * (t - 1), 2 * t - 3)
        for s in range(3, t + 1):
            expect = Fraction(2 * (t * s + t - 2 * s), t * (t - 1) * (s + 1))
            ok = ok and 1 / m2_asym(clique_graph(t), clique_graph(s)) == expect
    ok = ok and rho_k(clique_graph(6), 3) == Fraction(1, 2)
    dt = time.monotonic() - t0
    report(5, ok, "m2(Kt) = (t+1)/2 and m2(Kt,K3) = t(t-1)/(2t-3) for t = 3..7; "
                  "1/m2(Kt,Ks) = 2(ts+t-2s)/(t(t-1)(s+1)) for 3 <= s <= t <= 7; "
                  f"rho_3(K6) = 1/2 [exact] ({dt:.2f}s)")


# (first, second, density, kind, exponent) covering every parity/band
# combination of the two-cycle threshold table, boundaries included.
CYCLE_TABLE = [
    # even/even: no random edges needed at any density
    (4, 6, Fraction(1, 2), ZERO, None),
    (6, 8, Fraction(9, 10), ZERO, None),
    # odd/even: n^-1 up to 1/2, nothing above
    (3, 4, Fraction(2, 5), EXACT, Fraction(-1)),
    (5, 6, Fraction(1, 2), EXACT, Fraction(-1)),
    (3, 6, Fraction(3, 5), ZERO, None),
    (7, 4, Fraction(51, 100), ZERO, None),
    # two triangles: middle band reaches 4/5
    (3, 3, Fraction(1, 2), EXACT, Fraction(-1)),
    (3, 3, Fraction(3, 5), EXACT, Fraction(-2)),
    (3, 3, Fraction(4, 5), EXACT, Fraction(-2)),
    (3, 3, Fraction(9, 10), ZERO, None),
    # odd/odd with a longer cycle: middle band stops at 3/4
    (5, 7, Fraction(1, 2), EXACT, Fraction(-1)),
    (5, 5, Fraction(3, 5), EXACT, Fraction(-2)),
    (7, 5, Fraction(3, 4), EXACT, Fraction(-2)),
    (5, 7, Fraction(4, 5), ZERO, None),
]

WORKED_EXAMPLES = [
    ([clique(7), clique(5)], Fraction(2, 5), EXACT, Fraction(-11, 42)),
    ([cycle(3), cycle(3)], Fraction(3, 5), EXACT, Fraction(-2)),
    ([cycle(4), cycle(6)], Fraction(1, 10), ZERO, None),
    ([clique(4), clique(4)], Fraction(1, 3), EXACT, Fraction(-1, 2)),
    ([clique(5), cycle(7)], Fraction(1, 2), EXACT, Fraction(-1, 2)),
]


def test_criterion_6_threshold_oracle_fidelity():
    t0 = time.monotonic()
    ok = True
    for targets, d, kind, exponent in WORKED_EXAMPLES:
        ans = threshold_oracle(targets, d)
        ok = ok and ans.kind == kind and ans.exponent == exponent
    for first, second, d, kind, exponent in CYCLE_TABLE:
        ans = threshold_oracle([cycle(first), cycle(second)], d)
        ok = ok and ans.kind == kind and ans.exponent == exponent
    dt = time.monotonic() - t0
    report(6, ok, f"{len(WORKED_EXAMPLES)} worked examples and "
                  f"{len(CYCLE_TABLE)}-row two-cycle density table reproduced "
                  f"[exact] ({dt:.2f}s)")


def _engine_witness(cache, m, t_clique, ell_clique):
    key = (m, t_clique, ell_clique)
    if key not in cache:
        verdict = decide_ramsey(ramsey_query(
            clique_graph(m), [clique(t_clique), clique(ell_clique)]))
        cache[key] = verdict.witness if verdict.status == NOT_RAMSEY else None
    return cache[key]


def _odd_menu_witness(cache, b):
    # all base color classes come out bipartite because odd cycles on
    # <= 4 vertices are exactly the triangles
    key = b
    if key not in cache:
        verdict = decide_ramsey(ramsey_query(
            clique_graph(b), [[cycle(3)], [cycle(3)]]))
        cache[key] = verdict.witness if verdict.status == NOT_RAMSEY else None
    return cache[key]


def test_criterion_7_construction_certificates():
    """Fifty randomized verified instances of each of the five builders."""
    t0 = time.monotonic()
    rng = random.Random(707)
    counts = {}

    done = 0
    while done < 50:
        nparts = rng.randint(2, 8)
        i = max(1, (nparts - 1).bit_length())
        sizes = [rng.randint(1, 3) for _ in range(nparts)]
        g = complete_multipartite(sizes)
        if rng.random() < 0.5:
            edges = [e for e in g.edges() if rng.random() < 0.8]
            g = Graph.from_edges(g.n, edges, g.labels)
        classes = bipartite_decomposition(g, i)
        assert sum(sub.edge_count for sub in classes) == g.edge_count
        assert all(not sub.has_odd_cycle() for sub in classes)
        done += 1
    counts["bipartite_decomposition"] = done

    cache = {}
    done = 0
    while done < 50:
        k = rng.randint(2, 4)
        ell = rng.randint(3, 4)
        t = rng.randint(3, 5)
        m = rng.randint(1, min(6, 24 // k))
        if rng.random() < 0.3 or m == 1:
            inner = EdgeColoring(empty_graph(m), 2, ())
        else:
            inner = _engine_witness(cache, m, t, ell)
            if inner is None:
                continue
        composite = turan_blue_composite(k * m, k, [inner] * k, t, ell)
        assert composite.host.n == k * m
        done += 1
    counts["turan_blue_composite"] = done

    done = 0
    while done < 50:
        k = rng.randint(2, 4)
        s = rng.randint(k + 2, 2 * k)
        t = s + rng.randint(0, 2)
        n = rng.randint(k, 24)
        a_size = rng.randint(0, n)
        ab = (list(range(a_size)), list(range(a_size, n)))
        rnd = empty_graph(n)
        if rng.random() < 0.5:
            base = sample_gnp(n, 0.08, seed=1000 + done)
            in_a = set(ab[0])
            kept = [e for e in base.edges() if e[0] in in_a or e[1] in in_a]
            candidate = Graph.from_edges(n, kept)
            if not contains_pattern(candidate.induced(ab[0]), clique(t)):
                rnd = candidate
        coloring = clique_split_coloring(n, k, s, t, ab, rnd)
        assert coloring.host.n == n
        done += 1
    counts["clique_split_coloring"] = done

    odd_cache = {}
    done = 0
    while done < 50:
        b = rng.randint(3, 4)
        base = _odd_menu_witness(odd_cache, b)
        m = rng.randint(2, 24 // b)
        blown = blowup(base.host, m)
        if rng.random() < 0.5:
            edges = [e for e in blown.edges() if rng.random() < 0.85]
            blown = Graph.from_edges(blown.n, edges, blown.labels)
        lifted = lift_coloring(base, blown)
        for c in range(2):
            if not base.color_subgraph(c).has_odd_cycle():
                assert not lifted.color_subgraph(c).has_odd_cycle()
        done += 1
    counts["lift_coloring"] = done

    done = 0
    while done < 50:
        r = rng.randint(2, 4)
        band = rng.randint(1, 2)
        ncolors = r - 1 if band == 1 else r
        parts = 1 << ncolors
        n = rng.randint(parts, 24)
        coloring = odd_cycle_free_multicoloring(n, r, band)
        assert coloring.r == ncolors
        assert all(not coloring.color_subgraph(c).has_odd_cycle()
                   for c in range(ncolors))
        done += 1
    counts["odd_cycle_free_multicoloring"] = done

    dt = time.monotonic() - t0
    ok = all(v >= 50 for v in counts.values()) and dt < 120.0
    report(7, ok, f"5 builders x {min(counts.values())} randomized instances "
                  f"(n <= 24) all pass internal verification, zero violations "
                  f"[property-based] ({dt:.1f}s < 120s)")


def _crossing_local(points):
    for (p0, r0), (p1, r1) in zip(points, points[1:]):
        if r0 < 0.5 <= r1:
            f = (0.5 - r0) / (r1 - r0)
            return math.exp(math.log(p0) + f * (math.log(p1) - math.log(p0)))
    if points and points[0][1] >= 0.5:
        return points[0][0]
    return None


def test_criterion_8_scan_replay_and_monotonicity(tmp_path):
    """Turan(n,5) + G(n,p) against (C3,C3): replay, bracketing, monotone."""
    t0 = time.monotonic()
    manifest = {"op": "scan", "seed": 8020, "out": "acceptance_scan.csv",
                "args": {"bases": ["turan:15,5", "turan:20,5"],
                         "targets": "C3,C3",
                         "p_grid": {"lo": 0.002, "hi": 0.2, "per_decade": 13},
                         "trials": 400}}
    result = run_experiment(manifest, base_dir=str(tmp_path))
    rep = replay(result["manifest"])
    identical = rep["identical"] is True

    rows = []
    with open(result["out"]) as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            cells = line.strip().split(",")
            rows.append(dict(zip(header, cells)))
    by_size = {}
    inconclusive = 0
    for row in rows:
        n = int(row["n"])
        inconclusive += int(row["inconclusive"])
        by_size.setdefault(n, []).append(
            (float(row["p"]), int(row["successes"]) / int(row["trials"]),
             float(row["wilson_lo"]), float(row["wilson_hi"])))

    monotone = True
    brackets = True
    crossings = {}
    for n, points in by_size.items():
        points.sort()
        for (_, r0, lo0, _), (_, r1, _, hi1) in zip(points, points[1:]):
            # a decrease only counts when the Wilson intervals are disjoint
            if r1 < r0 and hi1 < lo0:
                monotone = False
        brackets = brackets and points[0][1] <= 0.15 and points[-1][1] >= 0.9
        crossings[n] = _crossing_local([(p, r) for p, r, _, _ in points])

    exponent = None
    if crossings.get(15) and crossings.get(20):
        exponent = ((math.log(crossings[20]) - math.log(crossings[15]))
                    / (math.log(20) - math.log(15)))
    dt = time.monotonic() - t0
    ok = (identical and monotone and brackets and inconclusive == 0
          and None not in crossings.values() and len(by_size) == 2
          and dt < 600.0)
    report(8, ok, f"replay byte-identical={identical}, success curves monotone "
                  f"up to Wilson overlap, bottom/top rates bracket 0 and 1, "
                  f"crossings at p={crossings.get(15, 0):.4f}/{crossings.get(20, 0):.4f}; "
                  f"two-size exponent {exponent:.2f} reported for information only "
                  f"[bracketing/monotonicity] ({dt:.0f}s < 600s)")


def test_criterion_9_drc_select_certification():
    """100 randomized dense multipartite prunes: verified or explicit error."""
    t0 = time.monotonic()
    rng = random.Random(909)
    verified = errors = unverified = 0
    for run in range(100):
        nparts = rng.randint(2, 4)
        sizes = [rng.randint(4, 16) for _ in range(nparts)]
        while sum(sizes) > 48:
            sizes[sizes.index(max(sizes))] -= 1
        g0 = complete_multipartite(sizes)
        drop = rng.choice([0.0, 0.05, 0.15, 0.3])
        edges = [e for e in g0.edges() if rng.random() >= drop]
        g = Graph.from_edges(g0.n, edges, g0.labels)
        parts = [part_vertices(g, idx) for idx in range(nparts)]
        ell = rng.randint(2, 3) if rng.random() > 0.1 else 1
        t = rng.randint(1, 3)
        gamma = rng.choice([0.3, 0.5, 0.7, 0.9])
        cap = rng.choice([1, 10]) if rng.random() < 0.1 else 10 ** 6
        rep = drc_select(g, parts, ell, t, gamma, seed=5000 + run, subset_cap=cap)
        if rep.verified and not rep.error:
            verified += 1
            # independent recount of the certificate with plain loops
            for subset in itertools.combinations(rep.selected, ell):
                for part in parts[:-1]:
                    common = sum(1 for w in part
                                 if all(g.has_edge(w, x) for x in subset))
                    assert common >= gamma * len(part)
        elif rep.error:
            errors += 1
            assert rep.selected == []
        else:
            unverified += 1
    dt = time.monotonic() - t0
    ok = unverified == 0 and verified + errors == 100 and verified >= 50 and dt < 60.0
    report(9, ok, f"100 runs (parts <= 16, ell <= 3): {verified} verified with "
                  f"recounted certificates, {errors} explicit errors, "
                  f"{unverified} unverified [property-based] ({dt:.1f}s < 60s)")
