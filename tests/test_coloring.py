import hashlib
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import dpll
from oracles import (_coloring_avoids, first_avoiding_coloring_brute, ramsey_brute,
                     random_graph, symmetry_constraints_reference)
from ramseylab import coloring, graphs as graphs_module
from ramseylab.coloring import (EdgeColoring, INCONCLUSIVE, NOT_RAMSEY, RAMSEY,
                                decide_globally_ramsey, decide_ramsey,
                                export_cnf, ramsey_query,
                                targets_ramsey_number, verify_coloring)
from ramseylab.graphs import (Graph, _copy_pairs, _iter_through, arbitrary, blowup,
                              clique, clique_graph, complete_multipartite, cycle,
                              cycle_graph, empty_graph, hm_graph,
                              iter_pattern_witnesses_through_edge, path,
                              turan_graph, twin_classes)
from ramseylab.perturb import perturb


def decide(host, targets, **kw):
    return decide_ramsey(ramsey_query(host, targets, **kw))


def assert_witness_valid(verdict, host, targets, forbidden=None):
    assert verdict.witness is not None
    q = ramsey_query(host, targets, forbidden)
    assert verify_coloring(verdict.witness, q) == []


class TestKnownVerdicts:
    def test_k6_triangle_triangle_ramsey(self):
        assert decide(clique_graph(6), [cycle(3), cycle(3)]).status == RAMSEY

    def test_k5_triangle_triangle_not(self):
        verdict = decide(clique_graph(5), [cycle(3), cycle(3)])
        assert verdict.status == NOT_RAMSEY
        assert_witness_valid(verdict, clique_graph(5), [cycle(3), cycle(3)])

    def test_list_targets_at_5(self):
        targets = [[cycle(3)], [cycle(3), cycle(5)]]
        assert decide(clique_graph(5), targets).status == RAMSEY
        verdict = decide(clique_graph(4), targets)
        assert verdict.status == NOT_RAMSEY
        assert_witness_valid(verdict, clique_graph(4), targets)

    def test_k5_c3_c5_regression(self):
        # both routes agree; frozen value from the exhaustive oracle
        expected, _ = ramsey_brute(clique_graph(5), [[cycle(3)], [cycle(5)]])
        verdict = decide(clique_graph(5), [cycle(3), cycle(5)])
        assert expected is False
        assert verdict.status == NOT_RAMSEY

    def test_c3_c5_number_is_9(self):
        assert decide(clique_graph(8), [cycle(3), cycle(5)]).status == NOT_RAMSEY
        verdict = decide(clique_graph(9), [cycle(3), cycle(5)])
        assert verdict.status == RAMSEY
        # the search order (see TestSearchOrder) and the dead-end counters
        assert verdict.stats.nodes == verdict.stats.checks == 301
        assert 0 < verdict.stats.backjumps < verdict.stats.nodes
        assert 0 < verdict.stats.max_depth < 36

    def test_edge_target(self):
        # any edge is a blue K2, so only the red side matters
        assert decide(clique_graph(4), [clique(4), clique(2)]).status == RAMSEY
        assert decide(clique_graph(3), [clique(4), clique(2)]).status == NOT_RAMSEY

    def test_three_colors(self):
        # R(3,3,3) = 17 is out of reach; paths give a cheap three-color case
        assert decide(clique_graph(5), [path(3), path(3), path(3)]).status == RAMSEY
        assert decide(clique_graph(4), [path(3), path(3), path(3)]).status == NOT_RAMSEY


class TestAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(st.builds(random_graph, st.randoms(use_true_random=False),
                     st.integers(min_value=3, max_value=5),
                     st.floats(min_value=0.3, max_value=1.0)),
           st.sampled_from([
               [[clique(3)], [clique(3)]],
               [[cycle(4)], [clique(3)]],
               [[path(4)], [path(3)]],
               [[cycle(3), cycle(4)], [clique(3)]],
           ]))
    def test_two_colors(self, host, targets):
        expected, _ = ramsey_brute(host, targets)
        verdict = decide_ramsey(ramsey_query(host, targets))
        assert verdict.status == (RAMSEY if expected else NOT_RAMSEY)
        if verdict.status == NOT_RAMSEY:
            assert verify_coloring(verdict.witness,
                                   ramsey_query(host, targets)) == []

    @settings(max_examples=25, deadline=None)
    @given(st.builds(random_graph, st.randoms(use_true_random=False),
                     st.integers(min_value=3, max_value=4),
                     st.floats(min_value=0.4, max_value=1.0)))
    def test_three_colors(self, host):
        targets = [[path(3)], [path(3)], [clique(3)]]
        expected, _ = ramsey_brute(host, targets)
        verdict = decide_ramsey(ramsey_query(host, targets))
        assert verdict.status == (RAMSEY if expected else NOT_RAMSEY)

    def test_forbidden_sets_match_brute(self):
        host = clique_graph(4)
        triples = list(itertools.combinations(range(4), 3))
        for forbid_red in ([], [triples[0]], triples[:2], triples):
            forbidden = [forbid_red, []]
            expected, _ = ramsey_brute(host, [[clique(3)], [clique(3)]],
                                       forbidden=[set(map(frozenset, forbid_red)),
                                                  set()])
            verdict = decide_ramsey(
                ramsey_query(host, [clique(3), clique(3)], forbidden))
            assert verdict.status == (RAMSEY if expected else NOT_RAMSEY)

    def test_forbidden_clique_sets_sweep(self):
        # seeded hosts of at most 12 edges; each color forbids a random
        # half of the host's cliques of its target size
        verdicts = []
        for seed in range(336):
            rng = random.Random(seed)
            n = rng.randint(4, 6)
            pairs = list(itertools.combinations(range(n), 2))
            host = Graph.from_edges(n, rng.sample(pairs, rng.randint(4, min(12, len(pairs)))))
            sizes = (rng.choice((2, 3, 3, 4)), rng.choice((3, 3, 4)))
            targets = [[clique(t)] for t in sizes]
            forbidden = [
                {frozenset(vs) for vs in itertools.combinations(range(n), t)
                 if all(host.has_edge(a, b) for a, b in itertools.combinations(vs, 2))
                 and rng.random() < 0.5}
                for t in sizes]
            expected, _ = ramsey_brute(host, targets, forbidden)
            verdict = decide_ramsey(ramsey_query(host, targets, forbidden))
            assert verdict.status == (RAMSEY if expected else NOT_RAMSEY), seed
            if verdict.witness is not None:
                assert _coloring_avoids(host, host.edges(), verdict.witness.colors,
                                        targets, forbidden)
            verdicts.append(verdict.status)
        assert verdicts.count(RAMSEY) >= 10 and verdicts.count(NOT_RAMSEY) >= 200

    def test_empty_forbidden_equals_plain(self):
        host = turan_graph(7, 3)
        targets = [cycle(3), cycle(3)]
        plain = decide_ramsey(ramsey_query(host, targets))
        robust = decide_ramsey(ramsey_query(host, targets, [[], []]))
        assert plain.status == robust.status

    def test_forbidding_every_copy_kills_ramseyness(self):
        host = clique_graph(6)
        triples = list(itertools.combinations(range(6), 3))
        forbidden = [triples, triples]
        verdict = decide_ramsey(ramsey_query(host, [clique(3), clique(3)],
                                             forbidden))
        assert verdict.status == NOT_RAMSEY


class TestSearchBehavior:
    def test_budget_exhaustion_is_inconclusive(self):
        q = ramsey_query(clique_graph(6), [cycle(3), cycle(3)], node_budget=3)
        verdict = decide_ramsey(q)
        assert verdict.status == INCONCLUSIVE
        assert verdict.witness is None

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="^node budget must be nonnegative, got -1$"):
            ramsey_query(clique_graph(5), [cycle(3), cycle(3)], node_budget=-1)

    def test_zero_budget_accepted(self):
        q = ramsey_query(clique_graph(6), [cycle(3), cycle(3)], node_budget=0)
        assert decide_ramsey(q).status == INCONCLUSIVE

    def test_verdicts_do_not_depend_on_the_clock(self, monkeypatch):
        # a clock that jumps 1000 s per reading: only the node budget may
        # end a search, so every answer is the one the real clock gives
        from ramseylab.perturb import threshold_scan

        def scan():
            return threshold_scan([turan_graph(10, 2)], [cycle(4), clique(4)],
                                  [0.3, 0.7, 1.0], 3, 8020).to_csv()

        real = scan()
        clock = itertools.count(0.0, 1000.0)
        monkeypatch.setattr(coloring.time, "monotonic", lambda: next(clock))
        verdict = decide(clique_graph(10), [cycle(4), clique(4)])
        assert (verdict.status, verdict.stats.nodes) == (RAMSEY, 3510)
        assert targets_ramsey_number([cycle(4), clique(4)]) == 10
        assert scan() == real

    def test_deterministic(self):
        a = decide(clique_graph(5), [cycle(3), cycle(3)])
        b = decide(clique_graph(5), [cycle(3), cycle(3)])
        assert a.witness.colors == b.witness.colors
        assert a.stats.nodes == b.stats.nodes

    def test_stats_populated(self):
        verdict = decide(clique_graph(5), [cycle(3), cycle(3)])
        assert verdict.stats.nodes > 0
        assert verdict.stats.elapsed >= 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.builds(random_graph, st.randoms(use_true_random=False),
                     st.integers(min_value=4, max_value=7),
                     st.floats(min_value=0.2, max_value=0.9)),
           st.randoms(use_true_random=False))
    def test_monotone_under_edge_addition(self, host, rng):
        targets = [clique(3), clique(3)]
        if decide(host, targets).status != RAMSEY:
            return
        non_edges = [e for e in itertools.combinations(range(host.n), 2)
                     if not host.has_edge(*e)]
        extra = rng.sample(non_edges, min(2, len(non_edges)))
        bigger = host.union(Graph.from_edges(host.n, extra))
        assert decide(bigger, targets).status == RAMSEY


K4_MINUS_EDGE = arbitrary(Graph.from_edges(
    4, [e for e in itertools.combinations(range(4), 2) if e != (2, 3)]))


class TestSearchOrder:
    """The engine's node counts follow from which blocking copy each
    finder reports and which colors the symmetry constraints cut; these
    pin them, so a change of copy order shows.  K9 against (C3,C5), 301
    nodes, is pinned in TestKnownVerdicts::test_c3_c5_number_is_9."""

    def test_k8_k3_k4(self):
        verdict = decide(clique_graph(8), [clique(3), clique(4)])
        assert verdict.status == NOT_RAMSEY
        assert verdict.stats.nodes == verdict.stats.checks == 200
        assert verdict.witness.colors == (
            0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 0, 1, 0, 1, 1, 0,
            1, 0, 1, 1, 0, 0, 1, 0)

    def test_k7_k4_minus_edge_k3(self):
        verdict = decide(clique_graph(7), [K4_MINUS_EDGE, clique(3)])
        assert verdict.status == RAMSEY
        assert verdict.stats.nodes == verdict.stats.checks == 178

    @pytest.mark.parametrize("n, targets, nodes, checks", [
        (8, [[cycle(3)], [cycle(3), cycle(5)]], 41, 59),
        (9, [[cycle(3)], [cycle(4), cycle(5)]], 84, 123),
        (5, [[cycle(3), cycle(5)], [cycle(3), cycle(5)]], 38, 64),
    ])
    def test_checks_count_further_targets(self, n, targets, nodes, checks):
        # checks exceeds nodes by the finder calls past a color's first target
        verdict = decide(clique_graph(n), targets)
        assert verdict.status == RAMSEY
        assert (verdict.stats.nodes, verdict.stats.checks) == (nodes, checks)

    def test_twin_poor_random_hosts(self):
        # perturbed hosts have few twin rows, so the first copy each
        # kernel returns steers the search nearly everywhere
        witnesses = {}
        nodes = checks = 0
        for t in range(12):
            verdict = decide(perturb(turan_graph(9, 3), 0.5, 8020, t), [cycle(3), cycle(5)])
            nodes += verdict.stats.nodes
            checks += verdict.stats.checks
            if verdict.witness is not None:
                witnesses[t] = "".join(map(str, verdict.witness.colors))
        assert (nodes, checks) == (121267, 121267)
        assert witnesses == {
            0: "0000111111100001100000000000111",
            5: "000001111111000111000000000000111",
            6: "0100011011000011000011100011101",
            7: "0000111011100000011110001000000",
            10: "0000111001010111101010100000101",
        }


FIRST_COLORING_TARGETS = [
    ((clique(3),), (clique(3),)),
    ((cycle(4),), (cycle(4),)),
    ((clique(3),), (clique(4),)),
    ((cycle(3),), (cycle(5),)),
    ((cycle(4),), (clique(3),)),
    ((path(4),), (path(4),)),
    ((K4_MINUS_EDGE,), (clique(3),)),
    ((cycle(3), cycle(5)), (cycle(3), cycle(5))),
    ((cycle(3),), (cycle(3), cycle(5))),
    ((path(3),), (path(3),), (path(3),)),
    ((cycle(4),), (cycle(4),), (cycle(4),)),
    ((clique(3),), (clique(3),), (path(3),)),
]


def _twins(host):
    return [(i, i + 1) for i in range(host.n - 1)
            if host.adj[i] & ~(1 << (i + 1)) == host.adj[i + 1] & ~(1 << i)]


def _closed_under_swaps(sets, swaps):
    family = {frozenset(vs) for vs in sets}
    while True:
        images = {frozenset({i: j, j: i}.get(x, x) for x in vs)
                  for vs in family for i, j in swaps}
        if images <= family:
            return family
        family |= images


def _assert_first_coloring(query):
    is_ramsey, colors = first_avoiding_coloring_brute(query)
    verdict = decide_ramsey(query)
    assert verdict.status == (RAMSEY if is_ramsey else NOT_RAMSEY)
    assert (verdict.witness.colors if verdict.witness else None) == colors
    return verdict


class TestFirstColoring:
    """Twin-row and precedence constraints only cut colorings that are
    not the least valid one in the branching order, so status and
    witness equal plain chronological backtracking's first coloring."""

    @pytest.mark.parametrize("targets", FIRST_COLORING_TARGETS,
                             ids=lambda t: "-".join("+".join(p.describe() for p in c)
                                                    for c in t))
    def test_complete_hosts(self, targets):
        for n in range(2, 9):
            _assert_first_coloring(ramsey_query(clique_graph(n), targets))

    def test_forbidden_sets_that_break_a_symmetry(self):
        # one edge, both colors K2: only blue may use it, so the colors
        # are not interchangeable
        verdict = _assert_first_coloring(ramsey_query(
            clique_graph(2), [clique(2), clique(2)], [[], [(0, 1)]]))
        assert verdict.witness.colors == (1,)
        # a triangle whose one valid coloring has row 0 > row 1 and
        # row 1 > row 2: no swap maps red's forbidden family to itself
        verdict = _assert_first_coloring(ramsey_query(
            clique_graph(3), [clique(2), path(2)], [[(0, 1), (1, 2)], [(0, 2)]]))
        assert verdict.witness.colors == (0, 1, 0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=3, max_value=8), st.integers(min_value=1, max_value=4),
           st.randoms(use_true_random=False), st.integers(min_value=2, max_value=3),
           st.booleans(), st.sampled_from(["none", "invariant", "any"]))
    def test_hosts_with_twins(self, n, parts, rng, r, equal_targets, forbid):
        host = turan_graph(n, min(parts, n))
        non_edges = [e for e in itertools.combinations(range(n), 2) if not host.has_edge(*e)]
        host = host.union(Graph.from_edges(n, rng.sample(non_edges, min(len(non_edges),
                                                                        rng.randint(0, 2)))))
        pool = ([clique(3), cycle(4), cycle(5), path(4), K4_MINUS_EDGE] if r == 2
                else [clique(3), path(3), cycle(4)])
        targets = ([[rng.choice(pool)]] * r if equal_targets
                   else [[rng.choice(pool)] for _ in range(r)])
        forbidden = None
        if forbid != "none":
            forbidden = [[rng.sample(range(n), 3) for _ in range(rng.randint(1, 4))]
                         for _ in range(r)]
            if forbid == "invariant":
                forbidden = [_closed_under_swaps(f, _twins(host)) for f in forbidden]
            if equal_targets:
                forbidden = [forbidden[0]] * r
        _assert_first_coloring(ramsey_query(host, targets, forbidden))


class TestSymmetryRows:
    """coloring._symmetry_constraints reads each twin-row entry's depths
    and masks from decide_ramsey's _edge_bits table; the reference looks
    them up in a dict keyed by the edge.  Both give the same rows."""

    HOSTS = ([turan_graph(n, k) for n, k in ((6, 2), (7, 3), (9, 3), (10, 5), (12, 4))]
             + [blowup(cycle_graph(5), 2), blowup(clique_graph(3), 3), hm_graph(2),
                clique_graph(6), complete_multipartite([1, 2, 3]), empty_graph(4)]
             + [perturb(turan_graph(n, k), p, 8020, t)
                for n, k, p in ((9, 3, 0.1), (10, 5, 0.2), (12, 4, 0.05)) for t in range(4)])

    @staticmethod
    def _both(query):
        host = query.host
        pairs = sorted(host.edges(), key=lambda e: (e[1], e[0]))
        table = coloring._symmetry_constraints(
            query, coloring._edge_bits(host.n, pairs), len(pairs))
        assert table == symmetry_constraints_reference(query, pairs)
        return table

    def test_rows_match_reference(self):
        rng = random.Random(37)
        pool = [clique(3), cycle(4), path(3), cycle(5)]
        seen = set()
        for host in self.HOSTS:
            swaps = _twins(host)
            for r, equal_targets, forbid in itertools.product(
                    (2, 3), (True, False), ("none", "invariant", "any")):
                targets = ([[pool[0]]] * r if equal_targets
                           else [[rng.choice(pool)] for _ in range(r)])
                forbidden = None
                if forbid != "none":
                    forbidden = [[rng.sample(range(host.n), min(3, host.n))
                                  for _ in range(rng.randint(1, 3))] for _ in range(r)]
                    if forbid == "invariant":
                        forbidden = [_closed_under_swaps(f, swaps) for f in forbidden]
                    if equal_targets:
                        forbidden = [forbidden[0]] * r
                query = ramsey_query(host, targets, forbidden)
                steps, slots = self._both(query)
                free = self._both(ramsey_query(host, targets))[1]
                precedence = any(step is not None and step[1] is not None for step in steps)
                seen.add((r, precedence, forbid, slots > 1, slots < free))
        # guards: twin rows with precedence on and off at r = 2 and 3,
        # and forbidden sets that keep every swap and that break one
        for r in (2, 3):
            assert {(p, rows) for rr, p, _, rows, _ in seen if rr == r} >= {
                (True, True), (False, True)}
        assert any(f == "invariant" and rows and not broke for _, _, f, rows, broke in seen)
        assert any(f == "any" and broke for _, _, f, _, broke in seen)
        assert not any(f == "invariant" and broke for _, _, f, _, broke in seen)

    def test_forbidden_set_on_a_twin_pair(self):
        # on Turan(6,2), 0, 1 and 2 are twins: {0, 3} is moved by the
        # swap of 0 and 1 and breaks it, {0, 1, 2} is kept by every swap
        host = turan_graph(6, 2)
        full = self._both(ramsey_query(host, [clique(3), clique(3)]))
        broken = self._both(ramsey_query(host, [clique(3), clique(3)], [[(0, 3)], [(0, 3)]]))
        kept = self._both(ramsey_query(host, [clique(3), clique(3)], [[(0, 1, 2)], [(0, 1, 2)]]))
        assert kept == full
        assert broken[1] < full[1]


def _assert_degree_first_agrees(query, monkeypatch):
    """The degree-first helper's verdict on query, once its status is
    canonical search's, its witness is valid for both checkers, and the
    host it searched has degrees in descending order with each twin
    class contiguous; returns (canonical verdict, helper verdict)."""
    searched = []

    def recorded(q):
        searched.append(q.host)
        return decide_ramsey(q)

    canonical = decide_ramsey(query)
    with monkeypatch.context() as m:
        m.setattr(coloring, "decide_ramsey", recorded)
        verdict = coloring._decide_degree_first(query)
    assert verdict.status == canonical.status
    if verdict.status == NOT_RAMSEY:
        assert verify_coloring(verdict.witness, query) == []
        host = query.host
        assert _coloring_avoids(host, host.edges(), verdict.witness.colors,
                                query.targets, query.forbidden)
    (relabelled,) = searched
    degrees = [row.bit_count() for row in relabelled.adj]
    assert degrees == sorted(degrees, reverse=True)
    for members, _ in twin_classes(relabelled):
        run = members // (members & -members)
        assert run & (run + 1) == 0  # consecutive labels
    return canonical, verdict


class TestDegreeFirst:
    """coloring._decide_degree_first, the order a new scan's searches
    branch in, against canonical search and the brute-force checker."""

    @pytest.mark.parametrize("targets", [[cycle(3), cycle(5)], [clique(3), clique(3)]],
                             ids=["C3-C5", "K3-K3"])
    def test_perturbed_turan_hosts(self, targets, monkeypatch):
        rng = random.Random(31)
        statuses, relabelled = [], 0
        for _ in range(30):
            n = rng.randint(5, 10)
            host = perturb(turan_graph(n, rng.randint(2, 4)), rng.random(), 8020,
                           rng.randrange(1000))
            _, verdict = _assert_degree_first_agrees(ramsey_query(host, targets),
                                                     monkeypatch)
            statuses.append(verdict.status)
            degrees = [row.bit_count() for row in host.adj]
            relabelled += degrees != sorted(degrees, reverse=True)
        assert set(statuses) == {RAMSEY, NOT_RAMSEY}
        assert relabelled >= 20

    def test_forbidden_sets_and_several_targets(self, monkeypatch):
        # forbidden sets are drawn from 0..n, so some name a vertex
        # outside the host, which no copy can use
        rng = random.Random(24)
        statuses = []
        for _ in range(40):
            n = rng.randint(4, 8)
            host = perturb(turan_graph(n, rng.randint(2, 3)), rng.random() * 0.5, 31,
                           rng.randrange(1000))
            r = rng.choice((2, 3))
            pool = ([clique(3), cycle(4), cycle(5), path(4), K4_MINUS_EDGE] if r == 2
                    else [clique(3), path(3), cycle(4)])
            targets = [rng.sample(pool, rng.randint(1, 2)) for _ in range(r)]
            forbidden = [[rng.sample(range(n + 1), 3) for _ in range(rng.randint(0, 4))]
                         for _ in range(r)]
            _, verdict = _assert_degree_first_agrees(
                ramsey_query(host, targets, forbidden), monkeypatch)
            statuses.append(verdict.status)
        assert set(statuses) == {RAMSEY, NOT_RAMSEY}

    @pytest.mark.parametrize("host", [clique_graph(9), clique_graph(8), turan_graph(15, 5)],
                             ids=["K9", "K8", "Turan15-5"])
    @pytest.mark.parametrize("targets", [[cycle(3), cycle(5)], [clique(3), clique(3)]],
                             ids=["C3-C5", "K3-K3"])
    def test_regular_host_is_searched_as_it_stands(self, host, targets):
        # every vertex has one degree and the twin classes are runs of
        # labels, so the permutation is the identity
        query = ramsey_query(host, targets)
        canonical = decide_ramsey(query)
        verdict = coloring._decide_degree_first(query)
        assert (verdict.status, verdict.witness, verdict.stats.nodes) == (
            canonical.status, canonical.witness, canonical.stats.nodes)

    def test_invalid_mapped_back_witness_raises(self, monkeypatch):
        # every edge red on a host with triangles, and one vertex of
        # higher degree, so the host is relabelled
        host = turan_graph(6, 3).union(Graph.from_edges(6, [(4, 5)]))

        def bogus(query):
            return coloring.RamseyVerdict(NOT_RAMSEY, EdgeColoring(
                query.host, 2, (0,) * query.host.edge_count))

        monkeypatch.setattr(coloring, "decide_ramsey", bogus)
        with pytest.raises(AssertionError, match="mapped-back witness"):
            coloring._decide_degree_first(ramsey_query(host, [cycle(3), cycle(3)]))


class TestSearchCounters:
    def test_full_assignment_reaches_every_edge(self):
        verdict = decide(clique_graph(5), [cycle(3), cycle(3)])
        assert verdict.status == NOT_RAMSEY
        assert verdict.stats.max_depth == 10

    def test_budget_exit_records_depth(self):
        verdict = decide_ramsey(ramsey_query(clique_graph(6), [cycle(3), cycle(3)],
                                             node_budget=3))
        assert verdict.status == INCONCLUSIVE
        assert verdict.stats.max_depth == 3
        assert verdict.stats.backjumps == 0

    def test_symmetry_cuts(self):
        # the complement of a path has no twins, and K3 differs from K4
        co_path = Graph.from_edges(8, [(a, b) for a, b in itertools.combinations(range(8), 2)
                                       if b != a + 1])
        assert decide(co_path, [clique(3), clique(4)]).stats.symmetry_cuts == 0
        assert decide(clique_graph(9), [clique(3), clique(4)]).stats.symmetry_cuts > 0

    def test_route_of_each_exit(self):
        c3c3 = [cycle(3), cycle(3)]
        edgeless = decide(clique_graph(3), [clique(1), clique(3)])
        assert (edgeless.status, edgeless.stats.route) == (RAMSEY, "edgeless")
        searched = decide(turan_graph(10, 5), c3c3)
        assert (searched.status, searched.stats.route) == (NOT_RAMSEY, "search")
        refuted = decide(clique_graph(6), c3c3)
        assert (refuted.status, refuted.stats.route) == (RAMSEY, "search")
        budget_out = decide_ramsey(ramsey_query(clique_graph(6), c3c3, node_budget=3))
        assert (budget_out.status, budget_out.stats.route) == (INCONCLUSIVE, "search")

    def test_no_search_no_counts(self):
        verdict = decide(clique_graph(7), [path(1), cycle(3)])
        assert verdict.status == RAMSEY and verdict.stats.note
        assert (verdict.stats.nodes, verdict.stats.backjumps,
                verdict.stats.max_depth, verdict.stats.symmetry_cuts) == (0, 0, 0, 0)


def _depth_bits(n, edges, rng):
    table = [[0] * n for _ in range(n)]
    for d, (a, b) in enumerate(rng.sample(edges, len(edges))):
        table[a][b] = table[b][a] = 1 << d
    return table


class TestCopyFinders:
    """Each flat kernel, and the arbitrary-pattern finder, against the
    first copy the general through-edge iterator lists."""

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False),
           st.sampled_from([clique(k) for k in range(2, 7)]
                           + [cycle(k) for k in range(3, 8)]
                           + [arbitrary(Graph.from_edges(k, es)) for k, es in (
                               (3, [(0, 1)]), (4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
                               (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
                               (5, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4)]))]))
    def test_kernel_matches_first_copy(self, rng, pat):
        n = rng.randint(2, 10)
        u, v = sorted(rng.sample(range(n), 2))
        host = random_graph(rng, n, rng.uniform(0.3, 1.0))
        host = host.union(Graph.from_edges(n, [(u, v)]))
        adj = list(host.adj)
        depth_bit = _depth_bits(n, list(host.edges()), rng)
        find = coloring._copy_finder(adj, n, depth_bit, pat, frozenset())
        first = next(_iter_through(n, adj, u, v, pat), None)
        expected = 0
        if first is not None:
            for i, j in _copy_pairs(pat):
                expected |= depth_bit[first[i]][first[j]]
        assert find(u, v) == expected
        assert (find(u, v) == 0) == (first is None)

    # (nodes over the batch, digest of every search tuple)
    ARBITRARY_SEARCHES = (5421, "51c0dd116b5891c55b1fbb77247858d4b56dde8b8e699fb09f7f31db2be50450")

    def test_arbitrary_pattern_searches(self):
        """Search tuples of seeded queries with arbitrary targets, half of
        them with forbidden sets: the conflict sets, and with them every
        count, follow the copy each finder returns."""
        rng = random.Random(1511)
        digest = hashlib.sha256()
        nodes = 0
        for i in range(80):
            r = 3 if i % 4 == 3 else 2
            n = rng.randint(5, 8 if r == 2 else 6)
            host = random_graph(rng, n, rng.uniform(0.5, 1.0))
            targets = []
            for _ in range(r):
                pats = []
                for _ in range(rng.randint(1, 2)):
                    pairs = list(itertools.combinations(range(rng.randint(3, 5)), 2))
                    pats.append(arbitrary(Graph.from_edges(
                        pairs[-1][1] + 1, rng.sample(pairs, rng.randint(3, len(pairs))))))
                targets.append(pats)
            forbidden = None
            if i % 2:
                forbidden = [[rng.sample(range(n), pats[0].vertex_count)
                              for _ in range(rng.randint(1, 5))] for pats in targets]
            verdict = decide_ramsey(ramsey_query(host, targets, forbidden, node_budget=20000))
            s = verdict.stats
            nodes += s.nodes
            witness = verdict.witness.colors if verdict.witness else None
            digest.update(repr((verdict.status, s.nodes, s.checks, s.backjumps, s.max_depth,
                                s.symmetry_cuts, witness)).encode())
        assert (nodes, digest.hexdigest()) == self.ARBITRARY_SEARCHES


class TestOversizedTargets:
    """A target with more vertices than the host has no copy, so no
    finder or lister may walk a path DFS for it."""

    @pytest.fixture(autouse=True)
    def no_path_walks(self, monkeypatch):
        def walked(*args):
            raise AssertionError("a path DFS walked for an oversized target")

        monkeypatch.setattr(graphs_module, "_iter_simple_paths", walked)
        monkeypatch.setattr(coloring, "_cycle_finder", walked)

    @pytest.mark.parametrize("pat", [cycle(11), path(11)], ids=lambda pat: pat.describe())
    def test_search_colours_every_edge_once(self, pat):
        host = clique_graph(10)
        verdict = decide(host, [pat, clique(3)])
        assert (verdict.status, verdict.stats.nodes) == (NOT_RAMSEY, 45)
        assert_witness_valid(verdict, host, [pat, clique(3)])

    def test_forbidden_sets_take_the_same_answer(self):
        host = clique_graph(10)
        targets = [cycle(11), clique(3)]
        forbidden = [[list(range(11))], []]
        verdict = decide(host, targets, forbidden=forbidden)
        assert verdict.status == NOT_RAMSEY
        assert_witness_valid(verdict, host, targets, forbidden)

    def test_through_edge_listing_is_empty(self):
        assert list(iter_pattern_witnesses_through_edge(clique_graph(6), cycle(7), (0, 1))) == []


class TestEdgelessTargets:
    def test_single_vertex_target_is_ramsey(self):
        verdict = decide(clique_graph(3), [clique(1), clique(3)])
        assert verdict.status == RAMSEY
        assert "no edges" in verdict.stats.note
        assert verdict.stats.nodes == 0
        doc = export_cnf(ramsey_query(clique_graph(3), [clique(1), clique(3)]))
        assert () in doc.clauses

    def test_fully_forbidden_placements_are_ignored(self):
        host = clique_graph(3)
        targets = [path(1), clique(3)]
        verdict = decide(host, targets, forbidden=[[(0,), (1,), (2,)], []])
        assert verdict.status == NOT_RAMSEY
        assert_witness_valid(verdict, host, targets, [[(0,), (1,), (2,)], []])

    def test_pattern_larger_than_host(self):
        targets = [arbitrary(empty_graph(4)), clique(3)]
        assert decide(clique_graph(3), targets).status == NOT_RAMSEY
        assert decide(clique_graph(4), targets).status == RAMSEY

    @settings(max_examples=80, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from([2, 2, 3]))
    def test_engine_agrees_with_cnf(self, rng, r):
        n = rng.randint(1, 5 if r == 2 else 4)
        host = random_graph(rng, n, rng.uniform(0.0, 1.0))
        targets = []
        forbidden = []
        for _ in range(r):
            pats = [rng.choice([clique(1), path(1), arbitrary(empty_graph(rng.randint(1, 3))),
                                clique(2), clique(3), path(3), cycle(4)])
                    for _ in range(rng.randint(1, 2))]
            targets.append(pats)
            sets = []
            for k in {p.vertex_count for p in pats}:
                everything = rng.random() < 0.5
                sets += [vs for vs in itertools.combinations(range(n), k)
                         if everything or rng.random() < 0.4]
            forbidden.append(sets)
        q = ramsey_query(host, targets, forbidden)
        doc = export_cnf(q)
        model = dpll.solve(doc.nvars, doc.clauses)
        verdict = decide_ramsey(q)
        assert verdict.status == (RAMSEY if model is None else NOT_RAMSEY)
        if verdict.status == NOT_RAMSEY:
            assert verify_coloring(verdict.witness, q) == []


class TestVerifyColoring:
    def test_c5_complement_coloring_clean(self):
        host = clique_graph(5)
        ring = {(i, (i + 1) % 5) for i in range(5)}
        ring = {(min(e), max(e)) for e in ring}
        colors = tuple(1 if e in ring else 0 for e in host.edges())
        coloring = EdgeColoring(host, 2, colors)
        assert verify_coloring(coloring,
                               ramsey_query(host, [cycle(3), cycle(3)])) == []

    def test_all_red_triangle(self):
        host = clique_graph(3)
        coloring = EdgeColoring(host, 2, (0, 0, 0))
        violations = verify_coloring(coloring,
                                     ramsey_query(host, [cycle(3), cycle(3)]))
        assert len(violations) == 1
        color, kind, _ = violations[0]
        assert color == 0

    def test_all_blue_k5_list_targets(self):
        host = clique_graph(5)
        coloring = EdgeColoring(host, 2, tuple([1] * 10))
        violations = verify_coloring(
            coloring, ramsey_query(host, [[cycle(3)], [cycle(3), cycle(5)]]))
        # 10 triangles and 12 five-cycles, all blue
        assert len(violations) == 22
        assert {v[0] for v in violations} == {1}

    def test_json_round_trip_drops_labels_only(self):
        host = turan_graph(6, 3)
        witness = decide(host, [cycle(3), cycle(3)]).witness
        back = EdgeColoring.from_jsonable(witness.to_jsonable())
        assert back.host.adj == host.adj and back.host.labels is None
        assert (back.r, back.colors) == (witness.r, witness.colors)
        assert back != witness
        q = ramsey_query(back.host, [cycle(3), cycle(3)])
        assert verify_coloring(back, q) == []

    def test_violations_match_brute_force_with_forbidden_sets(self):
        # seeded colorings, mostly invalid, of random hosts: the listed
        # violations are the monochromatic copies, one per edge set, that
        # have a placement on a vertex set which is not forbidden
        rng = random.Random(2727)
        listed = dropped = 0
        for _ in range(80):
            r = rng.choice((2, 2, 3))
            n = rng.randint(3, 6)
            host = random_graph(rng, n, rng.uniform(0.5, 1.0))
            targets, forbidden = [], []
            for _ in range(r):
                pats = rng.sample([clique(3), cycle(4), path(3), path(4),
                                   arbitrary(_pattern_graph(rng, rng.randint(2, 4)))],
                                  rng.randint(1, 2))
                targets.append(pats)
                forbidden.append([vs for k in {p.vertex_count for p in pats}
                                  for vs in itertools.combinations(range(n), k)
                                  if rng.random() < 0.4])
            colors = tuple(rng.randrange(r) for _ in host.edges())
            got = verify_coloring(EdgeColoring(host, r, colors),
                                  ramsey_query(host, targets, forbidden))
            expected, anywhere, pairs_of = set(), set(), {}
            for c, pats in enumerate(targets):
                forb = {frozenset(vs) for vs in forbidden[c]}
                own = {e for e, col in zip(host.edges(), colors) if col == c}
                for pat in pats:
                    pairs = pairs_of[c, pat.describe()] = pat.to_graph().edges()
                    for image in itertools.permutations(range(n), pat.vertex_count):
                        copy = frozenset(tuple(sorted((image[i], image[j]))) for i, j in pairs)
                        if copy <= own:
                            anywhere.add((c, pat.describe(), copy))
                            if frozenset(image) not in forb:
                                expected.add((c, pat.describe(), copy))
            seen = [(c, name, frozenset(tuple(sorted((w[i], w[j])))
                                        for i, j in pairs_of[c, name]))
                    for c, name, w in got]
            assert len(seen) == len(set(seen)) and set(seen) == expected
            assert all(frozenset(w) not in {frozenset(vs) for vs in forbidden[c]}
                       for c, _, w in got)
            listed += len(got)
            dropped += len(anywhere - expected)
        assert listed >= 200 and dropped >= 100

    def test_size_mismatch_rejected(self):
        host = clique_graph(4)
        with pytest.raises(ValueError):
            EdgeColoring(host, 2, (0, 1))

    def test_isolated_vertex_placement_outside_forbidden_set(self):
        # red target: one edge plus an isolated vertex; the red copy on
        # {0,1,2} is forbidden but the one on {0,1,3} has the same edge
        # and still counts
        host = clique_graph(4)
        edge_plus_point = arbitrary(Graph.from_edges(3, [(0, 1)]))
        q = ramsey_query(host, [edge_plus_point, clique(4)], [[(0, 1, 2)], []])
        colors = tuple(0 if e == (0, 1) else 1 for e in host.edges())
        assert verify_coloring(EdgeColoring(host, 2, colors), q) == [
            (0, "graph(n=3,m=1)", (0, 1, 3))]
        # every red edge leaves a free vertex outside {0,1,2}: one unit
        # clause per edge, plus the all-blue K4
        assert len(export_cnf(q).clauses) == 7
        assert decide_ramsey(q).status == RAMSEY


class TestGloballyRamsey:
    def test_k6_fails_at_five_sixths(self):
        q = ramsey_query(clique_graph(6), [cycle(3), cycle(3)])
        verdict = decide_globally_ramsey(q, mu=5 / 6)
        assert verdict.status == "not_globally_ramsey"
        assert len(verdict.subset) == 5
        assert verdict.witness is not None

    def test_mu_one_reduces_to_plain(self):
        for host in (clique_graph(5), clique_graph(6)):
            q = ramsey_query(host, [cycle(3), cycle(3)])
            expected = decide_ramsey(q).status
            got = decide_globally_ramsey(q, mu=1)
            if expected == RAMSEY:
                assert got.status == "globally_ramsey"
            else:
                assert got.status == "not_globally_ramsey"
                assert got.subsets_checked == 1

    def test_k7_passes_at_six_sevenths(self):
        q = ramsey_query(clique_graph(7), [cycle(3), cycle(3)])
        verdict = decide_globally_ramsey(q, mu=6 / 7)
        assert verdict.status == "globally_ramsey"
        assert verdict.subsets_checked == 7

    def test_sampled_mode_is_one_sided(self):
        q = ramsey_query(clique_graph(7), [cycle(3), cycle(3)])
        verdict = decide_globally_ramsey(q, mu=6 / 7, mode="sampled", samples=5)
        assert verdict.status == "no_counterexample_found"

    def test_exhaustive_refused_above_bound(self):
        q = ramsey_query(empty_graph(21), [clique(2), clique(2)])
        with pytest.raises(ValueError):
            decide_globally_ramsey(q, mu=0.5)

    @staticmethod
    def brute_global(host, targets, forbidden, size):
        """The first size-subset whose restricted host ramsey_brute finds
        not Ramsey, keeping the forbidden sets inside it, relabelled."""
        for subset in itertools.combinations(range(host.n), size):
            pos = {v: i for i, v in enumerate(subset)}
            inside = [{frozenset(pos[v] for v in vs) for vs in per_color
                       if set(vs) <= set(subset)} for per_color in forbidden]
            if not ramsey_brute(host.induced(subset), targets, inside)[0]:
                return subset
        return None

    # K5 against (P3, P3): every 3- and 4-vertex subset is Ramsey, as two
    # matchings cover at most 2 of K4's 6 edges, so each verdict below
    # that is not global comes from the forbidden sets
    FORBIDDEN = {
        "inside": [[(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
                   [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]],
        "straddling": [[(0, 1, 4), (2, 3, 4), (0, 2, 4)], [(1, 3, 4), (0, 1, 2)]],
        "outside": [[(2, 3, 4)], [(2, 3, 4), (1, 3, 4)]],
        "out-of-host": [[(0, 1, 9), (0, 1, 2)], [(3, 4, 9)]],
    }

    @pytest.mark.parametrize("name", list(FORBIDDEN))
    @pytest.mark.parametrize("mu, size", [(Fraction(3, 5), 3), (Fraction(4, 5), 4),
                                          (0.8, 4), (1, 5)])
    def test_forbidden_sets_match_brute(self, name, mu, size):
        host, targets = clique_graph(5), [[path(3)], [path(3)]]
        forbidden = self.FORBIDDEN[name]
        verdict = decide_globally_ramsey(ramsey_query(host, targets, forbidden), mu)
        subset = self.brute_global(host, targets, forbidden, size)
        if subset is None:
            assert verdict.status == "globally_ramsey"
            assert verdict.subsets_checked == math.comb(5, size)
            return
        assert (verdict.status, verdict.subset) == ("not_globally_ramsey", subset)
        inside = [[vs for vs in per_color if set(vs) <= set(subset)]
                  for per_color in forbidden]
        restricted = ramsey_query(host.induced(subset), targets,
                                  [[[subset.index(v) for v in vs] for vs in per_color]
                                   for per_color in inside])
        assert verify_coloring(verdict.witness, restricted) == []

    def test_forbidden_sets_decide_both_ways(self):
        host, targets = clique_graph(5), [[path(3)], [path(3)]]
        statuses = {name: decide_globally_ramsey(
            ramsey_query(host, targets, forbidden), Fraction(4, 5)).status
            for name, forbidden in self.FORBIDDEN.items()}
        assert statuses["inside"] == "not_globally_ramsey"
        assert statuses["outside"] == "globally_ramsey"
        assert decide_globally_ramsey(ramsey_query(host, targets), Fraction(4, 5)).status \
            == "globally_ramsey"

    @pytest.mark.parametrize("mu", [0, -1, 0.0, -0.5, Fraction(0), float("nan"),
                                    float("inf")])
    def test_degenerate_mu_refused(self, mu):
        q = ramsey_query(clique_graph(6), [cycle(3), cycle(3)])
        with pytest.raises(ValueError, match=f"need a finite mu > 0, got {mu}$"):
            decide_globally_ramsey(q, mu)

    def test_negative_samples_refused(self):
        q = ramsey_query(clique_graph(6), [cycle(3), cycle(3)])
        with pytest.raises(ValueError, match="need samples >= 0, got -3$"):
            decide_globally_ramsey(q, Fraction(5, 6), mode="sampled", samples=-3)

    def test_tiny_mu_checks_single_vertices(self):
        # mu*n rounds to 0 vertices in floating point, but a qualifying
        # subset still has at least one
        q = ramsey_query(clique_graph(6), [cycle(3), cycle(3)])
        verdict = decide_globally_ramsey(q, 1e-15)
        assert (verdict.status, verdict.subset) == ("not_globally_ramsey", (0,))


    def test_unknown_mode_refused_before_any_answer(self):
        # at mu = 2 no subset is large enough, which answered before the
        # mode was checked
        q = ramsey_query(clique_graph(6), [cycle(3), cycle(3)])
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            decide_globally_ramsey(q, 2, mode="bogus")

    def test_exhaustive_cap_refused_before_any_answer(self):
        q = ramsey_query(empty_graph(21), [clique(2), clique(2)])
        with pytest.raises(ValueError, match="exhaustive mode limited to 20 vertices"):
            decide_globally_ramsey(q, 2)

    @staticmethod
    def spied_searches(monkeypatch):
        """Record each query coloring.decide_ramsey searches."""
        searched = []
        search = coloring.decide_ramsey

        def spy(query):
            searched.append(query)
            return search(query)

        monkeypatch.setattr(coloring, "decide_ramsey", spy)
        return searched

    def test_sampled_repeats_are_not_searched_again(self, monkeypatch):
        # at mu = 1 every draw is the whole host
        searched = self.spied_searches(monkeypatch)
        q = ramsey_query(clique_graph(6), [cycle(3), cycle(3)])
        verdict = decide_globally_ramsey(q, 1, mode="sampled", samples=200)
        assert (verdict.status, verdict.subsets_checked) == ("no_counterexample_found", 200)
        assert len(searched) == 1

    def test_perturbed_turan_settled_by_one_search(self, monkeypatch):
        searched = self.spied_searches(monkeypatch)
        host = perturb(turan_graph(12, 4), 0.7, 8020, 0)
        verdict = decide_globally_ramsey(ramsey_query(host, [cycle(3), cycle(5)]),
                                         Fraction(3, 4))
        assert (verdict.status, verdict.subsets_checked) == ("globally_ramsey", 220)
        assert len(searched) == 1

    @staticmethod
    def fresh_global(query, mu, mode, samples, seed):
        """(status, subset, witness colors, subsets checked) with every
        subset searched by decide_ramsey, in decide_globally_ramsey's
        subset order and draws, or None when a subset is inconclusive."""
        n = query.host.n
        size = max(1, math.ceil(mu * n))
        if mode == "exhaustive":
            subsets = itertools.combinations(range(n), size)
        else:
            rng = random.Random(seed)
            subsets = (tuple(sorted(rng.sample(range(n), size))) for _ in range(samples))
        checked = 0
        for subset in subsets:
            checked += 1
            verdict = decide_ramsey(ramsey_query(query.host.induced(subset), query.targets,
                                                 node_budget=query.node_budget))
            if verdict.status == INCONCLUSIVE:
                return None
            if verdict.status == NOT_RAMSEY:
                return "not_globally_ramsey", subset, verdict.witness.colors, checked
        status = "globally_ramsey" if mode == "exhaustive" else "no_counterexample_found"
        return status, None, None, checked

    def test_library_matches_fresh_search(self):
        # subsets searched one by one give the same answer wherever no
        # subset is inconclusive; the cases decide every way, in both modes
        rng = random.Random(36)
        compared = set()
        for _ in range(150):
            n = rng.randint(5, 10)
            host = perturb(turan_graph(n, rng.randint(2, 4)), rng.uniform(0.2, 1), 8020,
                           rng.randrange(1000))
            targets = rng.choice([[cycle(3), cycle(3)], [cycle(3), cycle(5)],
                                  [clique(3), cycle(4)]])
            query = ramsey_query(host, targets, node_budget=rng.choice([50, 500, 10 ** 8]))
            mu = Fraction(rng.randint(max(1, n - 4), n), n)
            mode = rng.choice(["exhaustive", "sampled"])
            samples, seed = rng.randint(0, 40), rng.randrange(1000)
            verdict = decide_globally_ramsey(query, mu, mode, samples, seed)
            expected = self.fresh_global(query, mu, mode, samples, seed)
            if expected is None:
                continue
            colors = verdict.witness.colors if verdict.witness is not None else None
            assert (verdict.status, verdict.subset, colors,
                    verdict.subsets_checked) == expected
            compared.add((mode, verdict.status))
        assert {status for _, status in compared} == {
            "globally_ramsey", "not_globally_ramsey", "no_counterexample_found"}
        assert {mode for mode, _ in compared} == {"exhaustive", "sampled"}


class TestSmallRamseyNumbers:
    def test_triangle_number(self):
        assert targets_ramsey_number(((cycle(3),), (cycle(3),))) == 6

    def test_list_form_number(self):
        assert targets_ramsey_number(((cycle(3),), (cycle(3), cycle(5)))) == 5

    def test_edge_case(self):
        for a in range(2, 6):
            assert targets_ramsey_number(((clique(a),), (clique(2),))) == a

    @pytest.mark.parametrize("targets, expected", [
        ([clique(1), clique(3)], 1), ([[cycle(3)], [path(1)]], 1),
        ([arbitrary(empty_graph(2)), clique(3)], 2), ([clique(2), clique(2)], 2)])
    def test_least_ramsey_clique_from_k1(self, targets, expected):
        # the least K_n that decide_ramsey calls Ramsey, K_1 included
        assert targets_ramsey_number(targets) == expected
        least = next(n for n in range(1, 7)
                     if decide_ramsey(ramsey_query(clique_graph(n), targets)).is_ramsey)
        assert least == expected

    def test_memo_does_not_leak_across_budgets(self):
        # a scan's rows depend on its own budgets, not on earlier scans
        from ramseylab.perturb import threshold_scan

        def scan(**budget):
            return threshold_scan([turan_graph(8, 2)], [clique(3), clique(3)],
                                  [0.1, 0.3, 0.6], 5, 7, **budget).to_csv()

        starved = scan(node_budget=1)
        scan()
        assert scan(node_budget=1) == starved

    def test_brute_force_cross_check(self):
        # independent route: enumerate all colorings per host size
        targets = [[path(4)], [path(4)]]
        expected = next((n for n in range(2, 9)
                         if ramsey_brute(clique_graph(n), targets)[0]), None)
        assert targets_ramsey_number(targets, cap=8) == expected

    def test_c4_k4_number_is_10(self):
        # Radziszowski, Small Ramsey Numbers (DS1)
        assert targets_ramsey_number(((cycle(4),), (clique(4),))) == 10

    def test_c5_k4_number_is_13(self):
        assert targets_ramsey_number(((cycle(5),), (clique(4),)), cap=13) == 13


def cnf_status(doc):
    return dpll.solve(doc.nvars, doc.clauses) is not None


class TestCnfExport:
    def test_k4_counts_and_sat(self):
        doc = export_cnf(ramsey_query(clique_graph(4), [cycle(3), cycle(3)]))
        assert doc.nvars == 6
        assert len(doc.clauses) == 8
        assert cnf_status(doc) is True

    def test_k6_counts_and_unsat(self):
        doc = export_cnf(ramsey_query(clique_graph(6), [cycle(3), cycle(3)]))
        assert doc.nvars == 15
        assert len(doc.clauses) == 40
        assert cnf_status(doc) is False

    def test_empty_host(self):
        doc = export_cnf(ramsey_query(empty_graph(3), [cycle(3), cycle(3)]))
        assert doc.nvars == 0 and doc.clauses == []
        assert cnf_status(doc) is True

    def test_dimacs_shape(self):
        doc = export_cnf(ramsey_query(clique_graph(4), [cycle(3), cycle(3)]))
        text = doc.dimacs()
        assert "p cnf 6 8" in text
        assert text.strip().endswith(" 0")

    def test_model_decodes_to_valid_coloring(self):
        host = clique_graph(5)
        q = ramsey_query(host, [cycle(3), cycle(3)])
        doc = export_cnf(q)
        model = dpll.solve(doc.nvars, doc.clauses)
        assert model is not None
        colors = tuple(0 if model[i + 1] else 1 for i in range(doc.nvars))
        assert verify_coloring(EdgeColoring(host, 2, colors), q) == []

    def test_agreement_with_search(self):
        cases = [
            (clique_graph(4), [cycle(3), cycle(3)]),
            (clique_graph(5), [cycle(3), cycle(3)]),
            (clique_graph(6), [cycle(3), cycle(3)]),
            (clique_graph(5), [[cycle(3)], [cycle(3), cycle(5)]]),
            (clique_graph(5), [clique(3), cycle(4)]),
            (turan_graph(7, 3), [cycle(3), cycle(3)]),
            (cycle_graph(5), [path(3), path(3)]),
            (clique_graph(7), [clique(3), clique(3)]),
        ]
        for host, targets in cases:
            q = ramsey_query(host, targets)
            sat = cnf_status(export_cnf(q))
            assert sat == (decide_ramsey(q).status == NOT_RAMSEY)

    def test_three_color_one_hot(self):
        host = clique_graph(3)
        q = ramsey_query(host, [clique(3), clique(3), clique(3)])
        doc = export_cnf(q)
        assert doc.nvars == 9
        model = dpll.solve(doc.nvars, doc.clauses)
        assert model is not None
        # exactly one color per edge
        for e in range(3):
            assert sum(model[e * 3 + c + 1] for c in range(3)) == 1

    def test_three_color_agreement(self):
        host = clique_graph(5)
        q = ramsey_query(host, [path(3), path(3), path(3)])
        sat = cnf_status(export_cnf(q))
        assert sat == (decide_ramsey(q).status == NOT_RAMSEY)

    def test_forbidden_copies_drop_clauses(self):
        host = clique_graph(4)
        triples = list(itertools.combinations(range(4), 3))
        q = ramsey_query(host, [clique(3), clique(3)], [triples[:1], []])
        doc = export_cnf(q)
        assert len(doc.clauses) == 7
        q_all = ramsey_query(host, [clique(3), clique(3)], [triples, triples])
        assert export_cnf(q_all).clauses == []

    def test_clause_cap(self):
        q = ramsey_query(clique_graph(8), [clique(3), clique(3)])
        with pytest.raises(ValueError, match="cap"):
            export_cnf(q, clause_cap=10)

    def test_clause_cap_stops_listing(self, monkeypatch):
        # K16 has 104,832 copies of C5; export stops at the first one past the cap
        listed = []
        real = coloring._allowed_copies

        def counted(*args):
            for copy in real(*args):
                listed.append(copy)
                yield copy

        monkeypatch.setattr(coloring, "_allowed_copies", counted)
        with pytest.raises(ValueError, match="100"):
            export_cnf(ramsey_query(clique_graph(16), [cycle(5), cycle(5)]), clause_cap=100)
        assert len(listed) == 101

    def test_clause_cap_bounds_listing_memory(self):
        # K40 holds about 7.9M copies of C5: a lister that built them all
        # before export_cnf stops would need far more than this
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="100"):
                export_cnf(ramsey_query(clique_graph(40), [cycle(5), cycle(5)]), clause_cap=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024

    @settings(max_examples=40, deadline=None)
    @given(st.builds(random_graph, st.randoms(use_true_random=False),
                     st.integers(min_value=3, max_value=6),
                     st.floats(min_value=0.3, max_value=1.0)))
    def test_random_agreement(self, host):
        q = ramsey_query(host, [clique(3), cycle(4)])
        sat = cnf_status(export_cnf(q))
        assert sat == (decide_ramsey(q).status == NOT_RAMSEY)


def _pattern_graph(rng, k):
    """A pattern graph on k vertices with at least one edge; isolated
    vertices are allowed."""
    pairs = list(itertools.combinations(range(k), 2))
    return Graph.from_edges(k, rng.sample(pairs, rng.randint(1, len(pairs))))


class TestForbiddenArbitraryPatterns:
    """Engine against CNF plus DPLL on patterns that may carry isolated
    vertices, with random forbidden vertex sets."""

    @settings(max_examples=80, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from([2, 2, 2, 3]))
    def test_engine_agrees_with_cnf(self, rng, r):
        n = rng.randint(3, 5 if r == 2 else 4)
        host = random_graph(rng, n, rng.uniform(0.4, 1.0))
        targets = []
        forbidden = []
        for _ in range(r):
            pats = [arbitrary(_pattern_graph(rng, rng.randint(2, min(n, 4))))
                    for _ in range(rng.randint(1, 2))]
            targets.append(pats)
            sizes = {p.vertex_count for p in pats}
            forbidden.append([vs for k in sizes
                              for vs in itertools.combinations(range(n), k)
                              if rng.random() < 0.4])
        q = ramsey_query(host, targets, forbidden)
        doc = export_cnf(q)
        model = dpll.solve(doc.nvars, doc.clauses)
        verdict = decide_ramsey(q)
        assert verdict.status == (RAMSEY if model is None else NOT_RAMSEY)
        if verdict.status == NOT_RAMSEY:
            assert verify_coloring(verdict.witness, q) == []
        if model is not None:
            m = len(host.edges())
            if r == 2:
                colors = tuple(0 if model[i + 1] else 1 for i in range(m))
            else:
                colors = tuple(next(c for c in range(r) if model[i * r + c + 1])
                               for i in range(m))
            assert verify_coloring(EdgeColoring(host, r, colors), q) == []
