import hashlib
import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import allowed_copies_reference, contains_brute, copies_brute, random_graph
from ramseylab.coloring import export_cnf, ramsey_query
from ramseylab.constructions import bipartite_decomposition, odd_cycle_free_multicoloring
from ramseylab.facts import verify_bipartite_split, verify_odd_cycle_unavoidable
from ramseylab.perturb import sample_gnp
from ramseylab.graphs import (Graph, _allowed_copies, _first_clique, _iter_cliques,
                              arbitrary, blowup,
                              build_family, clique, clique_graph, clique_order,
                              complete_multipartite,
                              contains_pattern, cycle, cycle_graph, cycle_length,
                              empty_graph, enumerate_copies, find_pattern,
                              find_pattern_through_edge, hm_graph, hmr_graph,
                              iter_pattern_witnesses_through_edge,
                              part_vertices, path, path_graph, turan_graph,
                              with_labels)


def star(leaves):
    return Graph.from_edges(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


small_graphs = st.builds(
    random_graph,
    st.randoms(use_true_random=False),
    st.integers(min_value=1, max_value=7),
    st.floats(min_value=0.0, max_value=1.0))

patterns = st.one_of(
    st.integers(min_value=2, max_value=5).map(clique),
    st.integers(min_value=3, max_value=6).map(cycle),
    st.integers(min_value=2, max_value=6).map(path),
    st.builds(random_graph,
              st.randoms(use_true_random=False),
              st.integers(min_value=2, max_value=4),
              st.floats(min_value=0.3, max_value=1.0)).map(arbitrary))


class TestGraphBasics:
    def test_from_edges_rejects_loops(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_adjacency_symmetric(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3), (1, 2)])
        for u in range(4):
            for v in range(4):
                assert g.has_edge(u, v) == g.has_edge(v, u)
        assert not g.has_edge(0, 0)

    def test_edge_count_is_half_degree_sum(self):
        g = random_graph(random.Random(5), 8, 0.5)
        assert sum(g.degree(v) for v in range(8)) == 2 * g.edge_count

    def test_canonical_edge_order(self):
        g = Graph.from_edges(4, [(3, 1), (2, 0), (1, 0)])
        assert g.edges() == ((0, 1), (0, 2), (1, 3))

    def test_capacity(self):
        with pytest.raises(ValueError):
            empty_graph(65)

    def test_induced(self):
        g = clique_graph(5)
        sub = g.induced([0, 2, 4])
        assert sub.n == 3 and sub.edge_count == 3

    @pytest.mark.parametrize("g, vertices, bad", [
        (path_graph(3), [-1, 1], -1),   # read as vertex 2
        (path_graph(3), [0, 7], 7),     # a phantom isolated vertex
        (turan_graph(6, 3), [0, 9], 9),  # labels indexed past the end
    ])
    def test_induced_rejects_non_vertices(self, g, vertices, bad):
        with pytest.raises(ValueError, match=f"vertex {bad} out of range"):
            g.induced(vertices)

    @pytest.mark.parametrize("v", [-1, 3])
    def test_degree_rejects_non_vertices(self, v):
        # -1 would read vertex 2's row, 3 would index past the end
        with pytest.raises(ValueError, match=f"vertex {v} out of range for n=3"):
            path_graph(3).degree(v)

    @pytest.mark.parametrize("u, v, bad", [(-1, 1, -1), (0, 7, 7), (7, 0, 7), (1, -1, -1)])
    def test_has_edge_rejects_non_vertices(self, u, v, bad):
        # (-1, 1) read vertex 2's row, (7, 0) indexed past the end and
        # (1, -1) shifted by a negative count
        g = path_graph(3)
        with pytest.raises(ValueError, match=f"^vertex {bad} out of range for n=3$"):
            g.has_edge(u, v)
        with pytest.raises(ValueError, match=f"^vertex {bad} out of range for n=3$"):
            g.subgraph_with_edges([(0, 1), (u, v)])

    def test_union(self):
        a = Graph.from_edges(4, [(0, 1)])
        b = Graph.from_edges(4, [(1, 2), (0, 1)])
        assert a.union(b).edges() == ((0, 1), (1, 2))

    def test_with_labels(self):
        g = with_labels(clique_graph(3), [7, 7, 9])
        assert part_vertices(g, 7) == [0, 1]
        assert part_vertices(g, 9) == [2]


class TestFamilies:
    def test_turan_6_3_is_k222(self):
        g = turan_graph(6, 3)
        assert g.n == 6 and g.edge_count == 12
        assert all(len(part_vertices(g, p)) == 2 for p in range(3))

    def test_hm_1_is_k5(self):
        g = hm_graph(1)
        assert g.n == 5
        assert g.is_complete()

    def test_hm_2_edge_count(self):
        assert hm_graph(2).edge_count == 36

    def test_hm_edge_count_formula(self):
        for m in range(1, 5):
            assert hm_graph(m).edge_count == 2 * m + 8 * m * m

    def test_hm_matching_pairs(self):
        g = hm_graph(3)
        for p, q in ((0, 1), (2, 3)):
            for u in part_vertices(g, p):
                assert sum(1 for v in part_vertices(g, q) if g.has_edge(u, v)) == 1
        for u in part_vertices(g, 0):
            assert all(g.has_edge(u, v) for v in part_vertices(g, 4))

    def test_hmr_2_equals_hm(self):
        for m in (1, 2, 3):
            assert hmr_graph(m, 2) == hm_graph(m)

    def test_hmr_part_count(self):
        g = hmr_graph(2, 3)
        assert g.n == 9 * 2
        assert len({g.labels[v] for v in range(g.n)}) == 9

    def test_complete_multipartite_sizes(self):
        g = complete_multipartite([3, 1, 2])
        assert g.n == 6
        assert g.edge_count == 3 * 1 + 3 * 2 + 1 * 2

    def test_cycle_path(self):
        assert cycle_graph(5).edge_count == 5
        assert path_graph(5).edge_count == 4
        assert path_graph(1).edge_count == 0

    def test_turan_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            turan_graph(3, 4)
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_build_family_strings(self):
        assert build_family("turan:6,3") == turan_graph(6, 3)
        assert build_family("hm:2") == hm_graph(2)
        assert build_family("hmr:1,3") == hmr_graph(1, 3)
        assert build_family("clique:5") == clique_graph(5)
        assert build_family({"family": "cycle", "args": [7]}) == cycle_graph(7)

    @pytest.mark.parametrize("descriptor, message", [
        ("turan:12", r"'turan' takes 2 arguments \(n,k\), got 1"),
        ("turan:12,4,5", r"'turan' takes 2 arguments \(n,k\), got 3"),
        ("clique:", r"'clique' takes 1 argument \(n\), got 0"),
        ({"family": "hmr", "args": [1]}, r"'hmr' takes 2 arguments \(m,r\), got 1"),
        ("mystery:3", "unknown family 'mystery'")])
    def test_build_family_bad_arguments(self, descriptor, message):
        with pytest.raises(ValueError, match=message):
            build_family(descriptor)

    @pytest.mark.parametrize("descriptor, message", [
        ({"family": "turan", "args": [12.7, 4]},
         "family 'turan' argument n must be an integer, got 12.7"),
        ({"family": "empty", "args": [True]},
         "family 'empty' argument n must be an integer, got True"),
        ("turan:12,x", "family 'turan' argument k must be an integer, got 'x'"),
        ("hmr:1,3.0", "family 'hmr' argument r must be an integer, got '3.0'"),
        ("blowup:Bw,+", "family 'blowup' argument m must be an integer, got '\\+'"),
        ("complete_multipartite:2,x,3",
         "family 'complete_multipartite' argument 2 must be an integer, got 'x'"),
        ({"family": "graph6", "args": [True]},
         "family 'graph6' argument g6 must be a graph6 string, got True"),
        ({"family": "blowup", "args": [None, 2]},
         "family 'blowup' argument g6 must be a graph6 string, got None")])
    def test_build_family_bad_argument_types_named(self, descriptor, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_family(descriptor)

    def test_build_family_integer_strings_accepted(self):
        assert build_family({"family": "turan", "args": ["12", " 4"]}) == turan_graph(12, 4)
        assert build_family("complete_multipartite:+2,3") == complete_multipartite([2, 3])
        assert build_family({"family": "blowup", "args": ["Bw", 2]}) == blowup(clique_graph(3), 2)

    def test_blowup_structure(self):
        g = blowup(cycle_graph(3), 2)
        assert g.n == 6 and g.edge_count == 3 * 4
        assert contains_pattern(g, cycle(3))
        assert g.labels == (0, 0, 1, 1, 2, 2)


class TestContainment:
    def test_k5_has_c5(self):
        assert contains_pattern(clique_graph(5), cycle(5))

    def test_k33_has_no_c5(self):
        assert not contains_pattern(complete_multipartite([3, 3]), cycle(5))

    def test_turan93_has_no_k4(self):
        assert not contains_pattern(turan_graph(9, 3), clique(4))

    def test_witness_is_an_embedding(self):
        g = turan_graph(9, 3)
        wit = find_pattern(g, cycle(6))
        assert wit is not None and len(wit) == 6
        for i in range(6):
            assert g.has_edge(wit[i], wit[(i + 1) % 6])

    @settings(max_examples=150, deadline=None)
    @given(small_graphs, patterns)
    def test_matches_brute_force(self, g, pat):
        if pat.vertex_count > g.n:
            assert not contains_pattern(g, pat)
        else:
            assert contains_pattern(g, pat) == contains_brute(g, pat)

    @settings(max_examples=80, deadline=None)
    @given(small_graphs, patterns)
    def test_through_edge_implies_containment(self, g, pat):
        for e in g.edges():
            if find_pattern_through_edge(g, pat, e) is not None:
                assert contains_pattern(g, pat)

    def test_every_k4_edge_in_triangle(self):
        g = clique_graph(4)
        for e in g.edges():
            assert find_pattern_through_edge(g, clique(3), e) is not None

    def test_c6_through_its_own_edges(self):
        g = cycle_graph(6)
        for e in g.edges():
            assert find_pattern_through_edge(g, cycle(6), e) is not None

    def test_star_has_no_triangle_through_any_edge(self):
        g = star(5)
        for e in g.edges():
            assert find_pattern_through_edge(g, cycle(3), e) is None

    def test_through_edge_respects_forbidden_sets(self):
        g = clique_graph(4)
        everything = frozenset(frozenset(c) for c in
                               itertools.combinations(range(4), 3))
        for e in g.edges():
            assert find_pattern_through_edge(g, clique(3), e,
                                             forbidden=everything) is None

    def test_through_edge_lists_every_clique(self):
        k4, k6 = clique_graph(4), clique_graph(6)
        assert list(iter_pattern_witnesses_through_edge(k4, clique(3), (0, 1))) == [
            (0, 1, 2), (0, 1, 3)]
        got = list(iter_pattern_witnesses_through_edge(k6, clique(4), (0, 1)))
        assert got == [(0, 1) + rest for rest in itertools.combinations(range(2, 6), 2)]

    @pytest.mark.parametrize("e, bad", [((-1, 0), -1), ((0, -4), -4), ((2, 9), 9)])
    def test_through_edge_rejects_non_vertices(self, e, bad):
        # (-1, 0) read as (3, 0) gave the witness (-1, 0, 1)
        with pytest.raises(ValueError, match=f"vertex {bad} out of range"):
            find_pattern_through_edge(clique_graph(4), clique(3), e)

    def test_through_edge_skips_forbidden_clique_only(self):
        g = clique_graph(4)
        assert find_pattern_through_edge(g, clique(3), (0, 1),
                                         forbidden={frozenset({0, 1, 2})}) == (0, 1, 3)

    def test_through_edge_reads_forbidden_as_vertex_sets(self):
        # a list of lists or a set of tuples names the same vertex sets
        # as frozensets do
        g = clique_graph(4)
        for forbidden in ([[0, 1, 2]], {(0, 1, 2)}, [(2, 1, 0)]):
            assert find_pattern_through_edge(g, clique(3), (0, 1),
                                             forbidden=forbidden) == (0, 1, 3)

    @settings(max_examples=80, deadline=None)
    @given(small_graphs, patterns)
    # two copies of P3 through (0,1) share each of the vertex sets {0,1,2}, {0,1,3}
    @example(clique_graph(4), arbitrary(path_graph(3)))
    def test_through_edge_lists_each_copy_once(self, g, pat):
        brute = copies_brute(g, pat)
        for e in g.edges():
            got = list(iter_pattern_witnesses_through_edge(g, pat, e))
            want = [copy for copy in brute if e in copy]
            if pat.kind == "clique":
                edge_lists = [itertools.combinations(w, 2) for w in got]
            elif pat.kind == "cycle":
                edge_lists = [zip(w, w[1:] + w[:1]) for w in got]
            elif pat.kind == "path":
                edge_lists = [zip(w, w[1:]) for w in got]
            else:
                edge_lists = [[(w[a], w[b]) for a, b in pat.graph.edges()] for w in got]
            edge_sets = [frozenset((min(a, b), max(a, b)) for a, b in es)
                         for es in edge_lists]
            # without isolated pattern vertices the vertex set follows from
            # the edge set, so this lists each edge set once
            assert len(set(zip(edge_sets, map(frozenset, got)))) == len(got)
            assert set(edge_sets) == set(want)

    def test_enumerate_copies_counts(self):
        assert len(enumerate_copies(clique_graph(4), clique(3))) == 4
        assert len(enumerate_copies(clique_graph(5), cycle(5))) == 12
        assert len(enumerate_copies(path_graph(4), path(4))) == 1

    @settings(max_examples=60, deadline=None)
    @given(small_graphs, patterns)
    def test_enumerate_matches_brute(self, g, pat):
        if pat.vertex_count > g.n:
            return
        mine = {frozenset(edges) for _, edges in enumerate_copies(g, pat)}
        assert mine == copies_brute(g, pat)

    def test_clique_copies_in_combinations_order(self):
        # export_cnf writes one clause per copy in this order, so the
        # DIMACS bytes depend on it
        rng = random.Random(11)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 9), rng.random())
            for t in range(2, 6):
                want = [vs for vs in itertools.combinations(range(g.n), t)
                        if all(g.has_edge(a, b) for a, b in itertools.combinations(vs, 2))]
                assert [w for w, _ in enumerate_copies(g, clique(t))] == want

    def test_find_pattern_is_first_enumerated_copy(self):
        # find_pattern and enumerate_copies both read _allowed_copies, so
        # they start at the same witness, or at none; this fails if
        # find_pattern ever walks a second lister again
        rng = random.Random(27)
        named = ([clique(t) for t in range(1, 7)] + [cycle(k) for k in range(3, 8)]
                 + [path(k) for k in range(1, 6)])
        # edgeless, with isolated vertices, and connected
        shapes = [(1, 0.0), (3, 0.0), (4, 0.3), (5, 0.4), (4, 1.0)]
        found = 0
        for _ in range(160):
            g = random_graph(rng, rng.randint(1, 11), rng.random())
            extra = [arbitrary(random_graph(rng, k, p)) for k, p in shapes]
            for pat in named + extra:
                copies = enumerate_copies(g, pat)
                want = copies[0][0] if copies else None
                assert find_pattern(g, pat) == want, (g, pat)
                found += want is not None
        assert 0 < found < 160 * 21


PAW = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
K4E = Graph.from_edges(4, [e for e in itertools.combinations(range(4), 2) if e != (2, 3)])
EDGE_AND_VERTEX = Graph.from_edges(3, [(0, 1)])


class TestFirstClique:
    """_first_clique, the flat kernel behind the engine's K4+ finder and
    the scan's K_R tests, against the first clique _iter_cliques lists."""

    def test_matches_iter_cliques(self):
        rng = random.Random(2026)
        outcomes = set()
        for _ in range(200):
            g = random_graph(rng, rng.randint(0, 14), rng.random())
            # the whole vertex set, and the common neighbourhood of each edge
            cands = [(1 << g.n) - 1] + [g.adj[u] & g.adj[v] for u, v in g.edges()]
            for cand in cands:
                for need in range(7):
                    ws = _first_clique(g.adj, cand, need)
                    first = next(_iter_cliques(g.adj, cand, need), None)
                    assert (None if ws is None else tuple(reversed(ws))) == first
                    outcomes.add((need, ws is None))
        assert outcomes == {(need, none) for need in range(1, 7) for none in (False, True)
                            } | {(0, False)}


class TestListingOrder:
    """The exact lists of the other pattern kinds, as sha256 digests.

    export_cnf writes clauses in enumerate_copies order, and the search's
    conflict sets, node counts and witnesses follow the first copy the
    through-edge iterator lists, so these orders are part of every
    result byte.
    """

    # pattern: (copies over all hosts, digest of every listing)
    LISTINGS = {
        "C3": (241, "3279dcb45d78f0469993f804e252ca2c4ddead837152b0712f8ef2d7b764af7f"),
        "C4": (794, "5a9ac8dfb2d3cdd07c3b0d2521ce92637886399694b8c5192b0af82a33c788d4"),
        "C5": (2487, "3b9175b1dca5241cb6c218fc0521f08c9be91cbc1ea52410fe3cd53e15c8432e"),
        "C6": (6919, "10f86fc31fa1f5adfdf81d1d56d053adfe4dcd4edb11675a6cfafbc461aaba79"),
        "P1": (30, "2175d58b0ac9b1cf50b4254e27fd14d496ed06c7512ecd46abf13ccb3ce05b17"),
        "P2": (255, "bd0b6c4d95a49ae7f8ffc484cf68d7a824059d44aa691f2c66402c9068de6846"),
        "P3": (944, "67dc5d3e8b64a66ddb0746bb01b2dd0909af1b768ba3417026ea9600a1f0a1fa"),
        "P4": (3661, "0458e3caca186af8bdd4724fed1a40d52eb5649503048ae91e4b1adc21b6b669"),
        "P5": (13514, "b93f58196ec2d0941e2b6493779f4034d1d04139ccfb3d4a0ca5573270370adf"),
        "graph(n=4,m=4)": (3134, "31506a65d66a4039034f27f7ab79621e9ebfdb35edbfd3bfee5ba8ce2b8ea74e"),
        "graph(n=4,m=5)": (1431, "b99b96810092843f6b1d34f3b3e3ffac361b068b8d7ff19648321435abe368b5"),
        "graph(n=3,m=1)": (255, "95f23adac86d81087988be028218d63fe99219d9118c986686d2e92ea4b6cd73"),
    }
    DIMACS = "f5c9f11deec6611fff9ac4257854c7c7bf44decceed7f98ed1ed483995c24d71"
    # label: (host, per-color targets, forbidden sets, digest of the DIMACS text)
    QUERIES = {
        "K7-K4e-K3": (clique_graph(7), [arbitrary(K4E), clique(3)], None,
                      "e6328272a3b7c9969fa75728bdf293adf7fff0e5d2d59eea697b46251aff541a"),
        "forbidden": (clique_graph(6), [cycle(4), arbitrary(PAW)],
                      [[(0, 1, 2, 3), (1, 2, 3, 4), (2, 3, 4, 5)], [(0, 1, 2, 3), (0, 2, 4, 5)]],
                      "d64bd63f39e773995f5face00a9b0b89a3e625acb0d45e9d0106e2e3137fabdb"),
        "three-colors": (clique_graph(6), [cycle(3), path(3), arbitrary(K4E)],
                         [[], [(0, 1, 2), (3, 4, 5)], [(0, 1, 2, 3)]],
                         "164dc5e1fd206326764884bb15838da5976730206a04bcc15d035ba826f9e887"),
        "edge-and-vertex": (clique_graph(6), [arbitrary(EDGE_AND_VERTEX), clique(3)],
                            [[(0, 1, v) for v in range(2, 6)] + [(2, 3, 4), (2, 3, 5)], []],
                            "b18c5282c3ec45f9c975a75443aff5e5491f73f9da6ae3a00958795883d6b33f"),
        "P1": (clique_graph(3), [path(1), cycle(3)], None,
              "c19c2f80d128b1dee457e8d624668d33959dca8dbc66e3916a3a94a0f79871f7"),
    }

    @pytest.mark.parametrize("pat", [cycle(k) for k in range(3, 7)]
                             + [path(k) for k in range(1, 6)]
                             + [arbitrary(PAW), arbitrary(K4E), arbitrary(EDGE_AND_VERTEX)],
                             ids=lambda pat: pat.describe())
    def test_copy_lists(self, pat):
        rng = random.Random(1414)
        digest = hashlib.sha256()
        count = 0
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 9), rng.random())
            copies = enumerate_copies(g, pat)
            count += len(copies)
            digest.update(repr((copies, find_pattern(g, pat))).encode())
            for e in g.edges():
                digest.update(repr(list(iter_pattern_witnesses_through_edge(g, pat, e))).encode())
        assert (count, digest.hexdigest()) == self.LISTINGS[pat.describe()]

    def test_dimacs_bytes(self):
        text = export_cnf(ramsey_query(clique_graph(7), [cycle(5), path(4)])).dimacs()
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIMACS

    @pytest.mark.parametrize("label", QUERIES)
    def test_query_dimacs(self, label):
        host, targets, forbidden, digest = self.QUERIES[label]
        text = export_cnf(ramsey_query(host, targets, forbidden)).dimacs()
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def homomorphism_exists(pat_graph: Graph, base: Graph) -> bool:
    for image in itertools.product(range(base.n), repeat=pat_graph.n):
        if all(base.has_edge(image[u], image[v]) for u, v in pat_graph.edges()):
            return True
    return bool(pat_graph.n == 0)

P3_AND_VERTEX = Graph.from_edges(4, [(0, 1), (1, 2)])


class TestListingMatchesReference:
    """_allowed_copies gives the (witness, ascending edge indices) list
    of the nested-generator reference in tests/oracles.py, in the same
    order, with and without forbidden vertex sets, and the copies of the
    brute-force oracle."""

    @pytest.mark.parametrize("pat", [clique(t) for t in range(1, 6)]
                             + [cycle(k) for k in range(3, 8)]
                             + [path(k) for k in range(1, 6)]
                             + [arbitrary(PAW), arbitrary(K4E), arbitrary(EDGE_AND_VERTEX),
                                arbitrary(P3_AND_VERTEX)],
                             ids=lambda pat: pat.describe())
    def test_same_list_as_reference(self, pat):
        rng = random.Random(2424)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 10), rng.random())
            k = pat.vertex_count
            forbidden = frozenset(frozenset(vs) for vs in itertools.combinations(range(g.n), k)
                                  if rng.random() < 0.3)
            for forb in (frozenset(), forbidden):
                got = list(_allowed_copies(g, pat, forb))
                assert got == allowed_copies_reference(g, pat, forb)
                assert all(list(ids) == sorted(set(ids)) for _, ids in got)
            if g.n <= 7:
                edges = g.edges()
                mine = {frozenset(edges[i] for i in ids)
                        for _, ids in _allowed_copies(g, pat, frozenset())}
                assert mine == copies_brute(g, pat)

    def test_random_arbitrary_patterns(self):
        rng = random.Random(2525)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 8), rng.uniform(0.3, 1.0))
            k = rng.randint(2, 5)
            pairs = list(itertools.combinations(range(k), 2))
            pat = arbitrary(Graph.from_edges(k, rng.sample(pairs, rng.randint(1, len(pairs)))))
            forbidden = frozenset(frozenset(vs) for vs in itertools.combinations(range(g.n), k)
                                  if rng.random() < 0.3)
            for forb in (frozenset(), forbidden):
                assert list(_allowed_copies(g, pat, forb)) == allowed_copies_reference(g, pat, forb)
            if g.n <= 7:
                edges = g.edges()
                mine = {frozenset(edges[i] for i in ids)
                        for _, ids in _allowed_copies(g, pat, frozenset())}
                assert mine == copies_brute(g, pat)


VERTEX_CAP_ERROR = r"^vertex count \d+ outside 0\.\.64$"


class TestVertexCap:
    """Every builder refuses more than 64 vertices before it allocates
    anything of the requested size."""

    @pytest.mark.parametrize("build", [
        lambda: clique_graph(2 ** 70),
        lambda: empty_graph(2 ** 70),
        lambda: sample_gnp(2 ** 70, 0.5, 1),
        lambda: turan_graph(3 * 2 ** 70, 2 ** 70),
        lambda: blowup(clique_graph(2), 40)],
        ids=["clique", "empty", "gnp", "turan", "blowup"])
    def test_refused(self, build):
        with pytest.raises(ValueError, match=VERTEX_CAP_ERROR):
            build()

    @pytest.mark.parametrize("build", [
        lambda: complete_multipartite([40, 40]),
        lambda: cycle_graph(10 ** 4),
        lambda: path_graph(10 ** 4),
        lambda: empty_graph(10 ** 4)],
        ids=["multipartite", "cycle", "path", "empty"])
    def test_refused_before_allocating(self, build):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert re.match(VERTEX_CAP_ERROR, str(info.value))
        assert peak < 16 * 1024

    @pytest.mark.parametrize("build, message", [
        (lambda: hmr_graph(1, 10 ** 8), "vertex count over 2^4096 outside 0..64"),
        (lambda: verify_odd_cycle_unavoidable(10 ** 8), "vertex count over 2^4096 outside 0..64"),
        (lambda: verify_bipartite_split(10 ** 8), "vertex count over 2^4096 outside 0..64"),
        (lambda: odd_cycle_free_multicoloring(16, 10 ** 8, 2),
         "vertex count over 2^4096 outside 0..64"),
        # i counts classes, not vertices: one list each would be built
        (lambda g=turan_graph(4, 4): bipartite_decomposition(g, 10 ** 8),
         "more than 4096 classes")],
        ids=["hmr", "odd_cycle_unavoidable", "bipartite_split", "multicycle",
             "bipartite_decomposition"])
    def test_exponent_refused_before_shifting(self, build, message):
        # 2^e vertices or parts: the exponent is checked before 1 << e,
        # and the error prints neither number
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == message
        assert peak < 16 * 1024


def _connected(g: Graph) -> bool:
    """Breadth-first search from vertex 0 reaches every vertex."""
    seen = frontier = 1
    while frontier:
        reached = 0
        for v in range(g.n):
            if frontier >> v & 1:
                reached |= g.adj[v]
        frontier = reached & ~seen
        seen |= reached
    return seen == (1 << g.n) - 1


class TestShapeOfArbitraryPatterns:
    def test_every_labelled_graph_up_to_six_vertices(self):
        # K_n exactly when every degree is n - 1; C_n exactly when
        # 2-regular and connected
        for n in range(1, 7):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = Graph.from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
                degrees = {g.degree(v) for v in range(n)}
                pat = arbitrary(g)
                assert clique_order(pat) == (n if degrees == {n - 1} else None)
                is_cycle = degrees == {2} and _connected(g)
                assert cycle_length(pat) == (n if is_cycle else None)


class TestBlowupHomomorphism:
    @settings(max_examples=60, deadline=None)
    @given(st.builds(random_graph, st.randoms(use_true_random=False),
                     st.integers(min_value=2, max_value=5),
                     st.floats(min_value=0.2, max_value=1.0)),
           st.builds(random_graph, st.randoms(use_true_random=False),
                     st.integers(min_value=2, max_value=5),
                     st.floats(min_value=0.3, max_value=1.0)))
    def test_blowup_contains_iff_homomorphism(self, base, pat_graph):
        blown = blowup(base, pat_graph.n)
        expected = homomorphism_exists(pat_graph, base)
        assert contains_pattern(blown, arbitrary(pat_graph)) == expected


class TestOddCycles:
    def test_bipartite_has_none(self):
        assert not complete_multipartite([4, 4]).has_odd_cycle()
        assert not path_graph(6).has_odd_cycle()

    def test_odd_cycle_found(self):
        assert cycle_graph(7).has_odd_cycle()
        assert turan_graph(9, 3).has_odd_cycle()

    @settings(max_examples=100, deadline=None)
    @given(small_graphs)
    def test_matches_two_coloring(self, g):
        # a graph has an odd cycle exactly when it is not 2-colorable
        assert g.has_odd_cycle() == (g.two_coloring() is None)
