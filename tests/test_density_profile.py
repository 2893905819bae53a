"""The edge profile and the quantities read from it: the profile and the
twin classes it walks, the strict-balance predicates against brute
force, the 20-vertex enumeration cap, and the profile kept on each
Graph."""

import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (edge_profile_brute, m2_brute, random_graph,
                     strictly_2_balanced_brute, strictly_balanced_wrt_brute)
import ramseylab.densities as densities_module
from ramseylab.densities import (_edge_profile, covariance_bound,
                                 is_strictly_2_balanced,
                                 is_strictly_balanced_wrt, janson_bound, m2,
                                 m2_asym, mu0, mu1, rho)
from ramseylab.graphs import (Graph, _bits, arbitrary, clique, clique_graph,
                              cycle, cycle_graph, empty_graph, path,
                              turan_graph, twin_classes)


def with_isolated(g: Graph, extra: int) -> Graph:
    return Graph.from_edges(g.n + extra, g.edges())


random_graphs = st.builds(random_graph, st.randoms(use_true_random=False),
                          st.integers(min_value=1, max_value=8),
                          st.floats(min_value=0.0, max_value=1.0))
graphs_1_8 = st.one_of(
    random_graphs,
    st.integers(min_value=1, max_value=8).map(empty_graph),
    st.builds(with_isolated,
              st.builds(random_graph, st.randoms(use_true_random=False),
                        st.integers(min_value=2, max_value=6),
                        st.floats(min_value=0.3, max_value=1.0)),
              st.integers(min_value=1, max_value=2)))


def random_blowup(rng: random.Random, sizes: list[int], adjacent: list[bool],
                  density: float) -> Graph:
    """Classes of the given sizes, each a clique (adjacent) or an independent
    set, with each pair of classes joined completely or not at all, and the
    vertices shuffled."""
    owner = [c for c, size in enumerate(sizes) for _ in range(size)]
    joined = {pair: rng.random() < density
              for pair in itertools.combinations(range(len(sizes)), 2)}
    place = list(range(len(owner)))
    rng.shuffle(place)
    edges = [(place[u], place[v]) for u, v in itertools.combinations(range(len(owner)), 2)
             if (adjacent[owner[u]] if owner[u] == owner[v] else joined[owner[u], owner[v]])]
    return Graph.from_edges(len(owner), edges)


blowups = st.integers(min_value=1, max_value=5).flatmap(lambda k: st.builds(
    random_blowup, st.randoms(use_true_random=False),
    st.lists(st.integers(min_value=1, max_value=4), min_size=k, max_size=k),
    st.lists(st.booleans(), min_size=k, max_size=k),
    st.floats(min_value=0.0, max_value=1.0)))
profile_graphs = st.one_of(
    graphs_1_8,
    blowups,
    st.builds(with_isolated, graphs_1_8, st.integers(min_value=1, max_value=3)),
    st.integers(min_value=0, max_value=9).map(clique_graph),
    st.integers(min_value=0, max_value=9).map(empty_graph),
    st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.builds(turan_graph, st.just(n), st.integers(min_value=1, max_value=n))))


class TestEdgeProfileAgainstBrute:
    @settings(max_examples=200, deadline=None)
    @given(profile_graphs)
    @example(cycle_graph(4))
    @example(empty_graph(0))
    @example(clique_graph(1))
    @example(turan_graph(12, 3))
    @example(with_isolated(clique_graph(3), 2))
    def test_profile(self, g):
        assert _edge_profile(g) == edge_profile_brute(g)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_turan_20_is_balanced(self, k):
        # the densest v vertices of a complete k-partite graph are spread
        # as evenly as its parts allow, which Turan(20,k) always allows
        profile = _edge_profile(turan_graph(20, k))
        assert profile == [turan_graph(v, min(v, k)).edge_count if v else 0
                           for v in range(21)]


def twins_brute(g: Graph, u: int, v: int) -> bool:
    return g.adj[u] & ~(1 << v) == g.adj[v] & ~(1 << u)


class TestTwinClasses:
    @settings(max_examples=150, deadline=None)
    @given(profile_graphs)
    @example(empty_graph(0))
    @example(cycle_graph(5))
    def test_classes_match_pairwise_twins(self, g):
        classes = twin_classes(g)
        owner = {}
        for members, adjacent in classes:
            vs = list(_bits(members))
            assert adjacent == (len(vs) > 1 and g.has_edge(vs[0], vs[1]))
            for v in vs:
                assert v not in owner
                owner[v] = members
        assert sorted(owner) == list(range(g.n))
        firsts = [(members & -members).bit_length() for members, _ in classes]
        assert firsts == sorted(firsts)
        for u, v in itertools.combinations(range(g.n), 2):
            assert (owner[u] == owner[v]) == twins_brute(g, u, v)
            if owner[u] == owner[v]:
                assert g.has_edge(u, v) == dict(classes)[owner[u]]

    @pytest.mark.parametrize("g, want", [
        (empty_graph(0), []),
        (empty_graph(3), [(0b111, False)]),
        (clique_graph(4), [(0b1111, True)]),
        (cycle_graph(4), [(0b0101, False), (0b1010, False)]),
        (cycle_graph(5), [(1 << v, False) for v in range(5)]),
        (turan_graph(7, 3), [(0b0000111, False), (0b0011000, False), (0b1100000, False)]),
        (Graph.from_edges(4, [(0, 2), (1, 2)]), [(0b0011, False), (0b0100, False),
                                                (0b1000, False)]),
        (Graph.from_edges(4, [(1, 3), (0, 1), (0, 3)]), [(0b1011, True), (0b0100, False)]),
    ], ids=["K0", "E3", "K4", "C4", "C5", "T(7,3)", "P3+K1", "K3+K1"])
    def test_known_classes(self, g, want):
        assert twin_classes(g) == want


class TestStrictBalanceAgainstBrute:
    @settings(max_examples=150, deadline=None)
    @given(graphs_1_8)
    @example(clique_graph(5))
    @example(cycle_graph(7))
    @example(with_isolated(clique_graph(4), 1))
    @example(empty_graph(1))
    def test_strictly_2_balanced(self, g):
        assert is_strictly_2_balanced(g) == strictly_2_balanced_brute(g)

    @settings(max_examples=150, deadline=None)
    @given(graphs_1_8, st.sampled_from([clique(3), cycle(4), path(3)]))
    @example(clique_graph(5), clique(3))
    @example(cycle_graph(6), cycle(4))
    @example(with_isolated(clique_graph(4), 2), path(3))
    def test_strictly_balanced_wrt(self, g, h2):
        if g.edge_count == 0 or m2_brute(g) < m2_brute(h2.to_graph()):
            with pytest.raises(ValueError):
                is_strictly_balanced_wrt(g, h2)
            return
        assert is_strictly_balanced_wrt(g, h2) == strictly_balanced_wrt_brute(
            g, h2.to_graph())


class TestEnumerationCap:
    big = turan_graph(21, 3)

    @pytest.mark.parametrize("call", [
        lambda g: mu0(g, 100, Fraction(1, 10)),
        lambda g: mu1(g, 100, Fraction(1, 10)),
        lambda g: janson_bound(g, 100, Fraction(1, 10), 0.5),
        lambda g: covariance_bound(g, 100, Fraction(1, 10), 3),
    ], ids=["mu0", "mu1", "janson_bound", "covariance_bound"])
    def test_moment_quantities_raise_beyond_cap(self, call):
        with pytest.raises(ValueError, match="limited"):
            call(self.big)


def profile_values(g):
    """Every quantity read from the profile, asked in one fixed order."""
    p = Fraction(1, 10)
    return (m2(g), m2_asym(g, clique(2)), rho(g), is_strictly_2_balanced(g),
            mu0(g, 100, p), mu1(g, 100, p))


class TestProfileKeptOnGraph:
    def test_walked_once_per_graph(self, monkeypatch):
        walked = []

        def counting(g, _walk=_edge_profile):
            walked.append(g)
            return _walk(g)

        monkeypatch.setattr(densities_module, "_edge_profile", counting)
        g = turan_graph(14, 3)
        got = profile_values(g)
        # m2_asym walks the fresh K2 of its second argument, nothing else
        assert sum(h is g for h in walked) == 1
        assert all(h is g or h == clique_graph(2) for h in walked)
        assert profile_values(g) == got
        assert sum(h is g for h in walked) == 1

    @pytest.mark.parametrize("g", [clique_graph(5), turan_graph(9, 3), cycle_graph(6)],
                             ids=["K5", "T(9,3)", "C6"])
    def test_mu0_leaves_the_profile_intact(self, g):
        # mu0 lowers the last profile entry by one edge on its own copy;
        # on K5 a lowered entry would turn m2 from 3 into 8/3
        fresh = Graph(g.n, g.adj, g.labels)
        mu0(g, 100, Fraction(1, 10))
        assert m2(g) == m2(fresh)
        assert is_strictly_2_balanced(g) == is_strictly_2_balanced(fresh)
        assert profile_values(g) == profile_values(Graph(g.n, g.adj, g.labels))

    @pytest.mark.parametrize("pattern", [
        clique(5), cycle(6), path(4),
        arbitrary(Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]))],
        ids=["K5", "C6", "P4", "triangle-tail"])
    def test_pattern_matches_its_graph(self, pattern):
        assert profile_values(pattern) == profile_values(pattern.to_graph())

    def test_filled_slot_keeps_value_semantics(self):
        g, plain = turan_graph(9, 3), turan_graph(9, 3)
        m2(g)
        assert g._profile is not None and plain._profile is None
        assert g == plain and hash(g) == hash(plain)
        for twin in [copy.deepcopy(g), copy.copy(g)] + [
                pickle.loads(pickle.dumps(g, protocol))
                for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]:
            assert twin == plain and hash(twin) == hash(plain)
            assert twin.labels == plain.labels and twin.edges() == plain.edges()
            assert profile_values(twin) == profile_values(plain)
