"""Density quantities read from the edge profile: the strict-balance
predicates against brute force, and the 20-vertex enumeration cap."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (m2_brute, random_graph, strictly_2_balanced_brute,
                     strictly_balanced_wrt_brute)
from ramseylab.densities import (covariance_bound, is_strictly_2_balanced,
                                 is_strictly_balanced_wrt, janson_bound, mu0,
                                 mu1)
from ramseylab.graphs import (Graph, clique, clique_graph, cycle, cycle_graph,
                              empty_graph, path, turan_graph)


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
