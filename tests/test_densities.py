import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ramseylab.densities as densities_module
import ramseylab.graphs as graphs_module
from oracles import (m2_asym_brute, m2_brute, mu0_brute, mu1_brute,
                     random_graph, rho_brute, rho_k_brute)
from ramseylab.densities import (covariance_bound, d2, is_strictly_2_balanced,
                                 is_strictly_balanced_wrt, janson_bound, m2,
                                 m2_asym, mu0, mu1, rho, rho_bound_hm, rho_k,
                                 rho_k_with_partition)
from ramseylab.graphs import (MAX_VERTICES, Graph, blowup, clique, clique_graph,
                              cycle, cycle_graph, empty_graph, hm_graph, hmr_graph,
                              part_vertices, path, turan_graph, twin_classes)

small_graphs = st.builds(
    random_graph,
    st.randoms(use_true_random=False),
    st.integers(min_value=2, max_value=7),
    st.floats(min_value=0.0, max_value=1.0))


class TestD2:
    def test_single_edge(self):
        assert d2(clique(2)) == Fraction(1, 2)

    def test_edgeless(self):
        assert d2(empty_graph(4)) == 0

    def test_k4(self):
        assert d2(clique(4)) == Fraction(5, 2)


class TestM2:
    def test_cliques_closed_form(self):
        for t in range(3, 8):
            assert m2(clique(t)) == Fraction(t + 1, 2)

    def test_cycles_closed_form(self):
        for length in range(3, 9):
            assert m2(cycle(length)) == Fraction(length - 1, length - 2)

    def test_c5(self):
        assert m2(cycle(5)) == Fraction(4, 3)

    def test_single_edge(self):
        assert m2(clique(2)) == Fraction(1, 2)

    @settings(max_examples=120, deadline=None)
    @given(small_graphs)
    def test_matches_brute(self, g):
        assert m2(g) == m2_brute(g)


class TestM2Asym:
    def test_clique_vs_triangle(self):
        for t in range(4, 7):
            assert m2_asym(clique(t), clique(3)) == Fraction(t * (t - 1), 2 * t - 3)

    def test_triangle_vs_short_path(self):
        assert m2_asym(clique(3), path(3)) == Fraction(3, 2)

    def test_symmetric_case_collapses_to_m2(self):
        for pat in (clique(4), cycle(5)):
            assert m2_asym(pat, pat) == m2(pat)

    def test_obs_exponent_identity(self):
        for t in range(3, 8):
            for s in range(3, t + 1):
                lhs = 1 / m2_asym(clique(t), clique(s))
                rhs = Fraction(2 * (t * s + t - 2 * s), t * (t - 1) * (s + 1))
                assert lhs == rhs

    def test_requires_ordering(self):
        with pytest.raises(ValueError):
            m2_asym(clique(3), clique(5))

    def test_requires_edges(self):
        with pytest.raises(ValueError):
            m2_asym(empty_graph(3), clique(3))

    def test_monotone_in_second_clique(self):
        # m2(K_{t-1}) < m2(K_t,K_3) < m2(K_t,K_4) < ... < m2(K_t)
        for t in range(4, 8):
            chain = [m2(clique(t - 1))]
            chain += [m2_asym(clique(t), clique(s)) for s in range(3, t + 1)]
            assert chain[-1] == m2(clique(t))
            assert all(a < b for a, b in zip(chain, chain[1:]))

    @settings(max_examples=60, deadline=None)
    @given(small_graphs, small_graphs)
    def test_sandwich_and_brute(self, g1, g2):
        if g1.edge_count == 0 or g2.edge_count == 0 or m2(g1) < m2(g2):
            return
        value = m2_asym(g1, g2)
        assert value == m2_asym_brute(g1, g2)
        assert m2(g2) <= value <= m2(g1)
        if m2(g1) == m2(g2):
            assert value == m2(g1)


class TestStrictBalance:
    def test_cliques(self):
        for t in range(3, 7):
            assert is_strictly_2_balanced(clique(t))

    def test_cycles(self):
        for length in range(3, 9):
            assert is_strictly_2_balanced(cycle(length))

    def test_clique_plus_pendant_is_not(self):
        g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                                 (2, 3), (3, 4)])
        assert not is_strictly_2_balanced(g)

    def test_k5_wrt_k3(self):
        assert is_strictly_balanced_wrt(clique(5), clique(3))

    def test_disjoint_union_not_balanced_wrt(self):
        two_triangles = Graph.from_edges(
            6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        assert not is_strictly_balanced_wrt(two_triangles, clique(3))


class TestRho:
    def test_cliques(self):
        for t in range(3, 7):
            assert rho(clique_graph(t)) == Fraction(t - 1, 2)

    def test_rho3_k6(self):
        assert rho_k(clique_graph(6), 3) == Fraction(1, 2)

    def test_rho3_k5_and_hm1(self):
        assert rho_k(clique_graph(5), 3) == Fraction(1, 2)
        assert rho_k(hm_graph(1), 3) == Fraction(1, 2)

    def test_witness_partition_is_optimal(self):
        value, parts = rho_k_with_partition(clique_graph(6), 3)
        assert value == Fraction(1, 2)
        assert sorted(v for part in parts for v in part) == list(range(6))
        for part in parts:
            assert rho(clique_graph(6).induced(part)) <= value

    def test_singleton_partition_gives_zero(self):
        g = random_graph(random.Random(3), 6, 0.5)
        assert rho_k(g, g.n) == 0

    def test_infeasible_size_raises(self):
        with pytest.raises(ValueError, match="limited"):
            rho_k(empty_graph(15), 2)

    @settings(max_examples=60, deadline=None)
    @given(small_graphs, st.integers(min_value=1, max_value=4))
    def test_matches_brute(self, g, k):
        assert rho(g) == rho_brute(g)
        assert rho_k(g, k) == rho_k_brute(g, k)

    # past the 7 vertices of small_graphs, where each part's density is
    # read from a profile walk of its own: twin-rich families, and seeded
    # random graphs with no twins
    LARGER = {"turan:9,3": lambda: turan_graph(9, 3),
              "blowup:C5,2": lambda: blowup(cycle_graph(5), 2),
              "hm:2": lambda: hm_graph(2),
              **{f"random:{seed}": (lambda seed=seed: random_graph(
                  random.Random(seed), 9 + seed % 2, 0.5)) for seed in range(4)}}

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("name", list(LARGER))
    def test_larger_graphs_match_brute(self, name, k):
        g = self.LARGER[name]()
        assert g.n in (9, 10)
        twin_free = len(twin_classes(g)) == g.n
        assert twin_free == name.startswith("random")
        value, parts = rho_k_with_partition(g, k)
        assert value == rho_k_brute(g, k)
        assert len(parts) <= k
        assert sorted(v for part in parts for v in part) == list(range(g.n))
        assert max(rho(g.induced(part)) for part in parts) == value

    @settings(max_examples=40, deadline=None)
    @given(small_graphs)
    def test_non_increasing_in_k(self, g):
        values = [rho_k(g, k) for k in range(1, g.n + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestRhoBoundHm:
    def test_m1_r2_witness(self):
        bound, groups = rho_bound_hm(1, 2)
        assert bound == Fraction(1, 2)
        assert groups == [[0, 1], [2, 3], [4]]

    def test_m2_r2_matched_pairs(self):
        bound, groups = rho_bound_hm(2, 2)
        g = hm_graph(2)
        assert bound == Fraction(1, 2)
        for vs in groups[:-1]:
            assert rho(g.induced(vs)) == Fraction(1, 2)
        assert rho(g.induced(groups[-1])) == 0

    def test_m1_r3(self):
        bound, groups = rho_bound_hm(1, 3)
        assert bound == Fraction(1, 2)
        assert len(groups) == 5

    def test_matches_exact_rho_k_for_tiny_gadget(self):
        assert rho_k(hm_graph(1), 3) <= rho_bound_hm(1, 2)[0]

    def test_large_m_uses_regularity_check(self):
        bound, groups = rho_bound_hm(9, 2)
        assert bound == Fraction(1, 2)
        assert len(groups) == 3

    # every gadget hmr_graph builds: 2^r + 1 parts of m vertices, at most 64
    BUILT = [(m, r) for r in range(2, 6) for m in range(1, MAX_VERTICES + 1)
             if ((1 << r) + 1) * m <= MAX_VERTICES]

    def test_every_built_gadget_without_a_profile_walk(self, monkeypatch):
        def no_walk(g):
            raise AssertionError("edge profile walked")

        monkeypatch.setattr(densities_module, "_edge_profile", no_walk)
        assert len(self.BUILT) == 12 + 7 + 3 + 1
        for m, r in self.BUILT:
            g = hmr_graph(m, r)
            bound, groups = rho_bound_hm(m, r)
            assert bound == Fraction(1, 2)
            half = 1 << (r - 1)
            assert groups == [part_vertices(g, 2 * i) + part_vertices(g, 2 * i + 1)
                              for i in range(half)] + [part_vertices(g, 2 * half)]

    def test_piece_with_a_degree_2_vertex_refused(self, monkeypatch):
        monkeypatch.setattr(graphs_module, "hmr_graph", lambda m, r: clique_graph(10))
        with pytest.raises(ValueError, match="two neighbours"):
            rho_bound_hm(2, 2)


@st.composite
def sparse_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True)) if pairs else []
    return Graph.from_edges(n, edges)


class TestHalfDensityByDegree:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(sparse_graphs(), st.builds(
        random_graph, st.randoms(use_true_random=False),
        st.integers(min_value=1, max_value=9), st.floats(min_value=0.0, max_value=1.0))))
    def test_rho_at_most_half_iff_max_degree_at_most_1(self, g):
        max_degree = max(g.degree(v) for v in range(g.n))
        assert (rho(g) <= Fraction(1, 2)) == (max_degree <= 1)


class TestMu:
    def test_k3_at_100(self):
        assert mu0(clique(3), 100, Fraction(1, 10)) == 1000
        assert mu1(clique(3), 100, Fraction(1, 10)) == 1000

    def test_k4_at_critical_p(self):
        # p = n^{-1/2} makes every clique term n^{v - e/2}; the minimum is n
        for n in (16, 25, 100):
            p = 1 / math.sqrt(n)
            value = mu1(clique(4), n, p)
            assert value == pytest.approx(n, rel=1e-9)

    def test_mu1_is_min_of_mu0_and_full_term(self):
        rng = random.Random(9)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 7), rng.random())
            if g.edge_count == 0:
                continue
            p = Fraction(rng.randint(1, 9), 10)
            full = Fraction(50) ** g.n * p ** g.edge_count
            assert mu1(g, 50, p) == min(mu0(g, 50, p), full)

    def test_matches_brute(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 7), rng.random())
            if g.edge_count == 0:
                continue
            p = Fraction(rng.randint(1, 9), 10)
            assert mu0(g, 30, p) == mu0_brute(g, 30, p)
            assert mu1(g, 30, p) == mu1_brute(g, 30, p)

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            mu1(empty_graph(3), 10, 0.5)


class TestTailBounds:
    def test_janson_exact_value(self):
        # exp(-xi * mu1 / (2^{v+1} v!)); for K3 the denominator is 2^4 * 3! = 96
        value = janson_bound(clique(3), 100, Fraction(1, 10), xi=0.096)
        assert value == pytest.approx(math.exp(-1.0), rel=1e-9)

    def test_janson_decreases_in_xi(self):
        lo = janson_bound(clique(3), 50, 0.2, xi=0.3)
        hi = janson_bound(clique(3), 50, 0.2, xi=0.6)
        assert hi < lo

    def test_janson_rejects_bad_xi(self):
        with pytest.raises(ValueError):
            janson_bound(clique(3), 50, 0.2, xi=2.0)

    def test_covariance_exact_value(self):
        # 2^v v! * count * n^v p^{2e} / mu0
        g = clique(3)
        n, p = 100, Fraction(1, 10)
        expected = 48 * 7 * Fraction(100) ** 3 * p ** 6 / 1000
        assert covariance_bound(g, n, p, count=7) == pytest.approx(float(expected))

    def test_huge_values_stay_finite(self):
        value = janson_bound(clique(5), 10 ** 6, Fraction(1, 100), xi=1e-9)
        assert 0.0 <= value <= 1.0
