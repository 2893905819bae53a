import hashlib
import json
import math
from fractions import Fraction as F

import pytest

from oracles import _coloring_avoids, first_avoiding_coloring_brute
import ramseylab.coloring as coloring_module
import ramseylab.thresholds as thresholds_module
from ramseylab.coloring import ramsey_query
from ramseylab.densities import m2_asym
from ramseylab.graphs import (Graph, arbitrary, clique, clique_graph, cycle, cycle_graph,
                              path)
from ramseylab.thresholds import (EXACT, EXACT_UP_TO_O1, INTERVAL, UNKNOWN,
                                  ZERO, _clique_asym, _least_quotient_clique,
                                  _quotient_clique_size, _seed_band, threshold_oracle)


def ask(pats, d):
    return threshold_oracle(pats, d)


def assert_exact(ans, exponent):
    assert ans.kind == EXACT
    assert ans.exponent == F(*exponent) if isinstance(exponent, tuple) else exponent
    assert ans.provenance


class TestWorkedExamples:
    def test_k7_k5_sparse_band(self):
        ans = ask([clique(7), clique(5)], F(2, 5))
        assert ans.kind == EXACT
        assert ans.exponent == F(-11, 42)

    def test_two_triangles_dense(self):
        ans = ask([cycle(3), cycle(3)], F(3, 5))
        assert ans.kind == EXACT
        assert ans.exponent == -2

    def test_even_cycles_zero(self):
        assert ask([cycle(4), cycle(6)], F(1, 10)).kind == ZERO

    def test_two_k4(self):
        ans = ask([clique(4), clique(4)], F(1, 3))
        assert ans.kind == EXACT
        assert ans.exponent == F(-1, 2)

    def test_k5_vs_c7(self):
        ans = ask([clique(5), cycle(7)], F(1, 2))
        assert ans.kind == EXACT
        assert ans.exponent == F(-1, 2)


class TestCliqueVsTriangle:
    @pytest.mark.parametrize("t", range(3, 8))
    def test_sparse_exact(self, t):
        for d in (F(1, 10), F(1, 3), F(1, 2)):
            ans = ask([clique(t), clique(3)], d)
            assert ans.kind == EXACT
            assert ans.exponent == F(-2, t - 1)

    def test_dense_uncovered(self):
        assert ask([clique(4), clique(3)], F(3, 5)).kind == UNKNOWN


class TestBigCliquePairs:
    def test_sparse_band_uses_half_quotient(self):
        # s >= 5 with d <= 1/2 reduces to the clique K_ceil(s/2)
        for t, s in ((5, 5), (6, 5), (7, 6), (8, 7)):
            ans = ask([clique(t), clique(s)], F(2, 5))
            assert ans.kind == EXACT
            q = -(-s // 2)
            assert ans.exponent == -1 / m2_asym(clique_graph(t), clique_graph(q))

    def test_congruent_band_is_exact(self):
        # seed band k=3; s = 7 = 2k+1 with s % k == 1
        ans = ask([clique(7), clique(7)], F(3, 5))
        assert ans.kind == EXACT
        assert ans.exponent == -1 / m2_asym(clique_graph(7), clique_graph(3))
        assert ans.exponent == F(-11, 42)

    def test_incongruent_band_only_log_sharp(self):
        # k=3, s=8: 8 % 3 == 2, so only exact up to n^o(1)
        ans = ask([clique(8), clique(8)], F(3, 5))
        assert ans.kind == EXACT_UP_TO_O1
        assert ans.exponent == -1 / m2_asym(clique_graph(8), clique_graph(3))
        assert ans.exponent == F(-13, 56)

    def test_band_boundaries(self):
        # d = 2/3 sits in band k=3 where 9 % 3 == 0 is only log-sharp;
        # just above, band k=4 has 9 % 4 == 1 and the answer sharpens
        sparse = ask([clique(9), clique(9)], F(2, 3))
        assert sparse.kind == EXACT_UP_TO_O1
        assert sparse.exponent == -1 / m2_asym(clique_graph(9), clique_graph(3))
        dense = ask([clique(9), clique(9)], F(27, 40))
        assert dense.kind == EXACT
        assert dense.exponent == -1 / m2_asym(clique_graph(9), clique_graph(3))


class TestSmallSecondClique:
    def test_k5_vs_k4_interval(self):
        ans = ask([clique(5), clique(4)], F(2, 5))
        assert ans.kind == INTERVAL
        assert ans.lo == F(-10, 23)
        assert ans.hi == F(-2, 5)
        assert ans.lo <= ans.hi

    def test_k6_vs_k4_interval_with_note(self):
        ans = ask([clique(6), clique(4)], F(1, 2))
        assert ans.kind == INTERVAL
        assert ans.lo == F(-12, 33)
        assert ans.hi == F(-1, 3)
        assert ans.note

    def test_band3_small_clique(self):
        # k=3, s=5: a is least with R(K_{a+1}, K_2) > 3, so a = 3
        ans = ask([clique(6), clique(5)], F(3, 5))
        assert ans.kind == INTERVAL
        assert ans.lo == F(-12, 32)
        assert ans.hi == F(-1, 3)

    def test_k4_k4_dense_band_uncovered(self):
        # the resolved point value covers only the sparse band; in band
        # k=3 the pair has s < k+2 and no clause applies
        ans = ask([clique(4), clique(4)], F(3, 5))
        assert ans.kind == UNKNOWN


CYCLE_TABLE = [
    # (k, length, d, expected kind, expected exponent)
    (4, 4, F(1, 10), ZERO, None),
    (4, 6, F(9, 10), ZERO, None),
    (6, 8, F(1, 2), ZERO, None),
    (3, 4, F(3, 10), EXACT, F(-1)),
    (3, 4, F(1, 2), EXACT, F(-1)),
    (3, 4, F(51, 100), ZERO, None),
    (5, 8, F(1, 4), EXACT, F(-1)),
    (5, 8, F(3, 4), ZERO, None),
    (3, 3, F(1, 3), EXACT, F(-1)),
    (3, 3, F(1, 2), EXACT, F(-1)),
    (3, 3, F(7, 10), EXACT, F(-2)),
    (3, 3, F(4, 5), EXACT, F(-2)),
    (3, 3, F(81, 100), ZERO, None),
    (3, 5, F(2, 5), EXACT, F(-1)),
    (3, 5, F(3, 5), EXACT, F(-2)),
    (3, 5, F(3, 4), EXACT, F(-2)),
    (3, 5, F(19, 25), ZERO, None),
    (5, 5, F(37, 50), EXACT, F(-2)),
    (5, 7, F(7, 9), ZERO, None),
    (7, 9, F(4, 5), ZERO, None),
]


class TestCyclePairTable:
    @pytest.mark.parametrize("k,length,d,kind,exponent", CYCLE_TABLE)
    def test_table(self, k, length, d, kind, exponent):
        ans = ask([cycle(k), cycle(length)], d)
        assert ans.kind == kind
        if exponent is not None:
            assert ans.exponent == exponent

    @pytest.mark.parametrize("k,length,d,kind,exponent", CYCLE_TABLE)
    def test_order_irrelevant(self, k, length, d, kind, exponent):
        ans = ask([cycle(length), cycle(k)], d)
        assert ans.kind == kind
        if exponent is not None:
            assert ans.exponent == exponent


class TestCliqueVsOddCycle:
    @pytest.mark.parametrize("t", (4, 5, 6))
    @pytest.mark.parametrize("length", (5, 7, 9))
    def test_sparse_matches_triangle_case(self, t, length):
        ans = ask([clique(t), cycle(length)], F(1, 2))
        assert ans.kind == EXACT
        assert ans.exponent == F(-2, t - 1)

    def test_reversed_argument_order(self):
        ans = ask([cycle(5), clique(4)], F(1, 4))
        assert ans.kind == EXACT
        assert ans.exponent == F(-2, 3)

    def test_uncovered_variants(self):
        assert ask([clique(4), cycle(6)], F(1, 4)).kind == UNKNOWN
        assert ask([clique(4), cycle(5)], F(3, 5)).kind == UNKNOWN


class TestMulticolorCycles:
    def test_three_color_bands(self):
        pats = [cycle(9)] * 3
        ans = ask(pats, F(1, 2))
        assert ans.kind == EXACT and ans.exponent == F(-7, 8)
        ans = ask(pats, F(7, 10))
        assert ans.kind == INTERVAL
        assert (ans.lo, ans.hi) == (F(-1), F(-7, 8))
        ans = ask(pats, F(4, 5))
        assert ans.kind == EXACT and ans.exponent == F(-2)
        assert ask(pats, F(9, 10)).kind == ZERO

    def test_band_edges_inclusive(self):
        pats = [cycle(9)] * 3
        assert ask(pats, F(1, 2)).exponent == F(-7, 8)
        assert ask(pats, F(3, 4)).kind == INTERVAL
        assert ask(pats, F(7, 8)).exponent == F(-2)

    def test_four_colors(self):
        pats = [cycle(17)] * 4
        ans = ask(pats, F(7, 10))
        assert ans.kind == EXACT and ans.exponent == F(-15, 16)
        assert ask(pats, F(4, 5)).kind == INTERVAL
        assert ask(pats, F(9, 10)).exponent == F(-2)
        assert ask(pats, F(19, 20)).kind == ZERO

    def test_cycle_too_short(self):
        assert ask([cycle(7)] * 3, F(1, 2)).kind == UNKNOWN

    def test_mixed_lengths(self):
        assert ask([cycle(9), cycle(9), cycle(11)], F(1, 2)).kind == UNKNOWN


class TestUncoveredAndErrors:
    def test_paths_unknown(self):
        ans = ask([path(4), path(4)], F(1, 3))
        assert ans.kind == UNKNOWN
        assert ans.provenance

    def test_density_bounds(self):
        with pytest.raises(ValueError):
            ask([clique(4), clique(3)], 0)
        with pytest.raises(ValueError):
            ask([clique(4), clique(3)], 1)

    def test_float_density_rejected(self):
        # Fraction(0.8) lies just above 4/5, in the next band
        with pytest.raises(ValueError, match=r"^seed density 0\.8 is a float.*'4/5'$"):
            ask([cycle(3), cycle(3)], 0.8)

    def test_exact_density_forms_agree(self):
        for d in (F(4, 5), "4/5", "0.8"):
            assert_exact(ask([cycle(3), cycle(3)], d), F(-2))

    def test_single_color_rejected(self):
        with pytest.raises(ValueError):
            ask([clique(4)], F(1, 3))

    def test_never_guesses(self):
        for pats in ([clique(4), path(3)], [cycle(4), clique(5)],
                     [clique(3), clique(3), clique(3)]):
            ans = ask(pats, F(1, 3))
            assert ans.kind == UNKNOWN
            assert ans.exponent is None

    def test_arbitrary_patterns_read_by_shape(self):
        # a 5-cycle and a triangle given as graphs answer as C5 and C3
        shapes = [arbitrary(cycle_graph(5)), arbitrary(clique_graph(3))]
        assert ask(shapes, F(1, 2)) == ask([cycle(5), cycle(3)], F(1, 2))
        # two disjoint triangles are 2-regular but no single cycle
        triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert ask([arbitrary(triangles), cycle(3)], F(1, 2)).kind == UNKNOWN


class TestJsonForm:
    def test_exact(self):
        out = ask([clique(7), clique(5)], F(2, 5)).to_jsonable()
        assert out["kind"] == EXACT
        assert out["exponent"] == "-11/42"
        assert out["provenance"]

    def test_interval(self):
        out = ask([clique(5), clique(4)], F(2, 5)).to_jsonable()
        assert out["lo"] == "-10/23"
        assert out["hi"] == "-2/5"


# the benchmark's oracle grid: clique and cycle pairs at four densities
ORACLE_GRID = [([make(a), make(b)], F(d))
               for make in (clique, cycle)
               for a in range(3, 9) for b in range(3, a + 1)
               for d in ("1/3", "3/5", "5/7", "7/9")]


def clear_memos():
    _quotient_clique_size.cache_clear()


class TestOracleMemos:
    def test_answers_equal_cold_answers(self):
        cold = []
        for pats, d in ORACLE_GRID:
            clear_memos()
            cold.append(threshold_oracle(pats, d).to_jsonable())
        warm = [threshold_oracle(pats, d).to_jsonable() for pats, d in ORACLE_GRID]
        assert warm == cold
        assert len(cold) == 168

    def test_each_ingredient_computed_once_and_exact(self, monkeypatch):
        searched = []

        def searching(k, m, _search=_least_quotient_clique):
            searched.append((k, m))
            return _search(k, m)

        monkeypatch.setattr(thresholds_module, "_least_quotient_clique", searching)
        clear_memos()
        for _ in range(2):
            for pats, d in ORACLE_GRID:
                threshold_oracle(pats, d)
        assert searched and len(searched) == len(set(searched))
        assert _quotient_clique_size.cache_info().currsize == len(searched)
        # the memo holds exact small values, never a witness
        for k, m in searched:
            a = _quotient_clique_size(k, m)
            assert type(a) is int and a == _least_quotient_clique(k, m)[0]

    def test_inconclusive_search_raises_and_is_not_kept(self, monkeypatch):
        class Inconclusive:
            status = coloring_module.INCONCLUSIVE

        clear_memos()
        with monkeypatch.context() as patched:
            patched.setattr(coloring_module, "decide_ramsey", lambda q: Inconclusive())
            with pytest.raises(RuntimeError, match="budget"):
                _quotient_clique_size(4, 3)
        assert _quotient_clique_size.cache_info().currsize == 0
        assert _quotient_clique_size(4, 3) == 2


class TestQuotientCliqueIdentities:
    """R(K_1, K_m) = 1, R(K_2, K_m) = m and R(K_{a+1}, K_2) = a + 1
    settle m <= 1, m > k and m = 2 without a search; the a and the
    coloring are the ones a search from a = 1 would give."""

    @staticmethod
    def _brute(k, m):
        # the first coloring in the search's order, confirmed by a full
        # copy check, which alone sees a blue K_1 in every coloring
        host = clique_graph(k)
        for a in range(1, k + 1):
            targets = [clique(a + 1), clique(m)]
            _, colors = first_avoiding_coloring_brute(ramsey_query(host, targets))
            if colors is not None and _coloring_avoids(
                    host, host.edges(), colors, [[p] for p in targets], [set(), set()]):
                return a, colors
        return k, None

    def test_equals_brute_force(self):
        for k in range(1, 7):
            for m in range(1, k + 3):
                a, witness = _least_quotient_clique(k, m)
                assert (a, None if witness is None else witness.colors) == \
                    self._brute(k, m), (k, m)

    def test_identity_cases_do_not_search(self, monkeypatch):
        def refuse(query):
            raise AssertionError("searched")

        monkeypatch.setattr(coloring_module, "decide_ramsey", refuse)
        for k in range(1, 9):
            edges = k * (k - 1) // 2
            assert _least_quotient_clique(k, 1) == (k, None)
            a, witness = _least_quotient_clique(k, 2)
            assert (a, witness.colors) == (k, (0,) * edges)
            for m in range(k + 1, k + 4):
                a, witness = _least_quotient_clique(k, m)
                assert (a, witness.colors) == (1, (1,) * edges)
        with pytest.raises(AssertionError, match="searched"):
            _least_quotient_clique(4, 3)


class TestSeedBand:
    def test_equals_the_fraction_definition(self):
        for q in range(2, 61):
            for p in range(1, q):
                d = F(p, q)
                k = 2 if d <= F(1, 2) else max(2, math.ceil(1 / (1 - d)))
                assert _seed_band(d) == k, d
                assert k == 2 or 1 - F(1, k - 1) < d <= 1 - F(1, k)


class TestCliqueAsymClosedForm:
    def test_equals_the_subset_maximum(self):
        for t in range(3, 21):
            for q in range(3, t + 1):
                value = _clique_asym(t, q)
                assert type(value) is F
                assert value == m2_asym(clique_graph(t), clique_graph(q))

    @pytest.mark.parametrize("t,q", [(5, 2), (5, 6), (2, 2), (3, 4)])
    def test_outside_its_range_rejected(self, t, q):
        with pytest.raises(ValueError, match="3 <= q <= t"):
            _clique_asym(t, q)

    def test_large_cliques_answered(self):
        for t in [*range(21, 65), 70]:
            for s in range(5, 10):
                q = -(-s // 2)
                ans = ask([clique(t), clique(s)], F(1, 3))
                assert_exact(ans, F(-2 * ((t - 2) * (q + 1) + 2), t * (t - 1) * (q + 1)))
                assert ans.exponent == -1 / _clique_asym(t, q)

    def test_large_worked_examples(self):
        assert_exact(ask([clique(25), clique(7)], F(1, 3)), F(-39, 500))
        assert_exact(ask([clique(70), clique(9)], F(1, 3)), F(-41, 1449))


def _band_ends(kind, value):
    """The exponent range a band's answer states; zero is -infinity."""
    if kind == ZERO:
        return -math.inf, -math.inf
    if kind == INTERVAL:
        return value
    return value, value


class TestBandTables:
    def assert_density_rule(self, bands):
        # a denser seed class is a subclass, so the threshold cannot rise
        # with d: edges strictly increase up to 1, and no band's upper end
        # exceeds an earlier band's lower end
        edges = [edge for edge, _, _, _ in bands]
        assert edges == sorted(set(edges)) and edges[-1] == 1
        ends = [_band_ends(kind, value) for _, kind, value, _ in bands]
        for i, (_, hi) in enumerate(ends):
            assert all(hi <= lo for lo, _ in ends[:i]), bands

    @pytest.mark.parametrize("k", range(3, 16))
    def test_cycle_bands_obey_the_density_rule(self, k):
        for length in range(3, 16):
            self.assert_density_rule(thresholds_module._cycle_bands(k, length))

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_multicolor_bands_obey_the_density_rule(self, r):
        for length in range(3, 80, 2):
            bands = thresholds_module._multicolor_bands(r, length)
            assert (bands is None) == (length <= 1 << r)
            if bands is not None:
                self.assert_density_rule(bands)

    def test_provenance_states_each_band_edge(self):
        for edge, _, _, provenance in thresholds_module._cycle_bands(3, 3)[:-1]:
            assert f"{edge}" in provenance
        bands = thresholds_module._multicolor_bands(3, 9)
        assert [edge for edge, _, _, _ in bands] == [
            F(1, 2), F(3, 4), F(7, 8), 1]

    def test_pair_grid_digest(self):
        # every to_jsonable() field of the ordered pairs from K3-K9 and
        # C4-C9 at the 39 densities i/j <= 5/6 with j <= 12, pinned before
        # the cycle and shared-cycle clauses became band tables
        pats = [clique(t) for t in range(3, 10)] + [cycle(n) for n in range(4, 10)]
        densities = sorted({F(i, j) for j in range(2, 13) for i in range(1, j)
                            if F(i, j) <= F(5, 6)})
        assert len(densities) == 39
        answers = [threshold_oracle([a, b], d).to_jsonable()
                   for a in pats for b in pats for d in densities]
        assert len(answers) == 6591
        assert sum(ans["kind"] == UNKNOWN for ans in answers) == 2458
        text = "".join(json.dumps(ans, sort_keys=True) + "\n" for ans in answers)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "3238f53402186a2f5a29eafb7f2a25a91340f7da13cade47599ab3090e1071f5")
