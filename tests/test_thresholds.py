from fractions import Fraction as F

import pytest

import ramseylab.coloring as coloring_module
import ramseylab.thresholds as thresholds_module
from ramseylab.densities import m2_asym
from ramseylab.graphs import clique, clique_graph, cycle, path
from ramseylab.thresholds import (EXACT, EXACT_UP_TO_O1, INTERVAL, UNKNOWN,
                                  ZERO, _clique_asym, _least_quotient_clique,
                                  _quotient_clique_size, threshold_oracle)


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

    def test_single_color_rejected(self):
        with pytest.raises(ValueError):
            ask([clique(4)], F(1, 3))

    def test_never_guesses(self):
        for pats in ([clique(4), path(3)], [cycle(4), clique(5)],
                     [clique(3), clique(3), clique(3)]):
            ans = ask(pats, F(1, 3))
            assert ans.kind == UNKNOWN
            assert ans.exponent is None


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
    _clique_asym.cache_clear()


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
        searched, densities = [], []

        def searching(k, m, _search=_least_quotient_clique):
            searched.append((k, m))
            return _search(k, m)

        def asym(h1, h2, _asym=m2_asym):
            densities.append((h1.n, h2.n))
            return _asym(h1, h2)

        monkeypatch.setattr(thresholds_module, "_least_quotient_clique", searching)
        monkeypatch.setattr(thresholds_module, "m2_asym", asym)
        clear_memos()
        for _ in range(2):
            for pats, d in ORACLE_GRID:
                threshold_oracle(pats, d)
        assert searched and len(searched) == len(set(searched))
        assert densities and len(densities) == len(set(densities))
        assert _quotient_clique_size.cache_info().currsize == len(searched)
        assert _clique_asym.cache_info().currsize == len(densities)
        # the memos hold exact small values, never a witness
        for k, m in searched:
            a = _quotient_clique_size(k, m)
            assert type(a) is int and a == _least_quotient_clique(k, m)[0]
        for t, q in densities:
            value = _clique_asym(t, q)
            assert type(value) is F
            assert value == m2_asym(clique_graph(t), clique_graph(q))

    def test_inconclusive_search_raises_and_is_not_kept(self, monkeypatch):
        class Inconclusive:
            status = coloring_module.INCONCLUSIVE

        clear_memos()
        with monkeypatch.context() as patched:
            patched.setattr(coloring_module, "decide_ramsey", lambda q: Inconclusive())
            with pytest.raises(RuntimeError, match="budget"):
                _quotient_clique_size(4, 2)
        assert _quotient_clique_size.cache_info().currsize == 0
        assert _quotient_clique_size(4, 2) == 4
