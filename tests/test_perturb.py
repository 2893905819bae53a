import hashlib
import importlib
import itertools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from ramseylab.coloring import (DEFAULT_NODE_BUDGET, INCONCLUSIVE, RAMSEY,
                                decide_ramsey, ramsey_query, targets_ramsey_number)
from ramseylab.graphs import (Graph, arbitrary, clique, clique_graph,
                              complete_multipartite, contains_pattern, cycle,
                              cycle_graph, empty_graph, path, turan_graph)
from ramseylab.graphs import _first_clique
from ramseylab.perturb import (MonteCarloRow, drc_select, edge_variate,
                               log_spaced_grid, monte_carlo_ramsey, perturb,
                               sample_gnp, threshold_scan, wilson_interval)
from ramseylab.perturb import _crossing, _holds_clique

# the package re-exports the function perturb under the module's name
perturb_module = importlib.import_module("ramseylab.perturb")


class TestSampling:
    def test_p_zero_empty(self):
        for trial in range(5):
            assert sample_gnp(12, 0.0, seed=1, trial=trial).edge_count == 0

    def test_p_one_complete(self):
        for trial in range(5):
            assert sample_gnp(9, 1.0, seed=1, trial=trial).is_complete()

    def test_reproducible(self):
        a = sample_gnp(15, 0.4, seed=77, trial=3)
        b = sample_gnp(15, 0.4, seed=77, trial=3)
        assert a.adj == b.adj

    def test_trials_differ(self):
        a = sample_gnp(15, 0.4, seed=77, trial=0)
        b = sample_gnp(15, 0.4, seed=77, trial=1)
        assert a.adj != b.adj

    def test_trials_order_independent(self):
        # trial 5 can be drawn without generating trials 0..4 first
        direct = sample_gnp(10, 0.5, seed=5, trial=5)
        for t in range(5):
            sample_gnp(10, 0.5, seed=5, trial=t)
        again = sample_gnp(10, 0.5, seed=5, trial=5)
        assert direct.adj == again.adj

    def test_common_random_numbers_nest_edges(self):
        # one variate per edge shared across p: raising p only adds edges
        for trial in range(6):
            lo = set(sample_gnp(12, 0.2, seed=9, trial=trial).edges())
            hi = set(sample_gnp(12, 0.6, seed=9, trial=trial).edges())
            assert lo <= hi

    def test_mean_edge_count(self):
        total = 0
        trials = 10 ** 4
        for t in range(trials):
            total += sample_gnp(20, 0.3, seed=42, trial=t).edge_count
        mean = total / trials
        expect = 0.3 * 190
        sigma = math.sqrt(190 * 0.3 * 0.7 / trials)
        assert abs(mean - expect) <= 3 * sigma

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            sample_gnp(5, -0.1, seed=0)
        with pytest.raises(ValueError):
            sample_gnp(5, 1.5, seed=0)


class TestPerturb:
    def test_identity_at_p_zero(self):
        base = turan_graph(9, 3)
        assert perturb(base, 0.0, seed=4).adj == base.adj

    def test_complete_at_p_one(self):
        assert perturb(turan_graph(8, 4), 1.0, seed=4).is_complete()

    def test_union_counts(self):
        base = turan_graph(6, 3)
        matching = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
        merged = base.union(matching)
        assert base.edge_count == 12
        assert merged.edge_count == 15

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            turan_graph(6, 3).union(empty_graph(7))

    @settings(max_examples=100, deadline=None)
    @given(base=st.sampled_from([turan_graph(9, 3), turan_graph(7, 5), cycle_graph(6),
                                 empty_graph(6), clique_graph(5), empty_graph(0)]),
           p=st.floats(min_value=0.0, max_value=1.0),
           seed=st.integers(min_value=0, max_value=2 ** 32),
           trial=st.integers(min_value=0, max_value=50))
    def test_union_with_gnp(self, base, p, seed, trial):
        assert perturb(base, p, seed, trial) == base.union(sample_gnp(base.n, p, seed, trial))

    def test_bad_probability(self):
        with pytest.raises(ValueError, match="probability"):
            perturb(turan_graph(6, 3), 1.5, seed=0)


class TestStream:
    """The packed kernel (_pack, then _draw) against the scalar
    edge_variate, bit for bit, and the graphs drawn with it against
    graphs built from edge_variate one pair at a time."""

    @pytest.mark.parametrize("seed", [0, -1, -8020, 2 ** 64, 2 ** 64 + 8020, 3 ** 50])
    def test_kernel_matches_scalar(self, seed):
        index_lists = ([], [0], [7], [2015, 3, 999, 0, 3, 64], [2 ** 64 - 1],
                       list(range(math.comb(64, 2))))
        for indices in index_lists:
            # one per-base part serves every trial, as in a scan
            packed = perturb_module._pack(indices)
            for trial in range(4):
                expected = [edge_variate(seed, trial, j) for j in indices]
                for xs in (perturb_module._draw(perturb_module._pack(indices), seed, trial),
                           perturb_module._draw(packed, seed, trial)):
                    assert all(isinstance(x, int) and 0 <= x < 2 ** 53 for x in xs)
                    assert [x / 2 ** 53 for x in xs] == expected

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(min_value=0, max_value=14),
           p=st.floats(min_value=0.0, max_value=1.0),
           seed=st.integers(min_value=-2 ** 70, max_value=2 ** 70),
           trial=st.integers(min_value=0, max_value=50))
    def test_graphs_match_scalar_stream(self, n, p, seed, trial):
        pairs = list(itertools.combinations(range(n), 2))
        gnp = Graph.from_edges(n, [e for j, e in enumerate(pairs)
                                   if edge_variate(seed, trial, j) < p])
        assert sample_gnp(n, p, seed, trial) == gnp
        base = turan_graph(n, 3) if n >= 3 else empty_graph(n)
        assert perturb(base, p, seed, trial) == base.union(gnp)

    def test_variate_as_p_is_exact(self):
        # an edge is absent at p equal to its variate, present just above
        n, seed, trial = 12, 8020, 3
        for j, e in enumerate(itertools.combinations(range(n), 2)):
            v = edge_variate(seed, trial, j)
            assert not sample_gnp(n, v, seed, trial).has_edge(*e)
            assert sample_gnp(n, math.nextafter(v, 1), seed, trial).has_edge(*e)


class TestWilson:
    def test_half_is_symmetric(self):
        lo, hi = wilson_interval(5, 10)
        assert lo == pytest.approx(0.2365931095, abs=1e-6)
        assert hi == pytest.approx(0.7634068905, abs=1e-6)
        assert lo + hi == pytest.approx(1.0)

    def test_extremes_clamped(self):
        lo, hi = wilson_interval(0, 20)
        assert lo == 0.0 and 0 < hi < 0.2
        lo, hi = wilson_interval(20, 20)
        assert 0.8 < lo < 1 and hi == 1.0

    def test_all_or_none_end_exactly(self):
        # the rounded formula gave 0.9999999999999999 at n = 10 and a
        # lower end of 1.7e-18 for 0 of 200
        for n in range(1, 401):
            assert wilson_interval(n, n)[1] == 1.0, n
            assert wilson_interval(0, n)[0] == 0.0, n

    def test_empty_batch(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    @pytest.mark.parametrize("successes, total", [(2, -2), (0, -1), (5, 3), (-1, 3), (1, 0)])
    def test_counts_out_of_range_rejected(self, successes, total):
        # (2, -2) gave (4.4997, -0.2414); (5, 3) and (-1, 3) a math domain error
        with pytest.raises(ValueError, match=f"successes={successes}, total={total}"):
            wilson_interval(successes, total)

    def test_contains_point_estimate(self):
        for s, n in ((1, 7), (3, 11), (13, 40), (399, 400)):
            lo, hi = wilson_interval(s, n)
            assert lo <= s / n <= hi
            assert 0.0 <= lo <= hi <= 1.0

    def test_narrows_with_samples(self):
        lo1, hi1 = wilson_interval(5, 10)
        lo2, hi2 = wilson_interval(50, 100)
        assert hi2 - lo2 < hi1 - lo1


class TestGrid:
    def test_two_decades(self):
        grid = log_spaced_grid(0.002, 0.2, per_decade=13)
        assert len(grid) == 27
        assert grid[0] == pytest.approx(0.002)
        assert grid[-1] == pytest.approx(0.2)
        assert grid == sorted(grid)

    def test_log_uniform_spacing(self):
        grid = log_spaced_grid(0.01, 1.0, per_decade=5)
        ratios = [b / a for a, b in zip(grid, grid[1:])]
        for r in ratios:
            assert r == pytest.approx(ratios[0], rel=1e-9)

    def test_errors(self):
        with pytest.raises(ValueError):
            log_spaced_grid(0.0, 0.1)
        with pytest.raises(ValueError):
            log_spaced_grid(0.2, 0.1)
        with pytest.raises(ValueError):
            log_spaced_grid(0.1, 1.5)

    @pytest.mark.parametrize("per_decade", [0, -3])
    def test_per_decade_below_one_rejected(self, per_decade):
        with pytest.raises(ValueError, match="per_decade"):
            log_spaced_grid(0.1, 0.5, per_decade)

    def test_one_per_decade_still_spans(self):
        assert log_spaced_grid(0.01, 1.0, 1) == [0.01, 0.1, 1.0]

    @pytest.mark.parametrize("per_decade, count", [
        (10 ** 6, 301031), (10 ** 12, 301029995665), (10 ** 400, None),
    ])
    def test_oversized_grid_refused_before_it_is_built(self, per_decade, count):
        # 3e11 floats, or more than a float can count, would run out of
        # memory: the count is refused before the list exists
        with pytest.raises(ValueError, match=r"a grid of \d+ points is more than "
                                             r"the limit of 10000") as info:
            log_spaced_grid(0.1, 0.2, per_decade)
        if count is not None:
            assert f"a grid of {count} points" in str(info.value)

    def test_grid_at_the_limit_built(self):
        assert len(log_spaced_grid(0.1, 1.0, 9999)) == 10000
        with pytest.raises(ValueError, match="a grid of 10001 points"):
            log_spaced_grid(0.1, 1.0, 10000)


class TestCrossing:
    def test_interpolates_in_log_p(self):
        got = _crossing([(0.01, 0.0), (0.1, 1.0)])
        assert got == pytest.approx(math.sqrt(0.01 * 0.1))

    def test_first_point_already_above(self):
        assert _crossing([(0.05, 0.9), (0.5, 1.0)]) == 0.05

    def test_skips_missing_rates(self):
        got = _crossing([(0.01, 0.0), (0.03, None), (0.1, 1.0)])
        assert got == pytest.approx(math.sqrt(0.01 * 0.1))

    def test_no_crossing(self):
        assert _crossing([(0.01, 0.0), (0.1, 0.4)]) is None

    def test_bracket_from_zero_is_linear_in_p(self):
        assert _crossing([(0.0, 0.0), (0.2, 1.0)]) == pytest.approx(0.1)
        assert _crossing([(0.0, 0.75), (0.2, 1.0)]) == 0.0


class TestMonteCarlo:
    def test_k5_free_base_never_ramsey_at_p_zero(self):
        row = monte_carlo_ramsey(turan_graph(10, 5), [cycle(3), cycle(3)],
                                 p=0.0, trials=8, seed=3)
        assert row.successes == 0
        assert row.inconclusive == 0
        assert row.rate == 0.0

    def test_k6_base_always_ramsey(self):
        for p in (0.0, 0.5):
            row = monte_carlo_ramsey(clique_graph(6), [cycle(3), cycle(3)],
                                     p=p, trials=6, seed=3)
            assert row.rate == 1.0

    def test_dense_perturbation_always_ramsey(self):
        row = monte_carlo_ramsey(turan_graph(12, 4), [cycle(3), cycle(5)],
                                 p=1.0, trials=3, seed=3)
        assert row.rate == 1.0

    def test_budget_exhaustion_reported_not_counted(self):
        row = monte_carlo_ramsey(turan_graph(10, 5), [cycle(3), cycle(3)],
                                 p=0.3, trials=5, seed=3, node_budget=1,
                                 clique_shortcut=False)
        assert row.inconclusive == 5
        assert row.successes == 0
        assert row.effective == 0
        assert row.rate is None

    def test_wilson_attached(self):
        row = monte_carlo_ramsey(turan_graph(10, 5), [cycle(3), cycle(3)],
                                 p=0.0, trials=8, seed=3)
        assert (row.wilson_lo, row.wilson_hi) == wilson_interval(0, 8)

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="trial count"):
            monte_carlo_ramsey(turan_graph(6, 3), [cycle(3), cycle(3)],
                               p=0.1, trials=-1, seed=3)


class TestThresholdScan:
    def test_single_size_scan(self):
        result = threshold_scan([turan_graph(10, 5)], [cycle(3), cycle(3)],
                                p_grid=[0.005, 0.3, 0.95], trials=10, seed=2)
        assert [row.p for row in result.rows] == [0.005, 0.3, 0.95]
        bottom, _, top = result.rows
        assert bottom.rate == 0.0
        assert top.rate == 1.0
        assert result.crossings[10] is not None
        assert result.exponent is None
        for row in result.rows:
            assert row.successes + row.inconclusive <= row.trials
            assert 0.0 <= row.wilson_lo <= row.wilson_hi <= 1.0

    def test_two_sizes_give_exponent(self):
        result = threshold_scan([turan_graph(8, 4), turan_graph(12, 4)],
                                [cycle(3), cycle(3)],
                                p_grid=[0.01, 0.3, 0.95], trials=8, seed=2)
        assert set(result.crossings) == {8, 12}
        assert result.exponent is not None

    def test_rows_sorted_by_size_then_p(self):
        result = threshold_scan([turan_graph(12, 4), turan_graph(8, 4)],
                                [cycle(3), cycle(3)],
                                p_grid=[0.3, 0.01], trials=4, seed=2)
        keys = [(row.n, row.p) for row in result.rows]
        assert keys == sorted(keys)

    def test_all_inconclusive_flagged(self):
        result = threshold_scan([turan_graph(10, 5)], [cycle(3), cycle(3)],
                                p_grid=[0.2], trials=3, seed=2,
                                node_budget=1, clique_shortcut=False)
        assert any("inconclusive" in flag for flag in result.flags)
        assert result.crossings[10] is None

    def test_size_ramsey_at_p_zero_gives_no_exponent(self):
        # K_{2,2,2} is Ramsey for (P3, K3): a red matching of three edges
        # meets at most six of its eight triangles
        result = threshold_scan([turan_graph(6, 3), cycle_graph(5)],
                                [path(3), clique(3)], p_grid=[0.0, 0.5, 1.0],
                                trials=4, seed=2)
        assert result.crossings[6] == 0.0
        assert result.crossings[5] > 0
        assert result.exponent is None

    def test_csv_round_trip(self):
        result = threshold_scan([turan_graph(10, 5)], [cycle(3), cycle(3)],
                                p_grid=[0.005, 0.95], trials=5, seed=2)
        text = result.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "n,p,trials,successes,wilson_lo,wilson_hi,inconclusive"
        assert len(lines) == 1 + len(result.rows)
        for line, row in zip(lines[1:], result.rows):
            fields = line.split(",")
            assert int(fields[0]) == row.n
            assert float(fields[1]) == row.p
            assert float(fields[4]) == row.wilson_lo

    def test_deterministic(self):
        args = ([turan_graph(8, 4)], [cycle(3), cycle(3)], [0.05, 0.5], 6, 11)
        assert threshold_scan(*args).to_csv() == threshold_scan(*args).to_csv()

    def test_empty_grid_no_rows(self):
        for bases in ([turan_graph(6, 3)], [turan_graph(12, 6)], []):
            result = threshold_scan(bases, [cycle(3), cycle(3)], [], 3, 1)
            assert result.rows == []
            assert result.exponent is None

    def test_negative_trials_rejected(self):
        for targets in ([cycle(3), cycle(3)], [path(1), cycle(3)]):
            with pytest.raises(ValueError, match="trial count"):
                threshold_scan([turan_graph(6, 3)], targets, [0.1], -1, 3)

    def test_negative_budget_rejected_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("variates drawn")

        monkeypatch.setattr(perturb_module, "_pack", no_draw)
        monkeypatch.setattr(perturb_module, "_draw", no_draw)
        for targets in ([cycle(3), cycle(3)], [path(1), cycle(3)]):
            with pytest.raises(ValueError, match="^node budget must be nonnegative, got -1$"):
                threshold_scan([turan_graph(6, 3)], targets, [0.1], 2, 3, node_budget=-1)

    def test_zero_budget_rows(self):
        result = threshold_scan([turan_graph(6, 3)], [cycle(3), cycle(3)], [0.5], 2, 3,
                                node_budget=0)
        assert len(result.rows) == 1

    def test_zero_trials_rows(self):
        result = threshold_scan([turan_graph(6, 3)], [cycle(3), cycle(3)],
                                [0.1, 0.5], 0, 3)
        assert result.to_csv().strip().split("\n")[1:] == [
            "6,0.1,0,0,0.0,1.0,0", "6,0.5,0,0,0.0,1.0,0"]
        assert result.crossings == {6: None}
        assert len(result.flags) == 2


def reference_row(base, targets, p, trials, seed, node_budget, clique_shortcut):
    """One row decided the plain way: every trial's host built by
    perturb and decided on its own, with no cache.  The clique shortcut
    counts a host Ramsey when it holds a K_R, R the targets' Ramsey
    number under the same budgets."""
    number = None
    if clique_shortcut:
        number = targets_ramsey_number(targets, cap=min(base.n, 12),
                                       node_budget=node_budget)
    successes = inconclusive = 0
    for t in range(trials):
        host = perturb(base, p, seed, t)
        if number is not None and contains_pattern(host, clique(number)):
            status = RAMSEY
        else:
            status = decide_ramsey(ramsey_query(host, targets,
                                                node_budget=node_budget)).status
        inconclusive += status == INCONCLUSIVE
        successes += status == RAMSEY
    lo, hi = wilson_interval(successes, trials - inconclusive)
    return MonteCarloRow(base.n, p, trials, successes, inconclusive, lo, hi)


# in Turan(7,5) one arrival makes a K6, so scans carry shortcut verdicts
# mid-grid; without its edge (0,2), two of its missing pairs close a K6
# and (0,2) does not, so the carry follows a walk of the other pair
TURAN_7_5_CUT = turan_graph(7, 5).subgraph_with_edges(
    e for e in turan_graph(7, 5).edges() if e != (0, 2))
BASES = [turan_graph(6, 3), complete_multipartite([2, 3]), empty_graph(5),
         cycle_graph(6), complete_multipartite([1, 2, 3]), turan_graph(7, 5),
         TURAN_7_5_CUT]
TARGETS = [[cycle(3), cycle(3)], [clique(3), cycle(4)], [path(3), clique(3)]]


class TestTrialMajorScan:
    """threshold_scan and monte_carlo_ramsey against reference_row."""

    @settings(max_examples=100, deadline=None)
    @given(bases=st.lists(st.sampled_from(BASES), min_size=1, max_size=2),
           targets=st.sampled_from(TARGETS),
           grid=st.lists(st.one_of(st.sampled_from([0.0, 0.1, 0.3, 1.0]),
                                   st.floats(min_value=0.0, max_value=1.0)),
                         min_size=1, max_size=5),
           trials=st.integers(min_value=1, max_value=6),
           seed=st.integers(min_value=0, max_value=2 ** 32),
           node_budget=st.sampled_from([1, 8, 60, DEFAULT_NODE_BUDGET]),
           clique_shortcut=st.booleans())
    @example(bases=[turan_graph(6, 3), complete_multipartite([2, 3])],
             targets=[cycle(3), cycle(3)], grid=[1.0, 0.3, 0.0, 0.3],
             trials=4, seed=7, node_budget=20, clique_shortcut=False)
    def test_rows_match_per_trial_decisions(self, bases, targets, grid, trials,
                                            seed, node_budget, clique_shortcut):
        per_base = [[reference_row(base, targets, p, trials, seed, node_budget,
                                   clique_shortcut) for p in sorted(grid)]
                    for base in bases]
        result = threshold_scan(bases, targets, grid, trials, seed,
                                node_budget=node_budget,
                                clique_shortcut=clique_shortcut)
        assert result.rows == sorted((row for rows in per_base for row in rows),
                                     key=lambda row: (row.n, row.p))
        # crossings are keyed by size: a later base of the same size wins
        assert result.crossings == {
            base.n: _crossing([(row.p, row.rate) for row in rows])
            for base, rows in zip(bases, per_base)}
        by_p = {row.p: row for row in per_base[0]}
        for p in grid:
            assert monte_carlo_ramsey(bases[0], targets, p, trials, seed,
                                      node_budget=node_budget,
                                      clique_shortcut=clique_shortcut) == by_p[p]

    @pytest.mark.parametrize("node_budget", [1, 8, 60, 500, DEFAULT_NODE_BUDGET])
    @pytest.mark.parametrize("bases", [[turan_graph(9, 3)],
                                       [turan_graph(6, 3), complete_multipartite([2, 3])],
                                       [turan_graph(7, 5)], [TURAN_7_5_CUT]])
    def test_rows_match_reference_at_budgets(self, bases, node_budget):
        # a cache-less scan against per-trial decisions, budgets from one
        # node up: the hosts' statuses are inconclusive, decided or both;
        # on the Turan(7,5) bases, every or some missing pair closes a K6
        targets = [cycle(3), cycle(5)] if bases[0].n == 9 else [cycle(3), cycle(3)]
        grid, trials, seed = [0.05, 0.1, 0.2, 0.3, 0.5], 12, 8020
        result = threshold_scan(bases, targets, grid, trials, seed,
                                node_budget=node_budget, cache="none")
        assert result.rows == [reference_row(base, targets, p, trials, seed, node_budget, True)
                               for base in sorted(bases, key=lambda g: g.n) for p in grid]
        if node_budget == 1:
            assert any(row.inconclusive for row in result.rows)

    def test_inconclusive_rows_occur(self):
        # guards the example above: a small node budget gives a mix of
        # decided and inconclusive trials within one row
        result = threshold_scan([turan_graph(6, 3), complete_multipartite([2, 3])],
                                [cycle(3), cycle(3)], [1.0, 0.3, 0.0, 0.3], 4, 7,
                                node_budget=20, clique_shortcut=False)
        assert any(0 < row.inconclusive < row.trials for row in result.rows)

    def test_partial_closing_base(self):
        # guards BASES' cut Turan(7,5): R(C3,C3) = 6, and (0,1) and (2,3)
        # each complete a K6 with the base's edges alone, (0,2) does not
        base = TURAN_7_5_CUT
        assert targets_ramsey_number([cycle(3), cycle(3)], cap=7) == 6
        assert not contains_pattern(base, clique(6))
        closing = {(u, v): _first_clique(base.adj, base.adj[u] & base.adj[v], 4) is not None
                   for u, v in itertools.combinations(range(7), 2) if not base.has_edge(u, v)}
        assert closing == {(0, 1): True, (0, 2): False, (2, 3): True}

    def test_acceptance_scan_bytes(self):
        # Turan(15,5) and Turan(20,5) against (C3,C3), 27-point grid,
        # 400 trials, seed 8020: the bytes the benchmark records as reference
        result = threshold_scan([turan_graph(15, 5), turan_graph(20, 5)],
                                [[cycle(3)], [cycle(3)]],
                                log_spaced_grid(0.002, 0.2, 13), 400, 8020)
        digest = hashlib.sha256(result.to_csv().encode()).hexdigest()
        assert digest == ("feefb431d10c2a2efd2b96b0ee3ddb50"
                          "cd786f2c0cbe7ee7f648a093cec84f0a")

    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
    def test_bad_grid_point_raises(self, bad):
        base, targets = turan_graph(6, 3), [cycle(3), cycle(3)]
        with pytest.raises(ValueError, match="probability"):
            threshold_scan([base], targets, [0.2, bad], 3, 1)
        with pytest.raises(ValueError, match="probability"):
            monte_carlo_ramsey(base, targets, bad, 3, 1)


def traced_scan(monkeypatch, base, targets, grid, trials, seed, **kw):
    """threshold_scan on one base, recording (trial, variate count) for
    each call of the per-trial kernel _draw and (trial, host, verdict)
    for each host the walk decides, through whatever decide function
    threshold_scan builds from the scan's cache and order, the trial of
    a host being the first whose hosts include it."""
    draws, decided = [], []
    draw, scan_base = perturb_module._draw, perturb_module._scan_base

    def counted_draw(packed, seed_, trial):
        xs = draw(packed, seed_, trial)
        draws.append((trial, len(xs)))
        return xs

    def recorded_scan_base(*args):
        *rest, decide = args

        def recorded_decide(query):
            verdict = decide(query)
            decided.append((query.host, verdict))
            return verdict

        return scan_base(*rest, recorded_decide)

    monkeypatch.setattr(perturb_module, "_draw", counted_draw)
    monkeypatch.setattr(perturb_module, "_scan_base", recorded_scan_base)
    result = threshold_scan([base], targets, grid, trials, seed, **kw)
    monkeypatch.undo()
    first_trial = {}
    for t in reversed(range(trials)):
        for p in grid:
            first_trial[perturb(base, p, seed, t).adj] = t
    return result, draws, [(first_trial[host.adj], host, verdict)
                           for host, verdict in decided]


def first_seen_hosts(base, targets, grid, trials, seed):
    """The hosts a scan with the clique shortcut decides, in the order
    it meets them, by brute force: each trial's hosts perturb(base, p,
    seed, t) over ascending p, up to the first that holds a K_R, R the
    targets' Ramsey number, each host listed where it first stands."""
    number = targets_ramsey_number(targets, cap=min(base.n, 12))
    seen, order = set(), []
    for t in range(trials):
        for p in sorted(grid):
            host = perturb(base, p, seed, t)
            if contains_pattern(host, clique(number)):
                break
            if host.adj not in seen:
                seen.add(host.adj)
                order.append(host.adj)
    return order


class TestScanWork:
    """What a scan draws and decides: variates for the base's missing
    pairs only, no decision for a host that holds the shortcut's K_R or
    after it in its trial, and nothing at all for an edgeless target."""

    GRID = [0.0, 0.05, 0.1, 0.2, 0.4, 0.8]

    def test_draws_only_missing_pairs(self, monkeypatch):
        base = turan_graph(10, 5)  # five parts of two: five missing pairs
        _, draws, _ = traced_scan(monkeypatch, base, [cycle(3), cycle(3)],
                                  self.GRID, 30, 3)
        assert draws == [(t, 5) for t in range(30)]

    def test_no_decision_after_shortcut(self, monkeypatch):
        base, targets, trials, seed = turan_graph(10, 5), [cycle(3), cycle(3)], 30, 3
        result, _, decided = traced_scan(monkeypatch, base, targets, self.GRID,
                                         trials, seed)
        hosts = [[perturb(base, p, seed, t) for p in self.GRID] for t in range(trials)]
        # first grid index where the trial's host holds a K6, R(C3,C3) = 6
        first = []
        for t in range(trials):
            holds = [contains_pattern(h, clique(6)) for h in hosts[t]]
            first.append(holds.index(True) if True in holds else len(self.GRID))
        assert any(0 < i < len(self.GRID) - 1 for i in first)
        assert decided
        for t, host, verdict in decided:
            assert hosts[t].index(host) < first[t]
            assert verdict.stats.route == "search"
        assert [row.successes for row in result.rows] == [
            sum(i <= j for i in first) for j in range(len(self.GRID))]

    def test_no_decision_after_edgeless(self, monkeypatch):
        # with the shortcut or without, under either cache, and on a base
        # that holds no K_2
        targets = [arbitrary(empty_graph(2)), cycle(3)]
        for base, grid, shortcut, cache in itertools.product(
                [turan_graph(10, 5), empty_graph(10)], ([0.3, 0.6, 0.9], [0.0, 0.6]),
                [True, False], ["none", "monotone"]):
            result, draws, decided = traced_scan(monkeypatch, base, targets, grid, 20, 5,
                                                 clique_shortcut=shortcut, cache=cache)
            assert all(row.successes == 20 for row in result.rows)
            assert draws == decided == []

    def test_no_draw_when_base_holds_k_r(self, monkeypatch):
        # Turan(12,6) holds a K6 and R(C3,C3) = 6: every host is Ramsey
        base, targets = turan_graph(12, 6), [cycle(3), cycle(3)]
        result, draws, decided = traced_scan(monkeypatch, base, targets,
                                             self.GRID, 20, 5)
        assert all(row.successes == 20 for row in result.rows)
        assert result.rows == [reference_row(base, targets, p, 20, 5, DEFAULT_NODE_BUDGET,
                                             True) for p in self.GRID]
        assert draws == decided == []

    def test_each_host_decided_once(self, monkeypatch):
        # the node budget is the only limit on a search, so an
        # inconclusive verdict is cached like a completed one
        base, targets, grid = turan_graph(9, 3), [cycle(3), cycle(5)], [0.1, 0.2, 0.3, 0.4, 0.5]
        result, _, decided = traced_scan(monkeypatch, base, targets, grid, 10, 8020,
                                         node_budget=200)
        hosts = [host for _, host, _ in decided]
        assert len(hosts) == len(set(hosts)) == 30
        assert any(verdict.status == INCONCLUSIVE for _, _, verdict in decided)
        assert result.rows == [reference_row(base, targets, p, 10, 8020, 200, True)
                               for p in grid]

    def test_ramsey_number_once_per_base(self, monkeypatch):
        calls = []
        lookup = perturb_module.targets_ramsey_number

        def counted_lookup(targets, **kwargs):
            calls.append(kwargs["cap"])
            return lookup(targets, **kwargs)

        monkeypatch.setattr(perturb_module, "targets_ramsey_number", counted_lookup)
        bases = [turan_graph(10, 5), turan_graph(7, 5)]
        threshold_scan(bases, [cycle(3), cycle(3)], self.GRID, 10, 3)
        assert calls == [10, 7]
        monte_carlo_ramsey(bases[0], [cycle(3), cycle(3)], 0.2, 10, 3)
        assert calls == [10, 7, 10]
        calls.clear()
        # both bases have cap 12, so one search serves both
        threshold_scan([turan_graph(15, 5), turan_graph(20, 5)], [cycle(3), cycle(3)],
                       self.GRID, 10, 3)
        assert calls == [12]
        calls.clear()
        threshold_scan(bases, [cycle(3), cycle(3)], self.GRID, 10, 3,
                       clique_shortcut=False)
        threshold_scan(bases, [arbitrary(empty_graph(2)), cycle(3)], self.GRID, 10, 3)
        assert calls == []

    def test_closing_pairs_tested_once_per_base(self, monkeypatch):
        # every missing pair of Turan(15,5) completes a K6, R(C3,C3) = 6,
        # so each is tested once, before the first trial, and no trial
        # tests an arrival; the base's own K6 test is its 5-colouring
        base, targets = turan_graph(15, 5), [cycle(3), cycle(3)]
        grid = log_spaced_grid(0.002, 0.2, 13)
        spy = perturb_module._first_clique
        counts = []
        for trials in (10, 400):
            calls = []

            def counted(adj, cand, need):
                calls.append(need)
                return spy(adj, cand, need)

            monkeypatch.setattr(perturb_module, "_first_clique", counted)
            threshold_scan([base], targets, grid, trials, 8020)
            monkeypatch.undo()
            counts.append(len(calls))
            assert calls == [4] * 15  # one per missing pair, K4 in their common neighbourhood
        assert counts[0] == counts[1]
        # the trial's hosts below its first closing pair are the base:
        # the base is the one host decided
        result, _, decided = traced_scan(monkeypatch, base, targets, grid, 40, 8020)
        assert [(t, host) for t, host, _ in decided] == [(0, base)]
        assert result.rows == [reference_row(base, targets, p, 40, 8020, DEFAULT_NODE_BUDGET,
                                             True) for p in grid]

    def test_search_verdict_not_carried(self, monkeypatch):
        # a later, larger host could exhaust a budget, so it is decided again
        _, _, decided = traced_scan(monkeypatch, turan_graph(10, 5),
                                    [cycle(3), cycle(3)], self.GRID, 30, 3,
                                    clique_shortcut=False)
        ramsey_trials = set()
        again = False
        for t, _, verdict in decided:
            again = again or t in ramsey_trials
            if verdict.status == RAMSEY:
                assert verdict.stats.route == "search"
                ramsey_trials.add(t)
        assert again


class TestScanWalk:
    """The walk counts the base's runs per end point and tallies them
    after the trials, yet decides the base where it first meets it: the
    rows and the order of decided hosts are those of a brute-force walk
    under either cache and either order, with one _draw call a trial."""

    SCANS = {
        # every missing pair closes a K6, R(C3,C3) = 6: no pair is walked
        "all-close": (turan_graph(10, 5), [0.0, 0.05, 0.1, 0.2, 0.4, 0.8], 30, 3),
        # no pair closes a K6; trial 0's first pair arrives below the
        # first grid point, so the base first stands in trial 1
        "base-later": (turan_graph(8, 3), [0.2, 0.4, 0.6, 0.8], 12, 6),
        # two pairs close a K6 and (0, 2) is walked
        "mixed": (TURAN_7_5_CUT, [0.0, 0.05, 0.1, 0.2, 0.4, 0.8], 40, 8020),
    }

    @pytest.mark.parametrize("order", ["canonical", "degree"])
    @pytest.mark.parametrize("cache", ["none", "monotone"])
    @pytest.mark.parametrize("scan", list(SCANS))
    def test_walk_matches_brute_force(self, monkeypatch, scan, cache, order):
        base, grid, trials, seed = self.SCANS[scan]
        targets = [cycle(3), cycle(3)]
        result, draws, decided = traced_scan(monkeypatch, base, targets, grid, trials,
                                             seed, cache=cache, order=order)
        missing = math.comb(base.n, 2) - base.edge_count
        assert draws == [(t, missing) for t in range(trials)]
        assert result.rows == [reference_row(base, targets, p, trials, seed,
                                             DEFAULT_NODE_BUDGET, True) for p in grid]
        assert [host.adj for _, host, _ in decided] == first_seen_hosts(
            base, targets, grid, trials, seed)
        first = {host.adj: t for t, host, _ in decided}
        if scan == "all-close":
            assert [host.adj for _, host, _ in decided] == [base.adj]
        if scan == "base-later":
            assert decided[0][1].adj != base.adj
            assert first[base.adj] == 1
        if scan == "mixed":
            walked = [t for t, host, _ in decided if host.adj != base.adj]
            assert first[base.adj] == 0 and walked
            assert any(0 < row.successes < trials for row in result.rows)


class TestHoldsClique:
    """The base's K_R test: a greedy colouring, then _first_clique."""

    def test_matches_first_clique(self):
        graphs = [empty_graph(0), empty_graph(1), empty_graph(14), clique_graph(7),
                  turan_graph(14, 5)]
        graphs += [sample_gnp(n, p, seed) for n in range(15) for p in (0.2, 0.5, 0.8, 0.95)
                   for seed in range(3)]
        for g in graphs:
            for k in range(8):
                expected = _first_clique(g.adj, (1 << g.n) - 1, k) is not None
                assert _holds_clique(g.n, g.adj, k) == expected, (g, k)
                if k:
                    assert expected == contains_pattern(g, clique(k))

    def test_colouring_proves_absence(self, monkeypatch):
        # a complete 5-partite base colours greedily in 5, so no K6
        # search runs; a K6 needs one
        def no_search(*args):
            raise AssertionError("searched")

        monkeypatch.setattr(perturb_module, "_first_clique", no_search)
        assert not _holds_clique(20, turan_graph(20, 5).adj, 6)
        with pytest.raises(AssertionError, match="searched"):
            _holds_clique(6, clique_graph(6).adj, 6)


class TestDrcSelect:
    def test_complete_bipartite_keeps_everything(self):
        g = complete_multipartite([4, 4])
        parts = [[0, 1, 2, 3], [4, 5, 6, 7]]
        report = drc_select(g, parts, ell=2, t=2, gamma_target=0.9, seed=1)
        assert report.verified
        assert report.selected == [4, 5, 6, 7]
        assert report.removed == []

    def test_empty_graph_empty_selection(self):
        report = drc_select(empty_graph(8), [[0, 1, 2, 3], [4, 5, 6, 7]],
                            ell=2, t=1, gamma_target=0.5, seed=1)
        assert report.verified
        assert report.selected == []

    @pytest.mark.parametrize("parts, bad", [
        ([[0, 9], [2, 3]], 9),    # a sampled phantom vertex matched no edge
        ([[0, 1], [2, 9]], 9),    # the last part's row lookup ran off the end
        ([[0, -1], [2, 3]], -1),  # its part bitset shifted by a negative count
    ])
    def test_non_vertex_in_a_part_rejected(self, parts, bad):
        with pytest.raises(ValueError, match=f"^vertex {bad} out of range for n=4$"):
            drc_select(clique_graph(4), parts, ell=1, t=1, gamma_target=0.5, seed=1)

    def test_dense_random_bipartite_verifies(self):
        from ramseylab.perturb import edge_variate
        n = 32
        edges = []
        for j, (u, v) in enumerate(((u, v) for u in range(16)
                                    for v in range(16, 32))):
            if edge_variate(100, 0, j) < 0.7:
                edges.append((u, v))
        g = Graph.from_edges(n, edges)
        parts = [list(range(16)), list(range(16, 32))]
        report = drc_select(g, parts, ell=2, t=2, gamma_target=0.3, seed=5)
        assert report.verified
        assert set(report.selected) <= set(parts[1])
        assert report.selected

    def test_certificate_holds_by_direct_recount(self):
        from ramseylab.perturb import edge_variate
        edges = []
        for j, (u, v) in enumerate(((u, v) for u in range(8)
                                    for v in range(8, 20))):
            if edge_variate(7, 0, j) < 0.5:
                edges.append((u, v))
        g = Graph.from_edges(20, edges)
        parts = [list(range(8)), list(range(8, 20))]
        gamma = 0.25
        report = drc_select(g, parts, ell=2, t=2, gamma_target=gamma, seed=3)
        assert report.verified
        import itertools
        for pair in itertools.combinations(report.selected, 2):
            common = [u for u in range(8)
                      if all(g.has_edge(u, w) for w in pair)]
            assert len(common) >= gamma * 8

    def test_unconnected_vertex_never_kept(self):
        # vertex 19 has no left neighbors, so it cannot survive the
        # common-neighbor filter whatever gets sampled
        edges = [(u, v) for u in range(8) for v in range(8, 19)]
        g = Graph.from_edges(20, edges)
        parts = [list(range(8)), list(range(8, 20))]
        report = drc_select(g, parts, ell=2, t=1, gamma_target=0.5, seed=2)
        assert report.verified
        assert 19 not in report.selected
        assert report.selected == list(range(8, 19))

    def test_bad_pairs_force_removals(self):
        # vertex 19 survives the filter via its one left neighbor, but
        # every pair containing it has a singleton common neighborhood;
        # one vertex per bad pair is removed until the rest verifies
        edges = [(u, v) for u in range(8) for v in range(8, 19)]
        edges.append((0, 19))
        g = Graph.from_edges(20, edges)
        parts = [list(range(8)), list(range(8, 20))]
        report = drc_select(g, parts, ell=2, t=1, gamma_target=0.5, seed=2)
        assert report.verified
        assert report.removed
        import itertools
        for pair in itertools.combinations(report.selected, 2):
            common = [u for u in range(8)
                      if all(g.has_edge(u, w) for w in pair)]
            assert len(common) >= 0.5 * 8

    def test_cap_exceeded_is_error_not_guess(self):
        g = complete_multipartite([4, 40])
        parts = [list(range(4)), list(range(4, 44))]
        report = drc_select(g, parts, ell=3, t=1, gamma_target=0.5, seed=1,
                            subset_cap=100)
        assert not report.verified
        assert "cap" in report.error
        assert report.selected == []

    def test_deterministic(self):
        g = complete_multipartite([5, 7])
        parts = [list(range(5)), list(range(5, 12))]
        a = drc_select(g, parts, ell=2, t=2, gamma_target=0.5, seed=9)
        b = drc_select(g, parts, ell=2, t=2, gamma_target=0.5, seed=9)
        assert (a.selected, a.removed, a.samples) == (b.selected, b.removed, b.samples)

    def test_input_validation(self):
        g = complete_multipartite([3, 3])
        with pytest.raises(ValueError):
            drc_select(g, [[0, 1, 2]], ell=2, t=1, gamma_target=0.5, seed=0)
        with pytest.raises(ValueError):
            drc_select(g, [[0, 1], [1, 2]], ell=2, t=1, gamma_target=0.5, seed=0)
        with pytest.raises(ValueError):
            drc_select(g, [[0, 1], []], ell=2, t=1, gamma_target=0.5, seed=0)
        with pytest.raises(ValueError):
            drc_select(g, [[0, 1], [2, 3]], ell=0, t=1, gamma_target=0.5, seed=0)

    def test_negative_sample_count_rejected(self):
        # t = -3 sampled nothing and reported verified
        g = complete_multipartite([3, 3])
        with pytest.raises(ValueError, match="-3"):
            drc_select(g, [[0, 1, 2], [3, 4, 5]], ell=2, t=-3, gamma_target=0.5, seed=0)
