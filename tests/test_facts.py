import hashlib
import json

from ramseylab.coloring import INCONCLUSIVE, targets_ramsey_number
from ramseylab.facts import (REFUTED, VERIFIED, default_fact_suite,
                             path_ramsey_readings, verify_bipartite_split,
                             verify_list_cycle_lemma, verify_matched_gadget,
                             verify_matched_gadget_general,
                             verify_odd_cycle_unavoidable, verify_small_ramsey)
from ramseylab.graphs import clique, cycle


class TestSmallRamseyNumber:
    """The Ramsey-number search the facts rest on."""

    def test_triangle_pair(self):
        assert targets_ramsey_number([[cycle(3)], [cycle(3)]]) == 6

    def test_list_targets(self):
        assert targets_ramsey_number([[cycle(3)], [cycle(3), cycle(5)]]) == 5

    def test_out_of_range_returns_none(self):
        assert targets_ramsey_number([[clique(3)], [clique(3)]], cap=5) is None

    def test_budget_exhaustion_returns_none(self):
        assert targets_ramsey_number([[clique(3)], [clique(3)]], cap=12,
                                     node_budget=1) is None


class TestIndividualFacts:
    def test_list_cycle_lemma(self):
        report = verify_list_cycle_lemma()
        assert report.status == VERIFIED
        assert report.certificate["k4_status"] == "not_ramsey"
        assert report.certificate["k5_status"] == "ramsey"
        assert report.certificate["k4_witness_valid"] is True

    def test_odd_cycle_base_case(self):
        report = verify_odd_cycle_unavoidable(1)
        assert report.status == VERIFIED
        assert report.certificate == {"k3_has_odd_cycle": True,
                                      "k2_bipartite": True}

    def test_odd_cycle_two_colors(self):
        report = verify_odd_cycle_unavoidable(2)
        assert report.status == VERIFIED
        assert report.certificate["forced_status"] == "ramsey"
        assert report.certificate["tight_status"] == "not_ramsey"
        assert report.certificate["tight_witness_bipartite_classes"] is True

    def test_odd_cycle_budget_runs_out(self):
        report = verify_odd_cycle_unavoidable(2, node_budget=1)
        assert report.status == INCONCLUSIVE

    def test_small_ramsey_verified(self):
        report = verify_small_ramsey(cycle(3), cycle(5), expected=9)
        assert report.status == VERIFIED
        assert report.certificate["value"] == 9

    def test_small_ramsey_without_expectation(self):
        report = verify_small_ramsey(cycle(3), cycle(4), n_hi=9)
        assert report.status == VERIFIED
        assert report.certificate["value"] == 7

    def test_small_ramsey_wrong_expectation_refuted(self):
        report = verify_small_ramsey(cycle(3), cycle(3), expected=7)
        assert report.status == REFUTED
        assert report.certificate["value"] == 6
        assert report.certificate["expected"] == 7

    def test_small_ramsey_cap_too_low_inconclusive(self):
        report = verify_small_ramsey(clique(3), clique(4), n_hi=8)
        assert report.status == INCONCLUSIVE
        assert report.certificate["value"] is None

    def test_path_readings_assert_nothing(self):
        report = path_ramsey_readings(4, 4)
        assert report.status == VERIFIED
        assert "vertex_count_reading" in report.exploration
        assert "edge_count_reading" in report.exploration
        # the two conventions genuinely differ here
        assert (report.exploration["vertex_count_reading"]
                != report.exploration["edge_count_reading"])
        assert "no convention is asserted" in report.certificate["note"]

    def test_matched_gadget_m1(self):
        report = verify_matched_gadget(1)
        assert report.status == VERIFIED
        assert report.certificate["edge_count"] == 10
        assert report.certificate["edge_count_expected"] == 10
        assert report.certificate["partition_density_bound"] == "1/2"
        assert report.certificate["partition_pieces"] == 3
        # m=1 collapses to K5; the cycle query is explored, not claimed
        assert report.exploration["ramsey_c3_c5_at_m1"] == "not_ramsey"

    def test_matched_gadget_m2(self):
        report = verify_matched_gadget(2)
        assert report.status == VERIFIED
        assert report.certificate["edge_count"] == 36

    def test_matched_gadget_general(self):
        report = verify_matched_gadget_general(2, 3)
        assert report.status == VERIFIED
        assert report.certificate["parts"] == 9
        assert report.certificate["partition_pieces"] == 5

    def test_matched_gadget_general_r2_matches_base(self):
        report = verify_matched_gadget_general(3, 2)
        assert report.status == VERIFIED
        assert report.certificate["equals_five_part_gadget"] is True

    def test_bipartite_split(self):
        report = verify_bipartite_split(2)
        assert report.status == VERIFIED
        assert sum(report.certificate["class_edge_counts"]) \
            == report.certificate["total_edges"]

    def test_bipartite_split_custom_size(self):
        report = verify_bipartite_split(3, n=16)
        assert report.status == VERIFIED
        assert len(report.certificate["class_edge_counts"]) == 3


class TestSuite:
    def test_suite_reports_digest(self):
        # the suite's reports without runtimes, as `ramseylab facts` prints
        # them with every runtime key dropped
        reports = [{k: v for k, v in r.to_jsonable().items() if k != "runtime"}
                   for r in default_fact_suite()]
        text = json.dumps(reports, indent=2) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "556f4ccdc1ebd59b330f03ee90142629316498f60e14d761aa4c168fc903438e")

    def test_default_suite_all_verified(self):
        suite = default_fact_suite()
        assert len(suite) == 10
        assert all(r.status == VERIFIED for r in suite)
        # small_ramsey and bipartite_split each appear twice
        assert len({r.fact_id for r in suite}) == len(suite) - 2

    def test_reports_serializable(self):
        import json
        for report in default_fact_suite():
            out = report.to_jsonable()
            json.dumps(out)
            assert set(out) == {"fact_id", "statement", "status",
                                "certificate", "exploration", "runtime"}
            assert out["runtime"] >= 0

    def test_harness_registers_and_times_each_fact(self, monkeypatch):
        import ramseylab.facts as facts

        assert sorted(facts._FACTS) == [
            "bipartite_split", "list_cycle_lemma", "matched_gadget",
            "matched_gadget_general", "odd_cycle_unavoidable", "path_readings",
            "small_ramsey"]
        assert facts._FACTS["odd_cycle_unavoidable"] is verify_odd_cycle_unavoidable
        # r = 1 returns early and reads no clock itself
        ticks = iter([10.0, 12.5])
        monkeypatch.setattr(facts.time, "monotonic", lambda: next(ticks))
        assert verify_odd_cycle_unavoidable(1).runtime == 2.5

    def test_exploration_never_decides_status(self):
        # a gadget whose explored Ramsey check is negative still verifies
        report = verify_matched_gadget(1)
        assert report.exploration["ramsey_c3_c5_at_m1"] == "not_ramsey"
        assert report.status == VERIFIED
