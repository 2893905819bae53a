import json

import pytest

from ramseylab import graph6
from ramseylab.cli import ERROR, OK, UNDECIDED, main
from ramseylab.densities import _frac, m2_asym
from ramseylab.graphs import clique_graph, turan_graph

K3 = graph6.encode(clique_graph(3))
K5 = graph6.encode(clique_graph(5))
K6 = graph6.encode(clique_graph(6))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code in (OK, UNDECIDED), err
    return code, json.loads(out)


class TestDensityCommand:
    def test_m2(self, capsys):
        code, payload = run_json(capsys, ["density", "--m2", K5])
        assert code == OK
        assert payload["value"] == "3/1"

    def test_m2_asym(self, capsys):
        _, payload = run_json(capsys, ["density", "--m2-asym", K5, K3])
        assert payload["value"] == "20/7"

    def test_m2_of_family(self, capsys):
        code, payload = run_json(capsys, ["density", "--m2", "turan:6,3"])
        assert code == OK
        assert payload == {"op": "m2", "graph": "turan:6,3", "value": "11/4"}
        _, coded = run_json(capsys, ["density", "--m2", graph6.encode(turan_graph(6, 3))])
        assert coded["value"] == payload["value"]

    def test_m2_asym_of_families(self, capsys):
        code, payload = run_json(capsys, ["density", "--m2-asym", "clique:5", "clique:3"])
        assert code == OK
        assert payload == {"op": "m2_asym", "graphs": ["clique:5", "clique:3"],
                           "value": "20/7"}
        _, mixed = run_json(capsys, ["density", "--m2-asym", "turan:6,3", K3])
        assert mixed["graphs"] == ["turan:6,3", K3]
        assert mixed["value"] == _frac(m2_asym(turan_graph(6, 3), clique_graph(3)))

    def test_d2(self, capsys):
        _, payload = run_json(capsys, ["density", "--d2", K5])
        assert payload["value"] == "3/1"

    def test_rho(self, capsys):
        _, payload = run_json(capsys, ["density", "--rho", K6])
        assert payload["value"] == "5/2"

    def test_rho_k(self, capsys):
        _, payload = run_json(capsys, ["density", "--rho-k", K6, "3"])
        assert payload["value"] == "1/2"
        assert sorted(len(part) for part in payload["partition"]) == [2, 2, 2]

    def test_mu(self, capsys):
        _, payload = run_json(capsys, ["density", "--mu", K3, "100", "1/10"])
        assert payload["mu0"] == "1000/1"
        assert payload["mu1"] == "1000/1"

    def test_mu_beyond_enumeration_cap_is_error(self, capsys):
        big = graph6.encode(turan_graph(21, 3))
        code, out, err = run(capsys, ["density", "--mu", big, "100", "1/10"])
        assert code == ERROR
        assert "limited" in err

    def test_bad_graph6_is_error(self, capsys):
        code, out, err = run(capsys, ["density", "--m2", "!!"])
        assert code == ERROR
        assert "error:" in err

    @pytest.mark.parametrize("argv, err_line", [
        (["--rho-k", "D~{", "x"], "error: --rho-k K needs an integer, got 'x'"),
        (["--mu", "D~{", "x", "1/2"], "error: --mu N needs an integer, got 'x'"),
        (["--mu", "D~{", "5", "x"],
         "error: --mu P needs an exact rational such as 2/5, got 'x'"),
    ], ids=["rho-k-K", "mu-N", "mu-P"])
    def test_non_numeric_argument_names_its_option(self, capsys, argv, err_line):
        code, out, err = run(capsys, ["density"] + argv)
        assert code == ERROR
        assert err == err_line + "\n" and out == ""

    def test_oversized_family_is_one_error_line(self, capsys):
        code, out, err = run(capsys, ["density", "--m2", f"clique:{2 ** 70}"])
        assert code == ERROR
        assert err == f"error: vertex count {2 ** 70} outside 0..64\n" and out == ""

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "m2.json"
        code, out, _ = run(capsys, ["density", "--m2", K5,
                                    "--out", str(target)])
        assert code == OK
        assert out == ""
        assert json.loads(target.read_text())["value"] == "3/1"


class TestThresholdCommand:
    def test_covered_pair(self, capsys):
        code, payload = run_json(
            capsys, ["threshold", "--patterns", "K7,K5", "--density", "2/5"])
        assert code == OK
        assert payload["kind"] == "exact"
        assert payload["exponent"] == "-11/42"
        assert payload["density"] == "2/5"

    def test_interval_pair(self, capsys):
        code, payload = run_json(
            capsys, ["threshold", "--patterns", "K5,K4", "--density", "2/5"])
        assert code == OK
        assert payload["kind"] == "interval"
        assert payload["lo"] == "-10/23"
        assert payload["hi"] == "-2/5"

    def test_uncovered_exits_undecided(self, capsys):
        code, payload = run_json(
            capsys, ["threshold", "--patterns", "P4,P4", "--density", "1/3"])
        assert code == UNDECIDED
        assert payload["kind"] == "unknown"

    def test_alternatives_rejected(self, capsys):
        code, out, err = run(
            capsys, ["threshold", "--patterns", "K3+C5,K3", "--density", "1/3"])
        assert code == ERROR

    def test_zero_denominator_is_error(self, capsys):
        code, out, err = run(
            capsys, ["threshold", "--patterns", "K3,K3", "--density", "1/0"])
        assert code == ERROR
        assert err.startswith("error:") and "zero denominator" in err

    def test_non_numeric_density_names_its_option(self, capsys):
        code, out, err = run(
            capsys, ["threshold", "--patterns", "K3,K3", "--density", "x"])
        assert code == ERROR
        assert err == "error: --density needs an exact rational such as 2/5, got 'x'\n"


class TestRamseyCheckCommand:
    def test_ramsey_host(self, capsys):
        code, payload = run_json(
            capsys, ["ramsey-check", "--host", K6, "--red", "C3",
                     "--blue", "C3"])
        assert code == OK
        assert payload["status"] == "ramsey"
        assert "witness" not in payload

    def test_not_ramsey_witness_checked(self, capsys):
        code, payload = run_json(
            capsys, ["ramsey-check", "--host", K5, "--red", "C3",
                     "--blue", "C3"])
        assert code == OK
        assert payload["status"] == "not_ramsey"
        assert payload["witness_violations"] == 0

    def test_negative_budget_is_error(self, capsys):
        code, out, err = run(
            capsys, ["ramsey-check", "--host", "clique:5", "--red", "C3",
                     "--blue", "C3", "--budget-nodes", "-1"])
        assert code == ERROR
        assert out == ""
        assert err == "error: node budget must be nonnegative, got -1\n"

    def test_family_host_and_targets_form(self, capsys):
        code, payload = run_json(
            capsys, ["ramsey-check", "--host", "turan:10,5",
                     "--targets", "C3,C3"])
        assert payload["status"] == "not_ramsey"

    def test_list_targets(self, capsys):
        code, payload = run_json(
            capsys, ["ramsey-check", "--host", K5,
                     "--targets", "C3,C3+C5"])
        assert payload["status"] == "ramsey"

    def test_budget_exhaustion_exits_undecided(self, capsys):
        code, payload = run_json(
            capsys, ["ramsey-check", "--host", K6, "--red", "C3",
                     "--blue", "C3", "--budget-nodes", "1"])
        assert code == UNDECIDED
        assert payload["status"] == "inconclusive"

    def test_cnf_export(self, capsys, tmp_path):
        cnf = tmp_path / "k6.cnf"
        code, payload = run_json(
            capsys, ["ramsey-check", "--host", K6, "--red", "C3",
                     "--blue", "C3", "--cnf", str(cnf)])
        assert code == OK
        text = cnf.read_text()
        assert "p cnf 15 40" in text

    def test_forbidden_file(self, capsys, tmp_path):
        forbid = tmp_path / "forbid.json"
        triples = [[a, b, c] for a in range(6) for b in range(a + 1, 6)
                   for c in range(b + 1, 6)]
        forbid.write_text(json.dumps([triples, triples]))
        code, payload = run_json(
            capsys, ["ramsey-check", "--host", K6, "--red", "C3",
                     "--blue", "C3", "--forbid", str(forbid)])
        assert payload["status"] == "not_ramsey"

    def test_malformed_forbidden_file_is_error(self, capsys, tmp_path):
        forbid = tmp_path / "forbid.json"
        forbid.write_text(json.dumps([[[0, 1]], 5]))
        code, out, err = run(
            capsys, ["ramsey-check", "--host", K6, "--red", "C3",
                     "--blue", "C3", "--forbid", str(forbid)])
        assert code == ERROR
        assert err.startswith("error: forbidden entry for color 1")

    def test_missing_targets_is_error(self, capsys):
        code, out, err = run(capsys, ["ramsey-check", "--host", K6,
                                      "--red", "C3"])
        assert code == ERROR
        assert "need --red and --blue, or --targets" in err

    def test_comma_in_one_color_is_error(self, capsys):
        code, out, err = run(capsys, ["ramsey-check", "--host", K6,
                                      "--red", "C3,C5", "--blue", "C3"])
        assert code == ERROR
        assert "--targets" in err

    def test_family_argument_count_is_error(self, capsys):
        code, out, err = run(capsys, ["ramsey-check", "--host", "turan:12",
                                      "--red", "K3", "--blue", "K3"])
        assert code == ERROR
        assert err.startswith("error:")
        assert "'turan' takes 2 arguments" in err


class TestConstructCommand:
    def test_bip_decomp(self, capsys):
        code, payload = run_json(
            capsys, ["construct", "--name", "bip-decomp",
                     "--family", "turan:8,4", "--i", "2"])
        assert code == OK
        assert payload["verified"] is True
        assert sum(payload["checks"]["class_edges"]) \
            == payload["checks"]["total_edges"]
        for code6 in payload["classes"]:
            assert not graph6.decode(code6).has_odd_cycle()

    def test_multicycle(self, capsys):
        code, payload = run_json(
            capsys, ["construct", "--name", "multicycle", "--n", "12",
                     "--r", "3", "--band", "1"])
        assert code == OK
        assert payload["checks"]["odd_cycle_free"] == [True, True]

    def test_lift(self, capsys):
        k4 = graph6.encode(clique_graph(4))
        code, payload = run_json(
            capsys, ["construct", "--name", "lift", "--k", "4",
                     "--family", f"blowup:{k4},3",
                     "--avoid", "C3+C5+C7,C3+C5+C7"])
        assert code == OK
        assert payload["verified"] is True
        assert payload["checks"]["lifted_vertices"] == 12

    def test_turan_blue(self, capsys):
        code, payload = run_json(
            capsys, ["construct", "--name", "turan-blue", "--n", "12",
                     "--k", "2", "--t", "5", "--ell", "3",
                     "--p", "0.2", "--seed", "4"])
        assert code == OK
        assert payload["checks"]["avoids_blue_clique"] == 5

    def test_k4_lower(self, capsys):
        code, payload = run_json(
            capsys, ["construct", "--name", "k4-lower", "--n", "16",
                     "--k", "4", "--s", "6", "--t", "6", "--p", "0.0"])
        assert code == OK
        assert payload["checks"]["a_size"] == 8

    @pytest.mark.parametrize("name", ["lift", "bip-decomp"])
    def test_missing_family_is_error(self, capsys, name):
        code, out, err = run(capsys, ["construct", "--name", name])
        assert code == ERROR
        assert err.startswith(f"error: --name {name} needs --family")

    def test_k4_lower_without_s_is_error(self, capsys):
        code, out, err = run(capsys, ["construct", "--name", "k4-lower"])
        assert code == ERROR
        assert err == "error: --name k4-lower needs --s\n"
        assert "Traceback" not in out + err

    def test_failed_construction_is_error(self, capsys):
        # K6 has no (C3,C3)-avoiding coloring, so no base is available
        k6 = graph6.encode(clique_graph(6))
        code, out, err = run(
            capsys, ["construct", "--name", "lift", "--k", "6",
                     "--family", f"blowup:{k6},2", "--avoid", "C3,C3"])
        assert code == ERROR
        assert "error" in err

    def test_failed_inner_coloring_names_part_and_verdict(self, capsys):
        # each part is a complete K6, which forces a monochromatic triangle
        code, out, err = run(
            capsys, ["construct", "--name", "turan-blue", "--n", "12",
                     "--k", "2", "--t", "3", "--ell", "3", "--p", "1.0"])
        assert code == ERROR
        assert "part 0 admits no coloring avoiding K3,K3 (ramsey)" in err

    @pytest.mark.parametrize("p", ["-0.5", "1.5"])
    def test_turan_blue_probability_out_of_range_is_error(self, capsys, p):
        code, out, err = run(
            capsys, ["construct", "--name", "turan-blue", "--n", "12", "--k", "2",
                     "--t", "5", "--ell", "3", "--p", p])
        assert code == ERROR
        assert err == "error: edge probability must lie in [0, 1]\n"
        assert out == ""

    @pytest.mark.parametrize("colors", [["--r", "0"], ["--r", "-2", "--band", "2"]])
    def test_multicycle_without_color_class_is_error(self, capsys, colors):
        code, out, err = run(capsys, ["construct", "--name", "multicycle", *colors])
        assert code == ERROR
        assert err == "error: need at least one color class\n"


class TestScanAndReplay:
    def scan(self, capsys, tmp_path, seed="7"):
        out = tmp_path / "scan.csv"
        code, stdout, err = run(
            capsys, ["scan", "--base", "turan:8,4", "--red", "C3",
                     "--blue", "C3", "--p-grid", "0.05,0.6", "--trials", "4",
                     "--seed", seed, "--out", str(out)])
        assert code == OK, err
        return json.loads(stdout)

    def test_scan_writes_csv_and_manifest(self, capsys, tmp_path):
        summary = self.scan(capsys, tmp_path)
        text = open(summary["out"]).read()
        assert text.startswith("n,p,trials,successes,")
        manifest = json.loads(open(summary["manifest"]).read())
        assert manifest["seed"] == 7
        assert summary["sizes"] == [8]

    def test_missing_targets_is_error(self, capsys, tmp_path):
        code, out, err = run(
            capsys, ["scan", "--base", "turan:8,4", "--p-grid", "0.05,0.6",
                     "--trials", "4", "--out", str(tmp_path / "scan.csv")])
        assert code == ERROR
        assert "need --red and --blue, or --targets" in err
        assert not (tmp_path / "scan.csv").exists()

    def test_negative_trials_is_error(self, capsys, tmp_path):
        code, out, err = run(
            capsys, ["scan", "--base", "turan:6,3", "--targets", "C3,C3",
                     "--p-grid", "0.1", "--trials", "-1",
                     "--out", str(tmp_path / "scan.csv")])
        assert code == ERROR
        assert "error: trial count must be nonnegative" in err
        assert not (tmp_path / "scan.csv").exists()

    def test_negative_budget_is_error(self, capsys, tmp_path):
        code, out, err = run(
            capsys, ["scan", "--base", "turan:6,3", "--targets", "C3,C3",
                     "--p-grid", "0.1", "--trials", "2", "--budget-nodes", "-1",
                     "--out", str(tmp_path / "scan.csv")])
        assert code == ERROR
        assert err == "error: node budget must be nonnegative, got -1\n"
        assert not list(tmp_path.iterdir())

    def test_zero_per_decade_is_error(self, capsys, tmp_path):
        code, out, err = run(
            capsys, ["scan", "--base", "turan:6,3", "--targets", "C3,C3",
                     "--p-grid", "0.1:0.5:0", "--trials", "2",
                     "--out", str(tmp_path / "scan.csv")])
        assert code == ERROR
        assert "error: need per_decade >= 1, got 0" in err
        assert not (tmp_path / "scan.csv").exists()

    def test_oversized_grid_is_error(self, capsys, tmp_path):
        code, out, err = run(
            capsys, ["scan", "--base", "turan:6,3", "--targets", "C3,C3",
                     "--p-grid", "0.1:0.2:1000000000000", "--trials", "2",
                     "--out", str(tmp_path / "scan.csv")])
        assert code == ERROR
        assert err == ("error: a grid of 301029995665 points is more than "
                       "the limit of 10000\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("grid, err_line", [
        ("0.1:x", "error: --p-grid HI needs a number, got 'x'"),
        ("0.1:0.5:y", "error: --p-grid PER_DECADE needs an integer, got 'y'"),
        ("0.1:0.5:2:junk", "error: --p-grid takes lo:hi[:per_decade], got '0.1:0.5:2:junk'"),
    ], ids=["HI", "PER_DECADE", "EXTRA"])
    def test_non_numeric_grid_names_its_option(self, capsys, tmp_path, grid, err_line):
        code, out, err = run(
            capsys, ["scan", "--base", "turan:6,3", "--targets", "C3,C3",
                     "--p-grid", grid, "--trials", "2",
                     "--out", str(tmp_path / "scan.csv")])
        assert code == ERROR
        assert err == err_line + "\n"
        assert not list(tmp_path.iterdir())

    def test_seed_drawn_when_missing(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        code, stdout, err = run(
            capsys, ["scan", "--base", "turan:8,4", "--targets", "C3,C3",
                     "--p-grid", "0.5", "--trials", "2", "--out", str(out)])
        assert code == OK
        summary = json.loads(stdout)
        assert isinstance(summary["seed"], int)
        manifest = json.loads(open(summary["manifest"]).read())
        assert manifest["seed"] == summary["seed"]

    def test_replay_identical(self, capsys, tmp_path):
        summary = self.scan(capsys, tmp_path)
        code, payload = run_json(capsys, ["replay", summary["manifest"]])
        assert code == OK
        assert payload["identical"] is True

    def test_replay_without_out_is_error(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"op": "facts", "seed": 1}))
        code, out, err = run(capsys, ["replay", str(path)])
        assert code == ERROR
        assert err.startswith("error: replay needs 'out'")

    def test_replay_of_malformed_scan_is_error(self, capsys, tmp_path):
        (tmp_path / "results.csv").write_text("")
        path = tmp_path / "results.csv.manifest.json"
        path.write_text(json.dumps({
            "op": "scan", "seed": 1, "out": "results.csv",
            "args": {"bases": [5], "targets": "C3,C3", "trials": 2,
                     "p_grid": [0.1, 0.5]}}))
        code, out, err = run(capsys, ["replay", str(path)])
        assert code == ERROR
        assert err == "error: 'bases' entries must be family strings or objects, got 5\n"
        assert "Traceback" not in out + err

    def test_replay_of_non_integer_base_argument_is_error(self, capsys, tmp_path):
        (tmp_path / "results.csv").write_text("")
        path = tmp_path / "results.csv.manifest.json"
        path.write_text(json.dumps({
            "op": "scan", "seed": 1, "out": "results.csv",
            "args": {"bases": [{"family": "turan", "args": [12.7, 4]}],
                     "targets": "C3,C3", "trials": 2, "p_grid": [0.1, 0.5]}}))
        code, out, err = run(capsys, ["replay", str(path)])
        assert code == ERROR
        assert err == "error: family 'turan' argument n must be an integer, got 12.7\n"
        assert "Traceback" not in out + err

    def test_scan_non_integer_base_argument_is_error(self, capsys, tmp_path):
        code, out, err = run(capsys, [
            "scan", "--base", "turan:12,x", "--targets", "C3,C3", "--p-grid", "0.5",
            "--trials", "2", "--seed", "1", "--out", str(tmp_path / "s.csv")])
        assert code == ERROR
        assert err == "error: family 'turan' argument k must be an integer, got 'x'\n"
        assert not list(tmp_path.iterdir())

    def test_only_a_node_budget(self, capsys, tmp_path):
        # searches are limited by nodes alone; a wall-time bound is
        # `timeout` around the command
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--base", "turan:8,4", "--targets", "C3,C3",
                  "--p-grid", "0.5", "--trials", "2", "--budget-secs", "5"])
        assert exc.value.code == ERROR
        summary = self.scan(capsys, tmp_path)
        args = json.loads(open(summary["manifest"]).read())["args"]
        assert args["node_budget"] == 10 ** 8
        assert "time_budget" not in args

    def test_replay_after_relative_out(self, capsys, tmp_path, monkeypatch):
        # scan and replay run from one directory, the result in a subdirectory
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        code, stdout, err = run(
            capsys, ["scan", "--base", "turan:8,4", "--targets", "C3,C3",
                     "--p-grid", "0.05,0.6", "--trials", "4", "--seed", "7",
                     "--out", "sub/s.csv"])
        assert code == OK, err
        code, payload = run_json(capsys, ["replay", "sub/s.csv.manifest.json"])
        assert code == OK
        assert payload["identical"] is True
        assert payload["out"] == str(tmp_path / "sub" / "s.csv")

    def test_replay_detects_tampering(self, capsys, tmp_path):
        summary = self.scan(capsys, tmp_path)
        with open(summary["out"], "a") as fh:
            fh.write("junk\n")
        code, out, err = run(capsys, ["replay", summary["manifest"]])
        assert code == ERROR
        assert json.loads(out)["identical"] is False

    def test_grid_spec_form(self, capsys, tmp_path):
        out = tmp_path / "g.csv"
        code, stdout, err = run(
            capsys, ["scan", "--base", "turan:8,4", "--targets", "C3,C3",
                     "--p-grid", "0.05:0.5:3", "--trials", "2", "--seed", "1",
                     "--out", str(out)])
        assert code == OK
        manifest = json.loads(open(json.loads(stdout)["manifest"]).read())
        assert len(manifest["args"]["p_grid"]) == 4


class TestFactsCommand:
    def test_full_suite(self, capsys):
        code, payload = run_json(capsys, ["facts"])
        assert code == OK
        assert len(payload) == 10
        assert all(r["status"] == "verified" for r in payload)

    def test_only_one_fact(self, capsys):
        code, payload = run_json(capsys, ["facts", "--only", "bipartite_split",
                                          "--fact-args", '{"i": 2}'])
        assert code == OK
        assert payload["fact_id"] == "bipartite_split"

    def test_refuted_fact_is_error(self, capsys):
        code, out, err = run(
            capsys, ["facts", "--only", "small_ramsey", "--fact-args",
                     '{"first": "C3", "second": "C3", "expected": 7}'])
        assert code == ERROR
        assert json.loads(out)["status"] == "refuted"

    def test_inconclusive_fact_exits_undecided(self, capsys):
        code, out, err = run(
            capsys, ["facts", "--only", "small_ramsey", "--fact-args",
                     '{"first": "K3", "second": "K4", "n_hi": 8}'])
        assert code == UNDECIDED

    def test_unknown_fact_argument_is_error(self, capsys):
        code, out, err = run(capsys, ["facts", "--only", "small_ramsey",
                                      "--fact-args", '{"bogus": 1}'])
        assert code == ERROR
        assert "'bogus'" in err
        assert "first, second, expected, n_hi" in err

    def test_fact_args_not_an_object_is_error(self, capsys):
        code, out, err = run(capsys, ["facts", "--only", "bipartite_split",
                                      "--fact-args", "[1]"])
        assert code == ERROR
        assert err.startswith("error:") and "JSON object" in err

    def test_fact_argument_type_is_error(self, capsys):
        code, out, err = run(capsys, ["facts", "--only", "bipartite_split",
                                      "--fact-args", '{"i": "x"}'])
        assert code == ERROR
        assert err.startswith("error:") and "'i' must be int" in err

    @pytest.mark.parametrize("name, key", [("odd_cycle_unavoidable", "r"),
                                           ("bipartite_split", "i")])
    def test_nonpositive_exponent_argument_named(self, capsys, name, key):
        code, out, err = run(capsys, ["facts", "--only", name,
                                      "--fact-args", f'{{"{key}": -1}}'])
        assert code == ERROR
        assert err == f"error: {key} must be at least 1, got -1\n"

    def test_oversized_split_is_one_error_line(self, capsys):
        code, out, err = run(capsys, ["facts", "--only", "bipartite_split",
                                      "--fact-args", '{"i": 70}'])
        assert code == ERROR
        assert err == f"error: vertex count {3 * 2 ** 70} outside 0..64\n" and out == ""

    def test_fact_args_without_only_is_error(self, capsys):
        code, out, err = run(capsys, ["facts", "--fact-args", '{"r": 3}'])
        assert code == ERROR
        assert err == "error: --fact-args needs --only\n"
        assert out == ""

    def test_csv_format(self, capsys, tmp_path):
        target = tmp_path / "facts.csv"
        code, out, err = run(capsys, ["facts", "--format", "csv",
                                      "--out", str(target)])
        assert code == OK
        lines = target.read_text().strip().split("\n")
        assert lines[0].startswith("fact_id,")
        assert len(lines) == 11


    def test_csv_format_of_one_fact(self, capsys):
        code, out, err = run(capsys, ["facts", "--only", "list_cycle_lemma",
                                      "--format", "csv"])
        assert code == OK
        lines = out.strip().split("\n")
        assert lines[0].startswith("fact_id,") and len(lines) == 2
        assert lines[1].startswith("list_cycle_lemma,")


class TestParserBasics:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_usage_error_is_an_error_not_inconclusive(self, capsys):
        # argparse's own exit status 2 would read as an inconclusive search
        with pytest.raises(SystemExit) as exc:
            main(["ramsey-check", "--host", "clique:6", "--red", "C3",
                  "--blue", "C3", "--budget-secs", "3"])
        assert exc.value.code == ERROR
        assert "unrecognized arguments: --budget-secs 3" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--help"])
        assert exc.value.code == OK

    def test_format_only_on_facts(self, capsys):
        # only the facts suite prints rows; elsewhere csv was a silent no-op
        with pytest.raises(SystemExit) as exc:
            main(["ramsey-check", "--host", "clique:4", "--red", "K3",
                  "--blue", "K3", "--format", "csv"])
        assert exc.value.code == ERROR
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err

    def test_unknown_family_is_error(self, capsys):
        code, out, err = run(capsys, ["ramsey-check", "--host", "mystery:3",
                                      "--targets", "C3,C3"])
        assert code == ERROR
