import json
import os

import pytest

from ramseylab import graph6
from ramseylab.experiments import (PACKAGE_VERSION, ManifestError,
                                   load_manifest, parse_pattern,
                                   parse_targets, replay, run_experiment)
from ramseylab.graphs import cycle_graph


class TestPatternParsing:
    def test_compact_forms(self):
        assert parse_pattern("K5").describe() == "K5"
        assert parse_pattern("c7").describe() == "C7"
        assert parse_pattern("P4").describe() == "P4"

    def test_graph6_form(self):
        code = graph6.encode(cycle_graph(5))
        pat = parse_pattern(f"g6:{code}")
        assert pat.to_graph().edge_count == 5
        assert parse_pattern(f"graph6:{code}").to_graph().n == 5

    def test_rejects_garbage(self):
        for bad in ("", "K", "Q5", "K5x", "5K"):
            with pytest.raises(ManifestError):
                parse_pattern(bad)

    def test_targets_with_alternatives(self):
        targets = parse_targets("K3,K3+C5")
        assert [len(side) for side in targets] == [1, 2]
        assert targets[1][1].describe() == "C5"

    def test_targets_need_two_colors(self):
        with pytest.raises(ManifestError):
            parse_targets("K3")


class TestRunExperiment:
    def test_fact_run_writes_result_and_manifest(self, tmp_path):
        manifest = {"op": "fact", "name": "small_ramsey",
                    "args": {"first": "C3", "second": "C5", "expected": 9},
                    "out": "fact.json"}
        result = run_experiment(manifest, base_dir=str(tmp_path))
        report = json.loads(open(result["out"]).read())
        assert report["status"] == "verified"
        assert report["certificate"]["value"] == 9
        stored = json.loads(open(result["manifest"]).read())
        assert stored["version"] == PACKAGE_VERSION
        assert 0 <= stored["seed"] < 2 ** 63
        assert result["manifest"] == result["out"] + ".manifest.json"

    def test_seed_preserved_when_given(self, tmp_path):
        manifest = {"op": "fact", "name": "bipartite_split",
                    "args": {"i": 2}, "seed": 424242, "out": "r.json"}
        result = run_experiment(manifest, base_dir=str(tmp_path))
        assert result["resolved"]["seed"] == 424242

    def test_default_out_names(self, tmp_path):
        result = run_experiment({"op": "facts"}, base_dir=str(tmp_path))
        assert os.path.basename(result["out"]) == "results.json"

    def test_scan_resolves_grid(self, tmp_path):
        manifest = {"op": "scan", "seed": 5, "out": "scan.csv",
                    "args": {"bases": ["turan:8,4"], "targets": "C3,C3",
                             "p_grid": {"lo": 0.05, "hi": 0.5,
                                        "per_decade": 3},
                             "trials": 3}}
        result = run_experiment(manifest, base_dir=str(tmp_path))
        stored = json.loads(open(result["manifest"]).read())
        grid = stored["args"]["p_grid"]
        assert isinstance(grid, list)
        assert all(isinstance(p, float) for p in grid)
        assert grid[0] == pytest.approx(0.05)
        assert grid[-1] == pytest.approx(0.5)
        text = open(result["out"]).read()
        assert text.startswith("n,p,trials,successes,wilson_lo,wilson_hi,inconclusive\n")
        assert len(text.strip().split("\n")) == 1 + len(grid)

    def test_unknown_op(self, tmp_path):
        with pytest.raises(ManifestError):
            run_experiment({"op": "mystery"}, base_dir=str(tmp_path))

    def test_unknown_fact_name(self, tmp_path):
        with pytest.raises(ManifestError, match="known"):
            run_experiment({"op": "fact", "name": "nope"},
                           base_dir=str(tmp_path))

    def test_fact_arguments_checked(self, tmp_path):
        with pytest.raises(ManifestError, match="accepts i, n"):
            run_experiment({"op": "fact", "name": "bipartite_split",
                            "args": {"i": 2, "bogus": 1}}, base_dir=str(tmp_path))
        with pytest.raises(ManifestError, match="missing"):
            run_experiment({"op": "fact", "name": "bipartite_split"},
                           base_dir=str(tmp_path))
        with pytest.raises(ManifestError, match="argument 'time_budget'"):
            run_experiment({"op": "fact", "name": "odd_cycle_unavoidable",
                            "args": {"r": 2, "time_budget": 5}}, base_dir=str(tmp_path))
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("name, args, message", [
        ("bipartite_split", {"i": "x"}, "'i' must be int"),
        ("bipartite_split", {"i": True}, "'i' must be int"),
        ("bipartite_split", {"i": 2, "n": 2.5}, "'n' must be int or null"),
        ("odd_cycle_unavoidable", {"r": 1, "node_budget": "x"},
         "'node_budget' must be int"),
        ("small_ramsey", {"first": "K3", "second": "K3", "n_hi": "7"}, "'n_hi' must be int"),
        ("bipartite_split", [1], "JSON object"),
    ])
    def test_fact_argument_types_checked(self, tmp_path, name, args, message):
        with pytest.raises(ManifestError, match=message):
            run_experiment({"op": "fact", "name": name, "args": args},
                           base_dir=str(tmp_path))
        assert not list(tmp_path.iterdir())

    def test_fact_argument_types_accepted(self, tmp_path):
        for name, args in (("bipartite_split", {"i": 2, "n": None}),
                           ("odd_cycle_unavoidable", {"r": 2, "node_budget": 5_000_000})):
            result = run_experiment({"op": "fact", "name": name, "args": args,
                                     "out": f"{name}.json"}, base_dir=str(tmp_path))
            with open(result["out"]) as fh:
                assert json.load(fh)["status"] == "verified"

    @pytest.mark.parametrize("key", ["bases", "trials", "targets", "lo", "hi"])
    def test_scan_missing_key_named(self, tmp_path, key):
        args = {"bases": ["turan:6,3"], "targets": "C3,C3", "trials": 2,
                "p_grid": {"lo": 0.1, "hi": 0.5, "per_decade": 2}}
        args.pop(key, None)
        args["p_grid"].pop(key, None)
        with pytest.raises(ManifestError, match=f"'{key}'"):
            run_experiment({"op": "scan", "seed": 1, "args": args},
                           base_dir=str(tmp_path))
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("where, key", [
        ("args", "node_budgt"), ("args", "cache_"), ("args", "seed"), ("p_grid", "per_decad"),
    ])
    def test_scan_unknown_key_named(self, tmp_path, where, key):
        # a misspelled key would otherwise run with the default it meant to set
        args = {"bases": ["turan:6,3"], "targets": "C3,C3", "trials": 2,
                "p_grid": {"lo": 0.1, "hi": 0.5, "per_decade": 2}}
        (args if where == "args" else args["p_grid"])[key] = 1
        with pytest.raises(ManifestError, match=f"unknown .* '{key}'; known: "):
            run_experiment({"op": "scan", "seed": 1, "args": args},
                           base_dir=str(tmp_path))
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("manifest, key", [
        ({"op": "scan", "seed": 5, "sead": 5}, "sead"),
        ({"op": "scan", "seed": 5, "ot": "mine.csv"}, "ot"),
        ({"op": "scan", "seed": 5, "name": "small_ramsey"}, "name"),
        ({"op": "facts", "seeds": 1}, "seeds"),
        ({"op": "fact", "name": "list_cycle_lemma", "arg": {}}, "arg"),
    ], ids=["scan-sead", "scan-ot", "scan-name", "facts-seeds", "fact-arg"])
    def test_unknown_top_level_key_named(self, tmp_path, manifest, key):
        # a misspelled seed ran with a fresh random one and stored both,
        # and a misspelled out wrote results.csv
        if manifest["op"] == "scan":
            manifest["args"] = {"bases": ["turan:6,3"], "targets": "C3,C3", "trials": 2,
                                "p_grid": [0.1, 0.5]}
        message = f"^unknown {manifest['op']} manifest key '{key}'; known: op, args, "
        with pytest.raises(ManifestError, match=message):
            run_experiment(manifest, base_dir=str(tmp_path))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        with pytest.raises(ManifestError, match=message):
            load_manifest(str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["m.json"]

    def test_zero_per_decade_rejected(self, tmp_path):
        args = {"bases": ["turan:6,3"], "targets": "C3,C3", "trials": 2,
                "p_grid": {"lo": 0.1, "hi": 0.5, "per_decade": 0}}
        with pytest.raises(ValueError, match="per_decade"):
            run_experiment({"op": "scan", "seed": 1, "args": args},
                           base_dir=str(tmp_path))
        assert not list(tmp_path.iterdir())

    def test_oversized_grid_rejected(self, tmp_path):
        args = {"bases": ["turan:6,3"], "targets": "C3,C3", "trials": 2,
                "p_grid": {"lo": 0.1, "hi": 0.2, "per_decade": 10 ** 12}}
        with pytest.raises(ValueError, match="301029995665 points is more than "
                                             "the limit of 10000"):
            run_experiment({"op": "scan", "seed": 1, "args": args},
                           base_dir=str(tmp_path))
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("where, key, value", [
        ("manifest", "seed", 1.7), ("manifest", "seed", True), ("manifest", "seed", "5"),
        ("args", "trials", 2.0), ("args", "trials", True),
        ("args", "node_budget", 1e6), ("args", "node_budget", False),
        ("p_grid", "per_decade", 1.9), ("p_grid", "per_decade", True),
    ])
    def test_scan_numbers_not_truncated(self, tmp_path, where, key, value):
        manifest = {"op": "scan", "seed": 1,
                    "args": {"bases": ["turan:6,3"], "targets": "C3,C3", "trials": 2,
                             "p_grid": {"lo": 0.1, "hi": 0.5, "per_decade": 2}}}
        parts = {"manifest": manifest, "args": manifest["args"],
                 "p_grid": manifest["args"]["p_grid"]}
        parts[where][key] = value
        with pytest.raises(ManifestError, match=f"'{key}' must be an integer"):
            run_experiment(manifest, base_dir=str(tmp_path))
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_scan_clique_shortcut_must_be_boolean(self, tmp_path, value):
        # "false" is truthy, so reading it with bool() ran the shortcut
        args = {"bases": ["turan:6,3"], "targets": "C3,C3", "trials": 2,
                "p_grid": [0.1, 0.5], "clique_shortcut": value}
        with pytest.raises(ManifestError, match="'clique_shortcut' must be true or false"):
            run_experiment({"op": "scan", "seed": 1, "args": args},
                           base_dir=str(tmp_path))
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("value", [True, False])
    def test_scan_clique_shortcut_boolean_kept(self, tmp_path, value):
        args = {"bases": ["turan:6,3"], "targets": "C3,C3", "trials": 2,
                "p_grid": [0.1, 0.5], "clique_shortcut": value}
        result = run_experiment({"op": "scan", "seed": 1, "args": args},
                                base_dir=str(tmp_path))
        assert result["resolved"]["args"]["clique_shortcut"] is value
        assert replay(result["manifest"])["identical"]

    @pytest.mark.parametrize("grid, key", [
        ([True, 0.3], "p_grid"), ([0.1, "0.3"], "p_grid"), ([0.1, None], "p_grid"),
        ({"lo": "0.1", "hi": 0.5}, "lo"), ({"lo": 0.1, "hi": True}, "hi"),
    ])
    def test_scan_grid_values_must_be_numbers(self, tmp_path, grid, key):
        args = {"bases": ["turan:6,3"], "targets": "C3,C3", "trials": 2, "p_grid": grid}
        with pytest.raises(ManifestError, match=f"'{key}' must be a number"):
            run_experiment({"op": "scan", "seed": 1, "args": args},
                           base_dir=str(tmp_path))
        assert not list(tmp_path.iterdir())

    def test_scan_integer_grid_values_accepted(self, tmp_path):
        args = {"bases": ["turan:6,3"], "targets": "C3,C3", "trials": 2,
                "p_grid": [0, 1]}
        result = run_experiment({"op": "scan", "seed": 1, "args": args},
                                base_dir=str(tmp_path))
        assert result["resolved"]["args"]["p_grid"] == [0.0, 1.0]

    @pytest.mark.parametrize("key", ["bases", "p_grid"])
    def test_scan_empty_list_rejected(self, tmp_path, key):
        args = {"bases": ["turan:6,3"], "targets": "C3,C3", "trials": 2,
                "p_grid": [0.1, 0.5]}
        args[key] = []
        with pytest.raises(ManifestError, match=f"'{key}'"):
            run_experiment({"op": "scan", "seed": 1, "args": args},
                           base_dir=str(tmp_path))
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("change, message", [
        ({"bases": [5]}, "'bases' entries must be family strings or objects, got 5"),
        ({"bases": [{"args": [5]}]}, "a scan base needs 'family'"),
        ({"bases": [{"family": 5}]}, "'family' must be a string, got 5"),
        ({"bases": [{"family": "turan", "args": 5}]},
         "'args' of a scan base must be a list, got 5"),
        ({"targets": ["C3", "C3"]}, r"'targets' must be a string, got \['C3', 'C3'\]"),
    ], ids=["int-base", "no-family", "int-family", "int-args", "list-targets"])
    def test_scan_malformed_bases_and_targets_named(self, tmp_path, change, message):
        args = {"bases": ["turan:6,3"], "targets": "C3,C3", "trials": 2,
                "p_grid": [0.1, 0.5]}
        args.update(change)
        with pytest.raises(ManifestError, match=message):
            run_experiment({"op": "scan", "seed": 1, "args": args},
                           base_dir=str(tmp_path))
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("base, message", [
        ({"family": "turan", "args": [6.5, 3]},
         "family 'turan' argument n must be an integer, got 6.5"),
        ({"family": "turan", "args": [6, True]},
         "family 'turan' argument k must be an integer, got True"),
        ("turan:6,x", "family 'turan' argument k must be an integer, got 'x'"),
    ])
    def test_scan_non_integer_base_argument_named(self, tmp_path, base, message):
        args = {"bases": [base], "targets": "C3,C3", "trials": 2, "p_grid": [0.1, 0.5]}
        with pytest.raises(ManifestError, match=f"^{message}$"):
            run_experiment({"op": "scan", "seed": 1, "args": args},
                           base_dir=str(tmp_path))
        assert not list(tmp_path.iterdir())

    def test_scan_negative_node_budget_writes_nothing(self, tmp_path):
        args = {"bases": ["turan:6,3"], "targets": "C3,C3", "trials": 2,
                "p_grid": [0.1, 0.5], "node_budget": -1}
        with pytest.raises(ValueError, match="^node budget must be nonnegative, got -1$"):
            run_experiment({"op": "scan", "seed": 1, "args": args},
                           base_dir=str(tmp_path))
        assert not list(tmp_path.iterdir())

    def test_scan_base_object_form_accepted(self, tmp_path):
        args = {"bases": [{"family": "turan", "args": [6, 3]}, "turan:6,3"],
                "targets": "C3,C3", "trials": 2, "p_grid": [0.1, 0.5]}
        result = run_experiment({"op": "scan", "seed": 1, "args": args},
                                base_dir=str(tmp_path))
        # one row per p and base, the two forms of one base alike
        rows = open(result["out"]).read().splitlines()
        assert len(rows) == 5 and rows[1] == rows[2] and rows[3] == rows[4]

    @pytest.mark.parametrize("manifest, message", [
        ({"name": "list_cycle_lemma"}, "'op' key"),
        (["op", "facts"], "'op' key"),
        ({"op": "scan", "seed": 1, "args": ["turan:6,3"]}, "'args' must be a JSON object"),
        ({"op": "facts", "args": "x"}, "'args' must be a JSON object"),
    ])
    def test_dict_manifest_checked_like_a_file(self, tmp_path, manifest, message):
        with pytest.raises(ManifestError, match=message):
            run_experiment(manifest, base_dir=str(tmp_path))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        with pytest.raises(ManifestError, match=message):
            load_manifest(str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["m.json"]

    def test_manifest_from_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"op": "fact", "name": "list_cycle_lemma",
                                    "out": "lcl.json"}))
        result = run_experiment(str(path))
        assert os.path.dirname(result["out"]) == str(tmp_path)

    def test_malformed_manifest_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(["not", "an", "object"]))
        with pytest.raises(ManifestError):
            load_manifest(str(path))


class TestReplay:
    def scan_manifest(self, tmp_path):
        manifest = {"op": "scan", "seed": 11, "out": "scan.csv",
                    "args": {"bases": ["turan:8,4"], "targets": "C3,C3",
                             "p_grid": [0.05, 0.6], "trials": 4}}
        return run_experiment(manifest, base_dir=str(tmp_path))

    def test_scan_replay_identical(self, tmp_path):
        result = self.scan_manifest(tmp_path)
        report = replay(result["manifest"])
        assert report["identical"] is True
        assert report["op"] == "scan"
        assert "version_mismatch" not in report

    def test_manifest_with_time_budget_replays(self, tmp_path):
        # manifests written before searches became node-budgeted only
        # carry a time_budget argument, which is no longer read
        manifest = {"op": "scan", "seed": 11, "out": "scan.csv",
                    "args": {"bases": ["turan:8,4"], "targets": "C3,C3",
                             "p_grid": [0.05, 0.6], "trials": 4,
                             "node_budget": 10 ** 8, "time_budget": 60.0}}
        result = run_experiment(manifest, base_dir=str(tmp_path))
        with open(result["manifest"]) as fh:
            assert json.load(fh)["args"]["time_budget"] == 60.0
        assert replay(result["manifest"])["identical"] is True
        plain = tmp_path / "plain"
        plain.mkdir()
        with open(result["out"]) as fh, open(self.scan_manifest(plain)["out"]) as ref:
            assert fh.read() == ref.read()

    def test_old_manifest_with_run_relative_out_replays(self, tmp_path):
        # manifests written before out was stored relative to them hold it
        # as the run was given it, here relative to tmp_path
        (tmp_path / "sub").mkdir()
        result = run_experiment({"op": "scan", "seed": 11, "out": "sub/scan.csv",
                                 "args": {"bases": ["turan:8,4"], "targets": "C3,C3",
                                          "p_grid": [0.05, 0.6], "trials": 4}},
                                base_dir=str(tmp_path))
        with open(result["manifest"]) as fh:
            stored = json.load(fh)
        assert stored["out"] == "scan.csv"  # relative to the manifest
        assert replay(result["manifest"])["identical"] is True
        stored["out"] = "sub/scan.csv"
        with open(result["manifest"], "w") as fh:
            json.dump(stored, fh)
        report = replay(result["manifest"])
        assert report["identical"] is True
        assert report["out"] == str(tmp_path / "sub" / "scan.csv")

    def test_replay_without_out_named(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"op": "facts", "seed": 1}))
        with pytest.raises(ManifestError, match="'out'"):
            replay(str(path))

    def test_tampered_result_detected(self, tmp_path):
        result = self.scan_manifest(tmp_path)
        with open(result["out"], "a") as fh:
            fh.write("8,0.99,4,4,0.0,1.0,0\n")
        report = replay(result["manifest"])
        assert report["identical"] is False
        assert report["stored_bytes"] > report["replayed_bytes"]

    def test_fact_replay_ignores_runtime(self, tmp_path):
        manifest = {"op": "fact", "name": "small_ramsey",
                    "args": {"first": "C3", "second": "C3", "expected": 6},
                    "out": "f.json"}
        result = run_experiment(manifest, base_dir=str(tmp_path))
        # perturb only the stored runtime; the replay must still match
        stored = json.loads(open(result["out"]).read())
        stored["runtime"] = 99.0
        with open(result["out"], "w") as fh:
            json.dump(stored, fh, indent=2)
        report = replay(result["manifest"])
        assert report["identical"] is True

    def test_fact_value_change_detected(self, tmp_path):
        manifest = {"op": "fact", "name": "small_ramsey",
                    "args": {"first": "C3", "second": "C3", "expected": 6},
                    "out": "f.json"}
        result = run_experiment(manifest, base_dir=str(tmp_path))
        stored = json.loads(open(result["out"]).read())
        stored["certificate"]["value"] = 7
        with open(result["out"], "w") as fh:
            json.dump(stored, fh, indent=2)
        report = replay(result["manifest"])
        assert report["identical"] is False

    def test_version_change_reported_not_fatal(self, tmp_path):
        result = self.scan_manifest(tmp_path)
        stored = json.loads(open(result["manifest"]).read())
        stored["version"] = "0.0.9"
        with open(result["manifest"], "w") as fh:
            json.dump(stored, fh)
        report = replay(result["manifest"])
        assert report["version_mismatch"] is True
        assert report["version_recorded"] == "0.0.9"
        assert report["version_running"] == PACKAGE_VERSION
        assert report["identical"] is True

    def test_unresolved_manifest_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"op": "facts", "out": "r.json"}))
        with pytest.raises(ManifestError, match="seed"):
            replay(str(path))

    def test_facts_suite_replay(self, tmp_path):
        result = run_experiment({"op": "facts", "out": "suite.json"},
                                base_dir=str(tmp_path))
        report = replay(result["manifest"])
        assert report["identical"] is True
