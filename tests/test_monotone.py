"""The scan's monotone verdict library (cache "monotone"): containment
tests bounded in placements, statuses equal to fresh search wherever
fresh search decides, and manifests that replay under either cache."""

import hashlib
import importlib
import json
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from ramseylab import coloring
from ramseylab.coloring import (DEFAULT_NODE_BUDGET, INCONCLUSIVE, NOT_RAMSEY, RAMSEY,
                                EdgeColoring, RamseyVerdict, _decide_degree_first,
                                decide_ramsey, ramsey_query)
from ramseylab.experiments import ManifestError, replay, run_experiment
from ramseylab.graphs import (Graph, _embedding_plan, _iter_embeddings, clique, cycle,
                              cycle_graph, path, turan_graph)
from ramseylab.perturb import log_spaced_grid, perturb, threshold_scan

from oracles import random_graph

perturb_module = importlib.import_module("ramseylab.perturb")

SEARCH_ARGS = {"bases": ["turan:9,3"], "targets": "C3,C5",
               "p_grid": {"lo": 0.02, "hi": 0.5, "per_decade": 6}, "trials": 40}
SEARCH_CSV = "6c7048ee490b8b0a332ccf7e642a56a3ebe03f9e7c878eb5454a0cf6099df01e"


# the seed of a random scan (scan_queries), its targets and the node
# budget of its searches
SCAN_CASE = dict(seed=st.integers(min_value=0, max_value=2 ** 32),
                 targets=st.sampled_from([[cycle(3), cycle(3)], [cycle(3), cycle(5)],
                                          [clique(3), cycle(4)], [path(3), clique(3)]]),
                 node_budget=st.one_of(st.integers(min_value=1, max_value=300),
                                       st.just(DEFAULT_NODE_BUDGET)))
# the search a library runs: either order a scan takes
SEARCHES = st.sampled_from([decide_ramsey, _decide_degree_first])


def scan_queries(seed, targets, node_budget):
    """A random base, grid and trial count drawn from seed, and the
    queries of the distinct hosts a scan of the base meets, in a
    first-seen order; the generator is returned for further draws."""
    rng = random.Random(seed)
    base = random_graph(rng, rng.randint(4, 8), rng.random() * 0.6)
    grid = sorted(rng.random() for _ in range(rng.randint(1, 5)))
    trials = rng.randint(1, 8)
    hosts = dict.fromkeys(perturb(base, p, seed, t) for t in range(trials) for p in grid)
    queries = [ramsey_query(h, targets, node_budget=node_budget) for h in hosts]
    return rng, base, grid, trials, queries


def recorded_decisions(monkeypatch, name="decide_ramsey"):
    """Patch the scan's search, decide_ramsey or, for order "degree",
    _decide_degree_first, to record each query's host and verdict in
    the returned list."""
    decided = []
    decide = getattr(perturb_module, name)

    def recorded(query):
        verdict = decide(query)
        decided.append((query.host, verdict))
        return verdict

    monkeypatch.setattr(perturb_module, name, recorded)
    return decided


class TestBoundedEmbedding:
    def test_cap_keeps_the_dfs_order(self):
        # a capped DFS yields the unbounded DFS's first map or nothing,
        # spends at most its cap, and stops only when the cap is used up
        rng = random.Random(28)
        for _ in range(300):
            n = rng.randint(1, 9)
            host = random_graph(rng, n, rng.random())
            pattern = random_graph(rng, rng.randint(1, n), rng.random())
            plan = _embedding_plan(pattern)
            first = next(_iter_embeddings(n, host.adj, plan), None)
            for cap in (0, 1, 3, 10, 100):
                left = [cap]
                found = next(_iter_embeddings(n, host.adj, plan, cap=left), None)
                assert 0 <= left[0] <= cap
                assert found in (None, first)
                if found is None and first is not None:
                    assert left[0] == 0

    @pytest.mark.parametrize("trial", [2, 3])
    def test_hard_pair_stops_at_cap_and_host_is_searched(self, monkeypatch, trial):
        # an unbounded test takes seconds on these n = 18 pairs: with
        # trial 2 the small host embeds in the large one, with trial 3 it
        # does not; either way the library's test stops at its cap
        small = perturb(turan_graph(18, 3), 2 / 18, 8020, 105)
        large = perturb(turan_graph(18, 3), 3 / 18, 8020, trial)
        assert coloring._may_embed(coloring._profile(small), coloring._profile(large))
        left = [coloring._EMBED_PLACEMENTS]
        assert next(_iter_embeddings(18, large.adj, _embedding_plan(small), cap=left),
                    None) is None
        assert left == [0]
        # a scan that has searched the small host RAMSEY then searches the large one
        searched = []

        def ramsey_stub(query):
            searched.append(query.host)
            return RamseyVerdict(RAMSEY)

        monkeypatch.setattr(perturb_module, "decide_ramsey", ramsey_stub)
        queries = [ramsey_query(g, [cycle(3), cycle(5)]) for g in (small, large)]
        decide = perturb_module._monotone_decider(perturb_module.decide_ramsey)
        assert [decide(q).status for q in queries] == [RAMSEY, RAMSEY]
        assert searched == [small, large]


class TestLibrary:
    def test_scan_search_searches_eight_hosts(self, monkeypatch):
        # the scan_search scan: 85 distinct hosts, 77 settled by containment
        decided = recorded_decisions(monkeypatch)
        result = threshold_scan([turan_graph(9, 3)], [cycle(3), cycle(5)],
                                log_spaced_grid(0.02, 0.5, 6), 40, 8020, cache="monotone",
                                order="canonical")
        assert hashlib.sha256(result.to_csv().encode()).hexdigest() == SEARCH_CSV
        assert len(decided) == 8
        assert sum(verdict.stats.nodes for _, verdict in decided) == 39230

    @pytest.mark.parametrize("cache, searches, nodes", [("monotone", 8, 10036),
                                                        ("none", 85, 75841)])
    def test_scan_search_degree_order(self, monkeypatch, cache, searches, nodes):
        # the same hosts searched with their densest vertices branching
        # first: the same CSV, from 39,230 and 310,483 nodes in the
        # canonical order
        decided = recorded_decisions(monkeypatch, "_decide_degree_first")
        result = threshold_scan([turan_graph(9, 3)], [cycle(3), cycle(5)],
                                log_spaced_grid(0.02, 0.5, 6), 40, 8020, cache=cache,
                                order="degree")
        assert hashlib.sha256(result.to_csv().encode()).hexdigest() == SEARCH_CSV
        assert len(decided) == len({host for host, _ in decided}) == searches
        assert sum(verdict.stats.nodes for _, verdict in decided) == nodes

    @pytest.mark.parametrize("base, targets, grid, trials", [
        (turan_graph(9, 3), [cycle(3), cycle(5)], log_spaced_grid(0.02, 0.5, 6), 40),
        (turan_graph(12, 3), [cycle(3), cycle(5)], log_spaced_grid(0.05, 0.6, 6), 20),
    ], ids=["scan_search", "Turan12-3"])
    def test_orders_give_the_same_bytes(self, base, targets, grid, trials):
        caches = ("monotone", "none") if base.n == 9 else ("monotone",)
        for cache in caches:
            canonical, degree = (threshold_scan([base], targets, grid, trials, 8020,
                                                cache=cache, order=order).to_csv()
                                 for order in ("canonical", "degree"))
            assert canonical == degree

    def test_scan_search_decides_every_host_here(self, monkeypatch):
        # under cache "none" the same scan searches each of its 85
        # distinct hosts once, every search in this process
        decided = recorded_decisions(monkeypatch)
        result = threshold_scan([turan_graph(9, 3)], [cycle(3), cycle(5)],
                                log_spaced_grid(0.02, 0.5, 6), 40, 8020, cache="none")
        assert hashlib.sha256(result.to_csv().encode()).hexdigest() == SEARCH_CSV
        assert len(decided) == len({host for host, _ in decided}) == 85
        assert sum(verdict.stats.nodes for _, verdict in decided) == 310483

    def test_equal_profiles_are_not_a_hit(self, monkeypatch):
        # two triangles and a 6-cycle share edge count and degrees, and
        # neither embeds in the other, so each is searched; a host that
        # contains one triangle pair, or embeds in the 6-cycle, is not
        triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        hexagon = cycle_graph(6)
        for status in (RAMSEY, NOT_RAMSEY):
            searched = []

            def stub(query):
                searched.append(query.host)
                colors = (0, 1, 0, 1, 0, 1) if query.host == hexagon else (0, 0, 1) * 2
                return RamseyVerdict(status, EdgeColoring(query.host, 2, colors))

            monkeypatch.setattr(perturb_module, "decide_ramsey", stub)
            first, second = (triangles, hexagon) if status == RAMSEY else (hexagon, triangles)
            settled = (triangles.union(Graph.from_edges(6, [(2, 3)])) if status == RAMSEY
                       else hexagon.subgraph_with_edges([(0, 1), (1, 2), (3, 4)]))
            queries = [ramsey_query(g, [cycle(3), cycle(3)]) for g in (first, second, settled)]
            decide = perturb_module._monotone_decider(perturb_module.decide_ramsey)
            assert [decide(q).status for q in queries] == [status] * 3
            assert searched == [first, second]

    def test_invalid_pulled_back_witness_raises(self, monkeypatch):
        # an entry whose witness is wrong (every edge red on a host with a
        # triangle) makes the host embedded in it raise, as the engine does
        entry = turan_graph(6, 3)
        inside = entry.subgraph_with_edges([(0, 2), (2, 4), (0, 4)])

        def bogus(query):
            return RamseyVerdict(NOT_RAMSEY, EdgeColoring(query.host, 2,
                                                          (0,) * query.host.edge_count))

        monkeypatch.setattr(perturb_module, "decide_ramsey", bogus)
        queries = [ramsey_query(g, [cycle(3), cycle(3)]) for g in (entry, inside)]
        decide = perturb_module._monotone_decider(perturb_module.decide_ramsey)
        with pytest.raises(AssertionError, match="pulled-back witness"):
            [decide(q) for q in queries]

    @settings(max_examples=60, deadline=None)
    @given(clique_shortcut=st.booleans(), search=SEARCHES, **SCAN_CASE)
    def test_monotone_against_fresh(self, seed, targets, node_budget, clique_shortcut,
                                    search):
        _, base, grid, trials, queries = scan_queries(seed, targets, node_budget)
        # a host that a fresh search in the library's order decides gets
        # its status; one that only the other order decides may be left
        # inconclusive, but no status contradicts the canonical search
        decide = perturb_module._monotone_decider(search)
        for query in queries:
            settled, fresh = decide(query).status, search(query).status
            assert fresh == INCONCLUSIVE or settled == fresh
            canonical = decide_ramsey(query).status
            assert INCONCLUSIVE in (settled, canonical) or settled == canonical

        order = "canonical" if search is decide_ramsey else "degree"
        none, monotone = (threshold_scan([base], targets, grid, trials, seed,
                                         node_budget=node_budget,
                                         clique_shortcut=clique_shortcut, cache=cache,
                                         order=order).rows
                          for cache in ("none", "monotone"))
        for a, b in zip(none, monotone):
            assert b.inconclusive <= a.inconclusive
            assert b.successes >= a.successes
            if not a.inconclusive:
                assert b == a

    @settings(max_examples=60, deadline=None)
    @given(search=SEARCHES, **SCAN_CASE)
    def test_decision_order_does_not_matter(self, seed, targets, node_budget, search):
        # the scan's distinct hosts fed to one library in a shuffled
        # order, as an adaptive caller may feed them: a host that a fresh
        # search in the library's order decides gets its status, and no
        # host gets the verdict opposite to a search under the default budget
        rng, _, _, _, queries = scan_queries(seed, targets, node_budget)
        rng.shuffle(queries)
        decide = perturb_module._monotone_decider(search)
        for query in queries:
            settled = decide(query).status
            fresh = search(query).status
            if fresh != INCONCLUSIVE:
                assert settled == fresh
            elif settled != INCONCLUSIVE:
                truth = decide_ramsey(ramsey_query(query.host, targets)).status
                assert truth in (settled, INCONCLUSIVE)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_no_scan_forks(self, monkeypatch):
        # the scan_search scan, which spends 310,483 search nodes under "none"
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
        for cache in ("none", "monotone"):
            threshold_scan([turan_graph(9, 3)], [cycle(3), cycle(5)],
                           log_spaced_grid(0.02, 0.5, 6), 40, 8020, cache=cache)
        assert forks == []

    def test_unknown_cache_rejected(self):
        with pytest.raises(ValueError, match="cache"):
            threshold_scan([turan_graph(6, 3)], [cycle(3), cycle(3)], [0.5], 2, 1,
                           cache="fresh")

    @pytest.mark.parametrize("order", ["Degree", "random", None, True])
    def test_unknown_order_rejected(self, order):
        with pytest.raises(ValueError, match="order must be one of"):
            threshold_scan([turan_graph(6, 3)], [cycle(3), cycle(3)], [0.5], 2, 1,
                           order=order)


def top_rows(path):
    """(successes, inconclusive) at the top two grid points of a scan CSV."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    return [(int(row[3]), int(row[6])) for row in rows[-2:]]


class TestManifestCache:
    def run(self, tmp_path, name, **extra):
        args = dict(SEARCH_ARGS, node_budget=15000, **extra)
        return run_experiment({"op": "scan", "seed": 8020, "args": args, "out": name},
                              base_dir=str(tmp_path))

    def test_replay_contract(self, tmp_path):
        # the scan_search scan at node budget 15000, where fresh search
        # in the canonical order leaves hosts inconclusive that the
        # library, or the degree order, settles
        fresh = self.run(tmp_path, "fresh.csv", cache="none", order="canonical")
        assert top_rows(fresh["out"]) == [(3, 1), (8, 7)]
        # a manifest stored before either field existed searches every
        # host in the canonical order
        with open(fresh["manifest"], encoding="utf-8") as fh:
            stored = json.load(fh)
        del stored["args"]["cache"], stored["args"]["order"]
        with open(fresh["manifest"], "w", encoding="utf-8") as fh:
            json.dump(stored, fh)
        assert replay(fresh["manifest"])["identical"]
        canonical = self.run(tmp_path, "canonical.csv", order="canonical")
        assert canonical["resolved"]["args"]["cache"] == "monotone"
        assert top_rows(canonical["out"]) == [(4, 0), (13, 2)]
        assert replay(canonical["manifest"])["identical"]
        new = self.run(tmp_path, "new.csv")
        assert (new["resolved"]["args"]["cache"], new["resolved"]["args"]["order"]) == (
            "monotone", "degree")
        with open(new["manifest"], encoding="utf-8") as fh:
            stored = json.load(fh)["args"]
        assert (stored["cache"], stored["order"]) == ("monotone", "degree")
        assert top_rows(new["out"]) == [(4, 0), (15, 0)]
        assert replay(new["manifest"])["identical"]
        # the same manifest without its order replays the canonical bytes
        with open(new["manifest"], encoding="utf-8") as fh:
            stored = json.load(fh)
        del stored["args"]["order"]
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps(dict(stored, out="canonical.csv")))
        assert replay(str(legacy))["identical"]

    def test_every_scan_default_resolved(self, tmp_path):
        args = {"bases": ["turan:6,3"], "targets": "C3,C3", "trials": 2, "p_grid": [0.1, 0.5]}
        resolved = run_experiment({"op": "scan", "seed": 1, "args": args},
                                  base_dir=str(tmp_path))["resolved"]["args"]
        assert (resolved["node_budget"], resolved["clique_shortcut"], resolved["cache"],
                resolved["order"]) == (DEFAULT_NODE_BUDGET, True, "monotone", "degree")
        given_args = dict(args, node_budget=500, clique_shortcut=False, cache="none",
                          order="canonical")
        result = run_experiment({"op": "scan", "seed": 1, "args": given_args},
                                base_dir=str(tmp_path))
        assert result["resolved"]["args"] == dict(given_args, p_grid=[0.1, 0.5])
        assert replay(result["manifest"])["identical"]

    @pytest.mark.parametrize("value", ["Monotone", "fresh", "", None, True, 1, ["none"]])
    def test_cache_must_be_one_of_two_strings(self, tmp_path, value):
        args = {"bases": ["turan:6,3"], "targets": "C3,C3", "trials": 2,
                "p_grid": [0.1, 0.5], "cache": value}
        with pytest.raises(ManifestError, match="'cache' must be \"monotone\" or \"none\""):
            run_experiment({"op": "scan", "seed": 1, "args": args}, base_dir=str(tmp_path))
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("value", [True, "Degree", 1, "", None, ["degree"]])
    def test_order_must_be_one_of_two_strings(self, tmp_path, value):
        args = {"bases": ["turan:6,3"], "targets": "C3,C3", "trials": 2,
                "p_grid": [0.1, 0.5], "order": value}
        with pytest.raises(ManifestError,
                           match="'order' must be \"degree\" or \"canonical\""):
            run_experiment({"op": "scan", "seed": 1, "args": args}, base_dir=str(tmp_path))
        assert not list(tmp_path.iterdir())
