import random

import pytest

from oracles import random_graph
from ramseylab.coloring import (EdgeColoring, NOT_RAMSEY, decide_ramsey,
                                ramsey_query, verify_coloring)
from ramseylab.constructions import (BLUE, RED, ConstructionError,
                                     _avoiding_coloring,
                                     bipartite_decomposition,
                                     clique_split_coloring, lift_coloring,
                                     odd_cycle_free_multicoloring,
                                     turan_blue_composite)
from ramseylab.graphs import (Graph, blowup, clique, clique_graph,
                              complete_multipartite, contains_pattern, cycle,
                              empty_graph, turan_graph, with_labels)


def engine_witness(host, targets):
    verdict = decide_ramsey(ramsey_query(host, targets))
    assert verdict.status == NOT_RAMSEY
    return verdict.witness


def part_labels_of_blowup(base, blown):
    # blow-up labels name base vertices; compose with the base's parts
    return with_labels(blown, [base.labels[x] for x in blown.labels])


class TestBipartiteDecomposition:
    def test_single_class_is_whole_graph(self):
        g = complete_multipartite([3, 4])
        classes = bipartite_decomposition(g, 1)
        assert len(classes) == 1
        assert classes[0].edges() == g.edges()

    def test_four_parts_two_classes(self):
        g = complete_multipartite([2, 2, 2, 2])
        classes = bipartite_decomposition(g, 2)
        assert len(classes) == 2
        assert sum(c.edge_count for c in classes) == 24
        for c in classes:
            assert not c.has_odd_cycle()

    def test_blowup_stays_bipartite(self):
        base = turan_graph(8, 4)
        blown = part_labels_of_blowup(base, blowup(base, 2))
        classes = bipartite_decomposition(blown, 2)
        for c in classes:
            assert not c.has_odd_cycle()
        assert sum(c.edge_count for c in classes) == blown.edge_count

    def test_classes_partition_edges(self):
        g = complete_multipartite([3, 1, 2, 4, 2, 1, 3, 2])
        classes = bipartite_decomposition(g, 3)
        seen = [e for c in classes for e in c.edges()]
        assert sorted(seen) == list(g.edges())
        assert len(set(seen)) == len(seen)

    def test_missing_labels(self):
        with pytest.raises(ConstructionError, match="labels"):
            bipartite_decomposition(clique_graph(4), 2)

    def test_too_many_parts(self):
        g = complete_multipartite([1] * 5)
        with pytest.raises(ConstructionError, match="parts"):
            bipartite_decomposition(g, 2)

    def test_in_part_edge_rejected(self):
        g = Graph.from_edges(2, [(0, 1)], labels=(0, 0))
        with pytest.raises(ConstructionError, match="inside"):
            bipartite_decomposition(g, 1)

    def test_randomized_partition_property(self):
        rng = random.Random(7)
        for _ in range(25):
            sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 8))]
            i = max(1, (len(sizes) - 1).bit_length())
            g = complete_multipartite(sizes)
            classes = bipartite_decomposition(g, i)
            assert sum(c.edge_count for c in classes) == g.edge_count
            assert all(not c.has_odd_cycle() for c in classes)


class TestAvoidingColoring:
    def test_witness_avoids_the_targets(self):
        coloring = _avoiding_coloring(clique_graph(5), [clique(3), clique(3)], "K_5")
        q = ramsey_query(clique_graph(5), [clique(3), clique(3)])
        assert verify_coloring(coloring, q) == []

    def test_error_names_host_targets_and_verdict(self):
        with pytest.raises(ConstructionError,
                           match=r"K_6 admits no coloring avoiding K3,K3\+C5 \(ramsey\)"):
            _avoiding_coloring(clique_graph(6), [[clique(3)], [clique(3), cycle(5)]], "K_6")


class TestTuranBlueComposite:
    def test_empty_parts(self):
        inner = [EdgeColoring(empty_graph(6), 2, ()) for _ in range(2)]
        composite = turan_blue_composite(12, 2, inner, t=5, ell=3)
        q = ramsey_query(composite.host, [clique(5), clique(5)])
        assert verify_coloring(composite, q) == []

    def test_engine_inner_colorings(self):
        rng = random.Random(3)
        inner = []
        for _ in range(2):
            part = random_graph(rng, 6, 0.5)
            inner.append(engine_witness(part, [clique(5), clique(3)]))
        composite = turan_blue_composite(12, 2, inner, t=5, ell=3)
        q = ramsey_query(composite.host, [clique(5), clique(5)])
        assert verify_coloring(composite, q) == []

    def test_three_parts_blue_clique_bound(self):
        rng = random.Random(11)
        inner = []
        for size in (4, 4, 4):
            part = random_graph(rng, size, 0.4)
            inner.append(engine_witness(part, [clique(4), clique(3)]))
        composite = turan_blue_composite(12, 3, inner, t=4, ell=3)
        blue = composite.color_subgraph(BLUE)
        assert not contains_pattern(blue, clique(7))

    def test_bad_inner_rejected(self):
        bad = EdgeColoring(clique_graph(6), 2, tuple([RED] * 15))
        good = EdgeColoring(empty_graph(6), 2, ())
        with pytest.raises(ConstructionError, match="red clique"):
            turan_blue_composite(12, 2, [bad, good], t=5, ell=3)

    def test_violation_names_color_clique_and_vertices(self):
        good = EdgeColoring(empty_graph(6), 2, ())
        bad = EdgeColoring(clique_graph(6), 2, tuple([BLUE] * 15))
        with pytest.raises(ConstructionError, match=r"^inner coloring 1 has a blue "
                           r"clique K3 on vertices \[0, 1, 2\]$"):
            turan_blue_composite(12, 2, [good, bad], t=5, ell=3)

    def test_unequal_parts_take_the_skeleton_layout(self):
        # turan_graph(11, 3) has parts {0..3}, {4..7}, {8..10}
        rng = random.Random(5)
        inner = [engine_witness(random_graph(rng, size, 0.5), [clique(4), clique(3)])
                 for size in (4, 4, 3)]
        composite = turan_blue_composite(11, 3, inner, t=4, ell=3)
        for at, coloring in zip((0, 4, 8), inner):
            moved = {(u + at, v + at): c
                     for (u, v), c in zip(coloring.host.edges(), coloring.colors)}
            got = {e: c for e, c in zip(composite.host.edges(), composite.colors)
                   if e in moved}
            assert got == moved
        assert composite.host.edge_count == (turan_graph(11, 3).edge_count
                                             + sum(c.host.edge_count for c in inner))

    def test_shape_mismatch(self):
        inner = [EdgeColoring(empty_graph(5), 2, ()) for _ in range(2)]
        with pytest.raises(ConstructionError, match="shape"):
            turan_blue_composite(12, 2, inner, t=5, ell=3)

    def test_s_below_guarantee_rejected(self):
        inner = [EdgeColoring(empty_graph(6), 2, ()) for _ in range(2)]
        with pytest.raises(ConstructionError, match="s must"):
            turan_blue_composite(12, 2, inner, t=5, ell=3, s=4)

    def test_randomized_instances(self):
        rng = random.Random(19)
        for trial in range(12):
            k = rng.choice([2, 3])
            size = rng.randint(3, 5)
            n = k * size
            inner = []
            for _ in range(k):
                part = random_graph(rng, size, rng.uniform(0.2, 0.6))
                inner.append(engine_witness(part, [clique(4), clique(3)]))
            composite = turan_blue_composite(n, k, inner, t=4, ell=3)
            s = k * 2 + 1
            q = ramsey_query(composite.host, [clique(4), clique(s)])
            assert verify_coloring(composite, q) == []


class TestCliqueSplitColoring:
    def test_empty_random_part(self):
        n = 16
        ab = (list(range(8)), list(range(8, 16)))
        coloring = clique_split_coloring(n, 4, 6, 6, ab, empty_graph(n))
        q = ramsey_query(coloring.host, [clique(6), clique(6)])
        assert verify_coloring(coloring, q) == []

    def test_sampled_random_part(self):
        rng = random.Random(9)
        n = 16
        # keep B edgeless: with s-k = 2 the proof needs no blue edge
        # between B-vertices of one part, and ell = ceil(6/4) = 2 forces
        # the random part restricted to B to be empty
        while True:
            g = random_graph(rng, n, 0.1)
            a_side = list(range(10))
            b_side = list(range(10, 16))
            if g.induced(b_side).edge_count == 0 \
                    and not contains_pattern(g.induced(a_side), clique(6)):
                break
        coloring = clique_split_coloring(n, 4, 6, 6, (a_side, b_side), g)
        q = ramsey_query(coloring.host, [clique(6), clique(6)])
        assert verify_coloring(coloring, q) == []

    def test_a_side_clique_rejected(self):
        n = 12
        bad = Graph.from_edges(n, [(u, v) for u in range(6)
                                   for v in range(u + 1, 6)])
        ab = (list(range(6)), list(range(6, 12)))
        with pytest.raises(ConstructionError, match="on A"):
            clique_split_coloring(n, 4, 6, 6, ab, bad)

    def test_b_side_edge_rejected(self):
        n = 12
        bad = Graph.from_edges(n, [(6, 7)])
        ab = (list(range(6)), list(range(6, 12)))
        with pytest.raises(ConstructionError, match="on B"):
            clique_split_coloring(n, 4, 6, 6, ab, bad)

    def test_parameter_window(self):
        ab = (list(range(6)), list(range(6, 12)))
        with pytest.raises(ConstructionError, match="k\\+2"):
            clique_split_coloring(12, 4, 4, 6, ab, empty_graph(12))
        with pytest.raises(ConstructionError, match="k\\+2"):
            clique_split_coloring(12, 4, 6, 5, ab, empty_graph(12))

    def test_phi_violation_named(self):
        # a = 4 for k = 4, s = 6, so phi may have no blue edge at all
        ab = (list(range(6)), list(range(6, 12)))
        phi = EdgeColoring(clique_graph(4), 2, tuple([BLUE] * 6))
        with pytest.raises(ConstructionError,
                           match=r"^phi has a blue clique K2 on vertices \[0, 1\]$"):
            clique_split_coloring(12, 4, 6, 6, ab, empty_graph(12), phi)

    def test_bad_partition(self):
        ab = (list(range(6)), list(range(5, 12)))
        with pytest.raises(ConstructionError, match="partition"):
            clique_split_coloring(12, 4, 6, 6, ab, empty_graph(12))

    def test_one_search_for_the_quotient_coloring(self, monkeypatch):
        # a = 4 for k = 4, s = 6: K_4 against (K_5, K_2) is searched once,
        # and its witness is the coloring phi _avoiding_coloring gives
        import ramseylab.coloring as coloring_module
        import ramseylab.constructions as constructions_module

        calls = []

        def counting(q, _decide=coloring_module.decide_ramsey):
            sides = [[p.describe() for p in side] for side in q.targets]
            if q.host == clique_graph(4) and sides == [["K5"], ["K2"]]:
                calls.append(q)
            return _decide(q)

        monkeypatch.setattr(coloring_module, "decide_ramsey", counting)
        monkeypatch.setattr(constructions_module, "decide_ramsey", counting)
        n = 16
        ab = (list(range(8)), list(range(8, 16)))
        got = clique_split_coloring(n, 4, 6, 6, ab, empty_graph(n))
        assert len(calls) == 1
        phi = _avoiding_coloring(clique_graph(4), [clique(5), clique(2)], "K_4")
        assert got == clique_split_coloring(n, 4, 6, 6, ab, empty_graph(n), phi)

    def test_randomized_instances(self):
        rng = random.Random(27)
        for trial in range(10):
            k = rng.choice([2, 3, 4])
            s = rng.randint(k + 2, 2 * k)
            t = rng.randint(s, s + 1)
            n = rng.randint(2 * k, 20)
            cut = rng.randint(0, n)
            ab = (list(range(cut)), list(range(cut, n)))
            coloring = clique_split_coloring(n, k, s, t, ab, empty_graph(n))
            q = ramsey_query(coloring.host, [clique(t), clique(s)])
            assert verify_coloring(coloring, q) == []


def p4_p4_base():
    host = clique_graph(4)
    # red path 0-1-2-3; the remaining three edges form a blue path
    red = {(0, 1), (1, 2), (2, 3)}
    colors = tuple(RED if e in red else BLUE for e in host.edges())
    return EdgeColoring(host, 2, colors)


class TestLiftColoring:
    def test_p4_lift_kills_odd_cycles(self):
        base = p4_p4_base()
        lifted = lift_coloring(base, blowup(base.host, 3))
        for c in (RED, BLUE):
            side = lifted.color_subgraph(c)
            assert not side.has_odd_cycle()
            for length in (3, 5, 7):
                assert not contains_pattern(side, cycle(length))

    def test_monochromatic_base(self):
        host = clique_graph(3)
        base = EdgeColoring(host, 2, (BLUE, BLUE, BLUE))
        blown = blowup(host, 2)
        lifted = lift_coloring(base, blown)
        assert lifted.color_subgraph(BLUE).edge_count == blown.edge_count

    def test_five_part_triangle_free_lift(self):
        base = engine_witness(clique_graph(5), [cycle(3), cycle(3)])
        lifted = lift_coloring(base, blowup(clique_graph(5), 3))
        q = ramsey_query(lifted.host, [cycle(3), cycle(3)])
        assert verify_coloring(lifted, q) == []

    def test_restriction_recovers_base(self):
        base = p4_p4_base()
        blown = blowup(base.host, 3)
        lifted = lift_coloring(base, blown)
        # one vertex per class, in class order: blow-up lists classes
        # consecutively, so vertices 0, 3, 6, 9
        reps = [3 * i for i in range(4)]
        index = {e: c for e, c in zip(lifted.host.edges(), lifted.colors)}
        for (i, j), c in zip(base.host.edges(), base.colors):
            e = (min(reps[i], reps[j]), max(reps[i], reps[j]))
            assert index[e] == c

    def test_missing_labels(self):
        base = p4_p4_base()
        with pytest.raises(ConstructionError, match="labels"):
            lift_coloring(base, clique_graph(8))

    def test_edge_inside_class(self):
        base = p4_p4_base()
        bad = Graph.from_edges(2, [(0, 1)], labels=(0, 0))
        with pytest.raises(ConstructionError, match="inside"):
            lift_coloring(base, bad)

    def test_edge_without_base_edge(self):
        path_base = EdgeColoring(Graph.from_edges(3, [(0, 1), (1, 2)]),
                                 2, (RED, BLUE))
        bad = Graph.from_edges(2, [(0, 1)], labels=(0, 2))
        with pytest.raises(ConstructionError, match="no base edge"):
            lift_coloring(path_base, bad)

    def test_randomized_engine_bases(self):
        rng = random.Random(31)
        for trial in range(8):
            k = rng.choice([4, 5])
            base = engine_witness(clique_graph(k), [cycle(3), cycle(3)])
            m = rng.randint(2, 4)
            lifted = lift_coloring(base, blowup(clique_graph(k), m))
            q = ramsey_query(lifted.host, [cycle(3), cycle(3)])
            assert verify_coloring(lifted, q) == []


class TestMulticolorBands:
    def test_r3_band1(self):
        coloring = odd_cycle_free_multicoloring(12, 3, 1)
        assert coloring.r == 2
        assert coloring.host.edges() == turan_graph(12, 4).edges()
        for c in range(2):
            assert not coloring.color_subgraph(c).has_odd_cycle()

    def test_r3_band2(self):
        coloring = odd_cycle_free_multicoloring(16, 3, 2)
        assert coloring.r == 3
        assert coloring.host.edges() == turan_graph(16, 8).edges()
        for c in range(3):
            assert not coloring.color_subgraph(c).has_odd_cycle()
        q = ramsey_query(coloring.host, [cycle(9), cycle(9), cycle(9)])
        assert verify_coloring(coloring, q) == []

    def test_r2_band2_matches_pair_construction(self):
        coloring = odd_cycle_free_multicoloring(8, 2, 2)
        assert coloring.r == 2
        assert coloring.host.edges() == turan_graph(8, 4).edges()
        for c in range(2):
            assert not coloring.color_subgraph(c).has_odd_cycle()

    def test_every_class_nonempty_on_balanced_host(self):
        coloring = odd_cycle_free_multicoloring(16, 4, 1)
        for c in range(coloring.r):
            assert coloring.color_subgraph(c).edge_count > 0

    def test_errors(self):
        with pytest.raises(ConstructionError, match="band"):
            odd_cycle_free_multicoloring(12, 3, 3)
        with pytest.raises(ConstructionError, match="n >="):
            odd_cycle_free_multicoloring(6, 3, 2)

    def test_randomized_sizes(self):
        rng = random.Random(41)
        for _ in range(10):
            r = rng.choice([2, 3, 4])
            band = rng.choice([1, 2])
            ncolors = r - 1 if band == 1 else r
            if ncolors < 1:
                continue
            parts = 1 << ncolors
            n = rng.randint(parts, 24)
            coloring = odd_cycle_free_multicoloring(n, r, band)
            assert coloring.r == ncolors
            for c in range(ncolors):
                assert not coloring.color_subgraph(c).has_odd_cycle()
