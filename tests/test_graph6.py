import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from oracles import random_graph
from ramseylab import graph6
from ramseylab.graphs import clique_graph, empty_graph, turan_graph

encodable = st.builds(random_graph,
                      st.randoms(use_true_random=False),
                      st.integers(min_value=1, max_value=40),
                      st.floats(min_value=0.0, max_value=1.0))


def test_k1_encodes_to_at_sign():
    assert graph6.encode(clique_graph(1)) == "@"


def test_star_example_round_trips():
    g = graph6.decode("D?{")
    assert graph6.encode(g) == "D?{"
    assert g.n == 5


def test_turan_round_trip():
    g = turan_graph(6, 3)
    back = graph6.decode(graph6.encode(g))
    assert back.n == 6 and back.edge_count == 12
    # labels do not survive the format; adjacency must
    assert back.adj == g.adj


def test_header_tolerated():
    plain = graph6.encode(clique_graph(4))
    assert graph6.decode(">>graph6<<" + plain).adj == clique_graph(4).adj


def test_rejects_garbage():
    with pytest.raises(ValueError):
        graph6.decode("")
    with pytest.raises(ValueError):
        graph6.decode("D")          # truncated body
    with pytest.raises(ValueError):
        graph6.decode("D\x1f\x1f")  # bytes below the graph6 alphabet


@settings(max_examples=200, deadline=None)
@given(encodable)
def test_round_trip(g):
    assert graph6.decode(graph6.encode(g)).adj == g.adj


@settings(max_examples=100, deadline=None)
@given(encodable)
def test_matches_networkx(g):
    code = graph6.encode(g)
    theirs = nx.from_graph6_bytes(code.encode())
    assert set(theirs.nodes) == set(range(g.n))
    assert {tuple(sorted(e)) for e in theirs.edges} == set(g.edges())
    ours_back = graph6.decode(
        nx.to_graph6_bytes(theirs, header=False).decode().strip())
    assert ours_back.adj == g.adj


def test_empty_graph_sizes():
    for n in (0, 1, 2, 63):
        g = empty_graph(n)
        assert graph6.decode(graph6.encode(g)).n == n


def test_more_than_64_vertices_refused():
    # long form: '~' and three 6-bit size groups, then the full body
    code = "~?@@" + "?" * ((65 * 64 // 2 + 5) // 6)
    with pytest.raises(ValueError, match=r"^vertex count 65 outside 0\.\.64$"):
        graph6.decode(code)
