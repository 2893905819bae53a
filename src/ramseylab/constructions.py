"""Explicit lower-bound colorings, each re-verified before it is returned.

Every builder here composes a coloring that is supposed to avoid
certain monochromatic targets, then checks that claim directly
(verify_coloring for cliques, odd-cycle search) and raises
ConstructionError on any violation.  Callers therefore never receive
an unchecked certificate.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .coloring import (EdgeColoring, NOT_RAMSEY, decide_ramsey, ramsey_query,
                       verify_coloring)
from .graphs import Graph, clique, contains_pattern, part_vertices, turan_graph


class ConstructionError(ValueError):
    """A composed coloring failed its own verification."""


RED, BLUE = 0, 1


def _check_avoids(coloring: EdgeColoring, red: int, blue: int, name: str) -> None:
    """Raise ConstructionError, naming the coloring, unless verify_coloring
    finds no red clique on red vertices and no blue clique on blue."""
    query = ramsey_query(coloring.host, [clique(red), clique(blue)])
    violations = verify_coloring(coloring, query)
    if violations:
        color, pattern, vertices = violations[0]
        raise ConstructionError(f"{name} has a {('red', 'blue')[color]} clique "
                                f"{pattern} on vertices {list(vertices)}")


def bipartite_decomposition(g: Graph, i: int) -> list[Graph]:
    """Split a multipartite graph's edges into i bipartite subgraphs.

    Part labels must use at most 2^i values; an edge between parts a
    and b joins the class of the highest bit where a and b differ, and
    each class is bipartite because that bit splits its vertices in
    two.  Classes are verified odd-cycle-free independently.
    """
    if g.labels is None:
        raise ConstructionError("graph needs part labels")
    if i < 1:
        raise ConstructionError("need at least one class")
    if max(g.labels, default=0) >= (1 << i):
        raise ConstructionError(f"more than 2^{i} parts")
    classes: list[list[tuple[int, int]]] = [[] for _ in range(i)]
    for u, v in g.edges():
        diff = g.labels[u] ^ g.labels[v]
        if diff == 0:
            raise ConstructionError(f"edge ({u},{v}) inside a part")
        classes[diff.bit_length() - 1].append((u, v))
    out = []
    for edges in classes:
        sub = g.subgraph_with_edges(edges)
        if sub.has_odd_cycle():
            raise ConstructionError("a class contains an odd cycle")
        out.append(sub)
    if sorted(e for sub in out for e in sub.edges()) != sorted(g.edges()):
        raise ConstructionError("classes do not partition the edges")
    return out


def turan_blue_composite(n: int, k: int, inner: Sequence[EdgeColoring],
                         t: int, ell: int, s: Optional[int] = None) -> EdgeColoring:
    """Blue balanced k-partite skeleton with supplied in-part colorings.

    Each inner coloring must avoid a red clique on t vertices and a
    blue clique on ell; the composite then has no red K_t at all and
    its blue cliques pick at most ell-1 vertices per part, so it avoids
    blue K_s for s = k(ell-1)+1 (the default).  Both properties are
    re-verified by verify_coloring on the composite.  Part p of the
    turan_graph(n, k) skeleton holds inner[p], its vertices in order.
    """
    if s is None:
        s = k * (ell - 1) + 1
    if s < k * (ell - 1) + 1:
        raise ConstructionError("s must be at least k*(ell-1)+1")
    if len(inner) != k:
        raise ConstructionError(f"need {k} in-part colorings")
    skeleton = turan_graph(n, k)
    edges = list(skeleton.edges())
    color_of = {e: BLUE for e in edges}
    for p, coloring in enumerate(inner):
        part = part_vertices(skeleton, p)
        if coloring.r != 2 or coloring.host.n != len(part):
            raise ConstructionError("inner coloring shape mismatch")
        _check_avoids(coloring, t, ell, f"inner coloring {p}")
        for (u, v), c in zip(coloring.host.edges(), coloring.colors):
            e = (part[u], part[v])
            edges.append(e)
            color_of[e] = c
    host = Graph.from_edges(n, edges, skeleton.labels)
    composite = EdgeColoring(host, 2, tuple(color_of[e] for e in host.edges()))
    _check_avoids(composite, t, k * (ell - 1) + 1, "composite")
    return composite


def _avoiding_coloring(host: Graph, targets, name: str) -> EdgeColoring:
    """A coloring of host with no monochromatic target, found by the
    exact engine; name describes the host in the error raised when the
    engine finds none (Ramsey) or runs out of budget."""
    q = ramsey_query(host, targets)
    verdict = decide_ramsey(q)
    if verdict.status != NOT_RAMSEY:
        avoid = ",".join("+".join(p.describe() for p in side) for side in q.targets)
        raise ConstructionError(
            f"{name} admits no coloring avoiding {avoid} ({verdict.status})")
    return verdict.witness


def clique_split_coloring(n: int, k: int, s: int, t: int,
                          ab: tuple[Sequence[int], Sequence[int]],
                          random_part: Graph,
                          phi: Optional[EdgeColoring] = None) -> EdgeColoring:
    """Two-piece coloring of a balanced k-partite skeleton plus random
    in-part edges, avoiding red K_t and blue K_s.

    The vertex set splits into certified pieces A and B: the random
    graph restricted to A must have no clique on t vertices, restricted
    to B none on ceil(t/a) vertices, where a is the least size whose
    clique Ramsey number against K_{s-k} exceeds k.  Edges inside each
    A_i or B_i are red, every edge leaving an A_i is blue, and edges
    between B_i and B_j take the color of {i,j} in a K_k coloring phi
    with no red K_{a+1} and no blue K_{s-k} (when omitted, the one the
    engine found while computing a).  phi and the composite are
    re-verified by verify_coloring.
    """
    from .thresholds import _least_quotient_clique

    if not k + 2 <= s <= 2 * k or t < s:
        raise ConstructionError("needs k+2 <= s <= 2k and t >= s")
    if random_part.n != n:
        raise ConstructionError("random part has the wrong vertex count")
    a_side, b_side = (sorted(ab[0]), sorted(ab[1]))
    if sorted(a_side + b_side) != list(range(n)):
        raise ConstructionError("A and B must partition the vertices")
    a, found = _least_quotient_clique(k, s - k)
    ell = -(-t // a)
    if contains_pattern(random_part.induced(a_side), clique(t)):
        raise ConstructionError("random part on A contains a clique of size t")
    if contains_pattern(random_part.induced(b_side), clique(ell)):
        raise ConstructionError(f"random part on B contains a clique of size {ell}")
    if phi is None:
        # the K_k coloring the search for a found; s - k >= 2 ensures one
        phi = found
    if phi.host.n != k or phi.r != 2:
        raise ConstructionError("phi must 2-color the complete graph on the parts")
    _check_avoids(phi, a + 1, s - k, "phi")
    phi_color = {}
    for (i, j), c in zip(phi.host.edges(), phi.colors):
        phi_color[(i, j)] = c

    skeleton = turan_graph(n, k)
    host = skeleton.union(random_part)
    labels = skeleton.labels
    in_a = set(a_side)
    colors = []
    for u, v in host.edges():
        pu, pv = labels[u], labels[v]
        if pu == pv:
            same_piece = (u in in_a) == (v in in_a)
            colors.append(RED if same_piece else BLUE)
        elif u in in_a or v in in_a:
            colors.append(BLUE)
        else:
            key = (min(pu, pv), max(pu, pv))
            colors.append(phi_color[key])
    composite = EdgeColoring(host, 2, tuple(colors))
    _check_avoids(composite, t, s, "composite")
    return composite


def lift_coloring(base: EdgeColoring, blown: Graph) -> EdgeColoring:
    """Pull a coloring of a base graph up to a blow-up of it.

    blown's labels name base vertices; each cross-class edge takes the
    color of the underlying base edge.  Any base color class that is
    bipartite stays odd-cycle-free after lifting, which is re-verified.
    """
    if blown.labels is None:
        raise ConstructionError("blow-up needs base-vertex labels")
    base_index = base.host.edge_index()
    colors = []
    for u, v in blown.edges():
        i, j = blown.labels[u], blown.labels[v]
        if i == j:
            raise ConstructionError(f"edge ({u},{v}) inside a blow-up class")
        key = (min(i, j), max(i, j))
        if key not in base_index:
            raise ConstructionError(f"edge ({u},{v}) has no base edge {key}")
        colors.append(base.colors[base_index[key]])
    lifted = EdgeColoring(blown, base.r, tuple(colors))
    for c in range(base.r):
        if not base.color_subgraph(c).has_odd_cycle():
            if lifted.color_subgraph(c).has_odd_cycle():
                raise ConstructionError(
                    f"lift of bipartite color {c} gained an odd cycle")
    return lifted


def odd_cycle_free_multicoloring(n: int, r: int, band: int) -> EdgeColoring:
    """Color a balanced multipartite skeleton with every class bipartite.

    band 1: 2^(r-1) parts colored with r-1 classes; band 2: 2^r parts
    with r classes.  Edges join the class of the highest differing bit
    of their part labels, so each class is bipartite; verified per
    class.
    """
    if band not in (1, 2):
        raise ConstructionError("band must be 1 or 2")
    ncolors = r - 1 if band == 1 else r
    if ncolors < 1:
        raise ConstructionError("need at least one color class")
    parts = 1 << ncolors
    if n < parts:
        raise ConstructionError(f"need n >= {parts} vertices")
    skeleton = turan_graph(n, parts)
    classes = bipartite_decomposition(skeleton, ncolors)
    index = skeleton.edge_index()
    colors = [0] * len(index)
    for c, sub in enumerate(classes):
        for e in sub.edges():
            colors[index[e]] = c
    coloring = EdgeColoring(skeleton, ncolors, tuple(colors))
    for c in range(ncolors):
        if coloring.color_subgraph(c).has_odd_cycle():
            raise ConstructionError("a color class contains an odd cycle")
    return coloring
