"""Brute-force reference implementations for cross-checking.

Everything here favors obviousness over speed: explicit enumeration of
injective maps, vertex subsets, set partitions, and full coloring
spaces.  Kept independent of the package's algorithms; only the Graph
container and Pattern descriptions are shared vocabulary.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from ramseylab.graphs import (Graph, Pattern, _embedding_plan, _iter_embeddings,
                              iter_pattern_witnesses_through_edge)


def contains_brute(g: Graph, pat: Pattern) -> bool:
    """Injective-map subgraph containment, all vertex tuples."""
    pg = pat.to_graph()
    k = pg.n
    if k > g.n:
        return False
    for image in itertools.permutations(range(g.n), k):
        if all(g.has_edge(image[u], image[v]) for u, v in pg.edges()):
            return True
    return False


def copies_brute(g: Graph, pat: Pattern) -> set[frozenset[tuple[int, int]]]:
    """Distinct copies as edge sets (the identity that matters for
    counting and for forbidden-set semantics)."""
    pg = pat.to_graph()
    found = set()
    for image in itertools.permutations(range(g.n), pg.n):
        mapped = []
        ok = True
        for u, v in pg.edges():
            a, b = image[u], image[v]
            if not g.has_edge(a, b):
                ok = False
                break
            mapped.append((min(a, b), max(a, b)))
        if ok:
            found.add(frozenset(mapped))
    return found


def _set_bits(x: int):
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def _nested_cliques(adj, cand: int, need: int, prefix: tuple = ()):
    if need == 1:
        for v in _set_bits(cand):
            yield prefix + (v,)
        return
    if need == 0:
        yield prefix
        return
    while cand.bit_count() >= need:
        b = cand & -cand
        cand ^= b
        v = b.bit_length() - 1
        yield from _nested_cliques(adj, cand & adj[v], need - 1, prefix + (v,))


def _nested_paths(adj, path: tuple, used: int, k: int, ends: int):
    last = path[-1]
    if len(path) == k - 1:
        for w in _set_bits(adj[last] & ends & ~used):
            yield path + (w,)
        return
    for w in _set_bits(adj[last] & ~used):
        yield from _nested_paths(adj, path + (w,), used | 1 << w, k, ends)


def _nested_copies(g: Graph, pat: Pattern):
    if pat.vertex_count > g.n:
        return
    adj = g.adj
    if pat.kind == "clique":
        yield from _nested_cliques(adj, (1 << g.n) - 1, pat.size)
    elif pat.kind == "cycle":
        # every cycle twice, once per direction; w[1] < w[-1] keeps one
        for s in range(g.n):
            for w in _nested_paths(adj, (s,), (1 << (s + 1)) - 1, pat.size, adj[s]):
                if w[1] < w[-1]:
                    yield w
    elif pat.kind == "path":
        if pat.size == 1:
            yield from ((v,) for v in range(g.n))
            return
        for s in range(g.n):
            yield from _nested_paths(adj, (s,), 1 << s, pat.size, ~((1 << (s + 1)) - 1))
    else:
        yield from _iter_embeddings(g.n, adj, _embedding_plan(pat.graph))


def allowed_copies_reference(g: Graph, pat: Pattern, forbidden: frozenset = frozenset()):
    """(witness, ascending canonical edge indices) of every copy whose
    vertex set is not forbidden, one per edge set, in the order of the
    nested-generator listing that keyed each copy by its edge mask (bit
    i for canonical edge i): cliques by recursive lexicographic
    branching, each cycle as a simple path from its least vertex in both
    directions with one dropped, paths as simple paths ending above
    their start.  Arbitrary patterns walk the package's embedding DFS,
    whose order this reference is not about."""
    k = pat.size
    if pat.kind == "clique":
        pairs = list(itertools.combinations(range(k), 2))
    elif pat.kind == "cycle":
        pairs = [(i, (i + 1) % k) for i in range(k)]
    elif pat.kind == "path":
        pairs = [(i, i + 1) for i in range(k - 1)]
    else:
        pairs = list(pat.graph.edges())
    bit = {}
    for i, (a, b) in enumerate(g.edges()):
        bit[a, b] = bit[b, a] = 1 << i
    # cliques, cycles and paths with edges list each edge set once
    seen = set() if pat.kind == "arbitrary" or not pairs else None
    out = []
    for w in _nested_copies(g, pat):
        if frozenset(w) in forbidden:
            continue
        mask = 0
        for i, j in pairs:
            mask |= bit[w[i], w[j]]
        if seen is not None:
            if mask in seen:
                continue
            seen.add(mask)
        out.append((w, tuple(_set_bits(mask))))
    return out


def subgraphs_with_edges(g: Graph):
    """(v, e) over all vertex subsets with at least one edge."""
    for r in range(2, g.n + 1):
        for subset in itertools.combinations(range(g.n), r):
            inside = set(subset)
            e = sum(1 for u, v in g.edges() if u in inside and v in inside)
            if e >= 1:
                yield len(subset), e, subset


def d2_brute(v: int, e: int) -> Fraction:
    if e == 0:
        return Fraction(0)
    if v == 2:
        return Fraction(1, 2)
    return Fraction(e - 1, v - 2)


def m2_brute(g: Graph) -> Fraction:
    best = Fraction(0)
    for v, e, _ in subgraphs_with_edges(g):
        best = max(best, d2_brute(v, e))
    return best


def m2_asym_brute(g1: Graph, g2: Graph) -> Fraction:
    m2_2 = m2_brute(g2)
    best = Fraction(0)
    for v, e, _ in subgraphs_with_edges(g1):
        best = max(best, Fraction(e) / (v - 2 + 1 / m2_2))
    return best


def strictly_2_balanced_brute(g: Graph) -> bool:
    """Every proper nonempty vertex subset has 2-density strictly below
    the whole graph's."""
    whole = d2_brute(g.n, len(g.edges()))
    for r in range(1, g.n):
        for subset in itertools.combinations(range(g.n), r):
            inside = set(subset)
            e = sum(1 for u, v in g.edges() if u in inside and v in inside)
            if d2_brute(r, e) >= whole:
                return False
    return True


def strictly_balanced_wrt_brute(g1: Graph, g2: Graph) -> bool:
    """Every proper vertex subset of g1 with an edge has e/(v - 2 + 1/m2(g2))
    strictly below all of g1's; g1 needs an edge."""
    shift = 1 / m2_brute(g2) - 2
    whole = Fraction(len(g1.edges())) / (g1.n + shift)
    return all(Fraction(e) / (v + shift) < whole
               for v, e, _ in subgraphs_with_edges(g1) if v < g1.n)


def rho_brute(g: Graph) -> Fraction:
    best = Fraction(0)
    for r in range(1, g.n + 1):
        for subset in itertools.combinations(range(g.n), r):
            inside = set(subset)
            e = sum(1 for u, v in g.edges() if u in inside and v in inside)
            best = max(best, Fraction(e, len(subset)))
    return best


def edge_profile_brute(g: Graph) -> list[int]:
    """The most edges induced by any v vertices, for v = 0..n, over every
    v-subset in turn."""
    profile = []
    for r in range(g.n + 1):
        best = 0
        for subset in itertools.combinations(range(g.n), r):
            mask = sum(1 << v for v in subset)
            best = max(best, sum((g.adj[v] & mask).bit_count() for v in subset) // 2)
        profile.append(best)
    return profile


def set_partitions(items: list[int], max_parts: int):
    """All partitions of items into at most max_parts nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest, max_parts):
        for i, block in enumerate(smaller):
            yield smaller[:i] + [block + [first]] + smaller[i + 1:]
        if len(smaller) < max_parts:
            yield smaller + [[first]]


def rho_k_brute(g: Graph, k: int) -> Fraction:
    best = None
    block_rho = {}  # rho_brute of each block's induced subgraph, by vertex set
    for partition in set_partitions(list(range(g.n)), k):
        worst = Fraction(0)
        for block in partition:
            key = tuple(sorted(block))
            if key not in block_rho:
                block_rho[key] = rho_brute(g.induced(key))
            worst = max(worst, block_rho[key])
        if best is None or worst < best:
            best = worst
    return best


def mu_candidates_brute(g: Graph, proper_only: bool):
    full_e = len(g.edges())
    for v, e, subset in subgraphs_with_edges(g):
        if proper_only and v == g.n and e == full_e:
            if full_e >= 2:
                yield v, full_e - 1
            continue
        yield v, e


def mu0_brute(g: Graph, n: int, p: Fraction):
    values = [Fraction(n) ** v * Fraction(p) ** e
              for v, e in mu_candidates_brute(g, proper_only=True)]
    return min(values) if values else float("inf")


def mu1_brute(g: Graph, n: int, p: Fraction) -> Fraction:
    return min(Fraction(n) ** v * Fraction(p) ** e
               for v, e in mu_candidates_brute(g, proper_only=False))


def ramsey_brute(host: Graph, targets, forbidden=None):
    """Exhaustive check over all len(targets)^edges colorings.

    Returns (is_ramsey, witness_colors or None).  forbidden: per color,
    a collection of vertex sets on which monochromatic copies do not
    count.
    """
    edges = host.edges()
    r = len(targets)
    if forbidden is None:
        forbidden = [set() for _ in targets]
    forbidden = [set(frozenset(vs) for vs in entry) for entry in forbidden]
    for colors in itertools.product(range(r), repeat=len(edges)):
        if _coloring_avoids(host, edges, colors, targets, forbidden):
            return False, colors
    return True, None


def first_avoiding_coloring_brute(query):
    """The first valid coloring in decide_ramsey's branching order, by
    plain chronological backtracking: edges sorted by (b, a), color 0
    first, a color refused when the new edge completes a copy listed by
    iter_pattern_witnesses_through_edge whose vertex set is not
    forbidden; no backjumping and no symmetry breaking.

    Returns (is_ramsey, witness colors in canonical edge order or None).
    """
    host = query.host
    edges = host.edges()
    order = sorted(range(len(edges)), key=lambda i: (edges[i][1], edges[i][0]))
    classes = [[] for _ in range(query.r)]
    colors = [None] * len(edges)

    def completes(c, e):
        g = Graph.from_edges(host.n, classes[c])
        return any(frozenset(w) not in query.forbidden[c]
                   for pat in query.targets[c]
                   for w in iter_pattern_witnesses_through_edge(g, pat, e))

    def extend(d):
        if d == len(order):
            return True
        e = edges[order[d]]
        for c in range(query.r):
            classes[c].append(e)
            if not completes(c, e):
                colors[order[d]] = c
                if extend(d + 1):
                    return True
            classes[c].pop()
        return False

    if extend(0):
        return False, tuple(colors)
    return True, None


def _coloring_avoids(host, edges, colors, targets, forbidden) -> bool:
    for c, pats in enumerate(targets):
        chosen = [e for e, col in zip(edges, colors) if col == c]
        sub = host.subgraph_with_edges(chosen)
        for pat in pats:
            for copy in copies_brute(sub, pat):
                vertices = frozenset(v for e in copy for v in e)
                if vertices not in forbidden[c]:
                    return False
    return True


def random_graph(rng, n: int, p: float) -> Graph:
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
             if rng.random() < p]
    return Graph.from_edges(n, edges)
