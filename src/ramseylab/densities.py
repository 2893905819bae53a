"""Exact density calculus: 2-densities, asymmetric densities, partition
densities and first/second moment quantities.

Every subgraph maximum and minimum here is read from the edge profile
emax[v], the most edges induced by any v vertices (v = 0..n).  This is
sound because for a fixed vertex count each quantity is monotone in the
edge count: d2, e/v and e/(v - 2 + 1/m2(H2)) never decrease as edges
are added, and n^v p^e never increases for p <= 1.  The profile walks
how many vertices a subset takes from each twin class (vertices with
the same neighbours besides each other), up to 20 vertices: that is
prod(|class| + 1) steps, 2^n for a twin-free graph and 7^3 = 343 for
Turan(18,3).  The profile is walked once per Graph, on first use, and
kept as a tuple in the graph's _profile slot; every maximum and minimum
below reads it through _profile, so asking one graph for m2, m2_asym,
rho, strict balance, mu0 and mu1 costs one walk.  rho_k walks subsets
of its own, up to 14.  Rational results are exact Fractions; the
moment quantities work in log-domain floats unless given a rational
edge probability, in which case they are exact too.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

from .graphs import Graph, Pattern, _bits, twin_classes

_ENUM_LIMIT = 20
_PARTITION_LIMIT = 14

GraphLike = Union[Graph, Pattern]


def _frac(x) -> str:
    """x as exact "num/den" text, the form every JSON output uses."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _as_graph(h: GraphLike) -> Graph:
    return h.to_graph() if isinstance(h, Pattern) else h


def _edge_profile(g: Graph) -> list[int]:
    """emax[v]: the most edges induced by any v vertices, for v = 0..n.

    Twins (graphs.twin_classes) are interchangeable, so a subset's edge
    count depends only on how many vertices it takes from each class.
    The vertices are relabelled with the singleton classes first.  An
    outer reflected mixed-radix Gray code walks the counts c_i taken
    from each larger class (its first c_i vertices); at each count
    vector an inner binary Gray code walks the singleton subsets on top
    of them.  Each step of either adds or drops one vertex, moving the
    edge count by its neighbours in the subset.  That is prod(|class|+1)
    steps in all: 2^n for a twin-free graph, where only the inner walk
    runs, and 343 for Turan(18,3).
    """
    if g.n > _ENUM_LIMIT:
        raise ValueError(f"subset enumeration limited to {_ENUM_LIMIT} vertices")
    classes = [members for members, _ in twin_classes(g)]
    order = [v for members in classes if not members & (members - 1)
             for v in _bits(members)]
    singles = len(order)
    starts, tops = [], []
    for members in classes:
        if members & (members - 1):
            starts.append(len(order))
            tops.append(members.bit_count())
            order.extend(_bits(members))
    label = [0] * g.n
    for i, v in enumerate(order):
        label[v] = i
    adj = [sum(1 << label[u] for u in _bits(g.adj[v])) for v in order]
    emax = [0] * (g.n + 1)
    count = [0] * len(starts)
    step = [1] * len(starts)
    base = base_edges = 0
    while True:
        mask, edges = base, base_edges
        size = mask.bit_count()
        if edges > emax[size]:
            emax[size] = edges
        for i in range(1, 1 << singles):
            bit = i & -i
            mask ^= bit
            inside = (adj[bit.bit_length() - 1] & mask).bit_count()
            edges += inside if mask & bit else -inside
            size = mask.bit_count()
            if edges > emax[size]:
                emax[size] = edges
        # next count vector: the first class that can move on in its
        # direction does; the ones before it turn around
        k = 0
        while k < len(count) and not 0 <= count[k] + step[k] <= tops[k]:
            step[k] = -step[k]
            k += 1
        if k == len(count):
            return emax
        v = starts[k] + count[k] - (step[k] < 0)
        count[k] += step[k]
        base ^= 1 << v
        inside = (adj[v] & base).bit_count()
        base_edges += inside if step[k] > 0 else -inside


def _profile(g: Graph) -> tuple[int, ...]:
    """g's edge profile (_edge_profile), walked on the first call for g
    and read from its _profile slot after that."""
    if g._profile is None:
        g._profile = tuple(_edge_profile(g))
    return g._profile


def d2_of_counts(v: int, e: int) -> Fraction:
    """2-density from a (vertices, edges) pair."""
    if e == 0:
        return Fraction(0)
    if v == 2:
        return Fraction(1, 2)
    return Fraction(e - 1, v - 2)


def d2(h: GraphLike) -> Fraction:
    """2-density: (e-1)/(v-2), with 0 for edgeless graphs and 1/2 for a
    single edge."""
    g = _as_graph(h)
    if g.n == 0:
        raise ValueError("2-density needs a nonempty graph")
    return d2_of_counts(g.n, g.edge_count)


def _d2_by_order(g: Graph) -> list[Fraction]:
    """d2 of g's densest v-vertex subgraph, for v = 1..n."""
    if g.n == 0:
        raise ValueError("maximum 2-density needs a nonempty graph")
    return [d2_of_counts(v, e) for v, e in enumerate(_profile(g)) if v]


def m2(h: GraphLike) -> Fraction:
    """Maximum 2-density over all subgraphs."""
    return max(_d2_by_order(_as_graph(h)))


def _asym_by_order(h1: GraphLike, h2: GraphLike) -> list[Fraction]:
    """e / (v - 2 + 1/m2(h2)) of h1's densest v-vertex subgraph, for each
    v where that subgraph has an edge; the last entry is all of h1."""
    g1, g2 = _as_graph(h1), _as_graph(h2)
    if g1.edge_count == 0 or g2.edge_count == 0:
        raise ValueError("asymmetric density needs an edge in both graphs")
    emax = _profile(g1)
    m2_h2 = m2(g2)
    if max(d2_of_counts(v, e) for v, e in enumerate(emax)) < m2_h2:
        raise ValueError("asymmetric density needs m2(h1) >= m2(h2)")
    shift = 1 / m2_h2 - 2
    return [Fraction(e) / (v + shift) for v, e in enumerate(emax) if e >= 1]


def m2_asym(h1: GraphLike, h2: GraphLike) -> Fraction:
    """Asymmetric 2-density of an ordered pair.

    Maximizes e' / (v' - 2 + 1/m2(h2)) over subgraphs of h1 with at
    least one edge.  Requires m2(h1) >= m2(h2) and an edge in each.
    """
    return max(_asym_by_order(h1, h2))


def is_strictly_2_balanced(h: GraphLike) -> bool:
    """True when only the whole graph attains the maximum 2-density."""
    *proper, full = _d2_by_order(_as_graph(h))
    return all(d < full for d in proper)


def is_strictly_balanced_wrt(h1: GraphLike, h2: GraphLike) -> bool:
    """True when only all of h1 attains the asymmetric density of (h1, h2)."""
    *proper, full = _asym_by_order(h1, h2)
    return all(d < full for d in proper)


def rho(f: GraphLike) -> Fraction:
    """Maximum edge/vertex ratio over all subgraphs."""
    g = _as_graph(f)
    if g.n == 0:
        raise ValueError("density needs a nonempty graph")
    return max(Fraction(e, v) for v, e in enumerate(_profile(g)) if v)


def _rho_of_subset(adj: tuple[int, ...], subset: int, cache: dict[int, Fraction]) -> Fraction:
    got = cache.get(subset)
    if got is not None:
        return got
    edges = sum((adj[v] & subset).bit_count() for v in _bits(subset)) // 2
    best = Fraction(edges, subset.bit_count())
    if subset.bit_count() > 1:
        for v in _bits(subset):
            sub = _rho_of_subset(adj, subset & ~(1 << v), cache)
            if sub > best:
                best = sub
    cache[subset] = best
    return best


def rho_k(f: GraphLike, k: int) -> Fraction:
    """Minimum over vertex partitions into at most k parts of the largest
    part density."""
    value, _ = rho_k_with_partition(f, k)
    return value


def rho_k_with_partition(f: GraphLike, k: int) -> tuple[Fraction, list[list[int]]]:
    """rho_k together with an optimal partition (parts as vertex lists)."""
    g = _as_graph(f)
    if k < 1:
        raise ValueError("need at least one part")
    if g.n == 0:
        raise ValueError("density needs a nonempty graph")
    if g.n > _PARTITION_LIMIT:
        raise ValueError(f"partition enumeration limited to {_PARTITION_LIMIT} vertices")
    adj = g.adj
    cache: dict[int, Fraction] = {}
    best: Optional[Fraction] = None
    best_parts: list[int] = []
    parts: list[int] = []

    def assign(v: int):
        nonlocal best, best_parts
        if v == g.n:
            worst = max(_rho_of_subset(adj, part, cache) for part in parts)
            if best is None or worst < best:
                best = worst
                best_parts = list(parts)
            return
        # restricted growth: vertex v joins an existing part or opens the next
        for i in range(len(parts)):
            parts[i] |= 1 << v
            if best is None or _rho_of_subset(adj, parts[i], cache) < best:
                assign(v + 1)
            parts[i] &= ~(1 << v)
        if len(parts) < k:
            parts.append(1 << v)
            assign(v + 1)
            parts.pop()

    assign(0)
    assert best is not None
    return best, [sorted(_bits(p)) for p in best_parts]


def rho_bound_hm(m: int, r: int) -> tuple[Fraction, list[list[int]]]:
    """Partition witness showing the matched-multipartite gadget on
    (2^r + 1) parts of size m splits into 2^(r-1) + 1 pieces of density
    at most 1/2.

    Pairs of matched parts go together (each induces a perfect
    matching), the last part stands alone.  Parts small enough for
    subset enumeration are verified by rho directly; larger parts by
    checking the induced graph is 1-regular (so every subgraph has at
    most v/2 edges) or edgeless.
    """
    from .graphs import hmr_graph

    if r < 2:
        raise ValueError("need r >= 2")
    g = hmr_graph(m, r)
    half = 1 << (r - 1)
    groups = []
    for i in range(half):
        groups.append([p * m + a for p in (2 * i, 2 * i + 1) for a in range(m)])
    groups.append([(1 << r) * m + a for a in range(m)])
    bound = Fraction(1, 2)
    for vs in groups:
        sub = g.induced(vs)
        if sub.n <= _PARTITION_LIMIT:
            part_rho = rho(sub)
        elif all(sub.degree(v) <= 1 for v in range(sub.n)):
            part_rho = Fraction(1, 2) if sub.edge_count else Fraction(0)
        else:
            raise ValueError("witness part fails the 1-regularity check")
        if part_rho > bound:
            raise ValueError("witness partition exceeds the claimed density")
    return bound, groups


# ---------------------------------------------------------------------
# First and second moment quantities

Prob = Union[float, Fraction, int]


def _mu_candidates(g: Graph, proper_only: bool) -> list[tuple[int, int]]:
    """(v, e) pairs that can minimize n^v p^e over subgraphs with an edge.

    Since p <= 1, the densest subgraph on each vertex count v < n
    dominates; on all n vertices the candidate is the whole graph, or
    for proper subgraphs the whole graph less one edge.
    """
    emax = list(_profile(g))
    if proper_only:
        emax[-1] -= 1
    return [(v, e) for v, e in enumerate(emax) if e >= 1]


def _check_prob(p: Prob):
    if not 0 <= p <= 1:
        raise ValueError("edge probability must lie in [0, 1]")


def _mu(h: GraphLike, n: int, p: Prob, proper_only: bool) -> Union[float, Fraction]:
    """min n^v p^e over the subgraphs of h with an edge, proper ones
    only when proper_only; infinite when there are none."""
    g = _as_graph(h)
    if g.edge_count == 0:
        raise ValueError("moment quantities need at least one edge")
    if n < 1:
        raise ValueError("need n >= 1")
    _check_prob(p)
    pairs = _mu_candidates(g, proper_only)
    if not pairs:
        return math.inf
    if isinstance(p, (Fraction, int)):
        return min(Fraction(n) ** v * Fraction(p) ** e for v, e in pairs)
    if p == 0.0:
        return 0.0
    logs = min(v * math.log(n) + e * math.log(p) for v, e in pairs)
    return math.inf if logs > 700 else math.exp(logs)


def mu0(h: GraphLike, n: int, p: Prob) -> Union[float, Fraction]:
    """Smallest expected copy-count scale over proper subgraphs with an
    edge: min n^v' p^e'.  Infinite when no such subgraph exists."""
    return _mu(h, n, p, proper_only=True)


def mu1(h: GraphLike, n: int, p: Prob) -> Union[float, Fraction]:
    """Smallest expected copy-count scale over all subgraphs with an edge."""
    return _mu(h, n, p, proper_only=False)


def _log_value(x: Union[float, Fraction]) -> float:
    # Fractions may exceed float range; log their integer parts instead
    if isinstance(x, Fraction):
        return math.log(x.numerator) - math.log(x.denominator)
    return math.log(x)


def janson_bound(h: GraphLike, n: int, p: Prob, xi: float) -> float:
    """Upper bound exp(-xi * mu1 / (2^(v+1) v!)) on the probability of
    undershooting the expected copy count by a (1 - xi) factor."""
    g = _as_graph(h)
    if not 0 < xi <= 1:
        raise ValueError("xi must lie in (0, 1]")
    value = mu1(g, n, p)
    if value == 0:
        return 1.0
    log_term = math.log(xi) + _log_value(value) \
        - (g.n + 1) * math.log(2) - math.lgamma(g.n + 1)
    if log_term > 700:
        return 0.0
    return math.exp(-math.exp(log_term))


def covariance_bound(h: GraphLike, n: int, p: Prob, count: int) -> float:
    """Upper bound 2^v v! count n^v p^(2e) / mu0 on the pair-overlap sum
    controlling the second moment of the copy count."""
    g = _as_graph(h)
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0 or p == 0:
        return 0.0
    base = mu0(g, n, p)
    if base == math.inf:
        return 0.0
    log_term = g.n * math.log(2) + math.lgamma(g.n + 1) + math.log(count) \
        + g.n * math.log(n) + 2 * g.edge_count * math.log(float(p)) \
        - _log_value(base)
    return math.inf if log_term > 700 else math.exp(log_term)
