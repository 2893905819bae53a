"""Small dense graphs on up to 64 vertices, with bitset adjacency.

Vertices are 0..n-1 and every neighborhood is a Python int used as a
bitset, so adjacency tests, common neighborhoods and clique search are
single integer operations.  Graphs are immutable and hashable.  The
canonical edge order used everywhere (coloring, CNF variables, edge
sampling) is lexicographic on (min, max).

A graph holds at most MAX_VERTICES = 64 vertices.  _check_order is the
one test of that cap: every constructor and family builder calls it
before allocating anything the size of its argument, so an oversized
request is a ValueError at once.  A count made from a power 2^e is
first checked by _check_power, which refuses a huge exponent before
1 << e is computed.

A copy of a pattern is listed as a witness vertex tuple; its edges are
the witness positions of _copy_pairs.  _allowed_copies is the one
whole-graph lister, read by find_pattern, contains_pattern,
enumerate_copies, coloring.verify_coloring and coloring.export_cnf.  It
gives each copy with its canonical edge indices in ascending order,
read from an ids[a][b] table built at the first copy (_edge_ids).
Cycles come from one flat single-frame DFS kernel, _cycle_copies, which
reads the indices of a copy's prefix once for all its closing vertices;
every other kind from its iterator in _listed_copies, so cliques come
from _iter_cliques: a flat clique kernel measured no faster.  Cliques,
cycles and paths with edges are listed once by construction, so only
arbitrary and edgeless patterns are deduplicated, on their index
tuples.  _first_clique walks the branching of _iter_cliques with no
generator frames, for callers that want only the first clique: the
engine's clique finder and the scan's K_R tests.
Arbitrary patterns are embedded by one iterative DFS, _iter_embeddings,
which places the pattern's vertices in the order _embedding_plan fixes:
pinned vertices first, then by decreasing degree.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence

MAX_VERTICES = 64


def _bits(x: int) -> Iterator[int]:
    """Yield set bit positions of x in increasing order."""
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def _check_order(n: int) -> None:
    """Raise unless a graph can have n vertices; the one test of the
    MAX_VERTICES cap."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")


def _check_power(e: int) -> None:
    """Raise before 1 << e is computed when that would build an int of
    more than MAX_VERTICES^2 = 4096 bits.  A smaller power is cheap to
    build and to print, so a count made from it reaches _check_order
    and its message; past that neither number is printed, since either
    may be too long."""
    if e > MAX_VERTICES * MAX_VERTICES:
        raise ValueError(f"vertex count over 2^{MAX_VERTICES * MAX_VERTICES} "
                         f"outside 0..{MAX_VERTICES}")


def _check_vertex(n: int, v: int) -> None:
    """Raise unless v is a vertex of an n-vertex graph; a negative v
    would otherwise index adjacency from the end."""
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} out of range for n={n}")


class Graph:
    """Immutable undirected simple graph.

    adj[v] is the neighborhood bitset of v.  labels, when present, give
    each vertex a part index (used by multipartite families).  _edges
    and _profile (densities._profile) are filled on first use.
    """

    __slots__ = ("n", "adj", "labels", "_edges", "_profile")

    def __init__(self, n: int, adj: tuple[int, ...], labels: Optional[tuple[int, ...]] = None):
        _check_order(n)
        if len(adj) != n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & (1 << v):
                raise ValueError(f"loop at vertex {v}")
            if row & ~full:
                raise ValueError(f"neighbor out of range at vertex {v}")
            for u in _bits(row):
                if not adj[u] & (1 << v):
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        if labels is not None and len(labels) != n:
            raise ValueError("label length does not match vertex count")
        self.n = n
        self.adj = tuple(adj)
        self.labels = tuple(labels) if labels is not None else None
        self._edges: Optional[tuple[tuple[int, int], ...]] = None
        self._profile: Optional[tuple[int, ...]] = None

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]],
                   labels: Optional[Iterable[int]] = None) -> "Graph":
        _check_order(n)
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj), tuple(labels) if labels is not None else None)

    # -- basic queries -------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        _check_vertex(self.n, u)
        _check_vertex(self.n, v)
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        _check_vertex(self.n, v)
        return self.adj[v].bit_count()

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (min, max) pairs in canonical lexicographic order."""
        if self._edges is None:
            out = []
            for u in range(self.n):
                for v in _bits(self.adj[u] >> (u + 1)):
                    out.append((u, u + 1 + v))
            self._edges = tuple(out)
        return self._edges

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges())}

    def is_complete(self) -> bool:
        full = (1 << self.n) - 1
        return all(self.adj[v] == full ^ (1 << v) for v in range(self.n))

    # -- derived graphs ------------------------------------------------

    def induced(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph, relabelled 0..k-1 preserving vertex order."""
        vs = sorted(set(vertices))
        for v in vs[:1] + vs[-1:]:
            _check_vertex(self.n, v)
        pos = {v: i for i, v in enumerate(vs)}
        edges = [(pos[u], pos[v]) for u, v in itertools.combinations(vs, 2)
                 if self.has_edge(u, v)]
        labels = tuple(self.labels[v] for v in vs) if self.labels is not None else None
        return Graph.from_edges(len(vs), edges, labels)

    def union(self, other: "Graph") -> "Graph":
        """Edge union on a shared vertex set; keeps this graph's labels."""
        if other.n != self.n:
            raise ValueError("union requires equal vertex counts")
        adj = tuple(a | b for a, b in zip(self.adj, other.adj))
        return Graph(self.n, adj, self.labels)

    def subgraph_with_edges(self, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Same vertex set, only the given edges (must exist here)."""
        es = list(edges)
        for u, v in es:
            if not self.has_edge(u, v):
                raise ValueError(f"({u},{v}) is not an edge")
        return Graph.from_edges(self.n, es, self.labels)

    def two_coloring(self) -> Optional[tuple[int, ...]]:
        """A proper 2-coloring of the vertices, or None if an odd cycle exists."""
        color = [-1] * self.n
        for s in range(self.n):
            if color[s] >= 0:
                continue
            color[s] = 0
            queue = [s]
            while queue:
                u = queue.pop()
                for v in _bits(self.adj[u]):
                    if color[v] < 0:
                        color[v] = 1 - color[u]
                        queue.append(v)
                    elif color[v] == color[u]:
                        return None
        return tuple(color)

    def has_odd_cycle(self) -> bool:
        return self.two_coloring() is None

    # -- value semantics ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Graph) and self.n == other.n
                and self.adj == other.adj and self.labels == other.labels)

    def __hash__(self) -> int:
        return hash((self.n, self.adj, self.labels))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def twin_classes(g: Graph) -> list[tuple[int, bool]]:
    """The twin classes of g as (members bitset, adjacent) pairs, ordered
    by least member.

    u and v are twins when N(u) - {v} = N(v) - {u}: false twins (equal
    open neighborhoods) when non-adjacent, true twins (equal closed
    neighborhoods) when adjacent.  No vertex has both kinds, so twinness
    is an equivalence; each class is an independent set or, flagged
    adjacent, a clique.  A singleton class is flagged False.
    """
    adj = g.adj
    by_open: dict[int, int] = {}
    by_closed: dict[int, int] = {}
    for v, row in enumerate(adj):
        by_open[row] = by_open.get(row, 0) | 1 << v
        closed = row | 1 << v
        by_closed[closed] = by_closed.get(closed, 0) | 1 << v
    classes = []
    seen = 0
    for v, row in enumerate(adj):
        if seen >> v & 1:
            continue
        members = by_closed[row | 1 << v]
        adjacent = members != 1 << v
        if not adjacent:
            members = by_open[row]
        classes.append((members, adjacent))
        seen |= members
    return classes


# ---------------------------------------------------------------------
# Records


class _Record:
    """Base of the package's plain result records, in place of dataclasses.

    A record's fields are its __init__ parameters, in order; each
    subclass writes that __init__ out by hand.  The base adds what a
    dataclass would: a field-wise __eq__ (NotImplemented across
    classes), a __repr__ in the dataclass text, and __match_args__.
    Plain records stay mutable and unhashable.  Not importing
    dataclasses, and not exec-ing a generated method per record, keeps
    the package's import cheap.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__init__" in cls.__dict__:  # not _FrozenRecord itself
            code = cls.__init__.__code__
            cls.__match_args__ = code.co_varnames[1:code.co_argcount]
            # a tuple of the field values (every record has at least two)
            cls._values = attrgetter(*cls.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({body})"


class _FrozenRecord(_Record):
    """A _Record whose fields cannot change: its __init__ fills __dict__
    directly, assignment and deletion raise AttributeError, and it
    hashes by value, as the tuple of its fields does."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values(self))


# ---------------------------------------------------------------------
# Patterns


class Pattern(_FrozenRecord):
    """A target shape to look for as a (not necessarily induced) subgraph.

    kind is one of "clique", "cycle", "path", "arbitrary".  size is the
    vertex count for clique/path and the length for cycle; arbitrary
    patterns carry their graph.
    """

    def __init__(self, kind: str, size: int = 0, graph: Optional[Graph] = None):
        if kind not in ("clique", "cycle", "path", "arbitrary"):
            raise ValueError(f"unknown pattern kind {kind!r}")
        if kind == "clique" and size < 1:
            raise ValueError("clique size must be >= 1")
        if kind == "cycle" and size < 3:
            raise ValueError("cycle length must be >= 3")
        if kind == "path" and size < 1:
            raise ValueError("path vertex count must be >= 1")
        if kind == "arbitrary" and (graph is None or graph.n < 1):
            raise ValueError("arbitrary pattern needs a nonempty graph")
        self.__dict__.update(kind=kind, size=size, graph=graph)

    @property
    def vertex_count(self) -> int:
        if self.kind == "arbitrary":
            return self.graph.n
        return self.size

    @property
    def pattern_edge_count(self) -> int:
        if self.kind == "clique":
            return self.size * (self.size - 1) // 2
        if self.kind == "cycle":
            return self.size
        if self.kind == "path":
            return self.size - 1
        return self.graph.edge_count

    def to_graph(self) -> Graph:
        if self.kind == "clique":
            return clique_graph(self.size)
        if self.kind == "cycle":
            return cycle_graph(self.size)
        if self.kind == "path":
            return path_graph(self.size)
        return self.graph

    def describe(self) -> str:
        if self.kind == "clique":
            return f"K{self.size}"
        if self.kind == "cycle":
            return f"C{self.size}"
        if self.kind == "path":
            return f"P{self.size}"
        return f"graph(n={self.graph.n},m={self.graph.edge_count})"


def clique(t: int) -> Pattern:
    return Pattern("clique", t)


def cycle(length: int) -> Pattern:
    return Pattern("cycle", length)


def path(vertices: int) -> Pattern:
    return Pattern("path", vertices)


def arbitrary(g: Graph) -> Pattern:
    return Pattern("arbitrary", 0, g)


def clique_order(pat: Pattern) -> Optional[int]:
    """Order t if the pattern is (isomorphic to) a complete graph K_t."""
    if pat.kind == "clique":
        return pat.size
    if pat.kind == "cycle":
        return 3 if pat.size == 3 else None
    if pat.kind == "path":
        return pat.size if pat.size <= 2 else None
    return pat.graph.n if pat.graph.is_complete() else None


def cycle_length(pat: Pattern) -> Optional[int]:
    """Length l if the pattern is (isomorphic to) a cycle C_l."""
    if pat.kind == "cycle":
        return pat.size
    if pat.kind == "clique":
        return 3 if pat.size == 3 else None
    if pat.kind == "path":
        return None
    g = pat.graph
    # a 2-regular graph is a single cycle when it has a Hamiltonian one
    if (g.n >= 3 and all(row.bit_count() == 2 for row in g.adj)
            and contains_pattern(g, cycle(g.n))):
        return g.n
    return None


# ---------------------------------------------------------------------
# Containment search

def _iter_cliques(adj: tuple[int, ...], cand: int, need: int,
                  prefix: tuple[int, ...] = ()) -> Iterator[tuple[int, ...]]:
    """Yield prefix + c for every need-clique c inside the candidate bitset.

    Each clique is listed once, as an increasing tuple, in lexicographic
    order: branching on v leaves only v's higher neighbors as candidates.
    A branch left with too few candidates is skipped before its
    generator is made.
    """
    if need == 1:
        for v in _bits(cand):
            yield prefix + (v,)
        return
    if need == 0:
        yield prefix
        return
    while cand.bit_count() >= need:
        b = cand & -cand
        cand ^= b
        v = b.bit_length() - 1
        rest = cand & adj[v]
        if rest.bit_count() >= need - 1:
            yield from _iter_cliques(adj, rest, need - 1, prefix + (v,))


def _first_clique(adj, cand: int, need: int) -> Optional[list[int]]:
    """The first need-clique inside the candidate bitset in the order of
    _iter_cliques, highest vertex first, or None: its branching with no
    generator frames or tuples, for callers that want one clique."""
    if need == 1:
        return [(cand & -cand).bit_length() - 1] if cand else None
    if not need:
        return []
    while cand.bit_count() >= need:
        b = cand & -cand
        cand ^= b
        w = b.bit_length() - 1
        rest = _first_clique(adj, cand & adj[w], need - 1)
        if rest is not None:
            rest.append(w)
            return rest
    return None


def _iter_simple_paths(adj, path_: tuple[int, ...], used: int, k: int, ends: int
                       ) -> Iterator[tuple[int, ...]]:
    """Every simple path that extends path_ to k > len(path_) vertices
    outside the bitset used (which holds path_) and ends in the bitset
    ends, in ascending DFS order.  The last step only visits ends."""
    last = path_[-1]
    if len(path_) == k - 1:
        for w in _bits(adj[last] & ends & ~used):
            yield path_ + (w,)
        return
    for w in _bits(adj[last] & ~used):
        yield from _iter_simple_paths(adj, path_ + (w,), used | 1 << w, k, ends)


def _iter_cycles_through(adj, u: int, v: int, length: int) -> Iterator[tuple[int, ...]]:
    """Cycles of the given length using edge (u,v), as vertex tuples starting u, ending v."""
    for w in _iter_simple_paths(adj, (u,), 1 << u | 1 << v, length - 1, adj[v]):
        yield w + (v,)


def _iter_paths(g: Graph, k: int) -> Iterator[tuple[int, ...]]:
    """Each path on k vertices exactly once (smaller endpoint first)."""
    if k == 1:
        for v in range(g.n):
            yield (v,)
        return
    for s in range(g.n):
        # ending above s drops each path's reverse
        yield from _iter_simple_paths(g.adj, (s,), 1 << s, k, ~((1 << (s + 1)) - 1))


def _embedding_plan(pg: Graph, pinned: tuple[int, ...] = ()) -> list[tuple[int, int, list[int]]]:
    """The order in which _iter_embeddings places pg's vertices: the
    pinned ones first, as given, then the rest by decreasing degree,
    ties to the lower vertex.  Each step is (pattern vertex, its degree,
    its neighbors placed at earlier steps)."""
    rest = sorted((v for v in range(pg.n) if v not in pinned), key=lambda v: (-pg.degree(v), v))
    plan = []
    placed = 0
    for pv in (*pinned, *rest):
        plan.append((pv, pg.degree(pv), list(_bits(pg.adj[pv] & placed))))
        placed |= 1 << pv
    return plan


def _iter_embeddings(n: int, adj, plan: list, head: tuple[int, ...] = (),
                     cap: Optional[list] = None) -> Iterator[tuple[int, ...]]:
    """Injective maps of a pattern into the host adjacency sending edges
    to edges, as tuples indexed by pattern vertex.

    The DFS places the pattern vertices in the order of plan (from
    _embedding_plan), the i-th on head[i] when i < len(head), each on
    the free host vertices, ascending, that are adjacent to the images
    of its earlier neighbors and have at least its degree.  cap, when
    given, is a one-item list holding the placements the DFS may still
    make; each placement takes one, the DFS stops when none is left, and
    the list holds what is left whenever a map is yielded or the DFS ends.
    """
    k = len(plan)
    if k > n:
        return
    assign = [0] * k
    stack = [0] * k  # the candidates left at each step
    fixed = len(head)
    full = (1 << n) - 1
    used = i = 0
    left = -1 if cap is None else cap[0]  # below 0: no cap
    cand = full & (1 << head[0]) if fixed else full
    pv, deg, _ = plan[0]
    while left:
        if not cand:
            if not i:
                break
            i -= 1
            pv, deg, _ = plan[i]
            used ^= 1 << assign[pv]
            cand = stack[i]
            continue
        b = cand & -cand
        cand ^= b
        hv = b.bit_length() - 1
        if adj[hv].bit_count() < deg:
            continue
        assign[pv] = hv
        left -= 1
        if i == k - 1:
            if cap is not None:
                cap[0] = left
            yield tuple(assign)
            continue
        stack[i] = cand
        used |= b
        i += 1
        pv, deg, earlier = plan[i]
        cand = full & ~used
        if i < fixed:
            cand &= 1 << head[i]
        for pu in earlier:
            cand &= adj[assign[pu]]
    if cap is not None:
        cap[0] = left


def find_pattern(g: Graph, pat: Pattern) -> Optional[tuple[int, ...]]:
    """The witness of the first copy of pat in g that _allowed_copies
    lists, or None."""
    return next((w for w, _ in _allowed_copies(g, pat, frozenset())), None)


def contains_pattern(g: Graph, pat: Pattern) -> bool:
    return find_pattern(g, pat) is not None


def _iter_through(n: int, adj, u: int, v: int, pat: Pattern) -> Iterator[tuple[int, ...]]:
    """Every copy of pat through edge (u,v) of the raw adjacency, as
    witness vertex tuples; the pattern kind's own iterator is returned.

    Cliques start (u, v) and continue increasing; cycles start u and
    end v; paths run through u then v; arbitrary patterns give one
    embedding per copy, as iter_pattern_witnesses_through_edge says.
    """
    kind = pat.kind
    if kind == "clique":
        if pat.size < 2:
            return iter(())
        return _iter_cliques(adj, adj[u] & adj[v], pat.size - 2, (u, v))
    if kind == "cycle":
        return _iter_cycles_through(adj, u, v, pat.size)
    if kind == "path":
        if pat.size < 2:
            return iter(())
        return _iter_paths_through(adj, u, v, pat.size)
    return _iter_embeddings_through(n, adj, pat.graph, u, v)


def _copy_pairs(pat: Pattern) -> list[tuple[int, int]]:
    """Witness positions of pat's edges: the copy with witness tuple w
    has the edges (w[i], w[j])."""
    k = pat.size
    if pat.kind == "clique":
        return list(itertools.combinations(range(k), 2))
    if pat.kind == "cycle":
        return [(i, (i + 1) % k) for i in range(k)]
    if pat.kind == "path":
        return [(i, i + 1) for i in range(k - 1)]
    return list(pat.graph.edges())


def iter_pattern_witnesses_through_edge(g: Graph, pat: Pattern, e: tuple[int, int]
                                        ) -> Iterator[tuple[int, ...]]:
    """All copies of pat in g that use edge e, as witness vertex tuples.

    Each copy, a distinct edge set as in enumerate_copies, is listed
    once.  For a pattern with isolated vertices each placement of them
    is listed too, because forbidden sets name whole vertex sets.  A
    pattern with more vertices than g yields nothing at once, where a
    path or cycle DFS would walk every long path first.
    """
    u, v = e
    if not g.has_edge(u, v):
        raise ValueError(f"({u},{v}) is not an edge of the graph")
    if pat.vertex_count <= g.n:
        yield from _iter_through(g.n, g.adj, u, v, pat)


def _iter_pinned(n: int, adj, plans: list, u: int, v: int) -> Iterator[tuple[int, ...]]:
    """Every embedding sending a pattern edge onto (u,v): for each
    pattern edge (a, b) in canonical order, with plans[i] from
    _embedding_plan(pg, (a, b)), those with a on u, then those with a
    on v.  A copy can come several times."""
    for plan in plans:
        yield from _iter_embeddings(n, adj, plan, (u, v))
        yield from _iter_embeddings(n, adj, plan, (v, u))


def _iter_embeddings_through(n: int, adj, pg: Graph, u: int, v: int
                             ) -> Iterator[tuple[int, ...]]:
    """Embeddings of pg sending some pattern edge onto (u,v), one per
    (vertex set, edge set) pair, keyed by (vertex bitmask, edge mask)
    with bit a*n + b for the edge (a, b), a < b."""
    edges = pg.edges()
    seen = set()
    for w in _iter_pinned(n, adj, [_embedding_plan(pg, e) for e in edges], u, v):
        vertices = mask = 0
        for x in w:
            vertices |= 1 << x
        for a, b in edges:
            x, y = w[a], w[b]
            mask |= 1 << (x * n + y if x < y else y * n + x)
        key = (vertices, mask)
        if key not in seen:
            seen.add(key)
            yield w


def _iter_paths_through(adj, u: int, v: int, k: int) -> Iterator[tuple[int, ...]]:
    """Paths on k vertices containing edge (u,v): left arm from u, right arm from v."""

    def arms(start: int, avoid: int, length: int):
        # simple paths (start, ...) of `length` vertices avoiding bitset `avoid`
        if length == 1:
            return ((start,),)
        return _iter_simple_paths(adj, (start,), avoid | 1 << start, length, -1)

    for left_len in range(1, k):
        for left in arms(u, 1 << v, left_len):
            lbits = 0
            for w in left:
                lbits |= 1 << w
            for right in arms(v, lbits, k - left_len):
                yield left[::-1] + right


def find_pattern_through_edge(g: Graph, pat: Pattern, e: tuple[int, int],
                              forbidden: Iterable[Iterable[int]] = frozenset()
                              ) -> Optional[tuple[int, ...]]:
    """First copy of pat through e whose vertex set is not forbidden;
    forbidden holds vertex iterables, each read as a set."""
    forbidden = frozenset(frozenset(vs) for vs in forbidden)
    for w in iter_pattern_witnesses_through_edge(g, pat, e):
        if frozenset(w) not in forbidden:
            return w
    return None


def enumerate_copies(g: Graph, pat: Pattern) -> list[tuple[tuple[int, ...], tuple[tuple[int, int], ...]]]:
    """All distinct copies of pat in g as (witness vertices, canonical edge list).

    Copies are distinct edge subsets; the list order is deterministic
    (lexicographic on the vertex tuple for cliques).
    """
    edges = g.edges()
    return [(w, tuple([edges[i] for i in ids]))
            for w, ids in _allowed_copies(g, pat, frozenset())]


def _edge_ids(g: Graph) -> list[list[int]]:
    """ids[a][b] = ids[b][a] = i for the i-th canonical edge (a, b)."""
    ids = [[0] * g.n for _ in range(g.n)]
    for i, (a, b) in enumerate(g.edges()):
        ids[a][b] = ids[b][a] = i
    return ids


def _allowed_copies(g: Graph, pat: Pattern, forbidden: frozenset
                    ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(witness, edge indices) for each copy of enumerate_copies that
    counts outside the forbidden vertex sets, lazily; the indices are
    the copy's canonical edge indices in ascending order.  An edge set
    is kept when some placement of it has a vertex set not in
    forbidden, and its first such placement is the witness.  Placements
    differ only for patterns with isolated vertices, whose vertex set is
    more than the edges' endpoints.

    Cycles come from their kernel, _cycle_copies; every other pattern
    from _listed_copies.
    """
    if pat.kind == "cycle":
        copies = _cycle_copies(g, pat.size)
        if not forbidden:
            return copies
        return ((w, ids) for w, ids in copies if frozenset(w) not in forbidden)
    return _listed_copies(g, pat, forbidden)


def _listed_copies(g: Graph, pat: Pattern, forbidden: frozenset
                   ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """_allowed_copies for every kind but cycles: the copies of the
    kind's iterator (_iter_cliques, _iter_paths or _iter_embeddings),
    each with its indices sorted.  A pattern with more vertices than g
    lists nothing at once; a path DFS would walk every long path first."""
    if pat.vertex_count > g.n:
        return
    if pat.kind == "clique":
        copies = _iter_cliques(g.adj, (1 << g.n) - 1, pat.size)
    elif pat.kind == "path":
        copies = _iter_paths(g, pat.size)
    else:
        copies = _iter_embeddings(g.n, g.adj, _embedding_plan(pat.graph))
    pairs = _copy_pairs(pat)
    # cliques and paths with edges list each edge set once; edgeless
    # targets and embeddings repeat them
    seen = set() if pat.kind == "arbitrary" or not pairs else None
    table = None  # built at the first copy; verify_coloring mostly finds none
    for w in copies:
        if forbidden and frozenset(w) in forbidden:
            continue
        if table is None:
            table = _edge_ids(g)
        ids = []
        for i, j in pairs:
            ids.append(table[w[i]][w[j]])
        ids.sort()
        ids = tuple(ids)
        if seen is not None:
            if ids in seen:
                continue
            seen.add(ids)
        yield w, ids


def _cycle_copies(g: Graph, length: int) -> Iterator[tuple]:
    """(witness, edge indices) for every cycle of the given length,
    each once: least vertex s first, then a path over higher vertices
    whose last vertex is a neighbour of s above the second one.

    One frame walks the ascending simple-path DFS of
    _iter_simple_paths from s, keeping the candidates left at each step
    on a stack.  The orientation w[1] < w[-1] is applied at the last
    step, so no cycle is listed twice, and a branch stops as soon as no
    free neighbour of s above w[1] remains to close it.  Once the index
    table exists, each step records the index of the edge it adds.
    """
    adj = g.adj
    mid = length - 2  # the witness position before the closing vertex
    walk = [0] * (mid + 1)
    stack = [0] * (mid + 1)
    eids = [0] * mid  # eids[j]: the index of edge (walk[j], walk[j + 1])
    table = None  # built at the first copy
    for s in range(g.n - length + 1):
        above = -2 << s  # the vertices above s
        close = adj[s] & above
        if close.bit_count() < 2:
            continue
        walk[0] = s
        # w[1] lies below some closing vertex, so not on the highest
        cand = close ^ 1 << close.bit_length() - 1
        free = above
        ends = 0
        i = 1
        while True:
            if not cand:
                i -= 1
                if not i:
                    break
                free |= 1 << walk[i]
                cand = stack[i]
                continue
            b = cand & -cand
            cand ^= b
            v = b.bit_length() - 1
            if i == 1:
                ends = close & -2 << v
            if i < mid:
                if ends & free & ~b:
                    walk[i] = v
                    if table is not None:
                        eids[i - 1] = table[walk[i - 1]][v]
                    stack[i] = cand
                    free ^= b
                    i += 1
                    cand = adj[v] & free
                continue
            closers = adj[v] & ends & free
            if not closers:
                continue
            walk[mid] = v
            head = tuple(walk)
            if table is None:
                table = _edge_ids(g)
                for j in range(mid - 1):
                    eids[j] = table[walk[j]][walk[j + 1]]
            row_s, row_v = table[s], table[v]
            eids[mid - 1] = row_v[walk[mid - 1]]
            while closers:
                b = closers & -closers
                closers ^= b
                c = b.bit_length() - 1
                ids = [*eids, row_v[c], row_s[c]]
                ids.sort()
                yield head + (c,), tuple(ids)


# ---------------------------------------------------------------------
# Named families

def empty_graph(n: int) -> Graph:
    return Graph.from_edges(n, [])


def clique_graph(t: int) -> Graph:
    _check_order(t)  # combinations copies range(t) before from_edges runs
    return Graph.from_edges(t, itertools.combinations(range(t), 2))


def cycle_graph(length: int) -> Graph:
    if length < 3:
        raise ValueError("cycle length must be >= 3")
    return Graph.from_edges(length, ((i, (i + 1) % length) for i in range(length)))


def path_graph(k: int) -> Graph:
    return Graph.from_edges(k, ((i, i + 1) for i in range(k - 1)))


def complete_multipartite(sizes: Iterable[int]) -> Graph:
    """Complete multipartite graph; vertex labels record the part index."""
    sizes = list(sizes)
    if any(s < 1 for s in sizes):
        raise ValueError("part sizes must be positive")
    _check_order(sum(sizes))
    labels = [i for i, s in enumerate(sizes) for _ in range(s)]
    n = len(labels)
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
             if labels[u] != labels[v]]
    return Graph.from_edges(n, edges, labels)


def turan_graph(n: int, k: int) -> Graph:
    """Balanced complete k-partite graph on n vertices."""
    if k < 1 or k > n:
        raise ValueError("turan graph needs 1 <= k <= n")
    _check_order(n)
    q, r = divmod(n, k)
    sizes = [q + 1] * r + [q] * (k - r)
    return complete_multipartite(sizes)


def blowup(base: Graph, m: int) -> Graph:
    """Replace each vertex by an independent set of size m.

    Base edges become complete bipartite between the corresponding sets;
    labels record the base vertex.
    """
    if m < 1:
        raise ValueError("blowup factor must be >= 1")
    n = base.n * m
    _check_order(n)
    labels = [v for v in range(base.n) for _ in range(m)]
    edges = []
    for u, v in base.edges():
        for a in range(m):
            for b in range(m):
                edges.append((u * m + a, v * m + b))
    return Graph.from_edges(n, edges, labels)


def hm_graph(m: int) -> Graph:
    """Five parts of size m; parts 0-1 and 2-3 joined by perfect matchings,
    every other pair of parts joined completely."""
    return hmr_graph(m, 2)


def hmr_graph(m: int, r: int) -> Graph:
    """2^r + 1 parts of size m; the first 2^(r-1) consecutive part pairs are
    joined by perfect matchings, all other pairs completely."""
    if m < 1 or r < 1:
        raise ValueError("need m >= 1 and r >= 1")
    _check_power(r)
    parts = (1 << r) + 1
    n = parts * m
    _check_order(n)
    labels = [p for p in range(parts) for _ in range(m)]
    matched = {(2 * i, 2 * i + 1) for i in range(1 << (r - 1))}
    edges = []
    for p, q in itertools.combinations(range(parts), 2):
        if (p, q) in matched:
            edges.extend((p * m + a, q * m + a) for a in range(m))
        else:
            edges.extend((p * m + a, q * m + b) for a in range(m) for b in range(m))
    return Graph.from_edges(n, edges, labels)


def part_vertices(g: Graph, part: int) -> list[int]:
    if g.labels is None:
        raise ValueError("graph has no part labels")
    return [v for v in range(g.n) if g.labels[v] == part]


def with_labels(g: Graph, labels: Sequence[int]) -> Graph:
    """Same graph, different vertex labels (e.g. part ids pulled back
    through a blow-up)."""
    if len(labels) != g.n:
        raise ValueError("label count must match vertex count")
    return Graph(g.n, tuple(g.adj), tuple(labels))


def _family_arg(name: str, param: str, value):
    """A family argument checked: a graph6 code (parameter g6) must be a
    string, any other argument an int that is not a bool or a string
    that int() reads, returned as an int."""
    if param == "g6":
        if isinstance(value, str):
            return value
        raise ValueError(f"family {name!r} argument g6 must be a graph6 string, got {value!r}")
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"family {name!r} argument {param} must be an integer, got {value!r}")


def build_family(descriptor) -> Graph:
    """Build a named family from a dict or a compact string.

    Accepts {"family": "turan", "args": [12, 4]} or "turan:12,4".
    Families: empty, clique, cycle, path, complete_multipartite, turan,
    blowup (graph6 base), hm, hmr.  A graph6 code must be a string and
    every other argument an int or an integer string; anything else (a
    float, a bool, "x") is a ValueError naming the family and the
    parameter.
    """
    from . import graph6

    if isinstance(descriptor, str):
        name, _, rest = descriptor.partition(":")
        args = [a for a in rest.split(",") if a] if rest else []
    else:
        name = descriptor["family"]
        args = list(descriptor.get("args", []))
    name = name.strip().lower()
    if name == "complete_multipartite":
        return complete_multipartite([_family_arg(name, str(i), a)
                                      for i, a in enumerate(args, 1)])
    # each builder's parameters are the family's arguments, in order; their
    # names appear in the error messages
    builders = {
        "empty": lambda n: empty_graph(n),
        "clique": lambda n: clique_graph(n),
        "cycle": lambda n: cycle_graph(n),
        "path": lambda n: path_graph(n),
        "turan": lambda n, k: turan_graph(n, k),
        "blowup": lambda g6, m: blowup(graph6.decode(g6), m),
        "hm": lambda m: hm_graph(m),
        "hmr": lambda m, r: hmr_graph(m, r),
        "graph6": lambda g6: graph6.decode(g6),
    }
    build = builders.get(name)
    if build is None:
        raise ValueError(f"unknown family {name!r}")
    code = build.__code__
    params = code.co_varnames[:code.co_argcount]
    if len(args) != len(params):
        raise ValueError(f"family {name!r} takes {len(params)} argument"
                         f"{'s' * (len(params) > 1)} ({','.join(params)}), got {len(args)}")
    return build(*(_family_arg(name, p, a) for p, a in zip(params, args)))
