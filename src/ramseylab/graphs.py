"""Small dense graphs on up to 64 vertices, with bitset adjacency.

Vertices are 0..n-1 and every neighborhood is a Python int used as a
bitset, so adjacency tests, common neighborhoods and clique search are
single integer operations.  Graphs are immutable and hashable.  The
canonical edge order used everywhere (coloring, CNF variables, edge
sampling) is lexicographic on (min, max).

A copy of a pattern is listed as a witness vertex tuple; its edges are
the witness positions of _copy_pairs.  Copies are keyed by edge mask,
an int whose bit i is set when the copy uses canonical edge i, read
from a bit[a][b] table built once per listing (_edge_bits); cliques,
cycles and paths with edges are listed once by construction, so only
arbitrary and edgeless patterns are deduplicated.  Arbitrary patterns
are embedded by one iterative DFS, _iter_embeddings, which places the
pattern's vertices in the order _embedding_plan fixes: pinned vertices
first, then by decreasing degree.
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
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
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
    g = pat.graph
    if all(g.degree(v) == g.n - 1 for v in range(g.n)):
        return g.n
    return None


def cycle_length(pat: Pattern) -> Optional[int]:
    """Length l if the pattern is (isomorphic to) a cycle C_l."""
    if pat.kind == "cycle":
        return pat.size
    if pat.kind == "clique":
        return 3 if pat.size == 3 else None
    if pat.kind == "path":
        return None
    g = pat.graph
    if g.n >= 3 and all(g.degree(v) == 2 for v in range(g.n)):
        # connected 2-regular = a single cycle
        seen = {0}
        frontier = g.adj[0]
        while True:
            new = 0
            for v in _bits(frontier):
                if v not in seen:
                    seen.add(v)
                    new |= g.adj[v]
            if not new:
                break
            frontier = new
        if len(seen) == g.n:
            return g.n
    return None


# ---------------------------------------------------------------------
# Containment search

def _iter_cliques(adj: tuple[int, ...], cand: int, need: int,
                  prefix: tuple[int, ...] = ()) -> Iterator[tuple[int, ...]]:
    """Yield prefix + c for every need-clique c inside the candidate bitset.

    Each clique is listed once, as an increasing tuple, in lexicographic
    order: branching on v leaves only v's higher neighbors as candidates.
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
        yield from _iter_cliques(adj, cand & adj[v], need - 1, prefix + (v,))


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


def _iter_cycles(g: Graph, length: int) -> Iterator[tuple[int, ...]]:
    """Each cycle exactly once: minimum vertex first, lower neighbor second.

    A cycle with least vertex s is a path from s over higher vertices
    that ends next to s; keeping w[1] < w[-1] drops its reverse.
    """
    adj = g.adj
    for s in range(g.n):
        for w in _iter_simple_paths(adj, (s,), (1 << (s + 1)) - 1, length, adj[s]):
            if w[1] < w[-1]:
                yield w


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


def _iter_embeddings(n: int, adj, plan: list, head: tuple[int, ...] = ()
                     ) -> Iterator[tuple[int, ...]]:
    """Injective maps of a pattern into the host adjacency sending edges
    to edges, as tuples indexed by pattern vertex.

    The DFS places the pattern vertices in the order of plan (from
    _embedding_plan), the i-th on head[i] when i < len(head), each on
    the free host vertices, ascending, that are adjacent to the images
    of its earlier neighbors and have at least its degree.
    """
    k = len(plan)
    if k > n:
        return
    assign = [0] * k
    stack = [0] * k  # the candidates left at each step
    fixed = len(head)
    full = (1 << n) - 1
    used = i = 0
    cand = full & (1 << head[0]) if fixed else full
    pv, deg, _ = plan[0]
    while True:
        if not cand:
            if not i:
                return
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
        if i == k - 1:
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


def _iter_copies(g: Graph, pat: Pattern) -> Iterator[tuple[int, ...]]:
    """Witness vertex tuples of pat's copies in g, from the kind's iterator."""
    if pat.vertex_count > g.n:
        return iter(())
    if pat.kind == "clique":
        return _iter_cliques(g.adj, (1 << g.n) - 1, pat.size)
    if pat.kind == "cycle":
        return _iter_cycles(g, pat.size)
    if pat.kind == "path":
        return _iter_paths(g, pat.size)
    return _iter_embeddings(g.n, g.adj, _embedding_plan(pat.graph))


def find_pattern(g: Graph, pat: Pattern) -> Optional[tuple[int, ...]]:
    """A witness vertex tuple for one copy of pat in g, or None."""
    return next(_iter_copies(g, pat), None)


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


def _edge_bits(n: int, edges: Sequence[tuple[int, int]]) -> list[list[int]]:
    """bit[a][b] = bit[b][a] = 1 << i for the i-th edge (a, b), else 0."""
    bit = [[0] * n for _ in range(n)]
    for i, (a, b) in enumerate(edges):
        bit[a][b] = bit[b][a] = 1 << i
    return bit


def iter_pattern_witnesses_through_edge(g: Graph, pat: Pattern, e: tuple[int, int]
                                        ) -> Iterator[tuple[int, ...]]:
    """All copies of pat in g that use edge e, as witness vertex tuples.

    Each copy, a distinct edge set as in enumerate_copies, is listed
    once.  For a pattern with isolated vertices each placement of them
    is listed too, because forbidden sets name whole vertex sets.
    """
    u, v = e
    if not g.has_edge(u, v):
        raise ValueError(f"({u},{v}) is not an edge of the graph")
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
                              forbidden: frozenset = frozenset()) -> Optional[tuple[int, ...]]:
    """First copy of pat through e whose vertex set is not forbidden."""
    for w in iter_pattern_witnesses_through_edge(g, pat, e):
        if not forbidden or frozenset(w) not in forbidden:
            return w
    return None


def enumerate_copies(g: Graph, pat: Pattern) -> list[tuple[tuple[int, ...], tuple[tuple[int, int], ...]]]:
    """All distinct copies of pat in g as (witness vertices, canonical edge list).

    Copies are distinct edge subsets; the list order is deterministic
    (lexicographic on the vertex tuple for cliques).
    """
    edges = g.edges()
    return [(w, tuple(edges[i] for i in _bits(mask)))
            for w, mask in _allowed_copies(g, pat, frozenset())]


def _allowed_copies(g: Graph, pat: Pattern, forbidden: frozenset
                    ) -> Iterator[tuple[tuple[int, ...], int]]:
    """(witness, edge mask) for each copy of enumerate_copies that
    counts outside the forbidden vertex sets; bit i of the mask is
    canonical edge i.  An edge set is kept when some placement of it has
    a vertex set not in forbidden, and its first such placement is the
    witness.  Placements differ only for patterns with isolated
    vertices, whose vertex set is more than the edges' endpoints.
    """
    pairs = _copy_pairs(pat)
    # cliques, cycles and paths with edges list each edge set once;
    # edgeless targets and embeddings repeat them
    seen = set() if pat.kind == "arbitrary" or not pairs else None
    bit = None  # built at the first copy; verify_coloring mostly finds none
    for w in _iter_copies(g, pat):
        if forbidden and frozenset(w) in forbidden:
            continue
        if bit is None:
            bit = _edge_bits(g.n, g.edges())
        mask = 0
        for i, j in pairs:
            mask |= bit[w[i]][w[j]]
        if seen is not None:
            if mask in seen:
                continue
            seen.add(mask)
        yield w, mask


# ---------------------------------------------------------------------
# Named families

def empty_graph(n: int) -> Graph:
    return Graph.from_edges(n, [])


def clique_graph(t: int) -> Graph:
    return Graph.from_edges(t, itertools.combinations(range(t), 2))


def cycle_graph(length: int) -> Graph:
    if length < 3:
        raise ValueError("cycle length must be >= 3")
    return Graph.from_edges(length, [(i, (i + 1) % length) for i in range(length)])


def path_graph(k: int) -> Graph:
    return Graph.from_edges(k, [(i, i + 1) for i in range(k - 1)])


def complete_multipartite(sizes: Iterable[int]) -> Graph:
    """Complete multipartite graph; vertex labels record the part index."""
    sizes = list(sizes)
    if any(s < 1 for s in sizes):
        raise ValueError("part sizes must be positive")
    labels = [i for i, s in enumerate(sizes) for _ in range(s)]
    n = len(labels)
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
             if labels[u] != labels[v]]
    return Graph.from_edges(n, edges, labels)


def turan_graph(n: int, k: int) -> Graph:
    """Balanced complete k-partite graph on n vertices."""
    if k < 1 or k > n:
        raise ValueError("turan graph needs 1 <= k <= n")
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
    if n > MAX_VERTICES:
        raise ValueError("blowup exceeds vertex capacity")
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
    parts = (1 << r) + 1
    n = parts * m
    if n > MAX_VERTICES:
        raise ValueError("graph exceeds vertex capacity")
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
