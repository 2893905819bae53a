"""Exact Ramsey colorability by backtracking search, plus CNF export.

decide_ramsey answers whether every r-coloring of a host graph's edges
contains a monochromatic copy of one of that color's target patterns
(outside optional forbidden vertex sets).  Edges are branched
vertex-incrementally (sorted by (b, a), all edges inside {0..j} before
any edge touching j+1) with colors in ascending order; assigning a
color is pruned exactly when it completes a monochromatic non-forbidden
copy through the new edge, so a full assignment is always a valid
counterexample and exhausting the tree is a proof of Ramseyness.

The search backjumps on conflicts.  Each branching level owns one bit,
and a blocking copy is reduced to the OR of its edges' level bits, read
from a table built once per query; a level's conflict set is the OR of
its blocked colors' masks, a dead end jumps to its highest bit and the
merge is one OR.  Each (color, pattern) gets one copy finder, built
before the search.  Without forbidden sets, cliques and cycles get
flat bitset kernels: the first clique in the common neighbourhood
(K3 and C3 take the least common neighbour, larger cliques run
graphs._first_clique, the clique kernel a scan's K_R tests also run),
and the simple-path DFS of graphs._iter_simple_paths closed by one
AND against the far endpoint's neighbourhood, unrolled into two loops
for C5 and recursive for C4 and from C6 on.  Arbitrary patterns walk
the embedding DFS of graphs._iter_embeddings, with its placement
orders planned once per pattern edge when the finder is built.  Paths
and forbidden sets walk the general through-edge iterator.
Every finder returns the copy that iterator lists first, so the
conflict sets, and with them the node counts, do not depend on which
finder ran.  Each node calls its color's first finder directly and
the color's further targets only when that one finds no copy, so
SearchStats.checks is the node count plus those further calls.

Symmetry breaking is read off each query and always on.  The first
full assignment found, chronologically or with backjumping, is the
lexicographically least valid coloring X in the branching order.  Any
symmetry of the query maps X to another valid coloring that cannot be
smaller, which gives two families of necessary conditions on X, so
pruning by them changes no verdict and no witness:

- Twin rows.  When swapping vertices i and i+1 is a host automorphism
  (they are twins, graphs.twin_classes) and maps every color's
  forbidden family to itself, row i <= row i+1, rows read as color
  vectors over the columns k outside {i, i+1} in ascending k.  Entry k
  is decided by the later of edges {i,k}, {i+1,k}, which is {i+1,k}:
  when the earlier entries are equal, colors below that of {i,k} are
  cut, with the depths of those entries and of {i,k} as the reason.
- Color precedence.  When every color has the same target list and the
  same forbidden sets, color c may appear only after color c-1 has;
  a color cut so has every earlier depth as its reason.

These reasons keep backjumping complete.  The argument rests on the
branching order: if it ever changes, both constraints (which entry an
edge decides, and in what order) must be derived again.

_decide_degree_first changes which vertex branches first without
touching that order: it relabels the host, by decreasing degree, then
by the least member of each vertex's twin class, then by label, and
relabels the forbidden sets to match, then runs decide_ramsey on the
relabelled query, whose symmetries the argument above covers as it
stands.  Twins share a degree, so each twin class stays a run of
labels and keeps its twin-row constraints.  The witness is pulled back
to the host (_pull_back) and re-verified.  A scan uses it under the
manifest's "order": "degree"; the vertices that perturbation made
densest then branch first (fail first, Haralick & Elliott 1980).

Being Ramsey for non-induced targets is monotone in the host, so hosts
that share a vertex count, targets and forbidden sets are decided
through one verdict library, _monotone_decider(search): a host that
contains one searched RAMSEY is RAMSEY, and one that embeds in one
searched NOT_RAMSEY is NOT_RAMSEY, through its pulled-back witness.
Containment tests stop after _EMBED_PLACEMENTS placements; a host with
no hit is searched, so a status is what a search gives whenever one
decides it.  Scans (cache "monotone") and decide_globally_ramsey use it.

A target without edges (K1, P1, an edgeless graph) has a copy in every
color class as soon as one placement of its vertices is allowed; such
a query is Ramsey before any search.

targets_ramsey_number searches K_1, K_2, .. afresh on every call; the
module keeps no state between calls, so its R, the least n <= cap with
K_n Ramsey, depends only on the targets, the node budget and the cap.
A caller that needs the number for many hosts (a scan's clique
shortcut) asks once per distinct cap and keeps it.

Verdicts are first class: Ramsey and NotRamsey are only reported from a
completed search (witnesses are re-verified independently); running out
of node budget yields Inconclusive, never a guess.  The node budget is
the only limit on a search, so a verdict never depends on machine
speed; time is measured (SearchStats.elapsed) but never decides.

Forbidden copies are identified by vertex set: any copy whose vertex
set is listed for its color does not count, whatever its edges.

export_cnf and verify_coloring read one lister, graphs._allowed_copies,
which gives each copy with its canonical edge indices in ascending
order; export_cnf writes a copy's clause as the literals of those
indices, so they come in canonical edge order.  Neither builds an edge
mask: only decide_ramsey keeps a per-edge bit table (_edge_bits).
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Callable, Optional, Sequence

from .graphs import (Graph, Pattern, _FrozenRecord, _Record, _allowed_copies, _bits,
                     _copy_pairs, _embedding_plan, _first_clique, _iter_embeddings,
                     _iter_pinned, _iter_through, clique_graph, twin_classes)

DEFAULT_NODE_BUDGET = 10 ** 8
DEFAULT_RAMSEY_CAP = 12  # largest complete host a Ramsey-number search tries
# embedding-DFS placements one containment test of the verdict library
# may make before it counts as no hit: a Turan(12,2) scan against (C3,C5)
# needs up to 19,941 for a hit, and a placement costs about a search node
_EMBED_PLACEMENTS = 20_000

RAMSEY = "ramsey"
NOT_RAMSEY = "not_ramsey"
INCONCLUSIVE = "inconclusive"


class RamseyQuery(_FrozenRecord):
    """Host graph, per-color target patterns and per-color forbidden
    vertex sets, with a search node budget."""

    def __init__(self, host: Graph, targets: tuple[tuple[Pattern, ...], ...],
                 forbidden: tuple[frozenset, ...], node_budget: int = DEFAULT_NODE_BUDGET):
        self.__dict__.update(host=host, targets=targets, forbidden=forbidden,
                             node_budget=node_budget)

    @property
    def r(self) -> int:
        return len(self.targets)


def ramsey_query(host: Graph, targets: Sequence, forbidden: Optional[Sequence] = None,
                 node_budget: int = DEFAULT_NODE_BUDGET) -> RamseyQuery:
    """Normalize loose inputs: each color's targets may be a single
    Pattern or an iterable; forbidden entries are vertex iterables."""
    norm_targets = _normalize_targets(targets)
    if forbidden is None:
        norm_forbidden = tuple(frozenset() for _ in norm_targets)
    else:
        if not hasattr(forbidden, "__len__") or len(forbidden) != len(norm_targets):
            raise ValueError("forbidden list length must match color count")
        norm_forbidden = tuple(_forbidden_sets(entry, c)
                               for c, entry in enumerate(forbidden))
    if host.n < 1:
        raise ValueError("host graph must be nonempty")
    if node_budget < 0:
        raise ValueError(f"node budget must be nonnegative, got {node_budget}")
    return RamseyQuery(host, norm_targets, norm_forbidden, node_budget)


def _forbidden_sets(entry, color: int) -> frozenset:
    """One color's forbidden vertex sets, from an iterable of vertex
    iterables."""
    try:
        sets = frozenset(frozenset(vs) for vs in entry)
    except TypeError:  # not iterable, or an unhashable vertex
        sets = None
    if sets is None or not all(isinstance(v, int) for vs in sets for v in vs):
        raise ValueError(f"forbidden entry for color {color} must be a list of "
                         f"vertex lists, got {entry!r}")
    return sets


def _normalize_targets(targets: Sequence) -> tuple[tuple[Pattern, ...], ...]:
    norm_targets = []
    for entry in targets:
        pats = (entry,) if isinstance(entry, Pattern) else tuple(entry)
        if not pats:
            raise ValueError("every color needs at least one target pattern")
        norm_targets.append(pats)
    if len(norm_targets) < 2:
        raise ValueError("need at least two colors")
    return tuple(norm_targets)


class SearchStats(_Record):
    """What a decision did.  nodes counts color assignments tried and
    checks target patterns tested.  backjumps counts dead ends that
    jumped past at least one level, max_depth is the most edges colored
    at once and symmetry_cuts the colors skipped by a twin-row or
    precedence constraint; these three are set only at the exit, and
    appear in no output.  route says how the verdict was reached:
    "edgeless" (a target without edges) or "search" (the search ran,
    whatever it concluded, budget exits included), set at each exit of
    decide_ramsey; it appears in no output either."""

    def __init__(self, nodes: int = 0, checks: int = 0, elapsed: float = 0.0,
                 note: str = "", backjumps: int = 0, max_depth: int = 0,
                 symmetry_cuts: int = 0, route: str = ""):
        self.nodes = nodes
        self.checks = checks
        self.elapsed = elapsed
        self.note = note
        self.backjumps = backjumps
        self.max_depth = max_depth
        self.symmetry_cuts = symmetry_cuts
        self.route = route


class EdgeColoring(_FrozenRecord):
    """Colors indexed by the host's canonical edge order."""

    def __init__(self, host: Graph, r: int, colors: tuple[int, ...]):
        if len(colors) != len(host.edges()):
            raise ValueError("color count does not match edge count")
        if r < 1 or any(not 0 <= c < r for c in colors):
            raise ValueError("colors must lie in 0..r-1")
        self.__dict__.update(host=host, r=r, colors=colors)

    def color_subgraph(self, c: int) -> Graph:
        """The host's vertices and labels with the edges of color c,
        its rows built in one pass over the host's edges."""
        adj = [0] * self.host.n
        for (u, v), col in zip(self.host.edges(), self.colors):
            if col == c:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        return Graph(self.host.n, tuple(adj), self.host.labels)

    def to_jsonable(self) -> dict:
        from . import graph6
        return {"host": graph6.encode(self.host), "r": self.r,
                "colors": list(self.colors)}

    @classmethod
    def from_jsonable(cls, data: dict) -> "EdgeColoring":
        """The coloring to_jsonable wrote, with the same adjacency, r and
        colors.  The host's part labels are not stored, since graph6 has
        none, so the decoded host is unlabelled and the result compares
        unequal to a coloring of a labelled host."""
        from . import graph6
        return cls(graph6.decode(data["host"]), int(data["r"]),
                   tuple(int(c) for c in data["colors"]))


class RamseyVerdict(_Record):
    def __init__(self, status: str, witness: Optional[EdgeColoring] = None,
                 stats: Optional[SearchStats] = None):
        self.status = status
        self.witness = witness
        self.stats = SearchStats() if stats is None else stats

    @property
    def is_ramsey(self) -> bool:
        return self.status == RAMSEY


def verify_coloring(coloring: EdgeColoring, query: RamseyQuery) -> list[tuple[int, str, tuple[int, ...]]]:
    """All monochromatic non-forbidden target copies in the coloring.

    Uses full copy enumeration on each color subgraph, independent of
    the incremental bookkeeping in decide_ramsey.  Empty means the
    coloring is a valid counterexample.
    """
    if coloring.host != query.host:
        raise ValueError("coloring host differs from query host")
    if coloring.r != query.r:
        raise ValueError("coloring color count differs from query")
    violations = []
    for c in range(query.r):
        sub = coloring.color_subgraph(c)
        for pat in query.targets[c]:
            for vertices, _ in _allowed_copies(sub, pat, query.forbidden[c]):
                violations.append((c, pat.describe(), tuple(vertices)))
    return violations


# ---------------------------------------------------------------------
# Completion checks on raw per-color adjacency


def _copy_finder(adjc: list, n: int, depth_bit: list, pat: Pattern, forb: frozenset):
    """find(u, v): the OR of the depth bits of the edges of the first
    non-forbidden copy of pat through (u,v) in the color graph adjc,
    which already holds the new edge; 0 when there is none.

    The copy is the one _iter_through lists first; cycle and path
    copies come in the ascending DFS order of _iter_simple_paths.
    Clique and cycle targets with nothing forbidden get a flat bitset
    kernel.  Arbitrary patterns walk the embeddings of _iter_pinned,
    with placement orders planned here once per pattern edge, and skip
    the dedupe of _iter_through: a repeated copy has the vertex set of
    its first listing, so the first allowed embedding is the first
    allowed copy.  Paths and forbidden sets walk _iter_through.  A
    pattern with more vertices than the host has no copy, so its finder
    answers 0 at once, where a path or cycle DFS would walk every long
    path first.
    """
    if pat.vertex_count > n:
        return lambda u, v: 0
    if not forb:
        if pat.kind == "clique" and pat.size >= 2:
            return _clique_finder(adjc, depth_bit, pat.size - 2)
        if pat.kind == "cycle":
            # C3 is K3: the least common neighbour closes both first
            if pat.size == 3:
                return _clique_finder(adjc, depth_bit, 1)
            return _cycle_finder(adjc, depth_bit, pat.size - 2)

    pairs = _copy_pairs(pat)
    if pat.kind == "arbitrary":
        plans = [_embedding_plan(pat.graph, e) for e in pairs]

        def copies(u, v):
            return _iter_pinned(n, adjc, plans, u, v)
    else:
        def copies(u, v):
            return _iter_through(n, adjc, u, v, pat)

    def find(u: int, v: int) -> int:
        for w in copies(u, v):
            if not forb or frozenset(w) not in forb:
                mask = 0
                for i, j in pairs:
                    mask |= depth_bit[w[i]][w[j]]
                return mask
        return 0

    return find


def _clique_finder(adjc: list, depth_bit: list, need: int):
    """K_{need+2} through (u,v): the lexicographically first need-clique
    in the common neighbourhood, from graphs._first_clique."""
    if need == 0:
        return lambda u, v: depth_bit[u][v]

    if need == 1:
        def find_k3(u: int, v: int) -> int:
            common = adjc[u] & adjc[v]
            if not common:
                return 0
            row = depth_bit[(common & -common).bit_length() - 1]
            return depth_bit[u][v] | row[u] | row[v]
        return find_k3

    def find(u: int, v: int) -> int:
        ws = _first_clique(adjc, adjc[u] & adjc[v], need)
        if ws is None:
            return 0
        ws += (u, v)
        mask = 0
        for i, a in enumerate(ws):
            row = depth_bit[a]
            for b in ws[i + 1:]:
                mask |= row[b]
        return mask

    return find


def _cycle_finder(adjc: list, depth_bit: list, inner: int):
    """C_{inner+2} through (u,v), inner >= 2: the DFS _iter_cycles_through
    runs through _iter_simple_paths, over paths u, w1, .. that avoid v,
    whose last inner vertex is closed by one AND against v's
    neighbourhood.  C5 unrolls it into two loops over w1 and w2."""
    if inner == 3:
        def find_c5(u: int, v: int) -> int:
            free = ~((1 << u) | (1 << v))
            close = adjc[v] & free
            if not close:
                return 0
            cand1 = adjc[u] & free
            while cand1:
                b1 = cand1 & -cand1
                cand1 ^= b1
                ends = close & ~b1
                if not ends:
                    continue
                w1 = b1.bit_length() - 1
                cand2 = adjc[w1] & free
                while cand2:
                    b2 = cand2 & -cand2
                    cand2 ^= b2
                    w2 = b2.bit_length() - 1
                    end = adjc[w2] & ends
                    if end:
                        row1 = depth_bit[w1]
                        row3 = depth_bit[(end & -end).bit_length() - 1]
                        return (depth_bit[u][v] | row1[u] | row1[w2]
                                | row3[w2] | row3[v])
            return 0
        return find_c5

    def extend(last: int, used: int, left: int, close: int):
        # the inner vertices after last, the one next to v first, or None
        ends = close & ~used
        if not ends:
            return None
        cand = adjc[last] & ~used
        while cand:
            b = cand & -cand
            cand ^= b
            w = b.bit_length() - 1
            if left == 2:
                end = adjc[w] & ends
                if end:
                    return [(end & -end).bit_length() - 1, w]
                continue
            rest = extend(w, used | b, left - 1, close)
            if rest is not None:
                rest.append(w)
                return rest
        return None

    def find(u: int, v: int) -> int:
        ws = extend(u, (1 << u) | (1 << v), inner, adjc[v])
        if ws is None:
            return 0
        mask = depth_bit[u][v] | depth_bit[v][ws[0]]
        prev = u
        for w in reversed(ws):
            mask |= depth_bit[prev][w]
            prev = w
        return mask

    return find


def _edge_bits(n: int, edges: Sequence[tuple[int, int]]) -> list[list[int]]:
    """bit[a][b] = bit[b][a] = 1 << i for the i-th edge (a, b), else 0."""
    bit = [[0] * n for _ in range(n)]
    for i, (a, b) in enumerate(edges):
        bit[a][b] = bit[b][a] = 1 << i
    return bit


def _edgeless_target(query: RamseyQuery) -> Optional[str]:
    """Why the host is Ramsey outright, or None: some color has a target
    without edges with an allowed placement on the host's vertices, and
    so a copy in every coloring."""
    n = query.host.n
    for c, pats in enumerate(query.targets):
        for pat in pats:
            if pat.pattern_edge_count:
                continue
            k = pat.vertex_count
            blocked = sum(1 for vs in query.forbidden[c]
                          if len(vs) == k and all(0 <= x < n for x in vs))
            if k <= n and blocked < math.comb(n, k):
                return (f"color {c} target {pat.describe()} has no edges "
                        f"and an allowed placement on {k} vertices")
    return None


def _symmetry_constraints(query: RamseyQuery, pairs: list) -> tuple[list, int]:
    """Per branching depth, None or (rows, below), and the number of
    row-comparison slots; see the module docstring.

    rows holds (first, mask, prev, me) for each twin-row entry the
    depth's edge decides: first is the depth of the entry's earlier
    edge, mask the reason for cutting colors below choice[first], and
    slot me records whether the rows are still equal through this
    entry, given that slot prev (0, always equal, for the first entry)
    says so for the entries before it.  below is the mask of every
    earlier depth when colors are interchangeable, else None.
    """
    host = query.host
    adj = host.adj
    depth_of = {e: d for d, e in enumerate(pairs)}
    rows = [[] for _ in pairs]
    slots = 1
    twins_of = {v: members for members, _ in twin_classes(host) for v in _bits(members)}
    for i in range(host.n - 1):
        j = i + 1
        if not twins_of[i] >> j & 1:
            continue
        swap = {i: j, j: i}
        if any(frozenset(frozenset(swap.get(x, x) for x in vs) for vs in forb) != forb
               for forb in query.forbidden):
            continue
        prev = prefix = 0
        for k in range(host.n):
            if k == i or k == j or not adj[i] >> k & 1:
                continue
            first = depth_of[(min(i, k), max(i, k))]
            second = depth_of[(min(j, k), max(j, k))]
            rows[second].append((first, prefix | 1 << first, prev, slots))
            prev, prefix = slots, prefix | 1 << first | 1 << second
            slots += 1
    precedence = (all(t == query.targets[0] for t in query.targets)
                  and all(f == query.forbidden[0] for f in query.forbidden))
    steps = [(tuple(rs), (1 << d) - 1 if precedence else None)
             if rs or precedence else None for d, rs in enumerate(rows)]
    return steps, slots


# ---------------------------------------------------------------------
# The decision procedure


def targets_ramsey_number(targets, cap: int = DEFAULT_RAMSEY_CAP,
                          node_budget: int = DEFAULT_NODE_BUDGET) -> Optional[int]:
    """Least n <= cap with K_n Ramsey for the per-color targets; None
    when no size in range is, or when the node budget runs out first.

    Each color's targets may be a single Pattern or an iterable.
    Complete-host Ramseyness is monotone in n, so the first hit is the
    Ramsey number.  Every call searches K_1, K_2, .. afresh; K_1 is
    Ramsey exactly when some target has no edges.
    """
    targets = _normalize_targets(targets)
    for n in range(1, cap + 1):
        verdict = decide_ramsey(ramsey_query(clique_graph(n), targets,
                                             node_budget=node_budget))
        if verdict.status == INCONCLUSIVE:
            return None
        if verdict.is_ramsey:
            return n
    return None


def decide_ramsey(query: RamseyQuery) -> RamseyVerdict:
    """Decide whether the host is Ramsey for the query.

    Ramsey means exhaustive refutation completed, or that some color
    has a target without edges and an allowed placement; NotRamsey
    carries a witness coloring that is re-verified before returning;
    Inconclusive means the node budget was hit.  The search breaks the
    query's twin-row and color symmetries (module docstring); the
    witness is the lexicographically least valid coloring in the
    branching order, as without them.
    """
    host = query.host
    r = query.r
    start = time.monotonic()
    stats = SearchStats()

    edgeless = _edgeless_target(query)
    if edgeless is not None:
        stats.elapsed = time.monotonic() - start
        stats.note, stats.route = edgeless, "edgeless"
        return RamseyVerdict(RAMSEY, None, stats)

    n = host.n
    edges = host.edges()
    n_edges = len(edges)
    # Branch vertex-incrementally: all edges inside {0..j} before any edge
    # touching j+1, so conflicts stay local to the newest vertices.
    # Reported colorings still use the public canonical (lexicographic)
    # edge order.
    order = sorted(range(n_edges), key=lambda i: (edges[i][1], edges[i][0]))
    pairs = [edges[i] for i in order]
    depth_bit = _edge_bits(n, pairs)
    symmetry, slots = _symmetry_constraints(query, pairs)
    steps = [(a, b, 1 << a, 1 << b, ~(1 << d), symmetry[d])
             for d, (a, b) in enumerate(pairs)]
    # equal[s]: the twin rows of slot s agree through its entry (module
    # docstring); used[d]: how many colors depths below d use, which
    # precedence makes 0..used[d]-1
    equal = [True] * slots
    used = [0] * (n_edges + 1)

    adj_colors = [[0] * n for _ in range(r)]
    finders = [[_copy_finder(adj_colors[c], n, depth_bit, pat, query.forbidden[c])
                for pat in query.targets[c]] for c in range(r)]
    # a node always calls its color's first finder, so checks is nodes
    # plus extra, the calls to the further finders of several targets
    first_find = [fs[0] for fs in finders]
    more_finds = [fs[1:] for fs in finders]
    choice = [-1] * n_edges
    # conflict-directed backjumping: conf[d] has the bits of the depths
    # whose assignments blocked some color at depth d; a dead end jumps
    # to the deepest of them, merging the rest, which is complete (any
    # deeper reassignment alone cannot unblock this edge)
    conf = [0] * n_edges
    depth = 0
    nodes = extra = backjumps = max_depth = cuts = 0
    witness, note = None, ""
    node_budget = query.node_budget

    while True:
        if nodes > node_budget:
            status, note = INCONCLUSIVE, "node budget exhausted"
            break

        if depth == n_edges:
            colors = [0] * n_edges
            for d in range(n_edges):
                colors[order[d]] = choice[d]
            witness = EdgeColoring(host, r, tuple(colors))
            bad = verify_coloring(witness, query)
            if bad:
                raise AssertionError(f"search produced an invalid witness: {bad}")
            status = NOT_RAMSEY
            break

        u, v, bu, bv, keep, sym = steps[depth]
        c = choice[depth]
        here = conf[depth]
        limit = r
        if c >= 0:
            adjc = adj_colors[c]
            adjc[u] ^= bv
            adjc[v] ^= bu
            c += 1
        else:
            c = 0
        if sym is not None:
            rows, below = sym
            if below is not None and used[depth] < r - 1:
                limit = used[depth] + 1
                if not c:
                    here |= below
                    cuts += r - limit
            if not c:
                for first, mask, prev, _ in rows:
                    if equal[prev] and choice[first] > c:
                        c = choice[first]
                        reason = mask
                if c:
                    here |= reason
                    cuts += c
        while c < limit:
            nodes += 1
            adjc = adj_colors[c]
            adjc[u] |= bv
            adjc[v] |= bu
            mask = first_find[c](u, v)
            if not mask:
                for find in more_finds[c]:
                    extra += 1
                    mask = find(u, v)
                    if mask:
                        break
                else:
                    break
            adjc[u] ^= bv
            adjc[v] ^= bu
            here |= mask & keep
            c += 1
        if c < limit:
            choice[depth] = c
            conf[depth] = here
            if sym is not None:
                for first, _, prev, me in rows:
                    equal[me] = equal[prev] and c == choice[first]
                used[depth + 1] = used[depth] if c < used[depth] else c + 1
            depth += 1
            continue
        # dead end: every color blocked
        choice[depth] = -1
        if depth > max_depth:
            max_depth = depth
        if not here:
            # blocked independently of every other assignment
            status = RAMSEY
            break
        target = here.bit_length() - 1
        conf[target] = (conf[target] | here) & ~(1 << target)
        conf[depth] = 0
        if target < depth - 1:
            backjumps += 1
        for lvl in range(depth - 1, target, -1):
            eu, ev = pairs[lvl]
            adjc = adj_colors[choice[lvl]]
            adjc[eu] ^= 1 << ev
            adjc[ev] ^= 1 << eu
            choice[lvl] = -1
            conf[lvl] = 0
        depth = target

    stats.nodes, stats.checks, stats.note = nodes, nodes + extra, note
    stats.route = "search"
    stats.backjumps, stats.max_depth = backjumps, max(max_depth, depth)
    stats.symmetry_cuts = cuts
    stats.elapsed = time.monotonic() - start
    return RamseyVerdict(status, witness, stats)


def _decide_degree_first(query: RamseyQuery) -> RamseyVerdict:
    """decide_ramsey on the query with the host's vertices relabelled by
    (-degree, least member of their twin class, label) and every color's
    forbidden sets to match (module docstring).  A decided status is the
    canonical order's; the node count can differ, and with it which
    budget-limited searches decide.  A NOT_RAMSEY witness is pulled back
    to the host by _pull_back, which re-verifies it.  A host already
    in this order is decided as it stands.  decide_ramsey is looked up
    at the call, so a rebinding of the module's name sees every search.
    """
    host = query.host
    n, adj = host.n, host.adj
    least = [0] * n  # the least member of each vertex's twin class
    for members, _ in twin_classes(host):
        low = (members & -members).bit_length() - 1
        for v in _bits(members):
            least[v] = low
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), least[v], v))
    if order == list(range(n)):
        return decide_ramsey(query)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    relabelled = Graph(n, tuple(sum(1 << pos[w] for w in _bits(adj[v])) for v in order))
    # a forbidden vertex outside the host names no vertex, and stays as it is
    forbidden = tuple(frozenset(frozenset(pos[x] if 0 <= x < n else x for x in vs)
                                for vs in forb) for forb in query.forbidden)
    verdict = decide_ramsey(RamseyQuery(relabelled, query.targets, forbidden,
                                        query.node_budget))
    if verdict.witness is not None:
        verdict.witness = _pull_back(query, pos, _edge_colors(verdict.witness), "mapped-back")
    return verdict


def _edge_colors(witness: EdgeColoring) -> dict:
    """The witness's color of each edge (a, b), keyed by (b, a) too."""
    colors = {}
    for (a, b), c in zip(witness.host.edges(), witness.colors):
        colors[a, b] = colors[b, a] = c
    return colors


def _pull_back(query: RamseyQuery, into, colors: dict, kind: str) -> EdgeColoring:
    """The coloring of the query's host giving each edge (u, v) the color
    of (into[u], into[v]) in colors, a witness's _edge_colors, checked by
    verify_coloring: an invalid one raises AssertionError, naming its kind."""
    pulled = EdgeColoring(query.host, query.r,
                          tuple(colors[into[u], into[v]] for u, v in query.host.edges()))
    bad = verify_coloring(pulled, query)
    if bad:
        raise AssertionError(f"a {kind} witness is invalid: {bad}")
    return pulled


# ---------------------------------------------------------------------
# The monotone verdict library


def _profile(g: Graph) -> tuple[int, list[int]]:
    """The edge count and the degrees, largest first."""
    degrees = sorted((row.bit_count() for row in g.adj), reverse=True)
    return sum(degrees) // 2, degrees


def _may_embed(small: tuple, big: tuple) -> bool:
    """Whether a graph of profile small may embed in one of profile big
    on as many vertices: an embedding needs no fewer edges, and no
    smaller k-th largest degree for any k, in big."""
    return small[0] <= big[0] and all(a <= b for a, b in zip(small[1], big[1]))


def _embedding(plan: list, n: int, adj) -> Optional[tuple[int, ...]]:
    """plan's first embedding into adj within _EMBED_PLACEMENTS placements, or None."""
    return next(_iter_embeddings(n, adj, plan, cap=[_EMBED_PLACEMENTS]), None)


def _monotone_decider(search: Callable[[RamseyQuery], RamseyVerdict]
                      ) -> Callable[[RamseyQuery], RamseyVerdict]:
    """decide(query) -> a verdict on the query's host, from the library of
    hosts searched so far with search, decide_ramsey or
    _decide_degree_first (module docstring).  Its queries share a vertex
    count, so an embedding is one to one; a profile filter precedes each
    test.  A host settled by containment gets a verdict with zero counts;
    one with no hit gets search's verdict, and is an entry once decided.
    """
    ramsey = []  # (profile, embedding plan) of each host searched RAMSEY
    refuted = []  # (profile, adjacency, _edge_colors) of each host searched NOT_RAMSEY

    def decide(query: RamseyQuery) -> RamseyVerdict:
        host = query.host
        n, profile = host.n, _profile(host)
        if any(_may_embed(entry, profile) and _embedding(within, n, host.adj) is not None
               for entry, within in ramsey):
            return RamseyVerdict(RAMSEY)
        plan = None  # the host's plan is built when first needed
        for entry, adj, colors in refuted:
            if not _may_embed(profile, entry):
                continue
            plan = plan or _embedding_plan(host)
            into = _embedding(plan, n, adj)
            if into is not None:
                return RamseyVerdict(NOT_RAMSEY, _pull_back(query, into, colors, "pulled-back"))
        verdict = search(query)
        if verdict.status == RAMSEY:
            ramsey.append((profile, plan or _embedding_plan(host)))
        elif verdict.status == NOT_RAMSEY:
            refuted.append((profile, host.adj, _edge_colors(verdict.witness)))
        return verdict

    return decide


# ---------------------------------------------------------------------
# Global Ramseyness over large induced subgraphs


class GlobalVerdict(_Record):
    def __init__(self, status: str, subset: Optional[tuple[int, ...]] = None,
                 witness: Optional[EdgeColoring] = None, subsets_checked: int = 0,
                 note: str = ""):
        self.status = status
        self.subset = subset
        self.witness = witness
        self.subsets_checked = subsets_checked
        self.note = note


def decide_globally_ramsey(query: RamseyQuery, mu, mode: str = "exhaustive",
                           samples: int = 200, seed: int = 0) -> GlobalVerdict:
    """Is every induced subgraph on at least mu*n vertices Ramsey?

    Ramseyness is monotone under adding vertices, so only subsets of
    the minimum qualifying size need checking; exhaustive mode checks
    all of them (n <= 20), sampled mode draws seeded random subsets with
    replacement and can only ever report that no counterexample was
    found.  mode, mu (finite, > 0), samples (>= 0) and the cap are
    checked before any answer.  Without forbidden sets the subsets go
    through one verdict library (module docstring), which settles a
    repeated draw with no search; with them each subset has its own
    remapped sets and is searched afresh.
    """
    import random
    from fractions import Fraction

    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if not 0 < mu < math.inf:  # also refuses NaN
        raise ValueError(f"need a finite mu > 0, got {mu}")
    if samples < 0:
        raise ValueError(f"need samples >= 0, got {samples}")
    host = query.host
    n = host.n
    if mode == "exhaustive" and n > 20:
        raise ValueError("exhaustive mode limited to 20 vertices")
    # a qualifying subset has mu*n > 0 vertices, so at least one
    s_min = max(1, math.ceil(mu * n if isinstance(mu, Fraction) else mu * n - 1e-12))
    if s_min > n:
        return GlobalVerdict("globally_ramsey", subsets_checked=0,
                             note="no subset is large enough to qualify")
    if mode == "exhaustive":
        subsets = itertools.combinations(range(n), s_min)
    else:
        rng = random.Random(seed)
        subsets = (tuple(sorted(rng.sample(range(n), s_min)))
                   for _ in range(samples))

    decide = decide_ramsey if any(query.forbidden) else _monotone_decider(decide_ramsey)
    checked = 0
    for subset in subsets:
        pos = {vertex: i for i, vertex in enumerate(subset)}
        inside = set(subset)
        forbidden = tuple(
            frozenset(frozenset(pos[x] for x in entry)
                      for entry in per_color if set(entry) <= inside)
            for per_color in query.forbidden)
        verdict = decide(RamseyQuery(host.induced(subset), query.targets, forbidden,
                                     query.node_budget))
        checked += 1
        if verdict.status == INCONCLUSIVE:
            return GlobalVerdict(INCONCLUSIVE, subset=subset,
                                 subsets_checked=checked,
                                 note=verdict.stats.note)
        if verdict.status == NOT_RAMSEY:
            return GlobalVerdict("not_globally_ramsey", subset=subset,
                                 witness=verdict.witness, subsets_checked=checked)
    if mode == "sampled":
        return GlobalVerdict("no_counterexample_found", subsets_checked=checked,
                             note="sampled evidence only, one sided")
    return GlobalVerdict("globally_ramsey", subsets_checked=checked)


# ---------------------------------------------------------------------
# CNF export


class CnfDocument(_Record):
    def __init__(self, nvars: int, clauses: list[tuple[int, ...]], comments: list[str]):
        self.nvars = nvars
        self.clauses = clauses
        self.comments = comments

    def dimacs(self) -> str:
        lines = [f"c {line}" for line in self.comments]
        lines.append(f"p cnf {self.nvars} {len(self.clauses)}")
        for clause in self.clauses:
            lines.append(" ".join(str(lit) for lit in clause) + " 0")
        return "\n".join(lines) + "\n"


def export_cnf(query: RamseyQuery, clause_cap: int = 10 ** 6) -> CnfDocument:
    """CNF whose satisfying assignments are exactly the valid
    counterexample colorings; unsatisfiable iff the host is Ramsey.

    Two colors: variable i+1 says canonical edge i gets color 0, a
    color-0 copy contributes an all-negative clause, a color-1 copy an
    all-positive one.  More colors: one-hot variables edge*r + c + 1
    with at-least-one and at-most-one clauses per edge, and an
    all-negative clause per copy in its color.  Copies are distinct
    edge subsets; one whose every placement lies on a forbidden vertex
    set contributes no clause.  A copy's clause lists its edges in
    canonical order, the literals of its ascending edge indices.
    Building stops with a ValueError as soon as the clause count passes
    clause_cap, so copies past it are never listed.
    """
    host = query.host
    m = len(host.edges())
    r = query.r
    comments = [
        "ramsey colorability instance",
        f"host: n={host.n} edges={m} colors={r}",
        "satisfiable iff a coloring avoids all monochromatic copies",
    ]
    if r == 2:
        comments.append("variable i+1 true means canonical edge i has color 0")
        nvars = m
        # a color-0 copy may not have all its edges true, a color-1 copy all false
        literals = [[-(i + 1) for i in range(m)], [i + 1 for i in range(m)]]
    else:
        comments.append(f"variable e*{r}+c+1 true means canonical edge e has color c")
        nvars = m * r
        literals = [[-(i * r + c + 1) for i in range(m)] for c in range(r)]

    def all_clauses():
        if r > 2:
            for i in range(m):
                yield tuple(i * r + c + 1 for c in range(r))
                for c1 in range(r):
                    for c2 in range(c1 + 1, r):
                        yield (-(i * r + c1 + 1), -(i * r + c2 + 1))
        for c in range(r):
            lits = literals[c]
            for pat in query.targets[c]:
                for _, ids in _allowed_copies(host, pat, query.forbidden[c]):
                    yield tuple([lits[i] for i in ids])

    clauses = list(itertools.islice(all_clauses(), clause_cap + 1))
    if len(clauses) > clause_cap:
        raise ValueError(f"more than {clause_cap} clauses, the clause cap")
    return CnfDocument(nvars, clauses, comments)
