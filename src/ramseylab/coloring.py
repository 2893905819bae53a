"""Exact Ramsey colorability by backtracking search, plus CNF export.

decide_ramsey answers whether every r-coloring of a host graph's edges
contains a monochromatic copy of one of that color's target patterns
(outside optional forbidden vertex sets).  Edges are branched in
canonical lexicographic order with a fixed color order; assigning a
color is pruned exactly when it completes a monochromatic non-forbidden
copy through the new edge, so a full assignment is always a valid
counterexample and exhausting the tree is a proof of Ramseyness.

Verdicts are first class: Ramsey and NotRamsey are only reported from a
completed search (witnesses are re-verified independently); running out
of node or time budget yields Inconclusive, never a guess.

Forbidden copies are identified by vertex set: any copy whose vertex
set is listed for its color does not count, whatever its edges.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .graphs import (Graph, Pattern, _allowed_copies, _copy_edges, _iter_through,
                     clique, clique_graph, contains_pattern)

DEFAULT_NODE_BUDGET = 10 ** 8
DEFAULT_TIME_BUDGET = 60.0

RAMSEY = "ramsey"
NOT_RAMSEY = "not_ramsey"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class RamseyQuery:
    """Host graph, per-color target patterns and per-color forbidden
    vertex sets, with search budgets."""

    host: Graph
    targets: tuple[tuple[Pattern, ...], ...]
    forbidden: tuple[frozenset, ...]
    node_budget: int = DEFAULT_NODE_BUDGET
    time_budget: float = DEFAULT_TIME_BUDGET

    @property
    def r(self) -> int:
        return len(self.targets)


def ramsey_query(host: Graph, targets: Sequence, forbidden: Optional[Sequence] = None,
                 node_budget: int = DEFAULT_NODE_BUDGET,
                 time_budget: float = DEFAULT_TIME_BUDGET) -> RamseyQuery:
    """Normalize loose inputs: each color's targets may be a single
    Pattern or an iterable; forbidden entries are vertex iterables."""
    norm_targets = _normalize_targets(targets)
    if forbidden is None:
        norm_forbidden = tuple(frozenset() for _ in norm_targets)
    else:
        if len(forbidden) != len(norm_targets):
            raise ValueError("forbidden list length must match color count")
        norm_forbidden = tuple(frozenset(frozenset(vs) for vs in entry)
                               for entry in forbidden)
    if host.n < 1:
        raise ValueError("host graph must be nonempty")
    return RamseyQuery(host, norm_targets, norm_forbidden, node_budget, time_budget)


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


@dataclass
class SearchStats:
    nodes: int = 0
    checks: int = 0
    elapsed: float = 0.0
    note: str = ""


@dataclass(frozen=True)
class EdgeColoring:
    """Colors indexed by the host's canonical edge order."""

    host: Graph
    r: int
    colors: tuple[int, ...]

    def __post_init__(self):
        if len(self.colors) != len(self.host.edges()):
            raise ValueError("color count does not match edge count")
        if self.r < 1 or any(not 0 <= c < self.r for c in self.colors):
            raise ValueError("colors must lie in 0..r-1")

    def color_subgraph(self, c: int) -> Graph:
        edges = [e for e, col in zip(self.host.edges(), self.colors) if col == c]
        return self.host.subgraph_with_edges(edges)

    def to_jsonable(self) -> dict:
        from . import graph6
        return {"host": graph6.encode(self.host), "r": self.r,
                "colors": list(self.colors)}

    @classmethod
    def from_jsonable(cls, data: dict) -> "EdgeColoring":
        from . import graph6
        return cls(graph6.decode(data["host"]), int(data["r"]),
                   tuple(int(c) for c in data["colors"]))


@dataclass
class RamseyVerdict:
    status: str
    witness: Optional[EdgeColoring] = None
    stats: SearchStats = field(default_factory=SearchStats)

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


def _blocking_copy(adjc, n: int, u: int, v: int, pat: Pattern, forb: frozenset
                   ) -> Optional[list[tuple[int, int]]]:
    """Edges of a monochromatic non-forbidden copy of pat finished by
    coloring (u,v), or None.  The color graph adjc already holds the
    new edge.  The returned edge list is the conflict reason used for
    backjumping."""
    # K3 and C3 are the same triangle: the least common neighbor closes
    # it, the copy the general iterators would find first
    if pat.size == 3 and pat.kind in ("clique", "cycle") and not forb:
        common = adjc[u] & adjc[v]
        if common:
            w = (common & -common).bit_length() - 1
            return [(u, v), (u, w), (v, w)]
        return None
    for w in _iter_through(n, adjc, u, v, pat):
        if not forb or frozenset(w) not in forb:
            return _copy_edges(pat, w)
    return None


# ---------------------------------------------------------------------
# The decision procedure


# (n, targets) -> (True/False, nodes the proof took, None) for a completed
# search on K_n, or (None, node budget, time budget) for one that ran out.
_ramsey_number_cache: dict = {}


def _complete_host_ramsey(n: int, targets, node_budget: int = DEFAULT_NODE_BUDGET,
                          time_budget: float = DEFAULT_TIME_BUDGET) -> Optional[bool]:
    """Is K_n Ramsey for the targets?  None when the budget ran out.

    The memo answers as a fresh search would: a stored proof only when
    the caller's node budget covers the nodes it took, a stored
    budget-out only when the caller's budgets are no larger than those
    that ran out.  A completed search is never replaced.
    """
    key = (n, targets)
    entry = _ramsey_number_cache.get(key)
    if entry is not None:
        result, nodes, secs = entry
        if result is not None:
            if node_budget >= nodes:
                return result
        elif node_budget <= nodes and time_budget <= secs:
            return None
    q = RamseyQuery(clique_graph(n), targets,
                    tuple(frozenset() for _ in targets), node_budget, time_budget)
    verdict = decide_ramsey(q, symmetry_breaking=True)
    result = None if verdict.status == INCONCLUSIVE else verdict.is_ramsey
    if entry is None or entry[0] is None:
        _ramsey_number_cache[key] = ((None, node_budget, time_budget) if result is None
                                     else (result, verdict.stats.nodes, None))
    return result


def targets_ramsey_number(targets, cap: int = 12,
                          node_budget: int = DEFAULT_NODE_BUDGET,
                          time_budget: float = DEFAULT_TIME_BUDGET) -> Optional[int]:
    """Least n <= cap with K_n Ramsey for the per-color targets; None
    when no size in range is, or when a budget runs out first.

    Each color's targets may be a single Pattern or an iterable.
    Complete-host Ramseyness is monotone in n, so the first hit is the
    Ramsey number.  Searches on K_n are memoized per process.
    """
    targets = _normalize_targets(targets)
    for n in range(2, cap + 1):
        got = _complete_host_ramsey(n, targets, node_budget, time_budget)
        if got is None:
            return None
        if got:
            return n
    return None


def decide_ramsey(query: RamseyQuery, *, symmetry_breaking: bool = False,
                  clique_shortcut: bool = False) -> RamseyVerdict:
    """Decide whether the host is Ramsey for the query.

    Ramsey means exhaustive refutation completed; NotRamsey carries a
    witness coloring that is re-verified before returning; Inconclusive
    means a budget was hit.  symmetry_breaking pins the first edge to
    color 0 when the host is complete, all colors share one target list
    and nothing is forbidden (any counterexample can be color-permuted
    into that form).  clique_shortcut additionally reports Ramsey when
    the host contains a complete subgraph of solver-derived Ramsey
    order, which is sound by monotonicity; it never fires with
    forbidden sets present.
    """
    host = query.host
    r = query.r
    start = time.monotonic()
    stats = SearchStats()

    if clique_shortcut and all(not f for f in query.forbidden):
        number = targets_ramsey_number(query.targets, cap=min(host.n, 12),
                                       node_budget=query.node_budget,
                                       time_budget=query.time_budget)
        if number is not None and contains_pattern(host, clique(number)):
            stats.elapsed = time.monotonic() - start
            stats.note = f"complete subgraph on {number} vertices is Ramsey"
            return RamseyVerdict(RAMSEY, None, stats)

    symmetric = (symmetry_breaking and host.is_complete()
                 and all(t == query.targets[0] for t in query.targets)
                 and all(not f for f in query.forbidden))

    edges = host.edges()
    n_edges = len(edges)
    # Branch vertex-incrementally: all edges inside {0..j} before any edge
    # touching j+1, so conflicts stay local to the newest vertices.
    # Reported colorings still use the public canonical (lexicographic)
    # edge order.
    order = sorted(range(n_edges), key=lambda i: (edges[i][1], edges[i][0]))
    depth_of_edge = {edges[idx]: d for d, idx in enumerate(order)}

    adj_colors = [[0] * host.n for _ in range(r)]
    choice = [-1] * n_edges
    # conflict-directed backjumping: conf[d] collects the depths whose
    # assignments blocked some color at depth d; a dead end jumps to the
    # deepest of them, merging the rest, which is complete (any deeper
    # reassignment alone cannot unblock this edge)
    conf: list[set[int]] = [set() for _ in range(n_edges)]
    depth = 0
    ticks = 0

    def clear(c: int, u: int, v: int):
        adj_colors[c][u] &= ~(1 << v)
        adj_colors[c][v] &= ~(1 << u)

    while True:
        ticks += 1
        if stats.nodes > query.node_budget:
            stats.elapsed = time.monotonic() - start
            stats.note = "node budget exhausted"
            return RamseyVerdict(INCONCLUSIVE, None, stats)
        if ticks % 2048 == 0 and time.monotonic() - start > query.time_budget:
            stats.elapsed = time.monotonic() - start
            stats.note = "time budget exhausted"
            return RamseyVerdict(INCONCLUSIVE, None, stats)

        if depth == n_edges:
            colors = [0] * n_edges
            for d in range(n_edges):
                colors[order[d]] = choice[d]
            coloring = EdgeColoring(host, r, tuple(colors))
            bad = verify_coloring(coloring, query)
            if bad:
                raise AssertionError(f"search produced an invalid witness: {bad}")
            stats.elapsed = time.monotonic() - start
            return RamseyVerdict(NOT_RAMSEY, coloring, stats)

        u, v = edges[order[depth]]
        c = choice[depth]
        if c >= 0:
            clear(c, u, v)
            c += 1
        else:
            c = 0
        limit = 1 if (symmetric and depth == 0) else r
        placed = False
        while c < limit:
            stats.nodes += 1
            adjc = adj_colors[c]
            adjc[u] |= 1 << v
            adjc[v] |= 1 << u
            reason = None
            for pat in query.targets[c]:
                stats.checks += 1
                reason = _blocking_copy(adjc, host.n, u, v, pat, query.forbidden[c])
                if reason is not None:
                    break
            if reason is None:
                choice[depth] = c
                depth += 1
                placed = True
                break
            clear(c, u, v)
            here = conf[depth]
            for a, b in reason:
                if (a, b) != (u, v) and (b, a) != (u, v):
                    here.add(depth_of_edge[(a, b) if a < b else (b, a)])
            c += 1
        if placed:
            continue
        # dead end: every color blocked
        here = conf[depth]
        choice[depth] = -1
        if not here:
            # blocked independently of every other assignment
            stats.elapsed = time.monotonic() - start
            return RamseyVerdict(RAMSEY, None, stats)
        target = max(here)
        conf[target] |= here
        conf[target].discard(target)
        here.clear()
        for lvl in range(depth - 1, target, -1):
            if choice[lvl] >= 0:
                eu, ev = edges[order[lvl]]
                clear(choice[lvl], eu, ev)
                choice[lvl] = -1
            conf[lvl].clear()
        depth = target


# ---------------------------------------------------------------------
# Global Ramseyness over large induced subgraphs


@dataclass
class GlobalVerdict:
    status: str
    subset: Optional[tuple[int, ...]] = None
    witness: Optional[EdgeColoring] = None
    subsets_checked: int = 0
    note: str = ""


def decide_globally_ramsey(query: RamseyQuery, mu, mode: str = "exhaustive",
                           samples: int = 200, seed: int = 0) -> GlobalVerdict:
    """Is every induced subgraph on at least mu*n vertices Ramsey?

    Ramseyness is monotone under adding vertices, so only subsets of
    the minimum qualifying size need checking; exhaustive mode checks
    all of them (n <= 20), sampled mode draws seeded random subsets and
    can only ever report that no counterexample was found.
    """
    import itertools
    import math
    import random
    from fractions import Fraction

    host = query.host
    n = host.n
    if isinstance(mu, Fraction):
        s_min = max(0, -((-mu.numerator * n) // mu.denominator))
    else:
        s_min = max(0, math.ceil(mu * n - 1e-12))
    if s_min > n:
        return GlobalVerdict("globally_ramsey", subsets_checked=0,
                             note="no subset is large enough to qualify")
    if mode == "exhaustive":
        if n > 20:
            raise ValueError("exhaustive mode limited to 20 vertices")
        subsets = itertools.combinations(range(n), s_min)
    elif mode == "sampled":
        rng = random.Random(seed)
        subsets = (tuple(sorted(rng.sample(range(n), s_min)))
                   for _ in range(samples))
    else:
        raise ValueError(f"unknown mode {mode!r}")

    checked = 0
    for subset in subsets:
        sub = host.induced(subset)
        pos = {vertex: i for i, vertex in enumerate(subset)}
        inside = set(subset)
        forbidden = tuple(
            frozenset(frozenset(pos[x] for x in entry)
                      for entry in per_color if set(entry) <= inside)
            for per_color in query.forbidden)
        q = RamseyQuery(sub, query.targets, forbidden,
                        query.node_budget, query.time_budget)
        verdict = decide_ramsey(q)
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


@dataclass
class CnfDocument:
    nvars: int
    clauses: list[tuple[int, ...]]
    comments: list[str]

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
    set contributes no clause.
    """
    host = query.host
    edges = host.edges()
    index = {e: i for i, e in enumerate(edges)}
    r = query.r
    clauses: list[tuple[int, ...]] = []
    comments = [
        "ramsey colorability instance",
        f"host: n={host.n} edges={len(edges)} colors={r}",
        "satisfiable iff a coloring avoids all monochromatic copies",
    ]
    if r == 2:
        comments.append("variable i+1 true means canonical edge i has color 0")
        copies_per_color = []
        for c in range(r):
            copy_edges = []
            for pat in query.targets[c]:
                for _, pat_edges in _allowed_copies(host, pat, query.forbidden[c]):
                    copy_edges.append(pat_edges)
            copies_per_color.append(copy_edges)
        for pat_edges in copies_per_color[0]:
            clauses.append(tuple(-(index[e] + 1) for e in pat_edges))
        for pat_edges in copies_per_color[1]:
            clauses.append(tuple(index[e] + 1 for e in pat_edges))
        nvars = len(edges)
    else:
        comments.append(f"variable e*{r}+c+1 true means canonical edge e has color c")
        nvars = len(edges) * r
        for i in range(len(edges)):
            clauses.append(tuple(i * r + c + 1 for c in range(r)))
            for c1 in range(r):
                for c2 in range(c1 + 1, r):
                    clauses.append((-(i * r + c1 + 1), -(i * r + c2 + 1)))
        for c in range(r):
            for pat in query.targets[c]:
                for _, pat_edges in _allowed_copies(host, pat, query.forbidden[c]):
                    clauses.append(tuple(-(index[e] * r + c + 1) for e in pat_edges))
    if len(clauses) > clause_cap:
        raise ValueError(f"clause count {len(clauses)} exceeds cap {clause_cap}")
    return CnfDocument(nvars, clauses, comments)
