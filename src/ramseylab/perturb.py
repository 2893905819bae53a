"""Randomly perturbed hosts and Monte Carlo threshold scans.

Random graphs are drawn by a counter-based generator: each potential
edge's uniform variate is a stateless 64-bit mix of (seed, trial index,
edge index), so any trial can be regenerated in isolation and results
are independent of evaluation order and platform.  The same variates
serve every p (common random numbers), which couples the success
curves across the grid and keeps the empirical curve monotone apart
from decision noise.

A perturbed host G ∪ G(n,p) differs from its base only on the base's
missing pairs, so perturb and the scan draw variates for those pairs
alone, each under its index in the canonical order of the complete
graph: the variate of a pair is the one sample_gnp gives it.  Graphs
are drawn through one kernel in two parts: _pack packs an index list
into one integer, lanes 128 bits apart, and multiplies it by the edge
weight; _draw adds a trial's counter to every lane and mixes all of
them in one pass, returning each variate as a 53-bit integer x, the
variate being x / 2**53, so comparing it with p is exact; perturb
runs both for one trial.  edge_variate is the scalar form and the
reference.  A scan packs its base's missing pairs once and draws each
trial's variates in one _draw call, and drops the pairs that would
arrive at or above its last grid point; the others enter the trial's
host in arrival order as p grows along the sorted grid, so the host at
each grid point is exactly perturb(base, p, seed, trial).

Hosts are nested in p within a trial, and being Ramsey for non-induced
targets is monotone under adding edges.  threshold_scan settles, once
per base and before any trial, the verdicts that no budget can change:
it gives the walk a number R, or None, such that a host holding a K_R
is Ramsey.  A target without edges makes every host Ramsey, so R = 0,
which every host holds.  Otherwise, with the clique shortcut, R = the
least n' <= n (capped at 12) with K_n' Ramsey for the targets depends
only on the targets, the node budget and the cap min(n, 12), so it is
searched once per distinct cap, not once per base.  Every K_R search
runs the flat clique kernel graphs._first_clique, which the engine's
clique finder also runs; the base's own test puts a greedy colouring
in front of it.  A base holding a K_R makes every host Ramsey, so
nothing is drawn or decided.  A host holding a K_R is Ramsey, and so
is every later host of its trial, which then count as successes
without being built.  Some missing pairs close a K_R with the base's
edges alone, and they are listed once per base: a trial's least
variate over them gives the grid point from which its hosts are
Ramsey, with no test at all.  On a Turan base with R - 1 parts every
pair closes, so a trial is one min over its variates.  The other pairs
arriving before that point are walked: a trial's hosts lack a K_R
until one arrives with a new pair, so only the pairs that arrived
since the previous grid point are tested, each for a K_R through it.
The node budget is the only limit on a search, so no verdict depends on
machine speed, and every search verdict, inconclusive ones too, is
decided once per host for the rest of the scan of its base.

A scan of one base walks every trial once.  A host that stands at
some grid points is decided where the walk first meets it, by the one
function decide(query) -> verdict that threshold_scan builds for the
base from the scan's cache and order, so hosts are decided in
first-seen order; its status is kept by adjacency, so memory grows
with distinct hosts, not with runs, and each run of grid points the
host stands at is tallied under that status at once.  Every trial's
first run stands the base itself: the base too is decided where the
walk first meets it, but its runs are counted per end point and
tallied under its status once, after the last trial.  The K_R test
looks only at arrivals, so no verdict steers the walk.

With cache "none" decide is the search itself, so no Ramsey verdict is
carried to other hosts: a fresh search of a larger host could run out
of node budget.  A status is then a pure function of (host, targets,
node budget, order).

With cache "monotone" decide is one coloring._monotone_decider per base
(coloring's docstring), which may settle a host a search leaves
inconclusive, so the cache is part of a scan's manifest.

A scan's order names the search that decide runs, looked up when
threshold_scan starts.  Under "canonical" it is decide_ramsey, which
searches a host as labelled.  Under "degree" it is
coloring._decide_degree_first, which relabels the host so that its
densest vertices branch first: a perturbed host's random edges raise
the degrees of a few arbitrarily labelled vertices, which the label
order often reaches last.  A relabelling is an isomorphism, so a
decided status is the same in both orders and the mapped-back witness
is re-verified; but a search can decide within its node budget in one
order and not in the other, so the order is part of a scan's manifest
too.

Ramsey trials that exhaust their node budget count as Inconclusive:
they are reported separately and excluded from the success-rate
denominator, never as success or failure.
"""

from __future__ import annotations

import bisect
import itertools
import math
import struct
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .coloring import (DEFAULT_NODE_BUDGET, DEFAULT_RAMSEY_CAP, INCONCLUSIVE, RAMSEY,
                       RamseyQuery, RamseyVerdict, _decide_degree_first, _edgeless_target,
                       _monotone_decider, decide_ramsey, ramsey_query,
                       targets_ramsey_number)
from .densities import _check_prob
from .graphs import Graph, _check_vertex, _first_clique, _Record, empty_graph

_MASK64 = (1 << 64) - 1
_UNIT = float(1 << 53)  # a variate is a 53-bit integer divided by this
_WILSON_Z = 1.959963984540054  # two-sided 95%
DEFAULT_PER_DECADE = 13  # log_spaced_grid points per decade of p
_GRID_LIMIT = 10_000  # the most points log_spaced_grid builds
_CACHES = ("monotone", "none")  # how a scan decides its distinct hosts
_ORDERS = ("degree", "canonical")  # the vertex order a scan's searches branch in

# splitmix64: the counter's weights for seed, trial and edge index, its
# offset, and the two multipliers of the finalizer
_SEED_MUL, _TRIAL_MUL, _EDGE_MUL = 0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9
_OFFSET = 0xD6E8FEB86659FD93
_MIX_MUL1, _MIX_MUL2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _mix64(x: int) -> int:
    x &= _MASK64
    x ^= x >> 30
    x = (x * _MIX_MUL1) & _MASK64
    x ^= x >> 27
    x = (x * _MIX_MUL2) & _MASK64
    x ^= x >> 31
    return x


def edge_variate(seed: int, trial: int, edge_idx: int) -> float:
    """Uniform [0,1) variate for one potential edge of one trial."""
    x = (seed * _SEED_MUL + trial * _TRIAL_MUL + edge_idx * _EDGE_MUL + _OFFSET) & _MASK64
    x = _mix64(_mix64(x))
    return (x >> 11) / _UNIT


def _pack(indices: Sequence[int]) -> tuple:
    """The part of _draw's kernel that depends only on the edge indices
    given (each in 0..2**64-1), built once per index list: the struct
    layout, the lane constants and the packed indices times the edge
    weight, with the byte length of the packed integer.

    Each index gets a 64-bit lane of one integer, the lanes 128 bits
    apart, so a lane times a 64-bit multiplier stays inside its own
    slot.  Lanes are packed and read back little-endian, whatever the
    host's byte order.
    """
    k = len(indices)
    layout = "<" + "Q8x" * k
    ones = int.from_bytes((b"\x01" + bytes(15)) * k, "little")
    term = int.from_bytes(struct.pack(layout, *indices), "little") * _EDGE_MUL
    return layout, ones, ones * _MASK64, term, 16 * k


def _draw(packed: tuple, seed: int, trial: int) -> tuple[int, ...]:
    """One trial's variates for the indices packed by _pack, as the
    53-bit integers x with edge_variate(seed, trial, j) == x / 2**53;
    the variate is below p exactly when x < p * 2**53.

    The trial's counter is added to every lane at once, and the two
    splitmix64 rounds run as whole-integer shifts, XORs and multiplies.
    An AND with the lane mask reduces every product mod 2**64 and,
    before each multiply, clears the bits a right shift brought down
    from the next lane into a slot's upper half.
    """
    layout, ones, lanes, term, size = packed
    x = (term + ((seed * _SEED_MUL + trial * _TRIAL_MUL + _OFFSET) & _MASK64) * ones) & lanes
    for _ in range(2):
        x ^= x >> 30
        x = (x & lanes) * _MIX_MUL1 & lanes
        x ^= x >> 27
        x = (x & lanes) * _MIX_MUL2 & lanes
        # the next lane's low bits land above bit 96 of the slot, where
        # the next shift keeps them out of the lane and the next AND clears them
        x ^= x >> 31
    return struct.unpack(layout, (x >> 11).to_bytes(size, "little"))


def sample_gnp(n: int, p: float, seed: int, trial: int = 0) -> Graph:
    """Binomial random graph on n vertices; edge j appears when its
    counter variate is below p.  Edge indices follow the canonical
    order of the complete graph: the missing pairs of the empty graph
    are all of its pairs, so this is perturb of the empty graph."""
    return perturb(empty_graph(n), p, seed, trial)


def _missing_pairs(base: Graph) -> tuple[list[int], list[tuple[int, int]]]:
    """The pairs u < v absent from the base, and the index of each in
    the canonical order of the complete graph (sample_gnp's)."""
    adj = base.adj
    missing = [(j, (u, v)) for j, (u, v) in enumerate(itertools.combinations(range(base.n), 2))
               if not adj[u] >> v & 1]
    return [j for j, _ in missing], [e for _, e in missing]


def perturb(base: Graph, p: float, seed: int, trial: int = 0) -> Graph:
    """Union of the base graph with a fresh binomial random graph,
    base.union(sample_gnp(base.n, p, seed, trial)), drawing variates
    only for the base's missing pairs."""
    _check_prob(p)
    adj = list(base.adj)
    indices, pairs = _missing_pairs(base)
    cut = p * _UNIT
    for (u, v), x in zip(pairs, _draw(_pack(indices), seed, trial)):
        if x < cut:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph(base.n, tuple(adj), base.labels)


def wilson_interval(successes: int, total: int) -> tuple[float, float]:
    """95% score interval for a binomial proportion; (0,1) when empty.
    The interval ends exactly at 0 when no trial succeeds and at 1 when
    all do, where the rounded formula can miss by an ulp."""
    if not 0 <= successes <= total:
        raise ValueError(f"need 0 <= successes <= total, got successes={successes}, "
                         f"total={total}")
    if total == 0:
        return (0.0, 1.0)
    z = _WILSON_Z
    phat = successes / total
    denom = 1 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == total else min(1.0, center + half)
    return (lo, hi)


class MonteCarloRow(_Record):
    def __init__(self, n: int, p: float, trials: int, successes: int, inconclusive: int,
                 wilson_lo: float, wilson_hi: float):
        self.n = n
        self.p = p
        self.trials = trials
        self.successes = successes
        self.inconclusive = inconclusive
        self.wilson_lo = wilson_lo
        self.wilson_hi = wilson_hi

    @property
    def effective(self) -> int:
        return self.trials - self.inconclusive

    @property
    def rate(self) -> Optional[float]:
        return self.successes / self.effective if self.effective else None


def monte_carlo_ramsey(base: Graph, targets: Sequence, p: float, trials: int,
                       seed: int, node_budget: int = DEFAULT_NODE_BUDGET,
                       clique_shortcut: bool = True) -> MonteCarloRow:
    """Success rate of the Ramsey property over perturbed samples.

    Success means decide_ramsey proves the perturbed host Ramsey.  The
    one-point threshold scan of one base: hosts repeat, so search
    verdicts are cached by host adjacency for the duration of the call.
    It stays as the exported one-point entry, and perfbench/tracer.py
    wraps it by name as its perturb.row span.
    """
    return threshold_scan([base], targets, [p], trials, seed, node_budget,
                          clique_shortcut).rows[0]


def _holds_clique(n: int, adj, k: int) -> bool:
    """Whether the graph on vertices 0..n-1 with these adjacency rows
    holds a K_k.  A greedy proper colouring comes first: vertices in
    label order, each taking the least colour its earlier neighbours
    leave free.  Fewer than k colours proves there is no K_k; otherwise
    _first_clique decides."""
    classes: list[int] = []  # the vertex bitset of each colour
    for v in range(n):
        for i, c in enumerate(classes):
            if not adj[v] & c:
                classes[i] = c | 1 << v
                break
        else:
            classes.append(1 << v)
    return len(classes) >= k and _first_clique(adj, (1 << n) - 1, k) is not None


def _scan_base(base: Graph, template: RamseyQuery, grid: list[float], trials: int,
               seed: int, number: Optional[int],
               decide: Callable[[RamseyQuery], RamseyVerdict]) -> list[MonteCarloRow]:
    """One row per point of the ascending, nonempty grid, for one base,
    given its query template, the R or None such that a host holding a
    K_R is Ramsey (module docstring), and the function that decides a
    host.

    The base's K_R work is done once, before the first trial: whether
    the base itself holds a K_R (_holds_clique), and which missing pairs
    close one, each completing a K_R with the base's edges alone.  So is
    the per-base part of the variate kernel, the missing pairs' packed
    indices (_pack), the closing pairs first.  Then each trial draws
    variates for the base's missing pairs in one _draw call, and its
    hosts grow along the grid as those pairs arrive, so the host at p is
    exactly perturb(base, p, seed, trial).  The least variate of the
    closing pairs gives the grid point close at which the first of them
    arrives; the trial's hosts from there on are Ramsey.  Only the other
    pairs arriving at an earlier grid point are sorted and walked, so
    when every pair closes, none is.  A trial's earlier hosts all
    lack a K_R, so a walked host holds one only through a pair that has
    just arrived, and only those pairs are tested.  Each other host
    stands for a run of grid points.  The first time a host stands it
    gets one status from decide, inconclusive ones included, and a Graph
    is built only then; its status is kept by adjacency.  Each run adds
    its host's status at its first point and removes it at its end.
    A trial's first run is the base's, from grid point 0 to its first
    arrival or to close; the base is decided where the walk first meets
    it, but its runs are only counted per end point and tallied under
    its status once, after the trials, so a trial with no arrival (every
    trial when every pair closes) builds and hashes no host at all.
    """
    n = base.n
    # makes every host of every trial Ramsey at every p
    settled = number is not None and _holds_clique(n, base.adj, number)
    # per tallied status and grid point, the change in the status's
    # count of trials from the previous point
    deltas = {status: [0] * (len(grid) + 1) for status in (RAMSEY, INCONCLUSIVE)}
    successes = deltas[RAMSEY]
    if settled:
        successes[0] = trials
    statuses: dict = {}  # adjacency -> status, decided when the host first stands
    base_status = None  # the base's status, decided when it first stands
    base_ends = [0] * (len(grid) + 1)  # per end point, the trials whose base stands until it

    def status(key: tuple) -> str:
        """The status of the host with these adjacency rows."""
        if key not in statuses:
            statuses[key] = decide(RamseyQuery(Graph(n, key, base.labels),
                                               template.targets, template.forbidden,
                                               template.node_budget)).status
        return statuses[key]

    indices, pairs = _missing_pairs(base)
    closing = 0  # how many leading pairs complete a K_R with the base's edges
    if number is not None and not settled:
        closes = [_first_clique(base.adj, base.adj[u] & base.adj[v], number - 2) is not None
                  for u, v in pairs]
        ranked = sorted(range(len(pairs)), key=lambda i: not closes[i])
        indices, pairs = [indices[i] for i in ranked], [pairs[i] for i in ranked]
        closing = sum(closes)
    walked = pairs[closing:]
    packed = _pack(indices)
    cuts = [p * _UNIT for p in grid]
    for t in range(0 if settled else trials):
        xs = _draw(packed, seed, t)
        # the grid point from which a closing pair stands, and the
        # variates below which the other pairs arrive before it
        close, top = len(grid), cuts[-1]
        if closing:
            least = min(xs[:closing]) if walked else min(xs)
            if least < top:
                close = bisect.bisect_right(cuts, least)
                top = cuts[close - 1] if close else 0.0
        arrivals = sorted([(x, e) for x, e in zip(xs[closing:], walked) if x < top]
                          ) if walked else []
        # the base stands until the grid point end of the first arrival,
        # or until close when none arrives
        end = bisect.bisect_right(cuts, arrivals[0][0]) if arrivals else close
        if end:
            if base_status is None:
                base_status = status(base.adj)
            base_ends[end] += 1
        if arrivals:
            adj = list(base.adj)
        k = 0
        while k < len(arrivals):
            # the pairs arriving at grid point end join the host
            first = k
            while k < len(arrivals) and arrivals[k][0] < cuts[end]:
                _, (u, v) = arrivals[k]
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                k += 1
            if number is not None and any(
                    _first_clique(adj, adj[u] & adj[v], number - 2) is not None
                    for _, (u, v) in arrivals[first:k]):
                successes[end] += 1  # carried to the last point
                break
            # the host stands until the next arrival, or until close
            start = end
            end = bisect.bisect_right(cuts, arrivals[k][0]) if k < len(arrivals) else close
            counts = deltas.get(status(tuple(adj)))
            if counts is not None:
                counts[start] += 1
                counts[end] -= 1
        else:
            if close < len(grid):
                successes[close] += 1  # carried to the last point
    # the base's runs, tallied at once under its status
    counts = deltas.get(base_status)
    if counts is not None:
        for end, runs in enumerate(base_ends):
            counts[0] += runs
            counts[end] -= runs
    rows = []
    s = inc = 0
    for p, ds, dinc in zip(grid, successes, deltas[INCONCLUSIVE]):
        s += ds
        inc += dinc
        lo, hi = wilson_interval(s, trials - inc)
        rows.append(MonteCarloRow(n, p, trials, s, inc, lo, hi))
    return rows


def log_spaced_grid(p_lo: float, p_hi: float,
                    per_decade: int = DEFAULT_PER_DECADE) -> list[float]:
    """Log-spaced probabilities from p_lo to p_hi inclusive, at most
    _GRID_LIMIT of them."""
    if not 0 < p_lo < p_hi <= 1:
        raise ValueError("need 0 < p_lo < p_hi <= 1")
    if per_decade < 1:
        raise ValueError(f"need per_decade >= 1, got {per_decade}")
    decades = math.log10(p_hi / p_lo)
    # counted exactly, before anything is built: per_decade may be an int
    # too large to multiply by a float.  The grid itself keeps the float
    # count, so every grid within the limit is the one it always was
    exact = round(Fraction(decades) * per_decade) + 1
    if exact > _GRID_LIMIT:
        raise ValueError(f"a grid of {exact} points is more than the limit of {_GRID_LIMIT}")
    count = max(2, round(decades * per_decade) + 1)
    return [min(1.0, p_lo * 10 ** (decades * i / (count - 1))) for i in range(count)]


class ScanResult(_Record):
    def __init__(self, rows: list[MonteCarloRow], crossings: dict[int, Optional[float]],
                 exponent: Optional[float], flags: Optional[list[str]] = None):
        self.rows = rows
        self.crossings = crossings
        self.exponent = exponent
        self.flags = [] if flags is None else flags

    def to_csv(self) -> str:
        lines = ["n,p,trials,successes,wilson_lo,wilson_hi,inconclusive"]
        for row in self.rows:
            lines.append(f"{row.n},{row.p!r},{row.trials},{row.successes},"
                         f"{row.wilson_lo!r},{row.wilson_hi!r},{row.inconclusive}")
        return "\n".join(lines) + "\n"


def _crossing(points: list[tuple[float, Optional[float]]]) -> Optional[float]:
    """First p where the rate reaches 1/2, interpolating linearly in log p
    (linearly in p on a bracket that starts at p = 0, which has no log)."""
    prev = None
    for p, rate in points:
        if rate is None:
            continue
        if rate >= 0.5:
            if prev is None:
                return p
            p0, r0 = prev
            if rate == r0:
                return p
            frac = (0.5 - r0) / (rate - r0)
            if p0 == 0:
                return frac * p
            return math.exp(math.log(p0) + frac * (math.log(p) - math.log(p0)))
        prev = (p, rate)
    return None


def threshold_scan(bases: Sequence[Graph], targets: Sequence, p_grid: Sequence[float],
                   trials: int, seed: int, node_budget: int = DEFAULT_NODE_BUDGET,
                   clique_shortcut: bool = True, cache: str = "none",
                   order: str = "canonical") -> ScanResult:
    """Success curves over a probability grid for one or more host sizes.

    Produces one row per (n, p), sorted; per-size crossing estimates;
    and, with at least two sizes crossing above p = 0, the empirical
    exponent log(p*_1/p*_2) / log(n_1/n_2) as a descriptive quantity.
    Flags record curve decreases beyond Wilson-interval overlap and
    all-inconclusive batches.  The options are resolved here into what
    each base's walk (_scan_base) needs: the R, or None, such that a
    host holding a K_R is Ramsey (module docstring), and a function that
    decides each host in this process, where the walk first meets it.
    order names its search: "canonical" (decide_ramsey, hosts searched
    as labelled) or "degree" (coloring._decide_degree_first, their
    densest vertices branching first).  cache is "none" (every distinct
    host searched) or "monotone" (hosts settled by containment where
    they can, through one _monotone_decider per base).
    """
    if cache not in _CACHES:
        raise ValueError(f"cache must be one of {_CACHES}, got {cache!r}")
    if order not in _ORDERS:
        raise ValueError(f"order must be one of {_ORDERS}, got {order!r}")
    if trials < 0:
        raise ValueError(f"trial count must be nonnegative, got {trials}")
    grid = sorted(p_grid)
    for p in grid:
        _check_prob(p)
    # looked up at the call, so a rebinding of either module name is seen
    search = {"degree": _decide_degree_first, "canonical": decide_ramsey}[order]
    rows: list[MonteCarloRow] = []
    flags: list[str] = []
    crossings: dict[int, Optional[float]] = {}
    numbers: dict = {}  # the shortcut's R per cap, shared by bases of one cap
    for base in bases:
        template = ramsey_query(base, targets, node_budget=node_budget)
        number = None
        if _edgeless_target(template) is not None:
            number = 0  # every host holds K_0, so every host is Ramsey
        elif clique_shortcut and grid:
            cap = min(base.n, DEFAULT_RAMSEY_CAP)
            if cap not in numbers:
                numbers[cap] = targets_ramsey_number(template.targets, cap=cap,
                                                     node_budget=template.node_budget)
            number = numbers[cap]
        decide = _monotone_decider(search) if cache == "monotone" else search
        size_rows = _scan_base(base, template, grid, trials, seed, number,
                               decide) if grid else []
        for row in size_rows:
            if row.effective == 0:
                flags.append(f"all trials inconclusive at n={row.n}, p={row.p!r}")
        for a, b in zip(size_rows, size_rows[1:]):
            if b.wilson_hi < a.wilson_lo:
                flags.append(f"success rate decreases beyond interval overlap "
                             f"between p={a.p!r} and p={b.p!r} at n={a.n}")
        crossings[base.n] = _crossing([(row.p, row.rate) for row in size_rows])
        rows.extend(size_rows)
    rows.sort(key=lambda row: (row.n, row.p))
    exponent = None
    # a size already Ramsey at p = 0 crosses at 0, where log p is undefined
    sized = [(n, c) for n, c in sorted(crossings.items()) if c]
    if len(sized) >= 2 and sized[0][0] != sized[-1][0]:
        (n1, c1), (n2, c2) = sized[0], sized[-1]
        exponent = math.log(c1 / c2) / math.log(n1 / n2)
    return ScanResult(rows, crossings, exponent, flags)


# ---------------------------------------------------------------------
# Dependent random choice selection


class DrcReport(_Record):
    def __init__(self, selected: list[int], removed: list[int], samples: list[list[int]],
                 subsets_checked: int, verified: bool, error: str = ""):
        self.selected = selected
        self.removed = removed
        self.samples = samples
        self.subsets_checked = subsets_checked
        self.verified = verified
        self.error = error


def drc_select(g: Graph, parts: Sequence[Sequence[int]], ell: int, t: int,
               gamma_target: float, seed: int,
               subset_cap: int = 10 ** 6) -> DrcReport:
    """Prune the last part so every ell-subset of the survivors has many
    common neighbors in each earlier part.

    Samples t vertices with repetition from each earlier part (counter
    RNG), keeps the last-part vertices adjacent to all samples, then
    removes one vertex from every ell-subset whose common neighborhood
    falls below gamma_target times some earlier part's size.  The
    result is re-verified exhaustively; exceeding the enumeration cap
    is an error rather than an unverified answer.
    """
    if len(parts) < 2:
        raise ValueError("need at least two parts")
    if ell < 1:
        raise ValueError("need ell >= 1")
    if t < 0:
        raise ValueError(f"need t >= 0 samples per part, got {t}")
    part_bits = []
    seen = set()
    for part in parts:
        vs = list(part)
        if not vs:
            raise ValueError("parts must be nonempty")
        for v in vs:
            _check_vertex(g.n, v)
        if seen.intersection(vs):
            raise ValueError("parts must be disjoint")
        seen.update(vs)
        part_bits.append(sum(1 << v for v in vs))

    samples = []
    counter = 0
    for part in parts[:-1]:
        vs = sorted(part)
        drawn = []
        for _ in range(t):
            u = edge_variate(seed, 0, counter)
            counter += 1
            drawn.append(vs[int(u * len(vs))])
        samples.append(drawn)

    last = sorted(parts[-1])
    keep = []
    for w in last:
        if all(g.has_edge(w, x) for drawn in samples for x in drawn):
            keep.append(w)

    def subset_ok(subset: tuple[int, ...]) -> bool:
        common = (1 << g.n) - 1
        for w in subset:
            common &= g.adj[w]
        for bits_, part in zip(part_bits[:-1], parts[:-1]):
            if (common & bits_).bit_count() < gamma_target * len(part):
                return False
        return True

    total = math.comb(len(keep), ell)
    if total > subset_cap:
        return DrcReport([], [], samples, 0, False,
                         f"{total} candidate subsets exceed the cap {subset_cap}")
    removed = []
    gone = set()
    for subset in itertools.combinations(keep, ell):
        if gone.intersection(subset):
            continue
        if not subset_ok(subset):
            victim = subset[0]
            gone.add(victim)
            removed.append(victim)
    selected = [w for w in keep if w not in gone]

    checked = 0
    for subset in itertools.combinations(selected, ell):
        checked += 1
        if checked > subset_cap:
            return DrcReport([], removed, samples, checked, False,
                             "verification pass exceeded the cap")
        if not subset_ok(subset):
            return DrcReport([], removed, samples, checked, False,
                             f"surviving subset {subset} fails the bound")
    return DrcReport(selected, removed, samples, checked, True)
