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
are drawn through _variates, which mixes all of a trial's indices in
one pass over a packed integer and returns each variate as a 53-bit
integer x, the variate being x / 2**53, so comparing it with p is
exact; edge_variate is the scalar form and the reference.  A scan
draws each trial's variates in one call and drops the pairs that would
arrive at or above its last grid point; the others enter the trial's
host in arrival order as p grows along the sorted grid, so the host at
each grid point is exactly perturb(base, p, seed, trial).

Hosts are nested in p within a trial, and being Ramsey for non-induced
targets is monotone under adding edges.  The scan settles, once per
base and before any trial, the verdicts that no budget can change.  A
target without edges makes every host on n vertices Ramsey, so nothing
is drawn or decided.  With the clique shortcut, R = the least n' <= n
(capped at 12) with K_n' Ramsey for the targets depends only on the
targets, the node budget and n.  A host holding a K_R is Ramsey, and so
is every later host of its trial, which then count as successes
without being built; a base holding a K_R makes every host Ramsey, so
again nothing is drawn or decided.  Otherwise a trial's hosts lack a
K_R until one arrives with a new pair, so only the pairs that arrived
since the previous grid point are tested, each for a K_R through it.
A Ramsey verdict reached by search is not carried forward, because a
fresh search of a larger host could run out of node budget.  The node
budget is the only limit on a search, so no verdict depends on machine
speed, and every search verdict, inconclusive ones too, is decided
once per host for the rest of the scan of its base.

A scan of one base runs in three phases.  It first walks every trial
and records each host that stands at some grid points as (host index,
first point, end point), the index interning the host's adjacency in
first-seen order, so memory grows with distinct hosts, not with runs;
the walk needs no verdict, as the K_R test looks only at arrivals.  It
then decides the distinct hosts in that order: in this process until
they have spent _SERIAL_NODES search nodes, the rest cut into one
contiguous chunk per usable CPU, each chunk but the last decided by a
forked worker that sends its statuses back through a pipe.  Last it
tallies each run under its host's status.  A status is a pure function
of (host, targets, node budget), and the chunks only say which process
computes it, so the bytes do not depend on the number of workers;
taskset -c 0 gives one chunk, as do platforms without fork and
processes running other threads.

Ramsey trials that exhaust their node budget count as Inconclusive:
they are reported separately and excluded from the success-rate
denominator, never as success or failure.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
import struct
import sys
from typing import Optional, Sequence

from .coloring import (DEFAULT_NODE_BUDGET, DEFAULT_RAMSEY_CAP, INCONCLUSIVE,
                       NOT_RAMSEY, RAMSEY, RamseyQuery, _edgeless_target,
                       decide_ramsey, ramsey_query, targets_ramsey_number)
from .densities import _check_prob
from .graphs import (Graph, _check_vertex, _iter_through, _Record, clique,
                     contains_pattern, empty_graph)

_MASK64 = (1 << 64) - 1
_UNIT = float(1 << 53)  # a variate is a 53-bit integer divided by this
_WILSON_Z = 1.959963984540054  # two-sided 95%
DEFAULT_PER_DECADE = 13  # log_spaced_grid points per decade of p
# search nodes a scan spends deciding hosts in-process before it splits
# the rest over the usable CPUs: a fork costs milliseconds, a node microseconds
_SERIAL_NODES = 20_000
_STATUSES = (RAMSEY, NOT_RAMSEY, INCONCLUSIVE)  # a worker sends a status as its index

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


def _variates(seed: int, trial: int, indices: Sequence[int]) -> tuple[int, ...]:
    """One trial's variates for the edge indices given (each in
    0..2**64-1), as the 53-bit integers x with edge_variate(seed, trial,
    j) == x / 2**53; the variate is below p exactly when x < p * 2**53.

    All indices are mixed at once.  Each gets a 64-bit lane of one
    integer, the lanes 128 bits apart, so a lane times a 64-bit
    multiplier stays inside its own slot, and the two splitmix64 rounds
    run as whole-integer shifts, XORs and multiplies.  An AND with the
    lane mask reduces every product mod 2**64 and, before each multiply,
    clears the bits a right shift brought down from the next lane into
    a slot's upper half.  Lanes are packed and read back little-endian,
    whatever the host's byte order.
    """
    k = len(indices)
    if not k:
        return ()
    layout = "<" + "Q8x" * k
    ones = int.from_bytes((b"\x01" + bytes(15)) * k, "little")
    lanes = ones * _MASK64
    counter = (seed * _SEED_MUL + trial * _TRIAL_MUL + _OFFSET) & _MASK64
    x = (int.from_bytes(struct.pack(layout, *indices), "little") * _EDGE_MUL
         + counter * ones) & lanes
    for _ in range(2):
        x ^= x >> 30
        x = (x & lanes) * _MIX_MUL1 & lanes
        x ^= x >> 27
        x = (x & lanes) * _MIX_MUL2 & lanes
        # the next lane's low bits land above bit 96 of the slot, where
        # the next shift keeps them out of the lane and the next AND clears them
        x ^= x >> 31
    return struct.unpack(layout, (x >> 11).to_bytes(16 * k, "little"))


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
    for (u, v), x in zip(pairs, _variates(seed, trial, indices)):
        if x < cut:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph(base.n, tuple(adj), base.labels)


def wilson_interval(successes: int, total: int) -> tuple[float, float]:
    """95% score interval for a binomial proportion; (0,1) when empty."""
    if total == 0:
        return (0.0, 1.0)
    z = _WILSON_Z
    phat = successes / total
    denom = 1 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


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
    one-point case of a threshold scan: hosts repeat, so search
    verdicts are cached by host adjacency for the duration of the call.
    It stays as the exported one-point entry, and perfbench/tracer.py
    wraps it by name as its perturb.row span.
    """
    return _scan_base(base, targets, [p], trials, seed, node_budget,
                      clique_shortcut)[0]


def _scan_base(base: Graph, targets: Sequence, grid: list[float], trials: int,
               seed: int, node_budget: int,
               clique_shortcut: bool) -> list[MonteCarloRow]:
    """One row per point of the ascending grid, for one base.

    The edgeless-target test, the shortcut's R and whether the base
    itself holds a K_R are worked out once, before the first trial
    (module docstring).  Then three phases.  The walk: each trial draws
    variates for the base's missing pairs in one call, and its hosts
    grow along the grid as those pairs arrive, so the host at p is
    exactly perturb(base, p, seed, trial).  Pairs arriving at or above
    the last grid point are dropped before the arrivals are sorted.  A
    trial's earlier hosts all lack a K_R, so a host holds one only
    through a pair that has just arrived, and only those pairs are
    tested.  Each other host is recorded once for the run of grid points
    it stands at, as its index among the distinct adjacencies and the
    run's ends.  The decisions: _decide_hosts decides each distinct
    host once, in first-seen order, inconclusive verdicts included; a
    Graph is built only for a host being decided.  Its serial prefix is
    counted in search nodes, not seconds, and its chunks are contiguous,
    so the split is the same on every run with the same CPU count, and
    no status depends on it.  The tally: each run adds its host's status
    at its first point and removes it at its end.
    """
    if trials < 0:
        raise ValueError(f"trial count must be nonnegative, got {trials}")
    template = ramsey_query(base, targets, node_budget=node_budget)
    for p in grid:
        _check_prob(p)
    if not grid:
        return []
    edgeless = _edgeless_target(template) is not None
    shortcut = None
    if clique_shortcut and not edgeless:
        number = targets_ramsey_number(template.targets, cap=min(base.n, DEFAULT_RAMSEY_CAP),
                                       node_budget=template.node_budget)
        if number is not None:
            shortcut = clique(number)
    # either makes every host of every trial Ramsey at every p
    settled = edgeless or shortcut is not None and contains_pattern(base, shortcut)
    # per status and grid point, the change in the status's count of
    # trials from the previous point
    deltas = {status: [0] * (len(grid) + 1) for status in _STATUSES}
    successes = deltas[RAMSEY]
    if settled:
        successes[0] = trials
    n = base.n
    hosts: dict = {}  # adjacency -> index, in first-seen order
    runs = []  # (host index, first grid point, end grid point)

    def stand(adj: list[int], start: int, end: int) -> None:
        """Record a host that stands at grid points start..end-1."""
        if start < end:
            runs.append((hosts.setdefault(tuple(adj), len(hosts)), start, end))

    indices, pairs = _missing_pairs(base)
    cuts = [p * _UNIT for p in grid]
    top = cuts[-1]
    for t in range(0 if settled else trials):
        arrivals = sorted([(x, e) for x, e in zip(_variates(seed, t, indices), pairs)
                           if x < top])
        adj = list(base.adj)
        start = k = 0
        while k < len(arrivals):
            # the next pairs arrive at grid point end; the host stands until then
            end = bisect.bisect_right(cuts, arrivals[k][0])
            stand(adj, start, end)
            first = k
            while k < len(arrivals) and arrivals[k][0] < cuts[end]:
                _, (u, v) = arrivals[k]
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                k += 1
            if shortcut is not None and any(
                    next(_iter_through(n, adj, u, v, shortcut), None) is not None
                    for _, (u, v) in arrivals[first:k]):
                successes[end] += 1  # carried to the last point
                break
            start = end
        else:
            stand(adj, start, len(grid))

    def decide(key: tuple[int, ...]) -> tuple[str, int]:
        verdict = decide_ramsey(RamseyQuery(Graph(n, key, base.labels), template.targets,
                                            template.forbidden, template.node_budget))
        return verdict.status, verdict.stats.nodes

    statuses = _decide_hosts(list(hosts), decide)
    for i, start, end in runs:
        counts = deltas[statuses[i]]
        counts[start] += 1
        counts[end] -= 1
    rows = []
    s = inc = 0
    for p, ds, dinc in zip(grid, successes, deltas[INCONCLUSIVE]):
        s += ds
        inc += dinc
        lo, hi = wilson_interval(s, trials - inc)
        rows.append(MonteCarloRow(n, p, trials, s, inc, lo, hi))
    return rows


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _decide_hosts(hosts: list, decide) -> list[str]:
    """The status of each host, in order; decide(host) returns the
    host's (status, search nodes).

    Hosts are decided here until they have spent _SERIAL_NODES nodes.
    The rest are cut into contiguous chunks, one per usable CPU; each
    chunk but the last goes to a forked worker, the last is decided
    here, and each worker writes one status byte per host to its pipe.
    There is one chunk where fork is missing, where one CPU is usable,
    and where other threads run, since a forked child would inherit
    their locks in whatever state they were.  A worker that raises
    sends its exception's text, which is raised here as a RuntimeError.
    Every worker is reaped before this returns or raises, and killed
    first when this process fails or is interrupted.
    """
    statuses = []
    spent = k = 0
    while k < len(hosts) and spent < _SERIAL_NODES:
        status, nodes = decide(hosts[k])
        statuses.append(status)
        spent += nodes
        k += 1
    threading = sys.modules.get("threading")  # no thread runs unless it is loaded
    alone = threading is None or threading.active_count() == 1
    count = _cpu_count() if hasattr(os, "fork") and alone else 1
    count = max(1, min(count, len(hosts) - k))
    bounds = [k + (len(hosts) - k) * i // count for i in range(count + 1)]
    workers = []  # (pid, read end of its pipe)
    sent, codes = [], []
    try:
        for lo, hi in zip(bounds, bounds[1:-1]):
            workers.append(_fork_decider(hosts[lo:hi], decide))
        own = [decide(host)[0] for host in hosts[bounds[-2]:]]
        for _, fd in workers:
            with open(fd, "rb", closefd=False) as pipe:
                sent.append(pipe.read())
    finally:
        failed = len(sent) < len(workers)
        if failed:
            import signal  # loaded only here, to keep import ramseylab light
        for pid, fd in workers:
            os.close(fd)
            if failed:
                os.kill(pid, signal.SIGKILL)
            codes.append(os.waitpid(pid, 0)[1])
    for data, code in zip(sent, codes):
        if code:
            text = data.decode(errors="replace") or f"wait status {code}"
            raise RuntimeError(f"a scan worker failed: {text}")
        statuses += [_STATUSES[b] for b in data]
    return statuses + own


def _fork_decider(chunk: list, decide) -> tuple[int, int]:
    """Fork a worker that decides chunk and exits; its pid and the read
    end of the pipe it writes the statuses to."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    # the worker: whatever happens, it leaves by os._exit and never
    # unwinds into its caller's frames, which belong to the parent
    code = 1
    try:
        os.close(read_fd)
        try:
            data = bytes(_STATUSES.index(decide(host)[0]) for host in chunk)
            ok = True
        except BaseException as exc:  # reported to the parent, which raises
            data = f"{type(exc).__name__}: {exc}".encode()
            ok = False
        while data:
            data = data[os.write(write_fd, data):]
        code = 0 if ok else 1
    finally:
        os._exit(code)


def log_spaced_grid(p_lo: float, p_hi: float,
                    per_decade: int = DEFAULT_PER_DECADE) -> list[float]:
    """Log-spaced probabilities from p_lo to p_hi inclusive."""
    if not 0 < p_lo < p_hi <= 1:
        raise ValueError("need 0 < p_lo < p_hi <= 1")
    if per_decade < 1:
        raise ValueError(f"need per_decade >= 1, got {per_decade}")
    decades = math.log10(p_hi / p_lo)
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
                   clique_shortcut: bool = True) -> ScanResult:
    """Success curves over a probability grid for one or more host sizes.

    Produces one row per (n, p), sorted; per-size crossing estimates;
    and, with at least two sizes crossing above p = 0, the empirical
    exponent log(p*_1/p*_2) / log(n_1/n_2) as a descriptive quantity.
    Flags record curve decreases beyond Wilson-interval overlap and
    all-inconclusive batches.
    """
    rows: list[MonteCarloRow] = []
    flags: list[str] = []
    crossings: dict[int, Optional[float]] = {}
    grid = sorted(p_grid)
    for base in bases:
        size_rows = _scan_base(base, targets, grid, trials, seed, node_budget,
                               clique_shortcut)
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
