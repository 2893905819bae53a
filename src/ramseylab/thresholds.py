"""Threshold oracle for Ramsey properties of randomly perturbed graphs.

Given target patterns and the density d of the deterministic seed graph
(an arbitrary graph with at least d * n^2 / 2 edges), the oracle
answers what edge probability p(n) makes the union of seed and random
graph Ramsey with high probability.  Answers quote the exponent c of
p = n^c and say how sharp the statement is:

  exact          threshold is Theta(n^c)
  exact_up_to_o1 threshold is n^(c + o(1))
  interval       threshold lies between n^lo and n^hi
  zero           dense seeds alone force the property, no random edges
  unknown        no covered clause applies; nothing is guessed

Every answer carries a human-readable provenance clause.  The covered
families: clique pairs (with the quotient-clique reduction for dense
seeds), cycle pairs, several colors sharing one long odd cycle, and a
clique against an odd cycle.

Cycle pairs and shared odd cycles are band tables (_cycle_bands,
_multicolor_bands): lists of (upper edge, kind, exponent or (lo, hi),
provenance) in increasing edge order, read by one picker (_pick).  The
sparse-only clauses (a clique against a triangle or an odd cycle, and
the (K4, K4) point value) are one-band tables up to density 1/2.  The
clique pairs' seed-band clauses, indexed by k (s >= 2k+1 and
k+2 <= s <= 2k), stay closed forms.

m2(K_t, K_q) is a closed form (_clique_asym).  The least quotient
clique size a for (k, m) takes a search and is memoised per process
(_quotient_clique_size): ints only, no witness coloring, and a search
that runs out of its budget raises and leaves nothing cached.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .densities import _frac
from .graphs import (Pattern, _FrozenRecord, clique, clique_graph, clique_order,
                     cycle_length)

EXACT = "exact"
EXACT_UP_TO_O1 = "exact_up_to_o1"
INTERVAL = "interval"
ZERO = "zero"
UNKNOWN = "unknown"

# upper edge of the sparse band, where seeds of density at most 1/2 need
# not contain a triangle
_SPARSE = Fraction(1, 2)


class ThresholdAnswer(_FrozenRecord):
    def __init__(self, kind: str, exponent: Optional[Fraction] = None,
                 lo: Optional[Fraction] = None, hi: Optional[Fraction] = None,
                 provenance: str = "", note: str = ""):
        self.__dict__.update(kind=kind, exponent=exponent, lo=lo, hi=hi,
                             provenance=provenance, note=note)

    def to_jsonable(self) -> dict:
        out = {"kind": self.kind, "provenance": self.provenance}
        if self.exponent is not None:
            out["exponent"] = _frac(self.exponent)
        if self.lo is not None:
            out["lo"] = _frac(self.lo)
            out["hi"] = None if self.hi is None else _frac(self.hi)
        if self.note:
            out["note"] = self.note
        return out


def _seed_band(d: Fraction) -> int:
    """The k >= 2 with 1 - 1/(k-1) < d <= 1 - 1/k.

    Seeds of density above 1 - 1/k contain a complete (k+1)-partite
    quotient structure; k = 2 covers every density up to 1/2.
    """
    if d <= _SPARSE:
        return 2
    k = max(2, math.ceil(1 / (1 - d)))
    assert 1 - Fraction(1, k - 1) < d <= 1 - Fraction(1, k)
    return k


def _least_quotient_clique(k: int, m: int) -> tuple:
    """Least a with Ramsey number R(K_{a+1}, K_m) exceeding k, found by
    exhaustive search on K_k, and the engine's coloring of K_k with no
    red K_{a+1} and no blue K_m; (k, None) when no a <= k has one,
    which needs m = 1."""
    from .coloring import INCONCLUSIVE, decide_ramsey, ramsey_query

    host = clique_graph(k)
    for a in range(1, k + 1):
        verdict = decide_ramsey(ramsey_query(host, [clique(a + 1), clique(m)]))
        if verdict.status == INCONCLUSIVE:
            raise RuntimeError("small-Ramsey evaluation exceeded its budget")
        if not verdict.is_ramsey:
            # K_k admits a coloring avoiding both, so R > k
            return a, verdict.witness
    return k, None


@lru_cache(maxsize=None)
def _quotient_clique_size(k: int, m: int) -> int:
    """The a of _least_quotient_clique(k, m), without its witness."""
    return _least_quotient_clique(k, m)[0]


def _clique_asym(t: int, q: int) -> Fraction:
    """m2(K_t, K_q) for 3 <= q <= t, attained by all of K_t: C(v,2) /
    (v - 2 + 2/(q+1)) grows in v from 3 and equals m2(K_q) at v = q."""
    if not 3 <= q <= t:
        raise ValueError(f"m2(K_t, K_q) needs 3 <= q <= t, got t={t}, q={q}")
    return Fraction(t * (t - 1) * (q + 1), 2 * ((t - 2) * (q + 1) + 2))


def _pick(bands, d: Fraction) -> Optional[ThresholdAnswer]:
    """The answer of the first band (upper edge, kind, exponent or
    (lo, hi) or None, provenance) whose upper edge is at least d; None
    when d lies above every band."""
    for edge, kind, value, provenance in bands:
        if d <= edge:
            if kind == INTERVAL:
                return ThresholdAnswer(kind, lo=value[0], hi=value[1],
                                       provenance=provenance)
            return ThresholdAnswer(kind, exponent=value, provenance=provenance)
    return None


def _clique_pair(t: int, s: int, d: Fraction) -> Optional[ThresholdAnswer]:
    if s < 3:
        return None
    if s == 3:
        return _pick([(_SPARSE, EXACT, Fraction(-2, t - 1),
                       f"clique K{t} against a triangle with a sparse seed (density "
                       f"at most {_SPARSE}): threshold matches the clique's plain "
                       "Ramsey appearance threshold")], d)
    if (t, s) == (4, 4):
        return _pick([(_SPARSE, EXACT, Fraction(-1, 2),
                       "pair of 4-cliques with a sparse seed: resolved point "
                       "value, the interval's upper end is tight")], d)
    k = _seed_band(d)
    if s >= 2 * k + 1:
        quotient = -(-s // k)
        exact = k == 2 or s % k == 1
        return ThresholdAnswer(
            EXACT if exact else EXACT_UP_TO_O1, exponent=-1 / _clique_asym(t, quotient),
            provenance=f"large second clique (s >= 2k+1, seed band k={k}): reduces to "
                       f"K{t} against the quotient clique K{quotient}; "
                       + ("divisibility makes the exponent exact" if exact else
                          "without the divisibility condition the exponent is "
                          "sharp only up to n^o(1)"))
    if k + 2 <= s <= 2 * k:
        a = _quotient_clique_size(k, s - k)
        lo = Fraction(-2 * t, t * (t - 1) + -(-t // a))
        hi = Fraction(-2, t)
        note = ""
        if s == 4 and t in (5, 6):
            note = ("for these small clique sizes a sharper upper bound is "
                    "known that narrows the interval")
        return ThresholdAnswer(
            INTERVAL, lo=lo, hi=hi, note=note,
            provenance=f"small second clique (k+2 <= s <= 2k, seed band k={k}): "
                       f"bracketed between a blown-up coloring bound (a={a}) "
                       "and the appearance threshold of the first clique")
    return None


def _cycle_bands(k: int, length: int) -> list:
    """Bands of the cycle pair (C_k, C_length), in either order."""
    odd_cycles = k % 2 + length % 2
    if odd_cycles == 0:
        return [(1, ZERO, None, "two even cycles: any dense seed alone is Ramsey, "
                                "no random edges needed")]
    sparse = (_SPARSE, EXACT, Fraction(-1),
              f"odd first cycle with a sparse seed (density at most {_SPARSE}): "
              "threshold at the connectivity-scale 1/n")
    if odd_cycles == 1:
        return [sparse, (1, ZERO, None,
                         "odd cycle against an even cycle with a dense seed "
                         f"(density above {_SPARSE}): the seed alone is Ramsey")]
    cut = Fraction(4, 5) if k == length == 3 else Fraction(3, 4)
    return [sparse,
            (cut, EXACT, Fraction(-2), f"two odd cycles, seed density in ({_SPARSE}, "
                                       f"{cut}]: threshold at the single-edge scale 1/n^2"),
            (1, ZERO, None, f"two odd cycles, seed density above {cut}: the seed "
                            "alone is Ramsey")]


def _multicolor_bands(r: int, length: int) -> Optional[list]:
    """Bands of r colors sharing the odd cycle C_length; None unless
    length is odd and exceeds 2^r."""
    if length % 2 == 0 or length < (1 << r) + 1:
        return None
    b1, b2, b3 = (1 - Fraction(c, 1 << r) for c in (4, 2, 1))
    long_exponent = Fraction(-(length - 2), length - 1)
    shared = f"{r} colors sharing the odd cycle C{length}, seed density"
    return [(b1, EXACT, long_exponent, f"{shared} at most {b1}: threshold at the "
                                       "cycle-space scale n^(-1+1/(length-1))"),
            (b2, INTERVAL, (Fraction(-1), long_exponent),
             f"{shared} in ({b1}, {b2}]: bracketed between the connectivity and "
             "cycle-space scales"),
            (b3, EXACT, Fraction(-2), f"{shared} in ({b2}, {b3}]: threshold at the "
                                      "single-edge scale 1/n^2"),
            (1, ZERO, None, f"{shared} above {b3}: the seed alone is Ramsey")]


def _clause_answers(pats: list, d: Fraction) -> Iterator[Optional[ThresholdAnswer]]:
    """Each clause that matches the targets, in order of precedence:
    its answer at d, or None when d lies outside its bands."""
    if len(pats) > 2:
        lengths = {cycle_length(p) for p in pats}
        if len(lengths) == 1 and None not in lengths:
            yield _pick(_multicolor_bands(len(pats), *lengths) or [], d)
        return
    orders = [clique_order(p) for p in pats]
    lengths = [cycle_length(p) for p in pats]
    if None not in orders:
        yield _clique_pair(max(orders), min(orders), d)
    if None not in lengths:
        yield _pick(_cycle_bands(*lengths), d)
    for t, length in zip(orders, reversed(lengths)):
        if None not in (t, length) and t >= 4 and length >= 5 and length % 2:
            yield _pick([(_SPARSE, EXACT, Fraction(-2, t - 1),
                          f"clique K{t} against an odd cycle C{length} with a sparse "
                          f"seed (density at most {_SPARSE}): behaves like the "
                          "clique-vs-triangle case")], d)


def threshold_oracle(patterns: Sequence[Pattern], d) -> ThresholdAnswer:
    """Threshold answer for making every coloring contain some color's
    target, when a density-d seed graph is perturbed by random edges.

    d must be a rational in (0, 1): an int, a Fraction or a string such
    as '4/5'.  A float is refused, since its binary value can fall on the
    other side of a band edge (Fraction(0.8) exceeds 4/5).  Uncovered
    inputs yield an unknown answer explaining what did not match; no
    exponent is ever guessed.
    """
    if isinstance(d, float):
        raise ValueError(f"seed density {d!r} is a float, which is not exact; "
                         f"pass a Fraction or a string such as '4/5'")
    d = Fraction(d)
    if not 0 < d < 1:
        raise ValueError("seed density must lie strictly between 0 and 1")
    pats = list(patterns)
    if len(pats) < 2:
        raise ValueError("need at least two colors of targets")

    for answer in _clause_answers(pats, d):
        if answer is not None:
            return answer
    described = ", ".join(p.describe() for p in pats)
    return ThresholdAnswer(
        UNKNOWN,
        provenance=f"no covered threshold clause matches targets [{described}] "
                   f"at seed density {d}")
