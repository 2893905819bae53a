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

The clique clauses' two finite ingredients are memoised per process,
keyed by small ints: the least quotient clique size a for (k, m)
(_quotient_clique_size) and m2(K_t, K_q) (_clique_asym).  The memos hold
ints and Fractions only, no witness coloring, and a search that runs out
of its budget raises and leaves nothing cached.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .densities import _frac, m2_asym
from .graphs import (Pattern, _FrozenRecord, clique, clique_graph, clique_order,
                     cycle_length)

EXACT = "exact"
EXACT_UP_TO_O1 = "exact_up_to_o1"
INTERVAL = "interval"
ZERO = "zero"
UNKNOWN = "unknown"


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
    if d <= Fraction(1, 2):
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


@lru_cache(maxsize=None)
def _clique_asym(t: int, q: int) -> Fraction:
    """m2(K_t, K_q)."""
    return m2_asym(clique_graph(t), clique_graph(q))


def _clique_pair(t: int, s: int, d: Fraction) -> Optional[ThresholdAnswer]:
    if s < 3:
        return None
    k = _seed_band(d)
    if s == 3:
        if k == 2:
            return ThresholdAnswer(
                EXACT, exponent=Fraction(-2, t - 1),
                provenance=f"clique K{t} against a triangle with a sparse seed "
                           "(density at most 1/2): threshold matches the clique's "
                           "plain Ramsey appearance threshold")
        return None
    if (t, s) == (4, 4) and k == 2:
        return ThresholdAnswer(
            EXACT, exponent=Fraction(-1, 2),
            provenance="pair of 4-cliques with a sparse seed: resolved point "
                       "value, the interval's upper end is tight")
    if s >= 2 * k + 1:
        quotient = -(-s // k)
        exponent = -1 / _clique_asym(t, quotient)
        if k == 2 or s % k == 1:
            return ThresholdAnswer(
                EXACT, exponent=exponent,
                provenance=f"large second clique (s >= 2k+1, seed band k={k}): "
                           f"reduces to K{t} against the quotient clique "
                           f"K{quotient}; divisibility makes the exponent exact")
        return ThresholdAnswer(
            EXACT_UP_TO_O1, exponent=exponent,
            provenance=f"large second clique (s >= 2k+1, seed band k={k}): "
                       f"reduces to K{t} against the quotient clique K{quotient}; "
                       "without the divisibility condition the exponent is "
                       "sharp only up to n^o(1)")
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


def _cycle_pair(k: int, length: int, d: Fraction) -> Optional[ThresholdAnswer]:
    # canonical order: odd first for mixed parity, else shorter first
    if k % 2 == 0 and length % 2 == 1:
        k, length = length, k
    elif k % 2 == length % 2 and k > length:
        k, length = length, k
    if k % 2 == 0:
        return ThresholdAnswer(
            ZERO, provenance="two even cycles: any dense seed alone is Ramsey, "
                             "no random edges needed")
    if d <= Fraction(1, 2):
        return ThresholdAnswer(
            EXACT, exponent=Fraction(-1),
            provenance="odd first cycle with a sparse seed (density at most "
                       "1/2): threshold at the connectivity-scale 1/n")
    if length % 2 == 0:
        return ThresholdAnswer(
            ZERO, provenance="odd cycle against an even cycle with a dense "
                             "seed (density above 1/2): the seed alone is Ramsey")
    cut = Fraction(4, 5) if (k == 3 and length == 3) else Fraction(3, 4)
    if d <= cut:
        return ThresholdAnswer(
            EXACT, exponent=Fraction(-2),
            provenance=f"two odd cycles, seed density in (1/2, {cut}]: "
                       "threshold at the single-edge scale 1/n^2")
    return ThresholdAnswer(
        ZERO, provenance=f"two odd cycles, seed density above {cut}: the seed "
                         "alone is Ramsey")


def _clique_vs_odd_cycle(t: int, length: int, d: Fraction) -> Optional[ThresholdAnswer]:
    if t < 4 or length < 5 or length % 2 == 0:
        return None
    if d <= Fraction(1, 2):
        return ThresholdAnswer(
            EXACT, exponent=Fraction(-2, t - 1),
            provenance=f"clique K{t} against an odd cycle C{length} with a "
                       "sparse seed (density at most 1/2): behaves like the "
                       "clique-vs-triangle case")
    return None


def _multicolor_odd_cycle(r: int, length: int, d: Fraction) -> Optional[ThresholdAnswer]:
    if length % 2 == 0 or length < (1 << r) + 1:
        return None
    b1 = 1 - Fraction(4, 1 << r)
    b2 = 1 - Fraction(2, 1 << r)
    b3 = 1 - Fraction(1, 1 << r)
    long_exponent = Fraction(-(length - 2), length - 1)
    if d <= b1:
        return ThresholdAnswer(
            EXACT, exponent=long_exponent,
            provenance=f"{r} colors sharing the odd cycle C{length}, seed "
                       f"density at most {b1}: threshold at the cycle-space "
                       "scale n^(-1+1/(length-1))")
    if d <= b2:
        return ThresholdAnswer(
            INTERVAL, lo=Fraction(-1), hi=long_exponent,
            provenance=f"{r} colors sharing the odd cycle C{length}, seed "
                       f"density in ({b1}, {b2}]: bracketed between the "
                       "connectivity and cycle-space scales")
    if d <= b3:
        return ThresholdAnswer(
            EXACT, exponent=Fraction(-2),
            provenance=f"{r} colors sharing the odd cycle C{length}, seed "
                       f"density in ({b2}, {b3}]: threshold at the "
                       "single-edge scale 1/n^2")
    return ThresholdAnswer(
        ZERO, provenance=f"{r} colors sharing the odd cycle C{length}, seed "
                         f"density above {b3}: the seed alone is Ramsey")


def threshold_oracle(patterns: Sequence[Pattern], d) -> ThresholdAnswer:
    """Threshold answer for making every coloring contain some color's
    target, when a density-d seed graph is perturbed by random edges.

    d must be a rational in (0, 1).  Uncovered inputs yield an unknown
    answer explaining what did not match; no exponent is ever guessed.
    """
    d = Fraction(d)
    if not 0 < d < 1:
        raise ValueError("seed density must lie strictly between 0 and 1")
    pats = list(patterns)
    if len(pats) < 2:
        raise ValueError("need at least two colors of targets")

    if len(pats) == 2:
        c0, c1 = clique_order(pats[0]), clique_order(pats[1])
        y0, y1 = cycle_length(pats[0]), cycle_length(pats[1])
        candidates = []
        if c0 is not None and c1 is not None:
            t, s = max(c0, c1), min(c0, c1)
            candidates.append(_clique_pair(t, s, d))
        if y0 is not None and y1 is not None:
            candidates.append(_cycle_pair(y0, y1, d))
        for cl, cy in ((c0, y1), (c1, y0)):
            if cl is not None and cy is not None:
                candidates.append(_clique_vs_odd_cycle(cl, cy, d))
        for answer in candidates:
            if answer is not None:
                return answer
    else:
        lengths = [cycle_length(p) for p in pats]
        if all(x is not None for x in lengths) and len(set(lengths)) == 1:
            answer = _multicolor_odd_cycle(len(pats), lengths[0], d)
            if answer is not None:
                return answer

    described = ", ".join(p.describe() for p in pats)
    return ThresholdAnswer(
        UNKNOWN,
        provenance=f"no covered threshold clause matches targets [{described}] "
                   f"at seed density {d}")
