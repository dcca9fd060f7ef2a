"""Choosing which characters to spell out and which to leave to the guesser.

Under the 2L+E objective (hint bytes count double, each wrong guess costs
one), the optimal policy per prediction has a closed form: sort candidates by
probability descending, and keep the top slice. A candidate j outside the
kept set S changes the objective by p(S) * marginal_f(p(j)/p(S)), and
marginal_f has a single sign change, so the optimal set is always a prefix of
the probability ordering. The crossover constant alpha solves
(1+x)*log2(1+x) - x*log2(x) = 4x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .model import Distribution

ALPHA_DEFAULT_TOL = 1e-10
_ALPHA_LO = 1e-9
_ALPHA_HI = 1.0

_CACHED_ALPHA: dict[float, float] = {}


def marginal_f(x: float) -> float:
    """Objective change, in units of kept mass, from keeping a candidate.

    For a candidate with probability ratio x = p(j)/p(S) against the current
    kept set S: keeping it costs (1/4)((1+x)log2(1+x) - x log2 x) extra hint
    bits (doubled already) and saves x expected errors. Negative means keeping
    helps. Decreasing for x >= alpha, with the root at alpha.
    """
    if x <= 0.0:
        raise ValueError("ratio must be positive")
    return 0.25 * ((1.0 + x) * math.log2(1.0 + x) - x * math.log2(x)) - x


def solve_alpha(tol: float = ALPHA_DEFAULT_TOL) -> float:
    """Root of marginal_f in (0, 1), found by bisection to within tol, or to
    adjacent floats when tol is finer than their spacing."""
    if not 0.0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    cached = _CACHED_ALPHA.get(tol)
    if cached is not None:
        return cached
    lo, hi = _ALPHA_LO, _ALPHA_HI
    f_lo, f_hi = marginal_f(lo), marginal_f(hi)
    if not (f_lo > 0.0 > f_hi):
        raise ArithmeticError("bisection bracket does not straddle the root")
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            break
        if marginal_f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    root = (lo + hi) / 2.0
    _CACHED_ALPHA[tol] = root
    return root


@dataclass(frozen=True)
class SelectorParams:
    """Threshold constant and the tolerance it was solved to."""

    alpha: float
    tol: float = ALPHA_DEFAULT_TOL

    @classmethod
    def default(cls, tol: float = ALPHA_DEFAULT_TOL) -> "SelectorParams":
        return cls(alpha=solve_alpha(tol), tol=tol)


@dataclass(frozen=True)
class KeptSet:
    """A kept subset: member ids in kept order, their renormalized probabilities,
    and the total mass p(S) they cover."""

    members: tuple[int, ...]
    renorm: tuple[float, ...]
    mass: float

    def __post_init__(self):
        if not self.members:
            raise ValueError("kept set cannot be empty")
        if len(self.renorm) != len(self.members):
            raise ValueError("renorm length mismatch")
        if abs(sum(self.renorm) - 1.0) > 1e-12:
            raise ValueError("renormalized probabilities must sum to 1")


def _make_kept(members: list[int], probs: tuple[float, ...]) -> KeptSet:
    mass = sum(map(probs.__getitem__, members))
    return KeptSet(tuple(members), tuple([probs[i] / mass for i in members]), mass)


def _ranked(probs: tuple[float, ...]) -> list[int]:
    """Positive-probability ids, highest first; a stable sort keeps tied ids ascending."""
    ranked = [i for i, p in enumerate(probs) if p > 0.0]
    ranked.sort(key=probs.__getitem__, reverse=True)
    if not ranked:
        raise ValueError("distribution has empty support")
    return ranked


def select_kept(dist: Distribution, params: SelectorParams) -> KeptSet:
    """Largest prefix of the probability ordering whose members all clear alpha.

    Candidates are sorted by probability descending, ties broken by ascending
    id. The first symbol is always kept; each further one is kept while its
    probability is >= alpha times the mass kept so far. Zero-probability
    symbols are never kept.
    """
    probs = dist.probs
    ranked = _ranked(probs)
    members = [ranked[0]]
    mass = probs[ranked[0]]
    for i in ranked[1:]:
        if probs[i] < params.alpha * mass:
            break
        members.append(i)
        mass += probs[i]
    return _make_kept(members, probs)


def full_support(dist: Distribution) -> KeptSet:
    """Every positive-probability symbol, highest first: the lossless kept set."""
    return _make_kept(_ranked(dist.probs), dist.probs)


def subset_cost(dist: Distribution, members: Iterable[int]) -> float:
    """Expected per-character objective of spelling out exactly `members`.

    Hint bits are charged at 2/8 per bit (doubled bytes): each kept character
    i costs log2(p(S)/p(i)) bits and occurs with probability p(i). A character
    outside S costs one wrong guess: total 1 - p(S). The empty set costs 1.
    """
    probs = dist.probs
    members = tuple(members)
    for i in members:
        if probs[i] <= 0.0:
            raise ValueError(f"symbol {i} has zero probability")
    mass = sum(probs[i] for i in members)
    bits = sum(probs[i] * math.log2(mass / probs[i]) for i in members)
    return 0.25 * bits + 1.0 - mass


def brute_force_kept(dist: Distribution) -> KeptSet:
    """Exhaustively cheapest subset over all 2^n of them: the selection oracle.

    Makes no use of the prefix structure; that is the point. Among minimizers
    it prefers the longest prefix of the probability ordering, the shape the
    selection rule produces. Support must be small.
    """
    probs = dist.probs
    ranked = sorted((i for i, p in enumerate(probs) if p > 0.0), key=lambda i: (-probs[i], i))
    if not ranked:
        raise ValueError("distribution has empty support")
    if len(ranked) > 20:
        raise ValueError("support too large for the brute-force oracle")
    best_cost = math.inf
    for mask in range(1, 1 << len(ranked)):
        members = [ranked[b] for b in range(len(ranked)) if mask >> b & 1]
        best_cost = min(best_cost, subset_cost(dist, members))
    for k in range(len(ranked), 0, -1):
        prefix = ranked[:k]
        if subset_cost(dist, prefix) <= best_cost + 1e-12:
            return _make_kept(prefix, probs)
    raise AssertionError("no prefix attains the exhaustive minimum")
