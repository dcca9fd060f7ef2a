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
from functools import reduce
from itertools import chain
from operator import add
from typing import Iterable, Iterator

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
    """The kept-set threshold constant alpha."""

    alpha: float

    @classmethod
    def default(cls) -> "SelectorParams":
        return cls(alpha=solve_alpha())


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
        # The mass and the renorm sum each round by up to 2**-53 per member,
        # so n members may leave the sum off by about n * 2**-52.
        if abs(sum(self.renorm) - 1.0) > max(1e-12, len(self.members) * 2**-52):
            raise ValueError("renormalized probabilities must sum to 1")


def _ranked(dist: Distribution) -> Iterator[int]:
    """Positive-probability ids, highest first, tied ids ascending.

    Ranks the head from `predict`, or every positive id of a hand-built
    distribution, then yields lazily, in ascending order, the positive ids
    outside the head. For a distribution from `predict` those all share the
    floor probability, which is the order a stable sort of every id gives them.
    """
    probs, head = dist.probs, dist._head
    if head is None:
        head = (i for i, p in enumerate(probs) if p > 0.0)
    head = sorted(head)
    head.sort(key=probs.__getitem__, reverse=True)  # stable: tied ids stay ascending
    seen = set(head)
    return chain(head, (i for i, p in enumerate(probs) if p > 0.0 and i not in seen))


def select_kept(dist: Distribution, params: SelectorParams) -> KeptSet:
    """Largest prefix of the probability ordering whose members all clear alpha.

    Candidates are sorted by probability descending, ties broken by ascending
    id. The first symbol is always kept; each further one is kept while its
    probability is >= alpha times the mass kept so far. Zero-probability
    symbols are never kept. The mass is summed left to right in kept order,
    so the plan does not depend on how the interpreter's sum() rounds.
    """
    probs = dist.probs
    members, mass = [], 0.0
    for i in _ranked(dist):  # alpha * 0.0 is 0 or NaN, so the first ranked id is kept
        if probs[i] < params.alpha * mass:
            break
        members.append(i)
        mass += probs[i]
    if not members:
        raise ValueError("distribution has empty support")
    return KeptSet(tuple(members), tuple([probs[i] / mass for i in members]), mass)


# Every positive probability clears 0 times the kept mass.
_KEEP_ALL = SelectorParams(alpha=0.0)


def full_support(dist: Distribution) -> KeptSet:
    """Every positive-probability symbol, highest first: the lossless kept set."""
    return select_kept(dist, _KEEP_ALL)


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
            mass = reduce(add, map(probs.__getitem__, prefix), 0)  # left to right, as select_kept
            return KeptSet(tuple(prefix), tuple([probs[i] / mass for i in prefix]), mass)
    raise AssertionError("no prefix attains the exhaustive minimum")
