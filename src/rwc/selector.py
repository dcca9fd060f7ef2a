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
from itertools import filterfalse
from typing import Iterable, NamedTuple

from .model import Distribution


def marginal_f(x: float) -> float:
    """Objective change, in units of kept mass, from keeping a candidate.

    For a candidate with probability ratio x = p(j)/p(S) against the current
    kept set S: keeping it costs (1/4)((1+x)log2(1+x) - x log2 x) extra hint
    bits (doubled already) and saves x expected errors. Negative means keeping
    helps. Decreasing for x >= alpha, with the root at alpha.
    """
    if not 0.0 < x < math.inf:  # NaN fails this too
        raise ValueError(f"ratio {x!r} must be positive and finite")
    return 0.25 * ((1.0 + x) * math.log2(1.0 + x) - x * math.log2(x)) - x


def solve_alpha() -> float:
    """Root of marginal_f in (0, 1), bisected from [1e-9, 1] to within 1e-10.

    marginal_f is positive at 1e-9 and negative at 1, and the bisection takes
    the same steps on every call, so alpha is the same float each time.
    """
    lo, hi = 1e-9, 1.0
    while hi - lo > 1e-10:
        mid = (lo + hi) / 2.0
        if marginal_f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


@dataclass(frozen=True)
class SelectorParams:
    """The kept-set threshold constant alpha."""

    alpha: float

    @classmethod
    def default(cls) -> "SelectorParams":
        return cls(alpha=solve_alpha())


class KeptSet(NamedTuple):
    """A kept subset: member ids in kept order, their renormalized probabilities,
    and the total mass p(S) they cover."""

    members: tuple[int, ...]
    renorm: tuple[float, ...]
    mass: float


def _ranked(dist: Distribution) -> tuple[list[int], Iterable[int]]:
    """Positive-probability ids, highest first, tied ids ascending, in two parts.

    The first part ranks the row. The second, when the floor is positive,
    yields lazily and in ascending order the ids 1..size-1 outside the row.
    Those all share the floor probability, which is below every row entry,
    so the parts in turn are the order a stable sort of every id by
    probability gives.
    """
    row = dist.row
    ranked = sorted(row)
    if len(ranked) > 1:
        ranked.sort(key=row.__getitem__, reverse=True)  # stable: tied ids stay ascending
    tail = filterfalse(row.__contains__, range(1, dist.size)) if dist.floor > 0.0 else ()
    return ranked, tail


def select_kept(dist: Distribution, params: SelectorParams) -> KeptSet:
    """Largest prefix of the probability ordering whose members all clear alpha.

    Candidates are sorted by probability descending, ties broken by ascending
    id. The first symbol is always kept; each further one is kept while its
    probability is >= alpha times the mass kept so far. Zero-probability
    symbols are never kept. The mass is summed left to right in kept order,
    so the plan does not depend on how the interpreter's sum() rounds.

    `dist` is a `Distribution` as `predict` builds it: finite row entries
    above a floor >= 0. On it the kept set is non-empty, its renorm entries
    are positive and sum to 1, and its mass is positive and finite, all by
    construction, so none of that is checked here. A hand-built distribution
    with a NaN or an infinity may give a NaN renorm, which `quantize` refuses.
    """
    row, floor, alpha = dist.row, dist.floor, params.alpha
    ranked, tail = _ranked(dist)
    members, mass = [], 0.0
    for i in ranked:  # alpha * 0.0 is 0 or NaN, so the first ranked id is kept
        p = row[i]
        if p < alpha * mass:
            break
        members.append(i)
        mass += p
    else:  # the whole row is kept, so the ids at the floor follow while they clear alpha
        tail = iter(tail)
        while not floor < alpha * mass and (i := next(tail, 0)):  # ids are >= 1
            members.append(i)
            mass += floor
    if not members:
        raise ValueError("distribution has empty support")
    return KeptSet(tuple(members), tuple([row.get(i, floor) / mass for i in members]), mass)


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
    Members must be distinct ids of positive probability, or ValueError.
    """
    probs = dist.probs
    members = tuple(members)
    if len(set(members)) != len(members):
        raise ValueError("a member is repeated")
    for i in members:
        if not 0 < i < dist.size:
            raise ValueError(f"symbol id {i} outside alphabet")
        if probs[i] <= 0.0:
            raise ValueError(f"symbol {i} has zero probability")
    mass = sum(probs[i] for i in members)
    bits = sum(probs[i] * math.log2(mass / probs[i]) for i in members)
    return 0.25 * bits + 1.0 - mass
