"""Scoring, end-to-end evaluation, and deterministic synthetic sources.

The objective is 2L+E: hint bytes count double, wrong guesses count once.
The challenge charges L for the whole program; this artifact cannot weigh its
own code, so the report scores the hints alone and, when the model was
measured, also reports score_with_model, which charges the serialized model
to L.

Generators share one tiny seeded RNG so every statistical check in the test
suite is reproducible bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping, Sequence

from .model import BOS, Alphabet, ContextModel, serialize_model
from .rewind import DecodeTrace, _PlanCache, encode_document, run_trace
from .selector import SelectorParams

ACCEPTANCE_SEED = 0xDEADBEEF

_MASK64 = (1 << 64) - 1


@dataclass
class SplitMix64:
    """Deterministic 64-bit generator; identical streams on every platform."""

    state: int

    def __post_init__(self):
        self.state &= _MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """A float in [0, 1]: the next output divided by 2**64. The division
        rounds the top 1,024 outputs (at least 2**64 - 2**10) up to 1.0."""
        return self.next() / 18446744073709551616.0


@dataclass(frozen=True)
class ScoreReport:
    """2L+E accounting for one evaluation run.

    Every position the encoder skipped is one wrong guess, so `errors` is
    also the skipped count.
    """

    hint_bytes: int
    errors: int
    kept: int | None = None
    model_bytes: int | None = None

    def __post_init__(self):
        optional = [c for c in (self.kept, self.model_bytes) if c is not None]
        if any(type(c) is not int for c in (self.hint_bytes, self.errors, *optional)):
            raise ValueError(f"counts must be ints, got {self}")  # a float or bool prints as a count
        if min(self.hint_bytes, self.errors, *optional) < 0:
            raise ValueError("counts cannot be negative")

    @property
    def score(self) -> int:
        return 2 * self.hint_bytes + self.errors

    @property
    def score_with_model(self) -> int | None:
        """2(L + model bytes) + E, or None when the model was not measured."""
        if self.model_bytes is None:
            return None
        return 2 * (self.hint_bytes + self.model_bytes) + self.errors

    def summary_line(self) -> str:
        return f"L={self.hint_bytes} E={self.errors} score={self.score}"

    def lines(self) -> list[str]:
        """Line-oriented key=value report; the first line is the score summary."""
        out = [self.summary_line()]
        if self.kept is not None:
            out.append(f"kept={self.kept}")
        out.append(f"skipped={self.errors}")
        if self.model_bytes is not None:
            out.append(f"model_bytes={self.model_bytes}")
            out.append(f"score_with_model={self.score_with_model}")
        return out


def evaluate(
    model: ContextModel,
    params: SelectorParams,
    text: str,
    *,
    lossless: bool = False,
    model_bytes: int | None = None,
) -> tuple[ScoreReport, DecodeTrace]:
    """Encode, decode with reveals, and score one document.

    The decode walks the same contexts as the encode, so both share one plan
    cache and each plan is built once. `model_bytes` is the size of the model
    file the score charges; a caller that holds that file passes its length,
    and otherwise the model is serialized to take it.
    """
    plans = _PlanCache(model, params, lossless)
    hints, report = encode_document(model, params, text, lossless=lossless, plans=plans)
    trace = run_trace(model, params, hints, text, lossless=lossless, plans=plans)
    errors = trace.errors  # a pass over both strings, so taken once
    if errors != report.skipped:
        raise AssertionError(f"decoder made {errors} errors but encoder skipped {report.skipped}")
    return (
        ScoreReport(
            hint_bytes=hints.byte_length,
            errors=errors,
            model_bytes=len(serialize_model(model)) if model_bytes is None else model_bytes,
            kept=len(text) - report.skipped,
        ),
        trace,
    )


@dataclass(frozen=True)
class ChainSource:
    """A Markov chain whose rows couple emission and transition.

    rows[state] lists (glyph, probability, next state); each row's
    probabilities sum to 1 and every next state has a row, so the walk is
    total.
    """

    start: str
    rows: Mapping[str, tuple[tuple[str, float, str], ...]]

    def __post_init__(self):
        if self.start not in self.rows:
            raise ValueError("start state has no row")
        for state, row in self.rows.items():
            if not row:
                raise ValueError(f"state {state!r} has an empty row")
            # Written so that a NaN probability fails both checks.
            if not abs(sum(p for _, p, _ in row) - 1.0) <= 1e-9:
                raise ValueError(f"state {state!r} probabilities do not sum to 1")
            for _, p, nxt in row:
                if not p >= 0:
                    raise ValueError("negative probability")
                if nxt not in self.rows:
                    raise ValueError(f"transition to unknown state {nxt!r}")

    @classmethod
    def iid(cls, glyphs: Sequence[str], probs: Sequence[float]) -> "ChainSource":
        """Independent draws of `glyphs` with `probs`, in sampling order: a one-state chain."""
        if len(glyphs) != len(probs):
            raise ValueError("need one probability per glyph")
        return cls(start="", rows={"": tuple((g, p, "") for g, p in zip(glyphs, probs))})


def gen_markov(chain: ChainSource, n: int, seed: int) -> str:
    """Walk the chain from its start state for n emissions."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = SplitMix64(seed)
    cums: dict[str, list[float]] = {}
    for state, row in chain.rows.items():
        # Cut at the last entry of positive probability and end at inf, not
        # 1.0: `uniform` can return exactly 1.0, and bisect_right must land on
        # that entry for it too, not one past the end.
        last = max(i for i, (_, p, _) in enumerate(row) if p > 0)
        cums[state] = [*accumulate((p for _, p, _ in row[:last]), initial=0.0), math.inf]
    out = []
    state = chain.start
    for _ in range(n):
        row = chain.rows[state]
        glyph, _, state = row[bisect_right(cums[state], rng.uniform()) - 1]
        out.append(glyph)
    return "".join(out)


def gen_bytes(n: int, seed: int) -> bytes:
    """n bytes, the low 8 bits of successive generator outputs."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = SplitMix64(seed)
    return bytes(rng.next() & 0xFF for _ in range(n))


def eta_source() -> ChainSource:
    """The running three-character example source: E and T carry almost all the
    mass, A is the rare one that is cheaper to miss than to encode."""
    return ChainSource.iid("ETA", (0.49, 0.49, 0.02))


def two_state_chain() -> ChainSource:
    """Blocks E (49%), T (49%), AS (1%), AH (1%): an A announces S or H next."""
    return ChainSource(
        start="main",
        rows={
            "main": (("E", 0.49, "main"), ("T", 0.49, "main"), ("A", 0.02, "after_a")),
            "after_a": (("S", 0.5, "main"), ("H", 0.5, "main")),
        },
    )


def _row_counts(chain: ChainSource, state: str, alphabet: Alphabet, scale: int) -> dict[int, int]:
    """The probabilities of a chain state's row as integer counts, p times scale."""
    out = {}
    for glyph, p, _ in chain.rows[state]:
        if p == 0:  # no count, as a trained table has none for an unseen glyph
            continue
        c = round(p * scale)
        if c < 1 or abs(c - p * scale) > 1e-9:
            raise ValueError(f"probability {p} is not a multiple of 1/{scale}")
        sym = alphabet.id_of(glyph)
        out[sym] = out.get(sym, 0) + c
    return out


def model_from_chain(chain: ChainSource, scale: int = 100) -> ContextModel:
    """The exact model of a chain whose last emitted glyph determines its state.

    A one-state chain gives an order-0 model holding its row; any other chain
    gives an order-1 model. Glyphs get ids in first-mention order over the
    chain's rows. Contexts: after glyph g the model predicts the row of g's
    successor state; the begin-of-stream context predicts the start state's
    row. Probabilities are stored as integer counts (p times scale), so scale
    must make every probability an integer.
    """
    next_state: dict[str, str] = {}
    for row in chain.rows.values():
        for glyph, _, nxt in row:
            if next_state.setdefault(glyph, nxt) != nxt:
                raise ValueError(f"glyph {glyph!r} does not determine a unique state")
    alphabet = Alphabet(tuple(next_state))
    start_row = _row_counts(chain, chain.start, alphabet, scale)
    if len(chain.rows) == 1:
        return ContextModel(alphabet, 0, 0.0, {(): start_row})
    counts = {(BOS,): start_row}
    for glyph, state in next_state.items():
        counts[(alphabet.id_of(glyph),)] = _row_counts(chain, state, alphabet, scale)
    return ContextModel(alphabet, 1, 0.0, counts)
