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

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping, Sequence

from .model import BOS, Alphabet, ContextModel, serialize_model
from .rewind import DecodeTrace, EncodeReport, HintsFile, encode_document, run_trace
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
        """A float in [0, 1): the next output divided by 2**64."""
        return self.next() / 18446744073709551616.0


@dataclass(frozen=True)
class ScoreReport:
    """2L+E accounting for one evaluation run."""

    hint_bytes: int
    errors: int
    kept: int = 0
    skipped: int = 0
    model_bytes: int | None = None

    def __post_init__(self):
        if min(self.hint_bytes, self.errors, self.model_bytes or 0) < 0:
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
        out = [self.summary_line(), f"kept={self.kept}", f"skipped={self.skipped}"]
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
) -> tuple[ScoreReport, DecodeTrace]:
    """Encode, decode with reveals, and score one document."""
    hints, report = encode_document(model, params, text, lossless=lossless)
    trace = run_trace(model, params, hints, text, lossless=lossless)
    if trace.errors != report.skipped:
        raise AssertionError(
            f"decoder made {trace.errors} errors but encoder skipped {report.skipped}"
        )
    return (
        ScoreReport(
            hint_bytes=hints.byte_length,
            errors=trace.errors,
            model_bytes=len(serialize_model(model)),
            kept=report.kept,
            skipped=report.skipped,
        ),
        trace,
    )


@dataclass(frozen=True)
class IidSource:
    """Independent draws: glyphs with their probabilities, in sampling order."""

    glyphs: tuple[str, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.glyphs) != len(self.probs) or not self.glyphs:
            raise ValueError("need one probability per glyph")
        if any(p < 0 for p in self.probs) or abs(sum(self.probs) - 1.0) > 1e-9:
            raise ValueError("probabilities must be nonnegative and sum to 1")


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
            if abs(sum(p for _, p, _ in row) - 1.0) > 1e-9:
                raise ValueError(f"state {state!r} probabilities do not sum to 1")
            for _, p, nxt in row:
                if p < 0:
                    raise ValueError("negative probability")
                if nxt not in self.rows:
                    raise ValueError(f"transition to unknown state {nxt!r}")


def _pick(cum: Sequence[float], u: float) -> int:
    i = bisect_right(cum, u) - 1
    return min(i, len(cum) - 2)


def gen_iid(source: IidSource, n: int, seed: int) -> str:
    """n independent draws from `source`, reproducible from the seed."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = SplitMix64(seed)
    cum = list(accumulate(source.probs, initial=0.0))
    cum[-1] = 1.0
    glyphs = source.glyphs
    return "".join(glyphs[_pick(cum, rng.uniform())] for _ in range(n))


def gen_markov(chain: ChainSource, n: int, seed: int) -> str:
    """Walk the chain from its start state for n emissions."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = SplitMix64(seed)
    cums: dict[str, list[float]] = {}
    for state, row in chain.rows.items():
        cum = list(accumulate((p for _, p, _ in row), initial=0.0))
        cum[-1] = 1.0
        cums[state] = cum
    out = []
    state = chain.start
    for _ in range(n):
        row = chain.rows[state]
        glyph, _, state = row[_pick(cums[state], rng.uniform())]
        out.append(glyph)
    return "".join(out)


def gen_bytes(n: int, seed: int) -> bytes:
    """n bytes, the low 8 bits of successive generator outputs."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = SplitMix64(seed)
    return bytes(rng.next() & 0xFF for _ in range(n))


# The running three-character example source: E and T carry almost all the
# mass, A is the rare one that is cheaper to miss than to encode.
ETA_PROBS = (("E", 0.49), ("T", 0.49), ("A", 0.02))


def eta_source() -> IidSource:
    glyphs, probs = zip(*ETA_PROBS)
    return IidSource(glyphs=glyphs, probs=probs)


def two_state_chain() -> ChainSource:
    """Blocks E (49%), T (49%), AS (1%), AH (1%): an A announces S or H next."""
    return ChainSource(
        start="main",
        rows={
            "main": (("E", 0.49, "main"), ("T", 0.49, "main"), ("A", 0.02, "after_a")),
            "after_a": (("S", 0.5, "main"), ("H", 0.5, "main")),
        },
    )


def model_from_iid(source: IidSource, scale: int = 100) -> ContextModel:
    """Order-0 model whose single context reproduces `source` exactly.

    Probabilities are stored as integer counts (p times scale), so scale must
    make every probability an integer.
    """
    counts = {}
    for g, p in zip(source.glyphs, source.probs):
        c = round(p * scale)
        if abs(c - p * scale) > 1e-9:
            raise ValueError(f"probability {p} is not a multiple of 1/{scale}")
        counts[g] = c
    alphabet = Alphabet(source.glyphs)
    return ContextModel.from_counts(
        alphabet, 0, {(): {alphabet.id_of(g): c for g, c in counts.items()}}
    )


def model_from_chain(chain: ChainSource, scale: int = 100) -> ContextModel:
    """Order-1 model matching a chain whose last emitted glyph determines its state.

    Glyphs get ids in first-mention order over the chain's rows. Contexts:
    after glyph g the model predicts the row of g's successor state; the
    begin-of-stream context predicts the start state's row.
    """
    next_state: dict[str, str] = {}
    glyph_order: list[str] = []
    for state, row in chain.rows.items():
        for glyph, _, nxt in row:
            if glyph not in next_state:
                next_state[glyph] = nxt
                glyph_order.append(glyph)
            elif next_state[glyph] != nxt:
                raise ValueError(f"glyph {glyph!r} does not determine a unique state")
    alphabet = Alphabet(tuple(glyph_order))

    def row_counts(state: str) -> dict[int, int]:
        out = {}
        for glyph, p, _ in chain.rows[state]:
            c = round(p * scale)
            if abs(c - p * scale) > 1e-9:
                raise ValueError(f"probability {p} is not a multiple of 1/{scale}")
            out[alphabet.id_of(glyph)] = c
        return out

    counts = {(BOS,): row_counts(chain.start)}
    for glyph, state in next_state.items():
        counts[(alphabet.id_of(glyph),)] = row_counts(state)
    return ContextModel.from_counts(alphabet, 1, counts)


def uniform_byte_model() -> ContextModel:
    """Order-0 uniform model over all 256 byte values (as latin-1 glyphs)."""
    alphabet = Alphabet(tuple(chr(b) for b in range(256)))
    counts = {(): {sym: 1 for sym in range(1, 257)}}
    return ContextModel.from_counts(alphabet, 0, counts)
