"""The encode/decode pipeline: hints files and the guess/reveal decoder.

Encoding walks the text once. At each position the model predicts a
distribution from the order-k context of the true text, the selector picks
the kept subset, and the character is arithmetic-coded only if it is kept;
dropped characters cost nothing here and become wrong guesses later. The walk
carries only that context, so its state does not grow with the document.

Decoding mirrors the walk. Each guess is decoded from the hints stream under
the same kept set (both sides derive it from the same revealed context). A
correct guess commits the consumed bits. A wrong guess means the decoded hint
symbol belongs to some later position, so the coder is rewound to its
checkpoint and the same bits are reinterpreted once the context has grown by
the revealed true character. A decode trace is the guess line and the
revealed text, two strings; every per-position view derives from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ne
from typing import NamedTuple

from .coder import Decoder, Encoder, FrequencyTable, quantize
from .model import ContextModel, UnknownCharacterError, context_key, predict
from .selector import SelectorParams, full_support, select_kept


@dataclass(frozen=True)
class HintsFile:
    """The compressed side channel: raw coder payload, no header."""

    payload: bytes

    @property
    def bit_count(self) -> int:
        """Payload bits up to the last 1 bit; the encoder strips the zeros after it."""
        n = int.from_bytes(self.payload, "big")
        return 8 * len(self.payload) - (n & -n).bit_length() + 1 if n else 0

    @property
    def byte_length(self) -> int:
        """L in the objective: hint bytes, zero-padding included."""
        return len(self.payload)


@dataclass(frozen=True)
class EncodeReport:
    skipped: int


class StepOutcome(NamedTuple):
    """One reveal, as `DecoderSession.reveal` returns it: the guess and the true character."""

    guessed: str
    truth: str

    @property
    def rewound(self) -> bool:
        """A wrong guess rewinds the coder to the checkpoint before it."""
        return self.guessed != self.truth


@dataclass(frozen=True)
class DecodeTrace:
    """The guess at every position, and the revealed text it was shown against."""

    guesses: str
    decoded: str

    def __post_init__(self):
        if len(self.guesses) != len(self.decoded):
            raise ValueError("need one guess per revealed character")

    @property
    def errors(self) -> int:
        return sum(map(ne, self.guesses, self.decoded))


class _PlanCache(dict):
    """Order-k context -> plan, built on the first lookup of the context.

    A plan is the kept member ids in kept order, their frequency table, and
    each member's index in that order. Both encoder and decoder build plans
    through this class from the same (model, params, lossless), so their
    kept sets agree at every position by construction. Contexts repeat
    constantly, so after its first lookup a plan is one dict entry. One
    cache may serve an encode and a decode walk of the same text, which then
    builds each plan once. Kept sets with equal renormalized probabilities
    share one frequency table, so each distinct renorm is quantized once per
    cache, the one-member renorm (1.0,) included.
    """

    def __init__(self, model: ContextModel, params: SelectorParams, lossless: bool):
        super().__init__()
        self.model = model
        self.params = params
        self.lossless = lossless
        self._tables: dict[tuple[float, ...], FrequencyTable] = {}

    def __missing__(
        self, ctx: tuple[int, ...]
    ) -> tuple[tuple[int, ...], FrequencyTable, dict[int, int]]:
        dist = predict(self.model, ctx)
        kept = full_support(dist) if self.lossless else select_kept(dist, self.params)
        members, renorm = kept.members, kept.renorm
        table = self._tables.get(renorm)
        if table is None:
            table = self._tables[renorm] = FrequencyTable.from_freqs(quantize(renorm))
        plan = self[ctx] = (members, table, {sym: i for i, sym in enumerate(members)})
        return plan


def _plans_for(
    model: ContextModel, params: SelectorParams, lossless: bool, plans: _PlanCache | None
) -> _PlanCache:
    """`plans` when it was built for this (model, params, lossless), or a new cache if None."""
    if plans is None:
        return _PlanCache(model, params, lossless)
    if plans.model is not model or plans.params != params or plans.lossless != lossless:
        raise ValueError("plan cache was built for another model, params or lossless mode")
    return plans


def encode_document(
    model: ContextModel,
    params: SelectorParams,
    text: str,
    *,
    lossless: bool = False,
    plans: _PlanCache | None = None,
) -> tuple[HintsFile, EncodeReport]:
    """Produce the hints file for `text` and the count of characters it skipped.

    `lossless` keeps every symbol of positive probability, so a character the
    model gives probability 0 (unseen in its context under smoothing 0) is
    still skipped and counted in `skipped`.

    `plans` lends the walk a plan cache built for the same (model, params,
    lossless), so a later decode can reuse its plans; a mismatched cache
    raises ValueError.
    """
    syms = model.alphabet.encode(text)
    plans = _plans_for(model, params, lossless, plans)
    enc = Encoder()
    skipped = 0
    ctx = context_key(model.order, ())
    for sym in syms:
        members, table, index_of = plans[ctx]
        idx = index_of.get(sym)
        if idx is None:
            skipped += 1
        elif len(members) > 1:  # a one-member table (0, TOTAL) leaves the coder as it was
            enc.encode(table, idx)
        ctx = (ctx + (sym,))[1:]
    return HintsFile(enc.finish()), EncodeReport(skipped)


class DecoderSession:
    """Sequential guess/reveal decoder over a hints payload.

    next_guess() returns the guess at the current position and changes
    nothing. reveal(truth) decodes that guess again, then either commits it
    or rewinds the coder, and always shifts the truth into the order-k
    context. A truth outside the alphabet is refused before anything is
    decoded, so a refused reveal changes nothing. The session's state is
    that context and the coder, plus a position for error messages. `plans`
    is as in `encode_document`.
    """

    def __init__(
        self,
        model: ContextModel,
        params: SelectorParams,
        hints: HintsFile,
        *,
        lossless: bool = False,
        plans: _PlanCache | None = None,
    ):
        self._plans = _plans_for(model, params, lossless, plans)
        self._decoder = Decoder(hints.payload)
        self._ids = model.alphabet._ids
        self._glyphs = model.alphabet.glyphs  # id i is glyphs[i - 1]; plans never keep id 0
        self._ctx = context_key(model.order, ())
        self._position = 0

    def next_guess(self) -> str:
        members, table, _ = self._plans[self._ctx]
        state = self._decoder.checkpoint()
        guess_sym = members[self._decoder.decode(table)]
        self._decoder.restore(state)
        return self._glyphs[guess_sym - 1]

    def reveal(self, truth: str) -> StepOutcome:
        # The whole step in one frame: this runs once per decoded position.
        truth_sym = self._ids.get(truth)  # an unhashable truth raises here, before any decode
        if truth_sym is None:
            raise UnknownCharacterError(truth, self._position)
        members, table, _ = self._plans[self._ctx]
        state = self._decoder.checkpoint()
        guess_sym = members[self._decoder.decode(table)]
        if truth_sym != guess_sym:
            self._decoder.restore(state)
        self._ctx = (self._ctx + (truth_sym,))[1:]
        self._position += 1
        return StepOutcome(self._glyphs[guess_sym - 1], truth)


def run_trace(
    model: ContextModel,
    params: SelectorParams,
    hints: HintsFile,
    text: str,
    *,
    lossless: bool = False,
    plans: _PlanCache | None = None,
) -> DecodeTrace:
    """Drive a DecoderSession over `text`; the trace is its guess line and `text`."""
    reveal = DecoderSession(model, params, hints, lossless=lossless, plans=plans).reveal
    return DecodeTrace("".join([reveal(ch).guessed for ch in text]), text)


def decode_text(
    model: ContextModel,
    params: SelectorParams,
    hints: HintsFile,
    n: int,
    *,
    lossless: bool = False,
) -> str:
    """Decode n characters with no truth channel: every guess is taken as true.

    This is the exact inverse of encode_document only when its report had
    `skipped == 0`, which `lossless` alone does not ensure. A skipped
    character decodes as some other guess, and nothing here can tell. A
    guess taken as true is never rewound, so each position is decoded once,
    with no checkpoint.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    plans = _PlanCache(model, params, lossless)
    decode = Decoder(hints.payload).decode
    glyphs = model.alphabet.glyphs  # id i is glyphs[i - 1]; plans never keep id 0
    ctx = context_key(model.order, ())
    out = []
    for _ in range(n):
        members, table, _ = plans[ctx]
        sym = members[decode(table)]
        out.append(glyphs[sym - 1])
        ctx = (ctx + (sym,))[1:]
    return "".join(out)


def render_trace(trace: DecodeTrace, ansi: bool = False) -> str:
    """The original line over the guess line, wrong guesses highlighted."""
    wrong = ("\x1b[31m{}\x1b[0m" if ansi else "[{}]").format
    guesses = "".join(g if g == t else wrong(g) for g, t in zip(trace.guesses, trace.decoded))
    return f"{trace.decoded}\n{guesses}"
