"""The encode/decode pipeline: hints files and the guess/reveal decoder.

Encoding walks the text once. At each position the model predicts a
distribution from the true history, the selector picks the kept subset, and
the character is arithmetic-coded only if it is kept; dropped characters cost
nothing here and become wrong guesses later.

Decoding mirrors the walk. Each guess is decoded from the hints stream under
the same kept set (both sides derive it from the same revealed history). A
correct guess commits the consumed bits. A wrong guess means the decoded hint
symbol belongs to some later position, so the coder is rewound to its
checkpoint and the same bits are reinterpreted once the context has grown by
the revealed true character.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coder import Decoder, Encoder, FrequencyTable, quantize
from .model import ContextModel, UnknownCharacterError, context_key, predict
from .selector import KeptSet, SelectorParams, full_support, select_kept


@dataclass(frozen=True)
class HintsFile:
    """The compressed side channel: raw coder payload, no header."""

    payload: bytes
    bit_count: int

    def __post_init__(self):
        if len(self.payload) != (self.bit_count + 7) // 8:
            raise ValueError("payload length disagrees with bit count")

    @property
    def byte_length(self) -> int:
        """L in the objective: hint bytes, zero-padding included."""
        return len(self.payload)

    @classmethod
    def from_payload(cls, payload: bytes) -> "HintsFile":
        """Wrap bytes read back from disk; the exact bit count is not stored,
        so take all bits (trailing zero-padding decodes identically)."""
        return cls(payload=payload, bit_count=8 * len(payload))


@dataclass(frozen=True)
class EncodeReport:
    kept: int
    skipped: int
    bit_count: int


@dataclass(frozen=True)
class StepOutcome:
    """One reveal: the guess, the true character, and the hint bits it kept."""

    guessed: str
    truth: str
    bits_consumed_net: int

    @property
    def correct(self) -> bool:
        return self.guessed == self.truth

    @property
    def rewound(self) -> bool:
        """A wrong guess rewinds the coder to the checkpoint before it."""
        return not self.correct


@dataclass(frozen=True)
class DecodeTrace:
    steps: tuple[StepOutcome, ...]

    @property
    def errors(self) -> int:
        return sum(1 for s in self.steps if not s.correct)

    @property
    def kept(self) -> int:
        return sum(1 for s in self.steps if s.correct)

    @property
    def decoded(self) -> str:
        """The reconstructed text: guesses, corrected by reveals."""
        return "".join(s.truth for s in self.steps)


class _PlanCache:
    """Per-context kept set, frequency table, and member lookup.

    Both encoder and decoder build plans through this class from the same
    (model, params), so their kept sets agree at every position by
    construction. Contexts repeat constantly, hence the cache.
    """

    def __init__(self, model: ContextModel, params: SelectorParams, lossless: bool):
        self.model = model
        self.params = params
        self.lossless = lossless
        self._plans: dict[tuple[int, ...], tuple[KeptSet, FrequencyTable, dict[int, int]]] = {}

    def plan(self, history: list[int]) -> tuple[KeptSet, FrequencyTable, dict[int, int]]:
        key = context_key(self.model.order, history)
        cached = self._plans.get(key)
        if cached is None:
            dist = predict(self.model, key)
            kept = full_support(dist) if self.lossless else select_kept(dist, self.params)
            table = FrequencyTable.from_freqs(quantize(kept.renorm))
            index_of = {sym: i for i, sym in enumerate(kept.members)}
            cached = (kept, table, index_of)
            self._plans[key] = cached
        return cached


def encode_document(
    model: ContextModel,
    params: SelectorParams,
    text: str,
    *,
    lossless: bool = False,
) -> tuple[HintsFile, EncodeReport]:
    """Produce the hints file for `text` plus kept/skipped accounting."""
    syms = model.alphabet.encode(text)
    plans = _PlanCache(model, params, lossless)
    enc = Encoder()
    skipped = 0
    history: list[int] = []
    for sym in syms:
        _, table, index_of = plans.plan(history)
        idx = index_of.get(sym)
        if idx is None:
            skipped += 1
        else:
            enc.encode(table, idx)
        history.append(sym)
    hints = HintsFile(*enc.finish())
    report = EncodeReport(kept=len(syms) - skipped, skipped=skipped, bit_count=hints.bit_count)
    return hints, report


class DecoderSession:
    """Sequential guess/reveal decoder over a hints payload.

    next_guess() decodes one symbol (idempotently; the guess is pinned until
    revealed). reveal(truth) either commits the guess or rewinds the coder,
    and always extends the history with the truth.
    """

    def __init__(
        self,
        model: ContextModel,
        params: SelectorParams,
        hints: HintsFile | bytes,
        *,
        lossless: bool = False,
    ):
        payload = hints.payload if isinstance(hints, HintsFile) else bytes(hints)
        self.model = model
        self._plans = _PlanCache(model, params, lossless)
        self._decoder = Decoder(payload)
        self.history: list[int] = []
        self._pending: tuple[int, tuple[int, int, int, int]] | None = None

    def next_guess(self) -> str:
        if self._pending is None:
            kept, table, _ = self._plans.plan(self.history)
            state = self._decoder.checkpoint()
            idx = self._decoder.decode(table)
            self._pending = (kept.members[idx], state)
        return self.model.alphabet.glyph_of(self._pending[0])

    def reveal(self, truth: str) -> StepOutcome:
        guessed = self.next_guess()
        guess_sym, state = self._pending
        if truth not in self.model.alphabet:
            raise UnknownCharacterError(truth, len(self.history))
        truth_sym = self.model.alphabet.id_of(truth)
        if truth_sym == guess_sym:
            net = self._decoder.bits_read - state[3]
        else:
            self._decoder.restore(state)
            net = 0
        self.history.append(truth_sym)
        self._pending = None
        return StepOutcome(guessed=guessed, truth=truth, bits_consumed_net=net)


def run_trace(
    model: ContextModel,
    params: SelectorParams,
    hints: HintsFile | bytes,
    text: str,
    *,
    lossless: bool = False,
) -> DecodeTrace:
    """Drive a DecoderSession over `text` and collect every step."""
    session = DecoderSession(model, params, hints, lossless=lossless)
    steps = [session.reveal(ch) for ch in text]
    return DecodeTrace(steps=tuple(steps))


def decode_text(
    model: ContextModel,
    params: SelectorParams,
    hints: HintsFile | bytes,
    n: int,
    *,
    lossless: bool = False,
) -> str:
    """Decode n characters with no truth channel: every guess is taken as true.

    Only meaningful when the hints were encoded losslessly (or happen to
    contain every character); then this is the exact inverse of
    encode_document.
    """
    session = DecoderSession(model, params, hints, lossless=lossless)
    out = []
    for _ in range(n):
        guess = session.next_guess()
        session.reveal(guess)
        out.append(guess)
    return "".join(out)


def render_guess_line(trace: DecodeTrace, ansi: bool = False) -> str:
    """One character per position: the guess, marked when it was wrong."""
    parts = []
    for s in trace.steps:
        if s.correct:
            parts.append(s.guessed)
        elif ansi:
            parts.append(f"\x1b[31m{s.guessed}\x1b[0m")
        else:
            parts.append(f"[{s.guessed}]")
    return "".join(parts)


def render_trace(trace: DecodeTrace, ansi: bool = False) -> str:
    """The original line over the guess line, wrong guesses highlighted."""
    return f"{trace.decoded}\n{render_guess_line(trace, ansi=ansi)}"
