"""Differential test of the streaming walk against a history-based one.

`encode_document` and `DecoderSession` carry only the order-k context from
one position to the next. The oracle below is the earlier walk: it appends
every symbol to a history list and cuts the context from that list at each
step. Both must give the same hints, the same kept/skipped counts, and the
same guess at every position, for any model, text, payload and `lossless`.
The oracle's session is also the earlier two-call step (`reveal` through
`next_guess`), against which the one-frame `reveal` must leave the coder in
the same state after every reveal. A refused reveal, and a `next_guess`,
must leave the session exactly as it was. `decode_text` runs a
`DecoderSession` that takes each guess as the truth: it must give what the
oracle's session gives when each guess is revealed as the truth, and decode
each position once.
"""

from operator import ne

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwc.coder import Decoder, Encoder, FrequencyTable, quantize
from rwc.model import Alphabet, ContextModel, UnknownCharacterError, context_key, predict
from rwc.rewind import (
    DecoderSession,
    HintsFile,
    StepOutcome,
    decode_text,
    encode_document,
    run_trace,
)
from rwc.selector import SelectorParams, full_support, select_kept

PARAMS = SelectorParams.default()


# --- the oracle -------------------------------------------------------------


class OraclePlans:
    def __init__(self, model, params, lossless):
        self.model = model
        self.params = params
        self.lossless = lossless
        self._plans = {}

    def plan(self, history):
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


def oracle_encode(model, params, text, lossless):
    """(payload, kept, skipped)."""
    syms = model.alphabet.encode(text)
    plans = OraclePlans(model, params, lossless)
    enc = Encoder()
    skipped = 0
    history = []
    for sym in syms:
        _, table, index_of = plans.plan(history)
        idx = index_of.get(sym)
        if idx is None:
            skipped += 1
        else:
            enc.encode(table, idx)
        history.append(sym)
    return enc.finish(), len(syms) - skipped, skipped


class OracleSession:
    def __init__(self, model, params, payload, lossless):
        self.model = model
        self._plans = OraclePlans(model, params, lossless)
        self._decoder = Decoder(payload)
        self.history = []
        self._pending = None

    def next_guess(self):
        if self._pending is None:
            kept, table, _ = self._plans.plan(self.history)
            state = self._decoder.checkpoint()
            idx = self._decoder.decode(table)
            self._pending = (kept.members[idx], state)
        return self.model.alphabet.glyph_of(self._pending[0])

    def reveal(self, truth):
        """(guessed, truth, rewound)."""
        if truth not in self.model.alphabet.glyphs:
            raise UnknownCharacterError(truth, len(self.history))
        guessed = self.next_guess()
        guess_sym, state = self._pending
        truth_sym = self.model.alphabet.id_of(truth)
        if truth_sym != guess_sym:
            self._decoder.restore(state)
        self.history.append(truth_sym)
        self._pending = None
        return guessed, truth, truth_sym != guess_sym


def oracle_steps(model, params, payload, text, lossless):
    session = OracleSession(model, params, payload, lossless)
    return [session.reveal(ch) for ch in text]


def oracle_decode_text(model, params, payload, n, lossless):
    session = OracleSession(model, params, payload, lossless)
    out = []
    for _ in range(n):
        guess = session.next_guess()
        session.reveal(guess)
        out.append(guess)
    return "".join(out)


# --- comparison -------------------------------------------------------------


@st.composite
def models(draw):
    n_glyphs = draw(st.integers(1, 4))
    order = draw(st.integers(0, 3))
    smoothing = draw(st.sampled_from([0.0, 0.1]))
    ids = st.integers(0, n_glyphs)
    row = st.dictionaries(st.integers(1, n_glyphs), st.integers(1, 50), min_size=1)
    contexts = st.lists(ids, min_size=order, max_size=order).map(tuple)
    table = draw(st.dictionaries(contexts, row, min_size=1, max_size=6))
    alphabet = Alphabet(tuple(chr(0x41 + i) for i in range(n_glyphs)))
    return ContextModel(alphabet, order, smoothing, table)


@settings(max_examples=400)
@given(models(), st.data(), st.binary(max_size=6), st.booleans())
def test_walk_matches_the_history_walk(model, data, foreign, lossless):
    text = data.draw(st.text(alphabet=model.alphabet.glyphs, max_size=12))
    hints, report = encode_document(model, PARAMS, text, lossless=lossless)
    want = oracle_encode(model, PARAMS, text, lossless)
    assert (hints.payload, len(text) - report.skipped, report.skipped) == want

    for payload in (hints.payload, foreign):
        trace = run_trace(model, PARAMS, HintsFile(payload), text, lossless=lossless)
        oracle = oracle_steps(model, PARAMS, payload, text, lossless)
        rewound = map(ne, trace.guesses, trace.decoded)
        assert list(zip(trace.guesses, trace.decoded, rewound)) == oracle
        errors = sum(rewound for _, _, rewound in oracle)
        assert trace.guesses == "".join(guessed for guessed, _, _ in oracle)
        assert trace.decoded == text
        assert trace.errors == errors
        assert decode_text(model, PARAMS, HintsFile(payload), len(text), lossless=lossless) == (
            oracle_decode_text(model, PARAMS, payload, len(text), lossless)
        )

    session = DecoderSession(model, PARAMS, HintsFile(foreign), lossless=lossless)
    for ch in text:
        session.reveal(ch)
    with pytest.raises(UnknownCharacterError) as exc:
        session.reveal("?")
    assert (exc.value.char, exc.value.position) == ("?", len(text))


@settings(max_examples=300)
@given(models(), st.data(), st.binary(max_size=6), st.booleans())
def test_each_reveal_leaves_the_oracle_session_state(model, data, foreign, lossless):
    text = data.draw(st.text(alphabet=model.alphabet.glyphs, max_size=12))
    bad_at = data.draw(st.integers(0, len(text)))
    pinned = data.draw(st.booleans())
    hints, _ = encode_document(model, PARAMS, text, lossless=lossless)
    for payload in (hints.payload, foreign):
        session = DecoderSession(model, PARAMS, HintsFile(payload), lossless=lossless)
        oracle = OracleSession(model, PARAMS, payload, lossless)
        for position in range(len(text) + 1):
            if position == bad_at:
                if pinned:
                    session.next_guess()
                before = session._decoder.checkpoint()
                for _ in range(2):  # refused before any decode, so it changes nothing
                    with pytest.raises(UnknownCharacterError) as exc:
                        session.reveal("?")
                    assert exc.value.position == position
                    assert session._decoder.checkpoint() == before
                assert session.next_guess() == oracle.next_guess()
                assert session._decoder.checkpoint() == before  # the oracle, unlike it, pins its guess
            if position < len(text):
                truth = text[position]
                step = session.reveal(truth)
                guessed, _, rewound = oracle.reveal(truth)
                assert (step.guessed, step.truth, step.rewound) == (guessed, truth, rewound)
                assert session._decoder.checkpoint() == oracle._decoder.checkpoint()


@settings(max_examples=300)
@given(models(), st.data(), st.binary(max_size=6), st.booleans())
def test_next_guess_changes_nothing_and_is_what_reveal_guesses(model, data, foreign, lossless):
    text = data.draw(st.text(alphabet=model.alphabet.glyphs, max_size=12))
    hints, _ = encode_document(model, PARAMS, text, lossless=lossless)
    for payload in (hints.payload, foreign):
        session = DecoderSession(model, PARAMS, HintsFile(payload), lossless=lossless)
        for truth in text:
            before = session._decoder.checkpoint()
            guess = session.next_guess()
            assert session._decoder.checkpoint() == before
            assert session.reveal(truth).guessed == guess


@settings(max_examples=300)
@given(models(), st.data(), st.binary(max_size=6), st.booleans())
def test_decode_text_decodes_each_position_once(model, data, foreign, lossless):
    text = data.draw(st.text(alphabet=model.alphabet.glyphs, max_size=12))
    hints, _ = encode_document(model, PARAMS, text, lossless=lossless)
    decode = Decoder.decode
    for payload in (hints.payload, foreign):
        calls = []

        def counted(self, table):
            calls.append(table)
            return decode(self, table)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Decoder, "decode", counted)
            decode_text(model, PARAMS, HintsFile(payload), len(text), lossless=lossless)
        assert len(calls) == len(text)


def test_a_step_outcome_is_immutable():
    step = StepOutcome("A", "B")
    with pytest.raises(AttributeError):
        step.guessed = "B"
    assert step.rewound and not StepOutcome("A", "A").rewound
