import math
import tracemalloc
from operator import eq, ne

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rwc.harness import (
    ChainSource, SplitMix64, gen_markov, model_from_chain, two_state_chain,
)
from rwc.model import UnknownCharacterError, predict, train
from rwc.rewind import (
    DecoderSession,
    _PlanCache,
    DecodeTrace,
    HintsFile,
    decode_text,
    encode_document,
    render_trace,
    run_trace,
)
from rwc.selector import SelectorParams, select_kept


def skipped_flags(model, params, text):
    """Independent per-position kept-set membership, bypassing the pipeline."""
    flags = []
    history = []
    for sym in model.alphabet.encode(text):
        kept = select_kept(predict(model, history), params)
        flags.append(sym not in kept.members)
        history.append(sym)
    return flags


class TestHintsFile:
    def test_byte_length_is_rounded_up_bits(self):
        h = HintsFile(b"\x64")
        assert (h.bit_count, h.byte_length) == (6, 1)

    @pytest.mark.parametrize(
        "payload, bits",
        [(b"", 0), (b"\0\0", 0), (b"\x67", 8), (b"\x80", 1), (b"\x01\x00", 8), (b"\0\x80\0", 9)],
    )
    def test_bit_count_ends_on_the_last_one_bit(self, payload, bits):
        assert HintsFile(payload).bit_count == bits


class TestEncodeDocument:
    def test_iid_example_byte(self, eta_model, params):
        hints, report = encode_document(eta_model, params, "ETATEETTT")
        assert hints.payload == b"\x67"
        assert report.skipped == 1

    def test_chain_example_byte(self, chain_model, params):
        hints, report = encode_document(chain_model, params, "ETAHTETTT")
        assert hints.payload == b"\x77"
        assert report.skipped == 1

    def test_empty_text(self, eta_model, params):
        hints, report = encode_document(eta_model, params, "")
        assert hints.payload == b""
        assert (hints.bit_count, report.skipped) == (0, 0)

    def test_character_outside_alphabet_reports_position(self, eta_model, params):
        with pytest.raises(UnknownCharacterError) as exc:
            encode_document(eta_model, params, "ETXT")
        assert exc.value.position == 2

    def test_all_skipped_text_yields_empty_hints(self, eta_model, params):
        hints, report = encode_document(eta_model, params, "AAA")
        assert hints.payload == b""
        assert report.skipped == 3


class TestDecoderSession:
    def test_next_guess_is_idempotent(self, chain_model, params):
        s = DecoderSession(chain_model, params, HintsFile(b"\x77"))
        first = s.next_guess()
        consumed = s._decoder.bits_read
        assert s.next_guess() == first
        assert s._decoder.bits_read == consumed

    def test_guess_after_two_kept(self, chain_model, params):
        s = DecoderSession(chain_model, params, HintsFile(b"\x77"))
        for truth in "ET":
            s.reveal(truth)
        assert s.next_guess() == "T"

    def test_rewound_bit_reinterpreted_in_new_context(self, chain_model, params):
        s = DecoderSession(chain_model, params, HintsFile(b"\x77"))
        s.reveal("E")
        s.reveal("T")
        wrong = s.reveal("A")
        assert (wrong.guessed, wrong.truth, wrong.rewound) == ("T", "A", True)
        assert s.next_guess() == "H"

    def test_empty_payload_guesses_the_favorite(self, eta_model, params):
        s = DecoderSession(eta_model, params, HintsFile(b""))
        assert s.next_guess() == "E"

    def test_reveal_outside_alphabet_rejected(self, eta_model, params):
        s = DecoderSession(eta_model, params, HintsFile(b""))
        with pytest.raises(UnknownCharacterError):
            s.reveal("X")

    @pytest.mark.parametrize("truth", ["ET", "", "\ud800"])
    def test_reveal_of_a_non_glyph_names_its_position(self, eta_model, params, truth):
        s = DecoderSession(eta_model, params, HintsFile(b""))
        s.reveal("E")
        with pytest.raises(UnknownCharacterError) as exc:
            s.reveal(truth)
        assert (exc.value.char, exc.value.position) == (truth, 1)

    def test_reveal_of_an_unhashable_value_raises_type_error(self, eta_model, params):
        s = DecoderSession(eta_model, params, HintsFile(b""))
        with pytest.raises(TypeError):
            s.reveal(["E"])

    def test_all_wrong_guesses_consume_no_bits(self, eta_model, params):
        hints, _ = encode_document(eta_model, params, "AAA")
        trace = run_trace(eta_model, params, hints, "AAA")
        assert trace.errors == 3
        assert "A" not in trace.guesses


class TestRunTrace:
    def test_chain_example_outcomes(self, chain_model, params):
        hints, _ = encode_document(chain_model, params, "ETAHTETTT")
        trace = run_trace(chain_model, params, hints, "ETAHTETTT")
        assert list(map(eq, trace.guesses, trace.decoded)) == [
            True, True, False, True, True, True, True, True, True,
        ]
        assert trace.guesses[2] == "T"
        assert trace.guesses[3] == "H"
        assert trace.errors == 1
        assert trace.decoded == "ETAHTETTT"

    def test_iid_example_fourth_guess(self, eta_model, params):
        hints, _ = encode_document(eta_model, params, "ETATEETTT")
        trace = run_trace(eta_model, params, hints, "ETATEETTT")
        assert trace.errors == 1
        assert trace.guesses[2] != trace.decoded[2]
        assert trace.guesses[3] == trace.decoded[3] == "T"

    def test_traces_are_deterministic(self, chain_model, params):
        hints, _ = encode_document(chain_model, params, "ETAHTETTT")
        a = run_trace(chain_model, params, hints, "ETAHTETTT")
        b = run_trace(chain_model, params, hints, "ETAHTETTT")
        assert a == b

    def test_trailing_zero_padding_is_harmless(self, chain_model, params):
        hints, _ = encode_document(chain_model, params, "ETAHTETTT")
        a = run_trace(chain_model, params, hints, "ETAHTETTT")
        b = run_trace(chain_model, params, HintsFile(hints.payload + b"\x00\x00"), "ETAHTETTT")
        assert a == b

    @given(
        payload=st.binary(max_size=16),
        text=st.text(alphabet="ETASH", max_size=40),
        lossless=st.booleans(),
    )
    def test_any_bytes_decode_to_a_trace(self, chain_model, params, payload, text, lossless):
        # Errors are data: hints that were never encoded for `text` still decode.
        trace = run_trace(chain_model, params, HintsFile(payload), text, lossless=lossless)
        assert trace.decoded == text
        assert 0 <= trace.errors <= len(text)

    def test_kept_and_skipped_totals(self, chain_model, params):
        hints, report = encode_document(chain_model, params, "ETAHTETTT")
        trace = run_trace(chain_model, params, hints, "ETAHTETTT")
        assert trace.errors == report.skipped
        assert sum(map(eq, trace.guesses, trace.decoded)) == len(trace.decoded) - report.skipped

    @pytest.mark.parametrize("guesses, decoded", [("ab", "abc"), ("abc", "ab"), ("a", "")])
    def test_unequal_lengths_are_refused(self, guesses, decoded):
        # a short guess line would count too few errors and too many kept
        with pytest.raises(ValueError, match="one guess per revealed character"):
            DecodeTrace(guesses, decoded)


class TestTraceMemory:
    def test_trace_does_not_grow_by_an_object_per_position(self, params):
        # A trace keeps the guess line and the text: about a byte a position,
        # where a frozen object per position costs about a hundred.
        model = model_from_chain(two_state_chain())
        text = gen_markov(two_state_chain(), 10_000, 5)
        hints, _ = encode_document(model, params, text)
        run_trace(model, params, hints, text)  # warm up: plans and interned glyphs
        tracemalloc.start()
        try:
            trace = run_trace(model, params, hints, text)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.decoded == text and trace.errors > 0
        assert retained < 64 * 1024 + len(text)


class TestRender:
    def test_trace_layout_original_over_guesses(self, chain_model, params):
        hints, _ = encode_document(chain_model, params, "ETAHTETTT")
        trace = run_trace(chain_model, params, hints, "ETAHTETTT")
        assert render_trace(trace) == "ETAHTETTT\nET[T]HTETTT"

    def test_ansi_highlighting(self, chain_model, params):
        hints, _ = encode_document(chain_model, params, "ETAHTETTT")
        trace = run_trace(chain_model, params, hints, "ETAHTETTT")
        assert render_trace(trace, ansi=True) == "ETAHTETTT\nET\x1b[31mT\x1b[0mHTETTT"

    @pytest.mark.parametrize("ansi", [False, True])
    def test_format_characters_are_marked_verbatim(self, ansi):
        def oracle_guess_line(trace, ansi):
            parts = []
            for guessed, truth in zip(trace.guesses, trace.decoded):
                if guessed == truth:
                    parts.append(guessed)
                elif ansi:
                    parts.append(f"\x1b[31m{guessed}\x1b[0m")
                else:
                    parts.append(f"[{guessed}]")
            return "".join(parts)

        pairs = [("{", "a"), ("}", "}"), ("}", "{"), ("[", "]"), ("%", "s"), ("%", "%"), ("{", "{")]
        trace = DecodeTrace("".join(g for g, _ in pairs), "".join(t for _, t in pairs))
        rendered = render_trace(trace, ansi=ansi)
        assert rendered == f"{trace.decoded}\n{oracle_guess_line(trace, ansi)}"
        assert rendered == "a}{]s%{\n" + (
            "\x1b[31m{\x1b[0m}\x1b[31m}\x1b[0m\x1b[31m[\x1b[0m\x1b[31m%\x1b[0m%{"
            if ansi else "[{]}[}][[][%]%{")


class TestLossless:
    def test_decode_without_truth_channel(self, eta_model, params):
        text = gen_markov(ChainSource.iid(("E", "T", "A"), (0.49, 0.49, 0.02)), 400, 11)
        hints, report = encode_document(eta_model, params, text, lossless=True)
        assert report.skipped == 0
        assert decode_text(eta_model, params, hints, len(text), lossless=True) == text

    def test_lossless_trace_has_no_errors(self, chain_model, params):
        text = "ETAHTETTTEASTE"
        hints, _ = encode_document(chain_model, params, text, lossless=True)
        trace = run_trace(chain_model, params, hints, text, lossless=True)
        assert trace.errors == 0
        assert trace.decoded == text

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("smoothing", [0.0, 0.1])
    def test_decode_is_exact_only_when_nothing_was_skipped(self, params, order, smoothing):
        # Lossless keeps every symbol of positive probability. Under smoothing 0
        # a character unseen in its context has probability 0, so it is still
        # skipped, and decode_text returns other text without an error.
        corpus = "the cat sat on the mat and the rat ate the hat that sat on a mat"
        model = train(corpus, order, smoothing)
        text = "a rat sat on the cat that ate the mat"
        hints, report = encode_document(model, params, text, lossless=True)
        decoded = decode_text(model, params, hints, len(text), lossless=True)
        assert (decoded == text) == (report.skipped == 0)
        assert (report.skipped > 0) == (smoothing == 0.0 and order > 0)

    def test_negative_count_rejected(self, eta_model, params):
        hints, _ = encode_document(eta_model, params, "ETE", lossless=True)
        with pytest.raises(ValueError, match="n must be >= 0"):
            decode_text(eta_model, params, hints, -3, lossless=True)


class TestSharedPlans:
    TEXT = "ETAHTETTTEASTE"

    @pytest.mark.parametrize("other", ["model", "params", "lossless"])
    def test_cache_built_for_other_inputs_is_refused(self, chain_model, params, other):
        twin = model_from_chain(two_state_chain())  # equal, but another object
        assert twin == chain_model
        built_for = {
            "model": (twin, params, False),
            "params": (chain_model, SelectorParams(alpha=0.5), False),
            "lossless": (chain_model, params, True),
        }[other]
        plans = _PlanCache(*built_for)
        hints, _ = encode_document(chain_model, params, self.TEXT)
        with pytest.raises(ValueError, match="plan cache"):
            encode_document(chain_model, params, self.TEXT, plans=plans)
        with pytest.raises(ValueError, match="plan cache"):
            DecoderSession(chain_model, params, hints, plans=plans)
        with pytest.raises(ValueError, match="plan cache"):
            run_trace(chain_model, params, hints, self.TEXT, plans=plans)
        assert not plans

    def test_decode_reuses_the_plans_of_its_encode(self, chain_model, params):
        # equal params in another object, and a lossless flag equal to True, match
        plans = _PlanCache(chain_model, SelectorParams(alpha=params.alpha), 1)
        hints, _ = encode_document(chain_model, params, self.TEXT, lossless=True, plans=plans)
        built = dict(plans)
        trace = run_trace(chain_model, params, hints, self.TEXT, lossless=True, plans=plans)
        assert trace.decoded == self.TEXT and trace.errors == 0
        assert plans == built
        assert all(plans[ctx] is plan for ctx, plan in built.items())


class TestPipelineInvariants:
    def test_errors_equal_positions_outside_kept_sets(self, chain_model, params):
        rng = SplitMix64(99)
        source = ChainSource.iid(("E", "T", "A"), (0.49, 0.49, 0.02))
        model = model_from_chain(source)
        for trial in range(20):
            n = rng.next() % 120
            text = gen_markov(source, n, rng.next())
            hints, report = encode_document(model, params, text)
            trace = run_trace(model, params, hints, text)
            flags = skipped_flags(model, params, text)
            assert trace.errors == sum(flags)
            assert report.skipped == sum(flags)
            assert list(map(ne, trace.guesses, trace.decoded)) == flags

    def test_rate_tracks_the_real_distribution_costs(self, params):
        # hint bits stay within 2 of the sum of per-character surprises
        rng = SplitMix64(4242)
        source = ChainSource.iid(("E", "T", "A", "S"), (0.40, 0.30, 0.20, 0.10))
        model = model_from_chain(source)
        for trial in range(10):
            text = gen_markov(source, 500, rng.next())
            hints, _ = encode_document(model, params, text)
            ideal = 0.0
            history = []
            for sym in model.alphabet.encode(text):
                dist = predict(model, history)
                kept = select_kept(dist, params)
                if sym in kept.members:
                    ideal += math.log2(kept.mass / dist.probs[sym])
                history.append(sym)
            assert hints.bit_count <= ideal + 2.0
