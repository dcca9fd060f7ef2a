import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rwc.harness import SplitMix64, gen_iid, IidSource, model_from_iid
from rwc.model import UnknownCharacterError, predict
from rwc.rewind import (
    DecoderSession,
    DecodeTrace,
    HintsFile,
    decode_text,
    encode_document,
    render_guess_line,
    render_trace,
    run_trace,
)
from rwc.selector import select_kept


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
        h = HintsFile(payload=b"\x67", bit_count=6)
        assert h.byte_length == 1

    def test_mismatched_payload_rejected(self):
        with pytest.raises(ValueError):
            HintsFile(payload=b"\x00\x00", bit_count=3)

    def test_from_payload_takes_whole_bytes(self):
        h = HintsFile.from_payload(b"ab")
        assert h.bit_count == 16
        assert h.byte_length == 2


class TestEncodeDocument:
    def test_iid_example_byte(self, eta_model, params):
        hints, report = encode_document(eta_model, params, "ETATEETTT")
        assert hints.payload == b"\x67"
        assert (report.kept, report.skipped) == (8, 1)

    def test_chain_example_byte(self, chain_model, params):
        hints, report = encode_document(chain_model, params, "ETAHTETTT")
        assert hints.payload == b"\x77"
        assert (report.kept, report.skipped) == (8, 1)

    def test_empty_text(self, eta_model, params):
        hints, report = encode_document(eta_model, params, "")
        assert hints.payload == b""
        assert (hints.bit_count, report.kept, report.skipped) == (0, 0, 0)

    def test_character_outside_alphabet_reports_position(self, eta_model, params):
        with pytest.raises(UnknownCharacterError) as exc:
            encode_document(eta_model, params, "ETXT")
        assert exc.value.position == 2

    def test_all_skipped_text_yields_empty_hints(self, eta_model, params):
        hints, report = encode_document(eta_model, params, "AAA")
        assert hints.payload == b""
        assert (report.kept, report.skipped) == (0, 3)


class TestDecoderSession:
    def test_next_guess_is_idempotent(self, chain_model, params):
        s = DecoderSession(chain_model, params, b"\x77")
        first = s.next_guess()
        consumed = s._decoder.bits_read
        assert s.next_guess() == first
        assert s._decoder.bits_read == consumed

    def test_guess_after_two_kept(self, chain_model, params):
        s = DecoderSession(chain_model, params, b"\x77")
        for truth in "ET":
            s.reveal(truth)
        assert s.next_guess() == "T"

    def test_rewound_bit_reinterpreted_in_new_context(self, chain_model, params):
        s = DecoderSession(chain_model, params, b"\x77")
        s.reveal("E")
        s.reveal("T")
        wrong = s.reveal("A")
        assert (wrong.guessed, wrong.truth, wrong.rewound) == ("T", "A", True)
        assert s.next_guess() == "H"

    def test_empty_payload_guesses_the_favorite(self, eta_model, params):
        s = DecoderSession(eta_model, params, b"")
        assert s.next_guess() == "E"

    def test_reveal_outside_alphabet_rejected(self, eta_model, params):
        s = DecoderSession(eta_model, params, b"")
        with pytest.raises(UnknownCharacterError):
            s.reveal("X")

    def test_all_wrong_guesses_consume_no_bits(self, eta_model, params):
        hints, _ = encode_document(eta_model, params, "AAA")
        trace = run_trace(eta_model, params, hints, "AAA")
        assert trace.errors == 3
        assert all(s.rewound for s in trace.steps)
        assert all(s.bits_consumed_net == 0 for s in trace.steps)

    def test_accepts_hints_object_or_raw_bytes(self, chain_model, params):
        hints, _ = encode_document(chain_model, params, "ETAHTETTT")
        a = run_trace(chain_model, params, hints, "ETAHTETTT")
        b = run_trace(chain_model, params, hints.payload, "ETAHTETTT")
        assert a == b


class TestRunTrace:
    def test_chain_example_outcomes(self, chain_model, params):
        hints, _ = encode_document(chain_model, params, "ETAHTETTT")
        trace = run_trace(chain_model, params, hints, "ETAHTETTT")
        assert [s.correct for s in trace.steps] == [
            True, True, False, True, True, True, True, True, True,
        ]
        assert trace.steps[2].guessed == "T"
        assert trace.steps[3].guessed == "H"
        assert trace.errors == 1
        assert trace.decoded == "ETAHTETTT"

    def test_iid_example_fourth_guess(self, eta_model, params):
        hints, _ = encode_document(eta_model, params, "ETATEETTT")
        trace = run_trace(eta_model, params, hints, "ETATEETTT")
        assert trace.errors == 1
        assert not trace.steps[2].correct
        assert trace.steps[3].guessed == "T"
        assert trace.steps[3].correct

    def test_traces_are_deterministic(self, chain_model, params):
        hints, _ = encode_document(chain_model, params, "ETAHTETTT")
        a = run_trace(chain_model, params, hints, "ETAHTETTT")
        b = run_trace(chain_model, params, hints, "ETAHTETTT")
        assert a == b

    def test_trailing_zero_padding_is_harmless(self, chain_model, params):
        hints, _ = encode_document(chain_model, params, "ETAHTETTT")
        a = run_trace(chain_model, params, hints, "ETAHTETTT")
        b = run_trace(chain_model, params, hints.payload + b"\x00\x00", "ETAHTETTT")
        assert a == b

    def test_kept_and_skipped_totals(self, chain_model, params):
        hints, report = encode_document(chain_model, params, "ETAHTETTT")
        trace = run_trace(chain_model, params, hints, "ETAHTETTT")
        assert trace.kept == report.kept
        assert trace.errors == report.skipped


class TestRender:
    def test_bracketed_guess_line(self, chain_model, params):
        hints, _ = encode_document(chain_model, params, "ETAHTETTT")
        trace = run_trace(chain_model, params, hints, "ETAHTETTT")
        assert render_guess_line(trace) == "ET[T]HTETTT"

    def test_trace_layout_original_over_guesses(self, chain_model, params):
        hints, _ = encode_document(chain_model, params, "ETAHTETTT")
        trace = run_trace(chain_model, params, hints, "ETAHTETTT")
        assert render_trace(trace) == "ETAHTETTT\nET[T]HTETTT"

    def test_ansi_highlighting(self, chain_model, params):
        hints, _ = encode_document(chain_model, params, "ETAHTETTT")
        trace = run_trace(chain_model, params, hints, "ETAHTETTT")
        line = render_guess_line(trace, ansi=True)
        assert "\x1b[31mT\x1b[0m" in line
        assert "[T]" not in line


class TestLossless:
    def test_decode_without_truth_channel(self, eta_model, params):
        text = gen_iid(IidSource(("E", "T", "A"), (0.49, 0.49, 0.02)), 400, 11)
        hints, report = encode_document(eta_model, params, text, lossless=True)
        assert report.skipped == 0
        assert decode_text(eta_model, params, hints, len(text), lossless=True) == text

    def test_lossless_trace_has_no_errors(self, chain_model, params):
        text = "ETAHTETTTEASTE"
        hints, _ = encode_document(chain_model, params, text, lossless=True)
        trace = run_trace(chain_model, params, hints, text, lossless=True)
        assert trace.errors == 0
        assert trace.decoded == text


class TestPipelineInvariants:
    def test_errors_equal_positions_outside_kept_sets(self, chain_model, params):
        rng = SplitMix64(99)
        source = IidSource(("E", "T", "A"), (0.49, 0.49, 0.02))
        model = model_from_iid(source)
        for trial in range(20):
            n = rng.next() % 120
            text = gen_iid(source, n, rng.next())
            hints, report = encode_document(model, params, text)
            trace = run_trace(model, params, hints, text)
            flags = skipped_flags(model, params, text)
            assert trace.errors == sum(flags)
            assert report.skipped == sum(flags)
            for step, skipped in zip(trace.steps, flags):
                assert step.correct == (not skipped)

    def test_rate_tracks_the_real_distribution_costs(self, params):
        # hint bits stay within 2 of the sum of per-character surprises
        rng = SplitMix64(4242)
        source = IidSource(("E", "T", "A", "S"), (0.40, 0.30, 0.20, 0.10))
        model = model_from_iid(source)
        for trial in range(10):
            text = gen_iid(source, 500, rng.next())
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
