from collections import Counter

import pytest

from rwc.harness import (
    ACCEPTANCE_SEED,
    ChainSource,
    IidSource,
    ScoreReport,
    SplitMix64,
    eta_source,
    evaluate,
    gen_bytes,
    gen_iid,
    gen_markov,
    model_from_chain,
    model_from_iid,
    two_state_chain,
    uniform_byte_model,
)
from rwc.model import predict, serialize_model


class TestSplitMix64:
    def test_reference_stream_from_seed_zero(self):
        # first outputs of the standard splitmix64 sequence for state 0
        rng = SplitMix64(0)
        assert [rng.next() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_same_seed_same_stream(self):
        a, b = SplitMix64(1234), SplitMix64(1234)
        assert [a.next() for _ in range(20)] == [b.next() for _ in range(20)]

    def test_uniform_is_in_unit_interval(self):
        rng = SplitMix64(7)
        for _ in range(100):
            u = rng.uniform()
            assert 0.0 <= u < 1.0

    def test_seed_is_masked_to_64_bits(self):
        assert SplitMix64(1 << 64).next() == SplitMix64(0).next()


class TestGenerators:
    def test_gen_iid_empty(self):
        assert gen_iid(eta_source(), 0, 1) == ""

    def test_gen_iid_degenerate(self):
        assert gen_iid(IidSource(("X",), (1.0,)), 5, 1) == "XXXXX"

    def test_gen_iid_frequencies_at_shipped_seed(self):
        text = gen_iid(eta_source(), 100000, ACCEPTANCE_SEED)
        counts = Counter(text)
        assert counts["E"] / 100000 == pytest.approx(0.49, abs=0.01)
        assert counts["T"] / 100000 == pytest.approx(0.49, abs=0.01)
        assert counts["A"] / 100000 == pytest.approx(0.02, abs=0.01)

    def test_gen_iid_is_reproducible(self):
        assert gen_iid(eta_source(), 500, 42) == gen_iid(eta_source(), 500, 42)

    def test_gen_markov_empty(self):
        assert gen_markov(two_state_chain(), 0, 1) == ""

    @pytest.mark.parametrize("seed", [1, 2, 3, ACCEPTANCE_SEED])
    def test_every_a_is_followed_by_s_or_h(self, seed):
        text = gen_markov(two_state_chain(), 2000, seed)
        for i, ch in enumerate(text[:-1]):
            if ch == "A":
                assert text[i + 1] in "SH"

    def test_gen_markov_block_frequencies_at_shipped_seed(self):
        text = gen_markov(two_state_chain(), 100000, ACCEPTANCE_SEED)
        blocks = Counter()
        i = 0
        while i < len(text):
            if text[i] == "A" and i + 1 < len(text):
                blocks[text[i : i + 2]] += 1
                i += 2
            else:
                blocks[text[i]] += 1
                i += 1
        total = sum(blocks.values())
        assert blocks["E"] / total == pytest.approx(0.49, abs=0.01)
        assert blocks["T"] / total == pytest.approx(0.49, abs=0.01)
        assert blocks["AS"] / total == pytest.approx(0.01, abs=0.01)
        assert blocks["AH"] / total == pytest.approx(0.01, abs=0.01)

    def test_gen_bytes_empty_and_reproducible(self):
        assert gen_bytes(0, 5) == b""
        assert gen_bytes(64, 5) == gen_bytes(64, 5)

    def test_gen_bytes_covers_all_values_at_shipped_seed(self):
        assert len(set(gen_bytes(10000, ACCEPTANCE_SEED))) == 256

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            gen_iid(eta_source(), -1, 0)
        with pytest.raises(ValueError):
            gen_markov(two_state_chain(), -1, 0)
        with pytest.raises(ValueError):
            gen_bytes(-1, 0)


class TestSourceValidation:
    def test_iid_checks_lengths_and_mass(self):
        with pytest.raises(ValueError):
            IidSource(("A", "B"), (1.0,))
        with pytest.raises(ValueError):
            IidSource(("A", "B"), (0.7, 0.7))

    def test_chain_checks_start_and_transitions(self):
        with pytest.raises(ValueError):
            ChainSource(start="missing", rows={"a": (("X", 1.0, "a"),)})
        with pytest.raises(ValueError):
            ChainSource(start="a", rows={"a": (("X", 1.0, "ghost"),)})
        with pytest.raises(ValueError):
            ChainSource(start="a", rows={"a": (("X", 0.5, "a"),)})


class TestScore:
    def test_doubles_hint_bytes(self):
        assert ScoreReport(1, 1).score == 3

    def test_zero(self):
        assert ScoreReport(0, 0).score == 0

    def test_model_inclusion(self):
        assert ScoreReport(10, 4, model_bytes=100, include_model=True).score == 224

    def test_model_excluded_by_default(self):
        report = ScoreReport(10, 4, model_bytes=100)
        assert report.score == 24
        assert "model_bytes=100" in report.lines()
        assert "score_with_model=224" in report.lines()

    def test_summary_line_format(self):
        assert ScoreReport(1, 1).summary_line() == "L=1 E=1 score=3"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ScoreReport(-1, 0)
        with pytest.raises(ValueError):
            ScoreReport(0, -1)

    def test_include_without_measurement_rejected(self):
        with pytest.raises(ValueError):
            ScoreReport(hint_bytes=1, errors=0, include_model=True)


class TestEvaluate:
    def test_iid_example_scores_three(self, eta_model, params):
        report, trace = evaluate(eta_model, params, "ETATEETTT")
        assert report.summary_line() == "L=1 E=1 score=3"
        assert trace.errors == 1

    def test_chain_example_scores_three(self, chain_model, params):
        report, trace = evaluate(chain_model, params, "ETAHTETTT")
        assert report.summary_line() == "L=1 E=1 score=3"
        assert (report.kept, report.skipped) == (8, 1)

    def test_lossless_has_no_errors(self, chain_model, params):
        report, trace = evaluate(chain_model, params, "ETAHTETTT", lossless=True)
        assert report.errors == 0
        assert trace.decoded == "ETAHTETTT"

    def test_model_bytes_match_serialization(self, eta_model, params):
        report, _ = evaluate(eta_model, params, "ETE", include_model=True)
        assert report.model_bytes == len(serialize_model(eta_model))
        assert report.score == 2 * (report.hint_bytes + report.model_bytes) + report.errors


class TestFixtureModels:
    def test_iid_model_reproduces_probabilities(self):
        m = model_from_iid(eta_source())
        d = predict(m, [])
        assert d.probs[m.alphabet.id_of("E")] == 0.49
        assert d.probs[m.alphabet.id_of("A")] == 0.02

    def test_iid_model_rejects_non_multiples(self):
        with pytest.raises(ValueError):
            model_from_iid(IidSource(("A", "B"), (1 / 3, 2 / 3)), scale=100)

    def test_chain_model_glyphs_in_first_mention_order(self, chain_model):
        assert chain_model.alphabet.glyphs == ("E", "T", "A", "S", "H")

    def test_chain_model_start_context(self, chain_model):
        d = predict(chain_model, [])
        assert d.probs[chain_model.alphabet.id_of("E")] == 0.49

    def test_chain_model_rejects_ambiguous_glyphs(self):
        chain = ChainSource(
            start="a",
            rows={
                "a": (("X", 0.5, "a"), ("Y", 0.5, "b")),
                "b": (("X", 1.0, "b"),),
            },
        )
        with pytest.raises(ValueError, match="unique state"):
            model_from_chain(chain)

    def test_uniform_byte_model_is_uniform(self):
        m = uniform_byte_model()
        d = predict(m, [])
        assert len(m.alphabet.glyphs) == 256
        assert d.probs[1] == d.probs[256] == 1 / 256
