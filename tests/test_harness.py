from collections import Counter
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

import rwc.harness
import rwc.rewind
from rwc.harness import (
    ACCEPTANCE_SEED,
    ChainSource,
    ScoreReport,
    SplitMix64,
    eta_source,
    evaluate,
    gen_bytes,
    gen_markov,
    model_from_chain,
    two_state_chain,
)
from rwc.coder import FrequencyTable
from rwc.model import (
    Alphabet,
    ContextModel,
    context_key,
    parse_model,
    predict,
    serialize_model,
    train,
)
from rwc.rewind import encode_document, run_trace
from rwc.selector import SelectorParams, full_support, select_kept

from oracles import uniform_byte_model

PLAN_CORPUS = "the cat sat on the mat; the rat ate the hat."


def count_plan_stages(monkeypatch) -> Counter:
    """Count calls of each plan-build stage from now on.

    Per-layer tracing times a plan build by wrapping these same globals, so
    every build must call each stage through them.
    """
    calls = Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for name in ("predict", "select_kept", "full_support", "quantize"):
        monkeypatch.setattr(rwc.rewind, name, counting(name, getattr(rwc.rewind, name)))
    from_freqs = counting("from_freqs", FrequencyTable.from_freqs)
    monkeypatch.setattr(FrequencyTable, "from_freqs", staticmethod(from_freqs))
    return calls


def stage_counts(model, text, lossless) -> dict[str, int]:
    """One `predict` and one selection per distinct context of `text`, and
    one `quantize` and `from_freqs` per distinct renorm of those contexts'
    kept sets; kept sets with equal renorms share a table, so every
    one-member set, whose renorm is (1.0,), shares one."""
    syms = model.alphabet.encode(text)
    contexts = {context_key(model.order, syms[:i]) for i in range(len(syms))}
    select = "full_support" if lossless else "select_kept"
    choose = full_support if lossless else partial(select_kept, params=SelectorParams.default())
    kept = [choose(predict(model, ctx)) for ctx in contexts]
    tables = len({k.renorm for k in kept})
    return {"predict": len(contexts), select: len(contexts), "quantize": tables, "from_freqs": tables}


@st.composite
def evaluations(draw):
    """A model trained on a drawn corpus, and a text over its alphabet."""
    glyphs = "ETA\u00e9\U0001f600"
    corpus = draw(st.text(alphabet=glyphs, min_size=1, max_size=40))
    model = train(
        corpus,
        draw(st.integers(0, 3)),
        draw(st.sampled_from([0.0, 0.05, 1.0])),
        alphabet=Alphabet(tuple(glyphs)),
    )
    return model, draw(st.text(alphabet=glyphs, max_size=60))


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
            assert 0.0 <= u <= 1.0

    def test_seed_is_masked_to_64_bits(self):
        assert SplitMix64(1 << 64).next() == SplitMix64(0).next()

    def test_top_outputs_make_uniform_return_one(self):
        # Invert the finaliser and the state step, so the first output is the
        # largest one; `next() / 2**64` rounds it up to 1.0.
        def unshift(z, s):
            x = z
            for _ in range(64 // s):
                x = z ^ (x >> s)
            return x

        mask = (1 << 64) - 1
        z = unshift(mask, 31)
        z = unshift(z * pow(0x94D049BB133111EB, -1, 1 << 64) & mask, 27)
        z = unshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & mask, 30)
        seed = (z - 0x9E3779B97F4A7C15) & mask
        assert seed == 0x31628AF67B2131AB
        assert SplitMix64(seed).next() == mask
        assert SplitMix64(seed).uniform() == 1.0
        # u == 1.0 bisects past the row; the generators emit its last glyph
        assert gen_markov(eta_source(), 1, seed) == "A"
        assert gen_markov(two_state_chain(), 1, seed) == "A"


class TestGenerators:
    def test_gen_iid_empty(self):
        assert gen_markov(eta_source(), 0, 1) == ""

    def test_gen_iid_degenerate(self):
        assert gen_markov(ChainSource.iid(("X",), (1.0,)), 5, 1) == "XXXXX"

    def test_gen_iid_frequencies_at_shipped_seed(self):
        text = gen_markov(eta_source(), 100000, ACCEPTANCE_SEED)
        counts = Counter(text)
        assert counts["E"] / 100000 == pytest.approx(0.49, abs=0.01)
        assert counts["T"] / 100000 == pytest.approx(0.49, abs=0.01)
        assert counts["A"] / 100000 == pytest.approx(0.02, abs=0.01)

    def test_gen_iid_is_reproducible(self):
        assert gen_markov(eta_source(), 500, 42) == gen_markov(eta_source(), 500, 42)

    def test_a_glyph_of_probability_zero_is_never_drawn(self):
        # This seed's first draw is exactly 1.0 (see TestSplitMix64), which
        # was clamped to the row's last entry even though B has probability 0.
        assert gen_markov(ChainSource.iid("AB", (1.0, 0.0)), 3, 0x31628AF67B2131AB) == "AAA"
        assert gen_markov(ChainSource.iid("ABC", (0.5, 0.5, 0.0)), 3, 0x31628AF67B2131AB)[0] == "B"

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
            gen_markov(eta_source(), -1, 0)
        with pytest.raises(ValueError):
            gen_markov(two_state_chain(), -1, 0)
        with pytest.raises(ValueError):
            gen_bytes(-1, 0)


class TestSourceValidation:
    def test_iid_checks_lengths_and_mass(self):
        with pytest.raises(ValueError, match="one probability per glyph"):
            ChainSource.iid(("A", "B"), (1.0,))
        with pytest.raises(ValueError, match="do not sum to 1"):
            ChainSource.iid(("A", "B"), (0.7, 0.7))

    def test_chain_checks_start_and_transitions(self):
        with pytest.raises(ValueError):
            ChainSource(start="missing", rows={"a": (("X", 1.0, "a"),)})
        with pytest.raises(ValueError):
            ChainSource(start="a", rows={"a": (("X", 1.0, "ghost"),)})
        with pytest.raises(ValueError):
            ChainSource(start="a", rows={"a": (("X", 0.5, "a"),)})

    def test_nan_probability_is_refused(self):
        nan = float("nan")
        with pytest.raises(ValueError):
            ChainSource.iid(("A", "B"), (nan, 1.0))
        with pytest.raises(ValueError):
            ChainSource(start="a", rows={"a": (("X", nan, "a"), ("Y", 1.0, "a"))})


class TestScore:
    def test_doubles_hint_bytes(self):
        assert ScoreReport(1, 1).score == 3

    def test_zero(self):
        assert ScoreReport(0, 0).score == 0

    def test_model_inclusion(self):
        assert ScoreReport(10, 4, model_bytes=100).score_with_model == 224

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
        with pytest.raises(ValueError):
            ScoreReport(0, 0, model_bytes=-1)
        with pytest.raises(ValueError):
            ScoreReport(hint_bytes=1, errors=0, kept=-5)

    def test_a_count_that_is_not_an_int_is_refused(self, eta_model, params):
        counts = {"hint_bytes": 1, "errors": 0, "kept": 2, "model_bytes": 3}
        for field in counts:
            values = [1.5, 2.0, True, False, "1"]
            if field in ("hint_bytes", "errors"):  # only kept and model_bytes may be None
                values.append(None)
            for value in values:
                with pytest.raises(ValueError, match="^counts must be ints, got ") as refused:
                    ScoreReport(**{**counts, field: value})
                assert f"{field}={value!r}" in str(refused.value)
        assert ScoreReport(1, 0, kept=None, model_bytes=None).lines() == [
            "L=1 E=0 score=2", "skipped=0",
        ]
        with pytest.raises(ValueError, match="model_bytes=2.5"):
            evaluate(eta_model, params, "ETE", model_bytes=2.5)

    def test_kept_is_reported_only_when_given(self):
        assert ScoreReport(hint_bytes=1, errors=3).lines() == ["L=1 E=3 score=5", "skipped=3"]
        assert ScoreReport(1, 3, kept=0).lines() == ["L=1 E=3 score=5", "kept=0", "skipped=3"]

    def test_include_without_measurement_rejected(self):
        assert ScoreReport(hint_bytes=1, errors=0).score_with_model is None


class TestEvaluate:
    def test_iid_example_scores_three(self, eta_model, params):
        report, trace = evaluate(eta_model, params, "ETATEETTT")
        assert report.summary_line() == "L=1 E=1 score=3"
        assert trace.errors == 1

    def test_chain_example_scores_three(self, chain_model, params):
        report, trace = evaluate(chain_model, params, "ETAHTETTT")
        assert report.summary_line() == "L=1 E=1 score=3"
        assert report.lines()[1:3] == ["kept=8", "skipped=1"]

    def test_lossless_has_no_errors(self, chain_model, params):
        report, trace = evaluate(chain_model, params, "ETAHTETTT", lossless=True)
        assert report.errors == 0
        assert trace.decoded == "ETAHTETTT"

    def test_model_bytes_match_serialization(self, eta_model, params):
        report, _ = evaluate(eta_model, params, "ETE")
        assert report.model_bytes == len(serialize_model(eta_model))
        expected = 2 * (report.hint_bytes + report.model_bytes) + report.errors
        assert report.score_with_model == expected

    @pytest.mark.parametrize("lossless", [False, True])
    def test_plan_stages_run_once_per_context_per_walk(self, monkeypatch, params, lossless):
        # The decode walk reuses the plans of the encode walk over the same
        # text, so one evaluate builds each distinct context's plan once.
        model = train(PLAN_CORPUS, 3, 0.1)
        text = PLAN_CORPUS[::-1]
        calls = count_plan_stages(monkeypatch)
        evaluate(model, params, text, lossless=lossless)
        assert calls == stage_counts(model, text, lossless)

    @pytest.mark.parametrize("lossless", [False, True])
    def test_standalone_walks_each_build_every_plan(self, monkeypatch, params, lossless):
        model = train(PLAN_CORPUS, 3, 0.1)
        text = PLAN_CORPUS[::-1]
        hints, _ = encode_document(model, params, text, lossless=lossless)
        calls = count_plan_stages(monkeypatch)
        encode_document(model, params, text, lossless=lossless)
        assert calls == stage_counts(model, text, lossless)
        calls.clear()
        run_trace(model, params, hints, text, lossless=lossless)
        assert calls == stage_counts(model, text, lossless)

    @given(evaluations(), st.booleans())
    def test_matches_a_standalone_encode_and_decode(self, params, case, lossless):
        model, text = case
        encoded = []

        def recording(*args, **kwargs):
            encoded.append(encode_document(*args, **kwargs))
            return encoded[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rwc.harness, "encode_document", recording)
            report, trace = evaluate(model, params, text, lossless=lossless)
        hints, encoded_report = encode_document(model, params, text, lossless=lossless)
        alone = run_trace(model, params, hints, text, lossless=lossless)
        assert [got for got, _ in encoded] == [hints]
        assert report == ScoreReport(
            hint_bytes=hints.byte_length,
            errors=alone.errors,
            kept=len(text) - encoded_report.skipped,
            model_bytes=len(serialize_model(model)),
        )
        assert trace == alone


@st.composite
def exact_chains(draw):
    """A chain whose glyph determines its next state, and a scale that makes
    every probability an integer count. Rows may list a glyph twice and may
    give a glyph probability 0."""
    scale = draw(st.integers(1, 60))
    states = [f"s{i}" for i in range(draw(st.integers(1, 3)))]
    glyphs = draw(st.lists(st.sampled_from("ETA\u00e9\U0001f600"), min_size=1, max_size=5))
    goes_to = {g: draw(st.sampled_from(states)) for g in glyphs}
    rows = {}
    for state in states:
        row = draw(st.lists(st.sampled_from(glyphs), min_size=1, max_size=6))
        cuts = draw(st.lists(st.integers(0, scale), min_size=len(row) - 1, max_size=len(row) - 1))
        bounds = [0, *sorted(cuts), scale]
        rows[state] = tuple(
            (g, (hi - lo) / scale, goes_to[g]) for g, lo, hi in zip(row, bounds, bounds[1:])
        )
    return ChainSource(states[0], rows), scale


class TestFixtureModels:
    @given(exact_chains())
    def test_chain_model_is_exact(self, case):
        chain, scale = case
        m = model_from_chain(chain, scale)
        assert (m.order == 0) == (len(chain.rows) == 1)
        assert parse_model(serialize_model(m)) == m

        def row_probs(state):
            want = [0.0] * m.alphabet.size
            for glyph, p, _ in chain.rows[state]:
                want[m.alphabet.id_of(glyph)] += p
            return want

        assert predict(m, []).probs == pytest.approx(row_probs(chain.start), abs=1e-12)
        for row in chain.rows.values():
            for glyph, _, nxt in row:
                got = predict(m, [m.alphabet.id_of(glyph)]).probs
                assert got == pytest.approx(row_probs(nxt), abs=1e-12)

    def test_chain_model_sums_a_glyph_listed_twice(self):
        source = ChainSource(
            start="s", rows={"s": (("A", 0.25, "s"), ("B", 0.5, "s"), ("A", 0.25, "s"))}
        )
        m = model_from_chain(source)
        assert m.alphabet.glyphs == ("A", "B")
        assert predict(m, []).probs[m.alphabet.id_of("A")] == 0.5

    def test_chain_model_gives_a_glyph_of_probability_zero_no_count(self):
        m = model_from_chain(ChainSource.iid("AB", (1.0, 0.0)))
        assert m.alphabet.glyphs == ("A", "B")
        assert m.counts == {(): {1: 100}}
        assert predict(m, []).probs == (0.0, 1.0, 0.0)

    def test_chain_model_refuses_a_probability_that_rounds_to_no_count(self):
        with pytest.raises(ValueError, match="not a multiple of 1/100"):
            model_from_chain(ChainSource.iid("AB", (1 - 1e-12, 1e-12)))

    def test_iid_model_reproduces_probabilities(self):
        m = model_from_chain(eta_source())
        d = predict(m, [])
        assert d.probs[m.alphabet.id_of("E")] == 0.49
        assert d.probs[m.alphabet.id_of("A")] == 0.02

    def test_iid_model_rejects_non_multiples(self):
        with pytest.raises(ValueError):
            model_from_chain(ChainSource.iid(("A", "B"), (1 / 3, 2 / 3)), scale=100)

    def test_chain_model_order_is_zero_for_one_state_only(self):
        assert model_from_chain(eta_source()).order == 0
        assert model_from_chain(two_state_chain()).order == 1

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

    def test_uniform_byte_model_matches_its_hand_built_counts(self):
        alphabet = Alphabet(tuple(chr(b) for b in range(256)))
        counts = {(): {sym: 1 for sym in range(1, 257)}}
        assert uniform_byte_model() == ContextModel(alphabet, 0, 0.0, counts)
