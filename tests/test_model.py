import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwc.model import (
    BOS,
    Alphabet,
    BadMagicError,
    MAX_COUNT,
    MAX_ORDER,
    ContextModel,
    Distribution,
    ModelFormatError,
    TruncatedModelError,
    UnknownCharacterError,
    UnsupportedVersionError,
    build_alphabet,
    context_key,
    entropy,
    parse_model,
    predict,
    serialize_model,
    surprise,
    train,
)


class TestAlphabet:
    def test_build_alphabet_sorts_by_code_point(self):
        assert build_alphabet("ETATEETTT").glyphs == ("A", "E", "T")

    def test_ids_are_dense_from_one(self):
        a = Alphabet(("E", "T", "A"))
        assert [a.id_of(g) for g in "ETA"] == [1, 2, 3]
        assert [a.glyph_of(i) for i in (1, 2, 3)] == ["E", "T", "A"]
        assert a.size == 4

    def test_contains(self):
        a = Alphabet(("E", "T"))
        assert "E" in a and "X" not in a

    def test_sentinel_has_no_glyph(self):
        with pytest.raises(ValueError):
            Alphabet(("E",)).glyph_of(BOS)

    def test_rejects_duplicates_and_long_glyphs(self):
        with pytest.raises(ValueError):
            Alphabet(("E", "E"))
        with pytest.raises(ValueError):
            Alphabet(("ET",))

    @pytest.mark.parametrize("glyph", ["\ud800", "\udc80", "\udfff"])
    def test_rejects_surrogates(self, glyph):
        # half of a UTF-16 pair is not text, and no model file may hold one
        with pytest.raises(ValueError, match="surrogate"):
            Alphabet(("E", glyph))

    def test_train_refuses_a_surrogate_in_the_corpus(self):
        with pytest.raises(ValueError, match="surrogate"):
            train("a\ud800", 0, 0.1)

    def test_encode_reports_offending_position(self):
        a = Alphabet(("E", "T"))
        with pytest.raises(UnknownCharacterError) as exc:
            a.encode("ETX")
        assert exc.value.char == "X"
        assert exc.value.position == 2

    def test_encode_decode_roundtrip(self):
        a = Alphabet(("E", "T", "A"))
        assert "".join(map(a.glyph_of, a.encode("TATE"))) == "TATE"


class TestContextKey:
    def test_pads_short_history_with_sentinel(self):
        assert context_key(2, []) == (BOS, BOS)
        assert context_key(2, [5]) == (BOS, 5)
        assert context_key(2, [5, 6, 7]) == (6, 7)

    def test_order_zero_is_empty(self):
        assert context_key(0, [1, 2, 3]) == ()


class TestTrain:
    def test_order0_counts_tally_the_string(self):
        m = train("ETATEETTT", 0, 0.0)
        a = m.alphabet
        assert m.tables[0][()] == {a.id_of("E"): 3, a.id_of("T"): 5, a.id_of("A"): 1}

    def test_order1_contexts_of_two_char_corpus(self):
        m = train("AB", 1, 0.0)
        a, b = m.alphabet.id_of("A"), m.alphabet.id_of("B")
        assert m.tables[1] == {(BOS,): {a: 1}, (a,): {b: 1}}

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            train("", 1, 0.0)

    def test_negative_order_and_smoothing_rejected(self):
        with pytest.raises(ValueError):
            train("AB", -1, 0.0)
        with pytest.raises(ValueError):
            train("AB", 0, -0.5)

    def test_explicit_alphabet_reserves_unseen_glyphs(self):
        m = train("EE", 0, 1.0, alphabet=Alphabet(("E", "T")))
        d = predict(m, [])
        # additive smoothing: (2+1)/(2+2) and (0+1)/(2+2)
        assert d.probs[m.alphabet.id_of("E")] == pytest.approx(0.75, abs=1e-15)
        assert d.probs[m.alphabet.id_of("T")] == pytest.approx(0.25, abs=1e-15)

    @given(st.text(alphabet="ABC", min_size=1, max_size=60), st.integers(0, 3))
    def test_order_k_counts_sum_to_corpus_length(self, corpus, k):
        m = train(corpus, k, 0.0)
        total = sum(sum(row.values()) for row in m.tables[k].values())
        assert total == len(corpus)


class TestPredict:
    def test_chain_state_after_a(self, chain_model):
        a = chain_model.alphabet
        d = predict(chain_model, [a.id_of("E"), a.id_of("A")])
        assert d.probs[a.id_of("S")] == 0.5
        assert d.probs[a.id_of("H")] == 0.5

    def test_chain_state_after_t(self, chain_model):
        a = chain_model.alphabet
        d = predict(chain_model, [a.id_of("T")])
        assert d.probs[a.id_of("E")] == 0.49
        assert d.probs[a.id_of("T")] == 0.49
        assert d.probs[a.id_of("A")] == 0.02

    def test_empty_model_rejected(self):
        # Refusing it is what lets predict always find an order-0 row to back off to.
        with pytest.raises(ValueError, match="empty count table"):
            ContextModel(Alphabet(("E", "T")), 1, 0.0, {})

    def test_backoff_uses_longest_trained_suffix(self):
        m = train("ABAB", 2, 0.0)
        a, b = m.alphabet.id_of("A"), m.alphabet.id_of("B")
        # pair (B,B) was never seen; suffix (B,) always precedes A
        d = predict(m, [b, b])
        assert d.probs[a] == 1.0

    def test_unsmoothed_prediction_is_exact_count_ratio(self):
        m = train("ETATEETTT", 0, 0.0)
        d = predict(m, [])
        a = m.alphabet
        assert d.probs[a.id_of("E")] == 3 / 9
        assert d.probs[a.id_of("T")] == 5 / 9
        assert d.probs[a.id_of("A")] == 1 / 9

    @given(
        st.text(alphabet="ABCD", min_size=1, max_size=40),
        st.integers(0, 3),
        st.floats(0.0, 2.0),
        st.lists(st.integers(1, 4), max_size=6),
    )
    def test_predictions_sum_to_one_and_exclude_sentinel(self, corpus, k, beta, hist):
        m = train(corpus, k, beta, alphabet=Alphabet(("A", "B", "C", "D")))
        d = predict(m, hist)
        assert d.probs[BOS] == 0.0
        assert math.isclose(sum(d.probs), 1.0, abs_tol=1e-9)
        d.validate()


class TestSurpriseEntropy:
    def test_dyadic_surprise_is_exact(self):
        assert surprise(2.0**-8) == 8.0

    def test_reference_values(self):
        assert surprise(0.49) == pytest.approx(1.0291, abs=5e-4)
        assert surprise(0.02) == pytest.approx(5.6439, abs=5e-4)

    def test_zero_probability_rejected(self):
        with pytest.raises(ValueError, match="zero-probability"):
            surprise(0.0)
        with pytest.raises(ValueError):
            surprise(-0.1)

    def test_entropy_examples(self):
        assert entropy(Distribution((0.0, 0.49, 0.49, 0.02))) == pytest.approx(1.1214, abs=5e-4)
        assert entropy(Distribution((0.0, 0.5, 0.5))) == 1.0
        assert entropy(Distribution((0.0, 1.0))) == 0.0

    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8))
    def test_entropy_bounded_by_log_support(self, weights):
        s = sum(weights)
        d = Distribution((0.0,) + tuple(w / s for w in weights))
        h = entropy(d)
        assert h <= math.log2(len(weights)) + 1e-9

    def test_entropy_equality_iff_uniform(self):
        uniform = Distribution((0.0,) + (0.125,) * 8)
        assert entropy(uniform) == pytest.approx(3.0, abs=1e-9)
        skewed = Distribution((0.0, 0.2, 0.8))
        assert entropy(skewed) < 1.0 - 1e-9


class TestDistribution:
    def test_validate_rejects_negative_and_unnormalized(self):
        with pytest.raises(ValueError):
            Distribution((0.0, -0.1, 1.1)).validate()
        with pytest.raises(ValueError):
            Distribution((0.0, 0.3, 0.3)).validate()

    def test_support(self):
        assert Distribution((0.0, 0.5, 0.0, 0.5)).support() == (1, 3)


class TestModelFile:
    def test_roundtrip_identity(self):
        m = train("ETATEETTT ESHTA", 2, 0.1)
        assert parse_model(serialize_model(m)) == m

    def test_serialize_is_deterministic(self):
        m = train("THE CAT SAT", 1, 0.0)
        assert serialize_model(m) == serialize_model(m)

    def test_roundtrip_preserves_predictions_bit_for_bit(self):
        m = train("ABRACADABRA", 2, 0.25)
        m2 = parse_model(serialize_model(m))
        for hist in ([], [1], [1, 2], [3, 1], [2, 2, 1]):
            assert predict(m, hist).probs == predict(m2, hist).probs

    def test_bad_magic(self):
        with pytest.raises(BadMagicError):
            parse_model(b"XXXX" + b"\x00" * 40)

    def test_unsupported_version(self):
        data = bytearray(serialize_model(train("AB", 0, 0.0)))
        data[3:4] = b"1"
        with pytest.raises(UnsupportedVersionError):
            parse_model(bytes(data))

    def test_truncation(self):
        data = serialize_model(train("ABAB", 1, 0.0))
        with pytest.raises(TruncatedModelError):
            parse_model(data[: len(data) - 3])
        with pytest.raises(TruncatedModelError):
            parse_model(b"RW")

    def test_trailing_garbage_rejected(self):
        data = serialize_model(train("AB", 0, 0.0))
        with pytest.raises(ModelFormatError):
            parse_model(data + b"\x00")

    @given(st.text(alphabet="ABCDE", min_size=1, max_size=50), st.integers(0, 3))
    def test_roundtrip_property(self, corpus, k):
        m = train(corpus, k, 0.5)
        assert parse_model(serialize_model(m)) == m

    def test_only_the_order_k_table_is_stored(self):
        # magic 4 + order 4 + smoothing 8 + glyph count 4 + 2 glyphs 8, then
        # one u64 context count and 3 contexts of (2 ids, row length, one pair)
        m = train("ABA", 2, 0.0)
        assert len(m.counts) == 3
        assert len(serialize_model(m)) == 28 + 8 + 3 * (8 + 4 + 12)

    @settings(max_examples=400)
    @given(
        st.text(alphabet="AB\u00e9\U0001f600", min_size=1, max_size=30),
        st.integers(0, 2),
        st.data(),
    )
    def test_damaged_file_raises_only_format_errors(self, corpus, k, data):
        blob = serialize_model(train(corpus, k, 0.5))
        if data.draw(st.booleans()):
            damaged = blob[: data.draw(st.integers(0, len(blob) - 1))]
        else:
            at = data.draw(st.integers(0, len(blob) - 1))
            damaged = blob[:at] + bytes([data.draw(st.integers(0, 255))]) + blob[at + 1 :]
        try:
            m = parse_model(damaged)
        except ModelFormatError:
            return
        predict(m, []).validate()


def oracle_serialize(model):
    """The writer as it was before it packed whole runs in one call: one pack
    per glyph and one per row entry."""
    k = model.order
    out = bytearray()
    out += b"RWC2"
    out += struct.pack("<Id", k, model.smoothing)
    out += struct.pack("<I", len(model.alphabet.glyphs))
    for g in model.alphabet.glyphs:
        out += struct.pack("<I", ord(g))
    table = model.counts
    out += struct.pack("<Q", len(table))
    for ctx in sorted(table):
        out += struct.pack(f"<{k}I", *ctx)
        row = table[ctx]
        out += struct.pack("<I", len(row))
        for sym in sorted(row):
            out += struct.pack("<IQ", sym, row[sym])
    return bytes(out)


@st.composite
def models(draw):
    """Any valid model: orders 0..MAX_ORDER, glyphs anywhere in Unicode
    except the surrogates, counts up to MAX_COUNT."""
    glyphs = draw(
        st.lists(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=8, unique=True)
    )
    n = len(glyphs) + 1
    k = draw(st.integers(0, MAX_ORDER))
    rows = st.dictionaries(st.integers(1, n - 1), st.integers(1, MAX_COUNT), min_size=1, max_size=6)
    ctx = st.tuples(*[st.integers(0, n - 1)] * k)
    counts = draw(st.dictionaries(ctx, rows, min_size=1, max_size=6))
    smoothing = draw(st.floats(0.0, 1e6))
    return ContextModel(Alphabet(tuple(glyphs)), k, smoothing, counts)


class TestModelFileFormat:
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_every_cut_is_reported_as_truncation(self, order):
        blob = serialize_model(train("a\U0001f600b\u00e9a\U0001f600\U00010348ba", order, 0.5))
        for cut in range(len(blob)):
            with pytest.raises(TruncatedModelError):
                parse_model(blob[:cut])

    @settings(max_examples=300)
    @given(models())
    def test_writer_matches_the_per_entry_writer_and_parses_back(self, m):
        blob = serialize_model(m)
        assert blob == oracle_serialize(m)
        assert parse_model(blob) == m


class TestFromCounts:
    def test_lower_orders_are_marginalized(self):
        a = Alphabet(("X", "Y"))
        m = ContextModel.from_counts(a, 1, {(1,): {1: 3, 2: 1}, (2,): {1: 2}})
        assert m.tables[0][()] == {1: 5, 2: 1}

    def test_input_is_copied(self):
        counts = {(): {1: 2}}
        m = ContextModel.from_counts(Alphabet(("X", "Y")), 0, counts)
        counts[()][2] = 5
        counts[(1,)] = {1: 1}
        assert m.counts == {(): {1: 2}}

    def test_context_length_checked(self):
        a = Alphabet(("X",))
        with pytest.raises(ValueError):
            ContextModel.from_counts(a, 1, {(1, 1): {1: 1}})

    def test_symbol_range_checked(self):
        a = Alphabet(("X",))
        with pytest.raises(ValueError):
            ContextModel.from_counts(a, 0, {(): {9: 1}})


class TestValidation:
    """The constructor is the one place a count table is checked, whether it
    came from `train`, `from_counts` or a model file."""

    @pytest.mark.parametrize(
        "order, counts",
        [
            pytest.param(0, {}, id="empty table"),
            pytest.param(1, {(1, 1): {1: 1}}, id="context too long"),
            pytest.param(1, {(3,): {1: 1}}, id="context id past alphabet"),
            pytest.param(1, {(-1,): {1: 1}}, id="negative context id"),
            pytest.param(0, {(): {0: 1}}, id="sentinel as symbol"),
            pytest.param(0, {(): {3: 1}}, id="symbol past alphabet"),
            pytest.param(0, {(): {}}, id="empty row"),
            pytest.param(1, {(1,): {1: 1}, (2,): {}}, id="one empty row among full ones"),
            pytest.param(0, {(): {1: 0}}, id="zero count"),
            pytest.param(0, {(): {1: 2, 2: -1}}, id="negative count"),
            pytest.param(0, {(): {1: 1.5}}, id="fractional count"),
            pytest.param(0, {(): {1: 2.0}}, id="integral float count"),
            pytest.param(0, {(): {1: True}}, id="bool count"),
            pytest.param(0, {(): {1: 2**64}}, id="count past u64"),
        ],
    )
    def test_bad_counts_rejected(self, order, counts):
        a = Alphabet(("X", "Y"))
        with pytest.raises(ValueError):
            ContextModel(a, order, 0.0, counts)
        with pytest.raises(ValueError):
            ContextModel.from_counts(a, order, counts)

    @pytest.mark.parametrize("beta", [-0.5, math.nan, math.inf, 1e308])
    def test_smoothing_must_be_nonnegative_with_finite_mass(self, beta):
        # 1e308 is finite, but its mass over the 3 symbols overflows.
        with pytest.raises(ValueError, match="smoothing"):
            ContextModel.from_counts(Alphabet(("X", "Y", "Z")), 0, {(): {1: 1}}, beta)

    def test_largest_finite_smoothing_mass_accepted(self):
        m = ContextModel.from_counts(Alphabet(("X", "Y")), 0, {(): {1: 1}}, 5e307)
        predict(m, []).validate()

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="order"):
            ContextModel(Alphabet(("X",)), -1, 0.0, {(): {1: 1}})

    def test_order_past_max_rejected(self):
        k = MAX_ORDER + 1
        with pytest.raises(ValueError, match="order"):
            ContextModel(Alphabet(("X",)), k, 0.0, {(1,) * k: {1: 1}})

    def test_max_order_and_largest_count_roundtrip(self):
        counts = {(1,) * MAX_ORDER: {1: 2**64 - 1}}
        m = ContextModel.from_counts(Alphabet(("X",)), MAX_ORDER, counts)
        assert parse_model(serialize_model(m)) == m


def per_order_tables(corpus, order, alphabet):
    """Reference counting: every order counted separately at every position,
    with no table derived from another."""
    ids = alphabet.encode(corpus)
    padded = [BOS] * order + ids
    tables = [{} for _ in range(order + 1)]
    for i, sym in enumerate(ids):
        for j in range(order + 1):
            ctx = tuple(padded[i + order - j : i + order])
            bucket = tables[j].setdefault(ctx, {})
            bucket[sym] = bucket.get(sym, 0) + 1
    return tables


class TestOneCountingPath:
    @given(
        st.text(alphabet="ab \nZ\u00e9", min_size=1, max_size=80),
        st.integers(0, 4),
        st.sampled_from([0.0, 0.1, 1.0]),
    )
    def test_derived_tables_match_per_order_counting(self, corpus, k, beta):
        m = train(corpus, k, beta)
        assert m.tables == per_order_tables(corpus, k, m.alphabet)
        rebuilt = ContextModel.from_counts(m.alphabet, m.order, m.counts, m.smoothing)
        assert rebuilt == m
        assert rebuilt.tables == m.tables
