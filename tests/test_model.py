import copy
import math
import re
import zlib

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rwc.harness import ChainSource, model_from_chain
from rwc.model import (
    BOS,
    Alphabet,
    MAX_COUNT,
    MAX_ORDER,
    ContextModel,
    Distribution,
    ModelFormatError,
    UnknownCharacterError,
    build_alphabet,
    context_key,
    entropy,
    parse_model,
    predict,
    serialize_model,
    surprise,
    train,
)

from oracles import (
    compress_bound,
    dense,
    file_counts,
    model_body,
    model_file,
    oracle_glyph_fault,
    oracle_tables,
    oracle_train,
    validate,
)


class TestAlphabet:
    def test_build_alphabet_sorts_by_code_point(self):
        assert build_alphabet("ETATEETTT").glyphs == ("A", "E", "T")

    def test_ids_are_dense_from_one(self):
        a = Alphabet(("E", "T", "A"))
        assert [a.id_of(g) for g in "ETA"] == [1, 2, 3]
        assert [a.glyph_of(i) for i in (1, 2, 3)] == ["E", "T", "A"]
        assert a.size == 4

    def test_sentinel_has_no_glyph(self):
        with pytest.raises(ValueError, match="sentinel"):
            Alphabet(("E",)).glyph_of(BOS)

    @pytest.mark.parametrize("sym", [-1, 4])
    def test_glyph_of_refuses_an_id_outside_the_alphabet(self, sym):
        # -1 would read "B" from the end, and 4 is one past the last glyph
        with pytest.raises(ValueError, match="outside alphabet"):
            Alphabet(("A", "B", "C")).glyph_of(sym)

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

    @settings(max_examples=300)
    @given(
        st.lists(
            st.one_of(
                st.characters(),
                st.text(max_size=2),
                st.sampled_from(["\ud800", "\udfff", 7, None, b"a"]),
            ),
            max_size=6,
        )
    )
    @example(["a", "", "\ud800"])
    @example(["a", "\udc80", "bc"])
    @example(["a", "bc", 7])
    @example(["ab", "\ud800"])
    @example(["ab", ""])
    def test_refuses_as_the_per_glyph_oracle(self, glyphs):
        # Glyphs are checked in bulk; a fault must still name the first bad glyph.
        expected = oracle_glyph_fault(glyphs)
        if expected is None:
            assert Alphabet(glyphs).glyphs == tuple(glyphs)
        else:
            with pytest.raises(ValueError) as got:
                Alphabet(glyphs)
            assert str(got.value) == expected

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

    def test_a_text_history_is_refused(self):
        # "th" as text would match no context and fall back to the order-0 row
        m = train("the then there that", 2, 0.0)
        with pytest.raises(TypeError, match="alphabet.encode"):
            predict(m, "th")
        row = predict(m, m.alphabet.encode("th")).row
        assert row == {m.alphabet.id_of("e"): 0.75, m.alphabet.id_of("a"): 0.25}

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

    @given(
        st.text(alphabet="ABé中\U0001f600\U00010348", min_size=1, max_size=80),
        st.integers(0, MAX_ORDER),
        st.sampled_from([0.0, 0.1, 1.0]),
        st.booleans(),
    )
    @example("\U0001f600", MAX_ORDER, 0.1, False)  # shorter than k: one padded context
    @example("AB", 3, 0.1, True)
    @example("ABABBA", 0, 0.0, True)
    def test_rolling_context_counts_as_slicing_windows(self, corpus, k, beta, explicit):
        # `train` tallies every window at once; this copy slices each window
        # out of the padded corpus and counts it on its own.
        def slicing_train(corpus, order, smoothing, alphabet):
            ids = alphabet.encode(corpus)
            padded = [BOS] * order + ids
            counts = {}
            for i, sym in enumerate(ids):
                row = counts.setdefault(tuple(padded[i : i + order]), {})
                row[sym] = row.get(sym, 0) + 1
            return ContextModel(alphabet, order, smoothing, counts)

        # `==` on dicts ignores their order, so each table is laid out as
        # (context, [(symbol, count), ...]) in its own iteration order.
        def layout(model):
            return [[(ctx, list(row.items())) for ctx, row in t.items()] for t in model.tables]

        # an explicit alphabet reserves glyphs the corpus lacks, in its own order
        alphabet = Alphabet(("\U0010fffd", *sorted(set(corpus), reverse=True))) if explicit else None
        m = train(corpus, k, beta, alphabet=alphabet)
        for oracle in (
            slicing_train(corpus, k, beta, m.alphabet),
            oracle_train(corpus, k, beta, alphabet),
        ):
            assert m == oracle
            assert serialize_model(m) == serialize_model(oracle)
            assert layout(m) == layout(oracle)

    @given(st.text(alphabet="ABé\U0001f600", min_size=1, max_size=40), st.integers(0, MAX_ORDER))
    def test_unknown_character_is_named_where_the_loop_meets_it(self, corpus, k):
        assume(set(corpus) - {"A", "B"})
        alphabet = Alphabet(("B", "A"))
        with pytest.raises(UnknownCharacterError) as got:
            train(corpus, k, 0.1, alphabet=alphabet)
        with pytest.raises(UnknownCharacterError) as want:
            oracle_train(corpus, k, 0.1, alphabet=alphabet)
        assert (got.value.char, got.value.position) == (want.value.char, want.value.position)


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

    def test_a_context_id_outside_the_alphabet_is_refused(self, chain_model):
        # it would match no context and fall back to the order-0 row
        e = chain_model.alphabet.id_of("E")
        for sym in (999, -1, chain_model.alphabet.size):
            with pytest.raises(ValueError, match=f"symbol id {sym} outside alphabet"):
                predict(chain_model, [e, sym])
        with pytest.raises(TypeError):
            predict(chain_model, [None])

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
        validate(d)


class TestSurpriseEntropy:
    def test_dyadic_surprise_is_exact(self):
        assert surprise(2.0**-8) == 8.0
        assert surprise(1.0) == 0.0

    def test_zero_probability_rejected(self):
        with pytest.raises(ValueError, match="zero-probability"):
            surprise(0.0)
        with pytest.raises(ValueError):
            surprise(-0.1)

    @pytest.mark.parametrize("p", [math.nan, math.inf, 1.0 + 2**-52, 2.0])
    def test_a_value_that_is_not_a_probability_is_named(self, p):
        with pytest.raises(ValueError, match=re.escape(f"probability {p!r} is not in (0, 1]")):
            surprise(p)

    def test_entropy_examples(self):
        assert entropy(dense((0.0, 0.49, 0.49, 0.02))) == pytest.approx(1.1214, abs=5e-4)
        assert entropy(dense((0.0, 0.5, 0.5))) == 1.0
        assert entropy(dense((0.0, 1.0))) == 0.0

    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8))
    def test_entropy_bounded_by_log_support(self, weights):
        s = sum(weights)
        d = dense((0.0,) + tuple(w / s for w in weights))
        h = entropy(d)
        assert h <= math.log2(len(weights)) + 1e-9

    def test_entropy_equality_iff_uniform(self):
        uniform = dense((0.0,) + (0.125,) * 8)
        assert entropy(uniform) == pytest.approx(3.0, abs=1e-9)
        skewed = dense((0.0, 0.2, 0.8))
        assert entropy(skewed) < 1.0 - 1e-9


class TestDistribution:
    def test_validate_rejects_negative_and_unnormalized(self):
        with pytest.raises(ValueError):
            validate(Distribution({1: -0.1, 2: 1.1}, 0.0, 3))
        with pytest.raises(ValueError):
            validate(dense((0.0, 0.3, 0.3)))

    def test_probs_lays_the_row_over_the_floor(self):
        d = Distribution({2: 0.5}, 0.25, 4)
        assert d.probs == (0.0, 0.25, 0.5, 0.25)
        assert [i for i, p in enumerate(d.probs) if p > 0.0] == [1, 2, 3]
        assert Distribution({}, 0.0, 0).probs == ()


class TestModelFile:
    def test_roundtrip_identity(self):
        m = train("ETATEETTT ESHTA", 2, 0.1)
        assert parse_model(serialize_model(m)) == m
        # All 256 one-byte code points, which the reader decodes as Latin-1.
        latin1 = train(bytes(range(256)).decode("latin-1"), 1, 0.1)
        assert parse_model(serialize_model(latin1)) == latin1

    def test_serialize_is_deterministic(self):
        m = train("THE CAT SAT", 1, 0.0)
        assert serialize_model(m) == serialize_model(m)

    def test_roundtrip_preserves_predictions_bit_for_bit(self):
        m = train("ABRACADABRA", 2, 0.25)
        m2 = parse_model(serialize_model(m))
        for hist in ([], [1], [1, 2], [3, 1], [2, 2, 1]):
            assert predict(m, hist).probs == predict(m2, hist).probs

    def test_bad_magic(self):
        with pytest.raises(ModelFormatError, match=r"^not a model file \(bad magic\)$"):
            parse_model(b"XXXX" + b"\x00" * 40)

    def test_unsupported_version(self):
        # Every version byte but RWC6's is refused, before the header is read.
        data = bytearray(serialize_model(train("AB", 0, 0.0)))
        for version in set(range(256)) - {ord("6")}:
            data[3] = version
            with pytest.raises(ModelFormatError) as refused:
                parse_model(bytes(data))
            assert str(refused.value) == f"unsupported model version {bytes([version])!r}"

    def test_truncation(self):
        data = serialize_model(train("ABAB", 1, 0.0))
        with pytest.raises(ModelFormatError, match="^model file truncated$"):
            parse_model(data[: len(data) - 3])
        with pytest.raises(ModelFormatError, match="^model file shorter than its magic$"):
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
        # magic 4 + order 4 + smoothing 8 + glyph count 4 + node count 8,
        # then six columns of one-byte items, each after its width byte: 2
        # glyphs, 4 row lengths (the 3 contexts and the final (B, A), which
        # has no row), 3 symbols, counts and flags, and no roots, all
        # deflated after the header
        m = train("ABA", 2, 0.0)
        assert len(m.counts) == 3
        columns = zlib.decompress(serialize_model(m)[28:])
        assert 28 + len(columns) == 28 + (1 + 2) + (1 + 4) + 3 * (1 + 3) + 1 == 49

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
        validate(predict(m, []))
        # Every width is the narrowest and no entry repeats, so a blob that
        # parses is as long as the model's own file.
        assert len(serialize_model(m)) == len(damaged)


def unreachable(m) -> set:
    """The contexts of `m` that no walk from (BOS,) * k over its rows meets."""
    start = (BOS,) * m.order
    reached, todo = {start}, [start]
    while todo:
        ctx = todo.pop()
        for sym in m.counts.get(ctx, {}):
            succ = (ctx + (sym,))[1:]
            if succ not in reached:
                reached.add(succ)
                todo.append(succ)
    return set(m.counts) - reached


@st.composite
def walked_models(draw):
    """A hand-built model whose contexts are those a walk from the start
    meets, as a trained model's are, and contexts the walk may never reach;
    at times the start's own row is left out, so that no context is reached."""
    n = draw(st.integers(2, 6))
    k = draw(st.integers(1, 4))
    path = draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=30))
    counts = {}
    ctx = (BOS,) * k
    for sym in path:
        row = counts.setdefault(ctx, {})
        row[sym] = row.get(sym, 0) + 1
        ctx = (ctx + (sym,))[1:]
    rows = st.dictionaries(st.integers(1, n - 1), st.integers(1, MAX_COUNT), min_size=1, max_size=3)
    counts.update(draw(st.dictionaries(st.tuples(*[st.integers(0, n - 1)] * k), rows, max_size=4)))
    if draw(st.booleans()) and len(counts) > 1:
        counts.pop((BOS,) * k, None)
    return ContextModel(Alphabet(tuple("ABCDE"[: n - 1])), k, 0.5, counts)


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
            message = "model file shorter than its magic" if cut < 4 else "model file truncated"
            with pytest.raises(ModelFormatError, match=f"^{message}$"):
                parse_model(blob[:cut])

    @settings(max_examples=300)
    @given(models())
    def test_writer_matches_the_per_entry_writer_and_parses_back(self, m):
        blob = serialize_model(m)
        glyphs = [ord(g) for g in m.alphabet.glyphs]
        table = [(ctx, sorted(row.items())) for ctx, row in sorted(m.counts.items())]
        assert blob == model_file(m.order, m.smoothing, glyphs, table)
        assert parse_model(blob) == m
        assert serialize_model(parse_model(blob)) == blob

    @settings(max_examples=300)
    @given(walked_models())
    @example(ContextModel(Alphabet(("A", "B")), 2, 0.0, {(1, 2): {1: 1}, (0, 1): {2: 3}}))
    @example(ContextModel(Alphabet(("A", "B")), 1, 0.0, {(0,): {1: 1}, (1,): {1: 2}, (2,): {1: 1}}))
    def test_roots_are_the_contexts_the_walk_cannot_reach(self, m):
        # The first example has no start context, so both its contexts are
        # roots; the second has a start, and (2,) is the one context it
        # never reaches.
        blob = serialize_model(m)
        glyphs = [ord(g) for g in m.alphabet.glyphs]
        table = [(ctx, sorted(row.items())) for ctx, row in m.counts.items()]
        assert blob == model_file(m.order, m.smoothing, glyphs, table)
        assert file_counts(blob)[1] == len(unreachable(m))
        assert parse_model(blob) == m
        assert serialize_model(parse_model(blob)) == blob

    @given(st.text(alphabet="ABé\U0001f600", min_size=1, max_size=60), st.integers(0, MAX_ORDER))
    def test_a_trained_model_has_no_roots(self, corpus, k):
        # Training walks from the start, so the walk meets every context.
        m = train(corpus, k, 0.1)
        nodes, roots = file_counts(serialize_model(m))
        assert roots == 0
        # Every context and, at most, the corpus's last one, which has no row.
        assert nodes - len(m.counts) in (0, 1)

    def test_a_chain_with_a_zero_probability_glyph_has_roots(self):
        # Building from a chain is the only way outside the tests to a model
        # with roots: "A" has probability 0, so no entry leads to (3,), the
        # context after "A", nor to (4,), the one after "S", which only "A"
        # leads to. Counts, not the byte length, which depends on zlib's build.
        chain = ChainSource("m", {"m": (("E", 0.5, "m"), ("T", 0.5, "m"), ("A", 0.0, "a")),
                                  "a": (("S", 1.0, "m"),)})
        m = model_from_chain(chain)
        blob = serialize_model(m)
        assert file_counts(blob) == (5, 2)
        assert parse_model(blob) == m
        assert serialize_model(parse_model(blob)) == blob

    @given(st.text(alphabet="ABé\U0001f600", min_size=1, max_size=30), st.integers(0, 3),
           st.integers(0, MAX_ORDER))
    def test_a_file_read_at_another_order_is_refused_or_writes_back_the_same(self, corpus, k, other):
        # The header's order is stored nowhere else, so the reader checks that
        # every entry's successor is a node; a misread order that passes gives
        # a model whose own file is the same file.
        blob = serialize_model(train(corpus, k, 0.5))
        misread = blob[:4] + other.to_bytes(4, "little") + blob[8:]
        try:
            m = parse_model(misread)
        except ModelFormatError:
            return
        assert serialize_model(m) == misread

    def test_a_truncated_one_byte_column_is_refused(self):
        # One-byte columns are sliced out whole; a body cut anywhere, inside
        # a column or between two, is still a truncation.
        table = [((0,), [(1, 1)]), ((1,), [(1, 1), (2, 1)])]
        body = model_body([65, 66], 1, table)
        header = model_file(1, 0.0, [65, 66], table)[:28]
        assert body == model_body([65, 66], 1, table, widths=(1,) * 6)  # every column one byte wide
        for cut in range(len(body)):
            with pytest.raises(ModelFormatError, match="^model file truncated$"):
                parse_model(header + zlib.compress(body[:cut], 1))

    def test_contexts_are_column_major_and_columns_are_byte_planes(self):
        # No row is (0, 0)'s, so the walk from it meets nothing: both contexts
        # are roots, sorted, and (1, 2)'s entry leads to (2, 1), which has no row.
        m = ContextModel(Alphabet(("A", "B")), 2, 0.0, {(1, 2): {1: 1}, (0, 1): {2: 300}})
        assert zlib.decompress(serialize_model(m)[28:]) == bytes([
            1, 0x41, 0x42,  # glyphs
            1, 0, 1, 1, 0,  # row lengths of (0, 0), (0, 1), (1, 2) and (2, 1)
            1, 2, 1,  # symbols
            2, 0x2C, 0x01, 0x01, 0x00,  # counts 300 and 1: low bytes, then high bytes
            1, 0, 1,  # flags: (1, 2) is a root already, (2, 1) is new
            1, 0, 1, 1, 2,  # roots (0, 1) and (1, 2): first ids, then second ids
        ])

    @settings(max_examples=300)
    @given(models())
    def test_columns_cost_at_most_their_width_bytes_over_rwc2(self, m):
        # The retired RWC2 file held a 28-byte header with the glyphs' u32 code
        # points, then each context as k u32 ids, a u32 row length and the
        # row's (u32 symbol, u64 count) pairs. The inflated columns' only
        # overhead over it is one width byte per column: over these alphabets
        # of at most 8 glyphs, an entry's symbol, count and flag, with the
        # length of a node without a row that it may lead to, take at most 11
        # bytes, and RWC2's pair 12.
        blob = serialize_model(m)
        rwc2 = 28 + 4 * len(m.alphabet.glyphs)
        rwc2 += sum(4 * m.order + 4 + 12 * len(row) for row in m.counts.values())
        assert parse_model(blob) == m
        assert 28 + len(zlib.decompress(blob[28:])) <= rwc2 + 6

    @settings(max_examples=300)
    @given(models())
    def test_file_is_at_most_the_header_and_a_deflated_bound(self, m):
        # Incompressible columns cost at most zlib's own bound over the 28-byte header.
        blob = serialize_model(m)
        assert len(blob) <= 28 + compress_bound(len(zlib.decompress(blob[28:])))


class TestFromCounts:
    """A model built from an explicit order-k count table."""

    def test_lower_orders_are_marginalized(self):
        a = Alphabet(("X", "Y"))
        m = ContextModel(a, 1, 0.0, {(1,): {1: 3, 2: 1}, (2,): {1: 2}})
        assert m.tables[0][()] == {1: 5, 2: 1}

    def test_keeps_the_table_it_is_given(self):
        counts = {(): {1: 2}}
        m = ContextModel(Alphabet(("X", "Y")), 0, 0.0, counts)
        assert m.counts is counts
        assert m.tables[0] is counts


class TestValidation:
    """The constructor is the one place a count table is checked, whether it
    came from `train`, a chain source or a model file."""

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
            pytest.param(1, {(1.5,): {1: 1}}, id="fractional context id"),
            pytest.param(1, {(1.0,): {1: 1}}, id="integral float context id"),
            pytest.param(1, {("a",): {1: 1}}, id="str context id"),
            pytest.param(1, {(True,): {1: 1}}, id="bool context id"),
            pytest.param(0, {(): {1.0: 1}}, id="float symbol"),
            pytest.param(0, {(): {"a": 1}}, id="str symbol"),
            pytest.param(0, {(): {None: 1}}, id="None symbol"),
            pytest.param(0, {(): {True: 1}}, id="bool symbol"),
        ],
    )
    def test_bad_counts_rejected(self, order, counts):
        a = Alphabet(("X", "Y"))
        with pytest.raises(ValueError):
            ContextModel(a, order, 0.0, counts)

    @pytest.mark.parametrize(
        "order, counts, bad",
        [
            pytest.param(0, {"": {1: 1}}, "", id="empty str at order 0"),
            pytest.param(0, {(): {1: 1}, b"": {2: 1}}, b"", id="empty bytes beside ()"),
            pytest.param(1, {b"\x01": {1: 1}, (0,): {2: 1}}, b"\x01", id="bytes beside a tuple"),
            pytest.param(2, {(0, 1): {1: 1}, b"\x00\x02": {2: 1}}, b"\x00\x02", id="bytes of k ids"),
        ],
    )
    def test_a_context_that_is_not_a_tuple_is_refused(self, order, counts, bad):
        # Each of these has the length of a context and, for bytes, ids of the
        # alphabet; `predict` looks rows up by tuple, so it would never find it.
        with pytest.raises(ValueError) as got:
            ContextModel(Alphabet(("X", "Y")), order, 0.0, counts)
        assert str(got.value) == f"context {bad!r} is not {order} ids of the alphabet"

    @pytest.mark.parametrize("beta", [-0.5, math.nan, math.inf, 1e308])
    def test_smoothing_must_be_nonnegative_with_finite_mass(self, beta):
        # 1e308 is finite, but its mass over the 3 symbols overflows.
        with pytest.raises(ValueError, match="smoothing"):
            ContextModel(Alphabet(("X", "Y", "Z")), 0, beta, {(): {1: 1}})

    def test_largest_finite_smoothing_mass_accepted(self):
        m = ContextModel(Alphabet(("X", "Y")), 0, 5e307, {(): {1: 1}})
        validate(predict(m, []))

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="order"):
            ContextModel(Alphabet(("X",)), -1, 0.0, {(): {1: 1}})

    def test_order_past_max_rejected(self):
        k = MAX_ORDER + 1
        with pytest.raises(ValueError, match="order"):
            ContextModel(Alphabet(("X",)), k, 0.0, {(1,) * k: {1: 1}})

    def test_max_order_and_largest_count_roundtrip(self):
        counts = {(1,) * MAX_ORDER: {1: 2**64 - 1}}
        m = ContextModel(Alphabet(("X",)), MAX_ORDER, 0.0, counts)
        assert parse_model(serialize_model(m)) == m


def in_order(tables):
    """Every table as its (context, row items) list, so that equal tables
    must also list their contexts and each row's symbols in the same order."""
    return [[(ctx, list(row.items())) for ctx, row in t.items()] for t in tables]


def distinct_rows(tables) -> bool:
    rows = [row for t in tables for row in t.values()]
    return len(set(map(id, rows))) == len(rows)


# One fault per table, or None for a valid one. An id fault lands in a
# context or in a row, a count fault in a row.
FAULTS = (
    None, "length", "negative id", "id past alphabet", "fractional id", "float id", "str id",
    "bool id", "sentinel symbol", "empty row", "zero count", "negative count", "float count",
    "bool count", "count past u64", "not a tuple",
)
BAD_IDS = {
    "negative id": -1, "fractional id": 1.5, "float id": 1.0, "str id": "a", "bool id": True,
}
BAD_COUNTS = {
    "zero count": 0, "negative count": -1, "float count": 2.0, "bool count": True,
    "count past u64": MAX_COUNT + 1,
}


@st.composite
def count_tables(draw):
    """(alphabet size, order, order-k count table), the table valid or with
    one drawn fault injected into one drawn entry."""
    n = draw(st.integers(2, 6))
    k = draw(st.integers(0, 4))
    rows = st.dictionaries(st.integers(1, n - 1), st.integers(1, MAX_COUNT), min_size=1, max_size=4)
    ctxs = st.tuples(*[st.integers(0, n - 1)] * k)
    entries = draw(st.lists(st.tuples(ctxs, rows), min_size=1, max_size=8))
    fault = draw(st.sampled_from(FAULTS))
    at = draw(st.integers(0, len(entries) - 1))
    ctx, row = entries[at]
    if fault == "length":
        ctx = ctx[:-1] if k and draw(st.booleans()) else ctx + (1,)
    elif fault == "not a tuple":  # bytes iterate as their ids; "" has length 0
        ctx = bytes(ctx) if draw(st.booleans()) else "".join(map(chr, ctx))
    elif fault in (bad_ids := {**BAD_IDS, "id past alphabet": n, "sentinel symbol": 0}):
        if k and fault != "sentinel symbol" and draw(st.booleans()):
            i = draw(st.integers(0, k - 1))
            ctx = ctx[:i] + (bad_ids[fault],) + ctx[i + 1 :]
        else:
            old = draw(st.sampled_from(sorted(row)))
            row = {bad_ids[fault] if sym == old else sym: c for sym, c in row.items()}
    elif fault == "empty row":
        row = {}
    elif fault in BAD_COUNTS:
        old = draw(st.sampled_from(sorted(row)))
        row = {sym: BAD_COUNTS[fault] if sym == old else c for sym, c in row.items()}
    entries[at] = (ctx, row)
    return n, k, dict(entries)


class TestBulkValidation:
    """The constructor checks contexts in bulk, and `tables` copies each row
    it derives first; `oracle_tables` checks every entry on its own and
    builds every derived row up from an empty dict."""

    @settings(max_examples=500)
    @given(count_tables())
    def test_accepts_and_refuses_as_the_per_entry_oracle(self, case):
        n, k, counts = case
        before = repr(counts)
        alphabet = Alphabet(tuple("ABCDE"[: n - 1]))
        try:
            expected = oracle_tables(n, k, copy.deepcopy(counts))
        except Exception as exc:
            with pytest.raises(type(exc)) as got:
                ContextModel(alphabet, k, 0.5, counts)
            assert type(got.value) is type(exc)
            assert str(got.value) == str(exc)
        else:
            m = ContextModel(alphabet, k, 0.5, counts)
            assert m.tables[k] is counts
            assert in_order(m.tables) == in_order(expected)
            assert distinct_rows(m.tables)
        assert repr(counts) == before

    def test_construction_leaves_counts_alone_and_copies_every_derived_row(self):
        # (1, 2) and (2, 2) both back off to (2,), and (2, 1) alone backs off
        # to (1,): the order-1 row (2,) is a merge and (1,) a copy.
        counts = {(1, 2): {1: 2, 2: 1}, (2, 2): {2: 3}, (2, 1): {2: 1}}
        before = copy.deepcopy(counts)
        m = ContextModel(Alphabet(("X", "Y")), 2, 0.0, counts)
        assert counts == before
        assert m.tables[1] == {(2,): {1: 2, 2: 4}, (1,): {2: 1}}
        assert m.tables[0] == {(): {1: 2, 2: 5}}
        assert distinct_rows(m.tables)
        m.tables[1][(1,)][2] += 1  # a copy: the order-2 row it came from stays as it was
        assert counts == before

    @settings(max_examples=200)
    @given(models())
    def test_a_parsed_model_derives_the_oracle_tables(self, m):
        parsed = parse_model(serialize_model(m))
        assert parsed == m
        # Loading pays for the derivation; at order 0 there is none to pay.
        assert m.order == 0 or "tables" in vars(parsed)
        assert parsed.tables == m.tables
        assert in_order(parsed.tables) == in_order(
            oracle_tables(m.alphabet.size, m.order, parsed.counts)
        )


class TestTablesOnFirstRead:
    """The lower orders are derived on the first read of `tables`: writing a
    model never reads them, and a prediction that backs off does. Loading
    one does too, as `test_a_parsed_model_derives_the_oracle_tables` checks."""

    def test_train_then_serialize_derives_nothing_and_the_first_predict_does(self):
        m = train("the cat sat on the mat", 3, 0.1)
        blob = serialize_model(m)
        assert "tables" not in vars(m)
        predict(m, m.alphabet.encode("mat"))  # nothing follows "mat": backs off to "at"
        assert in_order(vars(m)["tables"]) == in_order(
            oracle_tables(m.alphabet.size, m.order, m.counts)
        )
        assert serialize_model(m) == blob

    def test_a_prediction_that_hits_derives_nothing(self):
        m = train("the cat sat on the mat", 3, 0.1)
        predict(m, m.alphabet.encode("the"))
        predict(m, tuple(m.alphabet.encode("the")))
        assert "tables" not in vars(m)
        predict(m, m.alphabet.encode("mat"))
        assert in_order(vars(m)["tables"]) == in_order(
            oracle_tables(m.alphabet.size, m.order, m.counts)
        )


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
        rebuilt = ContextModel(m.alphabet, m.order, m.smoothing, m.counts)
        assert rebuilt == m
        assert rebuilt.tables == m.tables
