import math
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwc.coder import (
    HALF,
    MASK,
    QUARTER,
    THREE_QUARTERS,
    TOTAL,
    Decoder,
    Encoder,
    FrequencyTable,
    quantize,
)
from rwc.harness import SplitMix64
from rwc.rewind import HintsFile

HALVES = FrequencyTable.from_freqs((32768, 32768))


def finish(enc):
    """(payload, bit count) of a finished encoder; the count is the payload's."""
    payload = enc.finish()
    return payload, HintsFile(payload).bit_count


def encode_all(pairs):
    """pairs: (table, index) per symbol; returns (payload, bit_count)."""
    enc = Encoder()
    for table, index in pairs:
        enc.encode(table, index)
    return finish(enc)


def bits_of(payload, bit_count):
    return [(payload[i >> 3] >> (7 - (i & 7))) & 1 for i in range(bit_count)]


class TestQuantize:
    def test_halves_are_exact(self):
        assert quantize((0.5, 0.5)) == (32768, 32768)

    def test_single_symbol_takes_everything(self):
        assert quantize((1.0,)) == (65536,)

    def test_thirds_hand_out_the_remainder_to_the_first(self):
        assert quantize((1 / 3, 1 / 3, 1 / 3)) == (21846, 21845, 21845)

    def test_tiny_weights_get_the_floor_of_one(self):
        freqs = quantize((1.0, 1e-12))
        assert freqs == (65535, 1)

    def test_unnormalized_weights_accepted(self):
        assert quantize((2.0, 2.0)) == (32768, 32768)

    def test_errors(self):
        with pytest.raises(ValueError):
            quantize(())
        with pytest.raises(ValueError):
            quantize((0.5, -0.5))
        with pytest.raises(ValueError):
            quantize((0.0, 0.0))
        with pytest.raises(ValueError):
            quantize((1.0,) * (TOTAL + 1))

    @pytest.mark.parametrize(
        "weights",
        [(1e308, 1e308), (math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan)],
        ids=["overflow", "inf", "nan first", "nan last"],
    )
    def test_mass_that_is_not_finite_is_refused(self, weights):
        # 1e308 + 1e308 overflows; the shares were then 0 and came out (2, 2).
        with pytest.raises(ValueError, match="weights sum to"):
            quantize(weights)

    @given(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=300))
    def test_sums_to_total_with_floor_one(self, weights):
        freqs = quantize(weights)
        assert sum(freqs) == TOTAL
        assert all(f >= 1 for f in freqs)

    @given(st.lists(st.floats(0.02, 1.0), min_size=1, max_size=20))
    def test_stays_within_one_unit_of_ideal(self, weights):
        mass = sum(weights)
        freqs = quantize(weights)
        for w, f in zip(weights, freqs):
            assert abs(f - w / mass * TOTAL) < 1.0


class TestFrequencyTable:
    def test_cumulative_prefix_sums(self):
        t = FrequencyTable.from_freqs((100, 65336, 100))
        assert t.cum == (0, 100, 65436, 65536)

    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencyTable.from_freqs(())
        with pytest.raises(ValueError):
            FrequencyTable.from_freqs((65536, 0))
        with pytest.raises(ValueError):
            FrequencyTable.from_freqs((1, 1))
        with pytest.raises(ValueError, match="at least 1"):
            FrequencyTable.from_freqs((0.5, 65535.5))

    @pytest.mark.parametrize(
        "cum, message",
        [
            pytest.param((0, 70000), "sum to 65536, got 70000", id="sum past TOTAL"),
            pytest.param((0, 0, 65536), "at least 1", id="zero frequency"),
            pytest.param((0,), "empty", id="no frequency"),
            pytest.param((), "empty", id="no counts"),
            pytest.param((1, 65536), "start at 0", id="offset start"),
        ],
    )
    def test_constructor_refuses_an_inconsistent_table(self, cum, message):
        with pytest.raises(ValueError, match=message):
            FrequencyTable(cum)


class TestEncoder:
    def test_dyadic_branches_become_bits_verbatim(self):
        # branches 0,1,1,0,0,1,1,1 pack to 01100111
        payload, n = encode_all((HALVES, b) for b in (0, 1, 1, 0, 0, 1, 1, 1))
        assert payload == b"\x67"
        assert n == 8

    def test_all_low_branches_vanish(self):
        # the all-zeros expansion is the empty bit string
        payload, n = encode_all((HALVES, 0) for _ in range(8))
        assert payload == b""
        assert n == 0

    def test_certain_symbol_emits_nothing(self):
        payload, n = encode_all([(FrequencyTable.from_freqs((65536,)), 0)])
        assert payload == b""
        assert n == 0

    def test_empty_stream(self):
        assert finish(Encoder()) == (b"", 0)

    def test_out_of_range_index_rejected(self):
        enc = Encoder()
        for index in (-1, len(HALVES.cum) - 1):
            with pytest.raises(ValueError, match="symbol not kept"):
                enc.encode(HALVES, index)
        assert (enc.low, enc.high, enc.pending, bytes(enc._bits)) == (0, MASK, 0, b"")

    def test_interval_width_stays_above_quarter(self):
        enc = Encoder()
        table = FrequencyTable.from_freqs(quantize((0.9, 0.07, 0.03)))
        for i in (0, 1, 2, 0, 0, 1, 2, 2, 0, 1):
            enc.encode(table, i)
            assert enc.high - enc.low + 1 > QUARTER
            assert 0 <= enc.low <= enc.high < 2 * HALF

    @given(st.lists(st.integers(0, 1), max_size=64))
    def test_dyadic_payload_is_the_branch_string(self, branches):
        payload, n = encode_all((HALVES, b) for b in branches)
        stripped = list(branches)
        while stripped and stripped[-1] == 0:
            stripped.pop()
        assert n == len(stripped)
        assert bits_of(payload, n) == stripped
        assert len(payload) == (n + 7) // 8


class TestDecoder:
    def test_dyadic_byte_decodes_to_branches(self):
        dec = Decoder(b"\x67")
        assert [dec.decode(HALVES) for _ in range(8)] == [0, 1, 1, 0, 0, 1, 1, 1]

    def test_empty_payload_reads_zeros(self):
        dec = Decoder(b"")
        assert [dec.decode(HALVES) for _ in range(8)] == [0] * 8

    def test_zero_padding_matches_explicit_zeros(self):
        syms = [1, 0, 1, 1, 0]
        payload, _ = encode_all((HALVES, b) for b in syms)
        dec_short = Decoder(payload)
        dec_padded = Decoder(payload + b"\x00\x00")
        assert [dec_short.decode(HALVES) for _ in range(5)] == syms
        assert [dec_padded.decode(HALVES) for _ in range(5)] == syms

    def test_bits_read_counts_reader_position(self):
        dec = Decoder(b"\x67")
        start = dec.bits_read
        dec.decode(HALVES)
        assert dec.bits_read == start + 1


class TestCheckpointRestore:
    def test_same_table_redecodes_identically(self):
        dec = Decoder(b"\x80")
        cp = dec.checkpoint()
        first = dec.decode(HALVES)
        dec.restore(cp)
        assert dec.decode(HALVES) == first == 1

    def test_restore_is_field_for_field_exact(self):
        dec = Decoder(b"\xa5\x0f")
        cp = dec.checkpoint()
        for _ in range(5):
            dec.decode(HALVES)
        dec.restore(cp)
        assert dec.checkpoint() == cp

    def test_one_bit_reinterpreted_under_another_table(self):
        # the same 1 bit decodes as the second member of whichever table applies
        dec = Decoder(b"\x80")
        cp = dec.checkpoint()
        assert dec.decode(HALVES) == 1
        dec.restore(cp)
        other = FrequencyTable.from_freqs((32768, 32768))
        assert dec.decode(other) == 1

    def test_restore_twice_gives_identical_streams(self):
        payload = b"\x5b\x21"
        dec = Decoder(payload)
        dec.decode(HALVES)
        cp = dec.checkpoint()
        table = FrequencyTable.from_freqs(quantize((0.7, 0.2, 0.1)))
        dec.restore(cp)
        run1 = [dec.decode(table) for _ in range(6)]
        dec.restore(cp)
        run2 = [dec.decode(table) for _ in range(6)]
        assert run1 == run2


def random_tables(rng, count):
    tables = []
    for _ in range(count):
        size = 1 + rng.next() % 12
        weights = [rng.uniform() + 1e-3 for _ in range(size)]
        tables.append(FrequencyTable.from_freqs(quantize(weights)))
    return tables


class TestRoundTrip:
    def test_fuzzed_roundtrip_with_varying_tables(self):
        rng = SplitMix64(20260819)
        for _ in range(500):
            tables = random_tables(rng, 1 + rng.next() % 4)
            length = rng.next() % 200
            plan = [tables[rng.next() % len(tables)] for _ in range(length)]
            syms = [rng.next() % (len(t.cum) - 1) for t in plan]
            enc = Encoder()
            for t, s in zip(plan, syms):
                enc.encode(t, s)
            payload, bit_count = finish(enc)
            assert len(payload) == (bit_count + 7) // 8
            dec = Decoder(payload)
            assert [dec.decode(t) for t in plan] == syms

    def test_rate_stays_within_two_bits_of_the_table_surprises(self):
        rng = SplitMix64(77)
        for _ in range(60):
            tables = random_tables(rng, 3)
            length = rng.next() % 2000
            plan = [tables[rng.next() % len(tables)] for _ in range(length)]
            syms = [rng.next() % (len(t.cum) - 1) for t in plan]
            enc = Encoder()
            ideal = 0.0
            for t, s in zip(plan, syms):
                enc.encode(t, s)
                ideal += math.log2(TOTAL / (t.cum[s + 1] - t.cum[s]))
            _, bit_count = finish(enc)
            assert bit_count <= ideal + 2.0

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
        st.lists(st.integers(0, 5), max_size=120),
    )
    def test_roundtrip_property_single_table(self, weights, raw_syms):
        table = FrequencyTable.from_freqs(quantize(weights))
        syms = [s % (len(table.cum) - 1) for s in raw_syms]
        payload, _ = encode_all((table, s) for s in syms)
        dec = Decoder(payload)
        assert [dec.decode(table) for _ in syms] == syms


class OracleEncoder:
    """The bit-at-a-time encoder the coder had before it packed with int():
    a list of 0/1 ints, a trailing-zero pop loop and a per-bit pack loop."""

    def __init__(self):
        self.low = 0
        self.high = MASK
        self.pending = 0
        self._bits = bytearray()

    def _emit(self, bit):
        self._bits.append(bit)
        self._bits.extend([bit ^ 1] * self.pending)
        self.pending = 0

    def encode(self, table, index):
        rng = self.high - self.low + 1
        self.high = self.low + (rng * table.cum[index + 1]) // TOTAL - 1
        self.low = self.low + (rng * table.cum[index]) // TOTAL
        while True:
            if self.high < HALF:
                self._emit(0)
            elif self.low >= HALF:
                self._emit(1)
                self.low -= HALF
                self.high -= HALF
            elif self.low >= QUARTER and self.high < THREE_QUARTERS:
                self.pending += 1
                self.low -= QUARTER
                self.high -= QUARTER
            else:
                break
            self.low <<= 1
            self.high = (self.high << 1) | 1

    def finish(self):
        if self.low != 0 or self.pending:
            self._emit(1)
        bits = self._bits
        while bits and bits[-1] == 0:
            bits.pop()
        payload = bytearray((len(bits) + 7) // 8)
        for i, bit in enumerate(bits):
            if bit:
                payload[i >> 3] |= 0x80 >> (i & 7)
        return bytes(payload), len(bits)


class OracleDecoder:
    """The decoder that read each bit from the payload bytes with a bounds
    branch and shift/mask arithmetic. It runs every step under a one-member
    table too, so it is also the oracle of `Decoder.decode`'s early return."""

    def __init__(self, payload):
        self.payload = payload
        self.low = 0
        self.high = MASK
        self.code = int.from_bytes(payload[:4].ljust(4, b"\0"), "big")
        self.bits_read = 32

    def checkpoint(self):
        return (self.low, self.high, self.code, self.bits_read)

    def restore(self, state):
        self.low, self.high, self.code, self.bits_read = state

    def decode(self, table):
        rng = self.high - self.low + 1
        value = ((self.code - self.low + 1) * TOTAL - 1) // rng
        index = bisect_right(table.cum, value) - 1
        self.high = self.low + (rng * table.cum[index + 1]) // TOTAL - 1
        self.low = self.low + (rng * table.cum[index]) // TOTAL
        while True:
            if self.high < HALF:
                pass
            elif self.low >= HALF:
                self.low -= HALF
                self.high -= HALF
                self.code -= HALF
            elif self.low >= QUARTER and self.high < THREE_QUARTERS:
                self.low -= QUARTER
                self.high -= QUARTER
                self.code -= QUARTER
            else:
                break
            self.low <<= 1
            self.high = (self.high << 1) | 1
            i = self.bits_read
            self.bits_read = i + 1
            bit = 0
            if i >> 3 < len(self.payload):
                bit = (self.payload[i >> 3] >> (7 - (i & 7))) & 1
            self.code = (self.code << 1) | bit
        return index


def decode_both(payload, plan, rng):
    """Decode `payload` with the coder and its oracle, past the end of the
    plan, rewinding both to a random earlier checkpoint about one step in 8;
    every result and every checkpoint must agree."""
    new, old = Decoder(payload), OracleDecoder(payload)
    assert new.checkpoint() == old.checkpoint()
    saved = [new.checkpoint()]
    for step in range(len(plan) + 40):
        if rng.next() % 8 == 0:
            state = saved[rng.next() % len(saved)]
            new.restore(state)
            old.restore(state)
        table = plan[step % len(plan)]
        assert new.decode(table) == old.decode(table)
        assert new.checkpoint() == old.checkpoint()
        saved.append(new.checkpoint())


def encode_in_step(pairs):
    """Encode `pairs` with the coder and its oracle, checking their states
    after every call; returns the oracle's bit count after each call and
    the payload."""
    new, old = Encoder(), OracleEncoder()
    counts = []
    for table, index in pairs:
        new.encode(table, index)
        old.encode(table, index)
        assert (new.low, new.high, new.pending) == (old.low, old.high, old.pending)
        counts.append(len(old._bits))
    payload, bit_count = finish(new)
    assert (payload, bit_count) == old.finish()
    return counts, payload


def decode_in_step(payload, plan):
    """Decode `payload` under `plan` with the coder and its oracle, checking
    results and checkpoints after every call; returns bits_read before each
    call and after the last."""
    new, old = Decoder(payload), OracleDecoder(payload)
    positions = [new.bits_read]
    for table in plan:
        assert new.decode(table) == old.decode(table)
        assert new.checkpoint() == old.checkpoint()
        positions.append(new.bits_read)
    return positions


SKEWED = FrequencyTable.from_freqs((65535, 1))
MIDDLE = FrequencyTable.from_freqs((32767, 2, 32767))
LOW_BYTE = FrequencyTable.from_freqs((256, 65280))
CERTAIN = FrequencyTable((0, TOTAL))

TABLES = st.lists(
    st.one_of(
        st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=24).map(
            lambda w: FrequencyTable.from_freqs(quantize(w))
        ),
        # symbols of about 8 and 16 bits, so runs of s >= 8 settled bits occur
        st.just(FrequencyTable.from_freqs((65279, 256, 1))),
        # one member: the coder's early return meets the oracle, which has none
        st.just(CERTAIN),
    ),
    min_size=1,
    max_size=4,
)


class TestAgainstTheBitwiseCoder:
    @settings(max_examples=300)
    @given(
        TABLES,
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 23)), max_size=150),
        st.sampled_from(["real", "garbage", "truncated", "empty"]),
        st.binary(max_size=48),
        st.integers(0, 2**64 - 1),
    )
    def test_same_states_payloads_and_decodes(self, tables, raw, kind, garbage, seed):
        plan = [tables[t % len(tables)] for t, _ in raw]
        syms = [s % (len(table.cum) - 1) for table, (_, s) in zip(plan, raw)]
        _, payload = encode_in_step(zip(plan, syms))
        rng = SplitMix64(seed)
        payload = {
            "real": payload,
            "garbage": garbage,
            "truncated": payload[: rng.next() % (len(payload) + 1)],
            "empty": b"",
        }[kind]
        decode_both(payload, plan or tables, rng)

    def test_long_stream_over_a_full_byte_table(self):
        # 8 bits a symbol, so finish() parses a bit string of more than 80k
        # digits, far past CPython's 4,300-digit limit for decimal int()
        table = FrequencyTable.from_freqs((256,) * 256)
        rng = SplitMix64(8)
        syms = [rng.next() % 256 for _ in range(12_000)]
        _, payload = encode_in_step((table, s) for s in syms)
        assert HintsFile(payload).bit_count > 80_000
        dec = Decoder(payload)
        assert [dec.decode(table) for _ in syms] == syms
        decode_both(payload, [table] * 2_000, rng)

    def test_longest_settled_run(self):
        # A frequency-1 symbol leaves a width of ceil(rng / TOTAL) >= 2**14 + 1,
        # so at most 17 bits settle at once. HALVES' upper half first narrows
        # the range to 2**31 - 2**15 with low at 0x7FFF8000, which reaches 17.
        pairs = [(SKEWED, 0), (HALVES, 1), (SKEWED, 1)]
        counts, _ = encode_in_step(pairs)
        assert counts[2] - counts[1] == 17
        _, payload = encode_in_step(pairs + [(SKEWED, 1)] * 5)
        positions = decode_in_step(payload, [t for t, _ in pairs] + [SKEWED] * 5)
        assert positions[3] - positions[2] == 17

    def test_underflow_bits_flushed_by_a_settled_run(self):
        # the middle symbol straddles HALF with a width of 2**17: 15 E3 steps
        enc = OracleEncoder()
        enc.encode(MIDDLE, 1)
        assert enc.pending == 15
        counts, payload = encode_in_step([(MIDDLE, 1), (SKEWED, 1), (SKEWED, 0)])
        assert counts[0] == 0
        # the first settled bit, the 15 pending opposite bits, 15 more settled
        assert counts[1] == 31
        assert payload[:4] == bytes([0b10000000, 0b00000000, 0b11111111, 0b11111110])
        decode_in_step(payload, [MIDDLE, SKEWED, SKEWED])

    @pytest.mark.parametrize("kind", ["real", "truncated", "empty"])
    def test_settled_read_runs_past_the_payload(self, kind):
        # a 49-bit payload; its reads of 16 and 8 bits start at 33, 49, 65...
        plan = [HALVES, SKEWED, SKEWED, SKEWED, LOW_BYTE, LOW_BYTE]
        _, payload = encode_in_step(zip(plan, (1, 1, 1, 1, 0, 0)))
        assert len(payload) == 7
        payload = {"real": payload, "truncated": payload[:5], "empty": b""}[kind]
        positions = decode_in_step(payload, plan)
        end = 8 * len(payload)
        reads = [(a, b) for a, b in zip(positions, positions[1:]) if b - a >= 2]
        if kind == "empty":
            assert reads  # all of them past the end
        else:
            assert any(a < end < b for a, b in reads)


@settings(max_examples=300)
@given(
    TABLES,
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 23)), max_size=150),
    st.binary(max_size=24),
)
def test_a_one_member_table_never_moves_the_coder(tables, raw, garbage):
    """Coding under (0, TOTAL) maps the interval onto itself, so neither side
    changes state: the premise of skipping the call when a plan has one member."""
    pool = [*tables, CERTAIN]
    plan = [pool[t % len(pool)] for t, _ in raw]
    syms = [s % (len(table.cum) - 1) for table, (_, s) in zip(plan, raw)]
    enc = Encoder()
    for table, sym in zip(plan, syms):
        before = (enc.low, enc.high, enc.pending, bytes(enc._bits))
        enc.encode(table, sym)
        if len(table.cum) == 2:
            assert (enc.low, enc.high, enc.pending, bytes(enc._bits)) == before
    payload = enc.finish()
    for stream in (payload, garbage):
        dec = Decoder(stream)
        decoded = []
        for table in plan:
            before = dec.checkpoint()
            decoded.append(dec.decode(table))
            if len(table.cum) == 2:
                assert decoded[-1] == 0
                assert dec.checkpoint() == before
        if stream is payload:
            assert decoded == syms
