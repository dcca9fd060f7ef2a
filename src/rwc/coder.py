"""Binary arithmetic coding over integer frequency tables.

A 32-bit low/high range coder. Frequencies are quantized to a fixed total of
2**16 with a floor of 1, so any table entry stays decodable and range updates
never overflow 48 bits. The encoder finishes on the shortest bit string that
zero-pads back into the final interval; the decoder treats bits past the end
of the payload as zeros, which is what makes the trailing-zero stripping and
the guess-past-the-hints behavior of the stream decoder work.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, repeat
from operator import add, lt
from typing import Sequence

PRECISION = 32
FULL = 1 << PRECISION
HALF = FULL >> 1
QUARTER = FULL >> 2
THREE_QUARTERS = HALF + QUARTER
MASK = FULL - 1

TOTAL_BITS = 16
TOTAL = 1 << TOTAL_BITS


@dataclass(frozen=True)
class FrequencyTable:
    """Integer frequencies summing to TOTAL, with cumulative sums precomputed."""

    freqs: tuple[int, ...]
    cum: tuple[int, ...]

    @classmethod
    def from_freqs(cls, freqs: Sequence[int]) -> "FrequencyTable":
        freqs = tuple(freqs)
        if not freqs:
            raise ValueError("empty frequency table")
        if any(map(lt, freqs, repeat(1))):
            raise ValueError("every frequency must be at least 1")
        if sum(freqs) != TOTAL:
            raise ValueError(f"frequencies must sum to {TOTAL}, got {sum(freqs)}")
        return cls(freqs=freqs, cum=tuple(accumulate(freqs, initial=0)))

    def __len__(self) -> int:
        return len(self.freqs)


def quantize(weights: Sequence[float]) -> tuple[int, ...]:
    """Scale weights to integers summing to TOTAL, each at least 1.

    Largest-remainder rounding: floor the ideal shares (bumping zeros to the
    floor of 1), hand surplus units to the largest fractional remainders, and
    reclaim any deficit from the largest entries. Ties go to the earliest
    index, so the result is deterministic. The mass is summed left to right,
    as sum() did before CPython 3.12 made it compensated.
    """
    if not weights:
        raise ValueError("no weights to quantize")
    if any(map(lt, weights, repeat(0))):
        raise ValueError("negative weight")
    mass = float(reduce(add, weights, 0))
    if mass <= 0.0:
        raise ValueError("weights sum to zero")
    if len(weights) > TOTAL:
        raise ValueError("more weights than frequency units")
    raw = [w / mass * TOTAL for w in weights]
    base = [max(1, int(r)) for r in raw]
    leftover = TOTAL - sum(base)
    if leftover > 0:
        remainders = [r - int(r) for r in raw]
        order = sorted(range(len(raw)), key=remainders.__getitem__, reverse=True)
        for i in order[:leftover]:
            base[i] += 1
    while leftover < 0:
        i = base.index(max(base))
        if base[i] <= 1:
            raise AssertionError("cannot reclaim below the floor of 1")
        base[i] -= 1
        leftover += 1
    return tuple(base)


class Encoder:
    """Streaming arithmetic encoder; call encode() per symbol, then finish()."""

    def __init__(self):
        self.low = 0
        self.high = MASK
        self.pending = 0
        self._bits = bytearray()

    def _emit(self, bit: int) -> None:
        self._bits.append(bit)
        self._bits.extend([bit ^ 1] * self.pending)
        self.pending = 0

    def encode(self, table: FrequencyTable, index: int) -> None:
        if not 0 <= index < len(table):
            raise ValueError("symbol not kept")
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

    def finish(self) -> tuple[bytes, int]:
        """Close the stream; returns (payload, payload length in bits).

        The renormalized interval always contains HALF, so a single 1 bit
        (plus deferred underflow bits) pins the zero-padded stream inside it;
        when low is exactly 0 the all-zeros continuation already is. Trailing
        zero bits are stripped because the decoder regenerates them.
        """
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


class Decoder:
    """Streaming arithmetic decoder over a finished payload.

    State (interval, code window, bit position) is tiny and can be snapshotted
    with checkpoint() and rolled back with restore(), which is how wrong
    guesses get rewound: restore, then decode the same bits under a different
    table. Payload bits are read MSB first.
    """

    def __init__(self, payload: bytes):
        self.payload = payload
        self.low = 0
        self.high = MASK
        self.code = int.from_bytes(payload[: PRECISION // 8].ljust(PRECISION // 8, b"\0"), "big")
        self.bits_read = PRECISION

    def checkpoint(self) -> tuple[int, int, int, int]:
        return (self.low, self.high, self.code, self.bits_read)

    def restore(self, state: tuple[int, int, int, int]) -> None:
        self.low, self.high, self.code, self.bits_read = state

    def decode(self, table: FrequencyTable) -> int:
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
