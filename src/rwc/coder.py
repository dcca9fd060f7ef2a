"""Binary arithmetic coding over integer frequency tables.

A 32-bit low/high range coder. Frequencies are quantized to a fixed total of
2**16 with a floor of 1, so any table entry stays decodable and range updates
never overflow 48 bits. The encoder finishes on the shortest bit string that
zero-pads back into the final interval; the decoder treats bits past the end
of the payload as zeros, which is what makes the trailing-zero stripping and
the guess-past-the-hints behavior of the stream decoder work.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from heapq import heapify, heapreplace
from itertools import accumulate, repeat
from operator import add, lt, sub
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
    """Integer frequencies summing to TOTAL, held as their cumulative counts:
    frequency i is cum[i + 1] - cum[i]."""

    cum: tuple[int, ...]

    def __post_init__(self):
        cum = self.cum
        if len(cum) < 2:
            raise ValueError("empty frequency table")
        if cum[0] != 0:
            raise ValueError("cumulative counts must start at 0")
        if min(map(sub, cum[1:], cum)) < 1:
            raise ValueError("every frequency must be at least 1")
        if cum[-1] != TOTAL:
            raise ValueError(f"frequencies must sum to {TOTAL}, got {cum[-1]}")

    @classmethod
    def from_freqs(cls, freqs: Sequence[int]) -> "FrequencyTable":
        return cls(tuple(accumulate(freqs, initial=0)))


def quantize(weights: Sequence[float]) -> tuple[int, ...]:
    """Scale weights to integers summing to TOTAL, each at least 1.

    Largest-remainder rounding: floor the ideal shares (bumping zeros to the
    floor of 1), hand surplus units to the largest fractional remainders, and
    reclaim any deficit one unit at a time from the largest entry. Ties go to
    the earliest index, so the result is deterministic. The mass is summed
    left to right, as sum() did before CPython 3.12 made it compensated.
    """
    if not weights:
        raise ValueError("no weights to quantize")
    if any(map(lt, weights, repeat(0))):
        raise ValueError("negative weight")
    mass = float(reduce(add, weights, 0))
    if not 0.0 < mass < math.inf:  # NaN fails too
        raise ValueError(f"weights sum to {mass!r}, not to a positive finite number")
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
    elif leftover < 0:
        # While units are owed, sum(base) > TOTAL >= len(base), so the largest
        # entry is at least 2 and none drops below the floor of 1.
        heap = [(-b, i) for i, b in enumerate(base)]  # largest first, earliest on ties
        heapify(heap)
        for _ in range(-leftover):
            b, i = heap[0]
            base[i] = -b - 1
            heapreplace(heap, (b + 1, i))
    return tuple(base)


class Encoder:
    """Streaming arithmetic encoder; call encode() per symbol, then finish()."""

    def __init__(self):
        self.low = 0
        self.high = MASK
        self.pending = 0
        self._bits = bytearray()  # ASCII "0"/"1", so finish() can parse it in one int()

    def encode(self, table: FrequencyTable, index: int) -> None:
        cum = table.cum
        if not 0 <= index < len(cum) - 1:
            raise ValueError("symbol not kept")
        low, pending, bits = self.low, self.pending, self._bits
        rng = self.high - low + 1
        high = low + (rng * cum[index + 1]) // TOTAL - 1
        low += (rng * cum[index]) // TOTAL
        if low ^ high < QUARTER:
            # the top s = PRECISION - t >= 2 bits of low and high agree: shift
            # them out in one step, any pending underflow bits after the first
            t = (low ^ high).bit_length()
            s = PRECISION - t
            run = bin(low >> t | 1 << s)[3:]
            if pending:
                run = run[0] + "10"[low >> (PRECISION - 1)] * pending + run[1:]
                pending = 0
            bits += run.encode()
            low = low << s & MASK
            high = (high << s | MASK >> t) & MASK
        while True:
            if high < HALF:
                bits += b"0" + b"1" * pending
                pending = 0
            elif low >= HALF:
                bits += b"1" + b"0" * pending
                pending = 0
                low -= HALF
                high -= HALF
            elif low >= QUARTER and high < THREE_QUARTERS:
                pending += 1
                low -= QUARTER
                high -= QUARTER
            else:
                break
            low <<= 1
            high = (high << 1) | 1
        self.low, self.high, self.pending = low, high, pending

    def finish(self) -> bytes:
        """Close the stream and return the payload.

        The renormalized interval always contains HALF, so a single 1 bit
        (plus deferred underflow bits) pins the zero-padded stream inside it;
        when low is exactly 0 the all-zeros continuation already is. Trailing
        zero bits are stripped because the decoder regenerates them, so the
        stream ends on the payload's last 1 bit and only byte padding follows.
        """
        if self.low != 0 or self.pending:
            self._bits += b"1" + b"0" * self.pending
            self.pending = 0
        bits = self._bits.rstrip(b"0")
        n = len(bits)
        # base-2 int() is exempt from CPython's limit on decimal digits
        return (int(bits or b"0", 2) << (-n % 8)).to_bytes((n + 7) // 8, "big")


class Decoder:
    """Streaming arithmetic decoder over a finished payload.

    State (interval, code window, bit position) is tiny and can be snapshotted
    with checkpoint() and rolled back with restore(), which is how wrong
    guesses get rewound: restore, then decode the same bits under a different
    table. Payload bits are read MSB first, from a "0"/"1" string of them, so
    a read past the end is an empty slice and counts as a 0 bit.
    """

    def __init__(self, payload: bytes):
        # a 0x01 byte in front keeps the payload's leading zeros; [3:] drops "0b1"
        self._stream = bin(int.from_bytes(b"\1" + payload, "big"))[3:]
        self.low = 0
        self.high = MASK
        self.code = int.from_bytes(payload[: PRECISION // 8].ljust(PRECISION // 8, b"\0"), "big")
        self.bits_read = PRECISION

    def checkpoint(self) -> tuple[int, int, int, int]:
        return (self.low, self.high, self.code, self.bits_read)

    def restore(self, state: tuple[int, int, int, int]) -> None:
        self.low, self.high, self.code, self.bits_read = state

    def decode(self, table: FrequencyTable) -> int:
        cum = table.cum
        if len(cum) == 2:  # (0, TOTAL) maps the interval onto itself: nothing moves
            return 0
        low, code, i = self.low, self.code, self.bits_read
        rng = self.high - low + 1
        value = ((code - low + 1) * TOTAL - 1) // rng
        index = bisect_right(cum, value) - 1
        high = low + (rng * cum[index + 1]) // TOTAL - 1
        low += (rng * cum[index]) // TOTAL
        if low ^ high < QUARTER:
            # code shares the s >= 2 settled top bits; s new ones replace them
            t = (low ^ high).bit_length()
            s = PRECISION - t
            code = (code << s & MASK) | int(self._stream[i : i + s].ljust(s, "0"), 2)
            i += s
            low = low << s & MASK
            high = (high << s | MASK >> t) & MASK
        while True:
            if high < HALF:
                pass
            elif low >= HALF:
                low -= HALF
                high -= HALF
                code -= HALF
            elif low >= QUARTER and high < THREE_QUARTERS:
                low -= QUARTER
                high -= QUARTER
                code -= QUARTER
            else:
                break
            low <<= 1
            high = (high << 1) | 1
            code = (code << 1) | (self._stream[i : i + 1] == "1")
            i += 1
        self.low, self.high, self.code, self.bits_read = low, high, code, i
        return index
