"""Order-k character Markov models with surprise/entropy analytics.

A model is an alphabet of glyphs, one count table for context order k, and
an additive smoothing constant. The tables for orders k-1 down to 0, which
prediction backs off to, are exact marginals of the order-k one, so they are
derived when the model is built and never stored. Everything is
deterministic, and a model never changes after training or parsing, so it is
safe to share between concurrent encode/decode sessions.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, starmap
from typing import NamedTuple, Sequence

BOS = 0  # reserved begin-of-stream id; pads contexts, never occurs in text

# Highest context order a model may have. Deriving the lower orders costs
# about k^2/2 ids per order-k context, so an unbounded order would let a
# small model file claim memory quadratic in its size.
MAX_ORDER = 8
MAX_COUNT = 2**64 - 1  # a count must fit the model file's u64 field

_MAGIC = b"RWC"
_VERSION = b"2"


class ModelFormatError(ValueError):
    """A model file could not be parsed; the message says why."""


class UnknownCharacterError(ValueError):
    """A character of the input text is not covered by the model alphabet."""

    def __init__(self, char: str, position: int):
        super().__init__(f"character {char!r} at position {position} is not in the alphabet")
        self.char = char
        self.position = position


@dataclass(frozen=True)
class Alphabet:
    """Bijection between glyphs and dense symbol ids.

    Id 0 is the begin-of-stream sentinel; real glyphs get ids 1..len(glyphs)
    in the order given. `build_alphabet` produces code-point-sorted alphabets;
    hand-built ones may order glyphs however suits the source process.
    """

    glyphs: tuple[str, ...]

    def __post_init__(self):
        glyphs = tuple(self.glyphs)
        object.__setattr__(self, "glyphs", glyphs)
        # All glyphs at once, in C: strs whose join has one character each and
        # encodes, so none is a surrogate (half of a UTF-16 pair, not text).
        # Only when that fails are glyphs checked one by one, to name the first bad one.
        try:
            joined = "".join(glyphs)
            joined.encode()
        except (TypeError, UnicodeEncodeError):
            joined = None
        if joined is None or len(joined) != len(glyphs) or "" in glyphs:
            for g in glyphs:
                if not isinstance(g, str) or len(g) != 1 or "\ud800" <= g <= "\udfff":
                    raise ValueError(f"glyph must be a single non-surrogate character, got {g!r}")
        if len(set(glyphs)) != len(glyphs):
            raise ValueError("duplicate glyph in alphabet")

    @cached_property
    def _ids(self) -> dict[str, int]:
        return {g: i + 1 for i, g in enumerate(self.glyphs)}

    @property
    def size(self) -> int:
        """Number of symbol ids, sentinel included."""
        return len(self.glyphs) + 1

    def id_of(self, glyph: str) -> int:
        try:
            return self._ids[glyph]
        except KeyError:
            raise ValueError(f"glyph {glyph!r} is not in the alphabet") from None

    def glyph_of(self, sym: int) -> str:
        if sym == BOS:
            raise ValueError("the begin-of-stream sentinel has no glyph")
        if not 0 < sym <= len(self.glyphs):
            raise ValueError(f"symbol id {sym} outside alphabet")
        return self.glyphs[sym - 1]

    def encode(self, text: str) -> list[int]:
        ids = self._ids
        try:
            return [ids[ch] for ch in text]
        except KeyError:
            pos = next(i for i, ch in enumerate(text) if ch not in ids)
            raise UnknownCharacterError(text[pos], pos) from None


def build_alphabet(corpus: str) -> Alphabet:
    """Alphabet of the distinct scalars of `corpus`, sorted by code point."""
    return Alphabet(tuple(sorted(set(corpus))))


class Distribution(NamedTuple):
    """A next-symbol prediction over ids 0..size-1 (id 0 is the sentinel).

    `row` maps the ids above the smoothing floor to their probabilities, in
    the matched row's order, unranked. Every other id but the sentinel has
    probability `floor` (0 without smoothing); the sentinel has 0. So the
    selector ranks only the row, and `probs` lays the whole alphabet out,
    built anew on each access.
    """

    row: dict[int, float]
    floor: float
    size: int

    @property
    def probs(self) -> tuple[float, ...]:
        """Dense view, built on each access: the probability of each id, indexed by id."""
        probs = [0.0] * self.size
        probs[1:] = [self.floor] * (self.size - 1)
        for sym, p in self.row.items():
            probs[sym] = p
        return tuple(probs)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.probs) if p > 0.0)


def surprise(p: float) -> float:
    """Bits of surprise of a probability-p event: log2(1/p)."""
    if p <= 0.0:
        raise ValueError("zero-probability event")
    return math.log2(1.0 / p)


def entropy(dist: Distribution) -> float:
    """Average surprise of a symbol drawn from `dist`; zero terms contribute 0."""
    return sum(p * math.log2(1.0 / p) for p in dist.probs if p > 0.0)


# Context tables: a table maps a length-j tuple of symbol ids to the counts
# of the symbols that followed it.
Counts = dict[int, int]
Table = dict[tuple[int, ...], Counts]


@dataclass
class ContextModel:
    """Trained order-k model: the order-k count table plus smoothing.

    `counts` maps each length-k context to {symbol id: count}; the model keeps
    the table it is given, not a copy. Constructing a model validates it and
    derives `tables`, where tables[j] is the order-j table (tables[k] is
    `counts` itself) and each lower order is summed from the one above. Two
    models are equal when their alphabet, order, smoothing and `counts` are;
    `tables` follows from those.
    """

    alphabet: Alphabet
    order: int
    smoothing: float
    counts: Table
    tables: list[Table] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.alphabet.size
        k = self.order
        if not 0 <= k <= MAX_ORDER:
            raise ValueError(f"order {k} is not in 0..{MAX_ORDER}")
        if not (self.smoothing >= 0 and math.isfinite(self.smoothing * (n - 1))):
            raise ValueError(f"smoothing {self.smoothing!r} is negative or has infinite mass")
        counts = self.counts
        if not counts:
            raise ValueError("empty count table")
        # Every context at once, in C: a tuple (bytes would iterate as ints) of
        # k ids, all exact ints (no bool or float) in 0..n-1. Only when that
        # fails are contexts checked one by one, so the first bad one is named.
        ids_ok = (
            k > 0
            and set(map(type, counts)) == {tuple}
            and set(map(len, counts)) == {k}
            and set(map(type, chain.from_iterable(counts))) == {int}
            and frozenset(range(n)).issuperset(chain.from_iterable(counts))
        )
        for ctx, row in counts.items():
            if not ids_ok and (
                type(ctx) is not tuple
                or len(ctx) != k
                or not all(type(s) is int and 0 <= s < n for s in ctx)
            ):
                raise ValueError(f"context {ctx!r} is not {k} ids of the alphabet")
            if not row:
                raise ValueError(f"context {ctx!r} has an empty row")
            for sym, c in row.items():
                if not (type(sym) is int and 0 < sym < n and type(c) is int and 0 < c <= MAX_COUNT):
                    if type(sym) is not int or not 0 < sym < n:
                        raise ValueError(f"symbol id {sym} outside alphabet")
                    raise ValueError(f"count {c!r} is not an integer in 1..2**64-1")
        self.tables = [{} for _ in range(k)] + [counts]
        for j in range(k, 0, -1):
            lower = self.tables[j - 1]
            for ctx, row in self.tables[j].items():
                bucket = lower.get(ctx[1:])
                if bucket is None:  # a copy: a derived row never aliases an upper one
                    lower[ctx[1:]] = row.copy()
                else:
                    for sym, c in row.items():
                        bucket[sym] = bucket.get(sym, 0) + c


def context_key(order: int, history: Sequence[int]) -> tuple[int, ...]:
    """The effective context: the last `order` symbols, padded with BOS."""
    if order == 0:
        return ()
    ctx = tuple(history[-order:])
    if len(ctx) < order:
        ctx = (BOS,) * (order - len(ctx)) + ctx
    return ctx


def train(
    corpus: str,
    order: int,
    smoothing: float,
    alphabet: Alphabet | None = None,
) -> ContextModel:
    """Count every length-(k+1) window of the BOS-padded corpus.

    The alphabet defaults to the corpus's own glyphs; pass one explicitly to
    reserve symbols the corpus does not contain (held-out text, smoothing
    targets).
    """
    if not corpus:
        raise ValueError("empty corpus")
    if not 0 <= order <= MAX_ORDER:  # counting takes memory in proportion to the order
        raise ValueError(f"order {order} is not in 0..{MAX_ORDER}")
    if alphabet is None:
        alphabet = build_alphabet(corpus)
    counts: Table = {}
    ctx = (BOS,) * order
    for sym in alphabet.encode(corpus):
        row = counts.get(ctx)
        if row is None:
            row = counts[ctx] = {}
        row[sym] = row.get(sym, 0) + 1
        ctx = (ctx + (sym,))[1:]
    return ContextModel(alphabet, order, smoothing, counts)


def predict(model: ContextModel, history: Sequence[int]) -> Distribution:
    """Next-symbol distribution after `history` (a sequence of symbol ids).

    Uses the longest trained suffix of the BOS-padded history and applies
    additive smoothing over the non-sentinel alphabet at that order. The
    order-0 row is never empty, so some suffix always matches. The sentinel
    always gets probability 0. Only the matched row's ids can rise above the
    floor that every unseen id gets (beta/total, or 0 without smoothing), so
    only those that do are kept, in the returned distribution's `row`.
    """
    n, j, tables = model.alphabet.size, model.order, model.tables
    key = context_key(j, history)
    counts = tables[j].get(key)
    while counts is None:  # back off: drop the oldest id; rows are never empty
        j -= 1
        key = key[1:]
        counts = tables[j].get(key)
    beta = model.smoothing or 0  # int 0 keeps c / total exact; c + 0.0 rounds past 2**53
    total = sum(counts.values()) + beta * (n - 1)
    floor = beta / total
    row = {sym: p for sym, c in counts.items() if (p := (c + beta) / total) > floor}
    return Distribution(row, floor, n)


_PAIR = struct.Struct("<IQ")  # (symbol id, count), one per row entry


def serialize_model(model: ContextModel) -> bytes:
    """Serialize to the versioned "RWC2" little-endian format.

    Layout: magic, order (u32), smoothing (f64), glyph count (u32) and glyph
    code points (u32 each), then the order-k table: a u64 context count
    followed by each context (k u32 ids, u32 row length, and (u32 id, u64
    count) pairs). Lower orders are derived on load, so they are not stored.
    Contexts and rows are sorted, so serialization is deterministic.
    """
    k, glyphs, table = model.order, model.alphabet.glyphs, model.counts
    n = len(glyphs)
    head = struct.Struct(f"<{k}II").pack  # a context's ids and its row length
    out = bytearray(_MAGIC + _VERSION)
    out += struct.pack(f"<IdI{n}IQ", k, model.smoothing, n, *map(ord, glyphs), len(table))
    for ctx in sorted(table):
        row = table[ctx]
        out += head(*ctx, len(row))
        out += b"".join(starmap(_PAIR.pack, sorted(row.items())))
    return bytes(out)


def parse_model(data: bytes) -> ContextModel:
    """Inverse of `serialize_model`; raises ModelFormatError on bad input."""
    if len(data) < 4:
        raise ModelFormatError("model file shorter than its magic")
    if data[:3] != _MAGIC:
        raise ModelFormatError("not a model file (bad magic)")
    if data[3:4] != _VERSION:
        raise ModelFormatError(f"unsupported model version {data[3:4]!r}")
    view = memoryview(data)
    try:  # every unpack raises struct.error when it would read past the end
        order, smoothing, n_glyphs = struct.unpack_from("<IdI", data, 4)
        code_points = struct.unpack_from(f"<{n_glyphs}I", data, 20)
        if max(code_points, default=0) > sys.maxunicode:
            raise ModelFormatError(f"invalid glyph code point {max(code_points):#x}")
        glyphs = tuple(map(chr, code_points))
        pos = 20 + 4 * n_glyphs  # magic and version (4), order, smoothing and glyph count (16)
        (n_ctx,) = struct.unpack_from("<Q", data, pos)
        pos += 8
        table: Table = {}
        head = struct.Struct(f"<{order}II")  # a context's ids and its row length
        unpack_head, pairs, size = head.unpack_from, _PAIR.iter_unpack, len(data)
        for _ in range(n_ctx):
            fields = unpack_head(data, pos)
            ctx, n_row = fields[:-1], fields[-1]
            pos += head.size
            end = pos + _PAIR.size * n_row
            if end > size:  # a short slice would just unpack fewer pairs
                raise ModelFormatError("model file truncated")
            row = table[ctx] = dict(pairs(view[pos:end]))
            pos = end
            if len(row) != n_row:
                raise ModelFormatError(f"context {ctx} lists a symbol twice")
    except struct.error:
        raise ModelFormatError("model file truncated") from None
    if len(table) != n_ctx:
        raise ModelFormatError("a context is listed twice")
    if pos != len(data):
        raise ModelFormatError("trailing data after model")
    try:  # the constructors refuse the rest, surrogate glyphs included
        return ContextModel(Alphabet(glyphs), order, smoothing, table)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None
