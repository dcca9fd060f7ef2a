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
from itertools import starmap
from typing import Mapping, Sequence

BOS = 0  # reserved begin-of-stream id; pads contexts, never occurs in text

# Highest context order a model may have. Deriving the lower orders costs
# about k^2/2 ids per order-k context, so an unbounded order would let a
# small model file claim memory quadratic in its size.
MAX_ORDER = 8
MAX_COUNT = 2**64 - 1  # a count must fit the model file's u64 field

_MAGIC = b"RWC"
_VERSION = b"2"


class ModelFormatError(ValueError):
    """A model file could not be parsed."""


class BadMagicError(ModelFormatError):
    pass


class UnsupportedVersionError(ModelFormatError):
    pass


class TruncatedModelError(ModelFormatError):
    pass


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
        object.__setattr__(self, "glyphs", tuple(self.glyphs))
        for g in self.glyphs:  # a surrogate is half of a UTF-16 pair, not text
            if not isinstance(g, str) or len(g) != 1 or "\ud800" <= g <= "\udfff":
                raise ValueError(f"glyph must be a single non-surrogate character, got {g!r}")
        if len(set(self.glyphs)) != len(self.glyphs):
            raise ValueError("duplicate glyph in alphabet")

    @cached_property
    def _ids(self) -> dict[str, int]:
        return {g: i + 1 for i, g in enumerate(self.glyphs)}

    @property
    def size(self) -> int:
        """Number of symbol ids, sentinel included."""
        return len(self.glyphs) + 1

    def __contains__(self, glyph: str) -> bool:
        return glyph in self._ids

    def id_of(self, glyph: str) -> int:
        try:
            return self._ids[glyph]
        except KeyError:
            raise ValueError(f"glyph {glyph!r} is not in the alphabet") from None

    def glyph_of(self, sym: int) -> str:
        if sym == BOS:
            raise ValueError("the begin-of-stream sentinel has no glyph")
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


@dataclass(frozen=True)
class Distribution:
    """Per-symbol probabilities, indexed by symbol id (entry 0 is the sentinel).

    `predict` also records `_head`: the ids above the smoothing floor, ranked
    by probability (ties ascending). Every other positive id has the floor
    probability, so the selector ranks only the head. A distribution built by
    hand has no head and is ranked in full.
    """

    probs: tuple[float, ...]
    _head: tuple[int, ...] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "probs", tuple(self.probs))

    def __len__(self) -> int:
        return len(self.probs)

    def validate(self, tol: float = 1e-9) -> None:
        if any(p < 0.0 for p in self.probs):
            raise ValueError("negative probability")
        if abs(sum(self.probs) - 1.0) > tol:
            raise ValueError(f"probabilities sum to {sum(self.probs)!r}, not 1")

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

    `counts` maps each length-k context to {symbol id: count}. Constructing a
    model validates it and derives `tables`, where tables[j] is the order-j
    table (tables[k] is `counts` itself) and each lower order is summed from
    the one above. Two models are equal when their alphabet, order,
    smoothing and `counts` are; `tables` follows from those.
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
        if not self.counts:
            raise ValueError("empty count table")
        for ctx, row in self.counts.items():
            if len(ctx) != k or not all(0 <= s < n for s in ctx):
                raise ValueError(f"context {ctx!r} is not {k} ids of the alphabet")
            if not row:
                raise ValueError(f"context {ctx!r} has an empty row")
            for sym, c in row.items():
                if not (0 < sym < n):
                    raise ValueError(f"symbol id {sym} outside alphabet")
                if type(c) is not int or not 1 <= c <= MAX_COUNT:
                    raise ValueError(f"count {c!r} is not an integer in 1..2**64-1")
        self.tables = [{} for _ in range(k)] + [self.counts]
        for j in range(k, 0, -1):
            lower = self.tables[j - 1]
            for ctx, row in self.tables[j].items():
                bucket = lower.setdefault(ctx[1:], {})
                for sym, c in row.items():
                    bucket[sym] = bucket.get(sym, 0) + c

    @classmethod
    def from_counts(
        cls,
        alphabet: Alphabet,
        order: int,
        counts: Mapping[Sequence[int], Mapping[int, int]],
        smoothing: float = 0.0,
    ) -> "ContextModel":
        """Build a model from a copy of explicit order-k counts.

        `counts` maps length-k context tuples to {symbol id: count}. Useful for
        constructing models whose predictions are exact rationals by design.
        """
        table = {tuple(ctx): dict(row) for ctx, row in counts.items()}
        return cls(alphabet, order, smoothing, table)


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
    ids = alphabet.encode(corpus)
    padded = [BOS] * order + ids
    counts: Table = {}
    for i, sym in enumerate(ids):
        row = counts.setdefault(tuple(padded[i : i + order]), {})
        row[sym] = row.get(sym, 0) + 1
    return ContextModel(alphabet, order, smoothing, counts)


def predict(model: ContextModel, history: Sequence[int]) -> Distribution:
    """Next-symbol distribution after `history` (a sequence of symbol ids).

    Uses the longest trained suffix of the BOS-padded history and applies
    additive smoothing over the non-sentinel alphabet at that order. The
    order-0 row is never empty, so some suffix always matches. The sentinel
    always gets probability 0. Only the matched row's ids can rise above the
    floor that every unseen id gets (beta/total, or 0 without smoothing), so
    only they are ranked into the head.
    """
    n = model.alphabet.size
    key = context_key(model.order, history)
    for j in range(model.order, -1, -1):
        counts = model.tables[j].get(key[model.order - j :])
        if counts:
            break
    beta = model.smoothing
    total = sum(counts.values())
    if beta:
        total += beta * (n - 1)
        floor = beta / total
        probs = [floor] * n
        probs[BOS] = 0.0
        for sym, c in counts.items():
            probs[sym] = (c + beta) / total
    else:
        floor = 0.0
        probs = [0.0] * n
        for sym, c in counts.items():
            probs[sym] = c / total  # int / int is exact; c + 0.0 rounds past 2**53
    head = sorted([sym for sym in counts if probs[sym] > floor])
    head.sort(key=probs.__getitem__, reverse=True)  # stable: ties stay ascending
    dist = Distribution(probs)
    object.__setattr__(dist, "_head", tuple(head))
    return dist


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
    """Inverse of `serialize_model`; raises a ModelFormatError subclass on bad input."""
    if len(data) < 4:
        raise TruncatedModelError("model file shorter than its magic")
    if data[:3] != _MAGIC:
        raise BadMagicError("not a model file (bad magic)")
    if data[3:4] != _VERSION:
        raise UnsupportedVersionError(f"unsupported model version {data[3:4]!r}")
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
                raise TruncatedModelError("model file truncated")
            row = table[ctx] = dict(pairs(view[pos:end]))
            pos = end
            if len(row) != n_row:
                raise ModelFormatError(f"context {ctx} lists a symbol twice")
    except struct.error:
        raise TruncatedModelError("model file truncated") from None
    if len(table) != n_ctx:
        raise ModelFormatError("a context is listed twice")
    if pos != len(data):
        raise ModelFormatError("trailing data after model")
    try:  # the constructors refuse the rest, surrogate glyphs included
        return ContextModel(Alphabet(glyphs), order, smoothing, table)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None
