"""Order-k character Markov models with surprise/entropy analytics.

A model is an alphabet of glyphs, one count table for context order k, and
an additive smoothing constant. The tables for orders k-1 down to 0, which
prediction backs off to, are exact marginals of the order-k one, so they are
never written to a model file. They are derived on their first read, which
is the first prediction that backs off, or a load. So a model that is trained
and only written, or whose every prediction hits an order-k context, never
derives them. Everything is deterministic, and a model never changes after
training or parsing, so it is safe to share between concurrent encode/decode
sessions. That holds for the first read too: on CPython 3.11
`cached_property` takes a lock, and on 3.12 and later two first readers may
each derive the tables, which are equal, and the last store wins.
"""

from __future__ import annotations

import math
import struct
import sys
import zlib
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, islice, repeat
from operator import add, is_, itemgetter
from typing import NamedTuple, Sequence

BOS = 0  # reserved begin-of-stream id; pads contexts, never occurs in text

# Highest context order a model may have. Deriving the lower orders costs
# about k^2/2 ids per order-k context, so an unbounded order would let a
# small model file claim memory quadratic in its size.
MAX_ORDER = 8
MAX_COUNT = 2**64 - 1  # a count must fit an 8-byte item, a model file's widest

_MAGIC = b"RWC"
_VERSION = b"6"
_HEADER = struct.Struct("<IdIQ")  # order, smoothing, glyph count, node count
# Deflate's largest expansion: one stream byte inflates to at most 1,032 bytes
# (two 1-bit codes for a 258-byte match).
_INFLATE_RATIO = 1032
_WIDTHS = (1, 2, 4, 8)  # the item widths, in bytes, that a model file's column may have
# The array typecode of each width, picked by itemsize, since C leaves the
# sizes of "H", "I" and "L" to the platform.
_TYPECODES = tuple(next(c for c in "BHILQ" if array(c).itemsize == w) for w in _WIDTHS)


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


def surprise(p: float) -> float:
    """Bits of surprise of a probability-p event: log2(1/p)."""
    if p <= 0.0:
        raise ValueError("zero-probability event")
    if not p <= 1.0:  # NaN fails this too
        raise ValueError(f"probability {p!r} is not in (0, 1]")
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
    the table it is given, not a copy. Constructing a model validates it.
    `tables` is derived on its first read: tables[j] is the order-j table
    (tables[k] is `counts` itself) and each lower order is summed from the
    one above. Two models are equal when their alphabet, order, smoothing and
    `counts` are; `tables` follows from those.
    """

    alphabet: Alphabet
    order: int
    smoothing: float
    counts: Table

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

    @cached_property
    def tables(self) -> list[Table]:
        """The table of each order 0..k, derived from `counts` on the first read."""
        tables = [{} for _ in range(self.order)] + [self.counts]
        for j in range(self.order, 0, -1):
            lower = tables[j - 1]
            for ctx, row in tables[j].items():
                tail = ctx[1:]
                bucket = lower.get(tail)
                if bucket is None:  # a copy: a derived row never aliases an upper one
                    lower[tail] = row.copy()
                else:
                    for sym, c in row.items():
                        bucket[sym] = bucket.get(sym, 0) + c
        return tables


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
    ids[:0] = (BOS,) * order
    # Tally every window in C. A Counter keeps each window where it was first
    # seen, so contexts, and the symbols of each row, come out in the order a
    # left-to-right scan meets them.
    windows = Counter(zip(*[islice(ids, j, None) for j in range(order + 1)]))
    del ids  # each input is dropped once used, to keep the peak down
    counts: Table = {}
    for window, c in windows.items():
        ctx = window[:-1]
        row = counts.get(ctx)
        if row is None:
            row = counts[ctx] = {}
        row[window[-1]] = c
    del windows
    return ContextModel(alphabet, order, smoothing, counts)


def predict(model: ContextModel, history: Sequence[int]) -> Distribution:
    """Next-symbol distribution after `history` (a sequence of symbol ids).

    Uses the longest trained suffix of the BOS-padded history and applies
    additive smoothing over the non-sentinel alphabet at that order. The
    order-0 row is never empty, so some suffix always matches. The sentinel
    always gets probability 0. Only the matched row's ids can rise above the
    floor that every unseen id gets (beta/total, or 0 without smoothing), so
    only those that do are kept, in the returned distribution's `row`.
    A `str` history is refused: its characters would match no context, and so
    is a context id that is not an int id of the alphabet. That check, and the
    read of the lower orders' tables, which derives them, come only on a miss.
    """
    j, key = model.order, history
    if type(key) is not tuple or len(key) != j:  # the plan cache passes the context itself
        if isinstance(history, str):
            raise TypeError("history is symbol ids, not text; map text with model.alphabet.encode")
        key = context_key(j, history)
    n = len(model.alphabet.glyphs) + 1  # `Alphabet.size`, without the property call
    counts = model.counts.get(key)
    if counts is None:  # a hit needs no check: every trained context is valid
        for sym in key:
            if not 0 <= sym < n or type(sym) is not int:
                raise ValueError(f"symbol id {sym} outside alphabet")
        tables = model.tables
        while counts is None:  # back off: drop the oldest id; rows are never empty
            j -= 1
            key = key[1:]
            counts = tables[j].get(key)
    beta = model.smoothing or 0  # int 0 keeps c / total exact; c + 0.0 rounds past 2**53
    total = sum(counts.values()) + beta * (n - 1)
    floor = beta / total
    row = {}
    for sym, c in counts.items():  # a loop, not a comprehension: no frame per call
        p = (c + beta) / total
        if p > floor:
            row[sym] = p
    return tuple.__new__(Distribution, (row, floor, n))  # skips the namedtuple's Python __new__


def _column(items: Sequence[int]) -> bytes:
    """A column: a width byte, then `items` as little-endian unsigned ints of
    that width, the narrowest that holds the largest item, in byte planes:
    every item's lowest byte, then every item's next byte, and so on."""
    i = bisect_left(_WIDTHS, (max(items, default=0).bit_length() + 7) // 8)
    width = _WIDTHS[i]
    col = array(_TYPECODES[i], items)
    if sys.byteorder == "big":
        col.byteswap()
    raw = col.tobytes()
    return bytes((width,)) + b"".join([raw[j::width] for j in range(width)])


def _read_column(data: bytes, pos: int, count: int, name: str) -> tuple[bytes | array, int]:
    """The `count` items of the column at `pos`, and the position after it.
    One-byte items are the column's bytes as they stand; wider ones come back
    as an array."""
    if pos >= len(data):
        raise ModelFormatError("model file truncated")
    width = data[pos]
    if width not in _WIDTHS:
        raise ModelFormatError(f"{name} column has width {width}, not 1, 2, 4 or 8")
    end = pos + 1 + width * count
    if end > len(data):  # before reading: a count past the file is a truncation
        raise ModelFormatError("model file truncated")
    if width == 1:  # one plane, already in item order
        return data[pos + 1 : end], end
    # Half the width would do when the upper half of the planes is all zero bytes.
    if not data[pos + 1 + width // 2 * count : end].strip(b"\0"):
        raise ModelFormatError(f"{name} column is wider than its largest item needs")
    raw = bytearray(width * count)
    for j in range(width):  # interleave the planes back into little-endian items
        raw[j::width] = data[pos + 1 + j * count : pos + 1 + (j + 1) * count]
    items = array(_TYPECODES[_WIDTHS.index(width)], raw)
    if sys.byteorder == "big":
        items.byteswap()
    return items, end


_tail = itemgetter(slice(1, None))  # a context without its oldest id


def _breadth_first(table: Table, level: list) -> tuple[dict, list[Counts], list[int], bytes]:
    """Walk the context graph breadth-first from the nodes of `level`.

    An entry (c, s) of c's row leads to the context c[1:] + (s,). Returns
    every node met, in the order met, as the keys of a dict; each node's row
    (an empty dict for a node without one); the rows' symbols, each row's
    ascending; and one flag per entry, 1 exactly where the entry's successor
    is met for the first time. A level is handled in C: `setdefault` stores
    each new node as its own value, so an entry is flagged where it gets
    back the very tuple it passed in.
    """
    seen = dict.fromkeys(level)
    all_rows: list[Counts] = []
    syms: list[int] = []
    flags = bytearray()
    while level:
        rows = list(map(table.get, level, repeat({})))
        level_syms = list(chain.from_iterable(map(sorted, rows)))
        tails = chain.from_iterable(map(repeat, map(_tail, level), map(len, rows)))
        succ = list(map(add, tails, zip(level_syms)))
        level_flags = bytes(map(is_, map(seen.setdefault, succ, succ), succ))
        level = list(compress(succ, level_flags))
        all_rows += rows
        syms += level_syms
        flags += level_flags
    return seen, all_rows, syms, bytes(flags)


def _node_contexts(order: int, lengths, syms, flags, roots) -> list[tuple[int, ...]]:
    """The context of each node of an order-`order` file (order 1 or more),
    from its columns, with no hashing.

    Node 0 is (BOS,) * order and nodes 1..r are the roots. Node 1 + r + j is
    the successor of the j-th flagged entry: its parent's context without
    its oldest id, then the entry's symbol. The parent, the node whose row
    holds that entry, is found by walking the row ends.
    """
    n_roots = len(roots) // order
    runs = [roots[j * n_roots : (j + 1) * n_roots] for j in range(order)]
    contexts = [(BOS,) * order, *zip(*runs)]
    owner, end = -1, 0
    for at, sym in compress(enumerate(syms), flags):
        while at >= end:
            owner += 1
            end += lengths[owner]
        if owner >= len(contexts):
            raise ModelFormatError("a child is placed before its parent")
        contexts.append(contexts[owner][1:] + (sym,))
    return contexts


def serialize_model(model: ContextModel) -> bytes:
    """Serialize to the versioned "RWC6" little-endian format.

    Layout: magic, then order (u32), smoothing (f64), glyph count (u32) and
    node count (u64), then a zlib stream (deflate at level 1) of six
    columns: the glyph code points, the row lengths, each row's symbols in
    ascending order, their counts, a tree flag per entry, and the roots'
    ids. Each column is a width byte w in {1, 2, 4, 8}, the narrowest that
    holds its largest item, then its items as w-byte unsigned ints in byte
    planes: every item's lowest byte, then every item's next byte, and so on.

    No context is stored as such. The nodes are the contexts that a
    breadth-first walk of the context graph meets, where an entry (c, s)
    leads to c[1:] + (s,). The walk starts from (BOS,) * k and from the
    roots: the contexts that a walk from (BOS,) * k alone cannot reach,
    sorted. Only a hand-built model has roots. Node 0 is the start, the
    roots follow, and every later node is the successor of the entry
    flagged 1 where the walk first met it, so its ids follow from that
    entry's context and symbol. A node without a row has length 0. The
    roots' ids are stored column-major (every root's first id, then every
    root's second id, and so on). At order 0 every successor is the start,
    so there are no flags. The header
    stays outside the stream, so a reader can bound what the stream may
    inflate to before inflating it. Lower orders are derived on load, so
    they are not stored. The walk, the roots and the rows are ordered, so
    serialization is deterministic.
    """
    k, glyphs, table = model.order, model.alphabet.glyphs, model.counts
    start = [(BOS,) * k]
    roots: list[tuple[int, ...]] = []
    if k:
        nodes, rows, syms, flags = _breadth_first(table, start)
        if not nodes.keys() >= table.keys():  # a second walk, from the roots too
            roots = sorted(table.keys() - nodes.keys())
            nodes, rows, syms, flags = _breadth_first(table, start + roots)
        n_nodes = len(nodes)
        del nodes  # dropped before the columns are built, to keep the peak down
    else:
        n_nodes, rows, flags = 1, [table[()]], b""
        syms = sorted(rows[0])
    lengths = list(map(len, rows))
    counts = map(dict.__getitem__, chain.from_iterable(map(repeat, rows, lengths)), syms)
    ids = list(chain.from_iterable(roots))
    # Each column's list is dropped once it is packed, before the next is built.
    columns = b"".join([
        _column(list(map(ord, glyphs))),
        _column(lengths),
        _column(syms),
        _column(list(counts)),
        _column(flags),
        _column(list(chain.from_iterable([ids[j::k] for j in range(k)]))),  # column-major
    ])
    header = _MAGIC + _VERSION + _HEADER.pack(k, model.smoothing, len(glyphs), n_nodes)
    return header + zlib.compress(columns, 1)


def parse_model(data: bytes) -> ContextModel:
    """Inverse of `serialize_model`; raises ModelFormatError on bad input."""
    if len(data) < 4:
        raise ModelFormatError("model file shorter than its magic")
    if data[:3] != _MAGIC:
        raise ModelFormatError("not a model file (bad magic)")
    if data[3:4] != _VERSION:
        raise ModelFormatError(f"unsupported model version {data[3:4]!r}")
    if len(data) < 4 + _HEADER.size:
        raise ModelFormatError("model file truncated")
    order, smoothing, n_glyphs, n_nodes = _HEADER.unpack_from(data, 4)
    if order > MAX_ORDER:  # before the root ids are split into `order`-tuples
        raise ModelFormatError(f"order {order} is not in 0..{MAX_ORDER}")
    stream = data[4 + _HEADER.size :]
    # The columns the header allows are at least 6 width bytes, one-byte
    # items and, for each node past the start, a root's ids or the flagged
    # entry (symbol, count and flag) that leads to it; and at most
    # eight-byte items, full rows and every node past the start a root.
    later = max(n_nodes - 1, 0)
    least = 6 + n_glyphs + n_nodes + later * min(order, 3)
    most = 6 + 8 * (n_glyphs + n_nodes * (1 + n_glyphs * (3 if order else 2)) + later * order)
    if least > _INFLATE_RATIO * len(stream):  # no stream this short inflates that far
        raise ModelFormatError("model file truncated")
    inflater = zlib.decompressobj()
    # One byte past both bounds, so that only a stream that inflates further
    # leaves a tail; a max_length of 0 would mean no limit.
    bound = min(most, _INFLATE_RATIO * (len(stream) + 1)) + 1
    try:
        body = inflater.decompress(stream, bound)
    except zlib.error as exc:  # a bad check value among them
        raise ModelFormatError(f"damaged compressed body: {exc}") from None
    if inflater.unconsumed_tail or inflater.unused_data:
        raise ModelFormatError("trailing data after model")
    if not inflater.eof:
        raise ModelFormatError("model file truncated")
    code_points, pos = _read_column(body, 0, n_glyphs, "glyph")
    lengths, pos = _read_column(body, pos, n_nodes, "row length")
    n_pairs = sum(lengths)
    syms, pos = _read_column(body, pos, n_pairs, "symbol")
    counts, pos = _read_column(body, pos, n_pairs, "count")
    flags, pos = _read_column(body, pos, n_pairs if order else 0, "tree flag")
    n_flags = flags.count(1)
    if flags.count(0) + n_flags != len(flags):
        raise ModelFormatError(f"tree flag {max(flags)} is not 0 or 1")
    n_roots = n_nodes - 1 - n_flags
    if n_roots < 0:
        raise ModelFormatError(f"{n_flags} tree flags for {n_nodes} nodes")
    roots, pos = _read_column(body, pos, n_roots * order, "root id")
    if pos != len(body):
        raise ModelFormatError("trailing data after model")
    # A one-byte column is Latin-1 text, whose decode in C takes a third of
    # the time of a `chr` per glyph; it offsets part of the inflate's cost.
    if isinstance(code_points, bytes):
        glyphs = tuple(code_points.decode("latin-1"))
    elif max(code_points) > sys.maxunicode:
        raise ModelFormatError(f"invalid glyph code point {max(code_points):#x}")
    else:
        glyphs = tuple(map(chr, code_points))
    if 0 in lengths[1 : 1 + n_roots]:  # a root is listed for its row
        root = lengths.index(0, 1) - 1
        raise ModelFormatError(f"context {tuple(roots[root::n_roots])} has an empty row")
    contexts = _node_contexts(order, lengths, syms, flags, roots) if order else [()] * n_nodes
    rows = list(map(dict, map(islice, repeat(zip(syms, counts)), lengths)))
    table: Table = dict(zip(contexts, rows))
    if len(table) != n_nodes:
        raise ModelFormatError("a context is listed twice")
    if sum(map(len, rows)) != n_pairs:
        ctx = next(ctx for ctx, row, n in zip(contexts, rows, lengths) if len(row) != n)
        raise ModelFormatError(f"context {ctx} lists a symbol twice")
    at = -1
    for _ in range(lengths.count(0)):  # a node without a row is no context of the table
        at = lengths.index(0, at + 1)
        del table[contexts[at]]
    try:  # the constructors refuse the rest, surrogate glyphs included
        model = ContextModel(Alphabet(glyphs), order, smoothing, table)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None
    if order:
        # Every entry's successor must be a node: a child, whose flagged entry
        # is the one that leads to it, or a root. The successor of (c, s) is
        # c[1:] + (s,), so the order-(k-1) table lists each distinct successor
        # once. Reading it derives every order here, work that the loaded
        # model's first prediction needs anyway. Without this check, a file
        # read at another order than it was written at could load.
        lower = model.tables[order - 1]
        met = sum(map(len, lower.values()))
        if n_roots:  # a root may be a successor too
            met -= sum(root[-1] in lower.get(root[:-1], ()) for root in contexts[1 : 1 + n_roots])
        if met != n_flags:
            raise ModelFormatError("an entry's successor is not listed")
    return model
