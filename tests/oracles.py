"""Test-local helpers and oracles that the package itself does not need.

`dense` builds a `Distribution` by hand from a probability list indexed by
id. `make_kept` builds a kept set from its members as the oracles do, and
`check_kept` checks the invariants that every kept set `select_kept` builds,
at any threshold in `ALPHA_VALUES`, holds by construction.
`brute_force_kept` is the exhaustive selection oracle, `validate` checks
that a distribution is a probability distribution, and `uniform_byte_model`
is the order-0 model of uniformly random bytes. `models` draws a small
hand-built model, over the glyphs A-F or any Unicode, for every suite that
needs one, and `histories` gives each context of its count table and some
drawn histories. `oracle_glyph_fault` and `oracle_tables` check glyphs and
a count table entry by entry, as `Alphabet` and `ContextModel` did before
they checked in bulk.
`model_columns` lists an RWC6 file's nodes one at a time from a FIFO
queue, `model_body` writes its columns entry by entry, with any widths,
each in byte planes, and `model_file` writes the RWC6 file that holds them
deflated. They are the tests' only model-file writer: a retired format is
tested by its version byte alone. `file_counts` reads an RWC6 file's node
and root counts.
`oracle_train` is the one counting oracle: it counts every order of a
corpus on its own at each position, where `train` tallies the order-k
windows in bulk and derives the lower orders. `compress_bound` is zlib's
`compressBound`, the longest a zlib stream of that many bytes can be.
"""

import math
import struct
import zlib
from collections import deque
from functools import cache, reduce
from operator import add

from hypothesis import strategies as st

from rwc.harness import ChainSource, model_from_chain
from rwc.model import (
    BOS,
    MAX_COUNT,
    MAX_ORDER,
    Alphabet,
    ContextModel,
    Distribution,
    build_alphabet,
)
from rwc.selector import KeptSet, solve_alpha, subset_cost

# Thresholds a selection is tried at: the objective's, the lossless 0, and
# values no caller passes, each of which must still give a well-formed kept set.
ALPHA_VALUES = (solve_alpha(), 0.0, 0.5, 1.0, math.inf, math.nan, -1.0)


def dense(probs) -> Distribution:
    """The distribution whose dense view is `probs`, entry 0 the sentinel's,
    with every positive entry in its row and a floor of 0."""
    return Distribution({i: p for i, p in enumerate(probs) if p > 0.0}, 0.0, len(probs))


def validate(dist: Distribution, tol: float = 1e-9) -> None:
    probs = dist.probs
    if any(p < 0.0 for p in probs):
        raise ValueError("negative probability")
    if abs(sum(probs) - 1.0) > tol:
        raise ValueError(f"probabilities sum to {sum(probs)!r}, not 1")


def make_kept(members, probs) -> KeptSet:
    """The kept set of `members`, their mass summed left to right, as
    `select_kept` sums it, and each one's probability divided by it."""
    mass = reduce(add, (probs[i] for i in members), 0)
    return KeptSet(tuple(members), tuple([probs[i] / mass for i in members]), mass)


def check_kept(kept: KeptSet) -> None:
    """Raise ValueError unless `kept` has at least one member, one renorm
    entry per member, renorm entries that are positive and sum to 1, and a
    positive finite mass."""
    members, renorm, mass = kept
    if not members:
        raise ValueError("kept set cannot be empty")
    if len(renorm) != len(members):
        raise ValueError("renorm length mismatch")
    # The mass and the renorm sum each round by up to 2**-53 per member,
    # so n members may leave the sum off by about n * 2**-52. Each check
    # is written so that a NaN fails it.
    if not abs(sum(renorm) - 1.0) <= max(1e-12, len(members) * 2**-52):
        raise ValueError("renormalized probabilities must sum to 1")
    if not min(renorm) > 0.0:  # after the sum check, no entry is NaN
        raise ValueError("renormalized probabilities must be positive")
    if not 0.0 < mass < math.inf:
        raise ValueError(f"kept mass {mass!r} is not positive and finite")


def brute_force_kept(dist: Distribution) -> KeptSet:
    """Exhaustively cheapest subset over all 2^n of them: the selection oracle.

    Makes no use of the prefix structure; that is the point. Among minimizers
    it prefers the longest prefix of the probability ordering, the shape the
    selection rule produces. Support must be small.
    """
    probs = dist.probs
    ranked = sorted((i for i, p in enumerate(probs) if p > 0.0), key=lambda i: (-probs[i], i))
    if not ranked:
        raise ValueError("distribution has empty support")
    if len(ranked) > 20:
        raise ValueError("support too large for the brute-force oracle")
    best_cost = math.inf
    for mask in range(1, 1 << len(ranked)):
        members = [ranked[b] for b in range(len(ranked)) if mask >> b & 1]
        best_cost = min(best_cost, subset_cost(dist, members))
    for k in range(len(ranked), 0, -1):
        prefix = ranked[:k]
        if subset_cost(dist, prefix) <= best_cost + 1e-12:
            return make_kept(prefix, probs)
    raise AssertionError("no prefix attains the exhaustive minimum")


def uniform_byte_model() -> ContextModel:
    """Order-0 uniform model over all 256 byte values (as latin-1 glyphs)."""
    return model_from_chain(ChainSource.iid([chr(b) for b in range(256)], [1 / 256] * 256), 256)


# 2**60 swamps any count up to 9 (c + beta == beta), so those seen ids tie with
# the floor and stay out of the row; 5e-324 rounds the floor itself to 0, so
# unseen ids drop out. A model file can carry -0.0, which must predict exactly as 0.0.
SMOOTHINGS = [0.0, -0.0, 0.1, 1.0, 1e12, 2.0**60, 5e-324]


COUNTS = st.one_of(st.integers(1, 9), st.integers(1, MAX_COUNT), st.just(MAX_COUNT))


@cache
def _tables(n_glyphs: int, order: int):
    """`models`' count-table strategy at one alphabet size and order, built
    once per pair rather than at every draw, which takes about a third off
    the time to draw a model."""
    sym = st.integers(1, n_glyphs)
    row = st.one_of(
        st.dictionaries(sym, COUNTS, min_size=1, max_size=1),
        st.dictionaries(sym, COUNTS, min_size=1),
        st.fixed_dictionaries({s: COUNTS for s in range(1, n_glyphs + 1)}),
    )
    contexts = st.tuples(*[st.integers(0, n_glyphs)] * order)
    return st.dictionaries(contexts, row, min_size=1, max_size=6)


@st.composite
def models(draw) -> ContextModel:
    """A hand-built model: 1-6 glyphs A, B, ... or 1-8 glyphs from anywhere
    in Unicode but the surrogates, order 0..MAX_ORDER, smoothing from
    SMOOTHINGS or up to 1e6, 1-6 contexts of any ids, and rows of one entry,
    any size or every glyph, with counts of 1-9, up to MAX_COUNT, or MAX_COUNT."""
    glyphs = draw(st.one_of(
        st.integers(1, 6).map(lambda n: tuple(chr(0x41 + i) for i in range(n))),
        st.lists(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=8, unique=True),
    ))
    order = draw(st.integers(0, MAX_ORDER))
    smoothing = draw(st.one_of(st.sampled_from(SMOOTHINGS), st.floats(0.0, 1e6)))
    return ContextModel(Alphabet(tuple(glyphs)), order, smoothing, draw(_tables(len(glyphs), order)))


def histories(model: ContextModel, data, count: int) -> list[list[int]]:
    """Every context of `model`'s count table, as a list, then `count`
    histories of up to 6 ids drawn from `data`."""
    drawn = st.lists(st.integers(1, model.alphabet.size - 1), max_size=6)
    return [list(ctx) for ctx in model.counts] + [data.draw(drawn) for _ in range(count)]


def oracle_glyph_fault(glyphs) -> str | None:
    """The message `Alphabet` raises for `glyphs`, or None if it accepts
    them: each glyph checked on its own, then the whole tuple for repeats."""
    for g in glyphs:
        if not isinstance(g, str) or len(g) != 1 or "\ud800" <= g <= "\udfff":
            return f"glyph must be a single non-surrogate character, got {g!r}"
    if len(set(glyphs)) != len(glyphs):
        return "duplicate glyph in alphabet"
    return None


def oracle_tables(n: int, k: int, counts: dict) -> list[dict]:
    """The order-k count table's check and its derived tables, per entry.

    Each context is checked on its own: a tuple of k exact-int ids in 0..n-1, then a
    non-empty row of exact-int symbols in 1..n-1 with exact-int counts in
    1..MAX_COUNT. Raises ValueError with the constructor's message at the
    first fault, in table order. Each lower row is built up from an empty
    dict with `setdefault`, so no derived row is an upper one.
    """
    if not counts:
        raise ValueError("empty count table")
    for ctx, row in counts.items():
        if type(ctx) is not tuple or len(ctx) != k or not all(type(s) is int and 0 <= s < n for s in ctx):
            raise ValueError(f"context {ctx!r} is not {k} ids of the alphabet")
        if not row:
            raise ValueError(f"context {ctx!r} has an empty row")
        for sym, c in row.items():
            if type(sym) is not int or not 0 < sym < n:
                raise ValueError(f"symbol id {sym} outside alphabet")
            if type(c) is not int or not 1 <= c <= MAX_COUNT:
                raise ValueError(f"count {c!r} is not an integer in 1..2**64-1")
    tables = [{} for _ in range(k)] + [counts]
    for j in range(k, 0, -1):
        lower = tables[j - 1]
        for ctx, row in tables[j].items():
            bucket = lower.setdefault(ctx[1:], {})
            for sym, c in row.items():
                bucket[sym] = bucket.get(sym, 0) + c
    return tables


def oracle_train(corpus: str, order: int, alphabet: Alphabet | None = None):
    """`train`'s alphabet and its table of each order 0..`order`, every order
    counted on its own: at each position of the BOS-padded corpus, the
    symbol is counted in the row of the j ids before it, for every j, and
    each context and each symbol of a row is inserted where the scan first
    meets it. No table is derived from another."""
    if alphabet is None:
        alphabet = build_alphabet(corpus)
    padded = [BOS] * order + alphabet.encode(corpus)
    tables = [{} for _ in range(order + 1)]
    for i in range(order, len(padded)):
        sym = padded[i]
        for j, table in enumerate(tables):
            row = table.setdefault(tuple(padded[i - j : i]), {})
            row[sym] = row.get(sym, 0) + 1
    return alphabet, tables


def _planes(columns, widths):
    """`columns`, each as its width byte (from `widths`, or else the
    narrowest of 1, 2, 4 and 8 that holds it), then every item's lowest
    byte, then every item's next byte, and so on."""
    if widths is None:
        widths = [min(w for w in (1, 2, 4, 8) if all(x < 256**w for x in col)) for col in columns]
    out = b""
    for width, column in zip(widths, columns):
        out += bytes([width])
        for plane in range(width):
            out += bytes(item.to_bytes(width, "little")[plane] for item in column)
    return out


def model_columns(order, table):
    """The five columns after the glyphs of an RWC6 file for `table`, a list
    of (context, [(symbol, count)]), as a dict: row lengths, symbols, counts,
    flags and root ids.

    Nodes are listed one at a time from a FIFO queue that starts with
    (BOS,) * order and then the roots: every context the walk from the start
    alone cannot reach, and every entry that repeats an earlier entry's
    context, sorted by context. A node's row is the first entry for its
    context, or none. Each of its row's (symbol, count) pairs, in the order
    given, leads to (context + (symbol,))[1:]; that successor is flagged 1,
    and queued, where it is met for the first time. At order 0 there are no
    flags. The roots' ids are listed column-major.
    """
    if not table:  # one start node, without a row
        return {"lengths": [0], "syms": [], "counts": [], "flags": [], "roots": []}
    first = {}
    for i, (ctx, _) in enumerate(table):
        first.setdefault(ctx, i)
    rows = {ctx: table[i][1] for ctx, i in first.items()}
    start = (BOS,) * order
    reached, queue = {start}, deque([start])
    while queue:
        ctx = queue.popleft()
        for sym, _ in rows.get(ctx, []):
            succ = (ctx + (sym,))[1:]
            if succ not in reached:
                reached.add(succ)
                queue.append(succ)
    roots = sorted([(ctx, row) for i, (ctx, row) in enumerate(table)
                    if first[ctx] != i or ctx not in reached], key=lambda entry: entry[0])
    columns = {"lengths": [], "syms": [], "counts": [], "flags": [], "roots": []}
    seen = {start} | {ctx for ctx, _ in roots}
    queue = deque([(start, rows.get(start, [])), *roots])
    while queue:
        ctx, row = queue.popleft()
        columns["lengths"].append(len(row))
        for sym, count in row:
            columns["syms"].append(sym)
            columns["counts"].append(count)
            succ = (ctx + (sym,))[1:]
            if order:
                columns["flags"].append(int(succ not in seen))
            if succ not in seen:
                seen.add(succ)
                queue.append((succ, rows.get(succ, [])))
    columns["roots"] = [ctx[j] for j in range(order) for ctx, _ in roots]
    return columns


def model_body(code_points, order, table, widths=None, **columns):
    """The six columns of an RWC6 file, written entry by entry: the glyph
    code points, then the row lengths, symbols, counts, flags and root ids
    of `model_columns(order, table)`, each replaced by the list of that name
    in `columns` when one is given. `widths` is as in `_planes`."""
    columns = {**model_columns(order, table), **columns}
    names = ("lengths", "syms", "counts", "flags", "roots")
    return _planes([list(code_points), *map(columns.get, names)], widths)


def model_file(order, smoothing, code_points, table, widths=None, n_nodes=None, level=1,
               **columns):
    """An RWC6 model file: its magic with version 6, a 24-byte header of
    order (u32), smoothing (f64), glyph count (u32) and node count (u64), then
    `model_body(code_points, order, table, widths, **columns)` under
    `zlib.compress` at `level`, so that it can hold what no valid model
    serializes to. `n_nodes`, when given, stands in for the node count."""
    if n_nodes is None:
        n_nodes = len(columns.get("lengths") or model_columns(order, table)["lengths"])
    header = b"RWC6" + struct.pack("<IdIQ", order, smoothing, len(code_points), n_nodes)
    return header + zlib.compress(model_body(code_points, order, table, widths, **columns), level)


def file_counts(blob):
    """(nodes, roots) of an RWC6 file, its columns read entry by entry: the
    header's node count, and that count less the start node and one node
    per flag."""
    order, _, n_glyphs, n_nodes = struct.unpack_from("<IdIQ", blob, 4)
    body = zlib.decompress(blob[28:])
    pos = 0

    def column(count):
        nonlocal pos
        width = body[pos]
        planes = body[pos + 1 : pos + 1 + width * count]
        pos += 1 + width * count
        return [int.from_bytes(planes[j::count], "little") for j in range(count)]

    column(n_glyphs)
    n_pairs = sum(column(n_nodes))
    column(n_pairs)  # symbols
    column(n_pairs)  # counts
    flags = column(n_pairs if order else 0)
    return n_nodes, n_nodes - 1 - sum(flags)


def compress_bound(n):
    """zlib's `compressBound(n)`: the most bytes `zlib.compress` writes for n
    bytes at any level."""
    return n + (n >> 12) + (n >> 14) + (n >> 25) + 13
