"""Differential test of the plan stages against their earlier, slower bodies.

A plan is predict -> select_kept (or full_support) -> quantize ->
FrequencyTable.from_freqs. The oracle functions below are the straightforward
versions of those stages: a full loop over the alphabet in `predict`, a
tuple-keyed sort in `_ranked`, and plain loops in `quantize` and `from_freqs`.
The library versions must return the same values to the bit, and raise the
same exception type wherever an oracle raises.
"""

import math
import sys
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rwc.coder import TOTAL, FrequencyTable, quantize
from rwc.model import (
    MAX_COUNT,
    Alphabet,
    ContextModel,
    Distribution,
    build_alphabet,
    context_key,
    predict,
    train,
)
from rwc.selector import KeptSet, SelectorParams, full_support, select_kept

PARAMS = SelectorParams.default()


# --- the oracle -------------------------------------------------------------


def oracle_predict(model, history):
    n = model.alphabet.size
    key = context_key(model.order, history)
    for j in range(model.order, -1, -1):
        counts = model.tables[j].get(key[model.order - j :])
        if counts:
            break
    probs = [0.0] * n
    beta = model.smoothing
    if beta:
        total = sum(counts.values()) + beta * (n - 1)
        for sym in range(1, n):
            probs[sym] = (counts.get(sym, 0) + beta) / total
    else:
        total = sum(counts.values())
        for sym, c in counts.items():
            probs[sym] = c / total
    return Distribution(tuple(probs))


def oracle_ranked(probs):
    ranked = sorted((i for i, p in enumerate(probs) if p > 0.0), key=lambda i: (-probs[i], i))
    if not ranked:
        raise ValueError("distribution has empty support")
    return ranked


def oracle_make_kept(members, probs):
    mass = sum(probs[i] for i in members)
    return KeptSet(
        members=tuple(members),
        renorm=tuple(probs[i] / mass for i in members),
        mass=mass,
    )


def oracle_select_kept(dist, params):
    probs = dist.probs
    ranked = oracle_ranked(probs)
    members = [ranked[0]]
    mass = probs[ranked[0]]
    for i in ranked[1:]:
        if probs[i] < params.alpha * mass:
            break
        members.append(i)
        mass += probs[i]
    return oracle_make_kept(members, probs)


def oracle_full_support(dist):
    return oracle_make_kept(oracle_ranked(dist.probs), dist.probs)


def oracle_quantize(weights):
    if not weights:
        raise ValueError("no weights to quantize")
    if any(w < 0 for w in weights):
        raise ValueError("negative weight")
    mass = float(sum(weights))
    if mass <= 0.0:
        raise ValueError("weights sum to zero")
    if len(weights) > TOTAL:
        raise ValueError("more weights than frequency units")
    raw = [w / mass * TOTAL for w in weights]
    base = [max(1, int(r)) for r in raw]
    leftover = TOTAL - sum(base)
    if leftover > 0:
        order = sorted(range(len(raw)), key=lambda i: (-(raw[i] - int(raw[i])), i))
        for i in order[:leftover]:
            base[i] += 1
    while leftover < 0:
        i = max(range(len(base)), key=lambda i: (base[i], -i))
        if base[i] <= 1:
            raise AssertionError("cannot reclaim below the floor of 1")
        base[i] -= 1
        leftover += 1
    return tuple(base)


def oracle_from_freqs(freqs):
    freqs = tuple(freqs)
    if not freqs:
        raise ValueError("empty frequency table")
    if any(f < 1 for f in freqs):
        raise ValueError("every frequency must be at least 1")
    if sum(freqs) != TOTAL:
        raise ValueError(f"frequencies must sum to {TOTAL}, got {sum(freqs)}")
    cum = [0]
    for f in freqs:
        cum.append(cum[-1] + f)
    return FrequencyTable(freqs=freqs, cum=tuple(cum))


# --- comparison -------------------------------------------------------------


def bits(xs):
    return tuple(map(float.hex, xs))


def describe(value):
    """A value in comparable form, floats by their exact bits."""
    if isinstance(value, Distribution):
        return ("dist", bits(value.probs))
    if isinstance(value, KeptSet):
        return ("kept", value.members, bits(value.renorm), float.hex(value.mass))
    if isinstance(value, FrequencyTable):
        return ("table", value.freqs, value.cum)
    if isinstance(value, tuple) and not all(type(v) is int for v in value):
        return tuple(map(describe, value))
    return value


def outcome(fn, *args):
    """What a call does: its value in comparable form, or its exception type."""
    try:
        return describe(fn(*args))
    except Exception as exc:
        return ("raises", type(exc))


def plan(dist, lossless, select, full, quant, table):
    kept = full(dist) if lossless else select(dist, PARAMS)
    return kept, table(quant(kept.renorm))


def assert_same_plan(model, history, lossless):
    dist = predict(model, history)
    want = oracle_predict(model, history)
    assert bits(dist.probs) == bits(want.probs)
    got = outcome(plan, dist, lossless, select_kept, full_support, quantize,
                  FrequencyTable.from_freqs)
    assert got == outcome(plan, want, lossless, oracle_select_kept, oracle_full_support,
                          oracle_quantize, oracle_from_freqs)


# --- models and histories ---------------------------------------------------


@st.composite
def models(draw):
    n_glyphs = draw(st.integers(1, 6))
    order = draw(st.integers(0, 3))
    smoothing = draw(st.sampled_from([0.0, 0.1, 1e12]))
    ids = st.integers(0, n_glyphs)
    count = st.one_of(st.integers(1, 9), st.integers(1, MAX_COUNT), st.just(MAX_COUNT))
    row = st.dictionaries(st.integers(1, n_glyphs), count, min_size=1)
    contexts = st.lists(ids, min_size=order, max_size=order).map(tuple)
    table = draw(st.dictionaries(contexts, row, min_size=1, max_size=6))
    alphabet = Alphabet(tuple(chr(0x41 + i) for i in range(n_glyphs)))
    return ContextModel(alphabet, order, smoothing, table)


@settings(max_examples=300)
@given(models(), st.data(), st.booleans())
def test_random_models_plan_identically(model, data, lossless):
    n = model.alphabet.size
    for _ in range(4):
        history = data.draw(st.lists(st.integers(1, n - 1), max_size=6))
        assert_same_plan(model, history, lossless)
    for ctx in model.counts:
        assert_same_plan(model, list(ctx), lossless)


def test_counts_past_two_to_the_53_divide_exactly():
    # (c + 0.0) / total rounds c and total to floats first; c / total does not.
    a = Alphabet(("A", "B"))
    m = ContextModel(a, 0, 0.0, {(): {1: 2**53 + 1, 2: 2**62 + 3}})
    assert bits(predict(m, []).probs) == bits(oracle_predict(m, []).probs)
    assert predict(m, []).probs[1] != (2**53 + 1 + 0.0) / (2**53 + 2**62 + 4)


# --- hand-built distributions -----------------------------------------------

awkward = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, -1.0, math.nan, math.inf, 5e-324, 1e308]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=500)
@given(st.lists(awkward, max_size=12), st.booleans())
@example([0.0, 0.5, 0.25, 0.25, 0.0, math.nan, -1.0, 0.25], False)
@example([0.0, -0.0, math.nan, -2.0], True)
@example([0.0, 0.1, 0.1, 0.1, 0.1], True)
def test_hand_built_distributions_rank_identically(probs, lossless):
    dist = Distribution(tuple(probs))
    if lossless:
        assert outcome(full_support, dist) == outcome(oracle_full_support, dist)
    else:
        assert outcome(select_kept, dist, PARAMS) == outcome(oracle_select_kept, dist, PARAMS)


# --- quantize and frequency tables ------------------------------------------


@settings(max_examples=500)
@given(st.lists(awkward, max_size=40))
@example([1e-9] * 300 + [1.0])
@example([0.3, 0.3, 0.3, 0.1])
@example([])
@example([-0.0, 1.0])
def test_quantize_matches(weights):
    assert outcome(quantize, weights) == outcome(oracle_quantize, weights)


def test_quantize_more_weights_than_units():
    weights = [1.0] * (TOTAL + 1)
    assert outcome(quantize, weights) == outcome(oracle_quantize, weights)


@settings(max_examples=300)
@given(st.one_of(
    st.lists(st.integers(-2, TOTAL), max_size=6),
    st.lists(st.floats(0.01, 1.0), min_size=1, max_size=30).map(quantize),
    st.lists(st.sampled_from([1, 0.5, math.nan, TOTAL]), max_size=4),
))
def test_frequency_tables_match(freqs):
    got = outcome(FrequencyTable.from_freqs, freqs)
    assert got == outcome(oracle_from_freqs, freqs)


# --- every context of the benchmark's text-k4 held-out text ------------------


def test_text_k4_held_out_contexts_plan_identically():
    """Every context opened by the held-out text of the benchmark's text-k4
    workload at its default seed: order 4, smoothing 0.1, 95 symbols."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    import run

    spec = run.SPEC["workloads"]["text-k4"]
    corpus = run.load_corpus(spec["corpus"])
    train_text, held = run.hold_out_stripes(corpus, spec["stripes"], run.ACCEPTANCE_SEED)
    model = train(train_text, spec["order"], run.SPEC["smoothing"], build_alphabet(corpus))
    assert (model.order, model.smoothing, model.alphabet.size) == (4, 0.1, 96)
    syms = model.alphabet.encode(held)
    keys = dict.fromkeys(context_key(4, syms[max(0, i - 4) : i]) for i in range(len(syms)))
    assert len(keys) > 4000
    for key in keys:
        assert_same_plan(model, key, lossless=False)
        assert_same_plan(model, key, lossless=True)
