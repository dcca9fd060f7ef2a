"""Differential test of the plan stages against their earlier, slower bodies.

A plan is predict -> select_kept (or full_support) -> quantize ->
FrequencyTable.from_freqs. The oracle functions below are the straightforward
versions of those stages: a full loop over the alphabet in `predict`, a
tuple-keyed sort of every positive id in `select_kept`, and plain loops in
`quantize` and `from_freqs`.
The library versions must return the same values to the bit, and raise the
same exception type wherever an oracle raises. Float masses are summed left
to right, which is what `sum()` did before CPython 3.12 made it compensated.

`predict` returns only the matched row's ids above the smoothing floor and
the floor itself; the selector ranks that row, then walks the other ids at the
floor in ascending order. `oracle_predict` lays out a probability for every
id, and the oracle selector ranks them all. So whole plans are compared: the
sparse row and floor against the dense list, at smoothing 0 and above it.
"""

import math
import random
import sys
import time
from functools import reduce
from operator import add
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rwc.coder import TOTAL, FrequencyTable, quantize
from rwc.model import (
    BOS,
    Alphabet,
    ContextModel,
    Distribution,
    build_alphabet,
    context_key,
    predict,
    train,
)
from rwc.rewind import _PlanCache
from rwc.selector import KeptSet, SelectorParams, full_support, select_kept

from oracles import ALPHA_VALUES, check_kept, dense, histories, make_kept, models

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
    return dense(probs)


def oracle_ranked(probs):
    ranked = sorted((i for i, p in enumerate(probs) if p > 0.0), key=lambda i: (-probs[i], i))
    if not ranked:
        raise ValueError("distribution has empty support")
    return ranked


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
    return make_kept(members, probs)


def oracle_full_support(dist):
    return make_kept(oracle_ranked(dist.probs), dist.probs)


def oracle_quantize(weights):
    if not weights:
        raise ValueError("no weights to quantize")
    if any(w < 0 for w in weights):
        raise ValueError("negative weight")
    mass = float(reduce(add, weights, 0))
    if not 0.0 < mass < math.inf:
        raise ValueError("weights do not sum to a positive finite number")
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
    return FrequencyTable(tuple(cum))


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
        return ("table", value.cum)
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
    assert BOS not in dist.row and all(p > dist.floor for p in dist.row.values())
    want = oracle_predict(model, history)
    assert bits(dist.probs) == bits(want.probs)
    assert bits(predict(model, tuple(history)).probs) == bits(dist.probs)
    got = outcome(plan, dist, lossless, select_kept, full_support, quantize,
                  FrequencyTable.from_freqs)
    assert got == outcome(plan, want, lossless, oracle_select_kept, oracle_full_support,
                          oracle_quantize, oracle_from_freqs)


# --- whole plans, predicted and cached ----------------------------------------


def order0(n_glyphs, smoothing, row):
    """An order-0 model over the glyphs A, B, ... with one count row."""
    return ContextModel(Alphabet(tuple(chr(0x41 + i) for i in range(n_glyphs))), 0, smoothing,
                        {(): row})


# The floor 1/9 of eight glyphs at smoothing 1 clears alpha times the kept mass
# for four of the seven floor ids.
FLOOR_KEPT_LOSSY = order0(8, 1.0, {3: 1})
SWAMPED = order0(5, 2.0**60, {4: 3, 2: 1})
PAST_2_53 = order0(3, 0.0, {1: 2**53 + 1, 2: 2**62 + 3})  # C is unseen: probability 0


@settings(max_examples=400)
@given(models(), st.data())
def test_random_models_plan_identically(model, data):
    for history in histories(model, data, 4):
        for lossless in (False, True):
            assert_same_plan(model, history, lossless)


def test_predicted_plans_equal_the_oracle_plans():
    """The hand-built models above, at their one context, both ways."""
    for model in (order0(5, 0.5, {5: 2, 3: 7, 1: 2}), FLOOR_KEPT_LOSSY, SWAMPED, PAST_2_53):
        for lossless in (False, True):
            assert_same_plan(model, [], lossless)


@settings(max_examples=300)
@given(models(), st.data(), st.booleans())
def test_cached_plans_equal_the_oracle_plans(model, data, lossless):
    """The plan cache gives each history the oracle's members, table and
    index of each member."""
    plans = _PlanCache(model, PARAMS, lossless)
    for history in histories(model, data, 1):
        members, table, index_of = plans[context_key(model.order, history)]
        kept, want = plan(oracle_predict(model, history), lossless, oracle_select_kept,
                          oracle_full_support, oracle_quantize, oracle_from_freqs)
        assert (members, table.cum) == (kept.members, want.cum)
        assert index_of == {sym: i for i, sym in enumerate(kept.members)}


def assert_one_table_per_renorm(model, lookups, lossless):
    """Within one cache, two plans hold the same `FrequencyTable` object
    exactly when the oracle's kept sets for them have equal renorms, and
    every one-member plan holds the table (0, TOTAL)."""
    plans = _PlanCache(model, PARAMS, lossless)
    seen = []
    for history in lookups:
        members, table, _ = plans[context_key(model.order, history)]
        kept, _ = plan(oracle_predict(model, history), lossless, oracle_select_kept,
                       oracle_full_support, oracle_quantize, oracle_from_freqs)
        assert len(members) > 1 or table.cum == (0, TOTAL)
        seen.append((kept.renorm, table))
    for renorm, table in seen:
        assert [t is table for _, t in seen] == [r == renorm for r, _ in seen]


@settings(max_examples=300)
@given(models(), st.data(), st.booleans())
def test_plans_share_a_table_exactly_when_their_renorms_are_equal(model, data, lossless):
    assert_one_table_per_renorm(model, histories(model, data, 1), lossless)


# (1,) and (2,) keep the same members with other renorms; (1,) and (3,) keep
# other members with the same renorm; (0,) keeps one member.
SHARED_RENORMS = ContextModel(Alphabet(("A", "B", "C")), 1, 0.0, {
    (1,): {1: 1, 2: 1}, (2,): {1: 2, 2: 1}, (3,): {3: 1, 1: 1}, (0,): {2: 5},
})


@pytest.mark.parametrize("lossless", [False, True])
def test_equal_renorms_share_a_table_and_equal_members_need_not(lossless):
    assert_one_table_per_renorm(SHARED_RENORMS, [[1], [2], [3], [0], [1]], lossless)
    plans = _PlanCache(SHARED_RENORMS, PARAMS, lossless)
    assert plans[(1,)][0] == plans[(2,)][0] and plans[(1,)][1] is not plans[(2,)][1]
    assert plans[(1,)][0] != plans[(3,)][0] and plans[(1,)][1] is plans[(3,)][1]


def test_counts_past_two_to_the_53_divide_exactly():
    # (c + 0.0) / total rounds c and total to floats first; c / total does not.
    a = Alphabet(("A", "B"))
    m = ContextModel(a, 0, 0.0, {(): {1: 2**53 + 1, 2: 2**62 + 3}})
    assert bits(predict(m, []).probs) == bits(oracle_predict(m, []).probs)
    assert predict(m, []).probs[1] != (2**53 + 1 + 0.0) / (2**53 + 2**62 + 4)


def test_seen_ids_swamped_by_smoothing_rank_in_the_tail():
    # c + beta == beta for both seen ids, so all five ids tie at the floor and
    # the ranking is ascending id, the same as the dense stable sort.
    dist = predict(SWAMPED, [])
    assert dist.row == {}
    assert full_support(dist).members == (1, 2, 3, 4, 5)
    assert_same_plan(SWAMPED, [], lossless=True)


def test_head_ranks_seen_ids_by_probability_then_id():
    m = order0(5, 0.5, {5: 2, 3: 7, 1: 2})
    dist = predict(m, [])
    assert sorted(dist.row) == [1, 3, 5]
    assert full_support(dist).members == (3, 1, 5, 2, 4)
    assert_same_plan(m, [], lossless=True)


def test_floor_ids_are_kept_in_ascending_order():
    dist = predict(FLOOR_KEPT_LOSSY, [])
    assert (dist.row, dist.floor) == ({3: 2 / 9}, 1 / 9)
    assert select_kept(dist, PARAMS).members == (3, 1, 2, 4, 5)
    assert_same_plan(FLOOR_KEPT_LOSSY, [], lossless=False)


# --- hand-built distributions -----------------------------------------------

awkward = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, -1.0, math.nan, math.inf, 5e-324, 1e308]),
    st.floats(allow_nan=True, allow_infinity=True),
)


# `select_kept` tests its first ranked id against alpha * 0.0 like any other;
# the oracle keeps it unconditionally. Each of these must agree with that.
ALPHAS = st.sampled_from(ALPHA_VALUES)


@settings(max_examples=500)
@given(st.lists(awkward, max_size=12), st.booleans(), ALPHAS)
@example([0.0, 0.5, 0.25, 0.25, 0.0, math.nan, -1.0, 0.25], False, PARAMS.alpha)
@example([0.0, -0.0, math.nan, -2.0], True, PARAMS.alpha)
@example([0.0, 0.1, 0.1, 0.1, 0.1], True, PARAMS.alpha)
@example([0.0, math.inf, 0.5, math.inf], False, math.inf)
@example([0.0, 5e-324, 0.25, 0.25], False, math.nan)
def test_hand_built_distributions_rank_identically(probs, lossless, alpha):
    dist = dense(probs)
    params = SelectorParams(alpha=alpha)
    if lossless:
        assert outcome(full_support, dist) == outcome(oracle_full_support, dist)
    else:
        assert outcome(select_kept, dist, params) == outcome(oracle_select_kept, dist, params)


@settings(max_examples=300)
@given(models(), st.data())
def test_predicted_distributions_select_as_the_oracle_at_any_alpha(model, data):
    for history in histories(model, data, 3):
        dist = predict(model, history)
        for alpha in ALPHA_VALUES:
            params = SelectorParams(alpha=alpha)
            assert outcome(select_kept, dist, params) == outcome(oracle_select_kept, dist, params)


@settings(max_examples=300)
@given(models(), st.data())
def test_predicted_kept_sets_hold_their_invariants(model, data):
    """Every kept set selected from a prediction, lossless or at any alpha,
    passes `check_kept`: `select_kept` holds its invariants by construction."""
    for history in histories(model, data, 1):
        dist = predict(model, history)
        check_kept(full_support(dist))
        for alpha in ALPHA_VALUES:
            check_kept(select_kept(dist, SelectorParams(alpha=alpha)))


# --- quantize and frequency tables ------------------------------------------


@settings(max_examples=500)
@given(st.lists(awkward, max_size=40))
@example([1e-9] * 300 + [1.0])
@example([0.3, 0.3, 0.3, 0.1])
@example([])
@example([-0.0, 1.0])
@example([1e308, 1e308])
def test_quantize_matches(weights):
    assert outcome(quantize, weights) == outcome(oracle_quantize, weights)


def test_quantize_more_weights_than_units():
    weights = [1.0] * (TOTAL + 1)
    assert outcome(quantize, weights) == outcome(oracle_quantize, weights)


@pytest.mark.parametrize("seed", range(4))
def test_quantize_reclaims_a_deficit_as_the_oracle(seed):
    # Integer weights summing to TOTAL have exact shares; each 5e-324 weight
    # adds nothing to the mass but is lifted to the floor of 1, so `quantize`
    # owes one unit per tiny weight and takes them back from the largest
    # entries, many of them tied.
    rng = random.Random(seed)
    cuts = sorted(rng.sample(range(1, TOTAL), 3_899))
    weights = [float(b - a) for a, b in zip([0] + cuts, cuts + [TOTAL])]
    weights += [5e-324] * 100
    rng.shuffle(weights)
    assert sum(max(1, int(w)) for w in weights) == TOTAL + 100
    assert quantize(weights) == oracle_quantize(weights)


def test_quantize_reclaims_a_large_deficit_in_little_time():
    # One weight takes 46,811 units and 65,535 tiny ones one each: 46,810
    # units are owed, and every entry ends at the floor. Rescanning all the
    # entries for the largest one per unit owed takes minutes.
    weights = [1.0] + [0.4 / TOTAL] * (TOTAL - 1)
    start = time.perf_counter()
    assert quantize(weights) == (1,) * TOTAL
    assert time.perf_counter() - start < 5.0


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
