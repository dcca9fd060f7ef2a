"""Acceptance gate: one test per criterion, each printing its own verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own pass/fail report. Every statistical check runs
from the shipped seed, so the whole gate is deterministic.
"""

import math
import time
from contextlib import contextmanager
from operator import ne

from rwc.coder import TOTAL
from rwc.harness import (
    ACCEPTANCE_SEED,
    ChainSource,
    SplitMix64,
    eta_source,
    evaluate,
    gen_bytes,
    gen_markov,
    model_from_chain,
    two_state_chain,
)
from rwc.model import (
    Alphabet,
    build_alphabet,
    entropy,
    predict,
    surprise,
    train,
)
from rwc.rewind import decode_text, encode_document, render_trace, run_trace
from rwc.selector import (
    SelectorParams,
    marginal_f,
    select_kept,
    solve_alpha,
    subset_cost,
)

from oracles import brute_force_kept, dense, uniform_byte_model

PARAMS = SelectorParams.default()


@contextmanager
def criterion(num, summary):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d}: FAIL - {summary}")
        raise
    print(f"criterion {num:2d}: PASS - {summary}")


def seeded_dists(seed, count, min_weight):
    rng = SplitMix64(seed)
    for _ in range(count):
        size = 2 + rng.next() % 9
        weights = [min_weight + rng.uniform() for _ in range(size)]
        mass = sum(weights)
        yield dense((0.0,) + tuple(w / mass for w in weights))


def test_criterion_01_threshold_constant():
    with criterion(1, "threshold constant, identity residual, and sub-ms solve"):
        elapsed = math.inf
        for _ in range(3):
            start = time.perf_counter()
            alpha = solve_alpha()
            elapsed = min(elapsed, time.perf_counter() - start)
        assert abs(alpha - 0.18543) <= 1e-4
        assert abs((1 + alpha) ** (1 + alpha) - (16 * alpha) ** alpha) <= 1e-10
        assert abs(marginal_f(alpha)) <= 1e-9
        assert elapsed < 1e-3


def test_criterion_02_marginal_function_signs():
    with criterion(2, "marginal function positive below, negative and decreasing above"):
        alpha = PARAMS.alpha
        below = [0.001 + (alpha - 0.001) * (i + 1) / 1001 for i in range(1000)]
        assert all(marginal_f(x) > 0.0 for x in below)
        above = [alpha + (100.0 - alpha) * (i + 1) / 1000 for i in range(1000)]
        assert all(marginal_f(x) < 0.0 for x in above)
        grid = [alpha + (100.0 - alpha) * i / 999 for i in range(1000)]
        values = [marginal_f(x) for x in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_criterion_03_surprise_and_entropy():
    with criterion(3, "surprise and entropy of the three-character source"):
        assert abs(surprise(0.49) - 1.0291) <= 5e-4
        assert abs(surprise(0.02) - 5.6439) <= 5e-4
        eta = dense((0.0, 0.49, 0.49, 0.02))
        assert abs(entropy(eta) - 1.1214) <= 5e-4


def test_criterion_04_iid_worked_example():
    with criterion(4, "order-0 example: byte 0x67, one error, fourth guess T"):
        model = model_from_chain(eta_source())
        hints, report = encode_document(model, PARAMS, "ETATEETTT")
        assert hints.payload == b"\x67"
        assert hints.bit_count == 8
        trace = run_trace(model, PARAMS, hints, "ETATEETTT")
        assert trace.errors == 1
        assert trace.guesses[2] != trace.decoded[2]
        assert trace.guesses[3] == trace.decoded[3] == "T"


def test_criterion_05_chain_worked_example():
    with criterion(5, "order-1 example: byte 0x77, trace ET[T]HTETTT, rewind to H"):
        model = model_from_chain(two_state_chain())
        hints, report = encode_document(model, PARAMS, "ETAHTETTT")
        assert hints.payload == b"\x77"
        trace = run_trace(model, PARAMS, hints, "ETAHTETTT")
        assert render_trace(trace) == "ETAHTETTT\nET[T]HTETTT"
        assert trace.errors == 1
        assert trace.guesses[2] == "T" != trace.decoded[2]
        assert trace.guesses[3] == trace.decoded[3] == "H"


def test_criterion_06_selection_matches_exhaustive_search():
    with criterion(6, "1000 random distributions: selection attains the exhaustive minimum"):
        start = time.perf_counter()
        for dist in seeded_dists(ACCEPTANCE_SEED, 1000, 0.01):
            chosen = subset_cost(dist, select_kept(dist, PARAMS).members)
            best = subset_cost(dist, brute_force_kept(dist).members)
            assert abs(chosen - best) <= 1e-12
        assert time.perf_counter() - start < 5.0


def test_criterion_07_marginal_identity():
    with criterion(7, "1000 random triples satisfy the add-one-symbol cost identity"):
        rng = SplitMix64(ACCEPTANCE_SEED ^ 0x5EED)
        checked = 0
        for dist in seeded_dists(ACCEPTANCE_SEED + 7, 1000, 0.05):
            support = tuple(i for i, p in enumerate(dist.probs) if p > 0.0)
            size = 1 + rng.next() % (len(support) - 1)
            members = support[:size]
            outside = [i for i in support if i not in members]
            j = outside[rng.next() % len(outside)]
            mass = sum(dist.probs[i] for i in members)
            lhs = (subset_cost(dist, members + (j,)) - subset_cost(dist, members)) / mass
            rhs = marginal_f(dist.probs[j] / mass)
            assert abs(lhs - rhs) <= 1e-10
            checked += 1
        assert checked == 1000


def test_criterion_08_rate_law():
    with criterion(8, "lossless coding of 100k three-character text costs ~1.1214 bits/char"):
        text = gen_markov(eta_source(), 100000, ACCEPTANCE_SEED)
        model = model_from_chain(eta_source())
        start = time.perf_counter()
        hints, report = encode_document(model, PARAMS, text, lossless=True)
        elapsed = time.perf_counter() - start
        assert report.skipped == 0
        assert abs(hints.bit_count - 112140) <= 0.01 * 112140
        assert elapsed < 2.0


def test_criterion_09_incompressibility():
    with criterion(9, "lossless coding of 10k random bytes saves nothing and round-trips"):
        data = gen_bytes(10000, ACCEPTANCE_SEED)
        text = data.decode("latin-1")
        model = uniform_byte_model()
        hints, report = encode_document(model, PARAMS, text, lossless=True)
        assert hints.byte_length >= 9990
        assert decode_text(model, PARAMS, hints, len(text), lossless=True) == text


_LETTERS = "ETASHONIRD"


def _random_instance(rng):
    """One (model, text) pair: iid or chain source, exact or trained model."""
    if rng.next() % 2 == 0:
        size = 2 + rng.next() % 7
        glyphs = tuple(_LETTERS[:size])
        counts = [1 + rng.next() % 50 for _ in range(size)]
        total = sum(counts)
        source = ChainSource.iid(glyphs, tuple(c / total for c in counts))
        sample = lambda n, seed: gen_markov(source, n, seed)
        exact = lambda: model_from_chain(source, scale=total)
    else:
        emit_a = 2 + rng.next() % 3
        emit_b = 2 + rng.next() % 2
        glyphs = tuple(_LETTERS[: emit_a + emit_b])
        counts_a = [1 + rng.next() % 50 for _ in range(emit_a)]
        counts_b = [1 + rng.next() % 50 for _ in range(emit_b)]
        total_a, total_b = sum(counts_a), sum(counts_b)
        rows = {
            "main": tuple(
                (g, c / total_a, "second" if i == emit_a - 1 else "main")
                for i, (g, c) in enumerate(zip(glyphs[:emit_a], counts_a))
            ),
            "second": tuple(
                (g, c / total_b, "main") for g, c in zip(glyphs[emit_a:], counts_b)
            ),
        }
        source = ChainSource("main", rows)
        sample = lambda n, seed: gen_markov(source, n, seed)
        exact = lambda: model_from_chain(source, scale=total_a * total_b)

    if rng.next() % 2 == 0:
        model = exact()
    else:
        order = rng.next() % 3
        beta = 0.1 if rng.next() % 2 == 0 else 0.0
        model = train(sample(400, rng.next()), order, beta, alphabet=Alphabet(glyphs))

    if rng.next() % 4 == 0:
        length = rng.next() % 60
        text = "".join(glyphs[rng.next() % len(glyphs)] for _ in range(length))
    else:
        text = sample(rng.next() % 200, rng.next())
    return model, text


def _skipped_flags(model, text):
    flags = []
    history = []
    for sym in model.alphabet.encode(text):
        kept = select_kept(predict(model, history), PARAMS)
        flags.append(sym not in kept.members)
        history.append(sym)
    return flags


def _check_instance(model, text):
    flags = _skipped_flags(model, text)
    hints, report = encode_document(model, PARAMS, text)
    first = run_trace(model, PARAMS, hints, text)
    second = run_trace(model, PARAMS, hints, text)
    assert first == second
    assert first.errors == sum(flags) == report.skipped
    assert first.decoded == text
    assert list(map(ne, first.guesses, first.decoded)) == flags


def test_criterion_10_fuzzed_pipeline_invariants():
    with criterion(10, "500 fuzzed runs: errors = dropped positions, traces deterministic"):
        rng = SplitMix64(ACCEPTANCE_SEED + 10)
        for _ in range(500):
            model, text = _random_instance(rng)
            _check_instance(model, text)


def test_criterion_11_desk_scale_corpus():
    with criterion(11, "order-2 model on 100KB corpus scores a held-out 10KB slice in time"):
        full = gen_markov(two_state_chain(), 110000, ACCEPTANCE_SEED)
        train_slice, held_out = full[:100000], full[100000:]
        start = time.perf_counter()
        model = train(train_slice, 2, 0.1, alphabet=build_alphabet(full))
        report, trace = evaluate(model, PARAMS, held_out)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        assert report.score == 2 * report.hint_bytes + report.errors
        assert report.summary_line().startswith(f"L={report.hint_bytes} E={report.errors}")
        flags = _skipped_flags(model, held_out)
        hints, encoded = encode_document(model, PARAMS, held_out)
        assert trace.errors == sum(flags) == encoded.skipped == report.errors
        assert list(map(ne, trace.guesses, trace.decoded)) == flags
        assert run_trace(model, PARAMS, hints, held_out) == trace
