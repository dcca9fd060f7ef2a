"""Hints payloads do not depend on the interpreter.

CPython 3.12 made `sum()` of floats compensated, so any kept mass or
quantizer mass taken with `sum()` would round differently there, and hints
written under one version would decode wrongly under another. The plan path
sums left to right instead. These tests pin that: a table that drifted, the
plan path under a compensated `sum()`, and the payload digests of a matrix of
configurations on the benchmark's frozen corpus, recorded under CPython 3.11.
A run on any interpreter that codes differently fails here.
"""

import builtins
import hashlib
from functools import reduce
from operator import add
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import rwc.coder
import rwc.model
import rwc.rewind
import rwc.selector
from rwc.coder import quantize
from rwc.model import Alphabet, ContextModel, build_alphabet, predict, train
from rwc.rewind import _PlanCache, encode_document
from rwc.selector import SelectorParams, full_support, select_kept

from oracles import dense

PARAMS = SelectorParams.default()
CORPUS = Path(__file__).resolve().parents[1] / "bench" / "data" / "text-d454171.txt"
CORPUS_SHA256 = "40b0864e672dc595226f31c8eb34159bcfce3611fdeb8fcf48eb27608a17d853"

# Counts (12, 11, 25, 38) smoothed by 0.1: a compensated kept mass moves one
# frequency unit from the last member to the first.
DRIFT_COUNTS = (12, 11, 25, 38)
DRIFT_TABLE = (28899, 19039, 9178, 8420)


def compensated_sum(iterable, /, start=0):
    """`sum()` as CPython 3.12+ computes it: ints exactly, floats with
    Neumaier compensation."""
    xs = list(iterable)
    if not any(isinstance(x, float) for x in [start, *xs]):
        return builtins.sum(xs, start)
    total, comp = float(start), 0.0
    for x in xs:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp


def drift_dist():
    total = sum(DRIFT_COUNTS) + 0.1 * len(DRIFT_COUNTS)
    return dense((0.0,) + tuple((c + 0.1) / total for c in DRIFT_COUNTS))


def plans(dist):
    """The lossy and lossless plan of `dist`: members, mass bits and table."""
    out = []
    for kept in (select_kept(dist, PARAMS), full_support(dist)):
        out.append((kept.members, kept.mass.hex(), quantize(kept.renorm)))
    return out


def predicted_plans(model):
    """The plans of `model`'s prediction at (), as `plans` gives them, and
    the lossy and lossless plan cache's members and table there."""
    cached = [_PlanCache(model, PARAMS, lossless)[()] for lossless in (False, True)]
    return plans(predict(model, ())), [(members, table.cum) for members, table, _ in cached]


def under_compensated_sum(fn, *args):
    """`fn(*args)` with every plan-stage module's `sum` compensated."""
    with pytest.MonkeyPatch.context() as mp:
        for module in (rwc.model, rwc.selector, rwc.coder, rwc.rewind):
            mp.setattr(module, "sum", compensated_sum, raising=False)
        return fn(*args)


def test_compensated_sum_differs_from_ordered_sum():
    """The stand-in really is the 3.12 rounding: it moves the drift case's mass."""
    weights = full_support(drift_dist()).renorm
    assert compensated_sum(weights) != reduce(add, weights, 0)


def test_drift_case_table_is_pinned():
    assert quantize(full_support(drift_dist()).renorm) == DRIFT_TABLE


def test_drift_case_plans_ignore_a_compensated_sum():
    dist = drift_dist()
    assert under_compensated_sum(plans, dist) == plans(dist)
    model = ContextModel(Alphabet("abcd"), 0, 0.1, {(): dict(enumerate(DRIFT_COUNTS, 1))})
    assert under_compensated_sum(predicted_plans, model) == predicted_plans(model)
    assert predicted_plans(model)[0] == plans(dist)


@given(
    st.lists(st.integers(1, 10**6), min_size=1, max_size=12),
    st.integers(0, 20),
    st.sampled_from([0.0, 0.1, 0.5, 3.0]),
)
def test_predicted_plans_ignore_a_compensated_sum(counts, unseen, smoothing):
    alphabet = Alphabet(tuple(chr(0x61 + i) for i in range(len(counts) + unseen)))
    model = ContextModel(alphabet, 0, smoothing, {(): dict(enumerate(counts, 1))})
    assert under_compensated_sum(predicted_plans, model) == predicted_plans(model)


# sha256 of the hints payload for the last tenth of the frozen corpus, coded
# by a model trained on the first nine tenths (with the whole corpus's
# alphabet), keyed by order, then (smoothing, lossless). Recorded under
# CPython 3.11; 3.12+ gave five different payloads before the plan path
# stopped taking float sums with `sum()`.
PAYLOAD_SHA256 = {
    0: {
        (0.0, False): "fb9ab79a37b30c5d6a6727dd45c749379f583197e253f8a9ace6feed46b96b0c",
        (0.0, True): "75f7f284b091581b7c6564f94c5408b2f2335ac96aca8c5959d92ffa5862db35",
        (0.1, False): "fb9ab79a37b30c5d6a6727dd45c749379f583197e253f8a9ace6feed46b96b0c",
        (0.1, True): "40f4a6a0a3f2c54dae989f5e1a14a1ab43b199b5b64582061d49c8a8672a6ebd",
        (0.5, False): "1546fef1b0233f19740499260a60bf99edfdb21688ec9571422c5c4c50ff93ae",
        (0.5, True): "11a3c148bf2b48b65180cf600f11c5781766b516db8ffc523a2339de6b1260d6",
    },
    1: {
        (0.0, False): "23985de8e496b0bc1586d8a66ccc64b303e7e44e447226c97afe630495f5a056",
        (0.0, True): "5265455f2177216f315c386f10ef19deee9aa03a82db0e3518d42fbf3b66b14d",
        (0.1, False): "1bcee22ebb36d4c49d7b4e6fa56970442ba294f0006276e6baee1ffdb97e3219",
        (0.1, True): "3eff281544b84c177c53239ad7dbee4708e032f1b6d82baaa1ee35ed8f8f1e5c",
        (0.5, False): "215db4c9207a9bdcf1282580942f3b11d4d89e65f6c2c1daec12440c151ae8bc",
        (0.5, True): "76063ca570f86d35c3b8c6acf570bd52fe8ce3f445f949b52e956d6aff2632a0",
    },
    2: {
        (0.0, False): "1ad6426feda5176c58e28c4f451234a8b10fe8579cd82adabbc39e7b645ab3ec",
        (0.0, True): "54bc647ef39c676c7be69b80dab88a810d6dedc1341f20c65483621fe03249b6",
        (0.1, False): "3e266ca7a7047e9dda59cfc86b7283c522b7ca6e5a3ac34d6475e8608cbe380c",
        (0.1, True): "7699b0f6a256ebc079c89dde396540358f2328dac6e351a71f603c604cf2139f",
        (0.5, False): "f5d032ce43e2a1da94b49003fd2f3fe6ef956ecd4eb9a79f53a8828bd4d2fa0f",
        (0.5, True): "a01a220bd13ab028d02c922d3f9d0b69b6c5c89d7295e7abc292f8e03f23b5e5",
    },
    3: {
        (0.0, False): "0a33501ef4b4f9a854a6f9ea0d852293f93c39d15c60b761946e989f9d323419",
        (0.0, True): "00304a38a32d7485a87d3f50734f92542bfbc3e2f688c107e7a359a6b67efa66",
        (0.1, False): "c48335522e7dd36af1641b281e1d15a93cd4d14605ddecda4f9d2d253b3a58f7",
        (0.1, True): "50f77c87ac2859454707bb3f96fd07bf47719fa8c4c4bd9b6b91026dde471af0",
        (0.5, False): "920aaa976bfb55078bd55a818197d22ef82a40605a361e22c0b05b927f3ec51e",
        (0.5, True): "7f37dd0eba14c17c7604bdc1b254cfb82392bab9a78a4b27e5c232a52ad67591",
    },
    4: {
        (0.0, False): "8148aa4bff574752cb355ff42d67da09b0d2ec59b3a157ebb5e96683eb17bd8b",
        (0.0, True): "1a292d6cd8ef5d9e41fef964d5759e049c93d2481caf70311f32b987c83237f3",
        (0.1, False): "ab4074a6e52d4c686851486d5612e3d0826d2dc6fd4fccde1a8202039155430b",
        (0.1, True): "b0bae20fe4951cfd25a6d016083d9ebdf5086809f91a1777d5c41945a042f1a1",
        (0.5, False): "04a84d5b2ec7008ace14e6ed81daaef21d02bf88ca944823ee164bb83778b9c1",
        (0.5, True): "94b6949897f652b793493c4916678ce5554da45c69cc6ed028ff32d4b6ba8a2e",
    },
}


@pytest.fixture(scope="module")
def corpus():
    data = CORPUS.read_bytes()
    assert hashlib.sha256(data).hexdigest() == CORPUS_SHA256, "the frozen corpus changed"
    text = data.decode("utf-8")
    cut = len(text) * 9 // 10
    return build_alphabet(text), text[:cut], text[cut:]


@pytest.mark.parametrize("order", sorted(PAYLOAD_SHA256))
def test_payload_digests_are_pinned(corpus, order):
    alphabet, head, tail = corpus
    counts = train(head, order, 0.0, alphabet).counts
    got = {}
    for smoothing, lossless in PAYLOAD_SHA256[order]:
        model = ContextModel(alphabet, order, smoothing, counts)
        hints, _ = encode_document(model, PARAMS, tail, lossless=lossless)
        got[smoothing, lossless] = hashlib.sha256(hints.payload).hexdigest()
    assert got == PAYLOAD_SHA256[order]
