"""Differential tests of the front-end paths that go through the general code.

`rwc analyze` counts with `train` and ranks with the selector, an IID source
is a one-state chain that `gen_markov` samples and that `model_from_chain`
gives an order-0 model. The oracles below are the earlier, separate
bodies: a `Counter` with a hand sort, a sampling loop of its own, and a count
loop of its own, over the glyphs and probabilities as given. Outputs must be
equal, and bad sources must raise `ValueError` in both.
"""

import tempfile
from bisect import bisect_right
from collections import Counter
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import rwc.cli
from rwc.cli import main
from rwc.harness import ChainSource, SplitMix64, gen_markov, model_from_chain
from rwc.model import Alphabet, ContextModel, entropy, surprise

from oracles import dense

# --- the oracles ------------------------------------------------------------


def oracle_cmd_analyze(args):
    corpus = rwc.cli._read_text(args.corpus)
    if not corpus:
        raise ValueError("empty corpus")
    ranked = sorted(Counter(corpus).items(), key=lambda kv: (-kv[1], kv[0]))
    probs = [c / len(corpus) for _, c in ranked]
    for (ch, _), p in zip(ranked, probs):
        print(f"char={ch!r} p={p:.6f} surprise={surprise(p):.6f}")
    print(f"entropy={entropy(dense([0.0, *probs])):.6f}")
    return 0


def oracle_check_source(glyphs, probs):
    if len(glyphs) != len(probs) or not glyphs:
        raise ValueError("need one probability per glyph")
    if not all(p >= 0 for p in probs) or not abs(sum(probs) - 1.0) <= 1e-9:
        raise ValueError("probabilities must be nonnegative and sum to 1")


def oracle_gen_iid(glyphs, probs, n, seed):
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = SplitMix64(seed)
    cum = list(accumulate(probs, initial=0.0))
    cum[-1] = 1.0
    pick = lambda u: min(bisect_right(cum, u) - 1, len(cum) - 2)
    return "".join(glyphs[pick(rng.uniform())] for _ in range(n))


def oracle_model_from_iid(glyphs, probs, scale=100):
    counts = {}
    for g, p in zip(glyphs, probs):
        c = round(p * scale)
        if abs(c - p * scale) > 1e-9:
            raise ValueError(f"probability {p} is not a multiple of 1/{scale}")
        counts[g] = c
    alphabet = Alphabet(glyphs)
    return ContextModel(alphabet, 0, 0.0, {(): {alphabet.id_of(g): c for g, c in counts.items()}})


def outcome(fn, *args):
    """The value of `fn(*args)`, or ValueError when it raises one."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


# --- rwc analyze ------------------------------------------------------------

ASCII = st.text(st.characters(max_codepoint=0x7F), max_size=200)
NON_BMP = st.text(
    st.one_of(st.characters(min_codepoint=0x10000), st.sampled_from("ab\r\n\ufeff")),
    max_size=60,
)
CORPORA = st.one_of(ASCII, NON_BMP, st.text(min_size=1, max_size=1), st.just(""))


def analyze(capsys, data: bytes, cmd=None):
    """Exit code, stdout and stderr of `rwc analyze` on a file holding `data`,
    with `cmd` standing in for the subcommand's body when given."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.txt"
        path.write_bytes(data)
        with pytest.MonkeyPatch.context() as mp:
            if cmd is not None:
                mp.setattr(rwc.cli, "cmd_analyze", cmd)
            code = main(["analyze", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(corpus=CORPORA)
def test_analyze_matches_the_counter_oracle(capsys, corpus):
    data = corpus.encode("utf-8")
    assert analyze(capsys, data) == analyze(capsys, data, oracle_cmd_analyze)


EDGE_FILES = [b"", b"x", b"\xef\xbb\xbfa\r\nb\r\n", b"\xff", "é𝄞é".encode("utf-8")]


@pytest.mark.parametrize("data", EDGE_FILES)
def test_analyze_matches_the_counter_oracle_on_edge_files(capsys, data):
    assert analyze(capsys, data) == analyze(capsys, data, oracle_cmd_analyze)


def test_analyze_matches_the_counter_oracle_on_the_readme(capsys):
    data = (Path(__file__).resolve().parents[1] / "README.md").read_bytes()
    assert analyze(capsys, data) == analyze(capsys, data, oracle_cmd_analyze)


# --- IID sources ------------------------------------------------------------


@st.composite
def sources(draw):
    """Distinct glyphs, their probabilities count / total, and that total."""
    glyphs = draw(st.lists(st.characters(), min_size=1, max_size=8, unique=True))
    counts = draw(st.lists(st.integers(1, 1000), min_size=len(glyphs), max_size=len(glyphs)))
    total = sum(counts)
    return tuple(glyphs), tuple(c / total for c in counts), total


@given(sources(), st.integers(0, 400), st.integers(0, 2**64 - 1))
def test_gen_iid_matches_the_sampling_loop(source, n, seed):
    glyphs, probs, _ = source
    want = oracle_gen_iid(glyphs, probs, n, seed)
    assert gen_markov(ChainSource.iid(glyphs, probs), n, seed) == want


@given(sources(), st.sampled_from([None, 1, 7, 100, 1000]))
def test_model_from_iid_matches_the_count_loop(source, scale):
    glyphs, probs, total = source
    scale = total if scale is None else scale
    assert outcome(model_from_chain, ChainSource.iid(glyphs, probs), scale) == (
        outcome(oracle_model_from_iid, glyphs, probs, scale)
    )


PROBS = st.one_of(
    st.floats(-0.5, 1.5),
    st.sampled_from([0.0, 0.25, 0.5, 1.0, -0.0, float("nan"), float("inf"), -1.0]),
)


@given(
    st.lists(st.characters(), max_size=5, unique=True),
    st.lists(PROBS, max_size=5),
)
@example(["A", "B"], [float("nan"), 1.0])
def test_bad_sources_raise_value_error_in_both(glyphs, probs):
    glyphs, probs = tuple(glyphs), tuple(probs)
    assert (outcome(ChainSource.iid, glyphs, probs) is ValueError) == (
        outcome(oracle_check_source, glyphs, probs) is ValueError
    )
