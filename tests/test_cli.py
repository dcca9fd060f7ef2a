import math
import os
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rwc.cli import main
from rwc.harness import evaluate, model_from_chain, two_state_chain
from rwc.model import MAX_ORDER, Alphabet, ContextModel, parse_model, serialize_model
from rwc.rewind import render_trace


@pytest.fixture()
def chain_files(tmp_path, chain_model):
    model_path = tmp_path / "chain.rwc"
    model_path.write_bytes(serialize_model(chain_model))
    text_path = tmp_path / "doc.txt"
    text_path.write_text("ETAHTETTT", encoding="utf-8")
    return tmp_path, str(model_path), str(text_path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def model_file(order, smoothing, code_points, table):
    """An RWC2 model file written field by field, so that it can hold what no
    valid model serializes to. `table` lists (context, [(symbol, count)])."""
    out = b"RWC2" + struct.pack("<IdI", order, smoothing, len(code_points))
    out += struct.pack(f"<{len(code_points)}I", *code_points)
    out += struct.pack("<Q", len(table))
    for ctx, row in table:
        out += struct.pack(f"<{order}I", *ctx) + struct.pack("<I", len(row))
        for sym, count in row:
            out += struct.pack("<IQ", sym, count)
    return out


ETAHS = [ord(g) for g in "ETAHS"]  # covers the chain_files document
HOSTILE_MODELS = {
    "infinite smoothing": model_file(0, math.inf, ETAHS, [((), [(1, 1)])]),
    "smoothing mass overflows": model_file(0, 1e308, ETAHS, [((), [(1, 1)])]),
    "NaN smoothing": model_file(0, math.nan, ETAHS, [((), [(1, 1)])]),
    "negative smoothing": model_file(0, -1.0, ETAHS, [((), [(1, 1)])]),
    "zero count without smoothing": model_file(0, 0.0, ETAHS, [((), [(1, 0)])]),
    "empty table": model_file(0, 0.1, ETAHS, []),
    "empty row": model_file(0, 0.1, ETAHS, [((), [])]),
    "code point past 2**31": model_file(0, 0.1, ETAHS + [2**31], [((), [(1, 1)])]),
    "code point past Unicode": model_file(0, 0.1, ETAHS + [0x110000], [((), [(1, 1)])]),
    "context id outside alphabet": model_file(1, 0.1, ETAHS, [((7,), [(1, 1)])]),
    "symbol id outside alphabet": model_file(0, 0.1, ETAHS, [((), [(7, 1)])]),
    "order past MAX_ORDER": model_file(
        MAX_ORDER + 1, 0.1, ETAHS, [((1,) * (MAX_ORDER + 1), [(1, 1)])]
    ),
    "retired RWC1 version": b"RWC1" + model_file(0, 0.1, ETAHS, [((), [(1, 1)])])[4:],
    "context listed twice": model_file(0, 0.1, ETAHS, [((), [(1, 1)]), ((), [(2, 1)])]),
    "symbol listed twice": model_file(0, 0.1, ETAHS, [((), [(1, 1), (1, 2)])]),
}


def test_model_file_helper_writes_the_serialized_format():
    m = ContextModel.from_counts(Alphabet(("E", "T")), 1, {(0,): {1: 3}, (1,): {1: 1, 2: 2}}, 0.1)
    table = [((0,), [(1, 3)]), ((1,), [(1, 1), (2, 2)])]
    assert model_file(1, 0.1, [69, 84], table) == serialize_model(m)


class TestAlpha:
    def test_prints_ten_digit_value_and_residual(self, capsys):
        code, out, _ = run(capsys, "alpha")
        lines = out.splitlines()
        assert code == 0
        assert lines[0].startswith("0.1854")
        assert len(lines[0].split(".")[1]) == 10
        assert float(lines[1].split("=")[1]) <= 1e-10


class TestTrain:
    def test_writes_parseable_model(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("ETATEETTT", encoding="utf-8")
        out_path = tmp_path / "model.rwc"
        code, out, _ = run(capsys, "train", str(corpus), str(out_path), "-k", "1", "-b", "0.5")
        assert code == 0
        model = parse_model(out_path.read_bytes())
        assert model.order == 1
        assert model.smoothing == 0.5
        assert "alphabet=3" in out

    def test_missing_corpus_exits_two(self, tmp_path, capsys):
        code, _, err = run(capsys, "train", str(tmp_path / "nope.txt"), str(tmp_path / "m"))
        assert code == 2
        assert "missing file" in err

    def test_no_temp_file_left_behind(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("ABAB", encoding="utf-8")
        out_path = tmp_path / "model.rwc"
        code, _, _ = run(capsys, "train", str(corpus), str(out_path))
        assert code == 0
        assert sorted(os.listdir(tmp_path)) == ["corpus.txt", "model.rwc"]

    def test_existing_tmp_file_survives(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("ABAB", encoding="utf-8")
        (tmp_path / "model.rwc.tmp").write_bytes(b"the user's own file")
        code, _, _ = run(capsys, "train", str(corpus), str(tmp_path / "model.rwc"))
        assert code == 0
        assert (tmp_path / "model.rwc.tmp").read_bytes() == b"the user's own file"
        assert sorted(os.listdir(tmp_path)) == ["corpus.txt", "model.rwc", "model.rwc.tmp"]

    def test_missing_output_directory_names_the_given_path(self, tmp_path, capsys):
        out_path = str(tmp_path / "no" / "such" / "x")
        code, _, err = run(capsys, "gen", "eta", "10", "--out", out_path)
        assert code == 2
        assert err == f"error: missing file: {out_path}\n"
        assert ".tmp" not in err

    def test_failed_rename_removes_the_temp_file(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("ABAB", encoding="utf-8")
        (tmp_path / "taken").mkdir()
        code, _, err = run(capsys, "train", str(corpus), str(tmp_path / "taken"))
        assert code == 1
        assert err.startswith("error: ")
        assert sorted(os.listdir(tmp_path)) == ["corpus.txt", "taken"]


class TestEncodeDecodeTrace:
    def test_encode_writes_the_exact_hints_byte(self, chain_files, capsys):
        tmp_path, model, text = chain_files
        hints = tmp_path / "doc.hints"
        code, out, _ = run(capsys, "encode", model, text, str(hints))
        assert code == 0
        assert hints.read_bytes() == b"\x77"
        assert "L=1" in out and "kept=8" in out and "skipped=1" in out

    def test_decode_reports_errors_and_reconstructs(self, chain_files, capsys):
        tmp_path, model, text = chain_files
        hints = tmp_path / "doc.hints"
        run(capsys, "encode", model, text, str(hints))
        decoded = tmp_path / "decoded.txt"
        code, out, _ = run(capsys, "decode", model, str(hints), text, "--out", str(decoded))
        assert code == 0
        assert out.strip() == "errors=1"
        assert decoded.read_text(encoding="utf-8") == "ETAHTETTT"

    def test_decode_with_foreign_hints_still_exits_zero(self, chain_files, capsys):
        tmp_path, model, text = chain_files
        foreign = tmp_path / "foreign.hints"
        foreign.write_bytes(b"\xff\x0f")
        code, out, _ = run(capsys, "decode", model, str(foreign), text)
        assert code == 0
        errors = int(out.strip().split("=")[1])
        assert errors > 0

    def test_trace_prints_original_over_bracketed_guesses(self, chain_files, capsys):
        tmp_path, model, text = chain_files
        hints = tmp_path / "doc.hints"
        run(capsys, "encode", model, text, str(hints))
        code, out, _ = run(capsys, "trace", model, str(hints), text)
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "ETAHTETTT"
        assert lines[1] == "ET[T]HTETTT"
        assert lines[2] == "errors=1"

    def test_trace_ansi_flag(self, chain_files, capsys):
        tmp_path, model, text = chain_files
        hints = tmp_path / "doc.hints"
        run(capsys, "encode", model, text, str(hints))
        _, out, _ = run(capsys, "trace", model, str(hints), text, "--ansi")
        assert "\x1b[31m" in out

    def test_malformed_model_exits_three(self, chain_files, capsys):
        tmp_path, _, text = chain_files
        bad = tmp_path / "bad.rwc"
        bad.write_bytes(b"not a model")
        code, _, err = run(capsys, "encode", str(bad), text, str(tmp_path / "h"))
        assert code == 3
        assert "malformed model" in err

    @pytest.mark.parametrize("case", sorted(HOSTILE_MODELS))
    def test_hostile_model_exits_three(self, chain_files, capsys, case):
        tmp_path, _, text = chain_files
        bad = tmp_path / "bad.rwc"
        bad.write_bytes(HOSTILE_MODELS[case])
        code, out, err = run(capsys, "eval", str(bad), text)
        assert code == 3
        assert out == ""
        assert err.startswith("error: malformed model: ")

    def test_character_outside_alphabet_exits_four(self, chain_files, capsys):
        tmp_path, model, _ = chain_files
        odd = tmp_path / "odd.txt"
        odd.write_text("ETX", encoding="utf-8")
        code, _, err = run(capsys, "encode", model, str(odd), str(tmp_path / "h"))
        assert code == 4
        assert "position 2" in err


class TestScoreEval:
    def test_score_from_explicit_counts(self, capsys):
        code, out, _ = run(capsys, "score", "-L", "1", "-E", "1")
        assert code == 0
        assert out.strip() == "L=1 E=1 score=3"

    def test_score_measures_files(self, tmp_path, capsys):
        hints = tmp_path / "h"
        hints.write_bytes(b"\x77")
        model = tmp_path / "m"
        model.write_bytes(b"x" * 100)
        code, out, _ = run(
            capsys, "score", "--hints", str(hints), "-E", "4", "--model", str(model)
        )
        assert code == 0
        assert out.splitlines() == ["L=1 E=4 score=6", "score_with_model=206"]

    def test_score_requires_some_length(self, capsys):
        code, _, err = run(capsys, "score", "-E", "1")
        assert code == 1
        assert "hint-bytes" in err or "hints" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["-L", "3", "--hints", "h"],
            ["-L", "3", "--hints", "missing"],
            ["-L", "3", "--model-bytes", "10", "--model", "h"],
            ["--hints", "h", "--model-bytes", "10", "--model", "missing"],
        ],
    )
    def test_score_refuses_a_number_and_a_file_for_one_value(self, tmp_path, capsys, flags):
        (tmp_path / "h").write_bytes(b"\x77" * 6)
        argv = [str(tmp_path / f) if f in ("h", "missing") else f for f in flags]
        code, out, err = run(capsys, "score", "-E", "1", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: give ") and err.endswith(", not both\n")

    def test_eval_first_line_is_the_summary(self, chain_files, capsys):
        _, model, text = chain_files
        code, out, _ = run(capsys, "eval", model, text)
        assert code == 0
        assert out.splitlines()[0] == "L=1 E=1 score=3"
        assert "kept=8" in out
        assert "skipped=1" in out

    def test_files_match_in_process_evaluation(self, chain_files, capsys, params):
        tmp_path, model_path, text = chain_files
        hints = tmp_path / "doc.hints"
        run(capsys, "encode", model_path, text, str(hints))
        _, decode_out, _ = run(capsys, "decode", model_path, str(hints), text)
        _, trace_out, _ = run(capsys, "trace", model_path, str(hints), text)

        model = model_from_chain(two_state_chain())
        report, trace = evaluate(model, params, "ETAHTETTT")
        assert hints.read_bytes() == b"\x77"
        assert len(hints.read_bytes()) == report.hint_bytes
        assert decode_out.strip() == f"errors={report.errors}"
        assert trace_out.splitlines()[:2] == render_trace(trace).splitlines()


class TestGen:
    def test_eta_text_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        run(capsys, "gen", "eta", "200", "--seed", "7", "--out", str(a))
        run(capsys, "gen", "eta", "200", "--seed", "7", "--out", str(b))
        assert a.read_text(encoding="utf-8") == b.read_text(encoding="utf-8")
        assert set(a.read_text(encoding="utf-8")) <= set("ETA")

    def test_chain_text_blocks(self, capsys):
        code, out, _ = run(capsys, "gen", "chain", "500", "--seed", "3")
        assert code == 0
        for i, ch in enumerate(out[:-1]):
            if ch == "A":
                assert out[i + 1] in "SH"

    def test_bytes_to_file(self, tmp_path, capsys):
        path = tmp_path / "r.bin"
        code, _, _ = run(capsys, "gen", "bytes", "64", "--seed", "9", "--out", str(path))
        assert code == 0
        assert len(path.read_bytes()) == 64


class TestAnalyze:
    def test_per_character_surprise_and_entropy(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("E" * 49 + "T" * 49 + "A" * 2, encoding="utf-8")
        code, out, _ = run(capsys, "analyze", str(corpus))
        lines = out.splitlines()
        assert code == 0
        assert lines[0].startswith("char='E'") or lines[0].startswith("char='T'")
        assert "surprise=1.029146" in lines[0]
        assert lines[-1] == "entropy=1.121441"

    def test_empty_corpus_fails_cleanly(self, tmp_path, capsys):
        corpus = tmp_path / "empty.txt"
        corpus.write_text("", encoding="utf-8")
        code, _, err = run(capsys, "analyze", str(corpus))
        assert code == 1
        assert "empty corpus" in err


class TestConfig:
    def test_documented_defaults(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("ETATEETTT", encoding="utf-8")
        out_path = tmp_path / "model.rwc"
        run(capsys, "train", str(corpus), str(out_path))
        model = parse_model(out_path.read_bytes())
        assert (model.order, model.smoothing) == (2, 0.1)
        default = tmp_path / "default.bin"
        explicit = tmp_path / "explicit.bin"
        run(capsys, "gen", "bytes", "64", "--out", str(default))
        run(capsys, "gen", "bytes", "64", "--seed", "0xDEADBEEF", "--out", str(explicit))
        assert default.read_bytes() == explicit.read_bytes()


CHAIN_BLOB = serialize_model(model_from_chain(two_state_chain()))

# A path argument names a file with one of these contents, a missing file or
# a directory. An output path is a new file, one in a missing directory, or a
# directory.
INPUTS = st.one_of(
    st.binary(max_size=40),
    st.just(CHAIN_BLOB),
    st.integers(0, len(CHAIN_BLOB) - 1).map(lambda n: CHAIN_BLOB[:n]),
    st.just(b""),
    st.just(b"ETAHTETTT"),
    st.just(b"ET\xff\xfeAH"),
    st.sampled_from(["missing", "directory"]),
)
OUTPUTS = st.sampled_from(["out", "no/such/out", "directory"])
ORDERS = st.one_of(st.integers(-3, 12).map(str), st.sampled_from(["1000000000", "x", "2.5"]))
SMOOTHINGS = st.sampled_from(["0", "0.1", "-1", "nan", "inf", "-inf", "1e308", "-0.0", "x"])
SEEDS = st.sampled_from(["0", "-1", "0xDEADBEEF", str(2**80), "junk"])
NUMBERS = st.sampled_from(["0", "3", "-1", "x"])


@st.composite
def invocations(draw):
    """argv for one subcommand; ("in", contents) and ("out", name) stand for paths."""
    def src():
        return ("in", draw(INPUTS))

    def dst():
        return ("out", draw(OUTPUTS))

    def maybe(*flags):
        return list(flags) if draw(st.booleans()) else []

    cmd = draw(st.sampled_from(
        ["alpha", "train", "encode", "decode", "trace", "score", "eval", "gen", "analyze"]
    ))
    if cmd == "train":
        return [cmd, src(), dst(), *maybe("-k", draw(ORDERS)), *maybe("-b", draw(SMOOTHINGS))]
    if cmd == "encode":
        return [cmd, src(), src(), dst()]
    if cmd == "decode":
        return [cmd, src(), src(), src(), *maybe("--out", dst())]
    if cmd == "trace":
        return [cmd, src(), src(), src(), *maybe("--ansi")]
    if cmd == "score":
        return [cmd, "-E", draw(NUMBERS), *maybe("-L", draw(NUMBERS)), *maybe("--hints", src()),
                *maybe("--model", src()), *maybe("--model-bytes", draw(NUMBERS))]
    if cmd == "eval":
        return [cmd, src(), src()]
    if cmd == "gen":
        kind = draw(st.sampled_from(["eta", "chain", "bytes"]))
        count = draw(st.sampled_from(["-1", "0", "7", "300", "1e3"]))
        return [cmd, kind, count, *maybe("--seed", draw(SEEDS)), *maybe("--out", dst())]
    if cmd == "analyze":
        return [cmd, src()]
    return [cmd]


def materialize(argv, root):
    out = []
    for i, arg in enumerate(argv):
        if isinstance(arg, tuple):
            _, what = arg
            if what in ("missing", "directory", "out", "no/such/out"):
                arg = str(root / what)
            else:
                (root / f"in{i}").write_bytes(what)
                arg = str(root / f"in{i}")
        out.append(arg)
    return out


@settings(
    max_examples=300,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(invocations())
def test_no_subcommand_ends_in_an_uncaught_exception(capsysbinary, argv):
    """Any input gives a documented exit code (0-4) or an argparse usage error,
    never a traceback, and no temp file is left behind."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "directory").mkdir()
        try:
            code = main(materialize(argv, root))
        except SystemExit as exc:
            code = None
            assert exc.code == 2
        _, err = capsysbinary.readouterr()
        assert not list(root.rglob("*.tmp"))
    if code is None:
        assert err.startswith(b"usage: rwc")
    else:
        assert code in range(5)
        assert (code == 0) == (not err)
        if code:
            assert err.startswith(b"error: ")
