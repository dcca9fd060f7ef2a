import hashlib
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import zlib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rwc.cli
from rwc.cli import main
from rwc.harness import (
    ACCEPTANCE_SEED,
    eta_source,
    evaluate,
    gen_bytes,
    gen_markov,
    model_from_chain,
    two_state_chain,
)
from rwc.model import (
    MAX_ORDER,
    Alphabet,
    ContextModel,
    ModelFormatError,
    UnknownCharacterError,
    parse_model,
    serialize_model,
)
from rwc.rewind import render_trace

from oracles import model_body, model_file


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


ETAHS = [ord(g) for g in "ETAHS"]  # covers the chain_files document
ONE = [((), [(1, 1)])]  # an order-0 table of one count
SMALL = model_file(0, 0.1, ETAHS, ONE)
# An order-1 table whose start row leads to (1,), whose row leads back to it:
# its flags are 1 and 0.
LOOP = [((0,), [(1, 1)]), ((1,), [(1, 1)])]
MIB = 1 << 20


def deflated_bomb(n_nodes, columns, mebibytes):
    """An order-0 RWC6 file whose header claims `n_nodes` nodes over ETAHS,
    and whose stream inflates to `columns` and then `mebibytes` MiB of zeros."""
    packer = zlib.compressobj(9)
    zeros = bytes(MIB)
    stream = packer.compress(columns) + b"".join(packer.compress(zeros) for _ in range(mebibytes))
    return model_file(0, 0.1, ETAHS, ONE, n_nodes=n_nodes)[:28] + stream + packer.flush()


# Each hostile model file, and the message it is refused with.
HOSTILE_MODELS = {
    "infinite smoothing": (
        model_file(0, math.inf, ETAHS, ONE), "smoothing inf is negative or has infinite mass"
    ),
    "smoothing mass overflows": (
        model_file(0, 1e308, ETAHS, ONE), "smoothing 1e+308 is negative or has infinite mass"
    ),
    "NaN smoothing": (
        model_file(0, math.nan, ETAHS, ONE), "smoothing nan is negative or has infinite mass"
    ),
    "negative smoothing": (
        model_file(0, -1.0, ETAHS, ONE), "smoothing -1.0 is negative or has infinite mass"
    ),
    "zero count without smoothing": (
        model_file(0, 0.0, ETAHS, [((), [(1, 0)])]), "count 0 is not an integer in 1..2**64-1"
    ),
    "empty table": (model_file(0, 0.1, ETAHS, []), "empty count table"),
    # A node without a row has length 0, so only a root, listed for its row, can be empty.
    "empty row": (
        model_file(1, 0.1, ETAHS, [((0,), [(1, 1)]), ((2,), [])]), "context (2,) has an empty row"
    ),
    "code point past 2**31": (
        model_file(0, 0.1, ETAHS + [2**31], ONE), "invalid glyph code point 0x80000000"
    ),
    "code point past Unicode": (
        model_file(0, 0.1, ETAHS + [0x110000], ONE), "invalid glyph code point 0x110000"
    ),
    "surrogate code point": (
        model_file(0, 0.1, ETAHS + [0xD800], ONE),
        "glyph must be a single non-surrogate character, got '\\ud800'",
    ),
    "context id outside alphabet": (
        model_file(1, 0.1, ETAHS, [((7,), [(1, 1)])]), "context (7,) is not 1 ids of the alphabet"
    ),
    "symbol id outside alphabet": (
        model_file(0, 0.1, ETAHS, [((), [(7, 1)])]), "symbol id 7 outside alphabet"
    ),
    "order past MAX_ORDER": (
        model_file(MAX_ORDER + 1, 0.1, ETAHS, [((1,) * (MAX_ORDER + 1), [(1, 1)])]),
        f"order {MAX_ORDER + 1} is not in 0..{MAX_ORDER}",
    ),
    "context listed twice": (
        model_file(0, 0.1, ETAHS, [((), [(1, 1)]), ((), [(2, 1)])]), "a context is listed twice"
    ),
    "symbol listed twice": (
        model_file(0, 0.1, ETAHS, [((), [(1, 1), (1, 2)])]), "context () lists a symbol twice"
    ),
    "column width 3": (
        model_file(0, 0.1, ETAHS, ONE, widths=(1, 1, 3, 1, 1, 1)),
        "symbol column has width 3, not 1, 2, 4 or 8",
    ),
    "column wider than its items need": (
        model_file(0, 0.1, ETAHS, ONE, widths=(1, 1, 1, 8, 1, 1)),
        "count column is wider than its largest item needs",
    ),
    "empty column wider than one byte": (
        model_file(0, 0.1, ETAHS, ONE, widths=(1, 1, 1, 1, 1, 2)),
        "root id column is wider than its largest item needs",
    ),
    "width-2 column with an all-zero high plane": (
        model_file(0, 0.1, ETAHS, [((), [(1, 255), (2, 7)])], widths=(1, 1, 1, 2, 1, 1)),
        "count column is wider than its largest item needs",
    ),
    # The body's last two bytes are the empty flag and root columns' width bytes.
    "file ends inside a plane": (
        SMALL[:28] + zlib.compress(model_body(ETAHS, 0, [((), [(1, 256), (2, 257)])])[:-3], 1),
        "model file truncated",
    ),
    "row lengths sum past the file": (
        model_file(0, 0.1, ETAHS, ONE, lengths=[2**40]), "model file truncated"
    ),
    # A reader that trusted either header would ask for memory far past the file.
    "2**64-1 contexts in a short file": (
        model_file(1, 0.1, ETAHS, [((1,), [(1, 1)])], n_nodes=2**64 - 1), "model file truncated"
    ),
    "order 2**32-1 with no contexts": (
        model_file(2**32 - 1, 0.1, ETAHS, []), f"order {2**32 - 1} is not in 0..{MAX_ORDER}"
    ),
    "tree flag other than 0 or 1": (
        model_file(1, 0.1, ETAHS, LOOP, flags=[2, 0]), "tree flag 2 is not 0 or 1"
    ),
    "more tree flags than nodes after the start": (
        model_file(1, 0.1, ETAHS, LOOP, flags=[1, 1]), "2 tree flags for 2 nodes"
    ),
    # Node 1's only entry is flagged, so its child would be node 1 itself.
    "child placed before its parent": (
        model_file(1, 0.1, ETAHS, [], lengths=[0, 1], syms=[1], counts=[1], flags=[1]),
        "a child is placed before its parent",
    ),
    # Both entries lead to (1,), so nodes 1 and 2 are both (1,).
    "successor flagged twice": (
        model_file(1, 0.1, ETAHS, LOOP, lengths=[1, 1, 1], syms=[1, 1, 1], counts=[1, 1, 1],
                   flags=[1, 1, 0]),
        "a context is listed twice",
    ),
    # Both (0,)'s entry 2 and (1,)'s entry 2 lead to (2,), so nodes 2 and 3,
    # neither with a row, are both (2,).
    "successor flagged twice, neither copy with a row": (
        model_file(1, 0.1, ETAHS, [], lengths=[2, 1, 0, 0], syms=[1, 2, 2], counts=[1, 1, 1],
                   flags=[1, 1, 1]),
        "a context is listed twice",
    ),
    # The start row's second entry leads to (2,), which no node is.
    "successor listed nowhere": (
        model_file(1, 0.1, ETAHS, [((0,), [(1, 1), (2, 1)]), ((1,), [(1, 1)])], lengths=[2, 1],
                   flags=[1, 0, 0]),
        "an entry's successor is not listed",
    ),
    # The body's last two bytes are the second flag and the empty root
    # column's width byte.
    "truncated flag column": (
        model_file(1, 0.1, ETAHS, LOOP)[:28] + zlib.compress(model_body(ETAHS, 1, LOOP)[:-2], 1),
        "model file truncated",
    ),
    # The walk from (0, 0) never meets (3, 9), so it is a root.
    "root id outside the alphabet": (
        model_file(2, 0.1, ETAHS, [((0, 0), [(1, 1)]), ((3, 9), [(2, 1)])]),
        "context (3, 9) is not 2 ids of the alphabet",
    ),
    "bad Adler-32": (
        SMALL[:-1] + bytes([SMALL[-1] ^ 1]),
        "damaged compressed body: Error -3 while decompressing data: incorrect data check",
    ),
    "bytes after the stream": (SMALL + b"\0", "trailing data after model"),
    # Eight-byte items, full rows and every node past the start a root: the
    # longest columns this header allows, which inflate in full and are
    # refused only for their widths.
    "columns exactly as long as the header allows": (
        model_file(1, 0.1, [2**32], [], widths=(8,) * 6, lengths=[1, 1], syms=[1, 1],
                   counts=[2**32] * 2, flags=[0, 0], roots=[1]),
        "row length column is wider than its largest item needs",
    ),
    # A reader that inflated without a bound would hold 100 MiB, or 50 MiB.
    "stream inflates 100 MiB past its columns": (
        deflated_bomb(1, model_body(ETAHS, 0, ONE), 100), "trailing data after model"
    ),
    "2**40 contexts over 50 MiB of zeros": (
        deflated_bomb(2**40, b"", 50), "model file truncated"
    ),
}
HUGE_HEADERS = ("2**64-1 contexts in a short file", "order 2**32-1 with no contexts")
BOMBS = ("stream inflates 100 MiB past its columns", "2**40 contexts over 50 MiB of zeros")


def test_model_file_helper_writes_the_serialized_format():
    m = ContextModel(Alphabet(("E", "T")), 1, 0.1, {(0,): {1: 3}, (1,): {1: 1, 2: 2}})
    table = [((0,), [(1, 3)]), ((1,), [(1, 1), (2, 2)])]
    assert model_file(1, 0.1, [69, 84], table) == serialize_model(m)
    assert model_file(1, 0.1, [69, 84], table, widths=(1,) * 6) == serialize_model(m)


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

    @pytest.mark.parametrize("argv", [["train"], ["train", "x", "y", "-k", "abc"]])
    def test_missing_or_ill_typed_argument_exits_two(self, capsys, argv):
        # argparse exits 2, the same code as a missing file
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: rwc train")

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
        assert f"'{tmp_path / 'taken'}'" in err and ".tmp" not in err
        assert sorted(os.listdir(tmp_path)) == ["corpus.txt", "taken"]


class TestEncodeDecodeTrace:
    def test_encode_writes_the_exact_hints_byte(self, chain_files, capsys):
        tmp_path, model, text = chain_files
        hints = tmp_path / "doc.hints"
        code, out, _ = run(capsys, "encode", model, text, str(hints))
        assert code == 0
        assert hints.read_bytes() == b"\x77"
        assert "L=1" in out and "kept=8" in out and "skipped=1" in out

    def test_encode_counts_characters_not_bytes(self, tmp_path, capsys):
        text = "été à l'île, né à Nîmes; déjà vu, fée éloignée " * 3
        corpus, model, hints = tmp_path / "doc.txt", tmp_path / "m.rwc", tmp_path / "doc.hints"
        corpus.write_text(text, encoding="utf-8")
        assert run(capsys, "train", str(corpus), str(model), "--order", "1")[0] == 0
        code, out, _ = run(capsys, "encode", str(model), str(corpus), str(hints))
        assert code == 0
        fields = dict(field.split("=") for field in out.split())
        kept, skipped = int(fields["kept"]), int(fields["skipped"])
        assert kept + skipped == len(text) < len(text.encode("utf-8"))
        assert run(capsys, "decode", str(model), str(hints), str(corpus))[1] == f"errors={skipped}\n"

    def test_decode_reports_errors_and_reconstructs(self, chain_files, capsys):
        tmp_path, model, text = chain_files
        hints = tmp_path / "doc.hints"
        run(capsys, "encode", model, text, str(hints))
        code, out, _ = run(capsys, "decode", model, str(hints), text)
        assert code == 0
        assert out == "errors=1\n"

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
        blob, message = HOSTILE_MODELS[case]
        bad.write_bytes(blob)
        code, out, err = run(capsys, "eval", str(bad), text)
        assert (code, out, err) == (3, "", f"error: malformed model: {message}\n")

    @pytest.mark.parametrize("case", HUGE_HEADERS)
    def test_huge_header_exits_three_within_a_gibibyte(self, chain_files, case):
        # `rwc eval` in a process whose address space is capped at 1 GiB, so
        # a reader that allocated what the header claims would fail otherwise.
        tmp_path, _, text = chain_files
        bad = tmp_path / "bad.rwc"
        blob, message = HOSTILE_MODELS[case]
        bad.write_bytes(blob)
        capped = (
            "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from rwc.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(rwc.cli.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", capped, "eval", str(bad), text],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == f"error: malformed model: {message}\n"

    @pytest.mark.parametrize("case", BOMBS)
    def test_bomb_is_refused_within_a_mebibyte(self, case):
        # The 2**40-context header is refused before inflating, and the
        # other stream is inflated only to the columns its header allows.
        blob, message = HOSTILE_MODELS[case]
        tracemalloc.start()
        try:
            with pytest.raises(ModelFormatError) as caught:
                parse_model(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(caught.value) == message
        assert peak < MIB

    def test_character_outside_alphabet_exits_four(self, chain_files, capsys):
        tmp_path, model, _ = chain_files
        odd = tmp_path / "odd.txt"
        odd.write_text("ETX", encoding="utf-8")
        code, _, err = run(capsys, "encode", model, str(odd), str(tmp_path / "h"))
        assert code == 4
        assert "position 2" in err


# Every exception class the package exports, one instance each, with the exit
# code and its meaning as the cli module docstring lists them.
EXIT_CODES = [
    (ModelFormatError("not a model file (bad magic)"), 3, "malformed model file"),
    (UnknownCharacterError("X", 2), 4, "character outside the model alphabet"),
]


def test_the_exit_code_table_lists_every_exported_error():
    exported = {
        obj
        for obj in map(rwc.__dict__.get, rwc.__all__)
        if isinstance(obj, type) and issubclass(obj, BaseException)
    }
    assert exported == {type(error) for error, _, _ in EXIT_CODES}


@pytest.mark.parametrize(
    "error, code, meaning", EXIT_CODES, ids=[type(error).__name__ for error, _, _ in EXIT_CODES]
)
def test_each_exported_error_exits_with_its_documented_code(monkeypatch, capsys, error, code, meaning):
    def stub(args):
        raise error

    monkeypatch.setattr(rwc.cli, "cmd_alpha", stub)
    assert f"{code} {meaning}" in " ".join(rwc.cli.__doc__.split())
    got, out, err = run(capsys, "alpha")
    assert (got, out) == (code, "")
    assert err.startswith("error: ") and err.endswith(f"{error}\n")


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

    def test_eval_charges_the_model_file_as_read(self, chain_files, capsys):
        # A valid RWC6 file deflated at level 9 is shorter than the level-1
        # file that `serialize_model` would write for the same model.
        tmp_path, _, text = chain_files
        table = [((i,), [(s, 1 + (7 * i + s) % 5) for s in range(1, 6)]) for i in range(6)]
        blob = model_file(1, 0.1, ETAHS, table, level=9)
        assert len(serialize_model(parse_model(blob))) > len(blob)
        path = tmp_path / "level9.rwc"
        path.write_bytes(blob)
        code, out, _ = run(capsys, "eval", str(path), text)
        assert code == 0
        assert f"model_bytes={len(blob)}" in out.split()

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

    @pytest.mark.parametrize("kind", ["eta", "chain", "bytes"])
    @pytest.mark.parametrize("count", [0, 1000])
    def test_stdout_and_out_file_hold_the_generator_output(self, tmp_path, capsysbinary,
                                                           kind, count):
        want = {
            "eta": gen_markov(eta_source(), count, ACCEPTANCE_SEED).encode("utf-8"),
            "chain": gen_markov(two_state_chain(), count, ACCEPTANCE_SEED).encode("utf-8"),
            "bytes": gen_bytes(count, ACCEPTANCE_SEED),
        }[kind]
        assert main(["gen", kind, str(count)]) == 0
        assert capsysbinary.readouterr() == (want, b"")
        path = tmp_path / "gen.out"
        assert main(["gen", kind, str(count), "--out", str(path)]) == 0
        assert capsysbinary.readouterr() == (b"", b"")
        assert path.read_bytes() == want

    # Digests of 1,000 generated characters at the default seed, so a change
    # to a source or to its sampling shows up here and not only in the bench.
    GEN_SHA256 = {
        "eta": "f5adda515e35c22c96c9edb1c8fbed0edfc4f95b632c73b61a96d3eaf3a4227b",
        "chain": "5d007925ec18ef83748c9d419d6b87fcb2fc75caf3fc5d30bb2a7b889bf1f107",
        "bytes": "18e933fc8369385439f32550be60424705f259fdd55fd053c66e73db23ca6f3a",
    }

    @pytest.mark.parametrize("kind", sorted(GEN_SHA256))
    def test_default_seed_output_is_pinned(self, capsysbinary, kind):
        assert main(["gen", kind, "1000"]) == 0
        out, _ = capsysbinary.readouterr()
        assert hashlib.sha256(out).hexdigest() == self.GEN_SHA256[kind]


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
        return [cmd, src(), src(), src()]
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
