"""The example scripts and README's library tour run end to end against the package sources."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rwc.model import train
from rwc.rewind import encode_document
from rwc.selector import SelectorParams

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_worked_examples_pin_both_payloads():
    done = run_script("worked_examples.py")
    assert done.returncode == 0, done.stderr
    lines = [line.strip() for line in done.stdout.splitlines()]
    assert "payload = 0x67  bits = 8" in lines
    assert "payload = 0x77  bits = 8" in lines


def test_corpus_eval_prints_the_score_summary():
    for kind in ("chain", "eta"):
        done = run_script("corpus_eval.py", "--kind", kind, "--chars", "20000")
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert any(line.startswith("L=") and " score=" in line for line in lines)


def test_readme_library_tour_runs(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) == 1
    frozen = (ROOT / "bench" / "data" / "text-d454171.txt").read_text(encoding="utf-8")
    corpus, doc = frozen[:100_000], frozen[100_000:103_000]
    assert set(doc) <= set(corpus)  # the tour's model must know every character of doc.txt
    hints, _ = encode_document(train(corpus, 2, 0.1), SelectorParams.default(), doc)
    (tmp_path / "corpus.txt").write_text(corpus, encoding="utf-8")
    (tmp_path / "doc.txt").write_text(doc, encoding="utf-8")
    (tmp_path / "doc.hints").write_bytes(hints.payload)
    monkeypatch.chdir(tmp_path)
    tour = {"__name__": "readme_tour"}
    exec(compile(blocks[0], "README.md", "exec"), tour)
    assert tour["hints"] == hints and tour["trace"].decoded == doc
    report = tour["report"]
    assert capsys.readouterr().out.splitlines() == [
        str(report.errors), f"{report.kept} {report.errors} {report.score}"]


MISSING = object()  # stands for a path that does not exist


@pytest.mark.parametrize(
    "args, message",
    [
        (["--order", "9"], "order 9"),
        (["--smoothing", "-1"], "smoothing -1.0"),
        (["--chars", "-5"], "corpus: n must be >= 0"),
        (["--corpus", MISSING], "corpus: [Errno 2]"),
        # checked before the corpus is read, so the missing file goes unreported
        (["--train-frac", "1.5", "--corpus", MISSING], "--train-frac"),
    ],
)
def test_corpus_eval_reports_bad_input_as_a_usage_error(tmp_path, args, message):
    args = [str(tmp_path / "missing.txt") if a is MISSING else a for a in args]
    done = run_script("corpus_eval.py", "--chars", "2000", *args)
    assert done.returncode == 2
    errors = [line for line in done.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and message in errors[0], done.stderr
    assert "Traceback" not in done.stderr
