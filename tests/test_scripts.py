"""The example scripts run end to end against the package sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
