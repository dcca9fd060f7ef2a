"""The example scripts run end to end against the package sources."""

import os
import subprocess
import sys
from pathlib import Path

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
    done = run_script("corpus_eval.py", "--kind", "chain", "--chars", "20000")
    assert done.returncode == 0, done.stderr
    assert any(line.startswith("L=") and " score=" in line for line in done.stdout.splitlines())
