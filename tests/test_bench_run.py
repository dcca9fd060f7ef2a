"""The benchmark's traced run on the lossless workload, from a fresh copy.

bytes-lossless is the only workload whose plans come from `full_support`
rather than `select_kept`, so this run covers the lossless plan path under
the tracer's wrappers. The copy keeps `bench/out/` of the checkout untouched.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_lossless_run_is_correct(tmp_path):
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=skip)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bytes-lossless",
         "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["metrics"]["selector.kept_mean"]["value"] == 256
