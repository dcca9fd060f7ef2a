"""The benchmark's traced runs, each from a fresh copy of the checkout.

bytes-lossless is the only workload whose plans come from `full_support`
rather than `select_kept`, so its run covers the lossless plan path under
the tracer's wrappers. text-k4 builds thousands of plans, so its run counts
how many one traced evaluate builds, and how many coder calls it makes.
chain-k2 has few contexts and many wrong guesses, so its run counts the
rewinds that make up most of its decode work. Each run also pins its
model file's size and `score_with_model`. The file is deflated, so those
pins are zlib 1.2.13's (`zlib.ZLIB_RUNTIME_VERSION`); another zlib build
may write other bytes. The copy keeps `bench/out/` of the checkout
untouched.
"""

import json
import shutil
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def traced_run(tmp_path, workload):
    """The metrics of `bench/run.py --seconds 0 --trace 1` on one workload."""
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=skip)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0)
    return {name: m["value"] for name, m in result["metrics"].items()}


def assert_model_cost(tmp_path, workload, model_bytes, score_with_model):
    """The model file's size at the default seed, and the score that charges
    it, as the traced run's record under the copy's `bench/out/` has them."""
    (record,) = (tmp_path / "bench" / "out").glob(f"{workload}-seed*-trace1.json")
    q = json.loads(record.read_text(encoding="utf-8"))["quality"]
    assert (q["model_bytes"], q["score_with_model"]) == (model_bytes, score_with_model), (
        f"pinned under zlib 1.2.13, run under zlib {zlib.ZLIB_RUNTIME_VERSION}"
    )


def test_traced_lossless_run_is_correct(tmp_path):
    assert traced_run(tmp_path, "bytes-lossless")["selector.kept_mean"] == 256
    assert_model_cost(tmp_path, "bytes-lossless", 589, 21_186)


def test_traced_evaluate_builds_each_text_plan_once(tmp_path):
    # The decode walk reuses the encode walk's plans: one build per distinct
    # context of the held-out text at the default seed.
    metrics = traced_run(tmp_path, "text-k4")
    assert metrics["rewind.plan.builds"] == metrics["selector.select.calls"] == 5_338
    assert metrics["selector.kept_mean"] == pytest.approx(1.6122, abs=5e-5)
    # The encode walk makes no coder call at a one-member plan; the decode
    # walk still decodes every position.
    assert metrics["coder.encode.calls"] == 3_206
    assert metrics["coder.decode.calls"] == 12_778
    assert_model_cost(tmp_path, "text-k4", 45_699, 94_755)


def test_traced_chain_run_counts_each_rewind(tmp_path):
    # One plan per context of the chain, and one coder restore per rewind.
    metrics = traced_run(tmp_path, "chain-k2")
    assert metrics["rewind.plan.builds"] == metrics["selector.select.calls"] == 15
    assert metrics["selector.kept_mean"] == pytest.approx(28 / 15)
    assert metrics["coder.encode.calls"] == 9_800
    assert metrics["coder.decode.calls"] == 10_000
    assert metrics["coder.restore.calls"] == metrics["rewind.rewinds"] == 198
    assert_model_cost(tmp_path, "chain-k2", 151, 2_950)
