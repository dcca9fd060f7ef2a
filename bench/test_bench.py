"""Tests of the benchmark itself.

    python3 -m unittest discover -s bench      (or: python3 -m pytest bench)

They run the command as a user would, from the root of the checkout, with a
short measuring time; the slowest (text-k4, twice) takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
import tracing
import rwc.harness
import rwc.rewind

ROOT = run.HERE.parent
SEED = 7


def invoke(workload: str, trace: int, root: Path = ROOT, seed: int = SEED):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricNames(unittest.TestCase):
    def test_output_matches_benchmark_json(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in declared[key]}
            result = result_of(invoke("chain-k2", trace))
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(got, want)
            self.assertEqual(want, run.PER_LAYER if trace else run.END_TO_END)


class Repeatability(unittest.TestCase):
    def test_quality_and_payload_digest_repeat_for_the_same_seed(self):
        for workload in run.SPEC["workloads"]:
            with self.subTest(workload=workload):
                records = []
                for _ in range(2):
                    self.assertTrue(result_of(invoke(workload, 0))["correct"])
                    record = run.OUT / f"{workload}-seed{SEED}-trace0.json"
                    records.append(json.loads(record.read_text(encoding="utf-8")))
                self.assertEqual(records[0]["quality"], records[1]["quality"])


class Spans(unittest.TestCase):
    def test_self_times_add_up_to_the_traced_call(self):
        case = run.set_up(run.SPEC["workloads"]["chain-k2"], SEED)
        params = rwc.SelectorParams.default()
        original = rwc.rewind.predict
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            rwc.harness.evaluate(case.model, params, case.held)
        self.assertIs(rwc.rewind.predict, original)
        self.assertFalse(hasattr(rwc.harness.evaluate, "__wrapped__"))

        spans = tracer.spans
        selfs = tracing.self_times(spans)
        roots = [i for i, s in enumerate(spans) if s[3] < 0]
        self.assertEqual([spans[i][0] for i in roots], ["harness.evaluate"])
        children = {i: [] for i in range(len(spans))}
        for i, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                children[parent].append(i)
        for i, (name, start, end, _) in enumerate(spans):
            covered = sum(spans[c][2] - spans[c][1] for c in children[i])
            self.assertAlmostEqual(selfs[i] + covered, end - start, delta=1e-9)
            self.assertGreaterEqual(selfs[i], -1e-9, name)
        root = spans[roots[0]]
        self.assertAlmostEqual(sum(selfs), root[2] - root[1], delta=1e-6)
        self.assertEqual(tracer.rewinds, sum(1 for s in spans if s[0] == "coder.restore"))


class Failures(unittest.TestCase):
    def test_changed_corpus_is_refused(self):
        meta = run.SPEC["corpora"]["text-d454171"]
        saved = meta["sha256"]
        meta["sha256"] = "0" * 64
        try:
            with self.assertRaises(run.CorpusMismatch):
                run.load_corpus("text-d454171")
        finally:
            meta["sha256"] = saved

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = invoke("chain-k2", 0, root=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
