"""The rwc benchmark: coding throughput and 2L+E, end to end and per layer.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from `src/`, never
from an installed copy. One client in a closed loop: one process, one thread,
each call waits for the one before it. The workloads, their inputs and the
reasons they were chosen are in `workloads.json`; the seed (default
ACCEPTANCE_SEED) is the only thing that varies them.

`--trace 0` times the untraced program. It calls encode, decode
(`run_trace`), evaluate, set-up (corpus, split, train, serialize) and
parse_model in turn for `--seconds`, and reports the median of each one's
samples, corrected for the host's speed (see REFERENCE_S).
`--trace 1` instead alternates untraced and traced `evaluate` calls and
reports per-layer self times and counts per traced call (see `tracing.py`).
Every result is checked; a failed check is counted, never fatal.
Human-readable lines come first; the last line of standard output is one
JSON object. A record of the run is written under `out/`.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "rwc" / "__init__.py").is_file():
    sys.exit(f"run.py: no rwc sources under {SRC}; run it from the root of a checkout")
sys.path.insert(0, str(SRC))

import rwc.harness  # noqa: E402
from rwc import (  # noqa: E402
    ACCEPTANCE_SEED,
    ContextModel,
    SelectorParams,
    SplitMix64,
    build_alphabet,
    decode_text,
    encode_document,
    gen_bytes,
    gen_markov,
    parse_model,
    run_trace,
    serialize_model,
    train,
    two_state_chain,
)

import tracing  # noqa: E402

SPEC = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
OUT = HERE / "out"

MIN_ROUNDS = 3
# A sample repeats its call until it covers at least this long, so that
# sub-millisecond calls (parse_model of a 1 KB model) are not timer noise.
MIN_SAMPLE_S = 0.02

# Shared hosts change speed under the benchmark: on a 2-vCPU Xeon VM, other
# tenants slowed every call by up to 2x for seconds to minutes at a time, so
# the median time of one call differed by 2x between runs. A fixed loop
# (`reference_loop`) timed between rounds tracks that speed, and every sample
# is scaled by REFERENCE_S over the loop's time around it. Timings thus read
# as seconds on a host where the loop takes REFERENCE_S, which is about an
# uncontended 2 GHz Xeon (Sapphire Rapids) vCPU under CPython 3.11.
REFERENCE_S = 0.01

END_TO_END = {
    "encode_cps": "char/s",
    "decode_cps": "char/s",
    "eval_cps": "char/s",
    "train_cps": "char/s",
    "load_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "hint_bytes": "bytes",
    "score": "count",
    "model_bytes": "bytes",
    "score_with_model": "count",
}

PER_LAYER = {
    "model.predict.calls": "count",
    "model.predict.self_s": "s",
    "model.serialize.self_s": "s",
    "model.contexts": "count",
    "selector.select.calls": "count",
    "selector.select.self_s": "s",
    "selector.kept_mean": "symbols",
    "coder.quantize.self_s": "s",
    "coder.table.self_s": "s",
    "coder.encode.calls": "count",
    "coder.encode.self_s": "s",
    "coder.finish.self_s": "s",
    "coder.decode.calls": "count",
    "coder.decode.self_s": "s",
    "coder.checkpoint.self_s": "s",
    "coder.restore.calls": "count",
    "coder.decode.useful_ratio": "ratio",
    "rewind.step.self_s": "s",
    "rewind.encode.self_s": "s",
    "rewind.decode.self_s": "s",
    "rewind.plan.builds": "count",
    "rewind.plan.hit_ratio": "ratio",
    "rewind.rewinds": "count",
    "harness.evaluate.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class CorpusMismatch(Exception):
    pass


def load_corpus(name: str) -> str:
    """The frozen corpus, after checking it is byte for byte the recorded one."""
    meta = SPEC["corpora"][name]
    data = (HERE / meta["file"]).read_bytes()
    text = data.decode("utf-8")
    digest = hashlib.sha256(data).hexdigest()
    if digest != meta["sha256"] or len(text) != meta["chars"]:
        raise CorpusMismatch(
            f"corpus {name}: sha256 {digest} and {len(text)} chars, "
            f"expected {meta['sha256']} and {meta['chars']}"
        )
    return text


def hold_out_stripes(text: str, stripes: int, seed: int) -> tuple[str, str]:
    """(training text, held-out text): a seeded tenth of each of `stripes` stripes."""
    rng = SplitMix64(seed)
    n = len(text)
    trains, held = [], []
    for s in range(stripes):
        lo, hi = s * n // stripes, (s + 1) * n // stripes
        width = (hi - lo) // 10
        start = lo + rng.next() % (hi - lo - width + 1)
        trains += [text[lo:start], text[start + width:hi]]
        held.append(text[start:start + width])
    return "".join(trains), "".join(held)


def timed(call):
    """(result, seconds) of one call."""
    t0 = time.perf_counter()
    result = call()
    return result, time.perf_counter() - t0


@dataclass
class Case:
    """One workload's inputs, as built by set-up, and how long training took."""

    train_text: str
    held: str
    model: ContextModel
    blob: bytes
    train_s: float


def set_up(spec: dict, seed: int) -> Case:
    """Make the corpus from the seed, split it, train and serialize."""
    source = spec["source"]
    if source == "text":
        corpus = load_corpus(spec["corpus"])
        train_text, held = hold_out_stripes(corpus, spec["stripes"], seed)
    else:
        if source == "chain":
            corpus = gen_markov(two_state_chain(), spec["chars"], seed)
        else:
            corpus = gen_bytes(spec["chars"], seed).decode("latin-1")
        train_text, held = corpus[: spec["train_chars"]], corpus[spec["train_chars"]:]
    alphabet = build_alphabet(corpus)
    model, train_s = timed(lambda: train(train_text, spec["order"], SPEC["smoothing"], alphabet=alphabet))
    return Case(train_text, held, model, serialize_model(model), train_s)


def reference_loop() -> int:
    """Fixed work unrelated to rwc: integer arithmetic, dict counting over
    tuple keys, float division and a keyed sort, as the codec's code does."""
    counts: dict[tuple[int, int], int] = {}
    x = 1
    for i in range(30000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x & 63, i & 7)
        counts[key] = counts.get(key, 0) + 1
    weights = [c / 30000 for c in counts.values()]
    order = sorted(range(len(weights)), key=lambda j: (-weights[j], j))
    return order[0] + x


class HostSpeed:
    """Times of the reference loop over a run, and when each was started."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def tick(self) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self.took.append(time.perf_counter() - t0)
        self.at.append(t0)

    def corrected(self, at: float, seconds: float) -> float:
        """`seconds` measured at time `at`, scaled by the loops just before and after."""
        i = bisect.bisect(self.at, at)
        around = self.took[max(i - 1, 0):i + 1]
        return seconds * REFERENCE_S / statistics.fmean(around)


class Checks:
    """Counts operations attempted and failed; a failure never stops the run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def sample(checks: Checks, what: str, call, check, reps: int) -> tuple[float, float] | None:
    """(start, seconds per call) over `reps` back-to-back calls, or None if any failed."""
    gc.collect()
    try:
        t0 = time.perf_counter()
        results = [call() for _ in range(reps)]
        seconds = (time.perf_counter() - t0) / reps
    except Exception:
        checks.attempted += reps
        checks.failures.append(f"{what} raised: {traceback.format_exc(limit=2)}")
        return None
    ok = True
    for result in results:
        try:
            good = bool(check(result))
        except Exception:
            good = False
        ok &= checks.expect(f"{what} output", good)
    return (t0, seconds) if ok else None


def reps_for(seconds: float) -> int:
    return max(1, math.ceil(MIN_SAMPLE_S / max(seconds, 1e-9)))


def round_robin(checks: Checks, ops: dict, seconds: float, speed: HostSpeed) -> dict:
    """Call each op in turn until `seconds` have passed (at least MIN_ROUNDS
    rounds), timing the reference loop before and after every round."""
    samples: dict[str, list[tuple[float, float]]] = {name: [] for name in ops}
    deadline = time.perf_counter() + seconds
    rounds = 0
    speed.tick()
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        for name, (call, check, reps) in ops.items():
            got = sample(checks, name, call, check, reps)
            if got is not None:
                samples[name].append(got)
        speed.tick()
        rounds += 1
    return samples


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = SPEC["workloads"][name]
    lossless = spec["lossless"]
    params = SelectorParams.default()
    checks = Checks()

    case, setup_first = timed(lambda: set_up(spec, seed))
    model, held, blob = case.model, case.held, case.blob
    n = len(held)

    # Reference calls: every later call must reproduce these.
    (hints, report), encode_first = timed(
        lambda: encode_document(model, params, held, lossless=lossless)
    )
    decoded, decode_first = timed(lambda: run_trace(model, params, hints, held, lossless=lossless))
    loaded, load_first = timed(lambda: parse_model(blob))
    checks.expect("parse_model(serialize_model(model)) == model", loaded == model)
    checks.expect("trace.decoded == text", decoded.decoded == held)
    checks.expect("trace.errors == report.skipped", decoded.errors == report.skipped)
    if lossless:
        checks.expect(
            "decode_text == text",
            decode_text(model, params, hints, n, lossless=True) == held,
        )
    L, E, mb = hints.byte_length, decoded.errors, len(blob)
    quality = {
        "hint_bytes": L,
        "errors": E,
        "score": 2 * L + E,
        "model_bytes": mb,
        "score_with_model": 2 * (L + mb) + E,
        "payload_sha256": hashlib.sha256(hints.payload).hexdigest(),
        "positions": n,
        "train_chars": len(case.train_text),
    }
    gc.collect()
    gc.freeze()  # keep the long-lived model out of the collector's timed passes

    def evaluate():
        return rwc.harness.evaluate(model, params, held, lossless=lossless)

    def evaluated_ok(result):
        rep, tr = result
        return (rep.hint_bytes, rep.errors, rep.model_bytes, tr.decoded) == (L, E, mb, held)

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "quality": quality,
    }
    if trace:
        metrics, extra = traced_metrics(checks, model, n, E, evaluate, evaluated_ok, seconds)
        record.update(extra)
    else:
        train_s = []

        def set_up_again():
            again = set_up(spec, seed)
            train_s.append((time.perf_counter(), again.train_s))
            return again

        ops = {
            "encode": (
                lambda: encode_document(model, params, held, lossless=lossless),
                lambda r: r[0].payload == hints.payload and r[1] == report,
                reps_for(encode_first),
            ),
            "decode": (
                lambda: run_trace(model, params, hints, held, lossless=lossless),
                lambda r: r.decoded == held and r.errors == E,
                reps_for(decode_first),
            ),
            "eval": (evaluate, evaluated_ok, reps_for(encode_first + decode_first)),
            "setup": (
                set_up_again,
                lambda c: (c.held, c.model, c.blob) == (held, model, blob),
                reps_for(setup_first),
            ),
            "load": (lambda: parse_model(blob), lambda m: m == model, reps_for(load_first)),
        }
        speed = HostSpeed()
        raw = round_robin(checks, ops, seconds, speed)
        raw["train"] = train_s
        samples = {op: [speed.corrected(at, s) for at, s in pairs] for op, pairs in raw.items()}
        record["samples"] = samples
        record["raw_samples"] = {op: [s for _, s in pairs] for op, pairs in raw.items()}
        record["reference_s"] = speed.took
        metrics = {
            "encode_cps": n / median(samples["encode"]),
            "decode_cps": n / median(samples["decode"]),
            "eval_cps": n / median(samples["eval"]),
            "train_cps": len(case.train_text) / median(samples["train"]),
            "load_s": median(samples["load"]),
            "setup_s": median(samples["setup"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **{k: quality[k] for k in ("hint_bytes", "score", "model_bytes", "score_with_model")},
        }
    gc.unfreeze()
    record["metrics"] = metrics
    record["attempted"] = checks.attempted
    record["failures"] = checks.failures
    return record


def traced_metrics(checks, model, n, E, evaluate, evaluated_ok, seconds):
    """Alternate untraced and traced evaluate calls; per-layer figures per traced call."""
    tracer = tracing.Tracer()
    speed = HostSpeed()
    plain, traced, summaries, kept_means, rewinds = [], [], [], [], []
    first_spans = None
    deadline = time.perf_counter() + seconds
    rounds = 0
    speed.tick()
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        rounds += 1
        untraced = sample(checks, "evaluate", evaluate, evaluated_ok, 1)
        tracer.clear()
        with tracing.installed(tracer):
            got = sample(checks, "traced evaluate", evaluate, evaluated_ok, 1)
        speed.tick()
        if untraced is None or got is None:
            continue
        plain.append(untraced)
        traced.append(got)
        summaries.append(tracing.summarize(tracer.spans))
        kept_means.append(statistics.fmean(tracer.kept_sizes))
        rewinds.append(tracer.rewinds)
        if first_spans is None:
            first_spans = [list(s) for s in tracer.spans]

    calls = summaries[0]["calls"]
    checks.expect("span counts repeat on every call", all(s["calls"] == calls for s in summaries))
    checks.expect("rewind.rewinds == errors", all(r == E for r in rewinds))
    steps, decodes = calls.get("rewind.step", 0), calls.get("coder.decode", 0)
    checks.expect(
        "useful_ratio == 1 - E/n",
        decodes > 0 and (steps - rewinds[0]) * n == (n - E) * decodes,
    )

    scales = [speed.corrected(at, 1.0) for at, _ in traced]

    def self_s(span_name):
        return median(k * s["self_s"].get(span_name, 0.0) for k, s in zip(scales, summaries))

    builds = calls.get("model.predict", 0)
    metrics = {
        "model.predict.calls": builds,
        "model.predict.self_s": self_s("model.predict"),
        "model.serialize.self_s": self_s("model.serialize"),
        "model.contexts": sum(len(t) for t in model.tables),
        "selector.select.calls": calls.get("selector.select", 0),
        "selector.select.self_s": self_s("selector.select"),
        "selector.kept_mean": kept_means[0],
        "coder.quantize.self_s": self_s("coder.quantize"),
        "coder.table.self_s": self_s("coder.table"),
        "coder.encode.calls": calls.get("coder.encode", 0),
        "coder.encode.self_s": self_s("coder.encode"),
        "coder.finish.self_s": self_s("coder.finish"),
        "coder.decode.calls": decodes,
        "coder.decode.self_s": self_s("coder.decode"),
        "coder.checkpoint.self_s": self_s("coder.checkpoint"),
        "coder.restore.calls": calls.get("coder.restore", 0),
        "coder.decode.useful_ratio": (steps - rewinds[0]) / decodes,
        "rewind.step.self_s": self_s("rewind.step"),
        "rewind.encode.self_s": self_s("rewind.encode"),
        "rewind.decode.self_s": self_s("rewind.decode"),
        "rewind.plan.builds": builds,
        # Each evaluate codes every position twice: once encoding, once decoding.
        "rewind.plan.hit_ratio": 1.0 - builds / (2 * n),
        "rewind.rewinds": rewinds[0],
        "harness.evaluate.self_s": self_s("harness.evaluate"),
        "trace.overhead_ratio": median(t / p for (_, t), (_, p) in zip(traced, plain)),
    }
    phases = {}
    for phase in tracing.PHASES:
        names = {k for s in summaries for k in s["phases"].get(phase, {})}
        phases[phase] = {
            k: median(c * s["phases"].get(phase, {}).get(k, 0.0) for c, s in zip(scales, summaries))
            for k in sorted(names)
        }
    pairs = {"evaluate": plain, "traced_evaluate": traced}
    extra = {
        "samples": {op: [speed.corrected(at, t) for at, t in got] for op, got in pairs.items()},
        "raw_samples": {op: [t for _, t in got] for op, got in pairs.items()},
        "reference_s": speed.took,
        "phases": phases,
        "spans": first_spans,
    }
    return metrics, extra


def print_report(record: dict, units: dict) -> None:
    q = record["quality"]
    print(f"workload={record['workload']} seed={record['seed']} trace={record['trace']} "
          f"python={record['python']}")
    print(f"L={q['hint_bytes']} E={q['errors']} score={q['score']} model_bytes={q['model_bytes']} "
          f"score_with_model={q['score_with_model']} positions={q['positions']}")
    print(f"payload_sha256={q['payload_sha256']}")
    failed = len(record["failures"])
    print(f"attempted={record['attempted']} failed={failed} "
          f"failed_share={failed / max(record['attempted'], 1):.6g}")
    for what in record["failures"][:10]:
        print(f"FAILED: {what}")
    print(f"reference loop: n={len(record['reference_s'])} "
          f"median={median(record['reference_s']):.6g}s (REFERENCE_S={REFERENCE_S}s)")
    for op, values in record["samples"].items():
        if values:
            print(f"  {op:16s} n={len(values):4d} median={median(values):.6g}s "
                  f"raw median={median(record['raw_samples'][op]):.6g}s")
    for name, unit in units.items():
        print(f"{name:28s} {record['metrics'][name]:>16.8g} {unit}")
    for phase, selfs in record.get("phases", {}).items():
        wall = selfs.get("wall_s", 0.0)
        if not wall:
            continue
        print(f"{phase} wall={wall:.6g}s, self time by layer:")
        for k, v in sorted(selfs.items(), key=lambda kv: -kv[1]):
            if k != "wall_s":
                print(f"  {k:24s} {v:.6g}s {100 * v / wall:5.1f}%")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    record = measure(name, seed, seconds, trace)
    units = PER_LAYER if trace else END_TO_END
    print_report(record, units)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    spans = record.pop("spans", None)
    if spans is not None:
        with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as f:
            for i, (span, start, end, parent) in enumerate(spans):
                f.write(json.dumps({"id": i, "op": 0, "name": span, "start": start,
                                    "end": end, "parent": parent}) + "\n")
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    result = {
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": len(record["failures"]),
        "metrics": {k: {"value": record["metrics"][k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so one failing does not stop the rest."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in SPEC["workloads"]:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            summary["correct"] = False
            summary["attempted"] += 1
            summary["failed"] += 1
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            summary["metrics"][f"{name}/{k}"] = v
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*SPEC["workloads"], "all"])
    parser.add_argument("--seed", type=lambda s: int(s, 16) if s.lower().startswith("0x") else int(s),
                        default=ACCEPTANCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except CorpusMismatch as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
