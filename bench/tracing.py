"""Span tracing at rwc's layer boundaries, installed from outside the package.

Each boundary below is a public function or method that `rwc.harness` or
`rwc.rewind` calls into. While `installed(tracer)` is active each of them is
replaced by a wrapper that records one span: name, start, end and the span
that was open when it was called. Spans stay in memory; the caller reads them
after the traced call and writes them out when the run ends. On exit every
original attribute is put back, so untraced calls run the program unchanged.

The private plan cache is deliberately not wrapped: a plan build is exactly
one `model.predict` call, so builds are counted there.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import rwc.coder
import rwc.harness
import rwc.rewind

# (owner, attribute, span name). Code looks these names up in the owner at
# call time, so replacing the attribute there is enough: `evaluate` calls the
# `rwc.harness` globals, `_PlanCache` the `rwc.rewind` ones.
BOUNDARIES = (
    (rwc.harness, "evaluate", "harness.evaluate"),
    (rwc.harness, "encode_document", "rewind.encode"),
    (rwc.harness, "run_trace", "rewind.decode"),
    (rwc.harness, "serialize_model", "model.serialize"),
    (rwc.rewind.DecoderSession, "reveal", "rewind.step"),
    (rwc.rewind, "predict", "model.predict"),
    (rwc.rewind, "select_kept", "selector.select"),
    (rwc.rewind, "full_support", "selector.select"),
    (rwc.rewind, "quantize", "coder.quantize"),
    (rwc.coder.FrequencyTable, "from_freqs", "coder.table"),
    (rwc.coder.Encoder, "encode", "coder.encode"),
    (rwc.coder.Encoder, "finish", "coder.finish"),
    (rwc.coder.Decoder, "decode", "coder.decode"),
    (rwc.coder.Decoder, "checkpoint", "coder.checkpoint"),
    (rwc.coder.Decoder, "restore", "coder.restore"),
)

# Spans whose subtree is reported as one phase of a traced call.
PHASES = ("rewind.encode", "rewind.decode", "model.serialize")


class Tracer:
    """Spans of one traced call, plus what the boundaries returned.

    spans[i] is [name, start, end, parent index or -1]; a span is appended
    when it opens, so a parent always comes before its children.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.kept_sizes: list[int] = []
        self.rewinds = 0
        self._stack: list[int] = []

    def clear(self) -> None:
        self.spans.clear()
        self.kept_sizes.clear()
        self.rewinds = 0

    def _observe(self, name: str, result) -> None:
        if name == "selector.select":
            self.kept_sizes.append(len(result.members))
        elif name == "rewind.step" and result.rewound:
            self.rewinds += 1

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = name in ("selector.select", "rewind.step")

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe:
                self._observe(name, result)
            return result

        traced.__wrapped__ = fn
        return traced


@contextmanager
def installed(tracer: Tracer):
    """Route every boundary through `tracer` for the duration of the block."""
    saved = []
    try:
        for owner, attr, name in BOUNDARIES:
            raw = vars(owner)[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__)))
            else:
                setattr(owner, attr, tracer.wrap(name, raw))
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls are synchronous on one thread, so children never overlap each
    other and lie inside their parent.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _) in enumerate(spans)]


def summarize(spans: list[list]) -> dict:
    """Per-name calls and self time, and self time per name within each phase."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    phases: dict[str, dict[str, float]] = {}
    phase_of: list[str] = []
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[i]
        if name in PHASES:
            phase = name
            bucket = phases.setdefault(name, {"wall_s": 0.0})
            bucket["wall_s"] += end - start
        else:
            phase = phase_of[parent] if parent >= 0 else name
        phase_of.append(phase)
        if phase in PHASES:
            bucket = phases[phase]
            bucket[name] = bucket.get(name, 0.0) + selfs[i]
    return {"calls": calls, "self_s": self_s, "phases": phases}
