"""Walk the two running examples end to end and print every intermediate.

Usage: python3 scripts/worked_examples.py
"""

from rwc.harness import (
    eta_source,
    evaluate,
    model_from_chain,
    two_state_chain,
)
from rwc.model import predict, surprise, entropy
from rwc.rewind import encode_document, render_trace, run_trace
from rwc.selector import SelectorParams, select_kept, subset_cost


def show_distribution(model, history_text):
    history = model.alphabet.encode(history_text)
    dist = predict(model, history)
    label = repr(history_text) if history_text else "start"
    print(f"  after {label}:")
    probs = dist.probs
    for i in dist.support():
        glyph = model.alphabet.glyph_of(i)
        print(f"    p({glyph}) = {probs[i]:.4f}  surprise = {surprise(probs[i]):.4f}")
    print(f"    entropy = {entropy(dist):.4f} bits")
    return dist


def show_kept(model, dist, params):
    kept = select_kept(dist, params)
    names = ", ".join(model.alphabet.glyph_of(i) for i in kept.members)
    cost = subset_cost(dist, kept.members)
    print(f"    kept = [{names}]  mass = {kept.mass:.4f}  expected cost = {cost:.4f}")


def walk(title, model, text, params):
    print(f"== {title} ==")
    dist = show_distribution(model, "")
    show_kept(model, dist, params)
    hints, report = encode_document(model, params, text)
    print(f"  text = {text!r}")
    print(f"  kept = {len(text) - report.skipped}  skipped = {report.skipped}")
    payload = f"0x{hints.payload.hex()}" if hints.payload else "(empty)"
    print(f"  payload = {payload}  bits = {hints.bit_count}")
    trace = run_trace(model, params, hints, text)
    print("  trace:")
    for line in render_trace(trace).splitlines():
        print(f"    {line}")
    score_report, _ = evaluate(model, params, text)
    for line in score_report.lines():
        print(f"  {line}")
    print()


def main():
    params = SelectorParams.default()
    print(f"threshold alpha = {params.alpha:.10f}")
    print()
    walk("memoryless three-character source", model_from_chain(eta_source()), "ETATEETTT", params)
    model = model_from_chain(two_state_chain())
    print("== two-state chain, the interesting context ==")
    dist = show_distribution(model, "A")
    show_kept(model, dist, params)
    print()
    walk("two-state chain source", model, "ETAHTETTT", params)


if __name__ == "__main__":
    main()
