"""Train on the head of a corpus, score the tail, print the 2L+E breakdown.

Either point --corpus at a text file (say, a Project Gutenberg download) or
let --kind/--chars synthesize one from the built-in sources. Examples:

    python3 scripts/corpus_eval.py --kind chain --chars 110000
    python3 scripts/corpus_eval.py --corpus moby.txt --order 3 --smoothing 0.2
"""

import argparse
import sys
import time

from rwc.harness import (
    ACCEPTANCE_SEED,
    eta_source,
    evaluate,
    gen_bytes,
    gen_markov,
    two_state_chain,
)
from rwc.model import build_alphabet, train
from rwc.selector import SelectorParams


def load_corpus(args):
    if args.corpus is not None:
        with open(args.corpus, encoding="utf-8", newline="") as handle:
            return handle.read()
    if args.kind == "eta":
        return gen_markov(eta_source(), args.chars, args.seed)
    if args.kind == "chain":
        return gen_markov(two_state_chain(), args.chars, args.seed)
    return gen_bytes(args.chars, args.seed).decode("latin-1")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", help="text file to evaluate; overrides --kind")
    parser.add_argument("--kind", choices=("eta", "chain", "bytes"), default="chain")
    parser.add_argument("--chars", type=int, default=110000, help="synthetic corpus size")
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=ACCEPTANCE_SEED)
    parser.add_argument("--order", type=int, default=2, help="context length")
    parser.add_argument("--smoothing", type=float, default=0.1, help="additive count")
    parser.add_argument("--train-frac", type=float, default=0.9)
    args = parser.parse_args(argv)

    if not 0.0 < args.train_frac < 1.0:
        parser.error("--train-frac must be strictly between 0 and 1")
    try:
        corpus = load_corpus(args)
    except (OSError, ValueError) as exc:  # unreadable file, bad UTF-8, bad --chars
        parser.error(f"corpus: {exc}")
    split = int(len(corpus) * args.train_frac)
    train_slice, held_out = corpus[:split], corpus[split:]
    if not train_slice or not held_out:
        parser.error("corpus too small for the requested split")

    start = time.perf_counter()
    try:
        model = train(train_slice, args.order, args.smoothing, alphabet=build_alphabet(corpus))
    except ValueError as exc:  # an order or smoothing the model refuses
        parser.error(str(exc))
    trained = time.perf_counter()

    print(f"corpus: {len(corpus)} chars, {len(set(corpus))} distinct")
    print(f"train: {len(train_slice)} chars  held out: {len(held_out)} chars")
    report, _ = evaluate(model, SelectorParams.default(), held_out)
    done = time.perf_counter()

    for line in report.lines():
        print(line)
    print(f"bits/char = {8 * report.hint_bytes / len(held_out):.4f}")
    print(f"error rate = {report.errors / len(held_out):.4f}")
    print(f"timing: train {trained - start:.2f}s  evaluate {done - trained:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
