"""Command-line front end: alpha, train, encode, decode, trace, score, eval,
gen, analyze.

The threshold alpha is fixed by the 2L+E objective, so no subcommand takes a
tolerance and encode and decode always agree on it. Text I/O is raw UTF-8
with no newline normalization; file writes go through a temp file and
rename. Exit codes: 0 success, 1 generic failure, 2 missing file, 3 malformed
model file, 4 character outside the model alphabet. Decode errors are data,
not failures, and exit 0.
"""

from __future__ import annotations

import argparse
import os
import secrets
import sys
from collections import Counter

from .harness import (
    ACCEPTANCE_SEED,
    ScoreReport,
    eta_source,
    gen_bytes,
    gen_iid,
    gen_markov,
    evaluate,
    two_state_chain,
)
from .model import (
    Distribution,
    ModelFormatError,
    UnknownCharacterError,
    entropy,
    parse_model,
    serialize_model,
    surprise,
    train,
)
from .rewind import HintsFile, encode_document, render_trace, run_trace
from .selector import SelectorParams, marginal_f


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8", newline="") as f:
        return f.read()


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _write_atomic(path: str, data: bytes) -> None:
    """Write `data` to a new, uniquely named file beside `path`, then rename it
    over `path`. The temp file is created exclusively, so no existing file is
    truncated, and it is removed if the write or the rename fails."""
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # e.g. a missing directory: name the path the caller gave
        exc.filename = path
        raise
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_model(path: str):
    return parse_model(_read_bytes(path))


def cmd_alpha(args) -> int:
    alpha = SelectorParams.default().alpha
    print(f"{alpha:.10f}")
    print(f"residual={abs(marginal_f(alpha)):.3e}")
    return 0


def cmd_train(args) -> int:
    corpus = _read_text(args.corpus)
    model = train(corpus, args.order, args.smoothing)
    _write_atomic(args.out, serialize_model(model))
    print(f"alphabet={len(model.alphabet.glyphs)} order={model.order} out={args.out}")
    return 0


def cmd_encode(args) -> int:
    model = _load_model(args.model)
    hints, report = encode_document(model, SelectorParams.default(), _read_text(args.text))
    _write_atomic(args.out, hints.payload)
    print(
        f"L={hints.byte_length} bits={report.bit_count}"
        f" kept={report.kept} skipped={report.skipped}"
    )
    return 0


def cmd_decode(args) -> int:
    model = _load_model(args.model)
    hints = HintsFile.from_payload(_read_bytes(args.hints))
    trace = run_trace(model, SelectorParams.default(), hints, _read_text(args.text))
    if args.out:
        _write_atomic(args.out, trace.decoded.encode("utf-8"))
    print(f"errors={trace.errors}")
    return 0


def cmd_trace(args) -> int:
    model = _load_model(args.model)
    hints = HintsFile.from_payload(_read_bytes(args.hints))
    trace = run_trace(model, SelectorParams.default(), hints, _read_text(args.text))
    print(render_trace(trace, ansi=args.ansi))
    print(f"errors={trace.errors}")
    return 0


def _size(number: int | None, path: str | None, flags: str) -> int | None:
    """`number`, or the size of the file at `path`; giving both is an error."""
    if number is not None and path is not None:
        raise ValueError(f"give {flags}, not both")
    return number if path is None else len(_read_bytes(path))


def cmd_score(args) -> int:
    hint_bytes = _size(args.hint_bytes, args.hints, "--hint-bytes or --hints")
    if hint_bytes is None:
        raise ValueError("give --hint-bytes or --hints")
    model_bytes = _size(args.model_bytes, args.model, "--model-bytes or --model")
    report = ScoreReport(hint_bytes=hint_bytes, errors=args.errors, model_bytes=model_bytes)
    print(report.summary_line())
    if report.score_with_model is not None:
        print(f"score_with_model={report.score_with_model}")
    return 0


def cmd_eval(args) -> int:
    model = _load_model(args.model)
    report, _ = evaluate(model, SelectorParams.default(), _read_text(args.text))
    for line in report.lines():
        print(line)
    return 0


def cmd_gen(args) -> int:
    if args.kind == "bytes":
        data = gen_bytes(args.count, args.seed)
        if args.out:
            _write_atomic(args.out, data)
        else:
            sys.stdout.buffer.write(data)
        return 0
    if args.kind == "eta":
        text = gen_iid(eta_source(), args.count, args.seed)
    else:
        text = gen_markov(two_state_chain(), args.count, args.seed)
    if args.out:
        _write_atomic(args.out, text.encode("utf-8"))
    else:
        print(text, end="")
    return 0


def cmd_analyze(args) -> int:
    corpus = _read_text(args.corpus)
    if not corpus:
        raise ValueError("empty corpus")
    ranked = sorted(Counter(corpus).items(), key=lambda kv: (-kv[1], kv[0]))
    probs = [c / len(corpus) for _, c in ranked]
    for (ch, _), p in zip(ranked, probs):
        print(f"char={ch!r} p={p:.6f} surprise={surprise(p):.6f}")
    print(f"entropy={entropy(Distribution(probs)):.6f}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rwc",
        description="Guess text one character at a time, with arithmetic-coded hints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alpha", help="print the kept-set threshold constant")
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("train", help="train a model on a corpus file")
    p.add_argument("corpus")
    p.add_argument("out")
    p.add_argument("-k", "--order", type=int, default=2)
    p.add_argument("-b", "--smoothing", type=float, default=0.1)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", help="encode a text into a hints file")
    p.add_argument("model")
    p.add_argument("text")
    p.add_argument("out")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode guesses against the true text")
    p.add_argument("model")
    p.add_argument("hints")
    p.add_argument("text")
    p.add_argument("--out", help="write the reconstructed text here")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("trace", help="print the text over the guess line")
    p.add_argument("model")
    p.add_argument("hints")
    p.add_argument("text")
    p.add_argument("--ansi", action="store_true", help="highlight errors in color instead of brackets")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("score", help="compute 2L+E from explicit counts or files")
    p.add_argument("-L", "--hint-bytes", type=int)
    p.add_argument("-E", "--errors", type=int, required=True)
    p.add_argument("--hints", help="hints file to measure for L")
    p.add_argument("--model", help="model file to measure for score_with_model")
    p.add_argument("--model-bytes", type=int, help="model size for score_with_model")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", help="encode, decode, and score a text in one step")
    p.add_argument("model")
    p.add_argument("text")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gen", help="generate deterministic synthetic data")
    p.add_argument("kind", choices=("eta", "chain", "bytes"))
    p.add_argument("count", type=int)
    p.add_argument("--seed", type=lambda s: int(s, 0), default=ACCEPTANCE_SEED)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("analyze", help="per-character surprise and corpus entropy")
    p.add_argument("corpus")
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename}", file=sys.stderr)
        return 2
    except ModelFormatError as exc:
        print(f"error: malformed model: {exc}", file=sys.stderr)
        return 3
    except UnknownCharacterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
