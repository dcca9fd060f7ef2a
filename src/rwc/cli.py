"""Command-line front end: train, encode, decode, trace, score, gen, analyze.

Text I/O is raw UTF-8 with no newline normalization; file writes go through a
temp file and rename. Exit codes: 0 success, 1 generic failure, 2 missing
file, 3 malformed model file, 4 character outside the model alphabet. Decode
errors are data, not failures, and exit 0.
"""

from __future__ import annotations

import argparse
import os
import secrets
import sys
from collections import Counter
from dataclasses import dataclass

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
    ModelFormatError,
    UnknownCharacterError,
    parse_model,
    serialize_model,
    surprise,
    train,
)
from .rewind import HintsFile, encode_document, render_trace, run_trace
from .selector import ALPHA_DEFAULT_TOL, SelectorParams, marginal_f, solve_alpha


@dataclass(frozen=True)
class Config:
    """Defaults shared by all subcommands; documented and stable."""

    order: int = 2
    smoothing: float = 0.1
    alpha_tol: float = ALPHA_DEFAULT_TOL
    include_model: bool = False
    seed: int = ACCEPTANCE_SEED

    @classmethod
    def from_env(cls) -> "Config":
        """The stock config, with the seed overridable through RWC_SEED."""
        raw = os.environ.get("RWC_SEED")
        if raw is None:
            return cls()
        return cls(seed=int(raw, 0))


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
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_model(path: str):
    return parse_model(_read_bytes(path))


def _params(args) -> SelectorParams:
    return SelectorParams.default(args.tol)


def cmd_alpha(args) -> int:
    alpha = solve_alpha(args.tol)
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
    hints, report = encode_document(model, _params(args), _read_text(args.text))
    _write_atomic(args.out, hints.payload)
    print(
        f"L={hints.byte_length} bits={report.bit_count}"
        f" kept={report.kept} skipped={report.skipped}"
    )
    return 0


def cmd_decode(args) -> int:
    model = _load_model(args.model)
    hints = HintsFile.from_payload(_read_bytes(args.hints))
    trace = run_trace(model, _params(args), hints, _read_text(args.text))
    if args.out:
        _write_atomic(args.out, trace.decoded.encode("utf-8"))
    print(f"errors={trace.errors}")
    return 0


def cmd_trace(args) -> int:
    model = _load_model(args.model)
    hints = HintsFile.from_payload(_read_bytes(args.hints))
    trace = run_trace(model, _params(args), hints, _read_text(args.text))
    print(render_trace(trace, ansi=args.ansi))
    print(f"errors={trace.errors}")
    return 0


def cmd_score(args) -> int:
    hint_bytes = args.hint_bytes
    if hint_bytes is None:
        if args.hints is None:
            raise ValueError("give --hint-bytes or --hints")
        hint_bytes = len(_read_bytes(args.hints))
    model_bytes = args.model_bytes
    if model_bytes is None and args.model is not None:
        model_bytes = len(_read_bytes(args.model))
    report = ScoreReport(
        hint_bytes=hint_bytes,
        errors=args.errors,
        model_bytes=model_bytes,
        include_model=args.include_model,
    )
    print(report.summary_line())
    return 0


def cmd_eval(args) -> int:
    model = _load_model(args.model)
    report, _ = evaluate(
        model, _params(args), _read_text(args.text), include_model=args.include_model
    )
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
    counts = Counter(corpus)
    total = len(corpus)
    entropy_bits = 0.0
    for ch, c in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        p = c / total
        s = surprise(p)
        entropy_bits += p * s
        print(f"char={ch!r} p={p:.6f} surprise={s:.6f}")
    print(f"entropy={entropy_bits:.6f}")
    return 0


def _build_parser(cfg: Config) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rwc",
        description="Guess text one character at a time, with arithmetic-coded hints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tol(p):
        p.add_argument("--tol", type=float, default=cfg.alpha_tol, help="threshold solver tolerance")

    p = sub.add_parser("alpha", help="print the kept-set threshold constant")
    add_tol(p)
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("train", help="train a model on a corpus file")
    p.add_argument("corpus")
    p.add_argument("out")
    p.add_argument("-k", "--order", type=int, default=cfg.order)
    p.add_argument("-b", "--smoothing", type=float, default=cfg.smoothing)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", help="encode a text into a hints file")
    p.add_argument("model")
    p.add_argument("text")
    p.add_argument("out")
    add_tol(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode guesses against the true text")
    p.add_argument("model")
    p.add_argument("hints")
    p.add_argument("text")
    p.add_argument("--out", help="write the reconstructed text here")
    add_tol(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("trace", help="print the text over the guess line")
    p.add_argument("model")
    p.add_argument("hints")
    p.add_argument("text")
    p.add_argument("--ansi", action="store_true", help="highlight errors in color instead of brackets")
    add_tol(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("score", help="compute 2L+E from explicit counts or files")
    p.add_argument("-L", "--hint-bytes", type=int)
    p.add_argument("-E", "--errors", type=int, required=True)
    p.add_argument("--hints", help="hints file to measure for L")
    p.add_argument("--model", help="model file to measure for the optional model term")
    p.add_argument("--model-bytes", type=int)
    p.add_argument("--include-model", action="store_true", default=cfg.include_model)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", help="encode, decode, and score a text in one step")
    p.add_argument("model")
    p.add_argument("text")
    p.add_argument("--include-model", action="store_true", default=cfg.include_model)
    add_tol(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gen", help="generate deterministic synthetic data")
    p.add_argument("kind", choices=("eta", "chain", "bytes"))
    p.add_argument("count", type=int)
    p.add_argument("--seed", type=lambda s: int(s, 0), default=cfg.seed)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("analyze", help="per-character surprise and corpus entropy")
    p.add_argument("corpus")
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser(Config.from_env())
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
