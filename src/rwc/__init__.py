"""Text compression with an error budget.

Predict text one character at a time, spell out only the characters worth
spelling out, and let the rest become wrong guesses: the decoder rewinds its
arithmetic coder on every miss and reinterprets the same bits in the
corrected context. Scoring follows the 2L+E objective: hint bytes count
double, errors count once.
"""

from .coder import Decoder, Encoder, FrequencyTable, quantize
from .harness import (
    ACCEPTANCE_SEED,
    ChainSource,
    ScoreReport,
    SplitMix64,
    eta_source,
    evaluate,
    gen_bytes,
    gen_markov,
    model_from_chain,
    two_state_chain,
)
from .model import (
    BOS,
    Alphabet,
    ContextModel,
    ModelFormatError,
    UnknownCharacterError,
    build_alphabet,
    entropy,
    parse_model,
    predict,
    serialize_model,
    surprise,
    train,
)
from .rewind import (
    DecodeTrace,
    DecoderSession,
    EncodeReport,
    HintsFile,
    StepOutcome,
    decode_text,
    encode_document,
    render_trace,
    run_trace,
)
from .selector import (
    SelectorParams,
    full_support,
    select_kept,
    solve_alpha,
    subset_cost,
)

__version__ = "0.1.0"

__all__ = [
    "ACCEPTANCE_SEED",
    "Alphabet",
    "BOS",
    "ChainSource",
    "ContextModel",
    "DecodeTrace",
    "Decoder",
    "DecoderSession",
    "EncodeReport",
    "Encoder",
    "FrequencyTable",
    "HintsFile",
    "ModelFormatError",
    "ScoreReport",
    "SelectorParams",
    "SplitMix64",
    "StepOutcome",
    "UnknownCharacterError",
    "build_alphabet",
    "decode_text",
    "encode_document",
    "entropy",
    "eta_source",
    "evaluate",
    "full_support",
    "gen_bytes",
    "gen_markov",
    "model_from_chain",
    "parse_model",
    "predict",
    "quantize",
    "render_trace",
    "run_trace",
    "select_kept",
    "serialize_model",
    "solve_alpha",
    "subset_cost",
    "surprise",
    "train",
    "two_state_chain",
]
