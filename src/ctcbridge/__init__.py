"""Bridge a CTC speech encoder and a decoder-only LM through pseudo-speech
embeddings reconstructed from the encoder's posterior distributions.

The command line is `python -m ctcbridge.cli`; `cli` is not imported here,
so running it as a module does not find it already loaded."""

from . import checkpoint, connector, ctc, lexicon, metrics, models, rng, synthdata, tensor

__all__ = [
    "checkpoint",
    "connector",
    "ctc",
    "lexicon",
    "metrics",
    "models",
    "rng",
    "synthdata",
    "tensor",
]
