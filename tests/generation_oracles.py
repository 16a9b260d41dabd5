"""Greedy generation as it was before it was batched and cached.

`generate` decodes one utterance with one full, unbatched decoder pass over
[speech; prompt; tokens so far] for every token, and `decode_utterance`
runs the encoder and the connection for one utterance before it.  The
passes are the one-utterance ones of `packing_oracles`.  The
batched `models.generate` with its K/V cache, and `models.evaluate_system`
over a whole dataset, are checked against these.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ctcbridge import tensor as tt
from ctcbridge.ctc import NBestList
from ctcbridge.lexicon import TokenSeq, Vocabulary
from ctcbridge.models import DecoderSystem, SpeechEncoder, prompt_ids
from ctcbridge.synthdata import Utterance
from packing_oracles import decoder_forward, encoder_readout


def generate(sys: DecoderSystem, speech: Optional[tt.Tensor], prompt: list[int],
             max_new: int = 48) -> TokenSeq:
    """Greedy autoregressive decode until <eos> or `max_new` generated tokens."""
    if max_new < 1:
        raise ValueError("max_new must be >= 1")
    dec = sys.decoder
    eos = dec.vocab.eos_id
    s = 0 if speech is None else speech.shape[0]
    budget = min(max_new, dec.cfg.max_len - s - len(prompt))
    ids = list(prompt)
    for _ in range(budget):
        logits = tt._finite(decoder_forward(dec, speech, ids).data[-1], "the next-token logits")
        nxt = int(np.argmax(logits))
        if nxt == eos:
            break
        ids.append(nxt)
    return tuple(ids[len(prompt):])


def decode_utterance(sys: DecoderSystem, enc: SpeechEncoder, vocab: Vocabulary,
                     utt: Utterance, max_new: int = 48,
                     nbest: Optional[NBestList] = None) -> TokenSeq:
    speech = sys.connection.prefix(sys, encoder_readout(sys.connection.reads, enc, utt.frames),
                                   None, True)
    prompt = prompt_ids(sys, vocab, nbest)
    return generate(sys, speech, prompt, max_new=max_new)
