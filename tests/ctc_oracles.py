"""Slow reference implementations that the CTC tests check the package against.

`alignment_oracle` enumerates every frame path by brute force.
`beam_search_reference` is the dict-based prefix beam search that
`ctcbridge.ctc.beam_search` replaced: one Python `np.logaddexp` per
(prefix, token) pair and a full sort of every candidate each frame.  The
array version must reproduce its n-best lists bit for bit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ctcbridge.ctc import _LOG_PROB_FLOOR, NBestList
from ctcbridge.lexicon import Alignment, Posteriorgram, TokenSeq, collapse


def alignment_oracle(y: TokenSeq, frames: int, vocab_size: int, blank_id: int | None = None) -> set[Alignment]:
    """Exact A(y) by filtering every (V+1)^T path; guarded to tiny instances."""
    if frames > 8 or vocab_size > 4:
        raise ValueError("alignment oracle is limited to frames <= 8 and V <= 4")
    blank = vocab_size if blank_id is None else blank_id
    target = tuple(y)
    return {
        path
        for path in itertools.product(range(vocab_size + 1), repeat=frames)
        if collapse(path, blank) == target
    }


def beam_search_reference(p: Posteriorgram, beam: int, n: int) -> NBestList:
    """Prefix beam search over the posteriorgram.

    Each live prefix tracks log mass split by whether its last frame was
    blank; extending with the last symbol again only grows the prefix from
    the blank-ending mass (the other mass merges into the same prefix).
    """
    if not beam >= n >= 1:
        raise ValueError("need beam >= n >= 1")
    probs = np.asarray(p.probs, dtype=np.float64)
    logp = np.log(np.maximum(probs, _LOG_PROB_FLOOR))
    t_frames, width = logp.shape
    v = width - 1
    neg_inf = -math.inf

    beams: dict[TokenSeq, list[float]] = {(): [0.0, neg_inf]}  # prefix -> [blank-ending, symbol-ending]
    for t in range(t_frames):
        lp = logp[t]
        nxt: dict[TokenSeq, list[float]] = {}

        def slot(prefix):
            e = nxt.get(prefix)
            if e is None:
                e = [neg_inf, neg_inf]
                nxt[prefix] = e
            return e

        for prefix, (pb, pnb) in beams.items():
            total = np.logaddexp(pb, pnb)
            here = slot(prefix)
            here[0] = np.logaddexp(here[0], total + lp[v])
            if prefix:
                here[1] = np.logaddexp(here[1], pnb + lp[prefix[-1]])
            for c in range(v):
                grown = slot(prefix + (c,))
                src = pb if (prefix and c == prefix[-1]) else total
                grown[1] = np.logaddexp(grown[1], src + lp[c])

        ranked = sorted(
            nxt.items(), key=lambda kv: (-np.logaddexp(kv[1][0], kv[1][1]), kv[0])
        )
        beams = dict(ranked[:beam])

    scored = sorted(
        ((prefix, float(np.logaddexp(pb, pnb))) for prefix, (pb, pnb) in beams.items()),
        key=lambda kv: (-kv[1], kv[0]),
    )
    return NBestList(tuple(scored[:n]), beam_size=beam, n=n)
