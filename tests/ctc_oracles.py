"""Slow reference implementations that the CTC tests check the package against.

`alignment_oracle` enumerates every frame path by brute force.
`ctc_loss_reference` is the tape-built forward recursion that the fused
`ctcbridge.ctc.ctc_loss` replaced: about seven tape nodes per frame
(log-softmax, gather, shift, logaddexp, slice), whose gradient comes from
the generic backward rules.  The fused loss must match its value bit for
bit and its gradient to rounding.
`beam_search_reference` is the dict-based prefix beam search of one
utterance that `ctcbridge.ctc.beam_search` replaced: one Python
`np.logaddexp` per (prefix, token) pair and a full sort of every candidate
each frame.  The batched array search must reproduce its n-best lists bit
for bit, for every utterance of a batch.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ctcbridge import tensor as tt
from ctcbridge.ctc import _LOG_PROB_FLOOR, INFEASIBLE_LOSS, CtcLoss, NBestList, min_frames
from ctcbridge.lexicon import Alignment, TokenSeq, collapse
from tape_ops import gather_flat, log_softmax, logaddexp, logsumexp, mul, neg, precision, shift


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


def ctc_loss_reference(logits: tt.Tensor, y: TokenSeq, blank_id: int) -> CtcLoss:
    """-log P(y | logits) summed over all alignments, differentiable through
    the [T, V+1] `logits`.

    Infeasible targets (more symbols than frames can carry) return the
    INFEASIBLE_LOSS sentinel with `feasible=False` instead of raising, so a
    training loop can skip and count them.
    """
    t_frames, width = logits.shape
    if t_frames < 1:
        raise ValueError("logit gram needs at least one frame")
    if width != blank_id + 1:
        raise ValueError(f"logit gram width {width} does not match blank id {blank_id}")
    if any(not 0 <= c < blank_id for c in y):
        raise ValueError("target contains ids outside [0, V)")
    if min_frames(y) > t_frames:
        return CtcLoss(tt.Tensor(np.float32(INFEASIBLE_LOSS)), False)

    n = len(y)
    s = 2 * n + 1
    ext = np.empty(s, dtype=np.intp)
    ext[0::2] = blank_id
    ext[1::2] = np.asarray(y, dtype=np.intp)

    # states whose s-2 transition is allowed: non-blank and not a repeat
    skip_ok = np.full(s, tt.LOG_ZERO, dtype=np.float64)
    for i in range(2, s):
        if ext[i] != blank_id and ext[i] != ext[i - 2]:
            skip_ok[i] = 0.0

    init = np.full(s, tt.LOG_ZERO, dtype=np.float64)
    init[0] = 0.0
    if s > 1:
        init[1] = 0.0

    with precision(np.float64):
        logp = log_softmax(logits)
        flat_ids = (np.arange(t_frames)[:, None] * width + ext[None, :]).reshape(-1)
        emit = tt.reshape(gather_flat(logp, flat_ids), (t_frames, s))

        alpha = tt.add(tt.reshape(tt.slice_rows(emit, 0, 1), (s,)), tt.Tensor(init))
        skip_mask = tt.Tensor(skip_ok)
        for t in range(1, t_frames):
            stay_or_move = logaddexp(alpha, shift(alpha, 1))
            skipped = tt.add(shift(alpha, 2), skip_mask)
            alpha = tt.add(logaddexp(stay_or_move, skipped), tt.reshape(
                tt.slice_rows(emit, t, t + 1), (s,)
            ))

        if s == 1:
            total = gather_flat(alpha, [0])
        else:
            tail = gather_flat(alpha, [s - 2, s - 1])
            total = logsumexp(tail)
        loss64 = tt.reshape(neg(total), ())

    # round the accumulated scalar back to storage precision
    loss = mul(loss64, 1.0)
    return CtcLoss(loss, True)


def beam_search_reference(probs: np.ndarray, beam: int, n: int) -> NBestList:
    """Prefix beam search over one utterance's [T, V+1] posteriorgram rows.

    Each live prefix tracks log mass split by whether its last frame was
    blank; extending with the last symbol again only grows the prefix from
    the blank-ending mass (the other mass merges into the same prefix).
    """
    if not beam >= n >= 1:
        raise ValueError("need beam >= n >= 1")
    logp = np.log(np.maximum(np.asarray(probs, dtype=np.float64), _LOG_PROB_FLOOR))
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
