"""Slow reference implementations that the CTC tests check the package against.

`alignment_oracle` enumerates every frame path by brute force.
`ctc_loss_reference` is the tape-built forward recursion that the fused
CTC loss replaced: about seven tape nodes per frame (log-softmax, gather,
shift, logaddexp, slice), whose gradient comes from the generic backward
rules.  The fused loss must match its value bit for bit and its gradient
to rounding.
`fused_ctc_loss` is the fused loss of one utterance that the batched
`ctcbridge.ctc.ctc_loss` replaced: one float64 numpy pass and one tape
node per utterance, with two frame loops (alpha, and beta in the backward
pass).  `batch_ctc_loss` is how a packed batch used it: one `slice_rows`
node and one `fused_ctc_loss` node per utterance, then one `mean` node
(`tape_ops.mean`) over the feasible ones.  The batched loss must
reproduce its value and gradient bit for bit in float32.
`beam_search_reference` is the dict-based prefix beam search of one
utterance that `ctcbridge.ctc.beam_search` replaced: one Python
`np.logaddexp` per (prefix, token) pair and a full sort of every candidate
each frame.  The batched array search must reproduce its n-best lists bit
for bit, for every utterance of a batch.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ctcbridge import tensor as tt
from ctcbridge.ctc import _LOG_PROB_FLOOR, INFEASIBLE_LOSS, NBestList, min_frames
from ctcbridge.lexicon import Alignment, TokenSeq, collapse
from tape_ops import (gather_flat, log_softmax, logaddexp, logsumexp, mean, mul, neg, precision,
                      shift)


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


@dataclass(frozen=True)
class UtteranceLoss:
    loss: tt.Tensor
    feasible: bool


def ctc_loss_reference(logits: tt.Tensor, y: TokenSeq, blank_id: int) -> UtteranceLoss:
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
        return UtteranceLoss(tt.Tensor(np.float32(INFEASIBLE_LOSS)), False)

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
    return UtteranceLoss(loss, True)


def fused_ctc_loss(logits: tt.Tensor, y: TokenSeq, blank_id: int) -> UtteranceLoss:
    """-log P(y | logits) of one utterance's [T, V+1] `logits` as one tape
    node; the INFEASIBLE_LOSS sentinel, untaped, for an infeasible target."""
    t_frames, width = logits.shape
    if t_frames < 1:
        raise ValueError("logit gram needs at least one frame")
    if width != blank_id + 1:
        raise ValueError(f"logit gram width {width} does not match blank id {blank_id}")
    if any(not 0 <= c < blank_id for c in y):
        raise ValueError("target contains ids outside [0, V)")
    if min_frames(y) > t_frames:
        return UtteranceLoss(tt.Tensor(np.float32(INFEASIBLE_LOSS)), False)

    ext = np.full(2 * len(y) + 1, blank_id, dtype=np.intp)
    ext[1::2] = y
    x = logits.data.astype(np.float64)
    zc = x - x.max(axis=1, keepdims=True)
    logp = zc - np.log(np.exp(zc).sum(axis=1, keepdims=True))
    emit = logp[:, ext]
    alpha = _forward_one(emit, _skip_mask_one(ext, blank_id))
    tail = alpha[-1, -2:]  # a path ends on the last token or the blank after it
    top = tail.max()
    total = top + np.log(np.exp(tail - top).sum())

    def backward(g):
        beta = _forward_one(emit[::-1, ::-1], _skip_mask_one(ext[::-1], blank_id))[::-1, ::-1]
        occupancy = np.zeros_like(logp)
        np.add.at(occupancy, (slice(None), ext), np.exp(alpha + beta - emit - total))
        return (((np.exp(logp) - occupancy) * g).astype(g.dtype),)

    loss = tt._emit(logits.tape, -total, (logits.nid,), backward)
    tt._finite(loss.data, "the CTC loss")
    return UtteranceLoss(loss, True)


def _skip_mask_one(ext: np.ndarray, blank_id: int) -> np.ndarray:
    mask = np.full(ext.size, tt.LOG_ZERO)
    mask[2:][(ext[2:] != blank_id) & (ext[2:] != ext[:-2])] = 0.0
    return mask


def _forward_one(emit: np.ndarray, skip: np.ndarray) -> np.ndarray:
    alpha = np.empty_like(emit)
    init = np.full(emit.shape[1], tt.LOG_ZERO)
    init[:2] = 0.0
    alpha[0] = emit[0] + init
    one = np.full(emit.shape[1], tt.LOG_ZERO)
    two = np.full(emit.shape[1], tt.LOG_ZERO)
    for t in range(1, emit.shape[0]):
        one[1:] = alpha[t - 1, :-1]
        two[2:] = alpha[t - 1, :-2]
        alpha[t] = np.logaddexp(np.logaddexp(alpha[t - 1], one), two + skip) + emit[t]
    return alpha


def batch_ctc_loss(logits: tt.Tensor, ys: Sequence[TokenSeq], blank_id: int,
                   lengths: Sequence[int]) -> tuple[Optional[tt.Tensor], list[Optional[float]]]:
    """(mean loss over the feasible utterances or None, each utterance's
    loss or None) of a packed batch, one `fused_ctc_loss` per utterance."""
    losses, each, start = [], [], 0
    for y, t in zip(ys, lengths):
        res = fused_ctc_loss(tt.slice_rows(logits, start, start + t), y, blank_id)
        if res.feasible:
            losses.append(res.loss)
        each.append(res.loss.item() if res.feasible else None)
        start += t
    return (mean(losses) if losses else None), each


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
