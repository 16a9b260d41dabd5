"""CTC loss and decoding.

The loss is one fused op: a float64 numpy pass computes the log-softmax
and the forward (alpha) recursion over the 2N+1 extended label sequence,
and records a single tape node.  Its backward pass runs the same
recursion on the time- and state-reversed emissions to get beta, and
returns softmax minus the normalised state occupancy alpha * beta /
emission, summed by label (Graves et al., ICML 2006).  The dynamic
program stays in float64 -- it is exactly the place where 32-bit
accumulation drifts -- and only the final scalar is rounded to storage
precision.  An untaped call never computes beta.

Decoding offers per-frame argmax (greedy) and prefix beam search.  The
beam search keeps per-prefix (blank-ending, symbol-ending) log masses and
scores each frame as arrays: every live prefix's extensions form one
`[k, V]` float64 array, so the Python work per frame grows with the beam
width, not with beam x V.  Each next-frame mass receives at most two
log-add terms and ties are ordered by `(-score, prefix)`, so the n-best
lists do not depend on accumulation order.  Scores carry no length
normalisation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .lexicon import Posteriorgram, TokenSeq, collapse

INFEASIBLE_LOSS = 1.0e30  # sentinel: exp(-loss) == 0, gradient-free

_LOG_PROB_FLOOR = 1e-37  # keeps log() of exact-zero posteriors finite


@dataclass(frozen=True)
class CtcLoss:
    loss: "tt.Tensor"
    feasible: bool


@dataclass(frozen=True)
class NBestList:
    hypotheses: tuple[tuple[TokenSeq, float], ...]  # (tokens, log prob), best first
    beam_size: int
    n: int

    def __post_init__(self):
        scores = [s for _, s in self.hypotheses]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise ValueError("n-best hypotheses must be sorted by score descending")
        seqs = [h for h, _ in self.hypotheses]
        if len(set(seqs)) != len(seqs):
            raise ValueError("n-best hypotheses must be distinct")
        if len(self.hypotheses) > self.n:
            raise ValueError("more hypotheses than requested")

    def top(self) -> TokenSeq:
        return self.hypotheses[0][0]


def min_frames(y: TokenSeq) -> int:
    """Frames needed to emit y: one per token plus a blank between repeats."""
    return len(y) + sum(1 for a, b in zip(y, y[1:]) if a == b)


def ctc_loss(logits: tt.Tensor, y: TokenSeq, blank_id: int) -> CtcLoss:
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

    ext = np.full(2 * len(y) + 1, blank_id, dtype=np.intp)
    ext[1::2] = y
    x = logits.data.astype(np.float64)
    zc = x - x.max(axis=1, keepdims=True)
    logp = zc - np.log(np.exp(zc).sum(axis=1, keepdims=True))
    emit = logp[:, ext]
    alpha = _forward(emit, _skip_mask(ext, blank_id))
    tail = alpha[-1, -2:]  # a path ends on the last token or the blank after it
    top = tail.max()
    total = top + np.log(np.exp(tail - top).sum())

    def backward(g):
        # d loss / d logits = softmax - normalised state occupancy, where the
        # occupancy alpha * beta / emission sums each frame's states by label
        beta = _forward(emit[::-1, ::-1], _skip_mask(ext[::-1], blank_id))[::-1, ::-1]
        occupancy = np.zeros_like(logp)
        np.add.at(occupancy, (slice(None), ext), np.exp(alpha + beta - emit - total))
        return (((np.exp(logp) - occupancy) * g).astype(g.dtype),)

    # one tape node; only the float64 scalar is rounded to storage precision
    loss = tt._emit(logits.tape, -total, (logits.nid,), backward)
    tt._finite(loss.data, "the CTC loss")
    return CtcLoss(loss, True)


def _skip_mask(ext: np.ndarray, blank_id: int) -> np.ndarray:
    """0 where state s may be entered from s - 2 (a non-repeated token), else LOG_ZERO."""
    mask = np.full(ext.size, tt.LOG_ZERO)
    mask[2:][(ext[2:] != blank_id) & (ext[2:] != ext[:-2])] = 0.0
    return mask


def _forward(emit: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """Log forward variables over the extended states, one row per frame.

    A path starts on the leading blank or the first token and each frame
    stays, moves one state on, or skips a blank where `skip` allows it;
    unreachable states hold LOG_ZERO-scale values.
    """
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


def greedy_decode(p: Posteriorgram) -> TokenSeq:
    """Per-frame argmax (ties take the lowest index), then collapse."""
    path = tuple(int(i) for i in np.argmax(p.probs, axis=1))
    return collapse(path, p.width - 1)


def beam_search(p: Posteriorgram, beam: int, n: int) -> NBestList:
    """Prefix beam search over the posteriorgram, scored one frame at a time.

    Each live prefix tracks log mass split by whether its last frame was
    blank.  Per frame, the k live prefixes stay (a blank, or their last
    symbol again) as length-k arrays, and grow by every token as one
    `[k, V]` array; growing by the last symbol again draws only on the
    blank-ending mass.  A growth that lands on a live prefix is log-added
    into that prefix's symbol-ending mass and leaves the candidate set.

    So every next-frame mass receives at most two log-add terms, and since
    `np.logaddexp` is symmetric with `logaddexp(-inf, x) == x`, the result
    does not depend on accumulation order.  The `beam` best candidates are
    kept, ties ordered by `(-score, prefix)`: `np.partition` finds the
    beam-th best score and only the candidates at or above it are sorted.
    Scores carry no length normalisation.
    """
    if not beam >= n >= 1:
        raise ValueError("need beam >= n >= 1")
    probs = np.asarray(p.probs, dtype=np.float64)
    logp = np.log(np.maximum(probs, _LOG_PROB_FLOOR))
    v = logp.shape[1] - 1
    tokens = np.tile(np.arange(v), beam)
    no_mass = np.full(beam * v, -np.inf)

    prefixes: list[TokenSeq] = [()]
    scores = [0.0]
    pb = np.zeros(1)  # blank-ending log mass per live prefix
    pnb = np.full(1, -np.inf)  # symbol-ending log mass
    last = np.full(1, -1)  # last symbol, -1 for the empty prefix
    for lp in logp:
        k = len(prefixes)
        total = np.logaddexp(pb, pnb)
        stay_b = total + lp[v]
        ends = last >= 0
        stay_nb = np.where(ends, pnb + lp[last], -np.inf)
        grow = total[:, None] + lp[None, :v]
        rows = np.flatnonzero(ends)
        grow[rows, last[rows]] = pb[rows] + lp[last[rows]]
        grow = grow.ravel()

        # live q whose parent q[:-1] is live: cell [parent, q[-1]] is q again
        index = {q: i for i, q in enumerate(prefixes)}
        merged = [(i, index[q[:-1]]) for i, q in enumerate(prefixes) if q and q[:-1] in index]
        valid = np.ones(k + k * v, dtype=bool)
        if merged:
            child, parent = np.array(merged).T
            cells = parent * v + last[child]
            stay_nb[child] = np.logaddexp(stay_nb[child], grow[cells])
            valid[k + cells] = False

        mass_b = np.concatenate((stay_b, no_mass[: k * v]))
        mass_nb = np.concatenate((stay_nb, grow))
        score = np.concatenate((np.logaddexp(stay_b, stay_nb), grow))
        ids = np.flatnonzero(valid)
        if ids.size > beam:  # keep ties with the beam-th best for the prefix tie-break
            cut = ids.size - beam
            floor = np.partition(score[ids], cut)[cut]
            ids = ids[score[ids] >= floor]

        ranked = []
        for j, s in zip(ids.tolist(), score[ids].tolist()):
            if j < k:
                q = prefixes[j]
            else:
                r, c = divmod(j - k, v)
                q = prefixes[r] + (c,)
            ranked.append((-s, q, j))
        ranked.sort()
        del ranked[beam:]

        keep = np.array([j for _, _, j in ranked])
        prefixes = [q for _, q, _ in ranked]
        scores = [-neg for neg, _, _ in ranked]
        pb, pnb = mass_b[keep], mass_nb[keep]
        last = np.concatenate((last, tokens[: k * v]))[keep]

    return NBestList(tuple(zip(prefixes[:n], scores[:n])), beam_size=beam, n=n)


def nbest_to_json(utt_id: str, nbest: NBestList) -> str:
    return json.dumps(
        {"utt": utt_id,
         "hyps": [{"tokens": list(h), "logp": s} for h, s in nbest.hypotheses],
         "beam": nbest.beam_size,
         "n": nbest.n},
        sort_keys=True,
    )


def nbest_from_json(line: str) -> tuple[str, NBestList]:
    d = json.loads(line)
    hyps = tuple((tuple(h["tokens"]), float(h["logp"])) for h in d["hyps"])
    return d["utt"], NBestList(hyps, beam_size=d["beam"], n=d["n"])
