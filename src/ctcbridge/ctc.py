"""CTC loss and decoding.

The loss is one fused op over a packed batch: a float64 numpy pass
computes the log-softmax of every row, then the forward (alpha) recursion
over each utterance's 2N+1 extended label sequence, all utterances in one
frame loop over padded [B, 2N_max+1] arrays, and records a single
tape node for the mean over the feasible utterances.  On a tape the same
loop also runs the recursion on each utterance's time- and
state-reversed emissions, stacked under alpha's, to get beta; the
backward pass returns softmax minus the normalised state occupancy
alpha * beta / emission, summed by label (Graves et al., ICML 2006).  The
dynamic program stays in float64 -- it is exactly the place where 32-bit
accumulation drifts -- and only the per-utterance losses are rounded to
storage precision.  An untaped call never computes beta.

Decoding takes a batch of posteriorgrams (`Posteriorgram`, zero-padded
`[B, T_max, V+1]` rows) and returns one result per utterance: per-frame
argmax (greedy), or prefix beam search with one frame loop for the batch,
whose Python work grows with the prefixes it creates, not with utterances
x beam x V.  Its n-best lists are ranked by `(-score, prefix)`, exact ties
at the beam's cut keep the smallest prefixes, and they depend neither on
accumulation order nor on which utterances share a batch.  Scores carry
no length normalisation.  A search of B utterances holds their float64 log
posteriors, `[B, T_max, V+1]`, for the whole frame loop, a few per-frame
`[a, beam, V+1]` candidate arrays for the `a` utterances still running,
and a prefix trie of at most one node per utterance, frame and beam slot,
each node a tuple of its tokens.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import tensor as tt
from .lexicon import Posteriorgram, TokenSeq, collapse

INFEASIBLE_LOSS = 1.0e30  # sentinel: exp(-loss) == 0, gradient-free

_LOG_PROB_FLOOR = 1e-37  # keeps log() of exact-zero posteriors finite


@dataclass(frozen=True)
class CtcLoss:
    """A batch's CTC loss: `loss` is the mean over the utterances whose
    target is feasible, and `losses` holds each utterance's own loss in
    storage precision, None where its target is infeasible."""
    loss: "tt.Tensor"
    losses: tuple[Optional[float], ...]

    @property
    def feasible(self) -> bool:
        """Whether every utterance of the batch has a feasible target."""
        return None not in self.losses


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


def ctc_loss(logits: tt.Tensor, y: Sequence[TokenSeq], blank_id: int,
             lengths: Optional[Sequence[int]] = None) -> CtcLoss:
    """Mean over a batch's utterances of -log P(y_b | logits_b), summed over
    all alignments, differentiable through the packed [sum T, V+1] `logits`.

    `lengths` splits the rows into the utterances' consecutive segments
    (None: the rows are one utterance) and `y` holds one target per
    segment.  An infeasible target (more symbols than its frames can
    carry) is skipped instead of raising, so a training loop can count it;
    a batch with no feasible target gives the INFEASIBLE_LOSS sentinel,
    untaped.  The mean is the per-utterance losses, rounded to storage
    precision, summed in order; its gradient gives the rows of each of the n
    feasible utterances the share g / n.
    """
    segs = tt._segments(logits.shape[0], lengths)
    width = logits.shape[1]
    if segs[0][1] < 1:
        raise ValueError("logit gram needs at least one frame")
    if width != blank_id + 1:
        raise ValueError(f"logit gram width {width} does not match blank id {blank_id}")
    if len(y) != len(segs):
        raise ValueError(f"need one target per segment, got {len(y)} for {len(segs)}")
    if any(not 0 <= c < blank_id for target in y for c in target):
        raise ValueError("target contains ids outside [0, V)")
    feasible = [min_frames(target) <= b - a for (a, b), target in zip(segs, y)]
    ok = [j for j, f in enumerate(feasible) if f]
    if not ok:
        return CtcLoss(tt.Tensor(np.float32(INFEASIBLE_LOSS)), (None,) * len(segs))

    # the feasible utterances, padded to [B, T_max] frames and [B, S_max]
    # extended states (the blank before, between and after the tokens)
    first = np.array([segs[j][0] for j in ok])
    frames = np.array([segs[j][1] for j in ok]) - first
    states = np.array([2 * len(y[j]) + 1 for j in ok])
    batch, t_max, s_max = len(ok), frames.max(), states.max()
    ext = np.full((batch, s_max), blank_id, dtype=np.intp)
    for row, j in enumerate(ok):
        ext[row, 1:states[row]:2] = y[j]

    x = tt._f64(logits.data)
    zc = x - x.max(axis=1, keepdims=True)
    logp = zc - np.log(np.exp(zc).sum(axis=1, keepdims=True))
    # recursion row r reads frame t of logp row rows[r, t] and state s of
    # label exts[r, s]; on a tape, rows B.. are the utterances again, each
    # reversed in time and states.  Padding repeats a frame or reads the
    # blank: finite values that no real state reads.
    last = (frames - 1)[:, None]
    rows = first[:, None] + np.minimum(np.arange(t_max), last)
    exts = ext
    if logits.tape is not None:
        flip = np.maximum(states[:, None] - 1 - np.arange(s_max), 0)
        rows = np.concatenate([rows, first[:, None] + np.maximum(last - np.arange(t_max), 0)])
        exts = np.concatenate([ext, ext[np.arange(batch)[:, None], flip]])
    emit = logp[rows.T[:, :, None], exts]  # [T_max, R, S_max], one slab per frame
    alpha = _forward(emit, _skip_mask(exts, blank_id))

    # a path ends on the last token or the blank after it
    at = np.arange(batch)
    end = alpha[frames - 1, at]
    tail_hi = end[at, states - 1]
    tail_lo = np.where(states > 1, end[at, np.maximum(states - 2, 0)], -np.inf)
    top = np.maximum(tail_lo, tail_hi)
    total = top + np.log(np.exp(tail_lo - top) + np.exp(tail_hi - top))
    per = tt._storage(-total)
    skipped = [seg for seg, f in zip(segs, feasible) if not f]

    def backward(g):
        # d loss / d logits = share * (softmax - normalised state occupancy),
        # where the occupancy alpha * beta / emission sums each frame's
        # states by label, in (frame, state) order per utterance
        share = g / g.dtype.type(batch)
        t, b, s = np.nonzero((np.arange(t_max)[:, None] < frames)[:, :, None]
                             & (np.arange(s_max) < states[:, None]))
        beta = alpha[frames[b] - 1 - t, batch + b, states[b] - 1 - s]
        occ = np.exp(alpha[t, b, s] + beta - emit[t, b, s] - total[b])
        cells = (first[b] + t) * width + ext[b, s]
        occupancy = np.bincount(cells, weights=occ, minlength=logp.size).reshape(logp.shape)
        grad = (np.exp(logp) - occupancy) * share
        for start, stop in skipped:
            grad[start:stop] = 0.0
        return (grad.astype(g.dtype),)

    losses = per.tolist()
    loss = tt._emit(logits.tape, sum(losses) / batch, (logits.nid,), backward)
    tt._finite(per, "the CTC loss")
    each = iter(losses)
    return CtcLoss(loss, tuple(next(each) if f else None for f in feasible))


def _skip_mask(ext: np.ndarray, blank_id: int) -> np.ndarray:
    """0 where state s may be entered from s - 2 (a non-repeated token), else
    LOG_ZERO; one row per extended label sequence of `ext`."""
    mask = np.full(ext.shape, tt.LOG_ZERO)
    mask[:, 2:][(ext[:, 2:] != blank_id) & (ext[:, 2:] != ext[:, :-2])] = 0.0
    return mask


def _forward(emit: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """Log forward variables over the extended states of R sequences at once:
    `emit` is [T, R, S], one slab per frame, and the result has its shape.

    A path starts on the leading blank or the first token and each frame
    stays, moves one state on, or skips a blank where `skip` allows it;
    unreachable states hold LOG_ZERO-scale values.
    """
    alpha = np.empty_like(emit)
    init = np.full(emit.shape[2], tt.LOG_ZERO)
    init[:2] = 0.0
    alpha[0] = emit[0] + init
    one = np.full(emit.shape[1:], tt.LOG_ZERO)
    two = np.full(emit.shape[1:], tt.LOG_ZERO)
    jump = np.empty(emit.shape[1:])
    for t in range(1, emit.shape[0]):
        prev, cur = alpha[t - 1], alpha[t]
        one[:, 1:] = prev[:, :-1]
        two[:, 2:] = prev[:, :-2]
        np.add(two, skip, out=jump)
        np.logaddexp(prev, one, out=cur)
        np.logaddexp(cur, jump, out=cur)
        cur += emit[t]
    return alpha


def greedy_decode(p: Posteriorgram) -> list[TokenSeq]:
    """Each utterance's per-frame argmax (ties take the lowest index),
    collapsed; one token sequence per utterance of the batch."""
    paths = np.argmax(p.probs, axis=2).tolist()
    return [collapse(tuple(path[:t]), p.width - 1) for path, t in zip(paths, p.lengths)]


def beam_search(p: Posteriorgram, beam: int, n: int) -> list[NBestList]:
    """Prefix beam search over a batch of posteriorgrams with one frame
    loop; one n-best list per utterance, in batch order.

    The utterances run longest first, so the `a` still running at frame t
    are the first `a` rows.  Each row keeps up to `beam` live prefixes in
    the slots of `[a, k]` arrays: blank-ending and symbol-ending log mass,
    last symbol, trie node and the node of the prefix minus its last
    symbol.  Nodes are hash-consed by (parent node, token), so a prefix is
    one node however often it is dropped and grown again, and "q[:-1] is
    live" is an array compare of parent nodes against live nodes.

    Per frame, `cand[r, s, c]` holds slot s grown by token c, and column V
    its stay (a blank, or its last symbol again).  Growing by the last
    symbol again draws only on the blank-ending mass.  A growth that lands
    on a live prefix is log-added into that prefix's symbol-ending mass and
    leaves the candidate set.  So every next-frame mass receives at most
    two log-add terms, and since `np.logaddexp` is symmetric with
    `logaddexp(-inf, x) == x`, the result does not depend on accumulation
    order.

    `np.argpartition` takes each row's `beam` best candidates.  Where exact
    ties at the beam-th best score overflow the beam, the lexicographically
    smallest prefixes win, so a row keeps the first `beam` candidates by
    `(-score, prefix)`, as a full sort would.  Python runs only to mint
    nodes, to break those ties and to spell out the final lists.
    """
    if not beam >= n >= 1:
        raise ValueError("need beam >= n >= 1")
    order = np.argsort([-t for t in p.lengths], kind="stable")
    lengths = [p.lengths[b] for b in order]
    logp = np.maximum(p.probs[order], _LOG_PROB_FLOOR, dtype=np.float64)
    np.log(logp, out=logp)
    v = p.width - 1
    rows = len(order)

    spelled: list[TokenSeq] = [()]  # trie node -> prefix; node 0 is the empty prefix
    index: dict[int, int] = {}  # parent node * V + token -> node
    # per slot; an empty slot has node -1 and parent -2, and its masses are ignored
    node = np.zeros((rows, 1), dtype=np.intp)
    parent = np.full((rows, 1), -2)  # node of q[:-1]; -2 for the root and empty slots
    last = np.full((rows, 1), -1)  # last symbol; -1 for the root
    pb = np.zeros((rows, 1))  # blank-ending log mass
    pnb = np.full((rows, 1), -np.inf)  # symbol-ending log mass
    lists: list[NBestList] = [None] * rows

    def name(row: int, j: int) -> TokenSeq:
        # candidate j of a row: slot j // (V+1) grown by token j % (V+1), or its stay
        slot, c = divmod(j, v + 1)
        q = spelled[node[row, slot]]
        return q if c == v else q + (c,)

    def finish(stop: int) -> None:
        # spell out the n-best lists of the rows from `stop` on
        for row in range(stop, node.shape[0]):
            live = node[row] >= 0
            scores = np.logaddexp(pb[row, live], pnb[row, live]).tolist()
            ranked = sorted((-s, spelled[q]) for s, q in zip(scores, node[row, live].tolist()))
            lists[order[row]] = NBestList(tuple((q, -neg) for neg, q in ranked[:n]),
                                          beam_size=beam, n=n)

    for t in range(lengths[0] if rows else 0):
        a = sum(1 for length in lengths if length > t)
        if a < node.shape[0]:
            finish(a)
            node, parent, last, pb, pnb = node[:a], parent[:a], last[:a], pb[:a], pnb[:a]
        lp = logp[:a, t]
        k = node.shape[1]
        at, slots = np.arange(a)[:, None], np.arange(k)[None, :]
        # cand[r, s, c]: slot s grown by token c, and in column V its stay
        total = np.logaddexp(pb, pnb)
        sym = lp[at, last]  # the root's -1 reads the blank; masked below
        cand = total[:, :, None] + lp[:, None, :]
        cand[at, slots, last] = pb + sym  # the last symbol again grows from pb only
        stay_b = total + lp[:, v:]
        stay_nb = np.where(last >= 0, pnb + sym, -np.inf)

        # a live q whose parent q[:-1] is live in slot s: cell [s, q[-1]] is q again
        valid = np.repeat((node >= 0)[:, :, None], v + 1, axis=2)
        r, j, s = np.nonzero(parent[:, :, None] == node[:, None, :])
        if r.size:
            c = last[r, j]
            stay_nb[r, j] = np.logaddexp(stay_nb[r, j], cand[r, s, c])
            valid[r, s, c] = False
        cand[:, :, v] = np.logaddexp(stay_b, stay_nb)

        # each row's `beam` best; NaN ranks the invalid candidates last
        score = cand.reshape(a, -1)
        neg = np.where(valid.reshape(a, -1), -score, np.nan)
        if score.shape[1] > beam:
            pick = np.argpartition(neg, beam - 1, axis=1)[:, :beam]
            floor = neg[at, pick].max(axis=1, keepdims=True)  # NaN: fewer than beam valid
            for row in np.flatnonzero((neg <= floor).sum(axis=1) > beam).tolist():
                # exact ties at the cut: the smallest prefixes fill what is left
                above = np.flatnonzero(neg[row] < floor[row]).tolist()
                tied = np.flatnonzero(neg[row] == floor[row]).tolist()
                tied.sort(key=lambda j: name(row, j))
                pick[row] = above + tied[:beam - len(above)]
        else:
            pick = np.broadcast_to(np.arange(score.shape[1]), score.shape)

        home, token = np.divmod(pick, v + 1)
        stay = token == v
        filled = ~np.isnan(neg[at, pick])
        base = node[at, home]
        pb = np.where(stay, stay_b[at, home], -np.inf)
        pnb = np.where(stay, stay_nb[at, home], score[at, pick])
        last = np.where(stay, last[at, home], token)
        parent = np.where(filled, np.where(stay, parent[at, home], base), -2)
        node = np.where(filled, base, -1)
        r, j = np.nonzero(filled & ~stay)
        minted = []
        for key in (base[r, j] * v + token[r, j]).tolist():
            q = index.get(key)
            if q is None:
                q = index[key] = len(spelled)
                spelled.append(spelled[key // v] + (key % v,))
            minted.append(q)
        node[r, j] = minted
    finish(0)
    return lists


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
