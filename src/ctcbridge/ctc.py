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

Decoding takes a batch of posteriorgrams (`Posteriorgram`, zero-padded
`[B, T_max, V+1]` rows) and returns one result per utterance: per-frame
argmax (greedy), or prefix beam search with one frame loop for the batch,
whose Python work grows with the prefixes it creates, not with utterances
x beam x V.  Its n-best lists are ranked by `(-score, prefix)`, exact ties
at the beam's cut keep the smallest prefixes, and they depend neither on
accumulation order nor on which utterances share a batch.  Scores carry
no length normalisation.
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
    logp = np.log(np.maximum(np.asarray(p.probs, dtype=np.float64)[order], _LOG_PROB_FLOOR))
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
