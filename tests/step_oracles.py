"""The layer-norm statistics and the K/V-cached decode as they were
before the one-row decode step was trimmed, taken out of the tape ops and
made the only code that touches a cache.

`normalise` is `tensor._normalise` with its row means taken by
`ndarray.mean`.  `layer_norm` is `tensor.layer_norm` as it was before it
kept its normalised rows for the backward pass: the backward pass
recomputed them, and 1/std, from the op's float32 input.

The cache had a batch axis (`BatchCache`): per block, [B, H, rows, d/H]
keys and values, and each sequence's filled length.  `write_cache` stored
the keys and values of every segment of a packed pass after each
sequence's filled rows through repeat/cumsum row arithmetic.
`cached_step` is `tensor._cached_step` as it stepped one new row of each
of B sequences, its mask applied by a boolean assignment through
`np.broadcast_to` and without the row write.  `attention_step` is
`tt.attention` with a cache: a pass over an empty cache filled it and
attended as without one, and a cache that held rows took one new row per
sequence.

`prefill` is `models.DecoderLM.forward` as it filled an empty cache: a
packed batch of [speech; text] sequences, untaped, through `tt` ops over
the weights the cache carries.  `cached_forward` is the same pass
continuing a filled cache, as it ran for every generated token: one token
per sequence, no speech.  Their blocks are `models._mix_block` without
dropout (`mix_block`) over `attention_step`.  `models.DecoderLM.step` and
the trimmed code are checked against these bit for bit.
"""

from __future__ import annotations

import numpy as np

from ctcbridge import tensor as tt
from ctcbridge.tensor import LOG_ZERO, _f64


def normalise(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """float64 (xhat, 1/std) of each row of `x`."""
    xd = _f64(x)
    xc = xd - xd.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=1, keepdims=True) + eps)
    return xc * inv, inv


def layer_norm(x: tt.Tensor, gain: tt.Tensor, bias: tt.Tensor, eps: float = 1e-5) -> tt.Tensor:
    """Per-row normalisation, then gain and bias, on one tape; x, gain and
    bias all taped."""
    xd, gd = x.data, _f64(gain.data)
    xhat, _ = normalise(xd, eps)
    out = xhat * gd + _f64(bias.data)

    def bwd(g):
        g64 = _f64(g)
        xhat, inv = normalise(xd, eps)
        dxhat = g64 * gd
        m1 = dxhat.mean(axis=1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
        return ((inv * (dxhat - m1 - xhat * m2)).astype(g.dtype),
                (g64 * xhat).sum(axis=0).astype(g.dtype), g64.sum(axis=0).astype(g.dtype))

    return tt._emit(x.tape, out, (x.nid, gain.nid, bias.nid), bwd)


def write_cache(qkv: np.ndarray, heads: int, cache, lengths: list[int]) -> None:
    """Store the keys and values of `qkv`'s segments after each sequence's
    filled rows of `cache`."""
    k, v, filled = cache
    if len(lengths) != k.shape[0]:
        raise ValueError(f"the cache holds {k.shape[0]} sequences, got {len(lengths)} segments")
    seq = np.repeat(np.arange(len(lengths)), lengths)
    row = filled[seq] + np.arange(qkv.shape[0]) - (np.cumsum(lengths) - lengths)[seq]
    parts = qkv.reshape(qkv.shape[0], 3, heads, -1)
    k[seq, :, row] = parts[:, 1]
    v[seq, :, row] = parts[:, 2]


def cached_step(qkv: np.ndarray, heads: int, scale: float, cache) -> np.ndarray:
    """Attention of one new row per sequence over its cached rows, itself
    included, in float64: [B, 3d] -> [B, d]."""
    k, v, filled = cache
    b, width = qkv.shape[0], qkv.shape[1] // 3
    n = int(filled.max()) + 1
    q = _f64(qkv[:, :width]).reshape(b, heads, 1, -1)
    p = q @ _f64(k[:, :, :n]).transpose(0, 1, 3, 2)
    p *= scale
    p[np.broadcast_to((np.arange(n) > filled[:, None])[:, None, None, :], p.shape)] = LOG_ZERO
    p -= p.max(axis=3, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=3, keepdims=True)
    return (p @ _f64(v[:, :, :n])).reshape(b, width)


class BatchCache:
    """The K/V cache of B sequences, in `dtype`."""

    def __init__(self, cfg, batch: int, rows: int, weights, dtype=np.float64):
        shape = (batch, cfg.heads, rows, cfg.dim // cfg.heads)
        self.blocks = [(np.zeros(shape, dtype), np.zeros(shape, dtype)) for _ in range(cfg.blocks)]
        self.filled = np.zeros(batch, dtype=np.intp)
        self.rows = rows
        self.weights = weights


def attention_step(qkv: tt.Tensor, heads: int, lengths, cache) -> tt.Tensor:
    """Causal `tt.attention` over a `(k, v, filled)` cache: an empty one is
    filled with every segment's keys and values; one that holds rows takes
    each sequence's one new row at its row filled[b], then `cached_step`."""
    t, width = qkv.shape[0], qkv.shape[1] // 3
    scale = 1.0 / np.sqrt(width // heads)
    saved = qkv.data
    keys, values, filled = cache
    if not filled.any():
        write_cache(saved, heads, cache, lengths)
        return tt.attention(qkv, heads, True, lengths)
    if list(lengths if lengths is not None else [t]) != [1] * t:
        raise ValueError("a K/V cache that holds rows takes one new row per sequence")
    if t != keys.shape[0]:
        raise ValueError(f"the cache holds {keys.shape[0]} sequences, got {t} segments")
    parts, seq = saved.reshape(t, 3, heads, -1), np.arange(t)
    keys[seq, :, filled] = parts[:, 1]
    values[seq, :, filled] = parts[:, 2]
    return tt._emit(None, cached_step(saved, heads, scale, cache))


def mix_block(x: tt.Tensor, params, prefix: str, heads: int, lengths, kv) -> tt.Tensor:
    """`models._mix_block`, untaped and without dropout, over a cache."""
    h = tt.layer_norm(x, params[f"{prefix}.ln1g"], params[f"{prefix}.ln1b"])
    qkv = tt.matmul(h, params[f"{prefix}.wqkv"])
    o = tt.matmul(attention_step(qkv, heads, lengths, kv), params[f"{prefix}.wo"])
    x = tt.add(x, o)
    h2 = tt.layer_norm(x, params[f"{prefix}.ln2g"], params[f"{prefix}.ln2b"])
    m = tt.add(tt.matmul(h2, params[f"{prefix}.w1"]), params[f"{prefix}.b1"])
    m = tt.add(tt.matmul(tt.relu(m), params[f"{prefix}.w2"]), params[f"{prefix}.b2"])
    return tt.add(x, m)


def packed_rows(s_lens: np.ndarray, t_lens: np.ndarray, starts: np.ndarray):
    """A packed decoder batch's rows are [speech_i; text_i] in turn: each
    row's position (sequence i's from starts[i]) and whether it holds text."""
    lens = s_lens + t_lens
    seq = np.repeat(np.arange(lens.size), lens)
    offset = np.arange(lens.sum()) - (np.cumsum(lens) - lens)[seq]  # row within its sequence
    return starts[seq] + offset, offset >= s_lens[seq]


def prefill(dec, speech, text_ids, cache, speech_lens=None) -> tt.Tensor:
    """Next-token logits of every text row of a packed batch of [speech;
    text] sequences, storing their keys and values in the empty `cache`."""
    seqs = [np.asarray(t, dtype=np.intp) for t in text_ids]
    t_lens = np.array([ids.size for ids in seqs], dtype=np.intp)
    s_lens = np.zeros(len(seqs), np.intp) if speech is None else np.asarray(speech_lens)
    params = cache.weights
    emb = params["emb"]
    positions, is_text = packed_rows(s_lens, t_lens, cache.filled)
    # each row reads its token's row of the table or its speech row, placed after the table
    table, rows = emb, np.empty(is_text.size, dtype=np.intp)
    rows[is_text] = np.concatenate(seqs)
    if speech is not None:
        table = tt.concat_rows([emb, speech])
        rows[~is_text] = emb.shape[0] + np.arange(speech.shape[0])
    x = tt.add(tt.gather_rows(table, rows), tt.gather_rows(params["pos"], positions))
    return blocks_and_logits(dec, x, (s_lens + t_lens).tolist(), is_text, cache)


def blocks_and_logits(dec, x: tt.Tensor, lengths, is_text, cache) -> tt.Tensor:
    """The decoder blocks over the cache from the embedded rows `x`, then
    the logits of the rows that hold text."""
    params = cache.weights
    for i in range(dec.cfg.blocks):
        x = mix_block(x, params, f"blk{i}", dec.cfg.heads, lengths,
                      (*cache.blocks[i], cache.filled))
    cache.filled += lengths
    h = tt.layer_norm(x, params["lnfg"], params["lnfb"])
    return tt.matmul(tt.gather_rows(h, np.flatnonzero(is_text)), params["out.w"])


def cached_forward(dec, text_ids, cache) -> tt.Tensor:
    """Next-token logits of every sequence of `cache` after feeding it the
    one token of its entry of `text_ids`."""
    seqs = [np.asarray(t, dtype=np.intp) for t in text_ids]
    t_lens = np.array([ids.size for ids in seqs], dtype=np.intp)
    if not seqs or t_lens.min() == 0:
        raise ValueError("text must be non-empty")
    s_lens = np.zeros(len(seqs), dtype=np.intp)
    starts = cache.filled
    ids = np.concatenate(seqs)
    if np.any((starts == 0) & (ids[np.cumsum(t_lens) - t_lens] != dec.vocab.bos_id)):
        raise ValueError("text must begin with <bos>")
    if ids.max() >= dec.cfg.vocab or ids.min() < 0:
        raise ValueError("text id outside [0, V)")
    total = int((starts + s_lens + t_lens).max())
    if total > dec.cfg.max_len:
        raise ValueError(f"sequence length {total} exceeds max_len {dec.cfg.max_len}")
    if total > cache.rows:
        raise ValueError(f"sequence length {total} exceeds the cache's {cache.rows} rows")

    params = cache.weights
    emb = params["emb"]
    positions, is_text = packed_rows(s_lens, t_lens, starts)
    rows = np.empty(is_text.size, dtype=np.intp)
    rows[is_text] = ids
    x = tt.add(tt.gather_rows(emb, rows), tt.gather_rows(params["pos"], positions))
    return blocks_and_logits(dec, x, (s_lens + t_lens).tolist(), is_text, cache)
