"""The layer-norm statistics and the cached attention step as they were
before the one-row decode step was trimmed.

`normalise` is `tensor._normalise` with its row means taken by
`ndarray.mean`.  `write_cache` is `tensor._write_cache`, which stored the
keys and values of every segment through the repeat/cumsum row arithmetic;
a cached decode step called it with one-row segments.  `cached_step` is
`tensor._cached_step` with its mask applied by a boolean assignment through
`np.broadcast_to`.  The trimmed code is checked against these bit for bit.
"""

from __future__ import annotations

import numpy as np

from ctcbridge.tensor import LOG_ZERO, _f64


def normalise(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """float64 (xhat, 1/std) of each row of `x`."""
    xd = _f64(x)
    xc = xd - xd.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=1, keepdims=True) + eps)
    return xc * inv, inv


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
