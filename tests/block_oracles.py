"""The per-head mixing block that the fused `tt.attention` replaced.

`mix_block_per_head` is `models._mix_block` as it was before attention
became one tape op: for each head, q, k and v from their own projections,
scaled scores plus an additive causal mask, a softmax and an output
projection, with the heads' outputs summed.  It reads the per-head
parameter layout `blk{i}.h{j}.{wq,wk,wv,wo}`, which `split_heads` cuts out
of a fused `blk{i}.wqkv` / `blk{i}.wo` pair.  Checkpoints written before
the fusion hold that layout too.
"""

from __future__ import annotations

import math

import numpy as np

from ctcbridge import tensor as tt
from ctcbridge.models import _w
from tape_ops import causal_mask, mul


def split_heads(wqkv: np.ndarray, wo: np.ndarray, heads: int) -> dict[str, np.ndarray]:
    """The per-head arrays of one fused block, keyed `h{j}.{wq,wk,wv,wo}`."""
    width = wo.shape[0]
    head_dim = width // heads
    out = {}
    for j in range(heads):
        for i, nm in enumerate(("wq", "wk", "wv")):
            c = i * width + j * head_dim
            out[f"h{j}.{nm}"] = wqkv[:, c:c + head_dim].copy()
        out[f"h{j}.wo"] = wo[j * head_dim:(j + 1) * head_dim].copy()
    return out


def per_head_params(params: dict[str, tt.Parameter], heads: int) -> dict[str, tt.Parameter]:
    """Fresh copies of `params` with every fused `{blk}.wqkv` / `{blk}.wo`
    pair cut into the per-head layout that `mix_block_per_head` reads."""
    out = {}
    for name, p in params.items():
        if name.endswith(".wqkv"):
            block = name[:-len(".wqkv")]
            wo = params[f"{block}.wo"].value
            for part, arr in split_heads(p.value, wo, heads).items():
                out[f"{block}.{part}"] = tt.Parameter(arr, name=f"{block}.{part}")
        elif not name.endswith(".wo"):
            out[name] = tt.Parameter(p.value.copy(), name=name)
    return out


def mix_block_per_head(x: tt.Tensor, params, prefix: str, tape, causal: bool,
                       drop_rate: float, drop_rng, heads: int = 1) -> tt.Tensor:
    # attention output is a sum over heads of (att_h @ v_h) @ Wo_h, which is
    # the usual concat-then-project written without column concatenation
    head_dim = x.shape[1] // heads
    scale = 1.0 / math.sqrt(head_dim)
    mask = causal_mask(x.shape[0]) if causal else None
    h = tt.layer_norm(x, _w(params, f"{prefix}.ln1g", tape), _w(params, f"{prefix}.ln1b", tape))
    o = None
    for j in range(heads):
        q = tt.matmul(h, _w(params, f"{prefix}.h{j}.wq", tape))
        k = tt.matmul(h, _w(params, f"{prefix}.h{j}.wk", tape))
        v = tt.matmul(h, _w(params, f"{prefix}.h{j}.wv", tape))
        scores = mul(tt.matmul(q, tt.transpose(k)), scale)
        if mask is not None:
            scores = tt.add(scores, mask)
        att = tt.softmax(scores)
        part = tt.matmul(tt.matmul(att, v), _w(params, f"{prefix}.h{j}.wo", tape))
        o = part if o is None else tt.add(o, part)
    if drop_rate > 0:
        o = tt.dropout(o, drop_rate, drop_rng)
    x = tt.add(x, o)
    h2 = tt.layer_norm(x, _w(params, f"{prefix}.ln2g", tape), _w(params, f"{prefix}.ln2b", tape))
    m = tt.add(tt.matmul(h2, _w(params, f"{prefix}.w1", tape)), _w(params, f"{prefix}.b1", tape))
    m = tt.add(tt.matmul(tt.relu(m), _w(params, f"{prefix}.w2", tape)), _w(params, f"{prefix}.b2", tape))
    if drop_rate > 0:
        m = tt.dropout(m, drop_rate, drop_rng)
    return tt.add(x, m)
