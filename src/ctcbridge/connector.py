"""Posterior-weighted reconstruction of LM input embeddings.

Per frame, the acoustic scores pass through a fixed chain -- subtract
log(blk_downscale) from the blank slot, divide by the temperature, softmax,
then a weighted sum over a table -- producing one pseudo-speech embedding
per frame in the LM input space.  `reconstruct_full` can restrict the
softmax to the K highest-scoring slots; `reconstruct_topP` instead
concatenates those slots' rows through a trained projection.  The table is
whatever the caller passes: the LM embedding table, or a separately trained
one when the acoustic vocabulary differs from the LM's.  Which function and
table an adaptation mode uses is decided by its entry in
`models.CONNECTIONS`.

Everything is differentiable with respect to the tables/projection (and
the scores, when they are tape-recorded); temperature is applied at
inference time only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as tt


@dataclass(frozen=True)
class ConnectorConfig:
    tau: float = 1.0
    blk_downscale: float = 1.0
    k: Optional[int] = None

    def __post_init__(self):
        if not 0 < self.tau < math.inf:  # also rejects NaN
            raise ValueError(f"tau must be finite and > 0, got {self.tau}")
        if not 1.0 <= self.blk_downscale < math.inf:  # also rejects NaN
            raise ValueError(f"blk_downscale must be finite and >= 1, got {self.blk_downscale}")
        k = self.k  # an int flag or JSON value; bool is an int subclass
        if k is not None and (not isinstance(k, int) or isinstance(k, bool) or k < 1):
            raise ValueError(f"k must be None or an int >= 1, got {k!r}")


def blank_downscale(logits: tt.Tensor, factor: float) -> tt.Tensor:
    """Subtract log(factor) from the blank (last) column only."""
    if factor < 1.0:
        raise ValueError("blank downscale factor must be >= 1")
    if factor == 1.0:
        return logits
    delta = np.zeros(logits.shape[1], dtype=np.float64)
    delta[-1] = -math.log(factor)
    return tt.add(logits, tt.Tensor(delta))


def _check_k(k, width: int) -> int:
    if k is None or not 1 <= k <= width:
        raise ValueError(f"k must lie in [1, {width}]")
    return int(k)


def _topk_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Per-row indices of the k largest entries, descending, ties to lower index."""
    order = np.argsort(-scores, axis=1, kind="stable")
    return order[:, :k]


def _check_width(logits: tt.Tensor, table: tt.Tensor) -> int:
    width = logits.shape[1]
    if width != table.shape[0]:
        raise ValueError(f"score width {width} does not match table rows {table.shape[0]}")
    return width


def reconstruct_full(logits: tt.Tensor, table: tt.Tensor, cfg: ConnectorConfig,
                     at_inference: bool = True, k: Optional[int] = None) -> tt.Tensor:
    """Weighted sum of table rows under the per-frame distribution of the
    [T, V+1] `logits`, at temperature `cfg.tau` at inference and 1 in
    training.

    With `k`, scores outside each frame's K highest (after blank downscale)
    are set to LOG_ZERO before the softmax, so only those K rows are summed.
    """
    width = _check_width(logits, table)
    logits = blank_downscale(logits, cfg.blk_downscale)
    if k is not None:
        keep = _topk_indices(logits.data, _check_k(k, width))  # not differentiated
        mask = np.full(logits.shape, tt.LOG_ZERO)
        np.put_along_axis(mask, keep, 0.0, axis=1)
        logits = tt.add(logits, tt.Tensor(mask))
    probs = tt.softmax(logits, tau=cfg.tau if at_inference else 1.0)
    return tt.matmul(probs, table)


def reconstruct_topP(logits: tt.Tensor, table: tt.Tensor, k: int, proj: tt.Tensor,
                     cfg: ConnectorConfig, at_inference: bool = True) -> tt.Tensor:
    """Concatenate the K selected rows (descending score) and project back to d."""
    k = _check_k(k, _check_width(logits, table))
    d = table.shape[1]
    if proj.shape != (k * d, d):
        raise ValueError(f"projection must be [{k * d}, {d}], got {proj.shape}")
    idx = _topk_indices(blank_downscale(logits, cfg.blk_downscale).data, k)

    rows = tt.gather_rows(table, idx.reshape(-1))          # [frames*k, d]
    concat = tt.reshape(rows, (logits.shape[0], k * d))
    return tt.matmul(concat, proj)
