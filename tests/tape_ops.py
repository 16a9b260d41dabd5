"""Tape ops and checks that only the tests use.

`neg`, `mul`, `reduce_sum` and `mean` are plain tape ops the package has
no use for (`mean` averaged a batch's per-utterance CTC losses before the
loss took a whole batch), `matmul64` is `tt.matmul` with its taped
products in float64 too (the oracle its float32 ones are bounded
against), `causal_mask` is the additive mask of the per-head attention
oracle in `block_oracles`, and `params_digest` fingerprints a set of
parameters.  The log-space ops (`shift`,
`gather_flat`, `logaddexp`, `logsumexp`, `log_softmax`) are the building
blocks of `ctc_oracles.ctc_loss_reference`, the tape-built CTC recursion
that the fused CTC losses are checked against.
They record on a `GradTape` through the same `ctcbridge.tensor` internals
as the package's own ops.

`precision(np.float64)` temporarily switches the package's storage dtype,
so a check can measure algorithmic agreement rather than float32 rounding.
It rebinds a module global of `ctcbridge.tensor`: not thread-safe, tests
only.  `finite_diff_check` runs under it.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from typing import Sequence

import numpy as np

from ctcbridge import tensor as tt
from ctcbridge.tensor import LOG_ZERO, GradTape, Parameter, Tensor, _emit, _f64, _tape_of, as_tensor


@contextmanager
def precision(dtype):
    """Temporarily switch the storage dtype of `ctcbridge.tensor`."""
    old = tt._DTYPE
    tt._DTYPE = dtype
    try:
        yield
    finally:
        tt._DTYPE = old


def params_digest(params: dict[str, Parameter]) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(params[name].value.tobytes())
    return h.hexdigest()


def neg(a: Tensor) -> Tensor:
    a = as_tensor(a)
    if a.tape is None:
        return Tensor(-a.data)
    return _emit(a.tape, -a.data, (a.nid,), lambda g: (-g,))


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product; `b` may be a python scalar."""
    a = as_tensor(a)
    if isinstance(b, (int, float)):
        s = tt._DTYPE(b)
        return _emit(a.tape, a.data * s, (a.nid,), lambda g: (g * s,))
    b = as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    tape = _tape_of(a, b)
    if tape is None:
        return _emit(None, a.data * b.data)
    pa = a.nid if a.tape is not None else None
    pb = b.nid if b.tape is not None else None
    ad, bd = a.data, b.data

    def bwd(g):
        res = []
        if pa is not None:
            res.append(g * bd)
        if pb is not None:
            res.append(g * ad)
        return tuple(res)

    return _emit(tape, ad * bd, tuple(p for p in (pa, pb) if p is not None), bwd)


def matmul64(a: Tensor, b: Tensor) -> Tensor:
    """a @ b with the forward and both gradient products in float64, each
    rounded to the storage dtype: the arithmetic of an untaped `tt.matmul`,
    on a tape too."""
    a, b = as_tensor(a), as_tensor(b)
    tape = _tape_of(a, b)
    ad, bd = a.data, b.data
    out = (_f64(ad) @ _f64(bd)).astype(tt._DTYPE)
    if tape is None:
        return _emit(None, out)
    pa = a.nid if a.tape is not None else None
    pb = b.nid if b.tape is not None else None

    def bwd(g):
        g64 = _f64(g)
        res = []
        if pa is not None:
            res.append((g64 @ _f64(bd).T).astype(g.dtype))
        if pb is not None:
            res.append((_f64(ad).T @ g64).astype(g.dtype))
        return tuple(res)

    return _emit(tape, out, tuple(p for p in (pa, pb) if p is not None), bwd)


def mean(parts: Sequence[Tensor]) -> Tensor:
    """Mean of one-element tensors as one op, e.g. a batch's per-utterance losses."""
    parts = [as_tensor(p) for p in parts]
    if not parts or any(p.size != 1 for p in parts):
        raise ValueError("mean needs at least one one-element tensor")
    tape = _tape_of(*parts)
    n = len(parts)
    out = sum(float(p.data.reshape(())) for p in parts) / n
    if tape is None:
        return _emit(None, out)
    shapes = [p.shape for p in parts if p.tape is not None]

    def bwd(g):
        share = g / g.dtype.type(n)
        return tuple(share.reshape(shape) for shape in shapes)

    return _emit(tape, out, tuple(p.nid for p in parts if p.tape is not None), bwd)


def causal_mask(n: int) -> Tensor:
    """[n, n] additive mask: 0 at or below the diagonal, LOG_ZERO above."""
    m = np.zeros((n, n), dtype=tt._DTYPE)
    m[np.triu_indices(n, k=1)] = LOG_ZERO
    return _emit(None, m)


def reduce_sum(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out = _f64(x.data).sum()
    if x.tape is None:
        return Tensor(out)
    shape = x.shape
    return _emit(x.tape, out, (x.nid,), lambda g: (np.full(shape, g, dtype=g.dtype),))


def gather_flat(x: Tensor, ids) -> Tensor:
    """1-D gather from the row-major flattening of `x`."""
    x = as_tensor(x)
    idx = np.asarray(ids, dtype=np.intp)
    flat = x.data.reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= flat.size):
        raise ValueError("gather_flat index out of range")
    out = flat[idx]
    if x.tape is None:
        return Tensor(out)
    shape = x.shape

    def bwd(g):
        buf = np.zeros(int(np.prod(shape)), dtype=g.dtype)
        np.add.at(buf, idx, g)
        return (buf.reshape(shape),)

    return _emit(x.tape, out, (x.nid,), bwd)


def shift(v: Tensor, k: int, fill: float = LOG_ZERO) -> Tensor:
    """1-D shift right by `k`, filling vacated slots with `fill`."""
    v = as_tensor(v)
    if v.ndim != 1 or k < 0:
        raise ValueError("shift expects a 1-D tensor and k >= 0")
    n = v.shape[0]
    if k == 0:
        return v
    out = np.full(n, fill, dtype=v.data.dtype)
    if k < n:
        out[k:] = v.data[:n - k]
    if v.tape is None:
        return Tensor(out)

    def bwd(g):
        buf = np.zeros(n, dtype=g.dtype)
        if k < n:
            buf[:n - k] = g[k:]
        return (buf,)

    return _emit(v.tape, out, (v.nid,), bwd)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    xd = _f64(x.data)
    m = xd.max(axis=axis, keepdims=True)
    z = xd - m
    ls = z - np.log(np.exp(z).sum(axis=axis, keepdims=True))
    if x.tape is None:
        return Tensor(ls)
    p = np.exp(ls)

    def bwd(g):
        g64 = _f64(g)
        return ((g64 - p * g64.sum(axis=axis, keepdims=True)).astype(g.dtype),)

    return _emit(x.tape, ls, (x.nid,), bwd)


def logsumexp(x: Tensor, axis: int = -1) -> Tensor:
    """log(sum(exp(x))) over the last axis; 1-D input reduces to a scalar."""
    x = as_tensor(x)
    xd = _f64(x.data)
    m = xd.max(axis=axis, keepdims=True)
    out = (m + np.log(np.exp(xd - m).sum(axis=axis, keepdims=True))).squeeze(axis)
    if x.tape is None:
        return Tensor(out)
    w = np.exp(xd - np.expand_dims(out, axis))

    def bwd(g):
        return ((np.expand_dims(_f64(g), axis) * w).astype(g.dtype),)

    return _emit(x.tape, out, (x.nid,), bwd)


def logaddexp(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise log(exp(a) + exp(b)), stable against LOG_ZERO operands."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"logaddexp shape mismatch: {a.shape} vs {b.shape}")
    tape = _tape_of(a, b)
    out = np.logaddexp(_f64(a.data), _f64(b.data))
    if tape is None:
        return Tensor(out)
    pa = a.nid if a.tape is not None else None
    pb = b.nid if b.tape is not None else None
    wa = np.exp(_f64(a.data) - out)
    wb = np.exp(_f64(b.data) - out)

    def bwd(g):
        res = []
        if pa is not None:
            res.append((_f64(g) * wa).astype(g.dtype))
        if pb is not None:
            res.append((_f64(g) * wb).astype(g.dtype))
        return tuple(res)

    return _emit(tape, out, tuple(p for p in (pa, pb) if p is not None), bwd)


def finite_diff_check(f, x, h: float = 1e-4) -> float:
    """Max relative disagreement between taped gradients and central differences.

    `f` maps a Tensor to a scalar Tensor and must be deterministic.  Runs
    under float64 so the report reflects the backward rule, not float32
    rounding.  Returns max_i |analytic_i - numeric_i| / (|analytic_i| + 1e-8).
    """
    if not (1e-6 <= h <= 1e-2):
        raise ValueError("h must lie in [1e-6, 1e-2]")
    with precision(np.float64):
        p = Parameter(np.asarray(x, dtype=np.float64), name="fd_check")
        tape = GradTape()
        out = f(tape.watch(p))
        tape.backward(out)
        analytic = p.grad.reshape(-1).copy()
        flat = p.value.reshape(-1)
        numeric = np.zeros_like(analytic)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f(Tensor(p.value)).item()
            flat[i] = orig - h
            fm = f(Tensor(p.value)).item()
            flat[i] = orig
            numeric[i] = (fp - fm) / (2.0 * h)
        rel = np.abs(analytic - numeric) / (np.abs(analytic) + 1e-8)
    return float(rel.max()) if rel.size else 0.0
