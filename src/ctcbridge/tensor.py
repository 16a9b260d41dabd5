"""Dense tensors with a recorded-operation reverse-mode gradient tape.

Storage is 32-bit, row-major, contiguous.  Reductions (attention, softmax
and cross-entropy normalisers, layer-norm statistics, and untaped matmul)
accumulate in 64-bit before rounding back, which keeps them accurate
without doubling memory.  A taped matmul -- the forward and both gradient
products of a training step, most of its arithmetic -- multiplies in
float32 instead: float32 master weights, a float32 GEMM and the wide
reductions kept wide, as in mixed-precision training (Micikevicius et
al., 2018, "Mixed Precision Training").  Untaped passes keep float64
for batch-invariant inference: a float32 GEMM's result depends on how
many rows it multiplies, so a packed pass would change the bytes of an
utterance's rows, while float64's row-count-dependent bits are the ones
the rounding to float32 drops.  A constant (untaped) Tensor may
hold float64 data, such as a weight that many passes read: the 64-bit ops
read it without a cast, and their outputs are float32 all the same.
Log-space code uses `LOG_ZERO` (a finite sentinel) where a true -inf
would otherwise appear.

Rows may hold a packed batch of sequences stacked one after another.  The
two ops that treat rows as a sequence take a table of segment lengths;
without a table, the rows are one segment.  `attention` runs one loop
over the segments, and `dropout` draws every segment's mask from its own
rng stream in one draw.

Finiteness is checked at the boundaries, not inside every op.  A
`Tensor(...)` or `Parameter(...)` built from outside data raises
`NonFiniteError` on NaN/Inf; op outputs and parameter reads are not
scanned.  The places where values are used check instead: `cross_entropy`
and `ctc.ctc_loss` check their scalar, `GradTape.backward` its loss, and
callers check the gradients before an optimiser step, the logits row
before an argmax and the posteriorgram before a search (each through
`_finite`).  Ops let a NaN through rather than mapping it to a finite
value (`relu` is `np.maximum`), so a NaN anywhere upstream reaches one of
those checks.  A `GradTape(check_ops=True)` also checks every op output
as it is recorded, and every gradient its backward pass produces, and
names the op kind and tape node of the first non-finite one: a training
loop replays a failed step on such a tape to localise it.

Ops are pure -- inputs are never mutated, and an op writes nothing but
its output -- so untaped tensors are safe to share across threads.  A
decode's K/V cache lives outside the ops: `models.DecoderLM.step` writes
it through `_cached_step`.  A `GradTape` and the
`Parameter`s watched on it are confined to a single training thread: run
the forward pass with taped inputs, call `tape.backward(loss)` once, and
gradients accumulate into `Parameter.grad`.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

LOG_ZERO = -1.0e30  # finite stand-in for log(0); exp() underflows to 0.0

_DTYPE = np.float32


class NonFiniteError(FloatingPointError):
    """A finiteness check met NaN/Inf: the computation left the finite contract."""


def _finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite values in {what}")
    return arr


def _storage(data) -> np.ndarray:
    arr = np.asarray(data, dtype=_DTYPE)
    return arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)


class Tensor:
    """Immutable dense array, optionally recorded on a gradient tape."""

    __slots__ = ("data", "tape", "nid")

    def __init__(self, data, tape: Optional["GradTape"] = None, nid: int = -1):
        self.data = _finite(_storage(data), "tensor construction")
        self.tape = tape
        self.nid = nid

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() needs a one-element tensor")
        return float(self.data.reshape(()))

    def __repr__(self):
        taped = "" if self.tape is None else f", node={self.nid}"
        return f"Tensor(shape={self.data.shape}{taped})"


def _unchecked(arr: np.ndarray, tape: Optional["GradTape"] = None, nid: int = -1) -> Tensor:
    """A Tensor over program-made storage (see `_storage`), without the scan."""
    t = object.__new__(Tensor)
    t.data, t.tape, t.nid = arr, tape, nid
    return t


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class Parameter:
    """Trainable value plus its gradient accumulator."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, value, name: str = ""):
        self.value = _finite(_storage(value), f"parameter {name!r}")
        self.grad = np.zeros_like(self.value)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


def _op_kind(backward: Callable) -> str:
    # every op defines its backward rule inside its own body
    return backward.__qualname__.split(".")[0]


class GradTape:
    """Ordered record of ops; backward replays it in reverse exactly once,
    dropping each node's gradient and backward rule once it has passed the
    gradient on, so the pass holds little more than the forward already did.

    With `check_ops`, every op output recorded here and every gradient the
    backward pass produces is checked, and the first non-finite one raises
    `NonFiniteError` naming its op kind and tape node.
    """

    def __init__(self, check_ops: bool = False):
        self.check_ops = check_ops
        self._parents: list[tuple[int, ...]] = []
        self._backward: list[Optional[Callable]] = []
        self._leaves: dict[int, int] = {}  # id(Parameter) -> node id
        self._leaf_params: dict[int, Parameter] = {}  # node id -> Parameter
        self._consumed = False

    def _record(self, parents: tuple[int, ...], backward) -> int:
        nid = len(self._parents)
        self._parents.append(parents)
        self._backward.append(backward)
        return nid

    def watch(self, p: Parameter) -> Tensor:
        """Leaf tensor for `p`; gradients flow into `p.grad` on backward."""
        key = id(p)
        nid = self._leaves.get(key)
        if nid is None:
            nid = self._record((), None)
            self._leaves[key] = nid
            self._leaf_params[nid] = p
        return _unchecked(p.value, self, nid)

    def backward(self, loss: Tensor) -> None:
        if self._consumed:
            raise RuntimeError("backward already ran on this tape; record a new one")
        if loss.tape is not self:
            raise ValueError("loss was not recorded on this tape")
        if loss.data.size != 1:
            raise ValueError("backward requires a scalar loss")
        _finite(loss.data, "the loss")
        self._consumed = True

        # a node gets a gradient only from a consumer that has one, so
        # every node with a gradient is an ancestor of the loss
        grads: list[Optional[np.ndarray]] = [None] * len(self._parents)
        grads[loss.nid] = np.ones_like(loss.data)
        for i in range(loss.nid, -1, -1):
            gi = grads[i]
            if gi is None:
                continue
            bwd = self._backward[i]
            if bwd is None:  # a leaf: its gradient is read below
                continue
            grads[i] = None
            self._backward[i] = None
            for pid, g in zip(self._parents[i], bwd(gi)):
                if g is None:
                    continue
                if self.check_ops:
                    _finite(g, f"the gradient from op {_op_kind(bwd)!r} (tape node {i})")
                if grads[pid] is None:
                    grads[pid] = g
                else:
                    grads[pid] = grads[pid] + g
        for nid, p in self._leaf_params.items():
            if grads[nid] is not None:
                p.grad += grads[nid].astype(p.grad.dtype, copy=False)


def _emit(tape: Optional[GradTape], data, parents=(), backward=None) -> Tensor:
    """An op's output, recorded on `tape` unless it is None; not scanned
    unless the tape checks its ops."""
    out = _storage(data)
    if tape is None:
        return _unchecked(out)
    nid = tape._record(parents, backward)
    if tape.check_ops:
        _finite(out, f"the output of op {_op_kind(backward)!r} (tape node {nid})")
    return _unchecked(out, tape, nid)


def _tape_of(*tensors) -> Optional[GradTape]:
    tape = None
    for t in tensors:
        if isinstance(t, Tensor) and t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise ValueError("operands were recorded on different tapes")
    return tape


def _f64(x: np.ndarray) -> np.ndarray:
    return x.astype(np.float64, copy=False)


# ---------------------------------------------------------------------------
# arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b for equal shapes, or a [C] row bias on [N, C]."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape == b.shape:
        out = a.data + b.data
    elif a.ndim == 2 and b.ndim == 1 and a.shape[1] == b.shape[0]:
        out = a.data + b.data[None, :]
    else:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    tape = _tape_of(a, b)
    if tape is None:
        return _emit(None, out)
    pa = a.nid if a.tape is not None else None
    pb = b.nid if b.tape is not None else None
    row_bias = a.shape != b.shape

    def bwd(g):
        res = []
        if pa is not None:
            res.append(g)
        if pb is not None:
            res.append(g.sum(axis=0, dtype=np.float64).astype(g.dtype) if row_bias else g)
        return tuple(res)

    return _emit(tape, out, tuple(p for p in (pa, pb) if p is not None), bwd)


def _matmul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b in float64, rounded to the storage dtype: the untaped
    arithmetic of `matmul`, which `DecoderLM.step` shares.  An output row's
    bytes do not depend on the other rows `a` holds (see the module
    docstring)."""
    return (_f64(a) @ _f64(b)).astype(_DTYPE, copy=False)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b.  Untaped, in float64 (`_matmul_rows`); on a tape, the forward
    and both gradient products multiply in the storage dtype."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul needs [n,k]@[k,m], got {a.shape} @ {b.shape}")
    tape = _tape_of(a, b)
    if tape is None:
        return _emit(None, _matmul_rows(a.data, b.data))
    pa = a.nid if a.tape is not None else None
    pb = b.nid if b.tape is not None else None
    ad, bd = a.data, b.data

    def bwd(g):
        res = []
        if pa is not None:
            res.append(g @ bd.T)
        if pb is not None:
            res.append(ad.T @ g)
        return tuple(res)

    return _emit(tape, ad @ bd, tuple(p for p in (pa, pb) if p is not None), bwd)


def transpose(a: Tensor) -> Tensor:
    a = as_tensor(a)
    if a.ndim != 2:
        raise ValueError("transpose expects a 2-D tensor")
    return _emit(a.tape, a.data.T, (a.nid,), lambda g: (np.ascontiguousarray(g.T),))


def relu(a: Tensor) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0
    out = np.maximum(a.data, _DTYPE(0))  # NaN stays NaN
    return _emit(a.tape, out, (a.nid,), lambda g: (g * mask,))


def dropout(a: Tensor, rate: float, rng, lengths: Optional[Sequence[int]] = None) -> Tensor:
    """Inverted dropout; identity when rate == 0.  `rng` is a CounterRng
    with one stream per segment of `lengths` rows (one stream without), and
    stream i draws segment i's mask in one draw for all segments."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    if rate == 0.0:
        return a
    a = as_tensor(a)
    segs = _segments(a.shape[0], lengths)
    if len(rng.keys) != len(segs):
        raise ValueError(f"dropout needs one rng stream per segment, got {len(rng.keys)} "
                         f"for {len(segs)}")
    draws = rng.uniforms([(stop - start) * a.shape[1] for start, stop in segs])
    keep = (draws.reshape(a.shape) >= rate).astype(a.data.dtype)
    mask = keep / _DTYPE(1.0 - rate)
    return _emit(a.tape, a.data * mask, (a.nid,), lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# indexing / shaping


def gather_rows(m: Tensor, ids) -> Tensor:
    """Row lookup m[ids]; the embedding-table read."""
    m = as_tensor(m)
    idx = np.asarray(ids, dtype=np.intp)
    if m.ndim != 2 or idx.ndim != 1:
        raise ValueError("gather_rows expects a 2-D table and 1-D indices")
    if idx.size and (idx.min() < 0 or idx.max() >= m.shape[0]):
        raise ValueError("gather_rows index out of range")
    out = m.data[idx]
    shape = m.shape

    def bwd(g):
        buf = np.zeros(shape, dtype=g.dtype)
        np.add.at(buf, idx, g)
        return (buf,)

    return _emit(m.tape, out, (m.nid,), bwd)


def slice_rows(m: Tensor, start: int, stop: int) -> Tensor:
    m = as_tensor(m)
    if not (0 <= start <= stop <= m.shape[0]):
        raise ValueError(f"slice_rows [{start}:{stop}] out of range for {m.shape}")
    out = m.data[start:stop].copy()
    shape = m.shape

    def bwd(g):
        buf = np.zeros(shape, dtype=g.dtype)
        buf[start:stop] = g
        return (buf,)

    return _emit(m.tape, out, (m.nid,), bwd)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack 2-D blocks (equal column count) along rows."""
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ValueError("concat_rows needs at least one part")
    cols = parts[0].shape[-1]
    for p in parts:
        if p.ndim != 2 or p.shape[1] != cols:
            raise ValueError("concat_rows parts must be 2-D with equal columns")
    tape = _tape_of(*parts)
    out = np.concatenate([p.data for p in parts], axis=0)
    if tape is None:
        return _emit(None, out)
    offsets = np.cumsum([0] + [p.shape[0] for p in parts])
    taped = [(i, p.nid) for i, p in enumerate(parts) if p.tape is not None]

    def bwd(g):
        return tuple(g[offsets[i]:offsets[i + 1]] for i, _ in taped)

    return _emit(tape, out, tuple(nid for _, nid in taped), bwd)


def reshape(x: Tensor, shape) -> Tensor:
    x = as_tensor(x)
    old = x.shape
    return _emit(x.tape, x.data.reshape(shape), (x.nid,), lambda g: (g.reshape(old),))


# ---------------------------------------------------------------------------
# normalisation


def _normalise(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """float64 (xhat, 1/std) of each row of `x`."""
    xd = _f64(x)
    n = xd.shape[1]  # sum / n is ndarray.mean without its Python wrapper
    xc = xd - xd.sum(axis=1, keepdims=True) / n
    inv = 1.0 / np.sqrt((xc * xc).sum(axis=1, keepdims=True) / n + eps)
    return xc * inv, inv


def _layer_norm_rows(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                    eps: float = 1e-5) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row of `x` normalised, then gain and bias in float64, rounded to
    the storage dtype, with the float64 (xhat, 1/std) it came from: the
    forward arithmetic of `layer_norm`, which `DecoderLM.step` shares."""
    xhat, inv = _normalise(x, eps)
    return (xhat * _f64(gain) + _f64(bias)).astype(_DTYPE, copy=False), xhat, inv


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalisation, then gain and bias.  On a tape the op keeps
    the float64 normalised rows and 1/std for its backward pass: twice the
    size of its float32 input, plus one float64 per row."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    if x.ndim != 2 or gain.shape != (x.shape[1],) or bias.shape != (x.shape[1],):
        raise ValueError("layer_norm expects [n, c] input with [c] gain/bias")
    tape = _tape_of(x, gain, bias)
    out, xhat, inv = _layer_norm_rows(x.data, gain.data, bias.data, eps)
    if tape is None:
        return _emit(None, out)
    px = x.nid if x.tape is not None else None
    pg = gain.nid if gain.tape is not None else None
    pb = bias.nid if bias.tape is not None else None
    gd = _f64(gain.data)

    def bwd(g):
        g64 = _f64(g)
        res = []
        if px is not None:
            dxhat = g64 * gd
            m1 = dxhat.mean(axis=1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
            res.append((inv * (dxhat - m1 - xhat * m2)).astype(g.dtype))
        if pg is not None:
            res.append((g64 * xhat).sum(axis=0).astype(g.dtype))
        if pb is not None:
            res.append(g64.sum(axis=0).astype(g.dtype))
        return tuple(res)

    return _emit(tape, out, tuple(p for p in (px, pg, pb) if p is not None), bwd)


def softmax(x: Tensor, tau: float = 1.0, axis: int = -1) -> Tensor:
    """Temperature softmax over `axis`: exp((x - max)/tau) / sum."""
    if tau <= 0:
        raise ValueError("softmax temperature must be > 0")
    x = as_tensor(x)
    xd = _f64(x.data)
    z = (xd - xd.max(axis=axis, keepdims=True)) / tau
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        g64 = _f64(g)
        dot = (g64 * s).sum(axis=axis, keepdims=True)
        return ((s * (g64 - dot) / tau).astype(g.dtype),)

    return _emit(x.tape, s, (x.nid,), bwd)


def _segments(t: int, lengths: Optional[Sequence[int]]) -> list[tuple[int, int]]:
    """Row ranges [start, stop) of the consecutive segments of `lengths` rows,
    which must cover all `t` rows; None is one segment."""
    if lengths is None:
        return [(0, t)]
    if min(lengths, default=0) < 1 or sum(lengths) != t:
        raise ValueError(f"segment lengths must be ints >= 1 summing to {t} rows, "
                         f"got {list(lengths)}")
    stops = np.cumsum(lengths).tolist()
    return list(zip([0] + stops[:-1], stops))


def _heads(qkv: np.ndarray, heads: int) -> np.ndarray:
    """[T, 3d] -> float64 [3, H, T, d/H]: the query, key and value heads."""
    t = qkv.shape[0]
    return _f64(qkv).reshape(t, 3, heads, -1).transpose(1, 2, 0, 3)


def attention(qkv: Tensor, heads: int, causal: bool,
              lengths: Optional[Sequence[int]] = None) -> Tensor:
    """Multi-head scaled dot-product self-attention as one op: [T, 3d] -> [T, d].

    The columns of `qkv` hold query heads 0..H-1, then the key heads, then
    the value heads, each d/H wide; the output holds the heads side by side
    in the same order.  `lengths` splits the rows into consecutive segments
    (the utterances of a packed batch; None is one segment) and a row
    attends only to rows of its own segment.  With `causal`, row t attends
    to rows <= t only: the scores above the diagonal are set to LOG_ZERO
    before the softmax.  Runs in float64 over each segment's own [H, t, t]
    block, so a packed batch never holds scores across segments.  The
    backward pass reads the saved attention probabilities, in which masked
    scores are exact zeros, and recomputes q, k and v from the op's input.
    A decode's K/V cache does not go through this op (see `_cached_step`).
    """
    qkv = as_tensor(qkv)
    if qkv.ndim != 2 or heads < 1 or qkv.shape[1] % (3 * heads):
        raise ValueError(f"attention needs [T, 3d] input with d divisible by {heads} heads, "
                         f"got {qkv.shape}")
    t, width = qkv.shape[0], qkv.shape[1] // 3
    scale = 1.0 / np.sqrt(width // heads)
    saved = qkv.data
    segs = _segments(t, lengths)
    q, k, v = _heads(saved, heads)
    if causal:
        longest = max(b - a for a, b in segs)
        above = np.triu(np.ones((longest, longest), dtype=bool), 1)
    outs, probs = [], []
    for a, b in segs:
        p = q[:, a:b] @ k[:, a:b].transpose(0, 2, 1)
        p *= scale
        if causal:
            p = np.where(above[:b - a, :b - a], LOG_ZERO, p)
        p -= p.max(axis=2, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=2, keepdims=True)
        outs.append((p @ v[:, a:b]).transpose(1, 0, 2))
        probs.append(p)
    out = np.concatenate(outs).reshape(t, width)
    if qkv.tape is None:
        return _emit(None, out)

    def bwd(g):
        q, k, v = _heads(saved, heads)
        go = _f64(g).reshape(t, heads, -1).transpose(1, 0, 2)
        grad = np.empty((t, 3, heads, width // heads))
        for (a, b), p in zip(segs, probs):
            gp = go[:, a:b] @ v[:, a:b].transpose(0, 2, 1)
            gs = p * (gp - (gp * p).sum(axis=2, keepdims=True)) * scale
            grad[a:b, 0] = (gs @ k[:, a:b]).transpose(1, 0, 2)
            grad[a:b, 1] = (gs.transpose(0, 2, 1) @ q[:, a:b]).transpose(1, 0, 2)
            grad[a:b, 2] = (p.transpose(0, 2, 1) @ go[:, a:b]).transpose(1, 0, 2)
        return (grad.reshape(t, 3 * width).astype(g.dtype),)

    return _emit(qkv.tape, out, (qkv.nid,), bwd)


def _cached_step(qkv: np.ndarray, heads: int, cache) -> np.ndarray:
    """`attention` over one causal sequence for its n newest rows, outside
    the tape: row i of `qkv` stores its key and value at row filled + i of
    the `(k, v, filled)` cache, then attends over the cached rows up to its
    own, in float64: [n, 3d] -> [n, d].  The caller advances `filled`."""
    k, v, filled = cache
    n, width = qkv.shape[0], qkv.shape[1] // 3
    stop = filled + n
    q, keys, values = qkv.reshape(n, 3, heads, -1).transpose(1, 2, 0, 3)
    k[:, filled:stop] = keys
    v[:, filled:stop] = values
    p = _f64(q) @ _f64(k[:, :stop]).transpose(0, 2, 1)
    p *= 1.0 / np.sqrt(width // heads)
    if n > 1:  # one new row attends to every cached row
        p = np.where(np.arange(stop) > filled + np.arange(n)[:, None], LOG_ZERO, p)
    p -= p.max(axis=2, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=2, keepdims=True)
    return (p @ _f64(v[:, :stop])).transpose(1, 0, 2).reshape(n, width)


# ---------------------------------------------------------------------------
# losses


def cross_entropy(logits: Tensor, targets, mask=None) -> Tensor:
    """Mean NLL of `targets` under softmax(logits) rows, optionally masked.

    Gradient at an active row is (softmax(row) - onehot) / active_count.
    """
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise ValueError("cross_entropy expects [n, c] logits")
    tgt = np.asarray(targets, dtype=np.intp)
    n, c = logits.shape
    if tgt.shape != (n,):
        raise ValueError("targets must be 1-D, one per row")
    if tgt.size and (tgt.min() < 0 or tgt.max() >= c):
        raise ValueError("target id out of range")
    m = np.ones(n, dtype=np.float64) if mask is None else _f64(np.asarray(mask))
    active = m.sum()
    if active <= 0:
        raise ValueError("cross_entropy mask selects no positions")
    xd = _f64(logits.data)
    mx = xd.max(axis=1, keepdims=True)
    z = xd - mx
    ls = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = -(ls[np.arange(n), tgt] * m).sum() / active

    def bwd(g):
        d = np.exp(ls)
        d[np.arange(n), tgt] -= 1.0
        d *= (m / active)[:, None]
        return ((d * _f64(g)).astype(g.dtype),)

    out = _emit(logits.tape, loss, (logits.nid,), bwd)
    _finite(out.data, "the cross_entropy loss")
    return out
