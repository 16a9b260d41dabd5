"""Trainable toy networks and the training loop of both stages.

The speech encoder subsamples frames by 4 (two stride-2 convolution
stages), mixes with single-head self-attention + per-frame MLP blocks, and
ends in a linear layer over the V+1 output slots.  The decoder is a causal
multi-head transformer whose embedding table doubles as the reconstruction
codebook; the blank row (index V) takes part in reconstruction only, never
in the output softmax.  Input and output embeddings are tied by default
(`DecoderConfig.tie_output`).  Both stacks share one pre-LN block,
`_mix_block`, whose attention is one fused tape op (`tt.attention`) between
a [d, 3d] query/key/value projection and a [d, d] output projection.

Every pass takes a packed batch, and one utterance is a batch of one: the
utterances' rows stacked as [sum T, d] with a table of their lengths, so a
batch is one pass of each op.  Row-wise ops need no table; attention and
dropout take it, and each utterance is its own sequence (its own conv
padding, attention block and positions), so a packed pass gives each
utterance what a pass of it alone would give: the same bytes untaped, and
within float32 rounding on a tape, whose matmuls multiply in float32
(see `tensor`).

Greedy generation has one path, and it is cached: `generate` decodes a
batch of utterances in one call, each over its own float64 `KVCache`, and
`DecoderLM.step` is the only code that reads or writes such a cache.  One
step feeds an utterance's [speech; prompt] rows, filling the cache with
every block's keys and values, and gives its first token; every further
token is one step of one row, which attends over the cached rows.  A step
runs on raw arrays, outside the tape ops, with the arithmetic of an
untaped `forward` pass, so `forward` and the ops know nothing of caches.
The cache also carries the decoder's weights, converted to float64 once
per call.  `evaluate_system` decodes a whole dataset in one call.

One step loop, `_train`, with two front ends: `train_encoder_ctc`
CTC-trains the encoder, then `adapt_decoder` adapts the decoder against a
frozen encoder through one entry of the `CONNECTIONS` registry.  A front
end hands the loop its parameters, rng stream, batch loss and dev loss;
the loop owns batching, augmentation, dropout streams, Adam, log rows and
divergence handling, and records each step's batch on one tape with one
backward pass.  Dev passes run in packed chunks of the batch size.  An
entry names what it reads from the encoder (logits, hidden states or an
n-best list), the parameters it trains beside the decoder, and how it
turns that readout into the decoder's speech prefix:

  lego / lego_star   posterior-weighted reconstruction against the LM
                     table (lego_star pins blank downscale to 1e4)
  topS / topP        the same restricted to the top-k slots, or their rows
                     concatenated through a trained projection
  adapter            reconstruction against its own table, so the
                     encoder's vocabulary may differ from the LM's
  sp                 linear projection of encoder hidden states
  aec                no prefix: n-best hypotheses as text, "<sep>"-joined

The frozen encoder runs off-tape during adaptation, so its parameters
cannot drift by construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import tensor as tt
from .connector import ConnectorConfig, reconstruct_full, reconstruct_topP
from .ctc import CtcLoss, NBestList, ctc_loss
from .lexicon import TokenSeq, Vocabulary
from .metrics import WerReport, corpus_wer
from .rng import CounterRng
from .synthdata import MaskConfig, Utterance, augment


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int, message: str):
        super().__init__(f"training diverged at step {step}: {message}")
        self.step = step


# ---------------------------------------------------------------------------
# configs


@dataclass(frozen=True)
class EncoderConfig:
    feat_dim: int
    out_slots: int  # V + 1
    width: int = 48
    ffn: int = 96
    blocks: int = 2


@dataclass(frozen=True)
class DecoderConfig:
    vocab: int  # V; the embedding table has V + 1 rows
    dim: int = 64
    ffn: int = 128
    blocks: int = 2
    heads: int = 4
    max_len: int = 192
    tie_output: bool = True
    # the table doubles as the reconstruction codebook, so its initial norm
    # sets the speech-signal strength relative to positional embeddings
    emb_scale: float = 0.3


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 1500
    batch_size: int = 8
    lr: float = 3e-3
    warmup: int = 50
    dropout: float = 0.0
    augment: Optional[MaskConfig] = MaskConfig()
    seed: int = 0
    eval_every: int = 250
    log_every: int = 50
    dev_subset: int = 100

    def __post_init__(self):
        for name, least in (("steps", 0), ("warmup", 0), ("eval_every", 0), ("seed", None),
                            ("batch_size", 1), ("log_every", 1), ("dev_subset", 1)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an int, got {value!r}")
            if least is not None and value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        for name in ("lr", "dropout"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise TypeError(f"{name} must be a number, got {value!r}")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        if not 0 <= self.dropout < 1:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")


# ---------------------------------------------------------------------------
# parameter plumbing


# words per many-stream pass of parameter init: a pass's temporaries grow
# with its words, and this is about the largest single weight of the bench
# models, so init peaks near where drawing each weight alone did
_INIT_PASS_WORDS = 1 << 14


def _normals(rng: CounterRng, shapes: dict[str, tuple[tuple[int, ...], float]]
             ) -> dict[str, np.ndarray]:
    """Normals times scale for each entry `name: (shape, scale)`, drawn from
    its own stream `rng.child(name)`.  Consecutive entries share a
    many-stream pass until it holds `_INIT_PASS_WORDS` words."""
    names = list(shapes)
    sizes = np.array([math.prod(shape) for shape, _ in shapes.values()], dtype=np.int64)
    starts = np.flatnonzero(np.diff((np.cumsum(sizes) - sizes) // _INIT_PASS_WORDS)) + 1
    drawn = {}
    for a, b in zip([0, *starts], [*starts, len(names)]):
        flat = rng.child(*names[a:b]).normals(sizes[a:b])
        for name, part in zip(names[a:b], np.split(flat, np.cumsum(sizes[a:b])[:-1])):
            shape, scale = shapes[name]
            drawn[name] = part.reshape(shape) * scale
    return drawn


def _const(name: str, shape, value: float) -> tt.Parameter:
    return tt.Parameter(np.full(shape, value, dtype=np.float64), name=name)


def _w(params: dict, name: str, tape) -> tt.Tensor:
    """Parameter `name` of `params` as a Tensor: watched on `tape`, or read
    untaped."""
    p = params[name]
    return tape.watch(p) if tape is not None else tt._unchecked(p.value)


def _mix_block(x: tt.Tensor, params, prefix: str, tape, causal: bool,
               drop_rate: float, drop_rng, heads: int = 1,
               lengths: Optional[Sequence[int]] = None) -> tt.Tensor:
    """One pre-LN block over the rows of `x`; with `lengths`, a packed batch of
    segments that attend within themselves and draw dropout from their own
    stream of `drop_rng`."""
    h = tt.layer_norm(x, _w(params, f"{prefix}.ln1g", tape), _w(params, f"{prefix}.ln1b", tape))
    qkv = tt.matmul(h, _w(params, f"{prefix}.wqkv", tape))
    o = tt.matmul(tt.attention(qkv, heads, causal, lengths), _w(params, f"{prefix}.wo", tape))
    if drop_rate > 0:
        o = tt.dropout(o, drop_rate, drop_rng, lengths)
    x = tt.add(x, o)
    h2 = tt.layer_norm(x, _w(params, f"{prefix}.ln2g", tape), _w(params, f"{prefix}.ln2b", tape))
    m = tt.add(tt.matmul(h2, _w(params, f"{prefix}.w1", tape)), _w(params, f"{prefix}.b1", tape))
    m = tt.add(tt.matmul(tt.relu(m), _w(params, f"{prefix}.w2", tape)), _w(params, f"{prefix}.b2", tape))
    if drop_rate > 0:
        m = tt.dropout(m, drop_rate, drop_rng, lengths)
    return tt.add(x, m)


def _block_shapes(prefix: str, width: int, ffn: int, heads: int = 1) -> dict:
    """A block's normal-drawn weights as `_normals` entries: each attention
    head from its own stream `{prefix}.h{j}.{nm}`, then w1 and w2."""
    if width % heads:
        raise ValueError("width must be divisible by the head count")
    head_dim = width // heads
    shapes = {}
    for nm, shape in (("wq", (width, head_dim)), ("wk", (width, head_dim)),
                      ("wv", (width, head_dim)), ("wo", (head_dim, width))):
        for j in range(heads):
            shapes[f"{prefix}.h{j}.{nm}"] = (shape, 1.0 / math.sqrt(shape[0]))
    shapes[f"{prefix}.w1"] = ((width, ffn), 1.0 / math.sqrt(width))
    shapes[f"{prefix}.w2"] = ((ffn, width), 1.0 / math.sqrt(ffn))
    return shapes


def _block_params(params, drawn: dict, prefix: str, width: int, ffn: int, heads: int = 1):
    """A block's parameters, its weights taken from `drawn` (`_block_shapes`)."""

    def stacked(nm: str, axis: int) -> np.ndarray:
        return np.concatenate([drawn[f"{prefix}.h{j}.{nm}"] for j in range(heads)], axis=axis)

    params[f"{prefix}.ln1g"] = _const(f"{prefix}.ln1g", (width,), 1.0)
    params[f"{prefix}.ln1b"] = _const(f"{prefix}.ln1b", (width,), 0.0)
    # columns: query heads 0..H-1, key heads, value heads; rows of wo: heads
    qkv = [stacked(nm, 1) for nm in ("wq", "wk", "wv")]
    params[f"{prefix}.wqkv"] = tt.Parameter(np.concatenate(qkv, axis=1), name=f"{prefix}.wqkv")
    params[f"{prefix}.wo"] = tt.Parameter(stacked("wo", 0), name=f"{prefix}.wo")
    params[f"{prefix}.ln2g"] = _const(f"{prefix}.ln2g", (width,), 1.0)
    params[f"{prefix}.ln2b"] = _const(f"{prefix}.ln2b", (width,), 0.0)
    params[f"{prefix}.w1"] = tt.Parameter(drawn[f"{prefix}.w1"], name=f"{prefix}.w1")
    params[f"{prefix}.b1"] = _const(f"{prefix}.b1", (ffn,), 0.0)
    params[f"{prefix}.w2"] = tt.Parameter(drawn[f"{prefix}.w2"], name=f"{prefix}.w2")
    params[f"{prefix}.b2"] = _const(f"{prefix}.b2", (width,), 0.0)


# ---------------------------------------------------------------------------
# speech encoder


class SpeechEncoder:
    """Stride-4 subsampler, mixing blocks, linear output over V+1 slots."""

    SUBSAMPLE = 4

    def __init__(self, cfg: EncoderConfig, seed: int):
        self.cfg = cfg
        self.seed = seed
        shapes = {"conv1.w": ((3 * cfg.feat_dim, cfg.width), 1.0 / math.sqrt(3 * cfg.feat_dim)),
                  "conv2.w": ((3 * cfg.width, cfg.width), 1.0 / math.sqrt(3 * cfg.width)),
                  "out.w": ((cfg.width, cfg.out_slots), 1.0 / math.sqrt(cfg.width))}
        for i in range(cfg.blocks):
            shapes.update(_block_shapes(f"blk{i}", cfg.width, cfg.ffn))
        drawn = _normals(CounterRng(seed, stream=0xE4C0), shapes)
        p: dict[str, tt.Parameter] = {}
        p["conv1.w"] = tt.Parameter(drawn["conv1.w"], name="conv1.w")
        p["conv1.b"] = _const("conv1.b", (cfg.width,), 0.0)
        p["conv2.w"] = tt.Parameter(drawn["conv2.w"], name="conv2.w")
        p["conv2.b"] = _const("conv2.b", (cfg.width,), 0.0)
        for i in range(cfg.blocks):
            _block_params(p, drawn, f"blk{i}", cfg.width, cfg.ffn)
        p["lnog"] = _const("lnog", (cfg.width,), 1.0)
        p["lnob"] = _const("lnob", (cfg.width,), 0.0)
        p["out.w"] = tt.Parameter(drawn["out.w"], name="out.w")
        self.params = p

    @classmethod
    def out_len(cls, frames: int) -> int:
        """Output rows of an utterance of `frames` input frames: ceil(T/4)."""
        return -(-frames // cls.SUBSAMPLE)

    def _conv(self, x: tt.Tensor, lengths: list[int], prefix: str,
              tape) -> tuple[tt.Tensor, list[int]]:
        """Width-3, stride-2 convolution of each segment of `lengths` rows,
        zero-padded by one row at both of its ends: T rows give ceil(T/2)."""
        zero = tt._unchecked(np.zeros((1, x.shape[1]), dtype=x.data.dtype))
        padded = tt.concat_rows([zero, x])
        t = np.asarray(lengths)
        outs = (t + 1) // 2
        ends = np.cumsum(outs)
        # window w of a segment starting at row s of `x` covers rows 2w..2w+2
        # of [0; segment; 0]: tap i is row s + i of `padded`, or 0 (the zero
        # row) for the padding at i = 0 and i > T
        taps = 2 * (np.arange(ends[-1]) - np.repeat(ends - outs, outs))[:, None] + np.arange(3)
        rows = np.where((taps == 0) | (taps > np.repeat(t, outs)[:, None]), 0,
                        taps + np.repeat(np.cumsum(t) - t, outs)[:, None])
        windows = tt.reshape(tt.gather_rows(padded, rows.reshape(-1)),
                             (int(ends[-1]), 3 * x.shape[1]))
        y = tt.add(tt.matmul(windows, _w(self.params, f"{prefix}.w", tape)),
                   _w(self.params, f"{prefix}.b", tape))
        return tt.relu(y), outs.tolist()

    def forward(self, frames: Sequence[np.ndarray], tape=None, drop_rate: float = 0.0,
                drop_rng=None) -> tuple[tt.Tensor, tt.Tensor]:
        """One packed pass over a batch of utterances' [T, F] frames: returns
        (hidden [sum T', width], logits [sum T', V+1]), each utterance's
        T' = ceil(T/4) rows in turn.  `drop_rng` has one stream per utterance.
        An utterance's rows depend on its own frames only: bytewise for an
        untaped pass, within float32 rounding for a taped one.
        """
        for f in frames:
            if f.ndim != 2 or f.shape[1] != self.cfg.feat_dim:
                raise ValueError("feature dimension mismatch")
            if f.shape[0] < self.SUBSAMPLE:
                raise ValueError(f"need at least {self.SUBSAMPLE} input frames, got {f.shape[0]}")
        x = tt.Tensor(np.concatenate(frames))
        x, lengths = self._conv(x, [f.shape[0] for f in frames], "conv1", tape)
        x, lengths = self._conv(x, lengths, "conv2", tape)
        for i in range(self.cfg.blocks):
            x = _mix_block(x, self.params, f"blk{i}", tape, causal=False,
                           drop_rate=drop_rate, drop_rng=drop_rng, heads=1, lengths=lengths)
        hidden = tt.layer_norm(x, _w(self.params, "lnog", tape), _w(self.params, "lnob", tape))
        logits = tt.matmul(hidden, _w(self.params, "out.w", tape))
        return hidden, logits


# ---------------------------------------------------------------------------
# decoder LM


class DecoderLM:
    """Causal transformer over (speech embeddings ++ text embeddings)."""

    def __init__(self, cfg: DecoderConfig, vocab: Vocabulary, seed: int):
        if cfg.vocab != vocab.size:
            raise ValueError("decoder config vocab does not match vocabulary")
        self.cfg = cfg
        self.vocab = vocab
        self.seed = seed
        shapes = {"emb": ((cfg.vocab + 1, cfg.dim), cfg.emb_scale),  # +1: blank row
                  "pos": ((cfg.max_len, cfg.dim), 0.02)}
        for i in range(cfg.blocks):
            shapes.update(_block_shapes(f"blk{i}", cfg.dim, cfg.ffn, cfg.heads))
        if not cfg.tie_output:
            shapes["out.w"] = ((cfg.dim, cfg.vocab), 1.0 / math.sqrt(cfg.dim))
        drawn = _normals(CounterRng(seed, stream=0xD3C0), shapes)
        p: dict[str, tt.Parameter] = {}
        p["emb"] = tt.Parameter(drawn["emb"], name="emb")
        p["pos"] = tt.Parameter(drawn["pos"], name="pos")
        for i in range(cfg.blocks):
            _block_params(p, drawn, f"blk{i}", cfg.dim, cfg.ffn, cfg.heads)
        p["lnfg"] = _const("lnfg", (cfg.dim,), 1.0)
        p["lnfb"] = _const("lnfb", (cfg.dim,), 0.0)
        if not cfg.tie_output:
            p["out.w"] = tt.Parameter(drawn["out.w"], name="out.w")
        self.params = p

    def embedding(self, tape=None) -> tt.Tensor:
        return _w(self.params, "emb", tape)

    def forward(self, speech: Optional[tt.Tensor], text_ids: Sequence[Sequence[int]],
                tape=None, drop_rate: float = 0.0, drop_rng=None,
                speech_lens: Optional[Sequence[int]] = None) -> tt.Tensor:
        """Next-token logits over V for every text position of a packed batch.

        `text_ids` holds one token sequence per utterance, `speech` their
        [S, d] prefixes (already in embedding space) stacked, with
        `speech_lens` rows each, or None, and `drop_rng` one stream per
        utterance.  Each utterance is its own causal sequence [speech;
        text], with positions from 0, and the logits of its text rows follow
        those of the utterance before.  The blocks are pre-LN, so the prefix
        is read only through layer_norm: adding a constant to a whole speech
        row does not change the logits.
        """
        seqs = [np.asarray(t, dtype=np.intp) for t in text_ids]
        t_lens = np.array([ids.size for ids in seqs], dtype=np.intp)
        if not seqs or t_lens.min() == 0:
            raise ValueError("text must be non-empty")
        s_lens = _speech_lens(speech, speech_lens, len(seqs))
        ids = np.concatenate(seqs)
        if np.any(ids[np.cumsum(t_lens) - t_lens] != self.vocab.bos_id):
            raise ValueError("text must begin with <bos>")
        if ids.max() >= self.cfg.vocab or ids.min() < 0:
            raise ValueError("text id outside [0, V)")
        total = int((s_lens + t_lens).max())
        if total > self.cfg.max_len:
            raise ValueError(f"sequence length {total} exceeds max_len {self.cfg.max_len}")

        params = self.params
        emb = _w(params, "emb", tape)
        positions, is_text = _packed_rows(s_lens, t_lens)
        # each packed row reads its token's row of the table, or its speech
        # row, placed after the table: one gather builds [speech_i; text_i]
        table, rows = emb, np.empty(is_text.size, dtype=np.intp)
        rows[is_text] = ids
        if speech is not None:
            table = tt.concat_rows([emb, speech])
            rows[~is_text] = emb.shape[0] + np.arange(speech.shape[0])
        x = tt.add(tt.gather_rows(table, rows),
                   tt.gather_rows(_w(params, "pos", tape), positions))
        lengths = (s_lens + t_lens).tolist()
        for i in range(self.cfg.blocks):
            x = _mix_block(x, params, f"blk{i}", tape, causal=True, drop_rate=drop_rate,
                           drop_rng=drop_rng, heads=self.cfg.heads, lengths=lengths)
        h = tt.layer_norm(x, _w(params, "lnfg", tape), _w(params, "lnfb", tape))
        h_text = tt.gather_rows(h, np.flatnonzero(is_text))
        if "out.w" in params:  # untied
            out_w = _w(params, "out.w", tape)
        else:
            out_w = tt.transpose(tt.slice_rows(emb, 0, self.cfg.vocab))
        return tt.matmul(h_text, out_w)

    def step(self, ids, cache: KVCache, speech: Optional[tt.Tensor] = None) -> np.ndarray:
        """Feed the sequence of `cache` its [speech; ids] rows at positions
        filled.. and return the next-token logits [V] after the last row:
        the prefill of a decode, with the [S, d] `speech` prefix and the
        prompt, or one generated token fed back.  Untaped, on raw arrays
        and the weights the cache carries: the arithmetic of the tape ops
        in an untaped `forward` pass, with their float64 insides and their
        rounding to the storage dtype after each layer norm, matmul and
        attention, so the logits are the bytes such a pass would give."""
        ids, start = np.asarray(ids, dtype=np.intp), cache.filled
        if ids.ndim != 1 or ids.size == 0:
            raise ValueError("text must be non-empty")
        if speech is not None and speech.tape is not None:
            raise ValueError("a K/V cache is filled by untaped passes only")
        if start == 0 and ids[0] != self.vocab.bos_id:
            raise ValueError("text must begin with <bos>")
        if ids.max() >= self.cfg.vocab or ids.min() < 0:
            raise ValueError("text id outside [0, V)")
        stop = start + ids.size + (0 if speech is None else speech.shape[0])
        if stop > self.cfg.max_len:
            raise ValueError(f"sequence length {stop} exceeds max_len {self.cfg.max_len}")
        if stop > cache.rows:
            raise ValueError(f"sequence length {stop} exceeds the cache's {cache.rows} rows")
        w, dtype = cache.weights, tt._DTYPE

        def norm(x, name):
            return tt._layer_norm_rows(x, w[name + "g"].data, w[name + "b"].data)[0]

        def mm(x, name):
            return tt._matmul_rows(x, w[name].data)

        x = w["emb"].data[ids]
        if speech is not None:
            x = np.concatenate([speech.data, x])
        x = x + w["pos"].data[start:stop]
        for i, (k, v) in enumerate(cache.blocks):
            blk = f"blk{i}."
            qkv = mm(norm(x, blk + "ln1"), blk + "wqkv")
            x = x + mm(tt._cached_step(qkv, self.cfg.heads, (k, v, start)).astype(dtype),
                       blk + "wo")
            m = mm(norm(x, blk + "ln2"), blk + "w1") + w[blk + "b1"].data
            x = x + (mm(np.maximum(m, dtype(0)), blk + "w2") + w[blk + "b2"].data)
        cache.filled = stop
        # all text rows, as in `forward`: in float64 storage a matmul
        # row's last bits follow the row count
        return mm(norm(x[-ids.size:], "lnf"), "out.w")[-1]


class KVCache:
    """The keys and values of every row one decoder sequence has fed, for
    untaped generation (the per-layer cache of Pope et al., 2022,
    "Efficiently Scaling Transformer Inference"): per block, [H, rows, d/H]
    float64 key and value arrays, and the int `filled`, the rows fed so
    far.  `DecoderLM.step` is the only code that reads or writes it.
    float64 holds `qkv` exactly, so each row is converted once, as it is
    written, instead of on every step that reads it.

    `weights` is `_fixed_weights(decoder)`, which every step with this
    cache reads instead of the decoder's parameters, so one `generate` call
    converts the weights once, not once per token.  It is a snapshot: a
    cache must not outlive a change to the parameters."""

    def __init__(self, cfg: DecoderConfig, rows: int, weights: dict[str, tt.Tensor]):
        shape = (cfg.heads, rows, cfg.dim // cfg.heads)
        self.blocks = [(np.zeros(shape), np.zeros(shape)) for _ in range(cfg.blocks)]
        self.filled = 0
        self.rows = rows
        self.weights = weights


def _fixed_weights(dec: DecoderLM) -> dict[str, tt.Tensor]:
    """Every parameter of `dec` as an untaped Tensor, for passes that do not
    change them (one `generate` call): float64 copies of what `matmul` and
    `layer_norm` read, which they then read without a cast, with the tied
    output matrix emb[:V] transposed as "out.w"; the tables that
    `gather_rows` reads and the biases that `add` reads stay over the
    parameters' own float32 storage."""
    weights = {}
    for name, p in dec.params.items():
        kept = name in ("emb", "pos") or name.endswith((".b1", ".b2"))
        weights[name] = tt._unchecked(p.value if kept else p.value.astype(np.float64))
    if dec.cfg.tie_output:
        weights["out.w"] = tt._unchecked(
            np.ascontiguousarray(dec.params["emb"].value[:dec.cfg.vocab].T, np.float64))
    return weights


def _speech_lens(speech: Optional[tt.Tensor], speech_lens: Optional[Sequence[int]],
                 n: int) -> np.ndarray:
    """Each of `n` sequences' speech-prefix rows: `speech_lens`, checked
    against the stacked `speech`, or zeros without speech."""
    if speech is None:
        return np.zeros(n, dtype=np.intp)
    lens = np.asarray(speech_lens if speech_lens is not None else (), dtype=np.intp)
    if lens.shape != (n,) or lens.sum() != speech.shape[0]:
        raise ValueError("speech_lens must give each sequence's prefix rows")
    return lens


def _packed_rows(s_lens: np.ndarray, t_lens: np.ndarray):
    """A packed decoder batch's rows are [speech_i; text_i] in turn: each
    row's position within its sequence and whether it holds text."""
    lens = s_lens + t_lens
    seq = np.repeat(np.arange(lens.size), lens)
    offset = np.arange(lens.sum()) - (np.cumsum(lens) - lens)[seq]
    return offset, offset >= s_lens[seq]


def sp_project(hidden: tt.Tensor, proj: tt.Tensor) -> tt.Tensor:
    """Linear map from encoder hidden states into the LM embedding space."""
    return tt.matmul(hidden, proj)


def aec_build_input(nbest: NBestList, n: int, vocab: Vocabulary) -> TokenSeq:
    """Top-n hypotheses in score order, "<sep>"-joined."""
    if not nbest.hypotheses:
        raise ValueError("n-best list is empty")
    if n > len(nbest.hypotheses):
        raise ValueError(f"asked for {n} hypotheses, list holds {len(nbest.hypotheses)}")
    out: list[int] = []
    for i, (hyp, _) in enumerate(nbest.hypotheses[:n]):
        if i:
            out.append(vocab.sep_id)
        out.extend(hyp)
    return tuple(out)


# ---------------------------------------------------------------------------
# connection registry


def _lm_prefix(sys: DecoderSystem, enc_out: np.ndarray, tape, at_inference: bool):
    return reconstruct_full(tt.Tensor(enc_out), sys.decoder.embedding(tape),
                            sys.conn, at_inference)


def _topS_prefix(sys: DecoderSystem, enc_out: np.ndarray, tape, at_inference: bool):
    return reconstruct_full(tt.Tensor(enc_out), sys.decoder.embedding(tape),
                            sys.conn, at_inference, k=sys.conn.k)


def _topP_prefix(sys: DecoderSystem, enc_out: np.ndarray, tape, at_inference: bool):
    return reconstruct_topP(tt.Tensor(enc_out), sys.decoder.embedding(tape),
                            sys.conn.k, _w(sys.extra, "topp.proj", tape), sys.conn,
                            at_inference)


def _adapter_prefix(sys: DecoderSystem, enc_out: np.ndarray, tape, at_inference: bool):
    return reconstruct_full(tt.Tensor(enc_out), _w(sys.extra, "adapter.table", tape),
                            sys.conn, at_inference)


def _sp_prefix(sys: DecoderSystem, enc_out: np.ndarray, tape, at_inference: bool):
    return sp_project(tt.Tensor(enc_out), _w(sys.extra, "sp.proj", tape))


@dataclass(frozen=True)
class Connection:
    """One adaptation mode: how frozen-encoder output becomes a speech prefix."""

    reads: str  # "logits", "hidden" or "nbest" (the aec cache; no encoder run)
    # (sys, enc_out, tape, at_inference) -> [S, d] prefix, or None for no prefix
    prefix: Callable[..., Optional[tt.Tensor]]
    # (encoder config, decoder config, connector) -> {name: (shape, init scale)}
    # of the parameters trained beside the decoder
    extra: Callable[[EncoderConfig, DecoderConfig, ConnectorConfig], dict] = (
        lambda enc, dec, conn: {})
    lm_table: bool = False  # reconstructs against the LM table: needs V+1 encoder slots
    needs_k: bool = False
    blk_downscale: Optional[float] = None  # pinned over the connector's value

    def check_k(self, conn: ConnectorConfig, out_slots: int) -> None:
        if self.needs_k and (conn.k is None or conn.k > out_slots):  # the config checks k >= 1
            raise ValueError(f"k must lie in [1, {out_slots}] for this mode, got {conn.k}")


_LEGO = Connection("logits", _lm_prefix, lm_table=True)

CONNECTIONS: dict[str, Connection] = {
    "lego": _LEGO,
    "lego_star": replace(_LEGO, blk_downscale=1.0e4),
    "topS": Connection("logits", _topS_prefix, lm_table=True, needs_k=True),
    "topP": Connection(
        "logits", _topP_prefix, lm_table=True, needs_k=True,
        extra=lambda enc, dec, conn: {
            "topp.proj": ((conn.k * dec.dim, dec.dim), 1.0 / math.sqrt(conn.k * dec.dim))}),
    "adapter": Connection(
        "logits", _adapter_prefix,
        extra=lambda enc, dec, conn: {"adapter.table": ((enc.out_slots, dec.dim), 0.02)}),
    "sp": Connection(
        "hidden", _sp_prefix,
        extra=lambda enc, dec, conn: {
            "sp.proj": ((enc.width, dec.dim), 1.0 / math.sqrt(enc.width))}),
    "aec": Connection("nbest", lambda sys, enc_out, tape, at_inference: None),
}


# ---------------------------------------------------------------------------
# the decode-side bundle


@dataclass
class DecoderSystem:
    """Decoder plus what its registry entry needs at run time."""

    decoder: DecoderLM
    mode: str
    conn: ConnectorConfig
    extra: dict[str, tt.Parameter] = field(default_factory=dict)
    aec_n: int = 1
    prompt_id: Optional[int] = None

    def __post_init__(self):
        if self.mode not in CONNECTIONS:
            raise ValueError(f"unknown adaptation mode {self.mode!r}")
        if type(self.aec_n) is not int or self.aec_n < 1:
            raise ValueError(f"aec_n must be an integer >= 1, got {self.aec_n!r}")

    @property
    def connection(self) -> Connection:
        return CONNECTIONS[self.mode]


def build_system(mode: str, enc: SpeechEncoder, dec: DecoderLM,
                 conn: ConnectorConfig = ConnectorConfig(), seed: int = 0,
                 aec_n: int = 1, prompt_id: Optional[int] = None) -> DecoderSystem:
    """Create the decoder-side bundle, initialising its entry's extra parameters."""
    if mode not in CONNECTIONS:
        raise ValueError(f"unknown adaptation mode {mode!r}")
    entry = CONNECTIONS[mode]
    if entry.blk_downscale is not None:
        conn = replace(conn, blk_downscale=entry.blk_downscale)
    entry.check_k(conn, enc.cfg.out_slots)
    drawn = _normals(CounterRng(seed, stream=0xE27A), entry.extra(enc.cfg, dec.cfg, conn))
    extra = {name: tt.Parameter(value, name=name) for name, value in drawn.items()}
    return DecoderSystem(decoder=dec, mode=mode, conn=conn, extra=extra, aec_n=aec_n,
                         prompt_id=prompt_id)


def check_system(sys: DecoderSystem, enc_cfg: EncoderConfig) -> None:
    """Raise ValueError unless `sys` can read from an encoder with `enc_cfg`."""
    entry = sys.connection
    entry.check_k(sys.conn, enc_cfg.out_slots)
    spec = entry.extra(enc_cfg, sys.decoder.cfg, sys.conn)
    if set(sys.extra) != set(spec):
        raise ValueError(f"mode {sys.mode!r} trains parameters {sorted(spec)}, "
                         f"the system has {sorted(sys.extra)}")
    for name, (shape, _) in spec.items():
        if sys.extra[name].value.shape != shape:
            raise ValueError(f"{name} is {sys.extra[name].value.shape}; this encoder and "
                             f"connector need {shape}")
    if entry.lm_table and enc_cfg.out_slots != sys.decoder.cfg.vocab + 1:
        raise ValueError("encoder output slots do not match the LM vocabulary")


def encoder_readout(reads: str, enc: SpeechEncoder,
                    frames: Sequence[np.ndarray]) -> Optional[list[np.ndarray]]:
    """What an entry consumes from each utterance of `frames`, from one
    packed encoder pass: hidden states or logits, or None for n-best
    entries."""
    if reads == "nbest":
        return None
    hidden, logits = enc.forward(frames)
    out = hidden.data if reads == "hidden" else logits.data
    return np.split(out, np.cumsum([enc.out_len(f.shape[0]) for f in frames])[:-1])


def conditioning(sys: DecoderSystem, enc: SpeechEncoder, frames: Sequence[np.ndarray],
                 tape=None, at_inference: bool = True,
                 enc_out: Optional[list[np.ndarray]] = None) -> Optional[tt.Tensor]:
    """The speech-side prefixes of a batch of utterances, stacked; None for
    text-input modes.

    The encoder always runs off-tape: its outputs are constants during
    adaptation, which is the freeze contract in mechanical form.  Pass
    `enc_out` (`encoder_readout`'s list) to reuse cached readouts instead of
    re-running the encoder.  Every prefix is row-wise, so a batch's
    prefixes come from one call on its readouts stacked.
    """
    if enc_out is None:
        enc_out = encoder_readout(sys.connection.reads, enc, frames)
    stacked = None if enc_out is None else np.concatenate(enc_out)
    return sys.connection.prefix(sys, stacked, tape, at_inference)


def prompt_ids(sys: DecoderSystem, vocab: Vocabulary,
               nbest: Optional[NBestList] = None) -> list[int]:
    ids = [vocab.bos_id]
    if sys.prompt_id is not None:
        ids.append(sys.prompt_id)
    if sys.connection.reads == "nbest":
        if nbest is None:
            raise ValueError(f"mode {sys.mode!r} needs an n-best list")
        ids.extend(aec_build_input(nbest, sys.aec_n, vocab))
        ids.append(vocab.eos_id)
    return ids


def teacher_forcing_example(sys: DecoderSystem, vocab: Vocabulary, target: TokenSeq,
                            nbest: Optional[NBestList] = None
                            ) -> tuple[list[int], np.ndarray, np.ndarray]:
    """(text_ids, next-token targets, loss mask); loss covers target ++ <eos>."""
    prompt = prompt_ids(sys, vocab, nbest)
    text = prompt + list(target)
    targets = np.asarray(text[1:] + [vocab.eos_id], dtype=np.intp)
    mask = np.zeros(len(text), dtype=np.float64)
    mask[len(prompt) - 1:] = 1.0
    return text, targets, mask


def check_fits(sys: DecoderSystem, vocab: Vocabulary, dataset: Sequence[Utterance],
               aec_cache: Optional[dict[str, NBestList]] = None) -> None:
    """Raise ValueError naming the first utterance whose teacher-forced
    sequence -- speech prefix, prompt and target -- is longer than the
    decoder's max_len: it could neither be trained on nor decoded in full."""
    max_len = sys.decoder.cfg.max_len
    for utt in dataset:
        s = 0 if sys.connection.reads == "nbest" else SpeechEncoder.out_len(utt.frames.shape[0])
        nbest = aec_cache.get(utt.id) if aec_cache is not None else None
        text = len(prompt_ids(sys, vocab, nbest)) + len(utt.target)
        if s + text > max_len:
            raise ValueError(f"utterance {utt.id} needs {s + text} decoder rows ({s} speech + "
                             f"{text} text), more than the decoder's max_len {max_len}")


# ---------------------------------------------------------------------------
# generation


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def generate(sys: DecoderSystem, speech: Optional[tt.Tensor], prompt: Sequence[Sequence[int]],
             max_new: int = 48, speech_lens: Optional[Sequence[int]] = None) -> list[TokenSeq]:
    """Greedy autoregressive decode until <eos> or `max_new` generated
    tokens, or fewer where the decoder's max_len comes first: one tuple per
    utterance of a packed batch in `DecoderLM.forward`'s form (a list of
    prompts, their speech prefixes stacked with `speech_lens` rows each).

    Each utterance in turn gets its own K/V cache, released before the
    next one's is built.  One `DecoderLM.step` over its [speech; prompt]
    rows fills the cache and gives its first token; then it runs to its
    end, one step of one row per token fed back, so a decode's time
    follows the tokens it emits.  Every step of the call reads the weights
    converted once per call.  numpy's floating-point warnings are off: the
    check on each step's logits reports a non-finite value instead.
    """
    if max_new < 1:
        raise ValueError("max_new must be >= 1")
    dec, eos = sys.decoder, sys.decoder.vocab.eos_id
    s_lens = _speech_lens(speech, speech_lens, len(prompt)).tolist()
    s_starts = np.cumsum([0] + s_lens).tolist()
    weights = _fixed_weights(dec)
    hyps: list[TokenSeq] = []
    for b, p in enumerate(prompt):
        budget = min(max_new, dec.cfg.max_len - s_lens[b] - len(p))
        out = []
        if budget > 0:
            # the last token is never fed back
            cache = KVCache(dec.cfg, s_lens[b] + len(p) + budget - 1, weights)
            part = None if speech is None else tt.slice_rows(speech, s_starts[b], s_starts[b + 1])
            logits = dec.step(p, cache, part)
            while (token := int(np.argmax(tt._finite(logits, "the next-token logits")))) != eos:
                out.append(token)
                if len(out) == budget:
                    break
                logits = dec.step([token], cache)
            del cache  # freed before the next utterance's is built
        hyps.append(tuple(out))
    return hyps


# ---------------------------------------------------------------------------
# optimiser


class Adam:
    """Plain Adam with linear warmup into cosine decay.

    The optimiser owns one flat buffer each for the values, gradients and
    both moments of its parameters: each parameter's `value` and `grad`
    are rebound as views into the first two, in order, so a step or a
    `zero_grad` is a few numpy calls over all of them.  The parameters
    must share one dtype.
    """

    def __init__(self, params: Sequence[tt.Parameter], lr: float, total_steps: int,
                 warmup: int = 0, betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8):
        self.params = list(params)
        dtypes = {p.value.dtype for p in self.params}
        if len(dtypes) > 1:
            raise ValueError(f"Adam needs parameters of one dtype, got {sorted(map(str, dtypes))}")
        self.base_lr = lr
        self.total = max(total_steps, 1)
        self.warmup = warmup
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        sizes = [p.value.size for p in self.params]
        stops = np.cumsum(sizes).tolist()
        self._spans = list(zip([0] + stops[:-1], stops))
        (dtype,) = dtypes or {tt._DTYPE}
        self._value, self._grad = np.empty(sum(sizes), dtype), np.empty(sum(sizes), dtype)
        for p, (a, b) in zip(self.params, self._spans):
            self._value[a:b], self._grad[a:b] = p.value.reshape(-1), p.grad.reshape(-1)
            p.value = self._value[a:b].reshape(p.value.shape)
            p.grad = self._grad[a:b].reshape(p.grad.shape)
        self._m = np.zeros_like(self._value)
        self._v = np.zeros_like(self._value)

    def lr_at(self, t: int) -> float:
        if self.base_lr == 0.0:
            return 0.0
        if self.warmup > 0 and t <= self.warmup:
            return self.base_lr * t / self.warmup
        span = max(self.total - self.warmup, 1)
        frac = min(max(t - self.warmup, 0) / span, 1.0)
        return self.base_lr * 0.5 * (1.0 + math.cos(math.pi * frac))

    def zero_grad(self):
        self._grad[...] = 0.0

    def _finite(self, flat: np.ndarray, what: str) -> None:
        """Raise NonFiniteError naming the first parameter whose part of
        `flat` holds NaN/Inf."""
        if not np.isfinite(flat).all():
            for p, (a, b) in zip(self.params, self._spans):
                tt._finite(flat[a:b], f"{what} of {p.name!r}")

    def step(self):
        """Update every parameter or none: a non-finite gradient or new value
        raises NonFiniteError before any parameter or moment is written."""
        g = self._grad
        self._finite(g, "the gradient")
        t = self.t + 1
        lr = self.lr_at(t)
        if lr == 0.0:
            self.t = t
            return
        c1 = 1.0 - self.b1 ** t
        c2 = 1.0 - self.b2 ** t
        m = self._m * self.b1
        m += (1.0 - self.b1) * g
        v = self._v * self.b2
        v += (1.0 - self.b2) * g * g
        value = self._value - (lr * (m / c1) / (np.sqrt(v / c2) + self.eps)).astype(g.dtype)
        self._finite(value, "the Adam update")
        self.t, self._m, self._v = t, m, v
        self._value[...] = value


# ---------------------------------------------------------------------------
# training loops


@dataclass
class TrainLog:
    rows: list[dict] = field(default_factory=list)
    skipped: int = 0
    final_step: int = 0
    initial_dev_loss: float = float("nan")
    final_dev_loss: float = float("nan")

    def to_csv(self) -> str:
        lines = ["step,lr,train_loss,dev_loss"]
        for r in self.rows:
            dev = "" if r.get("dev_loss") is None else f"{r['dev_loss']:.6f}"
            lines.append(f"{r['step']},{r['lr']:.8f},{r['train_loss']:.6f},{dev}")
        return "\n".join(lines) + "\n"


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _train(params: dict[str, tt.Parameter], train_set: Sequence[Utterance],
           dev_set: Sequence[Utterance], cfg: TrainConfig, stream: int,
           loss_of: Callable[..., tuple[Optional[tt.Tensor], int]],
           dev_loss: Callable[[Sequence[Utterance], Optional[tt.GradTape]], float],
           start_step: int = 0) -> TrainLog:
    """The step loop of both stages; deterministic per cfg.seed and `stream`.

    Each step draws a batch, masks each utterance's frames when cfg.augment
    is set, and records `loss_of(utts, frames, tape, drop_rng)` on one
    fresh tape, where `drop_rng` has one dropout stream per utterance.  It
    returns the batch's mean loss over the utterances that gave one and
    their count; an infeasible target gives none and is counted and
    skipped, and a batch with no loss at all is (None, 0).  One backward
    pass of that mean gives gradients averaged over those utterances.
    `dev_loss(subset, tape)` is a subset's mean loss, untaped except in a
    divergence replay.  A non-finite value in a step, or in the dev pass
    after it, raises TrainingDiverged for that step: the failed work is
    replayed on tapes that check every op, which names the op that first
    produced a non-finite value.  Batches, masks and dropout come from
    step-keyed rng children, so a replayed step recomputes its values
    exactly.  A dev pass draws none, but its replay runs on a checking
    tape, so its matmuls multiply in float32, not in the untaped pass's
    float64 (see `tensor`): it names the first op whose float32 output is
    non-finite.  numpy's floating-point warnings are off for the whole
    loop: those checks report a non-finite value instead.
    """
    if not train_set:
        raise ValueError("training set is empty")
    opt = Adam([params[n] for n in sorted(params)], cfg.lr, cfg.steps, cfg.warmup)
    opt.t = start_step
    root = CounterRng(cfg.seed, stream=stream)
    log = TrainLog(final_step=start_step)
    dev_probe = list(dev_set[: cfg.dev_subset])
    log.initial_dev_loss = dev_loss(dev_set, None)

    def accumulate(step: int, check_ops: bool) -> tuple[int, float]:
        """Gradients of `step`'s batch: (utterances with a loss, their mean loss)."""
        idx = root.child(f"batch{step}").integers(0, len(train_set), cfg.batch_size)
        utts = [train_set[int(i)] for i in idx]
        frames = [u.frames for u in utts]
        if cfg.augment is not None:
            frames = augment(frames, cfg.augment,
                             root.child(*(f"aug{step}.{j}" for j in range(len(frames)))))
        drop_rng = root.child(*(f"drop{step}.{j}" for j in range(len(utts))))
        opt.zero_grad()
        tape = tt.GradTape(check_ops)
        loss, n_ok = loss_of(utts, frames, tape, drop_rng)
        log.skipped += len(utts) - n_ok
        if loss is None:
            return 0, 0.0
        tape.backward(loss)
        return n_ok, loss.item()

    step = start_step - 1  # the last step taken
    try:
        for step in range(start_step, cfg.steps):
            replay = functools.partial(accumulate, step, True)
            n_ok, train_loss = accumulate(step, False)
            if n_ok:
                opt.step()
            log.final_step = step + 1
            if step % cfg.log_every == 0 or step == cfg.steps - 1:
                row = {"step": step, "lr": opt.lr_at(opt.t), "train_loss": train_loss,
                       "dev_loss": None}
                if cfg.eval_every and (step % cfg.eval_every == 0 or step == cfg.steps - 1):
                    replay = functools.partial(dev_loss, dev_probe, tt.GradTape(check_ops=True))
                    row["dev_loss"] = dev_loss(dev_probe, None)
                log.rows.append(row)
        replay = functools.partial(dev_loss, dev_set, tt.GradTape(check_ops=True))
        log.final_dev_loss = dev_loss(dev_set, None)
    except tt.NonFiniteError as e:
        err = e
        try:
            replay()
        except tt.NonFiniteError as at_op:
            err = at_op
        raise TrainingDiverged(step, str(err)) from e
    return log


def _chunks(dataset: Sequence[Utterance], size: int):
    return (dataset[i:i + size] for i in range(0, len(dataset), size))


def _ctc_losses(enc: SpeechEncoder, frames: Sequence[np.ndarray], targets: Sequence[TokenSeq],
               blank_id: int, tape=None, drop_rate: float = 0.0, drop_rng=None) -> CtcLoss:
    """The CTC loss of a batch, from one packed encoder pass over `frames`
    and one `ctc_loss` call over its logits."""
    _, logits = enc.forward(frames, tape=tape, drop_rate=drop_rate, drop_rng=drop_rng)
    return ctc_loss(logits, list(targets), blank_id, [enc.out_len(f.shape[0]) for f in frames])


def mean_ctc_loss(enc: SpeechEncoder, dataset: Sequence[Utterance],
                  blank_id: int, tape: Optional[tt.GradTape] = None,
                  batch_size: int = 8) -> float:
    """Mean CTC loss over the feasible utterances of `dataset`, in packed
    passes of `batch_size` utterances."""
    losses = [loss for chunk in _chunks(dataset, batch_size)
              for loss in _ctc_losses(enc, [u.frames for u in chunk],
                                      [u.source for u in chunk], blank_id, tape).losses
              if loss is not None]
    return sum(losses) / max(len(losses), 1)


def train_encoder_ctc(enc: SpeechEncoder, train_set: Sequence[Utterance],
                      dev_set: Sequence[Utterance], cfg: TrainConfig,
                      blank_id: int, start_step: int = 0) -> TrainLog:
    """CTC training; deterministic per cfg.seed.  Raises on divergence."""

    def loss_of(utts, frames, tape, drop_rng) -> tuple[Optional[tt.Tensor], int]:
        res = _ctc_losses(enc, frames, [u.source for u in utts], blank_id, tape,
                          cfg.dropout, drop_rng)
        n_ok = len(utts) - res.losses.count(None)
        return (res.loss if n_ok else None), n_ok

    return _train(enc.params, train_set, dev_set, cfg, 0x7E40, loss_of,
                  lambda subset, tape: mean_ctc_loss(enc, subset, blank_id, tape,
                                                     cfg.batch_size), start_step)


def adapt_decoder(sys: DecoderSystem, enc: SpeechEncoder, vocab: Vocabulary,
                  train_set: Sequence[Utterance], dev_set: Sequence[Utterance],
                  cfg: TrainConfig,
                  aec_cache: Optional[dict[str, NBestList]] = None) -> TrainLog:
    """Fine-tune the decoder side; the encoder is frozen (never taped).

    Raises ValueError before the first step if an utterance does not fit
    the decoder (`check_fits`)."""
    reads = sys.connection.reads
    if reads == "nbest" and aec_cache is None:
        raise ValueError(f"mode {sys.mode!r} needs an n-best cache for the dataset")
    check_system(sys, enc.cfg)
    check_fits(sys, vocab, list(train_set) + list(dev_set), aec_cache)
    # without augmentation the frozen encoder's outputs never change
    cache: dict[str, np.ndarray] = {}

    def readouts(utts, frames) -> Optional[list[np.ndarray]]:
        if reads == "nbest" or cfg.augment is not None:
            return encoder_readout(reads, enc, frames)
        todo = {u.id: f for u, f in zip(utts, frames) if u.id not in cache}
        if todo:
            cache.update(zip(todo, encoder_readout(reads, enc, list(todo.values()))))
        return [cache[u.id] for u in utts]

    def loss_of(utts, frames, tape, drop_rng) -> tuple[tt.Tensor, int]:
        """The mean over `utts` of each one's mean next-token cross-entropy,
        from one packed decoder pass."""
        examples = [teacher_forcing_example(
            sys, vocab, u.target, aec_cache.get(u.id) if aec_cache is not None else None)
            for u in utts]
        enc_outs = readouts(utts, frames)
        speech = conditioning(sys, enc, None, tape=tape, at_inference=False, enc_out=enc_outs)
        # dev passes come without a drop rng and run without dropout
        logits = sys.decoder.forward(
            speech, [text for text, _, _ in examples], tape=tape, drop_rng=drop_rng,
            drop_rate=cfg.dropout if drop_rng is not None else 0.0,
            speech_lens=None if speech is None else [len(e) for e in enc_outs])
        # an utterance's rows weigh 1 / its count, so the weights sum to len(utts)
        weights = np.concatenate([mask / mask.sum() for _, _, mask in examples])
        targets = np.concatenate([y for _, y, _ in examples])
        return tt.cross_entropy(logits, targets, weights), len(utts)

    def dev_loss(subset: Sequence[Utterance], tape) -> float:
        total = sum(loss_of(chunk, [u.frames for u in chunk], tape, None)[0].item() * len(chunk)
                    for chunk in _chunks(subset, cfg.batch_size))
        return total / max(len(subset), 1)

    return _train({**sys.decoder.params, **sys.extra}, train_set, dev_set, cfg, 0xADA7,
                  loss_of, dev_loss)


# ---------------------------------------------------------------------------
# evaluation


def evaluate_system(sys: DecoderSystem, enc: SpeechEncoder, vocab: Vocabulary,
                    dataset: Sequence[Utterance], max_new: int = 48,
                    aec_cache: Optional[dict[str, NBestList]] = None,
                    enc_out: Optional[list[np.ndarray]] = None) -> WerReport:
    """Corpus WER of the system's greedy transcripts: one packed encoder and
    prefix pass over the dataset (or its `encoder_readout` passed as
    `enc_out`), then one batched `generate`."""
    frames = [utt.frames for utt in dataset]
    speech = conditioning(sys, enc, frames, enc_out=enc_out)
    prompts = [prompt_ids(sys, vocab, aec_cache.get(utt.id) if aec_cache is not None else None)
               for utt in dataset]
    hyps = generate(sys, speech, prompts, max_new=max_new,
                    speech_lens=None if speech is None else [enc.out_len(f.shape[0])
                                                             for f in frames])
    return corpus_wer([utt.target for utt in dataset], hyps)
