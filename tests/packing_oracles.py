"""The one-utterance passes and training step that packed batches replaced.

`encoder_forward` and `decoder_forward` are `SpeechEncoder.forward` and
`DecoderLM.forward` as they were before a pass could hold a batch: one
utterance, a stride-2 convolution over `[0; x; 0]`, and a decoder sequence
of one `[speech; text]`.  `train` is `models._train` from then: one tape
and one backward per utterance, the gradients summed into the parameters
and divided by the number of utterances that gave a loss.  Its front ends
`train_encoder_ctc` and `adapt_decoder` are the old ones, calling these
passes, and read the frozen encoder one utterance at a time.
`posteriorgram` is `cli._posteriorgram`, which decoding with the encoder
alone called once per utterance before its passes were packed; it gives
the utterance's [T, V+1] probability rows.
`conv_rows` is the per-segment loop with which the packed
`SpeechEncoder._conv` built its gather rows before it built them for all
segments at once.

The blocks are `models._mix_block` without a segment table, which the
per-head oracle in `block_oracles` covers.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional, Sequence

import numpy as np

from ctcbridge import tensor as tt
from ctcbridge.models import (Adam, TrainingDiverged, TrainLog, _mix_block, _w, check_system,
                              teacher_forcing_example)
from ctcbridge.rng import CounterRng
from ctc_oracles import fused_ctc_loss
from utterance_oracles import augment


def conv_rows(lengths: Sequence[int]) -> np.ndarray:
    """The rows of `[0; x]` under every width-3, stride-2 window of each
    segment of `lengths` rows of x, zero-padded at both of its ends."""
    rows, start = [], 0
    for t in lengths:
        # rows of [0; segment; 0] under each window, 0 for the padding
        taps = np.arange((t + 1) // 2)[:, None] * 2 + np.arange(3)
        rows.append(np.where((taps == 0) | (taps > t), 0, taps + start))
        start += t
    return np.concatenate(rows).reshape(-1)


def _conv(enc, x: tt.Tensor, prefix: str, tape) -> tt.Tensor:
    t, c = x.shape
    zero = tt.Tensor(np.zeros((1, c), dtype=np.float32))
    padded = tt.concat_rows([zero, x, zero])
    t_out = (t + 2 - 3) // 2 + 1  # == ceil(t / 2)
    rows = (np.arange(t_out)[:, None] * 2 + np.arange(3)[None, :]).reshape(-1)
    windows = tt.reshape(tt.gather_rows(padded, rows), (t_out, 3 * c))
    y = tt.add(tt.matmul(windows, _w(enc.params, f"{prefix}.w", tape)),
               _w(enc.params, f"{prefix}.b", tape))
    return tt.relu(y)


def encoder_forward(enc, frames: np.ndarray, tape=None, drop_rate: float = 0.0,
                    drop_rng=None) -> tuple[tt.Tensor, tt.Tensor]:
    """Returns (hidden [T', width], logits [T', V+1]); T' = ceil(T/4)."""
    if frames.shape[0] < enc.SUBSAMPLE:
        raise ValueError(f"need at least {enc.SUBSAMPLE} input frames, got {frames.shape[0]}")
    if frames.shape[1] != enc.cfg.feat_dim:
        raise ValueError("feature dimension mismatch")
    x = _conv(enc, tt.Tensor(frames), "conv1", tape)
    x = _conv(enc, x, "conv2", tape)
    for i in range(enc.cfg.blocks):
        x = _mix_block(x, enc.params, f"blk{i}", tape, causal=False,
                       drop_rate=drop_rate, drop_rng=drop_rng, heads=1)
    hidden = tt.layer_norm(x, _w(enc.params, "lnog", tape), _w(enc.params, "lnob", tape))
    logits = tt.matmul(hidden, _w(enc.params, "out.w", tape))
    return hidden, logits


def decoder_forward(dec, speech: Optional[tt.Tensor], text_ids: Sequence[int],
                    tape=None, drop_rate: float = 0.0, drop_rng=None) -> tt.Tensor:
    """Next-token logits over V for every text position."""
    ids = np.asarray(text_ids, dtype=np.intp)
    if ids.size == 0:
        raise ValueError("text must be non-empty")
    if ids[0] != dec.vocab.bos_id:
        raise ValueError("text must begin with <bos>")
    if ids.max() >= dec.cfg.vocab or ids.min() < 0:
        raise ValueError("text id outside [0, V)")
    s = 0 if speech is None else speech.shape[0]
    total = s + ids.size
    if total > dec.cfg.max_len:
        raise ValueError(f"sequence length {total} exceeds max_len {dec.cfg.max_len}")

    emb = dec.embedding(tape)
    text_emb = tt.gather_rows(emb, ids)
    seq = text_emb if speech is None else tt.concat_rows([speech, text_emb])
    pos = tt.slice_rows(_w(dec.params, "pos", tape), 0, total)
    x = tt.add(seq, pos)
    for i in range(dec.cfg.blocks):
        x = _mix_block(x, dec.params, f"blk{i}", tape, causal=True,
                       drop_rate=drop_rate, drop_rng=drop_rng, heads=dec.cfg.heads)
    h = tt.layer_norm(x, _w(dec.params, "lnfg", tape), _w(dec.params, "lnfb", tape))
    h_text = tt.slice_rows(h, s, total)
    if dec.cfg.tie_output:
        out_w = tt.transpose(tt.slice_rows(emb, 0, dec.cfg.vocab))
    else:
        out_w = _w(dec.params, "out.w", tape)
    return tt.matmul(h_text, out_w)


def encoder_readout(reads: str, enc, frames: np.ndarray) -> Optional[np.ndarray]:
    if reads == "nbest":
        return None
    hidden, logits = encoder_forward(enc, frames)
    return hidden.data if reads == "hidden" else logits.data


def posteriorgram(enc, utt) -> np.ndarray:
    probs = tt.softmax(encoder_forward(enc, utt.frames)[1]).data
    return tt._finite(probs, "the posteriorgram")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train(params, train_set, dev_set, cfg, stream: int,
          loss_of: Callable[..., Optional[tt.Tensor]], dev_loss, start_step: int = 0) -> TrainLog:
    """The step loop with one tape and one backward per utterance."""
    if not train_set:
        raise ValueError("training set is empty")
    opt = Adam([params[n] for n in sorted(params)], cfg.lr, cfg.steps, cfg.warmup)
    opt.t = start_step
    root = CounterRng(cfg.seed, stream=stream)
    log = TrainLog(final_step=start_step)
    dev_probe = list(dev_set[: cfg.dev_subset])
    log.initial_dev_loss = dev_loss(dev_set, None)

    def accumulate(step: int, check_ops: bool) -> tuple[int, float]:
        """Gradients of `step`'s batch: (utterances with a loss, loss sum)."""
        idx = root.child(f"batch{step}").integers(0, len(train_set), cfg.batch_size)
        opt.zero_grad()
        n_ok, loss_sum = 0, 0.0
        for j, i in enumerate(idx):
            utt = train_set[int(i)]
            frames = utt.frames
            if cfg.augment is not None:
                frames = augment(frames, cfg.augment, root.child(f"aug{step}.{j}"))
            tape = tt.GradTape(check_ops)
            loss = loss_of(utt, frames, tape, root.child(f"drop{step}.{j}"))
            if loss is None:
                log.skipped += 1
                continue
            tape.backward(loss)
            n_ok += 1
            loss_sum += loss.item()
        return n_ok, loss_sum

    step = start_step - 1  # the last step taken
    try:
        for step in range(start_step, cfg.steps):
            replay = functools.partial(accumulate, step, True)
            n_ok, loss_sum = accumulate(step, False)
            if n_ok:
                inv = 1.0 / n_ok
                for p in opt.params:
                    p.grad *= inv
                opt.step()
            log.final_step = step + 1
            if step % cfg.log_every == 0 or step == cfg.steps - 1:
                row = {"step": step, "lr": opt.lr_at(opt.t),
                       "train_loss": loss_sum / max(n_ok, 1), "dev_loss": None}
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


def mean_ctc_loss(enc, dataset, blank_id: int, tape=None) -> float:
    total, count = 0.0, 0
    for utt in dataset:
        res = fused_ctc_loss(encoder_forward(enc, utt.frames, tape=tape)[1], utt.source, blank_id)
        if res.feasible:
            total += res.loss.item()
            count += 1
    return total / max(count, 1)


def train_encoder_ctc(enc, train_set, dev_set, cfg, blank_id: int,
                      start_step: int = 0) -> TrainLog:

    def loss_of(utt, frames: np.ndarray, tape, drop_rng) -> Optional[tt.Tensor]:
        _, logits = encoder_forward(enc, frames, tape=tape, drop_rate=cfg.dropout,
                                    drop_rng=drop_rng)
        res = fused_ctc_loss(logits, utt.source, blank_id)
        return res.loss if res.feasible else None

    return train(enc.params, train_set, dev_set, cfg, 0x7E40, loss_of,
                 lambda subset, tape: mean_ctc_loss(enc, subset, blank_id, tape), start_step)


def adapt_decoder(sys, enc, vocab, train_set, dev_set, cfg, aec_cache=None) -> TrainLog:
    if sys.connection.reads == "nbest" and aec_cache is None:
        raise ValueError(f"mode {sys.mode!r} needs an n-best cache for the dataset")
    check_system(sys, enc.cfg)
    # without augmentation the frozen encoder's outputs never change
    enc_outs: dict[str, Optional[np.ndarray]] = {}

    def loss_of(utt, frames: np.ndarray, tape, drop_rng) -> tt.Tensor:
        enc_out = None
        if cfg.augment is None:
            if utt.id not in enc_outs:
                enc_outs[utt.id] = encoder_readout(sys.connection.reads, enc, frames)
            enc_out = enc_outs[utt.id]
        else:
            enc_out = encoder_readout(sys.connection.reads, enc, frames)
        speech = sys.connection.prefix(sys, enc_out, tape, False)
        nbest = aec_cache.get(utt.id) if aec_cache is not None else None
        text, targets, mask = teacher_forcing_example(sys, vocab, utt.target, nbest)
        # dev passes come without a drop rng and run without dropout
        logits = decoder_forward(sys.decoder, speech, text, tape=tape, drop_rng=drop_rng,
                                 drop_rate=cfg.dropout if drop_rng is not None else 0.0)
        return tt.cross_entropy(logits, targets, mask)

    def dev_loss(subset, tape) -> float:
        return sum(loss_of(u, u.frames, tape, None).item() for u in subset) / max(len(subset), 1)

    return train({**sys.decoder.params, **sys.extra}, train_set, dev_set, cfg, 0xADA7,
                 loss_of, dev_loss)
