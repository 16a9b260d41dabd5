"""The per-utterance sampler and masking that the many-stream passes replaced.

`sample_utterance` and `make_splits` are `synthdata`'s split sampler as it
was before a split was drawn in chunks: one utterance per call, each draw
from its own `CounterRng` child, and one `searchsorted` per token of the
walk.  `augment` is the masking of one utterance, which `models._train`
called once per utterance of a batch.  `synthdata.make_splits` and the
batched `synthdata.augment` must give the same bytes
(`tests/test_synthdata.py`).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ctcbridge.rng import CounterRng
from ctcbridge.synthdata import SPLITS, MaskConfig, TaskSpec, Utterance, translate_target


def sample_utterance(spec: TaskSpec, utt_id: str, rng: CounterRng,
                     translation: Optional[dict[int, int]] = None) -> Utterance:
    lmin, lmax = spec.length_range
    dmin, dmax = spec.duration_range
    length = int(rng.child("len").integers(lmin, lmax + 1, 1)[0])

    # one uniform per token, each looked up in the CDF row of its predecessor
    walk = rng.child("walk").uniforms(length)
    init_cdf, row_cdfs = spec.walk_cdfs
    toks = [int(init_cdf.searchsorted(walk[0], side="right"))]
    for u in walk[1:]:
        toks.append(int(row_cdfs[toks[-1]].searchsorted(u, side="right")))
    source = tuple(toks)

    durs = rng.child("dur").integers(dmin, dmax + 1, length)
    flips = rng.child("conf").uniforms(length) < spec.confusion_prob
    rendered = [
        spec.confusion.get(tok, tok) if flip and tok in spec.confusion else tok
        for tok, flip in zip(source, flips)
    ]

    protos = spec.prototypes
    total = int(durs.sum())
    frames = np.repeat(protos[rendered], durs, axis=0)
    if spec.noise_sigma > 0:
        noise = rng.child("noise").normals(total * spec.feat_dim)
        frames = frames + spec.noise_sigma * noise.reshape(total, spec.feat_dim).astype(np.float32)
    target = translate_target(source, translation) if translation else source
    return Utterance(utt_id, frames.astype(np.float32), source, target)


def make_splits(spec: TaskSpec, n_train: int, n_dev: int, n_test: int, seed: int,
                translation: Optional[dict[int, int]] = None,
                names: Sequence[str] = SPLITS) -> tuple[list[Utterance], ...]:
    sizes = dict(zip(SPLITS, (n_train, n_dev, n_test)))
    root = CounterRng(seed, stream=0xDA7A)
    out = []
    for split in names:
        split_rng = root.child(split)
        out.append([
            sample_utterance(
                spec, f"s{seed}-{split}-{i:05d}", split_rng.child(i), translation
            )
            for i in range(sizes[split])
        ])
    return tuple(out)


def augment(frames: np.ndarray, cfg: Optional[MaskConfig], rng: CounterRng) -> np.ndarray:
    """Zero out masked spans/bands; returns a copy, training-time only."""
    if cfg is None:
        return frames
    t, f = frames.shape
    out = frames.copy()
    max_span = int(cfg.time_ratio * t)
    for m in range(cfg.time_masks):
        mrng = rng.child(f"t{m}")
        span = int(mrng.integers(0, max_span + 1, 1)[0])
        if span == 0:
            continue
        start = int(mrng.integers(0, t - span + 1, 1)[0])
        out[start:start + span, :] = 0.0
    for m in range(cfg.freq_masks):
        mrng = rng.child(f"f{m}")
        width = int(mrng.integers(0, min(cfg.freq_width, f) + 1, 1)[0])
        if width == 0:
            continue
        start = int(mrng.integers(0, f - width + 1, 1)[0])
        out[:, start:start + width] = 0.0
    return out
