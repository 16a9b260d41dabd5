"""Deterministic synthetic spoken-language task.

Token sequences come from a sparse Markov chain over the content part of
the vocabulary; each token renders as a per-token prototype vector
repeated for a sampled duration, plus Gaussian frame noise.  With
probability `confusion_prob` a token renders as its paired partner's
prototype instead -- the chain is built so the two members of a pair never
share a likely predecessor, which is what leaves context-driven headroom
above a purely acoustic decoder.

Everything is a pure function of (spec, seed) through the counter-based
generator, so "regenerate" and "reload" are the same operation.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .lexicon import TokenSeq, Vocabulary
from .rng import CounterRng

SPECIALS = ("<sep>", "<bos>", "<eos>", "<tsk>")
SPLITS = ("train", "dev", "test")


@dataclass(frozen=True)
class MaskConfig:
    """Training-time masking: zero out short time spans and feature bands."""

    time_masks: int = 2
    time_ratio: float = 0.1  # max span length as a fraction of T, per mask
    freq_masks: int = 1
    freq_width: int = 3

    def __post_init__(self):
        if not 0.0 <= self.time_ratio <= 1.0:
            raise ValueError("time_ratio must lie in [0, 1]")
        if self.time_masks < 0 or self.freq_masks < 0 or self.freq_width < 0:
            raise ValueError("mask counts/widths must be non-negative")


@dataclass(frozen=True)
class TaskSpec:
    vocab: Vocabulary
    feat_dim: int
    transition: np.ndarray  # [V, V] row-stochastic; content rows avoid specials
    init_probs: np.ndarray  # [V]
    length_range: tuple[int, int]
    duration_range: tuple[int, int]
    noise_sigma: float
    confusion: dict[int, int]  # token -> partner (symmetric)
    confusion_prob: float
    prototype_seed: int
    name: str = "task"

    def __post_init__(self):
        v = self.vocab.size
        if self.transition.shape != (v, v):
            raise ValueError("transition matrix must be [V, V]")
        if not np.allclose(self.transition.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("transition rows must sum to 1")
        if self.duration_range[0] < 4:
            raise ValueError("minimum duration must be >= 4 (subsampling factor)")
        if not 0.0 <= self.confusion_prob < 0.5:
            raise ValueError("confusion probability must lie in [0, 0.5)")
        for a, b in self.confusion.items():
            if self.confusion.get(b) != a:
                raise ValueError("confusion pairs must be symmetric")

    # Derived tables are computed once per spec and kept read-only; a
    # frozen dataclass lets `cached_property` store them on the instance.

    @cached_property
    def prototypes(self) -> np.ndarray:
        """[V, F] float32 rendering of each token."""
        rng = CounterRng(self.prototype_seed, stream=0x9070)
        protos = rng.normals(self.vocab.size * self.feat_dim)
        return _read_only(protos.reshape(self.vocab.size, self.feat_dim).astype(np.float32))

    @cached_property
    def walk_cdfs(self) -> tuple[np.ndarray, np.ndarray]:
        """CDFs of the first token and of each transition row, last entry 1."""
        init = np.cumsum(np.asarray(self.init_probs, dtype=np.float64))
        init[-1] = 1.0
        rows = np.cumsum(np.asarray(self.transition, dtype=np.float64), axis=1)
        rows[:, -1] = 1.0
        return _read_only(init), _read_only(rows)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Utterance:
    id: str
    frames: np.ndarray  # [T, F] float32
    source: TokenSeq
    target: TokenSeq

    def __post_init__(self):
        if self.frames.ndim != 2:
            raise ValueError("frames must be [T, F]")


def build_vocabulary(size: int) -> Vocabulary:
    """Content tokens first, the four specials at the top end."""
    if size < len(SPECIALS) + 2:
        raise ValueError(f"vocabulary needs at least {len(SPECIALS) + 2} tokens")
    n_content = size - len(SPECIALS)
    tokens = tuple(f"w{i:02d}" for i in range(n_content)) + SPECIALS
    return Vocabulary(tokens, sep_id=n_content, bos_id=n_content + 1, eos_id=n_content + 2)


def prompt_token_id(vocab: Vocabulary) -> int:
    return vocab.tokens.index("<tsk>")


def content_ids(vocab: Vocabulary) -> tuple[int, ...]:
    reserved = {vocab.sep_id, vocab.bos_id, vocab.eos_id, prompt_token_id(vocab)}
    return tuple(i for i in range(vocab.size) if i not in reserved)


def build_chain(vocab: Vocabulary, seed: int, successors: int = 4,
                weights: tuple[float, ...] = (0.45, 0.3, 0.15, 0.1),
                smoothing: float = 0.01) -> tuple[np.ndarray, np.ndarray, dict[int, int]]:
    """Sparse transition structure plus confusion pairing.

    Each content token gets `successors` likely followers with the given
    weights; the leftover `smoothing` mass spreads over the remaining
    content tokens (never self).  Members of a confusion pair are kept out
    of each other's successor sets so a bigram reader can tell them apart.
    """
    if len(weights) != successors or abs(sum(weights) - 1.0) > 1e-9:
        raise ValueError("need one weight per successor, summing to 1")
    content = content_ids(vocab)
    pairs = {}
    for i in range(0, len(content) - 1, 2):
        a, b = content[i], content[i + 1]
        pairs[a] = b
        pairs[b] = a

    v = vocab.size
    rng = CounterRng(seed, stream=0xC4A1)
    trans = np.zeros((v, v), dtype=np.float64)
    content_set = set(content)
    for tok in range(v):
        if tok not in content_set:
            # specials are never visited; keep their rows stochastic anyway
            trans[tok, list(content)] = 1.0 / len(content)
            continue
        candidates = [c for c in content if c != tok]
        order = rng.child(f"row{tok}").uniforms(len(candidates))
        ranked = [c for _, c in sorted(zip(order, candidates))]
        chosen: list[int] = []
        for c in ranked:
            partner = pairs.get(c)
            if partner is not None and partner in chosen:
                continue
            chosen.append(c)
            if len(chosen) == successors:
                break
        rest = [c for c in candidates if c not in chosen]
        for c, w in zip(chosen, weights):
            trans[tok, c] = w * (1.0 - smoothing)
        if rest:
            trans[tok, rest] = smoothing / len(rest)
        else:
            trans[tok, chosen] += smoothing / len(chosen)
        trans[tok] /= trans[tok].sum()

    init = np.zeros(v, dtype=np.float64)
    init[list(content)] = 1.0 / len(content)
    return trans, init, pairs


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
    """Disjoint utterance lists from sub-seeded streams, one per entry of
    `names`, in that order.  Each split has its own stream, so a split is
    the same whichever others are built with it."""
    if min(n_train, n_dev, n_test) < 1:
        raise ValueError("every split needs at least one utterance")
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


def build_translation(vocab: Vocabulary, seed: int) -> dict[int, int]:
    """Bijection on [0, V): a permutation of content tokens, identity elsewhere."""
    content = list(content_ids(vocab))
    order = CounterRng(seed, stream=0x7A6E).uniforms(len(content))
    shuffled = [c for _, c in sorted(zip(order, content))]
    mapping = {i: i for i in range(vocab.size)}
    for src, dst in zip(content, shuffled):
        mapping[src] = dst
    return mapping


def translate_target(source: TokenSeq, mapping: dict[int, int]) -> TokenSeq:
    """Map every token, then swap adjacent pairs (odd tail stays in place)."""
    mapped = [mapping[t] for t in source]
    for i in range(0, len(mapped) - 1, 2):
        mapped[i], mapped[i + 1] = mapped[i + 1], mapped[i]
    return tuple(mapped)


# --- materialised form ------------------------------------------------------


def utterance_to_json(u: Utterance) -> str:
    return json.dumps(
        {"id": u.id,
         "src": list(u.source),
         "tgt": list(u.target),
         "frames_b64": base64.b64encode(u.frames.astype("<f4").tobytes()).decode("ascii"),
         "T": int(u.frames.shape[0]),
         "F": int(u.frames.shape[1])},
        sort_keys=True,
    )


def utterance_from_json(line: str) -> Utterance:
    d = json.loads(line)
    raw = base64.b64decode(d["frames_b64"])
    frames = np.frombuffer(raw, dtype="<f4").reshape(d["T"], d["F"]).astype(np.float32)
    if not np.isfinite(frames).all():
        raise ValueError("frames hold non-finite values")
    return Utterance(d["id"], frames, tuple(d["src"]), tuple(d["tgt"]))
