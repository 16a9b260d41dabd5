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

Utterance i of a split draws from its own stream, the split stream's
`child(i)`, so it does not depend on how the split is sampled.
`make_splits` samples a split in chunks of at most `SPLIT_CHUNK`
utterances, one many-stream pass per chunk from a `CounterRng` with one
stream per utterance: lengths, walks, durations, flips and frame noise of
all the chunk's utterances together, and the walks advance one token
position at a time across them.  `augment` draws the masks of a whole
batch in one pass.  Each utterance and each mask equals, byte for byte,
what drawing from its own stream alone gives; the per-utterance forms are
kept as test oracles.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .lexicon import TokenSeq, Vocabulary
from .rng import CounterRng, integers_from

SPECIALS = ("<sep>", "<bos>", "<eos>", "<tsk>")
SPLITS = ("train", "dev", "test")
# utterances per vectorised sampling pass: a pass's temporaries grow with
# its frames, so whole splits in one pass would raise peak memory
SPLIT_CHUNK = 16


@dataclass(frozen=True)
class MaskConfig:
    """Training-time masking: zero out short time spans and feature bands."""

    time_masks: int = 2
    time_ratio: float = 0.1  # max span length as a fraction of T, per mask
    freq_masks: int = 1
    freq_width: int = 3

    def __post_init__(self):
        for name in ("time_masks", "freq_masks", "freq_width"):
            value = getattr(self, name)
            if type(value) is not int or value < 0:
                raise ValueError(f"{name} must be an int >= 0, got {value!r}")
        if not _is_number(self.time_ratio) or not 0.0 <= self.time_ratio <= 1.0:
            raise ValueError(f"time_ratio must be a number in [0, 1], got {self.time_ratio!r}")


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
        if self.transition.shape != (v, v) or self.init_probs.shape != (v,):
            raise ValueError("transition matrix must be [V, V] and init probabilities [V]")
        if not np.allclose(self.transition.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("transition rows must sum to 1")
        if not np.isclose(self.init_probs.sum(), 1.0, atol=1e-9):
            raise ValueError("init probabilities must sum to 1")
        if (self.transition < 0).any() or not (self.init_probs >= 0).all():
            raise ValueError("probabilities must be >= 0")
        if type(self.feat_dim) is not int or self.feat_dim < 1:
            raise ValueError(f"feat_dim must be an int >= 1, got {self.feat_dim!r}")
        for name in ("length_range", "duration_range"):
            lo_hi = getattr(self, name)
            if (len(lo_hi) != 2 or any(type(b) is not int for b in lo_hi)
                    or not 1 <= lo_hi[0] <= lo_hi[1]):
                raise ValueError(f"{name} must be two ints with 1 <= lo <= hi, got {lo_hi!r}")
        if not _is_number(self.noise_sigma) or not 0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma!r}")
        if self.duration_range[0] < 4:
            raise ValueError("minimum duration must be >= 4 (subsampling factor)")
        if not 0.0 <= self.confusion_prob < 0.5:
            raise ValueError("confusion probability must lie in [0, 0.5)")
        for a, b in self.confusion.items():
            if self.confusion.get(b) != a:
                raise ValueError("confusion pairs must be symmetric")
            if not 0 <= a < v:
                raise ValueError(f"confusion pairs must be tokens in [0, {v}), got {a}")

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

    @cached_property
    def partners(self) -> np.ndarray:
        """[V] each token's confusion partner, itself if it has none."""
        table = np.arange(self.vocab.size)
        table[list(self.confusion)] = list(self.confusion.values())
        return _read_only(table)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


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
        utts: list[Utterance] = []
        for start in range(0, sizes[split], SPLIT_CHUNK):
            idx = range(start, min(start + SPLIT_CHUNK, sizes[split]))
            utts += _sample_chunk(spec, [f"s{seed}-{split}-{i:05d}" for i in idx],
                                  split_rng.child(*idx), translation)
        out.append(utts)
    return tuple(out)


def _sample_chunk(spec: TaskSpec, ids: Sequence[str], streams: CounterRng,
                  translation: Optional[dict[int, int]]) -> list[Utterance]:
    """One utterance per stream, each drawn from its stream's children
    "len", "walk", "dur", "conf" and "noise", all utterances in one pass."""
    lmin, lmax = spec.length_range
    dmin, dmax = spec.duration_range
    lengths = streams.child("len").integers(lmin, lmax + 1, 1)
    starts = np.cumsum(lengths) - lengths
    # one uniform per token from each of "walk", "dur" and "conf"
    per_token = streams.child("walk", "dur", "conf").uniforms(np.concatenate([lengths] * 3))
    walk, durs, flips = per_token.reshape(3, -1)
    durs = integers_from(durs, dmin, dmax + 1)
    flips = flips < spec.confusion_prob

    # each walk uniform is looked up in the CDF row of its predecessor; the
    # walks of all utterances advance one position at a time, and counting
    # a row's entries <= u is searchsorted(side="right")
    init_cdf, row_cdfs = spec.walk_cdfs
    toks = np.empty(len(walk), dtype=np.int64)
    toks[starts] = init_cdf.searchsorted(walk[starts], side="right")
    for pos in range(1, int(lengths.max())):
        at = starts[lengths > pos] + pos
        toks[at] = (row_cdfs[toks[at - 1]] <= walk[at, None]).sum(axis=1)
    rendered = np.where(flips, spec.partners[toks], toks)

    frame_ends = np.cumsum(durs)[starts + lengths - 1]
    frames = np.repeat(spec.prototypes[rendered], durs, axis=0)
    if spec.noise_sigma > 0:
        counts = np.diff(frame_ends, prepend=0) * spec.feat_dim
        noise = streams.child("noise").normals(counts)
        frames = frames + spec.noise_sigma * noise.reshape(-1, spec.feat_dim).astype(np.float32)
    toks, bounds = toks.tolist(), [0, *frame_ends.tolist()]
    out = []
    for j, (utt_id, s, n) in enumerate(zip(ids, starts.tolist(), lengths.tolist())):
        source = tuple(toks[s:s + n])
        target = translate_target(source, translation) if translation else source
        out.append(Utterance(utt_id, frames[bounds[j]:bounds[j + 1]], source, target))
    return out


def augment(frames: Sequence[np.ndarray], cfg: Optional[MaskConfig],
            rng: CounterRng) -> list[np.ndarray]:
    """A batch's frames with masked spans and bands zeroed, training-time
    only: copies, masked from stream j of `rng` (one stream per utterance)
    for utterance j, all masks of the batch in one draw (without cfg, the
    frames as given).

    Mask m of an utterance draws two words from the utterance's child
    `t{m}` (time) or `f{m}` (feature): a span or width, then its start.
    """
    if cfg is None:
        return list(frames)
    tm = cfg.time_masks
    tags = [f"t{m}" for m in range(tm)] + [f"f{m}" for m in range(cfg.freq_masks)]
    u = rng.child(*tags).uniforms(2).reshape(len(tags), len(frames), 2)
    t = np.array([x.shape[0] for x in frames])
    f = np.array([x.shape[1] for x in frames])
    span = integers_from(u[:tm, :, 0], 0, (cfg.time_ratio * t).astype(np.int64) + 1)
    row0 = integers_from(u[:tm, :, 1], 0, t - span + 1)
    width = integers_from(u[tm:, :, 0], 0, np.minimum(cfg.freq_width, f) + 1)
    col0 = integers_from(u[tm:, :, 1], 0, f - width + 1)

    def hit(first, size, extent):  # [utterance, index]: inside some mask
        idx = np.arange(extent)[None, None, :]
        return ((idx >= first[..., None]) & (idx < (first + size)[..., None])).any(axis=0)

    rows, cols = hit(row0, span, t.max()), hit(col0, width, f.max())
    out = []
    for j, x in enumerate(frames):
        x = x.copy()
        x[rows[j, :t[j]]] = 0.0
        x[:, cols[j, :f[j]]] = 0.0
        out.append(x)
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
