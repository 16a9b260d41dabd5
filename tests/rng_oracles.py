"""The generator's and the walk's numpy per-draw forms, as test oracles.

`CounterRng` here does its key arithmetic on 0-d uint64 arrays inside
`np.errstate`, and `sample_utterance` draws one `categorical` per token
and renders from `prototypes(spec)` computed per call.  The package's
generator and sampler must give the same keys, words, frames and tokens
bit for bit (`tests/test_synthdata.py`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ctcbridge.synthdata import TaskSpec, Utterance, translate_target

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)

_U64 = np.uint64
_TWO53_INV = 1.0 / float(1 << 53)


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser (Steele et al. constants); wraps mod 2**64."""
    with np.errstate(over="ignore"):
        x = (x ^ (x >> _U64(30))) * _MIX1
        x = (x ^ (x >> _U64(27))) * _MIX2
        return x ^ (x >> _U64(31))


def fnv1a64(text: str) -> int:
    """FNV-1a hash of a string, for deriving stable stream tags from names."""
    h = _FNV_OFFSET
    with np.errstate(over="ignore"):
        for b in text.encode("utf-8"):
            h = (h ^ _U64(b)) * _FNV_PRIME
    return int(h)


class CounterRng:
    """Splittable counter-based generator.

    Instances are cheap; derive one per independent purpose via `child`
    rather than sharing a stream across call sites.
    """

    def __init__(self, seed: int, stream: int = 0):
        with np.errstate(over="ignore"):
            key = _U64(seed & 0xFFFFFFFFFFFFFFFF) * _GOLDEN
            key = _mix64(np.asarray(key ^ (_U64(stream & 0xFFFFFFFFFFFFFFFF) * _MIX1)))
        self._key = _U64(key)
        self._counter = 0

    def child(self, tag: int | str) -> "CounterRng":
        """Independent stream derived from this key and `tag`."""
        if isinstance(tag, str):
            tag = fnv1a64(tag)
        t = _U64(tag & 0xFFFFFFFFFFFFFFFF)
        with np.errstate(over="ignore"):
            key = _mix64(np.asarray(self._key ^ _mix64(np.asarray(t + _GOLDEN))))
        out = CounterRng.__new__(CounterRng)
        out._key = _U64(key)
        out._counter = 0
        return out

    def raw(self, n: int) -> np.ndarray:
        """Next `n` uint64 words."""
        idx = np.arange(self._counter, self._counter + n, dtype=np.uint64)
        self._counter += n
        with np.errstate(over="ignore"):
            return _mix64(self._key + _GOLDEN * (idx + _U64(1)))

    def uniforms(self, n: int) -> np.ndarray:
        """float64 in [0, 1), 53-bit resolution."""
        return (self.raw(n) >> _U64(11)).astype(np.float64) * _TWO53_INV

    def normals(self, n: int) -> np.ndarray:
        """Standard normals via Box-Muller."""
        m = (n + 1) // 2
        # u1 in (0, 1] so log never sees zero
        u1 = ((self.raw(m) >> _U64(11)).astype(np.float64) + 1.0) * _TWO53_INV
        u2 = (self.raw(m) >> _U64(11)).astype(np.float64) * _TWO53_INV
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.empty(2 * m, dtype=np.float64)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def integers(self, lo: int, hi: int, n: int) -> np.ndarray:
        """Integers in [lo, hi), float-scaled (negligible bias at these ranges)."""
        if hi <= lo:
            raise ValueError(f"empty range [{lo}, {hi})")
        return lo + np.minimum(
            (self.uniforms(n) * (hi - lo)).astype(np.int64), hi - lo - 1
        )

    def categorical(self, probs: np.ndarray, n: int) -> np.ndarray:
        """Draws from a single discrete distribution."""
        cdf = np.cumsum(np.asarray(probs, dtype=np.float64))
        cdf[-1] = 1.0
        return np.searchsorted(cdf, self.uniforms(n), side="right").astype(np.int64)


# --- the per-token walk ----------------------------------------------------


def prototypes(spec: TaskSpec) -> np.ndarray:
    rng = CounterRng(spec.prototype_seed, stream=0x9070)
    protos = rng.normals(spec.vocab.size * spec.feat_dim)
    return protos.reshape(spec.vocab.size, spec.feat_dim).astype(np.float32)


def sample_utterance(spec: TaskSpec, utt_id: str, rng: CounterRng,
                     translation: Optional[dict[int, int]] = None) -> Utterance:
    lmin, lmax = spec.length_range
    dmin, dmax = spec.duration_range
    length = int(rng.child("len").integers(lmin, lmax + 1, 1)[0])

    walk_rng = rng.child("walk")
    toks = [int(walk_rng.categorical(spec.init_probs, 1)[0])]
    for _ in range(length - 1):
        toks.append(int(walk_rng.categorical(spec.transition[toks[-1]], 1)[0]))
    source = tuple(toks)

    durs = rng.child("dur").integers(dmin, dmax + 1, length)
    flips = rng.child("conf").uniforms(length) < spec.confusion_prob
    rendered = [
        spec.confusion.get(tok, tok) if flip and tok in spec.confusion else tok
        for tok, flip in zip(source, flips)
    ]

    protos = prototypes(spec)
    total = int(durs.sum())
    frames = np.repeat(protos[rendered], durs, axis=0)
    if spec.noise_sigma > 0:
        noise = rng.child("noise").normals(total * spec.feat_dim)
        frames = frames + spec.noise_sigma * noise.reshape(total, spec.feat_dim).astype(np.float32)
    target = translate_target(source, translation) if translation else source
    return Utterance(utt_id, frames.astype(np.float32), source, target)
