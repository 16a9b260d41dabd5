"""Counter-based random number generation.

"Same seed, same numbers" is a contract here: datasets, parameter
initialisation, batch order, dropout masks and augmentation all draw from
this generator, so a pinned seed pins an entire run.  The core is the
SplitMix64 output function applied to ``key + GOLDEN * counter`` -- a pure
function of (key, counter), so streams can be split without coordination
and regenerated from any point, and n one-word draws equal one n-word draw.

The same property draws many streams at once (Salmon et al., SC'11,
"Parallel random numbers: as easy as 1, 2, 3"): `Streams` takes one key and
one count per stream and mixes all their counters in one `_mix64_words`
pass.  Each stream's part of a `Streams` draw equals that stream's own
`raw`, `uniforms`, `normals` or `integers` draw byte for byte; Box-Muller
stays per stream, pairing each stream's own ceil(n/2) halves.  A pass's
temporaries grow with its words, so callers bound them: splits are drawn
16 utterances per pass, parameter init about 16k words per pass.

All integer arithmetic is modulo 2**64.  A generator's keys -- seeding,
`child` and the FNV-1a tag hash -- are Python ints masked to 64 bits after
each multiply, one value at a time with no numpy call; `Streams.child`
mixes many keys at once with `_mix64_words`.  The words of `raw` are uint64
numpy arrays, where the wrap is native (`_mix64_words`).  The uint64
stream is exact on every platform; the float transforms (uniform mantissa
fill, Box-Muller) use IEEE double arithmetic.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

_U64 = np.uint64
_TWO53_INV = 1.0 / float(1 << 53)


def _mix64(x: int) -> int:
    """SplitMix64 finaliser (Steele et al. constants) of an int in [0, 2**64)."""
    x = (x ^ (x >> 30)) * _MIX1 & _MASK
    x = (x ^ (x >> 27)) * _MIX2 & _MASK
    return x ^ (x >> 31)


def _mix64_words(x: np.ndarray) -> np.ndarray:
    """`_mix64` of every word of a uint64 array, which wraps by itself."""
    x = x ^ (x >> _U64(30))
    x *= _U64(_MIX1)
    x ^= x >> _U64(27)
    x *= _U64(_MIX2)
    x ^= x >> _U64(31)
    return x


def fnv1a64(text: str) -> int:
    """FNV-1a hash of a string, for deriving stable stream tags from names."""
    h = _FNV_OFFSET
    for b in text.encode("utf-8"):
        h = (h ^ b) * _FNV_PRIME & _MASK
    return h


def _tag_mix(tag: int | str) -> int:
    """The word a `child` tag mixes into its parent's key."""
    t = fnv1a64(tag) if isinstance(tag, str) else int(tag & _MASK)
    return _mix64((t + _GOLDEN) & _MASK)


def integers_from(u: np.ndarray, lo, hi) -> np.ndarray:
    """Integers in [lo, hi) from uniforms `u`, float-scaled (negligible bias
    at these ranges); `lo` < `hi` are ints or arrays that broadcast with `u`."""
    return lo + np.minimum((u * (hi - lo)).astype(np.int64), hi - lo - 1)


class CounterRng:
    """Splittable counter-based generator.

    Instances are cheap; derive one per independent purpose via `child`
    rather than sharing a stream across call sites.
    """

    def __init__(self, seed: int, stream: int = 0):
        key = int(seed & _MASK) * _GOLDEN & _MASK
        self._key = _mix64(key ^ int(stream & _MASK) * _MIX1 & _MASK)
        self._counter = 0

    def child(self, tag: int | str) -> "CounterRng":
        """Independent stream derived from this key and `tag`."""
        out = CounterRng.__new__(CounterRng)
        out._key = _mix64(self._key ^ _tag_mix(tag))
        out._counter = 0
        return out

    def raw(self, n: int) -> np.ndarray:
        """Next `n` uint64 words."""
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        return _mix64_words(_U64(self._key) + _U64(_GOLDEN) * idx)

    def uniforms(self, n: int) -> np.ndarray:
        """float64 in [0, 1), 53-bit resolution."""
        return (self.raw(n) >> _U64(11)).astype(np.float64) * _TWO53_INV

    def normals(self, n: int) -> np.ndarray:
        """Standard normals via Box-Muller."""
        m = (n + 1) // 2
        bits = (self.raw(2 * m) >> _U64(11)).astype(np.float64)
        # u1 in (0, 1] so log never sees zero
        u1 = (bits[:m] + 1.0) * _TWO53_INV
        u2 = bits[m:] * _TWO53_INV
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
        return integers_from(self.uniforms(n), lo, hi)


class Streams:
    """Fresh streams, one uint64 key each, drawn together.

    Stream i is a `CounterRng` with key `keys[i]` that has drawn nothing.  A
    draw takes one count per stream (or one count for all) and returns the
    streams' draws concatenated in stream order, in one numpy pass; stream
    i's part equals its own first draw of that count.  A `Streams` keeps no
    counter, so every draw starts each stream at its first word.
    """

    def __init__(self, keys):
        self.keys = np.asarray(keys, dtype=np.uint64).reshape(-1)

    @classmethod
    def of(cls, rngs: Iterable[CounterRng]) -> "Streams":
        """The streams of generators that have drawn nothing yet."""
        keys = []
        for r in rngs:
            if r._counter:
                raise ValueError("only a stream that has drawn nothing can join a Streams")
            keys.append(r._key)
        return cls(keys)

    def child(self, *tags: int | str) -> "Streams":
        """Every stream's `child(tag)`, for each tag in turn: with T tags and
        S streams, stream t*S + s is stream s's child(tags[t])."""
        mixes = np.array([_tag_mix(t) for t in tags], dtype=np.uint64)
        return Streams(_mix64_words(mixes[:, None] ^ self.keys[None, :]))

    def _counts(self, counts) -> np.ndarray:
        return np.zeros(len(self.keys), dtype=np.int64) + np.asarray(counts, dtype=np.int64)

    def raw(self, counts, skip=0) -> np.ndarray:
        """Each stream's first `counts[i]` uint64 words, after its first
        `skip[i]` words (one skip for all, or one per stream)."""
        counts = self._counts(counts)
        # word j of the whole draw is word j - first[i] + skip[i] of its
        # stream i, so its input is j * GOLDEN plus a per-stream offset
        first = (np.cumsum(counts) - counts).astype(np.uint64)
        offset = self.keys + (self._counts(skip).astype(np.uint64) + _U64(1) - first) * _U64(_GOLDEN)
        x = np.arange(int(counts.sum()), dtype=np.uint64)
        x *= _U64(_GOLDEN)
        x += np.repeat(offset, counts)
        return _mix64_words(x)

    def uniforms(self, counts) -> np.ndarray:
        """Each stream's first `counts[i]` float64s in [0, 1)."""
        return (self.raw(counts) >> _U64(11)).astype(np.float64) * _TWO53_INV

    def normals(self, counts) -> np.ndarray:
        """Each stream's first `counts[i]` standard normals (ragged Box-Muller)."""
        n = self._counts(counts)
        m = (n + 1) // 2
        # stream i's 2*m[i] words hold its m[i] first halves, then its m[i]
        # second halves: one pass draws all first halves, then all second
        twice = Streams(np.concatenate([self.keys, self.keys]))
        words = twice.raw(np.concatenate([m, m]), np.concatenate([0 * m, m]))
        u1, u2 = (words >> _U64(11)).astype(np.float64).reshape(2, -1)
        # `CounterRng.normals` in place, as a pass's temporaries set its peak
        # memory: u1 in (0, 1] so log never sees zero
        u1 += 1.0
        u1 *= _TWO53_INV
        np.log(u1, out=u1)
        u1 *= -2.0
        r = np.sqrt(u1, out=u1)
        u2 *= _TWO53_INV
        u2 *= 2.0 * np.pi
        out = np.empty(2 * len(r), dtype=np.float64)
        out[0::2] = np.cos(u2)
        out[0::2] *= r
        out[1::2] = np.sin(u2)
        out[1::2] *= r
        # an odd count drops the last value of its stream's pairs
        odd = n % 2 == 1
        return np.delete(out, (2 * np.cumsum(m) - 1)[odd]) if odd.any() else out

    def integers(self, lo: int, hi: int, counts) -> np.ndarray:
        """Each stream's first `counts[i]` integers in [lo, hi)."""
        if hi <= lo:
            raise ValueError(f"empty range [{lo}, {hi})")
        return integers_from(self.uniforms(counts), lo, hi)
