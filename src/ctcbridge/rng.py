"""Counter-based random number generation.

"Same seed, same numbers" is a contract here: datasets, parameter
initialisation, batch order, dropout masks and augmentation all draw from
this generator, so a pinned seed pins an entire run.  The core is the
SplitMix64 output function applied to ``key + GOLDEN * counter`` -- a pure
function of (key, counter), so streams can be split without coordination
and regenerated from any point, and n one-word draws equal one n-word draw.

A `CounterRng` holds many streams, each a key and a counter of the words
it has drawn; `CounterRng(seed, stream)` is one stream, and `child(*tags)`
gives fresh child streams of every stream for every tag.  The same
property draws all streams at once (Salmon et al., SC'11, "Parallel random
numbers: as easy as 1, 2, 3"): a draw takes one count per stream, mixes
every stream's next words in one `_mix64_words` pass and advances each
counter, so each stream's part of a draw equals, byte for byte, what that
stream alone would draw next.  Box-Muller stays per stream, pairing each
stream's own ceil(n/2) halves, and takes 2 * ceil(n/2) of its words.  A
pass's temporaries grow with its words, so callers bound them: splits are
drawn 16 utterances per pass, parameter init about 16k words per pass.

All integer arithmetic is modulo 2**64.  Seeding and the FNV-1a tag hash
are Python ints masked to 64 bits after each multiply, one value at a time
with no numpy call.  Keys of children and the words of a draw are uint64
numpy arrays, where the wrap is native (`_mix64_words`).  The uint64
stream is exact on every platform; the float transforms (uniform mantissa
fill, Box-Muller) use IEEE double arithmetic.
"""

from __future__ import annotations

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


def _words(keys: np.ndarray, counts: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """Words skip[i] + 1 .. skip[i] + counts[i] of each stream i of `keys`,
    concatenated in stream order."""
    # word j of the whole draw is word j - first[i] + skip[i] + 1 of its
    # stream i, so its input is j * GOLDEN plus a per-stream offset
    first = (np.cumsum(counts) - counts).astype(np.uint64)
    offset = keys + (skip.astype(np.uint64) + _U64(1) - first) * _U64(_GOLDEN)
    x = np.arange(int(counts.sum()), dtype=np.uint64)
    x *= _U64(_GOLDEN)
    x += np.repeat(offset, counts)
    return _mix64_words(x)


class CounterRng:
    """Splittable counter-based generator of one or many streams.

    Stream i has key `keys[i]` and has drawn `counters[i]` words.  A draw
    takes one count per stream (or one count for all) and returns the
    streams' next words, concatenated in stream order, in one numpy pass;
    then it advances each stream's counter.  Derive a generator per
    independent purpose via `child` rather than sharing streams across call
    sites.
    """

    def __init__(self, seed: int, stream: int = 0):
        key = int(seed & _MASK) * _GOLDEN & _MASK
        self.keys = np.array([_mix64(key ^ int(stream & _MASK) * _MIX1 & _MASK)], dtype=np.uint64)
        self.counters = np.zeros(1, dtype=np.int64)

    def child(self, *tags: int | str) -> "CounterRng":
        """Fresh streams derived from these keys and `tags`: with T tags and
        S streams, stream t*S + s is stream s's child of tags[t]."""
        mixes = np.array([_tag_mix(t) for t in tags], dtype=np.uint64)
        out = CounterRng.__new__(CounterRng)
        out.keys = _mix64_words(mixes[:, None] ^ self.keys[None, :]).reshape(-1)
        out.counters = np.zeros(len(out.keys), dtype=np.int64)
        return out

    def _counts(self, counts) -> np.ndarray:
        return np.zeros(len(self.keys), dtype=np.int64) + np.asarray(counts, dtype=np.int64)

    def raw(self, counts) -> np.ndarray:
        """Each stream's next `counts[i]` uint64 words."""
        counts = self._counts(counts)
        out = _words(self.keys, counts, self.counters)
        self.counters += counts
        return out

    def uniforms(self, counts) -> np.ndarray:
        """Each stream's next `counts[i]` float64s in [0, 1), 53-bit resolution."""
        return (self.raw(counts) >> _U64(11)).astype(np.float64) * _TWO53_INV

    def normals(self, counts) -> np.ndarray:
        """Each stream's next `counts[i]` standard normals (ragged Box-Muller),
        which take 2 * ceil(counts[i] / 2) of its words."""
        n = self._counts(counts)
        m = (n + 1) // 2
        # stream i's 2*m[i] words hold its m[i] first halves, then its m[i]
        # second halves: one pass draws all first halves, then all second
        words = _words(np.concatenate([self.keys, self.keys]), np.concatenate([m, m]),
                       np.concatenate([self.counters, self.counters + m]))
        self.counters += 2 * m
        u1, u2 = (words >> _U64(11)).astype(np.float64).reshape(2, -1)
        # in place, as a pass's temporaries set its peak memory: u1 in (0, 1]
        # so log never sees zero
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
        """Each stream's next `counts[i]` integers in [lo, hi)."""
        if hi <= lo:
            raise ValueError(f"empty range [{lo}, {hi})")
        return integers_from(self.uniforms(counts), lo, hi)
