"""Counter-based random number generation.

"Same seed, same numbers" is a contract here: datasets, parameter
initialisation, batch order, dropout masks and augmentation all draw from
this generator, so a pinned seed pins an entire run.  The core is the
SplitMix64 output function applied to ``key + GOLDEN * counter`` -- a pure
function of (key, counter), so streams can be split without coordination
and regenerated from any point, and n one-word draws equal one n-word draw.

All integer arithmetic is modulo 2**64.  Keys -- seeding, `child` and the
FNV-1a tag hash -- are Python ints masked to 64 bits after each multiply,
one value at a time with no numpy call.  The words of `raw` are uint64
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
    x = (x ^ (x >> _U64(30))) * _U64(_MIX1)
    x = (x ^ (x >> _U64(27))) * _U64(_MIX2)
    return x ^ (x >> _U64(31))


def fnv1a64(text: str) -> int:
    """FNV-1a hash of a string, for deriving stable stream tags from names."""
    h = _FNV_OFFSET
    for b in text.encode("utf-8"):
        h = (h ^ b) * _FNV_PRIME & _MASK
    return h


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
        t = fnv1a64(tag) if isinstance(tag, str) else int(tag & _MASK)
        out = CounterRng.__new__(CounterRng)
        out._key = _mix64(self._key ^ _mix64((t + _GOLDEN) & _MASK))
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
        return lo + np.minimum(
            (self.uniforms(n) * (hi - lo)).astype(np.int64), hi - lo - 1
        )
