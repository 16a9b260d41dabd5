"""Vocabulary and sequence conventions shared by every component.

The output space of the acoustic side has V + 1 slots: LM token ids occupy
[0, V) and the blank sits at the LAST index (V), so token ids mean the same
thing on both sides of the bridge.  "<sep>", "<bos>" and "<eos>" are
ordinary members of the V tokens.

Token sequences and frame-level alignment paths are plain tuples of ints;
`collapse` implements the merge-repeats-then-drop-blanks rule that maps an
alignment path to the label sequence it spells.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

TokenSeq = tuple[int, ...]
Alignment = tuple[int, ...]


@dataclass(frozen=True)
class Vocabulary:
    tokens: tuple[str, ...]
    sep_id: int
    bos_id: int
    eos_id: int

    def __post_init__(self):
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("vocabulary tokens must be unique")
        v = len(self.tokens)
        for name, i in (("sep", self.sep_id), ("bos", self.bos_id), ("eos", self.eos_id)):
            if not 0 <= i < v:
                raise ValueError(f"{name} id {i} outside [0, {v})")

    @property
    def size(self) -> int:
        return len(self.tokens)

    @property
    def blank_id(self) -> int:
        # blank is the extra last slot of the V+1 output space
        return len(self.tokens)

    def to_json(self) -> str:
        return json.dumps(
            {"tokens": list(self.tokens), "sep": self.sep_id,
             "bos": self.bos_id, "eos": self.eos_id},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "Vocabulary":
        d = json.loads(text)
        return cls(tuple(d["tokens"]), d["sep"], d["bos"], d["eos"])


@dataclass(frozen=True)
class Posteriorgram:
    """A batch of per-frame probability rows over the V+1 output slots:
    utterance b's frames are `probs[b, :lengths[b]]` and zeros pad the rest."""

    probs: np.ndarray  # [B, T_max, V+1]
    lengths: tuple[int, ...]

    def __post_init__(self):
        if self.probs.ndim != 3:
            raise ValueError("posteriorgram must be [utterances, frames, V+1]")
        if len(self.lengths) != self.probs.shape[0] or any(
                not 0 <= n <= self.probs.shape[1] for n in self.lengths):
            raise ValueError("need one length in [0, frames] per utterance")

    @classmethod
    def pack(cls, grams: Sequence[np.ndarray]) -> "Posteriorgram":
        """One zero-padded batch from each utterance's [T, V+1] rows."""
        lengths = tuple(g.shape[0] for g in grams)
        probs = np.zeros((len(grams), max(lengths), grams[0].shape[1]), dtype=grams[0].dtype)
        for b, g in enumerate(grams):
            probs[b, :lengths[b]] = g
        return cls(probs, lengths)

    @property
    def width(self) -> int:
        return self.probs.shape[2]


def collapse(path: Alignment, blank_id: int) -> TokenSeq:
    """Merge adjacent repeats, then delete blanks."""
    out = []
    prev = None
    for p in path:
        if not 0 <= p <= blank_id:
            raise ValueError(f"alignment id {p} outside [0, {blank_id}]")
        if p != prev:
            if p != blank_id:
                out.append(p)
            prev = p
    return tuple(out)
