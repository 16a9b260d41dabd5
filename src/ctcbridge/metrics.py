"""Error-rate metrics over token-id sequences.

WER runs on ids, not strings -- the synthetic task has no orthography --
and always satisfies wer * n_ref == sub + del + ins exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .lexicon import TokenSeq


@dataclass(frozen=True)
class WerReport:
    wer: float
    substitutions: int
    deletions: int
    insertions: int
    n_ref: int

    def as_dict(self) -> dict:
        return {"wer": self.wer, "sub": self.substitutions, "del": self.deletions,
                "ins": self.insertions, "n_ref": self.n_ref}

    def __add__(self, other: "WerReport") -> "WerReport":
        sub = self.substitutions + other.substitutions
        dele = self.deletions + other.deletions
        ins = self.insertions + other.insertions
        n = self.n_ref + other.n_ref
        return WerReport((sub + dele + ins) / n, sub, dele, ins, n)


def wer(ref: TokenSeq, hyp: TokenSeq) -> WerReport:
    """Minimal-edit alignment with unit costs.

    Backtrace prefers substitution/match over deletion over insertion at
    ties, so the decomposition is deterministic.
    """
    n, m = len(ref), len(hyp)
    if n == 0:
        raise ValueError("reference must be non-empty")
    # dist[i][j]: edits to turn ref[:i] into hyp[:j]
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        dist[i][0] = i
    for j in range(m + 1):
        dist[0][j] = j
    for i in range(1, n + 1):
        ri = ref[i - 1]
        row, prev = dist[i], dist[i - 1]
        for j in range(1, m + 1):
            row[j] = min(
                prev[j - 1] + (ri != hyp[j - 1]),
                prev[j] + 1,      # deletion
                row[j - 1] + 1,   # insertion
            )
    sub = dele = ins = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]):
            sub += ref[i - 1] != hyp[j - 1]
            i, j = i - 1, j - 1
        elif i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            dele += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return WerReport((sub + dele + ins) / n, sub, dele, ins, n)


def corpus_wer(refs: Sequence[TokenSeq], hyps: Sequence[TokenSeq]) -> WerReport:
    if len(refs) != len(hyps) or not refs:
        raise ValueError("need equally many refs and hyps, at least one pair")
    total = wer(refs[0], hyps[0])
    for r, h in zip(refs[1:], hyps[1:]):
        total = total + wer(r, h)
    return total


def werr(baseline_wer: float, system_wer: float) -> float:
    """Relative error-rate reduction; positive means the system improved."""
    if baseline_wer <= 0:
        raise ValueError("baseline WER must be > 0")
    return (baseline_wer - system_wer) / baseline_wer

