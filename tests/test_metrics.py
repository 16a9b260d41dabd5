import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctcbridge.metrics import corpus_wer, wer, werr


@lru_cache(maxsize=None)
def brute_edit_distance(ref: tuple, hyp: tuple) -> int:
    if not ref:
        return len(hyp)
    if not hyp:
        return len(ref)
    return min(
        brute_edit_distance(ref[1:], hyp[1:]) + (ref[0] != hyp[0]),
        brute_edit_distance(ref[1:], hyp) + 1,
        brute_edit_distance(ref, hyp[1:]) + 1,
    )


class TestWer:
    def test_identical_is_zero(self):
        r = wer((1, 2, 3), (1, 2, 3))
        assert r.wer == 0 and (r.substitutions, r.deletions, r.insertions) == (0, 0, 0)

    def test_single_substitution(self):
        r = wer((0, 1, 2), (0, 9, 2))
        assert r.substitutions == 1 and r.wer == pytest.approx(1 / 3)

    def test_empty_hypothesis_is_all_deletions(self):
        r = wer((0, 1, 2), ())
        assert r.deletions == 3 and r.wer == 1.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            wer((), (1,))

    def test_wer_can_exceed_one(self):
        r = wer((0,), (1, 2, 3, 4))
        assert r.wer > 1.0

    def test_exhaustive_oracle_small_alphabet(self):
        # every ref/hyp pair up to length 5 over 3 symbols
        seqs = [
            tuple(s)
            for n in range(6)
            for s in itertools.product(range(3), repeat=n)
        ]
        for ref in seqs:
            if not ref:
                continue
            for hyp in seqs:
                r = wer(ref, hyp)
                total = r.substitutions + r.deletions + r.insertions
                assert total == brute_edit_distance(ref, hyp)
                assert r.wer * r.n_ref == pytest.approx(total)

    @given(
        st.lists(st.integers(0, 4), min_size=1, max_size=10),
        st.lists(st.integers(0, 4), max_size=10),
    )
    @settings(max_examples=80, deadline=None)
    def test_decomposition_identity(self, ref, hyp):
        r = wer(tuple(ref), tuple(hyp))
        assert r.wer * r.n_ref == pytest.approx(
            r.substitutions + r.deletions + r.insertions
        )

    def test_corpus_accumulation(self):
        total = corpus_wer([(0, 1), (2,)], [(0, 1), (3,)])
        assert total.n_ref == 3 and total.wer == pytest.approx(1 / 3)


class TestWerr:
    def test_reference_value(self):
        # 8.9 -> 5.6 is a 37% relative reduction
        assert werr(8.9, 5.6) == pytest.approx(0.3708, abs=1e-4)

    def test_equal_is_zero(self):
        assert werr(0.2, 0.2) == 0.0

    def test_worse_system_is_negative(self):
        assert werr(0.1, 0.2) < 0

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            werr(0.0, 0.1)

