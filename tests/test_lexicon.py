import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctcbridge.lexicon import Vocabulary, collapse


@pytest.fixture
def vocab():
    return Vocabulary(("a", "b", "<sep>", "<bos>", "<eos>"), sep_id=2, bos_id=3, eos_id=4)


class TestVocabulary:
    def test_blank_is_last_slot(self, vocab):
        assert vocab.blank_id == vocab.size == 5

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(("a", "a", "<sep>"), 2, 2, 2)

    def test_special_ids_must_be_in_range(self):
        with pytest.raises(ValueError):
            Vocabulary(("a", "b"), sep_id=2, bos_id=0, eos_id=1)

    def test_json_round_trip(self, vocab):
        again = Vocabulary.from_json(vocab.to_json())
        assert again == vocab


class TestCollapse:
    def test_merge_then_drop_blank(self):
        # blank is id 2 here
        assert collapse((0, 0, 2, 1), 2) == (0, 1)

    def test_all_blank_collapses_to_empty(self):
        assert collapse((2, 2), 2) == ()

    def test_blank_separates_repeats(self):
        assert collapse((0, 2, 0), 2) == (0, 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            collapse((0, 5), 2)

    @given(st.lists(st.integers(0, 3), max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_properties(self, path):
        blank = 3
        out = collapse(tuple(path), blank)
        assert blank not in out
        assert len(out) <= len(path)
        if all(a != b for a, b in zip(out, out[1:])):
            # idempotent on blank-free, repeat-free sequences
            assert collapse(out, blank) == out

