import numpy as np
import pytest

from ctcbridge.rng import CounterRng, fnv1a64
from ctcbridge.synthdata import (
    MaskConfig,
    augment,
    build_chain,
    build_translation,
    build_vocabulary,
    content_ids,
    make_splits,
    prompt_token_id,
    sample_utterance,
    translate_target,
    utterance_from_json,
    utterance_to_json,
)
from ctcbridge.cli import load_task


def invert_translation(target, mapping):
    """Inverse of `translate_target`: swap adjacent pairs back, then unmap."""
    inv = {v: k for k, v in mapping.items()}
    swapped = list(target)
    for i in range(0, len(swapped) - 1, 2):
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    return tuple(inv[t] for t in swapped)


TASK = {
    "name": "t", "vocab_size": 16, "feat_dim": 6,
    "length_range": [3, 6], "duration_range": [4, 6],
    "noise_sigma": 0.3, "confusion_prob": 0.2, "prototype_seed": 7,
    "chain": {"seed": 3, "successors": 3, "weights": [0.5, 0.3, 0.2], "smoothing": 0.02},
    "splits": {"train": 8, "dev": 4, "test": 4, "seed": 5},
}


@pytest.fixture
def spec():
    return load_task(TASK).spec


class TestRng:
    def test_streams_are_reproducible(self):
        a = CounterRng(1234).child("x").uniforms(8)
        b = CounterRng(1234).child("x").uniforms(8)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ_by_tag(self):
        a = CounterRng(1234).child("x").uniforms(8)
        b = CounterRng(1234).child("y").uniforms(8)
        assert not np.array_equal(a, b)

    def test_raw_golden_values(self):
        # frozen output of the documented mixing constants
        got = [int(v) for v in CounterRng(0).raw(3)]
        assert got == [16294208416658607535, 7960286522194355700, 487617019471545679]

    def test_fnv_golden(self):
        assert fnv1a64("batch0") == 415019896056765617

    def test_normals_moments(self):
        x = CounterRng(9).normals(200000)
        assert abs(x.mean()) < 0.01
        assert abs(x.std() - 1.0) < 0.01

    def test_integers_in_range(self):
        x = CounterRng(2).integers(3, 9, 1000)
        assert x.min() >= 3 and x.max() <= 8


class TestVocabularyLayout:
    def test_specials_at_top(self):
        v = build_vocabulary(16)
        assert v.tokens[v.sep_id] == "<sep>"
        assert v.tokens[v.bos_id] == "<bos>"
        assert v.tokens[v.eos_id] == "<eos>"
        assert v.tokens[prompt_token_id(v)] == "<tsk>"
        assert len(content_ids(v)) == 12

    def test_chain_rows_stochastic(self):
        v = build_vocabulary(16)
        trans, init, pairs = build_chain(v, seed=3, successors=3,
                                         weights=(0.5, 0.3, 0.2), smoothing=0.02)
        np.testing.assert_allclose(trans.sum(axis=1), 1.0, atol=1e-12)
        assert init.sum() == pytest.approx(1.0)
        # content rows place no mass on specials and none on self
        content = content_ids(v)
        for tok in content:
            assert trans[tok, v.sep_id] == 0 and trans[tok, v.bos_id] == 0
            assert trans[tok, tok] == 0
        # confusion partners never share a likely successor slot
        for tok in content:
            likely = set(np.nonzero(trans[tok] > 0.05)[0])
            for c in likely:
                assert pairs.get(c) not in likely


class TestSampling:
    def test_bitwise_reproducible(self, spec):
        a = sample_utterance(spec, "u", CounterRng(5).child(0))
        b = sample_utterance(spec, "u", CounterRng(5).child(0))
        assert a.source == b.source
        np.testing.assert_array_equal(a.frames, b.frames)

    def test_frame_count_is_duration_sum(self, spec):
        # with no noise and no confusion, frames are exact prototype repeats
        from dataclasses import replace

        clean = replace(spec, noise_sigma=0.0, confusion_prob=0.0)
        u = sample_utterance(clean, "u", CounterRng(5).child(1))
        protos = clean.prototypes()
        t = 0
        for tok in u.source:
            d = 0
            while t + d < u.frames.shape[0] and np.array_equal(u.frames[t + d], protos[tok]):
                d += 1
            assert clean.duration_range[0] <= d   # at least dmin exact repeats
            t += d
        assert t == u.frames.shape[0]

    def test_sources_use_content_tokens_only(self, spec):
        for i in range(10):
            u = sample_utterance(spec, "u", CounterRng(5).child(i))
            assert set(u.source) <= set(content_ids(spec.vocab))

    def test_min_duration_guard(self):
        bad = dict(TASK)
        bad["duration_range"] = [2, 6]
        with pytest.raises(ValueError):
            load_task(bad)


class TestSplits:
    def test_same_seed_identical(self, spec):
        a = make_splits(spec, 4, 2, 2, seed=9)
        b = make_splits(spec, 4, 2, 2, seed=9)
        for sa, sb in zip(a, b):
            for ua, ub in zip(sa, sb):
                assert ua.id == ub.id and ua.source == ub.source
                np.testing.assert_array_equal(ua.frames, ub.frames)

    def test_ids_disjoint_across_splits_and_seeds(self, spec):
        tr, dv, te = make_splits(spec, 4, 3, 2, seed=9)
        other = make_splits(spec, 4, 3, 2, seed=10)[0]
        ids = [u.id for u in tr + dv + te + other]
        assert len(ids) == len(set(ids))

    def test_sizes_honoured(self, spec):
        tr, dv, te = make_splits(spec, 5, 3, 2, seed=0)
        assert (len(tr), len(dv), len(te)) == (5, 3, 2)

    def test_empty_split_rejected(self, spec):
        with pytest.raises(ValueError):
            make_splits(spec, 0, 1, 1, seed=0)


class TestAugment:
    def test_none_config_is_identity(self):
        x = np.ones((10, 4), dtype=np.float32)
        assert augment(x, None, CounterRng(0)) is x

    def test_zero_masks_identity(self):
        x = np.ones((10, 4), dtype=np.float32)
        out = augment(x, MaskConfig(time_masks=0, freq_masks=0), CounterRng(0))
        np.testing.assert_array_equal(out, x)

    def test_full_span_zeroes_everything(self):
        x = np.ones((6, 4), dtype=np.float32)
        cfg = MaskConfig(time_masks=1, time_ratio=1.0, freq_masks=0)
        for tag in range(50):
            out = augment(x, cfg, CounterRng(0).child(tag))
            if (out == 0).all():
                return
        raise AssertionError("full-span mask never drawn")

    def test_masked_fraction_bounded(self):
        x = np.ones((40, 8), dtype=np.float32)
        cfg = MaskConfig(time_masks=2, time_ratio=0.1, freq_masks=0)
        for tag in range(20):
            out = augment(x, cfg, CounterRng(1).child(tag))
            zero_rows = int((out == 0).all(axis=1).sum())
            assert zero_rows <= 2 * int(0.1 * 40)

    def test_input_not_mutated(self):
        x = np.ones((10, 4), dtype=np.float32)
        augment(x, MaskConfig(), CounterRng(2))
        assert (x == 1).all()


class TestTranslation:
    def test_identity_mapping_no_reorder_trivial(self):
        # pair swap on its own: [a,b,c,d] -> [b,a,d,c]
        ident = {i: i for i in range(10)}
        assert translate_target((1, 2, 3, 4), ident) == (2, 1, 4, 3)

    def test_mapping_then_swap(self):
        m = {0: 5, 1: 6, 2: 7, 3: 8}
        assert translate_target((0, 1, 2, 3), m) == (6, 5, 8, 7)

    def test_odd_tail_stays(self):
        ident = {i: i for i in range(10)}
        assert translate_target((1, 2, 3), ident) == (2, 1, 3)

    def test_round_trip(self):
        v = build_vocabulary(16)
        mapping = build_translation(v, seed=4)
        src = (0, 3, 1, 7, 2)
        assert invert_translation(translate_target(src, mapping), mapping) == src


class TestMaterialisation:
    def test_json_round_trip(self, spec):
        u = sample_utterance(spec, "utt-1", CounterRng(5).child(3))
        again = utterance_from_json(utterance_to_json(u))
        assert again.id == u.id and again.source == u.source and again.target == u.target
        np.testing.assert_array_equal(again.frames, u.frames)
