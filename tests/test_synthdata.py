import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctcbridge.rng import CounterRng, fnv1a64
from ctcbridge.synthdata import (
    SPLIT_CHUNK,
    MaskConfig,
    _sample_chunk,
    augment,
    build_chain,
    build_translation,
    build_vocabulary,
    content_ids,
    make_splits,
    prompt_token_id,
    translate_target,
    utterance_from_json,
    utterance_to_json,
)
from ctcbridge.cli import load_task
import rng_oracles as oracle
import utterance_oracles as per_utt


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


class TestRngMatchesOracle:
    """Python-int keys and array words against the 0-d numpy oracle."""

    @given(seed=st.integers(-2**63, 2**64 - 1), stream=st.integers(0, 2**64 - 1),
           tags=st.lists(st.one_of(st.integers(0, 2**64 - 1), st.text(max_size=12)),
                         min_size=1, max_size=3),
           n=st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_keys_and_words_equal(self, seed, stream, tags, n):
        new, old = CounterRng(seed, stream), oracle.CounterRng(seed, stream)
        assert new.keys[0] == int(old._key)
        for tag in tags:
            new, old = new.child(tag), old.child(tag)
            assert new.keys[0] == int(old._key)
            if isinstance(tag, str):
                assert fnv1a64(tag) == oracle.fnv1a64(tag)
        np.testing.assert_array_equal(new.raw(n), old.raw(n))
        np.testing.assert_array_equal(new.uniforms(n), old.uniforms(n))
        np.testing.assert_array_equal(new.normals(n), old.normals(n))
        np.testing.assert_array_equal(new.integers(-3, n, n), old.integers(-3, n, n))

    def test_non_ascii_tags(self):
        for tag in ("é", "日本語", "🎲x", "\x00"):
            assert fnv1a64(tag) == oracle.fnv1a64(tag)
            assert CounterRng(7).child(tag).keys[0] == int(oracle.CounterRng(7).child(tag)._key)


tags = st.one_of(st.integers(0, 2**64 - 1), st.text(max_size=8))


class TestStreams:
    """Many streams drawn in one pass against each stream's draws from the
    independent one-stream oracle."""

    @given(seed=st.integers(0, 2**64 - 1),
           streams=st.lists(st.tuples(tags, st.integers(0, 9)), max_size=6),
           lo=st.integers(-5, 5), width=st.integers(1, 300),
           child_tags=st.lists(tags, min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_each_stream_equals_its_own_draws(self, seed, streams, lo, width, child_tags):
        root, old_root = CounterRng(seed, stream=0x51), oracle.CounterRng(seed, stream=0x51)
        names = [tag for tag, _ in streams]
        counts = [n for _, n in streams]

        def each(draw):
            """Every stream's own draw from a fresh oracle `child(tag)`, concatenated."""
            parts = [draw(old_root.child(tag), n) for tag, n in streams]
            return np.concatenate(parts) if parts else np.zeros(0)

        # a fresh generator for each draw kind, as a draw advances its streams
        for name in ("raw", "uniforms", "normals"):
            want = each(lambda r, n: getattr(r, name)(n))
            assert getattr(root.child(*names), name)(counts).tobytes() == want.tobytes(), name
        want = each(lambda r, n: r.integers(lo, lo + width, n))
        got = root.child(*names).integers(lo, lo + width, counts)
        assert got.tobytes() == want.astype(np.int64).tobytes()
        # one count for every stream, and each stream's children, tag by tag
        want = [each(lambda r, n: r.child(t).normals(3)) for t in child_tags]
        got = root.child(*names).child(*child_tags).normals(3)
        assert got.tobytes() == np.concatenate(want).tobytes()

    @given(seed=st.integers(0, 2**64 - 1), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_streams_that_have_drawn_continue_like_the_oracle(self, seed, data):
        # streams that have drawn unequal amounts, then a mixed run of draws
        drawn = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=5, unique=True))
        s = len(drawn)
        counts = st.lists(st.integers(0, 9), min_size=s, max_size=s)
        odd = st.lists(st.integers(0, 4).map(lambda k: 2 * k + 1), min_size=s, max_size=s)
        steps = [("raw", counts), ("normals", odd), ("uniforms", counts),
                 ("integers", counts), ("normals", counts), ("raw", counts)]
        many = CounterRng(seed, stream=0x51).child(*range(s))
        old = [oracle.CounterRng(seed, stream=0x51).child(i) for i in range(s)]
        many.raw(drawn)
        for r, n in zip(old, drawn):
            r.raw(n)
        for kind, strategy in steps:
            ns = data.draw(strategy)
            args = (-2, 5) if kind == "integers" else ()
            want = np.concatenate([getattr(r, kind)(*args, n) for r, n in zip(old, ns)])
            assert getattr(many, kind)(*args, ns).tobytes() == want.tobytes(), kind

    def test_a_stream_that_has_drawn_continues(self):
        # each stream's draws in turn equal its one longer draw
        rng = CounterRng(1).child("a", "b")
        rng.raw([1, 2])
        whole = CounterRng(1).child("a", "b").raw([4, 5])
        assert rng.raw(3).tobytes() == np.concatenate([whole[1:4], whole[6:9]]).tobytes()

    def test_empty_range_is_refused(self):
        with pytest.raises(ValueError, match="empty range"):
            CounterRng(1).child(1, 2).integers(3, 3, 0)


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


def sample(spec, i, seed=5):
    """The utterance of stream `CounterRng(seed).child(i)`."""
    return _sample_chunk(spec, ["u"], CounterRng(seed).child(i), None)[0]


class TestSampling:
    def test_bitwise_reproducible(self, spec):
        a = sample(spec, 0)
        b = sample(spec, 0)
        assert a.source == b.source
        np.testing.assert_array_equal(a.frames, b.frames)

    def test_frame_count_is_duration_sum(self, spec):
        # with no noise and no confusion, frames are exact prototype repeats
        from dataclasses import replace

        clean = replace(spec, noise_sigma=0.0, confusion_prob=0.0)
        u = sample(clean, 1)
        protos = clean.prototypes
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
            u = sample(spec, i)
            assert set(u.source) <= set(content_ids(spec.vocab))

    def test_min_duration_guard(self):
        bad = dict(TASK)
        bad["duration_range"] = [2, 6]
        with pytest.raises(ValueError):
            load_task(bad)

    @pytest.mark.parametrize("scale, row_shift, error", [
        (0.5, 0.0, "init probabilities must sum to 1"), (1.0, 1.0, "probabilities must be >= 0")])
    def test_probabilities_are_checked(self, spec, scale, row_shift, error):
        # the walk's CDFs pin their last entry to 1, so a shortfall would land
        # on the last token, a special; a negative entry breaks the CDF order
        trans = spec.transition.copy()
        trans[0, :2] += (row_shift, -row_shift)  # rows keep their sum
        task = {k: v for k, v in TASK.items() if k != "chain"}
        task.update(transition=trans.tolist(), init=(spec.init_probs * scale).tolist())
        with pytest.raises(ValueError, match=error):
            load_task(task)


@st.composite
def task_specs(draw):
    lmin = draw(st.integers(1, 5))
    dmin = draw(st.integers(4, 6))
    task = {
        "vocab_size": draw(st.integers(6, 40)), "feat_dim": draw(st.integers(1, 8)),
        "length_range": [lmin, draw(st.integers(lmin, lmin + 12))],
        "duration_range": [dmin, draw(st.integers(dmin, dmin + 4))],
        "noise_sigma": draw(st.sampled_from([0.0, 0.5])),
        "confusion_prob": draw(st.sampled_from([0.0, 0.3])),
        "prototype_seed": draw(st.integers(0, 2**32)),
        "chain": {"seed": draw(st.integers(0, 2**32))},
        "task": draw(st.sampled_from(["asr", "ast"])),
        "translation_seed": draw(st.integers(0, 2**32)),
        "splits": {"train": 1, "dev": 1, "test": 1},
    }
    return load_task(task)


class TestSamplingMatchesOracle:
    @given(bundle=task_specs(), seed=st.integers(0, 2**64 - 1),
           idx=st.lists(st.integers(0, 2**20), min_size=1, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_byte_equal(self, bundle, seed, idx):
        spec, translation = bundle.spec, bundle.translation
        chunk = _sample_chunk(spec, ["u"] * len(idx),
                              CounterRng(seed).child(*idx), translation)
        for i, got in zip(idx, chunk):
            want = oracle.sample_utterance(spec, "u", oracle.CounterRng(seed).child(i),
                                           translation)
            assert (got.source, got.target) == (want.source, want.target)
            assert got.frames.tobytes() == want.frames.tobytes()
            assert got.frames.shape == want.frames.shape

    # split sizes on both sides of the chunk edges
    @given(bundle=task_specs(), seed=st.integers(0, 2**64 - 1),
           sizes=st.tuples(*[st.sampled_from([1, 15, 16, 17, 33])] * 3))
    @settings(max_examples=40, deadline=None)
    def test_splits_equal_the_per_utterance_sampler(self, bundle, seed, sizes):
        assert SPLIT_CHUNK == 16
        spec, translation = bundle.spec, bundle.translation
        got = make_splits(spec, *sizes, seed, translation)
        want = per_utt.make_splits(spec, *sizes, seed, translation)
        for g_split, w_split, n in zip(got, want, sizes):
            assert len(g_split) == len(w_split) == n
            for g, w in zip(g_split, w_split):
                assert (g.id, g.source, g.target) == (w.id, w.source, w.target)
                assert (g.frames.dtype, g.frames.shape) == (w.frames.dtype, w.frames.shape)
                assert g.frames.tobytes() == w.frames.tobytes()

    @given(bundle=task_specs())
    @settings(max_examples=30, deadline=None)
    def test_cdf_rows_are_categoricals(self, bundle):
        # the oracle's categorical: cumsum, then the last entry pinned to exactly 1
        spec = bundle.spec
        init_cdf, row_cdfs = spec.walk_cdfs
        for probs, cdf in zip([spec.init_probs, *spec.transition], [init_cdf, *row_cdfs]):
            want = np.cumsum(probs)
            want[-1] = 1.0
            assert cdf.tobytes() == want.tobytes()


# the benchmark task (perfbench/task.json) at the benchmark's split sizes
BENCH_TASK = {
    "name": "bench", "vocab_size": 32, "feat_dim": 16,
    "length_range": [5, 14], "duration_range": [4, 8],
    "noise_sigma": 0.5, "confusion_prob": 0.1, "prototype_seed": 7,
    "chain": {"seed": 3},
}


def _bench_bundle(seed, **extra):
    return load_task(dict(BENCH_TASK, splits={"train": 128, "dev": 24, "test": 160,
                                              "seed": seed}, **extra))


class TestSplits:
    # sha256 of the utterance_to_json lines of all three splits, one per line
    @pytest.mark.parametrize("seed, extra, digest", [
        (1, {}, "fa72067ef15acaa4bd826238bd63d902d80251a55398610771d56809d16d06bf"),
        (2, {}, "e94dd8cc02e7f459c28c7fe864d92df7764dc360d1eb5f0cc58fdc8e0f1031d0"),
        (1, {"task": "ast"}, "ec664bc0b0cfe3ce14120e20f24242ce0c99ad3b6e0544ce6ab29b3db52d6b4c"),
    ], ids=["seed1", "seed2", "seed1-ast"])
    def test_golden_digest(self, seed, extra, digest):
        lines = [utterance_to_json(u) for split in _bench_bundle(seed, **extra).splits()
                 for u in split]
        assert hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest() == digest

    @pytest.mark.parametrize("names", [("train", "dev"), ("test",), ("dev",), ("test", "train")])
    def test_subset_equals_full(self, names):
        bundle = _bench_bundle(3)
        full = dict(zip(("train", "dev", "test"), bundle.splits()))
        subset = bundle.splits(*names)
        assert len(subset) == len(names)
        for name, utts in zip(names, subset):
            assert [utterance_to_json(u) for u in utts] == [
                utterance_to_json(u) for u in full[name]]

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


def augment_one(x, cfg, rng):
    return augment([x], cfg, rng)[0]


class TestAugment:
    def test_none_config_is_identity(self):
        x = np.ones((10, 4), dtype=np.float32)
        assert augment_one(x, None, CounterRng(0)) is x

    def test_zero_masks_identity(self):
        x = np.ones((10, 4), dtype=np.float32)
        out = augment_one(x, MaskConfig(time_masks=0, freq_masks=0), CounterRng(0))
        np.testing.assert_array_equal(out, x)
        assert out is not x

    def test_full_span_zeroes_everything(self):
        x = np.ones((6, 4), dtype=np.float32)
        cfg = MaskConfig(time_masks=1, time_ratio=1.0, freq_masks=0)
        for tag in range(50):
            out = augment_one(x, cfg, CounterRng(0).child(tag))
            if (out == 0).all():
                return
        raise AssertionError("full-span mask never drawn")

    def test_masked_fraction_bounded(self):
        x = np.ones((40, 8), dtype=np.float32)
        cfg = MaskConfig(time_masks=2, time_ratio=0.1, freq_masks=0)
        for tag in range(20):
            out = augment_one(x, cfg, CounterRng(1).child(tag))
            zero_rows = int((out == 0).all(axis=1).sum())
            assert zero_rows <= 2 * int(0.1 * 40)

    def test_input_not_mutated(self):
        x = np.ones((10, 4), dtype=np.float32)
        augment_one(x, MaskConfig(), CounterRng(2))
        assert (x == 1).all()

    @given(shapes=st.lists(st.tuples(st.integers(1, 40), st.integers(1, 8)),
                           min_size=1, max_size=6),
           time_masks=st.integers(0, 3), time_ratio=st.sampled_from([0.0, 0.1, 0.37, 1.0]),
           freq_masks=st.integers(0, 3), freq_width=st.integers(0, 10),
           step=st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_batch_equals_per_utterance_masks(self, shapes, time_masks, time_ratio,
                                              freq_masks, freq_width, step):
        # the training loop's streams: one `aug{step}.{j}` child per utterance
        cfg = MaskConfig(time_masks, time_ratio, freq_masks, freq_width)
        frames = [CounterRng(7).child(j).normals(t * f).reshape(t, f).astype(np.float32)
                  for j, (t, f) in enumerate(shapes)]
        root = CounterRng(3, stream=0x7E)
        got = augment(frames, cfg, root.child(*(f"aug{step}.{j}" for j in range(len(frames)))))
        for j, (x, g) in enumerate(zip(frames, got)):
            want = per_utt.augment(x, cfg, root.child(f"aug{step}.{j}"))
            assert g.dtype == want.dtype and g.shape == want.shape
            assert g.tobytes() == want.tobytes()


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
        u = sample(spec, 3)
        again = utterance_from_json(utterance_to_json(u))
        assert again.id == u.id and again.source == u.source and again.target == u.target
        np.testing.assert_array_equal(again.frames, u.frames)
