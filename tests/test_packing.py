"""Packed batches against the one-utterance passes and step of
`packing_oracles`: `tt.attention` with a segment table, the packed encoder
and decoder passes, the CTC posteriorgrams of packed encoder passes, the
untaped passes at the bench widths, and the packed training step of both
stages.

In float64 the packed passes agree with the one-utterance ones within
1e-10 (only BLAS summation order differs; measured at most 1.1e-15).
Untaped float32 passes give the one-utterance bytes.  In float32 the
packed step's losses, dev losses and the gradient of every parameter
agree with the per-utterance step within 1e-5 relative to the largest
magnitude; the worst case measured over these tests is 3.5e-7, with the
taped matmuls multiplying in float32 (1.6e-7 when they multiplied in
float64).
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import packing_oracles as oracle
import rng_oracles
from ctcbridge import cli
from ctcbridge import models as md
from ctcbridge import tensor as tt
from ctcbridge.cli import build_aec_cache, eval_ctc_greedy, load_task, posteriorgrams
from ctcbridge.connector import ConnectorConfig
from ctcbridge.ctc import beam_search, greedy_decode
from ctcbridge.lexicon import collapse
from ctcbridge.metrics import corpus_wer
from ctcbridge.rng import CounterRng
from ctcbridge.synthdata import MaskConfig
from ctc_oracles import beam_search_reference
from tape_ops import mul, precision, reduce_sum

TASK = {
    "name": "pack", "vocab_size": 12, "feat_dim": 8,
    "length_range": [3, 6], "duration_range": [4, 6],
    "noise_sigma": 0.3, "confusion_prob": 0.1, "prototype_seed": 7,
    "chain": {"seed": 11, "successors": 3, "weights": [0.5, 0.3, 0.2], "smoothing": 0.02},
    "splits": {"train": 24, "dev": 10, "test": 4, "seed": 3},
}


def rel_err(a, b) -> float:
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-30))


@pytest.fixture(scope="module")
def task():
    bundle = load_task(TASK)
    train, dev = bundle.splits("train", "dev")
    return bundle.spec.vocab, train, dev


def encoder(vocab, seed=0):
    return md.SpeechEncoder(md.EncoderConfig(feat_dim=8, out_slots=vocab.size + 1, width=24,
                                             ffn=48, blocks=2), seed=seed)


def decoder(vocab, seed=0):
    return md.DecoderLM(md.DecoderConfig(vocab=vocab.size, dim=24, ffn=48, blocks=2, heads=2,
                                         max_len=96), vocab, seed=seed)


@pytest.fixture(scope="module")
def trained(task):
    vocab, train, dev = task
    enc = encoder(vocab)
    md.train_encoder_ctc(enc, train, dev, md.TrainConfig(steps=40, batch_size=4, lr=5e-3,
                                                         warmup=4, eval_every=0, augment=None),
                         vocab.blank_id)
    return enc


def normals(seed, *shape):
    return CounterRng(seed).normals(int(np.prod(shape))).reshape(shape)


# ---------------------------------------------------------------------------
# attention with a segment table


class TestSegmentedAttention:
    @given(lengths=st.lists(st.integers(1, 7), min_size=1, max_size=5),
           heads=st.sampled_from([1, 2, 4]), causal=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_per_segment_calls(self, lengths, heads, causal):
        t, width = sum(lengths), 8
        with precision(np.float64):
            qkv, probe = normals(1, t, 3 * width), normals(2, t, width)
            packed = tt.Parameter(qkv)
            tape = tt.GradTape()
            y = tt.attention(tape.watch(packed), heads, causal, lengths)
            tape.backward(reduce_sum(mul(y, tt.Tensor(probe))))
            start = 0
            for n in lengths:
                part = tt.Parameter(qkv[start:start + n])
                tape = tt.GradTape()
                y_ref = tt.attention(tape.watch(part), heads, causal)
                tape.backward(reduce_sum(mul(y_ref, tt.Tensor(probe[start:start + n]))))
                assert np.abs(y.data[start:start + n] - y_ref.data).max() <= 1e-10
                assert np.abs(packed.grad[start:start + n] - part.grad).max() <= 1e-10
                start += n

    def test_one_segment_is_the_plain_op(self):
        qkv = tt.Tensor(normals(3, 6, 12))
        plain = tt.attention(qkv, 2, True).data
        assert tt.attention(qkv, 2, True, [6]).data.tobytes() == plain.tobytes()

    @pytest.mark.parametrize("lengths", [[2, 2], [3, 0, 3], [7], [-1, 7]])
    def test_segment_table_must_cover_the_rows(self, lengths):
        with pytest.raises(ValueError, match="segment lengths"):
            tt.attention(tt.Tensor(np.ones((6, 12))), 2, False, lengths)

    def test_dropout_draws_each_segment_from_its_own_rng(self):
        x = tt.Tensor(np.ones((5, 4)))
        packed = tt.dropout(x, 0.5, CounterRng(1).child(0, 1), [2, 3]).data
        assert packed[:2].tobytes() == tt.dropout(tt.Tensor(np.ones((2, 4))), 0.5,
                                                  CounterRng(1).child(0)).data.tobytes()
        assert packed[2:].tobytes() == tt.dropout(tt.Tensor(np.ones((3, 4))), 0.5,
                                                  CounterRng(1).child(1)).data.tobytes()
        with pytest.raises(ValueError, match="one rng stream per segment"):
            tt.dropout(x, 0.5, CounterRng(1), [2, 3])

    @given(lengths=st.lists(st.integers(1, 7), min_size=1, max_size=5),
           width=st.integers(1, 5), seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=60, deadline=None)
    def test_dropout_twice_equals_per_segment_oracle_masks(self, lengths, width, seed):
        # a block drops out twice with one generator: each segment's second
        # mask continues its own stream where the first stopped
        rate = 0.3
        rng = CounterRng(seed).child(*range(len(lengths)))
        x = tt.Tensor(np.ones((sum(lengths), width)))
        streams = [rng_oracles.CounterRng(seed).child(i) for i in range(len(lengths))]
        for _ in range(2):
            got = tt.dropout(x, rate, rng, lengths).data
            u = np.concatenate([r.uniforms(n * width) for r, n in zip(streams, lengths)])
            want = (u.reshape(got.shape) >= rate).astype(got.dtype) / got.dtype.type(1.0 - rate)
            assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# packed passes


class TestPackedPasses:
    # odd T and T = 4 (a single encoder row) exercise the stride-2 windows
    @given(frames=st.lists(st.integers(4, 13), min_size=1, max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_encoder_matches_one_utterance_passes(self, task, frames):
        vocab = task[0]
        with precision(np.float64):
            enc = encoder(vocab, seed=5)
            batch = [normals(10 + i, t, 8) for i, t in enumerate(frames)]
            hidden, logits = enc.forward(batch)
            refs = [oracle.encoder_forward(enc, f) for f in batch]
        assert [enc.out_len(t) for t in frames] == [r[1].shape[0] for r in refs]
        for packed, ref in ((hidden, [h for h, _ in refs]), (logits, [z for _, z in refs])):
            assert np.abs(packed.data - np.concatenate([r.data for r in ref])).max() <= 1e-10

    @given(lengths=st.lists(st.integers(1, 60), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_conv_gathers_the_rows_of_the_per_segment_loop(self, task, lengths):
        enc = encoder(task[0])
        x = tt.Tensor(normals(30, sum(lengths), 8))
        with mock.patch.object(tt, "gather_rows", wraps=tt.gather_rows) as gather:
            y, outs = enc._conv(x, lengths, "conv1", None)
        (_, rows), _ = gather.call_args
        want = oracle.conv_rows(lengths)
        assert (rows.dtype, rows.tobytes()) == (want.dtype, want.tobytes())
        assert outs == [(t + 1) // 2 for t in lengths] and y.shape[0] == sum(outs)

    @given(shape=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), min_size=1,
                          max_size=4), with_speech=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_decoder_matches_one_utterance_passes(self, task, shape, with_speech):
        vocab = task[0]
        with precision(np.float64):
            dec = decoder(vocab, seed=6)
            s_lens = [s if with_speech else 0 for s, _ in shape]
            texts = [[vocab.bos_id] + [(i + j) % (vocab.size - 4) for j in range(n - 1)]
                     for i, (_, n) in enumerate(shape)]
            speech = [normals(20 + i, s, 24) for i, s in enumerate(s_lens)]
            packed = dec.forward(tt.Tensor(np.concatenate(speech)) if with_speech else None,
                                 texts, speech_lens=s_lens if with_speech else None)
            refs = [oracle.decoder_forward(dec, tt.Tensor(sp) if with_speech else None, text)
                    for sp, text in zip(speech, texts)]
        assert np.abs(packed.data - np.concatenate([r.data for r in refs])).max() <= 1e-10

    def test_one_utterance_pass_emits_no_more_ops(self, task, monkeypatch):
        vocab, train, _ = task
        enc, dec = encoder(vocab), decoder(vocab)
        sysm = md.build_system("lego", enc, dec)
        frames, text = train[0].frames, [vocab.bos_id, 0, 1, 2]
        speech = tt.Tensor(sysm.connection.prefix(
            sysm, oracle.encoder_readout("logits", enc, frames), None, True).data)
        real, emitted = tt._emit, []

        def emit(*args, **kwargs):
            emitted.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(tt, "_emit", emit)

        def ops(run) -> tuple[int, int]:
            emitted.clear()
            run(None)
            untaped = len(emitted)
            tape = tt.GradTape()
            run(tape)
            return untaped, len(tape._parents) - len(tape._leaves)

        for new, old in (
                (lambda tape: enc.forward([frames], tape),
                 lambda tape: oracle.encoder_forward(enc, frames, tape)),
                (lambda tape: dec.forward(speech, [text], tape, speech_lens=[speech.shape[0]]),
                 lambda tape: oracle.decoder_forward(dec, speech, text, tape)),
                (lambda tape: dec.forward(None, [text], tape),
                 lambda tape: oracle.decoder_forward(dec, None, text, tape))):
            assert ops(new) == ops(old)


class TestPackedPosteriorgrams:
    """Decoding with the encoder alone reads posteriorgrams from packed
    passes of at most `cli.INFERENCE_BATCH` utterances, which one beam search
    takes up to `cli.SEARCH_BATCH` at a time; the one-utterance passes gave
    the same bytes."""

    @pytest.fixture(scope="class")
    def utts(self, task):
        utts = [*task[1], *task[2]]
        assert len(utts) % cli.INFERENCE_BATCH and len(utts) > 2 * cli.INFERENCE_BATCH
        return utts

    def test_posteriorgrams_are_the_one_utterance_bytes(self, trained, utts, monkeypatch):
        batches = []
        forward = md.SpeechEncoder.forward

        def spy(self, frames, *args, **kwargs):
            batches.append(len(frames))
            return forward(self, frames, *args, **kwargs)

        monkeypatch.setattr(md.SpeechEncoder, "forward", spy)
        got = list(posteriorgrams(trained, utts))
        assert batches == [cli.INFERENCE_BATCH] * 2 + [len(utts) - 2 * cli.INFERENCE_BATCH]
        assert [len(p.lengths) for p in got] == batches
        want = [oracle.posteriorgram(trained, u) for u in utts]
        assert [p.probs[b, :t].tobytes() for p in got for b, t in enumerate(p.lengths)] == [
            g.tobytes() for g in want]
        assert not any(p.probs[b, t:].any() for p in got for b, t in enumerate(p.lengths))

    def test_nbest_lists_and_greedy_hypotheses_are_unchanged(self, trained, utts):
        grams = [oracle.posteriorgram(trained, u) for u in utts]
        assert build_aec_cache(trained, utts, beam=4, n=3) == {
            u.id: beam_search_reference(g, beam=4, n=3) for u, g in zip(utts, grams)}
        blank = trained.cfg.out_slots - 1
        hyps = [collapse(tuple(np.argmax(g, axis=1).tolist()), blank) for g in grams]
        assert any(hyps)
        assert [h for p in posteriorgrams(trained, utts) for h in greedy_decode(p)] == hyps
        assert eval_ctc_greedy(trained, utts) == corpus_wer([u.source for u in utts], hyps)

    @pytest.mark.parametrize("search_batch", [cli.SEARCH_BATCH, 24])
    def test_each_utterance_is_searched_once_in_bounded_batches(self, trained, utts,
                                                                monkeypatch, search_batch):
        # 24 is no multiple of INFERENCE_BATCH: a pass ends where its search batch does
        passes, searched = [], []
        forward = md.SpeechEncoder.forward

        def count_pass(self, frames, *args, **kwargs):
            passes.append(len(frames))
            return forward(self, frames, *args, **kwargs)

        def spy(p, *args, **kwargs):
            searched.append(p)
            return beam_search(p, *args, **kwargs)

        monkeypatch.setattr(md.SpeechEncoder, "forward", count_pass)
        monkeypatch.setattr(cli, "beam_search", spy)
        monkeypatch.setattr(cli, "SEARCH_BATCH", search_batch)
        build_aec_cache(trained, utts, beam=2, n=1)
        assert max(passes) <= cli.INFERENCE_BATCH and sum(passes) == len(utts)
        sizes = [len(p.lengths) for p in searched]
        assert sizes == [min(search_batch, len(utts) - lo)
                         for lo in range(0, len(utts), search_batch)]
        # each utterance's rows reach the search once, in dataset order
        assert [p.probs[b, :t].tobytes() for p in searched for b, t in enumerate(p.lengths)] == [
            oracle.posteriorgram(trained, u).tobytes() for u in utts]


class TestBatchInvarianceAtBenchWidths:
    """At the `EncoderConfig` and `DecoderConfig` defaults and the bench
    task's sizes, untaped encoder readouts, connector prefixes and decoder
    logits of packed passes are the one-utterance passes' bytes.  At these
    widths a float32 GEMM's rows differ with the rows it multiplies, so
    this fails if untaped matmuls multiply in float32."""

    BENCH = dict(TASK, vocab_size=32, feat_dim=16, length_range=[5, 14],
                 duration_range=[4, 8], splits={"train": 16, "dev": 1, "test": 1, "seed": 5})

    @pytest.fixture(scope="class")
    def bench(self):
        bundle = load_task(self.BENCH)
        vocab, (train,) = bundle.spec.vocab, bundle.splits("train")
        enc = md.SpeechEncoder(md.EncoderConfig(feat_dim=16, out_slots=vocab.size + 1), seed=3)
        dec = md.DecoderLM(md.DecoderConfig(vocab=vocab.size), vocab, seed=4)
        return vocab, list(train), enc, md.build_system("lego", enc, dec)

    @staticmethod
    def rows(enc, sysm, vocab, utts) -> list[tuple[bytes, bytes, bytes, bytes]]:
        """Per utterance: hidden, logits, lego prefix and decoder logits bytes
        of one packed pass over `utts`."""
        frames = [u.frames for u in utts]
        lens = [enc.out_len(f.shape[0]) for f in frames]
        hidden, logits = enc.forward(frames)
        speech = md.conditioning(sysm, enc, frames)
        texts = [[vocab.bos_id, *u.target] for u in utts]
        out = sysm.decoder.forward(speech, texts, speech_lens=lens)
        cuts, text_cuts = (np.cumsum(n)[:-1] for n in (lens, [len(t) for t in texts]))
        return list(zip(*([part.tobytes() for part in np.split(x, at)] for x, at in (
            (hidden.data, cuts), (logits.data, cuts), (speech.data, cuts),
            (out.data, text_cuts)))))

    @pytest.mark.parametrize("batch", [16, 5])
    def test_packed_passes_give_the_one_utterance_bytes(self, bench, batch):
        vocab, utts, enc, sysm = bench
        assert (enc.cfg.width, enc.cfg.ffn) == (48, 96)
        assert (sysm.decoder.cfg.dim, sysm.decoder.cfg.heads) == (64, 4)
        alone = [r for u in utts for r in self.rows(enc, sysm, vocab, [u])]
        packed = [r for lo in range(0, len(utts), batch)
                  for r in self.rows(enc, sysm, vocab, utts[lo:lo + batch])]
        assert packed == alone


# ---------------------------------------------------------------------------
# the packed training step against the per-utterance one


def one_step(run, params) -> tuple[md.TrainLog, dict[str, np.ndarray]]:
    """A 1-step run at lr 0: the parameters stay put and keep step 0's
    averaged gradients."""
    log = run()
    return log, {n: p.grad.copy() for n, p in params.items()}


def assert_same_step(packed, ref, tol=1e-5):
    (log, grads), (log_ref, grads_ref) = packed, ref
    assert log.skipped == log_ref.skipped
    for key in ("initial_dev_loss", "final_dev_loss"):
        assert rel_err(getattr(log, key), getattr(log_ref, key)) <= tol, key
    assert rel_err(log.rows[0]["train_loss"], log_ref.rows[0]["train_loss"]) <= tol
    for name, g in grads.items():
        assert rel_err(g, grads_ref[name]) <= tol, name


STEP = dict(steps=1, lr=0.0, warmup=0, eval_every=0, log_every=1, seed=4)


class TestPackedStep:
    @pytest.mark.parametrize("batch_size, dropout, augment", [
        (8, 0.1, MaskConfig()), (8, 0.0, None), (1, 0.1, MaskConfig())])
    def test_encoder_ctc_step(self, task, batch_size, dropout, augment):
        vocab, train, dev = task
        enc = encoder(vocab, seed=2)
        cfg = md.TrainConfig(batch_size=batch_size, dropout=dropout, augment=augment, **STEP)
        packed = one_step(lambda: md.train_encoder_ctc(enc, train, dev, cfg, vocab.blank_id),
                          enc.params)
        ref = one_step(lambda: oracle.train_encoder_ctc(enc, train, dev, cfg, vocab.blank_id),
                       enc.params)
        assert_same_step(packed, ref)

    def test_encoder_step_skips_an_infeasible_target(self, task):
        vocab, train, dev = task
        # four frames make one encoder row, too few for a two-token target
        short = [dataclasses.replace(u, frames=u.frames[:4]) for u in train[:2]]
        assert all(len(u.source) >= 2 for u in short)
        enc = encoder(vocab, seed=2)
        cfg = md.TrainConfig(batch_size=6, dropout=0.1, augment=MaskConfig(), **STEP)
        data = short + list(train[2:4])
        packed = one_step(lambda: md.train_encoder_ctc(enc, data, dev, cfg, vocab.blank_id),
                          enc.params)
        ref = one_step(lambda: oracle.train_encoder_ctc(enc, data, dev, cfg, vocab.blank_id),
                       enc.params)
        assert 0 < packed[0].skipped < 6
        assert_same_step(packed, ref)

    def test_a_batch_of_only_infeasible_targets_takes_no_step(self, task):
        vocab, train, dev = task
        short = [dataclasses.replace(u, frames=u.frames[:4]) for u in train[:2]]
        enc = encoder(vocab, seed=2)
        cfg = md.TrainConfig(batch_size=3, **STEP)
        log = md.train_encoder_ctc(enc, short, dev, cfg, vocab.blank_id)
        assert (log.skipped, log.rows[0]["train_loss"]) == (3, 0.0)
        assert not any(p.grad.any() for p in enc.params.values())

    @pytest.mark.parametrize("mode", tuple(md.CONNECTIONS))
    def test_adapt_step_every_mode(self, task, trained, mode):
        vocab, train, dev = task
        sysm = md.build_system(mode, trained, decoder(vocab, seed=1),
                               ConnectorConfig(k=3 if md.CONNECTIONS[mode].needs_k else None),
                               seed=1, aec_n=2)
        cache = None
        if mode == "aec":
            cache = build_aec_cache(trained, list(train) + list(dev), beam=4, n=2)
        cfg = md.TrainConfig(batch_size=8, dropout=0.1, augment=None, **STEP)
        params = {**sysm.decoder.params, **sysm.extra}
        packed = one_step(lambda: md.adapt_decoder(sysm, trained, vocab, train, dev, cfg, cache),
                          params)
        ref = one_step(lambda: oracle.adapt_decoder(sysm, trained, vocab, train, dev, cfg,
                                                    cache), params)
        assert_same_step(packed, ref)

    @pytest.mark.parametrize("batch_size", [1, 5])
    def test_adapt_step_with_augmented_readouts(self, task, trained, batch_size):
        vocab, train, dev = task
        sysm = md.build_system("sp", trained, decoder(vocab, seed=1), seed=1)
        cfg = md.TrainConfig(batch_size=batch_size, dropout=0.1, augment=MaskConfig(), **STEP)
        params = {**sysm.decoder.params, **sysm.extra}
        packed = one_step(lambda: md.adapt_decoder(sysm, trained, vocab, train, dev, cfg),
                          params)
        ref = one_step(lambda: oracle.adapt_decoder(sysm, trained, vocab, train, dev, cfg),
                       params)
        assert_same_step(packed, ref)


# ---------------------------------------------------------------------------
# utterances the decoder cannot hold


class TestFit:
    def test_names_the_first_utterance_that_does_not_fit(self, task, trained):
        vocab, train, dev = task
        dec = md.DecoderLM(md.DecoderConfig(vocab=vocab.size, dim=8, ffn=8, blocks=1, heads=1,
                                            max_len=10), vocab, seed=0)
        sysm = md.build_system("lego", trained, dec)
        rows = [(md.SpeechEncoder.out_len(u.frames.shape[0]), 1 + len(u.target)) for u in train]
        first = next(i for i, (s, t) in enumerate(rows) if s + t > 10)
        s, t = rows[first]
        message = (f"utterance {train[first].id} needs {s + t} decoder rows ({s} speech + {t} "
                   f"text), more than the decoder's max_len 10")
        with pytest.raises(ValueError) as err:
            md.check_fits(sysm, vocab, train)
        assert str(err.value) == message
        with pytest.raises(ValueError, match="needs .* decoder rows"):
            md.adapt_decoder(sysm, trained, vocab, train, dev, md.TrainConfig(steps=1))
