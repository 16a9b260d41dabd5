import math

import numpy as np
import pytest

from ctcbridge import tensor as tt
from ctcbridge.cli import build_aec_cache, eval_ctc_greedy, load_task
from ctcbridge.connector import ConnectorConfig
from ctcbridge.ctc import NBestList
from ctcbridge.lexicon import Vocabulary
from ctcbridge import models as md
from ctcbridge.rng import CounterRng
from ctcbridge.synthdata import MaskConfig, build_vocabulary
from block_oracles import mix_block_per_head, per_head_params, split_heads
from tape_ops import finite_diff_check, mul, params_digest, precision, reduce_sum


MICRO_TASK = {
    "name": "micro", "vocab_size": 12, "feat_dim": 8,
    "length_range": [3, 5], "duration_range": [4, 6],
    "noise_sigma": 0.2, "confusion_prob": 0.1, "prototype_seed": 7,
    "chain": {"seed": 11, "successors": 3, "weights": [0.5, 0.3, 0.2], "smoothing": 0.02},
    "splits": {"train": 48, "dev": 12, "test": 12, "seed": 0},
}


@pytest.fixture(scope="module")
def micro():
    bundle = load_task(MICRO_TASK)
    train, dev, test = bundle.splits()
    return bundle, train, dev, test


@pytest.fixture(scope="module")
def vocab(micro):
    return micro[0].spec.vocab


def tiny_encoder(vocab, feat_dim=8, seed=0):
    return md.SpeechEncoder(
        md.EncoderConfig(feat_dim=feat_dim, out_slots=vocab.size + 1,
                         width=24, ffn=48, blocks=1),
        seed=seed,
    )


def fresh_block(heads):
    params = {}
    drawn = md._normals(CounterRng(5), md._block_shapes("blk0", 24, 48, heads))
    md._block_params(params, drawn, "blk0", 24, 48, heads)
    return params


def tiny_decoder(vocab, seed=0, **kw):
    kw.setdefault("dim", 24)
    kw.setdefault("ffn", 48)
    kw.setdefault("blocks", 1)
    kw.setdefault("heads", 2)
    kw.setdefault("max_len", 96)
    return md.DecoderLM(md.DecoderConfig(vocab=vocab.size, **kw), vocab, seed=seed)


@pytest.fixture(scope="module")
def trained_encoder(micro, vocab):
    _, train, dev, _ = micro
    enc = tiny_encoder(vocab)
    cfg = md.TrainConfig(steps=150, batch_size=4, lr=4e-3, warmup=10,
                         eval_every=0, log_every=50, augment=None)
    log = md.train_encoder_ctc(enc, train, dev, cfg, vocab.blank_id)
    return enc, log


class TestEncoder:
    def test_subsample_arithmetic(self, vocab):
        enc = tiny_encoder(vocab)
        for t in (16, 17, 19, 40):
            frames = np.zeros((t, 8), dtype=np.float32)
            _, z = enc.forward([frames])
            assert z.shape == (-(-t // 4), vocab.size + 1)

    def test_too_few_frames_rejected(self, vocab):
        with pytest.raises(ValueError):
            tiny_encoder(vocab).forward([np.zeros((3, 8), dtype=np.float32)])

    def test_zero_input_gives_identical_rows(self, vocab):
        _, z = tiny_encoder(vocab).forward([np.zeros((16, 8), dtype=np.float32)])
        np.testing.assert_allclose(z.data, z.data[0][None, :].repeat(4, 0),
                                   rtol=0, atol=1e-5)

    def test_forward_is_deterministic(self, micro, vocab):
        utt = micro[1][0]
        enc = tiny_encoder(vocab)
        a = enc.forward([utt.frames])[1].data
        b = enc.forward([utt.frames])[1].data
        np.testing.assert_array_equal(a, b)

    def test_same_seed_same_params(self, vocab):
        a, b = tiny_encoder(vocab, seed=3), tiny_encoder(vocab, seed=3)
        for n in a.params:
            np.testing.assert_array_equal(a.params[n].value, b.params[n].value)


class TestEncoderTraining:
    def test_dev_loss_halves(self, trained_encoder):
        _, log = trained_encoder
        assert log.final_dev_loss < 0.5 * log.initial_dev_loss

    def test_zero_learning_rate_keeps_params_bitwise(self, micro, vocab):
        _, train, dev, _ = micro
        enc = tiny_encoder(vocab)
        before = {n: p.value.copy() for n, p in enc.params.items()}
        cfg = md.TrainConfig(steps=5, batch_size=2, lr=0.0, warmup=0, eval_every=0,
                             augment=None)
        md.train_encoder_ctc(enc, train, dev, cfg, vocab.blank_id)
        for n, p in enc.params.items():
            assert p.value.tobytes() == before[n].tobytes()

    def test_same_seed_reproduces_loss(self, micro, vocab):
        _, train, dev, _ = micro
        for augment, dropout in ((None, 0.0), (MaskConfig(), 0.1)):
            cfg = md.TrainConfig(steps=12, batch_size=2, lr=3e-3, warmup=2, eval_every=0,
                                 augment=augment, dropout=dropout)
            logs = []
            for _ in range(2):
                enc = tiny_encoder(vocab)
                logs.append(md.train_encoder_ctc(enc, train, dev, cfg, vocab.blank_id))
            assert logs[0].final_dev_loss == logs[1].final_dev_loss

    def test_empty_dataset_rejected(self, micro, vocab):
        cfg = md.TrainConfig(steps=1)
        with pytest.raises(ValueError):
            md.train_encoder_ctc(tiny_encoder(vocab), [], micro[2], cfg, vocab.blank_id)


class TestDecoderForward:
    def test_requires_bos(self, vocab):
        dec = tiny_decoder(vocab)
        with pytest.raises(ValueError):
            dec.forward(None, [[0, 1]])

    def test_plain_lm_logits_shape(self, vocab):
        dec = tiny_decoder(vocab)
        out = dec.forward(None, [[vocab.bos_id, 0, 1]])
        assert out.shape == (3, vocab.size)

    def test_length_cap(self, vocab):
        dec = tiny_decoder(vocab, max_len=8)
        with pytest.raises(ValueError):
            dec.forward(None, [[vocab.bos_id] + [0] * 8])

    def test_causal_mask_text_side(self, vocab):
        dec = tiny_decoder(vocab)
        base = [vocab.bos_id, 0, 1, 2, 3]
        ref = dec.forward(None, [base]).data
        changed = list(base)
        changed[3] = 5  # perturb text position 3
        out = dec.forward(None, [changed]).data
        np.testing.assert_array_equal(out[:3], ref[:3])
        assert not np.allclose(out[3:], ref[3:])

    def test_speech_prefix_visible_everywhere(self, vocab):
        dec = tiny_decoder(vocab)
        rng = CounterRng(0)
        speech = rng.normals(4 * 24).reshape(4, 24)
        ref = dec.forward(tt.Tensor(speech), [[vocab.bos_id, 0, 1]], speech_lens=[4]).data
        # a non-constant change to speech row 0 must reach every text position
        direction = CounterRng(1).normals(24)
        direction -= direction.mean()
        moved = speech.copy()
        moved[0] += direction
        out = dec.forward(tt.Tensor(moved), [[vocab.bos_id, 0, 1]], speech_lens=[4]).data
        assert not np.allclose(out[0], ref[0])
        assert not np.allclose(out[-1], ref[-1])
        # the decoder is pre-LN: the residual stream is read only through
        # layer_norm, which removes each row's mean, so a constant shift of a
        # whole speech row leaves the logits unchanged up to float32 rounding
        shifted = speech.copy()
        shifted[0] += 1.0
        out = dec.forward(tt.Tensor(shifted), [[vocab.bos_id, 0, 1]], speech_lens=[4]).data
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-5)

    def test_tied_output_uses_embedding_rows(self, vocab):
        dec = tiny_decoder(vocab)
        # growing one embedding row's norm must move that token's logit
        text = [vocab.bos_id, 3]
        before = dec.forward(None, [text]).data[-1]
        dec.params["emb"].value[5] *= 10.0
        after = dec.forward(None, [text]).data[-1]
        assert before[5] != after[5]

    def test_untied_output_has_separate_matrix(self, vocab):
        dec = tiny_decoder(vocab, tie_output=False)
        assert "out.w" in dec.params
        out = dec.forward(None, [[vocab.bos_id]])
        assert out.shape == (1, vocab.size)


class TestFusedAttention:
    """`_mix_block` with the fused attention op against the per-head oracle."""

    def run_block(self, block, params, heads, causal, drop):
        """Output of one block and the input gradient of a fixed linear probe
        of it; the parameter gradients land in `params`."""
        t, d = 11, 24
        x = tt.Parameter(CounterRng(9).normals(t * d).reshape(t, d), "x")
        probe = tt.Tensor(CounterRng(10).normals(t * d).reshape(t, d))
        tape = tt.GradTape()
        y = block(tape.watch(x), params, "blk0", tape, causal, drop,
                  CounterRng(3).child("drop"), heads)
        tape.backward(reduce_sum(mul(y, probe)))
        return y.data, x.grad

    # measured over these cases in float32: at most 2.3e-7 of the largest
    # magnitude, for the block output and for every gradient
    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-10)])
    @pytest.mark.parametrize("drop", [0.0, 0.1])
    @pytest.mark.parametrize("causal", [False, True])
    @pytest.mark.parametrize("heads", [1, 4])
    def test_matches_per_head_oracle(self, heads, causal, drop, dtype, tol):
        def close(a, b, what):
            err = np.abs(a - b).max() / np.abs(b).max()
            assert err <= tol, f"{what}: {err:.3g}"

        with precision(dtype):
            fused = fresh_block(heads)
            per = per_head_params(fused, heads)
            y, gx = self.run_block(md._mix_block, fused, heads, causal, drop)
            y_ref, gx_ref = self.run_block(mix_block_per_head, per, heads, causal, drop)
        close(y, y_ref, "output")
        close(gx, gx_ref, "input gradient")
        for name, part in split_heads(fused["blk0.wqkv"].grad, fused["blk0.wo"].grad,
                                      heads).items():
            close(part, per[f"blk0.{name}"].grad, name)
        for name, p in per.items():
            if name in fused:
                close(fused[name].grad, p.grad, name)

    def test_one_attention_node_per_block_whatever_the_heads(self):
        def kinds(heads):
            params = fresh_block(heads)
            tape = tt.GradTape()
            md._mix_block(tt.Tensor(np.ones((6, 24))), params, "blk0", tape, True, 0.0,
                          None, heads)
            return [tt._op_kind(b) for b in tape._backward if b is not None]

        assert kinds(4) == kinds(1)
        assert kinds(4).count("attention") == 1

    @pytest.mark.parametrize("make", ["encoder", "decoder"])
    def test_fresh_parameters_are_the_per_head_draws_stacked(self, vocab, make):
        # each head is drawn from the rng child of its per-head name, with
        # the per-head scale: 1/sqrt(d) for wq, wk, wv and 1/sqrt(d/H) for wo
        if make == "encoder":
            model, stream, width, heads = tiny_encoder(vocab, seed=3), 0xE4C0, 24, 1
        else:
            model, stream, width, heads = tiny_decoder(vocab, seed=3, heads=4), 0xD3C0, 24, 4
        rng = CounterRng(3, stream=stream)
        hd = width // heads
        p = model.params
        assert not [n for n in p if ".h0." in n]
        parts = split_heads(p["blk0.wqkv"].value, p["blk0.wo"].value, heads)
        for j in range(heads):
            for nm, shape in (("wq", (width, hd)), ("wk", (width, hd)), ("wv", (width, hd)),
                              ("wo", (hd, width))):
                draw = rng.child(f"blk0.h{j}.{nm}").normals(shape[0] * shape[1])
                expect = (draw.reshape(shape) * (1.0 / math.sqrt(shape[0]))).astype(np.float32)
                assert parts[f"h{j}.{nm}"].tobytes() == expect.tobytes(), f"h{j}.{nm}"


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_initial_weight_is_its_own_streams_draw(self, vocab, dtype):
        # each weight outside the attention heads is the normals of the rng
        # child of its name times its scale; gains are 1 and biases 0
        w, d, ffn, v = 24, 16, 48, vocab.size
        with precision(dtype):
            enc = tiny_encoder(vocab, seed=3)
            dec = tiny_decoder(vocab, seed=4, dim=d, heads=4, blocks=2, tie_output=False)
            extras = {}
            for mode, conn in (("sp", ConnectorConfig()), ("adapter", ConnectorConfig()),
                               ("topP", ConnectorConfig(k=3))):
                extras.update(md.build_system(mode, enc, dec, conn, seed=6).extra)
        drawn = [
            (enc.params, 3, 0xE4C0, {
                "conv1.w": ((24, w), 1 / math.sqrt(24)), "conv2.w": ((3 * w, w), 1 / math.sqrt(3 * w)),
                "blk0.w1": ((w, ffn), 1 / math.sqrt(w)), "blk0.w2": ((ffn, w), 1 / math.sqrt(ffn)),
                "out.w": ((w, v + 1), 1 / math.sqrt(w))}),
            (dec.params, 4, 0xD3C0, {
                "emb": ((v + 1, d), 0.3), "pos": ((96, d), 0.02), "out.w": ((d, v), 1 / math.sqrt(d)),
                **{f"blk{i}.{nm}": (shape, 1 / math.sqrt(shape[0])) for i in range(2)
                   for nm, shape in (("w1", (d, 48)), ("w2", (48, d)))}}),
            (extras, 6, 0xE27A, {
                "sp.proj": ((w, d), 1 / math.sqrt(w)), "adapter.table": ((v + 1, d), 0.02),
                "topp.proj": ((3 * d, d), 1 / math.sqrt(3 * d))}),
        ]
        for params, seed, stream, weights in drawn:
            rng = CounterRng(seed, stream=stream)
            for name, p in params.items():
                assert p.value.dtype == dtype
                if name in weights:
                    shape, scale = weights[name]
                    draw = rng.child(name).normals(math.prod(shape)).reshape(shape) * scale
                    assert p.value.tobytes() == draw.astype(dtype).tobytes(), name
                elif name.endswith(("g", "b", ".b1", ".b2")):
                    assert (p.value == float(name.endswith("g"))).all(), name
                else:
                    assert name.endswith((".wqkv", ".wo")), name
            assert set(weights) <= set(params)


class TestSpProject:
    def test_zero_projection(self):
        h = tt.Tensor(np.ones((3, 4)))
        out = md.sp_project(h, tt.Tensor(np.zeros((4, 6))))
        assert np.abs(out.data).max() == 0.0

    def test_identity_passthrough(self):
        h = tt.Tensor(np.arange(12, dtype=np.float64).reshape(3, 4))
        out = md.sp_project(h, tt.Tensor(np.eye(4)))
        np.testing.assert_array_equal(out.data, h.data)

    def test_matches_manual_matmul(self):
        rng = CounterRng(8)
        h = rng.normals(12).reshape(3, 4)
        w = rng.normals(20).reshape(4, 5)
        out = md.sp_project(tt.Tensor(h), tt.Tensor(w))
        manual = tt.Tensor(h).data.astype(np.float64) @ tt.Tensor(w).data.astype(np.float64)
        np.testing.assert_allclose(out.data, manual.astype(np.float32), atol=1e-6)


class TestAecInput:
    def nbest(self):
        return NBestList((((0, 1), -0.1), ((0, 2), -0.9), ((3,), -1.4)),
                         beam_size=8, n=3)

    def test_sep_joined_in_score_order(self, vocab):
        out = md.aec_build_input(self.nbest(), 2, vocab)
        assert out == (0, 1, vocab.sep_id, 0, 2)

    def test_top1_has_no_sep(self, vocab):
        assert md.aec_build_input(self.nbest(), 1, vocab) == (0, 1)

    def test_n_larger_than_available_rejected(self, vocab):
        with pytest.raises(ValueError):
            md.aec_build_input(self.nbest(), 4, vocab)

    def test_empty_list_rejected(self, vocab):
        with pytest.raises(ValueError):
            md.aec_build_input(NBestList((), beam_size=1, n=1), 1, vocab)

    def test_teacher_forcing_stream_framing(self, vocab):
        sys_ = md.DecoderSystem(decoder=tiny_decoder(vocab), mode="aec",
                                conn=ConnectorConfig(), aec_n=1)
        text, targets, mask = md.teacher_forcing_example(
            sys_, vocab, (4, 5), self.nbest()
        )
        # bos ++ hyp ++ eos ++ target, loss on target ++ eos only
        assert text == [vocab.bos_id, 0, 1, vocab.eos_id, 4, 5]
        assert list(targets) == [0, 1, vocab.eos_id, 4, 5, vocab.eos_id]
        assert list(mask) == [0, 0, 0, 1, 1, 1]


class TestGenerate:
    def overfit_system(self, micro, vocab, utts, steps=260):
        _, train, dev, _ = micro
        enc = tiny_encoder(vocab)
        dec = tiny_decoder(vocab, dim=32, ffn=64, blocks=2, heads=1)
        sysm = md.build_system("lego", enc, dec, ConnectorConfig(), seed=0)
        cfg = md.TrainConfig(steps=steps, batch_size=len(utts), lr=4e-3, warmup=20,
                             dropout=0.0, eval_every=0, augment=None)
        md.adapt_decoder(sysm, enc, vocab, utts, utts, cfg)
        return sysm, enc

    def test_overfit_reproduces_references(self, micro, vocab):
        utts = micro[1][:5]
        sysm, enc = self.overfit_system(micro, vocab, utts)
        frames = [utt.frames for utt in utts]
        outs = md.generate(sysm, md.conditioning(sysm, enc, frames), [[vocab.bos_id]] * len(utts),
                           max_new=12, speech_lens=[enc.out_len(f.shape[0]) for f in frames])
        assert outs == [utt.target for utt in utts]

    def test_max_new_one_gives_single_token(self, micro, vocab):
        utts = micro[1][:2]
        sysm, enc = self.overfit_system(micro, vocab, utts, steps=40)
        speech = md.conditioning(sysm, enc, [utts[0].frames])
        [out] = md.generate(sysm, speech, [[vocab.bos_id]], max_new=1,
                            speech_lens=[speech.shape[0]])
        assert len(out) <= 1


class TestAdaptation:
    @pytest.mark.parametrize("mode", tuple(md.CONNECTIONS))
    def test_every_mode_reduces_dev_loss_and_freezes_encoder(self, micro, vocab, mode):
        _, train, dev, _ = micro
        enc, _ = (tiny_encoder(vocab), None)
        cfg0 = md.TrainConfig(steps=120, batch_size=4, lr=4e-3, warmup=10,
                              eval_every=0, augment=None)
        md.train_encoder_ctc(enc, train, dev, cfg0, vocab.blank_id)
        digest = params_digest(enc.params)

        dec = tiny_decoder(vocab)
        conn = ConnectorConfig(k=3 if mode in ("topS", "topP") else None)
        sysm = md.build_system(mode, enc, dec, conn, seed=0, aec_n=2)
        cache = None
        if mode == "aec":
            cache = build_aec_cache(enc, list(train) + list(dev), beam=8, n=2)
        cfg = md.TrainConfig(steps=60, batch_size=4, lr=2e-3, warmup=10,
                             dropout=0.1, eval_every=0, augment=None)
        log = md.adapt_decoder(sysm, enc, vocab, train, dev, cfg, aec_cache=cache)
        assert log.final_dev_loss < log.initial_dev_loss
        assert params_digest(enc.params) == digest

    @pytest.mark.parametrize("mode", ["lego", "sp", "topP"])
    def test_encoder_output_cache_is_only_an_optimisation(self, micro, vocab, trained_encoder,
                                                          mode):
        # masks that mask nothing re-run the encoder every step; augment=None
        # reads each utterance's encoder output from the cache
        _, train, dev, _ = micro
        enc, _ = trained_encoder
        runs = []
        for augment in (MaskConfig(time_masks=0, freq_masks=0), None):
            sysm = md.build_system(mode, enc, tiny_decoder(vocab),
                                   ConnectorConfig(k=3 if mode == "topP" else None), seed=0)
            cfg = md.TrainConfig(steps=8, batch_size=4, lr=2e-3, warmup=2, dropout=0.1,
                                 eval_every=4, log_every=1, dev_subset=4, augment=augment)
            log = md.adapt_decoder(sysm, enc, vocab, train, dev, cfg)
            runs.append((log.to_csv(), log.final_dev_loss,
                         params_digest({**sysm.decoder.params, **sysm.extra})))
        assert runs[0] == runs[1]

    def test_lego_star_pins_blank_downscale(self, micro, vocab):
        enc = tiny_encoder(vocab)
        sysm = md.build_system("lego_star", enc, tiny_decoder(vocab))
        assert sysm.conn.blk_downscale == 1e4
        assert sysm.connection.prefix is md.CONNECTIONS["lego"].prefix

    def test_aec_without_cache_rejected(self, micro, vocab):
        _, train, dev, _ = micro
        enc = tiny_encoder(vocab)
        sysm = md.build_system("aec", enc, tiny_decoder(vocab))
        with pytest.raises(ValueError):
            md.adapt_decoder(sysm, enc, vocab, train, dev, md.TrainConfig(steps=1))

    def test_topp_without_projection_rejected(self, micro, vocab):
        _, train, dev, _ = micro
        enc = tiny_encoder(vocab)
        sysm = md.DecoderSystem(decoder=tiny_decoder(vocab), mode="topP",
                                conn=ConnectorConfig(k=2))
        with pytest.raises(ValueError):
            md.adapt_decoder(sysm, enc, vocab, train, dev, md.TrainConfig(steps=1))

    def test_unknown_mode_rejected(self, micro, vocab):
        enc = tiny_encoder(vocab)
        with pytest.raises(ValueError):
            md.build_system("nope", enc, tiny_decoder(vocab))

    def test_gradient_reaches_embedding_through_both_paths(self, vocab):
        # 2-frame, 3-token instance: d loss / d E gets reconstruction and
        # text-lookup contributions; check the whole thing against central
        # differences
        with precision(np.float64):
            enc = tiny_encoder(vocab)
            dec = tiny_decoder(vocab)
            sysm = md.build_system("lego", enc, dec, ConnectorConfig(), seed=0)
            frames = np.asarray(CounterRng(4).normals(8 * 8).reshape(8, 8))
            text = [vocab.bos_id, 0, 1, 2]
            targets = np.array([0, 1, 2, vocab.eos_id])
            z = md.encoder_readout("logits", enc, [frames])[0]

            emb = dec.params["emb"]

            def loss_with(table_tensor) -> tt.Tensor:
                from ctcbridge.connector import reconstruct_full
                speech = reconstruct_full(tt.Tensor(z), table_tensor, sysm.conn,
                                          at_inference=False)
                text_emb = tt.gather_rows(table_tensor, text)
                seq = tt.concat_rows([speech, text_emb])
                pos = tt.slice_rows(
                    tt.Tensor(dec.params["pos"].value), 0, seq.shape[0]
                )
                x = tt.add(seq, pos)
                for i in range(dec.cfg.blocks):
                    x = md._mix_block(x, dec.params, f"blk{i}", None, True, 0.0, None,
                                      heads=dec.cfg.heads)
                h = tt.layer_norm(x, tt.Tensor(dec.params["lnfg"].value),
                                  tt.Tensor(dec.params["lnfb"].value))
                h_text = tt.slice_rows(h, speech.shape[0], seq.shape[0])
                logits = tt.matmul(h_text, tt.transpose(
                    tt.slice_rows(table_tensor, 0, vocab.size)))
                return tt.cross_entropy(logits, targets)

            err = finite_diff_check(loss_with, emb.value, h=1e-4)
        assert err < 1e-3


class TestAdam:
    def test_descends_quadratic(self):
        # f(x) = |x|^2; md.Adam must follow a textbook Adam step for step
        lr, total, warmup, b1, b2, eps = 0.1, 200, 0, 0.9, 0.999, 1e-8
        p = tt.Parameter(np.array([5.0, -3.0]))
        opt = md.Adam([p], lr=lr, total_steps=total, warmup=warmup, betas=(b1, b2), eps=eps)
        # Parameter stores float32, so the reference runs in p.value.dtype too
        x = p.value.copy()
        m = np.zeros_like(x)
        v = np.zeros_like(x)
        peaks = [np.abs(x).max()]
        for t in range(1, total + 1):
            opt.zero_grad()
            p.grad[...] = 2 * p.value
            opt.step()
            if t <= warmup:
                rate = lr * t / warmup
            else:
                rate = lr * 0.5 * (1.0 + math.cos(math.pi * (t - warmup) / (total - warmup)))
            g = 2 * x
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            x = x - (rate * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)).astype(x.dtype)
            np.testing.assert_allclose(p.value, x, rtol=1e-6, err_msg=f"step {t}")
            peaks.append(np.abs(p.value).max())
        assert all(later <= earlier for earlier, later in zip(peaks, peaks[1:]))
        assert peaks[-1] < peaks[0] / 100

    def test_cosine_schedule_endpoints(self):
        opt = md.Adam([tt.Parameter(np.zeros(1))], lr=1.0, total_steps=100, warmup=10)
        assert opt.lr_at(5) == pytest.approx(0.5)
        assert opt.lr_at(10) == pytest.approx(1.0)
        assert opt.lr_at(100) == pytest.approx(0.0, abs=1e-9)

    def test_non_finite_step_writes_nothing(self):
        p, q = tt.Parameter(np.array([1.0]), "p"), tt.Parameter(np.array([1.0]), "q")
        opt = md.Adam([p, q], lr=1e38, total_steps=10)
        p.grad[...] = 1.0
        q.grad[...] = 10.0  # lr * 10 overflows float32
        with pytest.raises(tt.NonFiniteError, match="the Adam update of 'q'"), \
                pytest.warns(RuntimeWarning, match="overflow"):
            opt.step()
        q.grad[...] = np.nan
        with pytest.raises(tt.NonFiniteError, match="the gradient of 'q'"):
            opt.step()
        assert (p.value[0], q.value[0], opt.t) == (1.0, 1.0, 0)
        assert not any(m.any() or v.any() for m, v in zip(opt._m, opt._v))


def _old_relu(a):
    """relu as np.where(a > 0, a, 0), which maps NaN to 0."""
    mask = a.data > 0
    return tt._emit(a.tape, np.where(mask, a.data, 0), (a.nid,), lambda g: (g * mask,))


class TestBoundaryChecks:
    """Op outputs are not scanned, so a non-finite value put into the output
    of any op of a training step must still reach a boundary check."""

    def one_step(self, micro, vocab, kind):
        _, train, dev, _ = micro
        enc = tiny_encoder(vocab)
        cfg = md.TrainConfig(steps=1, batch_size=1, lr=1e-3, warmup=0, eval_every=0,
                             augment=None)
        if kind == "encoder":
            return lambda: md.train_encoder_ctc(enc, train[:1], dev[:1], cfg, vocab.blank_id)
        sysm = md.build_system("lego", enc, tiny_decoder(vocab), ConnectorConfig(), seed=0)
        return lambda: md.adapt_decoder(sysm, enc, vocab, train[:1], dev[:1], cfg)

    def missed(self, monkeypatch, step, value):
        """Kinds of the taped ops whose output, replaced by `value`, no check caught."""
        real = tt._emit
        taped = []

        def emit(tape, data, parents=(), backward=None):
            out = real(tape, data, parents, backward)
            if tape is not None:
                if len(taped) == target:
                    out.data = np.full_like(out.data, value)
                taped.append(tt._op_kind(backward))
            return out

        monkeypatch.setattr(tt, "_emit", emit)
        target = -1
        step()  # count the taped ops of a clean step
        kinds = list(taped)
        missed = []
        for target in range(len(kinds)):
            taped.clear()
            try:
                step()
            except md.TrainingDiverged:
                continue
            missed.append(kinds[target])
        return kinds, missed

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("kind", ["encoder", "adapt"])
    def test_every_op_output_reaches_a_check(self, micro, vocab, monkeypatch, kind, value):
        kinds, missed = self.missed(monkeypatch, self.one_step(micro, vocab, kind), value)
        # attention is one op with its softmax inside; the connector's softmax
        # reads the frozen encoder's constant logits, so it is not taped
        assert {"matmul", "relu", "layer_norm", "attention"} <= set(kinds)
        assert missed == []

    @pytest.mark.parametrize("kind", ["encoder", "adapt"])
    def test_nan_swallowing_relu_escapes_the_checks(self, micro, vocab, monkeypatch, kind):
        monkeypatch.setattr(tt, "relu", _old_relu)
        _, missed = self.missed(monkeypatch, self.one_step(micro, vocab, kind), np.nan)
        assert missed
