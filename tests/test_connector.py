from dataclasses import replace

import numpy as np
import pytest

from ctcbridge import models as md
from ctcbridge import tensor as tt
from ctcbridge.connector import (
    ConnectorConfig,
    blank_downscale,
    reconstruct_full,
    reconstruct_topP,
)
from ctcbridge.rng import CounterRng
from ctcbridge.synthdata import build_vocabulary
from tape_ops import finite_diff_check, mul, reduce_sum


V, D, T = 6, 5, 4
WIDTH = V + 1


@pytest.fixture
def rng():
    return CounterRng(42)


@pytest.fixture
def table(rng):
    return tt.Tensor(rng.child("table").normals(WIDTH * D).reshape(WIDTH, D))


@pytest.fixture
def z(rng):
    return tt.Tensor(rng.child("z").normals(T * WIDTH).reshape(T, WIDTH) * 2.0)


@pytest.fixture
def parts():
    """An encoder with WIDTH output slots (hidden width 4) and a D-dim decoder over V."""
    enc = md.SpeechEncoder(md.EncoderConfig(feat_dim=2, out_slots=WIDTH, width=4, ffn=4,
                                            blocks=0), seed=0)
    dec = md.DecoderLM(md.DecoderConfig(vocab=V, dim=D, ffn=4, blocks=0, heads=1),
                       build_vocabulary(V), seed=0)
    return enc, dec


class TestConfig:
    def test_defaults(self):
        cfg = ConnectorConfig()
        assert cfg.tau == 1.0 and cfg.blk_downscale == 1.0 and cfg.k is None

    def test_validation(self):
        for bad in ({"tau": 0.0}, {"tau": float("nan")}, {"tau": float("inf")},
                    {"blk_downscale": 0.5},
                    {"blk_downscale": float("nan")}, {"blk_downscale": float("inf")},
                    {"k": 0}, {"k": -1}, {"k": "2"}, {"k": True}):
            with pytest.raises(ValueError):
                ConnectorConfig(**bad)
        with pytest.raises(TypeError):
            ConnectorConfig(mode="full")  # modes are registry entries, not connector fields
        with pytest.raises(TypeError):
            ConnectorConfig(apply_tau_at="always")  # tau applies at inference only

    def test_tau_held_back_during_training(self, z, table):
        cfg = ConnectorConfig(tau=2.0)
        plain = reconstruct_full(z, table, ConnectorConfig()).data
        assert reconstruct_full(z, table, cfg, at_inference=False).data.tobytes() == plain.tobytes()
        hot = tt.matmul(tt.softmax(z, tau=2.0), table).data
        assert reconstruct_full(z, table, cfg, at_inference=True).data.tobytes() == hot.tobytes()
        assert hot.tobytes() != plain.tobytes()


class TestBlankDownscale:
    def test_factor_one_is_identity(self, z):
        assert blank_downscale(z, 1.0) is z

    def test_shifts_blank_by_log_factor(self, z):
        out = blank_downscale(z, 1e4)
        np.testing.assert_allclose(
            z.data[:, -1] - out.data[:, -1], np.log(1e4), rtol=1e-5
        )
        np.testing.assert_array_equal(out.data[:, :-1], z.data[:, :-1])

    def test_factor_below_one_rejected(self, z):
        with pytest.raises(ValueError):
            blank_downscale(z, 0.99)

    def test_huge_factor_kills_blank_mass(self, z, table):
        cfg = ConnectorConfig(blk_downscale=1e12)
        out = reconstruct_full(z, table, cfg)
        p_nb = tt.softmax(tt.Tensor(z.data[:, :V])).data
        manual = p_nb @ table.data[:V]
        np.testing.assert_allclose(out.data, manual, atol=1e-6)


class TestReconstructFull:
    def test_saturated_softmax_returns_row(self, table):
        logits = np.zeros((1, WIDTH))
        logits[0, 3] = 40.0
        out = reconstruct_full(tt.Tensor(logits), table, ConnectorConfig())
        np.testing.assert_allclose(out.data[0], table.data[3], atol=1e-6)

    def test_huge_tau_gives_column_mean(self, z, table):
        out = reconstruct_full(z, table, ConnectorConfig(tau=1e6))
        np.testing.assert_allclose(out.data, table.data.mean(axis=0)[None, :].repeat(T, 0),
                                   atol=1e-4)

    def test_width_mismatch_rejected(self, z):
        with pytest.raises(ValueError):
            reconstruct_full(z, tt.Tensor(np.zeros((WIDTH + 1, D))), ConnectorConfig())

    def test_linear_in_table(self, z, rng):
        cfg = ConnectorConfig(blk_downscale=3.0, tau=0.7)
        e1 = rng.child("e1").normals(WIDTH * D).reshape(WIDTH, D)
        e2 = rng.child("e2").normals(WIDTH * D).reshape(WIDTH, D)
        a, b = 0.3, -1.7
        lhs = reconstruct_full(z, tt.Tensor(a * e1 + b * e2), cfg).data
        rhs = a * reconstruct_full(z, tt.Tensor(e1), cfg).data \
            + b * reconstruct_full(z, tt.Tensor(e2), cfg).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-5)

    def test_gradient_wrt_table(self, z):
        cfg = ConnectorConfig(blk_downscale=2.0)

        def f(et):
            return reduce_sum(reconstruct_full(z, et, cfg))

        assert finite_diff_check(f, np.ones((WIDTH, D)) * 0.3) < 1e-3

    def test_gradient_outer_product_structure(self, z, table):
        # d s_t / d E[i] = o_t[i] * I, checked through the tape
        p = tt.Parameter(table.data)
        tape = tt.GradTape()
        out = reconstruct_full(z, tape.watch(p), ConnectorConfig())
        # pick out s_2[1]: gradient wrt E should be o_2 on column 1
        probe = np.zeros((T, D))
        probe[2, 1] = 1.0
        tape.backward(reduce_sum(mul(out, tt.Tensor(probe))))
        o = tt.softmax(z).data
        np.testing.assert_allclose(p.grad[:, 1], o[2], atol=1e-6)
        assert np.abs(np.delete(p.grad, 1, axis=1)).max() == 0.0


class TestTopS:
    def test_full_k_equals_full(self, z, table):
        cfg = ConnectorConfig()
        full = reconstruct_full(z, table, cfg).data
        tops = reconstruct_full(z, table, cfg, k=WIDTH).data
        np.testing.assert_allclose(tops, full, atol=1e-6)

    def test_k1_is_argmax_row_exact(self, z, table):
        out = reconstruct_full(z, table, ConnectorConfig(), k=1)
        rows = table.data[np.argmax(z.data, axis=1)]
        np.testing.assert_array_equal(out.data, rows)

    def test_k2_matches_masking_oracle(self, z, table):
        cfg = ConnectorConfig()
        out = reconstruct_full(z, table, cfg, k=2).data
        masked = z.data.copy()
        for t in range(T):
            keep = np.argsort(-masked[t], kind="stable")[:2]
            row = np.full(WIDTH, tt.LOG_ZERO)
            row[keep] = masked[t, keep]
            masked[t] = row
        oracle = reconstruct_full(tt.Tensor(masked), table, cfg).data
        np.testing.assert_allclose(out, oracle, atol=1e-6)

    def test_k_out_of_range(self, z, table, parts):
        for bad in (0, WIDTH + 1):
            with pytest.raises(ValueError):
                reconstruct_full(z, table, ConnectorConfig(), k=bad)
        enc, dec = parts
        for bad in (None, 0, WIDTH + 1):
            with pytest.raises(ValueError):
                md.build_system("topS", enc, dec, ConnectorConfig(k=bad))

    def test_gradient_wrt_table(self, z):
        def f(et):
            return reduce_sum(reconstruct_full(z, et, ConnectorConfig(), k=3))

        assert finite_diff_check(f, np.full((WIDTH, D), 0.2)) < 1e-3


class TestTopP:
    def test_k1_identity_projection(self, z, table):
        out = reconstruct_topP(z, table, 1, tt.Tensor(np.eye(D)), ConnectorConfig())
        rows = table.data[np.argmax(z.data, axis=1)]
        np.testing.assert_allclose(out.data, rows, atol=1e-6)

    def test_zero_projection(self, z, table):
        out = reconstruct_topP(z, table, 2, tt.Tensor(np.zeros((2 * D, D))), ConnectorConfig())
        assert np.abs(out.data).max() == 0.0

    def test_matches_manual_concat(self, z, table, rng):
        k = 3
        proj = rng.child("proj").normals(k * D * D).reshape(k * D, D)
        out = reconstruct_topP(z, table, k, tt.Tensor(proj), ConnectorConfig())
        proj32 = tt.Tensor(proj).data.astype(np.float64)
        for t in range(T):
            idx = np.argsort(-z.data[t], kind="stable")[:k]
            manual = table.data[idx].reshape(-1).astype(np.float64) @ proj32
            np.testing.assert_allclose(out.data[t], manual, atol=1e-5)

    def test_shape_mismatch_rejected(self, z, table):
        with pytest.raises(ValueError):
            reconstruct_topP(z, table, 2, tt.Tensor(np.zeros((D, D))), ConnectorConfig())

    def test_gradient_wrt_projection(self, z, table):
        def f(p):
            return reduce_sum(reconstruct_topP(z, table, 2, p, ConnectorConfig()))

        assert finite_diff_check(f, np.full((2 * D, D), 0.1)) < 1e-3


class TestAdapter:
    """The adapter entry is full reconstruction against its own table."""

    def test_degenerate_match_equals_full(self, z, parts):
        enc, dec = parts
        lego = md.build_system("lego", enc, dec)
        adapter = md.build_system("adapter", enc, dec)
        adapter.extra["adapter.table"].value[...] = dec.params["emb"].value
        np.testing.assert_array_equal(
            md.conditioning(adapter, enc, None, enc_out=[z.data]).data,
            md.conditioning(lego, enc, None, enc_out=[z.data]).data,
        )

    def test_onehot_returns_adapter_row(self, rng):
        adapter = tt.Tensor(rng.child("a").normals(4 * D).reshape(4, D))
        logits = np.zeros((1, 4))
        logits[0, 2] = 40.0
        out = reconstruct_full(tt.Tensor(logits), adapter, ConnectorConfig())
        np.testing.assert_allclose(out.data[0], adapter.data[2], atol=1e-6)

    def test_gradient_wrt_adapter(self, z):
        def f(at):
            return reduce_sum(reconstruct_full(z, at, ConnectorConfig()))

        assert finite_diff_check(f, np.full((WIDTH, D), 0.4)) < 1e-3


class TestOrderOfOperations:
    def test_nonblank_argmax_invariant_to_knobs(self, z, table):
        base = None
        for tau in (1e-4, 0.5, 1.0, 2.0, 1e4):
            for blk in (1.0, 10.0, 1e4, 1e12):
                zd = blank_downscale(z, blk)
                probs = tt.softmax(zd, tau=tau).data
                am = np.argmax(probs[:, :V], axis=1)
                if base is None:
                    base = am
                np.testing.assert_array_equal(am, base)

    def test_downscale_applied_before_temperature(self, z, table):
        # with the documented order, tau rescales the downscaled gap:
        # logit gap between blank and a token shrinks by log(blk)/tau
        tau, blk = 2.0, 100.0
        cfg = ConnectorConfig(tau=tau, blk_downscale=blk)
        zd = blank_downscale(z, blk)
        expect = tt.softmax(zd, tau=tau).data
        # the fused entry point applies them in that order
        full = reconstruct_full(z, table, cfg).data
        np.testing.assert_allclose(full, expect @ table.data.astype(np.float64), atol=1e-5)

    def test_dispatch(self, z, rng, parts):
        # every registry entry's prefix is the connector call it stands for
        enc, dec = parts
        table = tt.Tensor(dec.params["emb"].value)
        cfg = ConnectorConfig(tau=0.7, blk_downscale=3.0, k=2)
        hidden = rng.child("h").normals(T * 4).reshape(T, 4)
        direct = {
            "lego": lambda s: reconstruct_full(z, table, cfg),
            "lego_star": lambda s: reconstruct_full(z, table, replace(cfg, blk_downscale=1e4)),
            "topS": lambda s: reconstruct_full(z, table, cfg, k=2),
            "topP": lambda s: reconstruct_topP(z, table, 2, tt.Tensor(s.extra["topp.proj"].value),
                                               cfg),
            "adapter": lambda s: reconstruct_full(
                z, tt.Tensor(s.extra["adapter.table"].value), cfg),
            "sp": lambda s: md.sp_project(tt.Tensor(hidden), tt.Tensor(s.extra["sp.proj"].value)),
        }
        for mode, expect in direct.items():
            s = md.build_system(mode, enc, dec, cfg)
            enc_out = hidden if s.connection.reads == "hidden" else z.data
            got = md.conditioning(s, enc, None, enc_out=[enc_out])
            np.testing.assert_array_equal(got.data, expect(s).data)
        assert md.conditioning(md.build_system("aec", enc, dec, cfg), enc, None) is None
        with pytest.raises(ValueError):  # projection missing
            md.check_system(md.DecoderSystem(dec, "topP", cfg), enc.cfg)
