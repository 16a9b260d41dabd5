import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import step_oracles as oracle
from ctcbridge import tensor as tt
from ctcbridge.rng import CounterRng
from tape_ops import finite_diff_check, log_softmax, logaddexp, logsumexp, mul, reduce_sum, shift


def entropy(p):
    p = np.asarray(p, dtype=np.float64)
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        out = tt.softmax(tt.Tensor([[0.0, 0.0, 0.0]])).data
        np.testing.assert_allclose(out, 1.0 / 3.0, atol=1e-7)

    def test_closed_form_half_temperature(self):
        # z/tau = [0, ln 16] -> [1/17, 16/17]
        out = tt.softmax(tt.Tensor([[0.0, np.log(4.0)]]), tau=0.5).data
        np.testing.assert_allclose(out, [[1 / 17, 16 / 17]], atol=1e-6)

    def test_infinite_temperature_limit(self):
        out = tt.softmax(tt.Tensor([[5.0, -2.0, 9.0]]), tau=1e6).data
        np.testing.assert_allclose(out, 1.0 / 3.0, atol=1e-5)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError):
            tt.softmax(tt.Tensor([[1.0, 2.0]]), tau=0.0)
        with pytest.raises(ValueError):
            tt.softmax(tt.Tensor([[1.0, 2.0]]), tau=-1.0)

    @given(
        st.lists(st.floats(-30, 30), min_size=2, max_size=8),
        st.sampled_from([1e-4, 1e-2, 0.5, 1.0, 2.0, 1e2, 1e4]),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one(self, logits, tau):
        out = tt.softmax(tt.Tensor([logits]), tau=tau).data
        assert abs(out.sum() - 1.0) <= 1e-6
        assert out.min() >= 0.0

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_entropy_nondecreasing_in_tau(self, logits):
        taus = [1e-3, 0.1, 0.5, 1.0, 2.0, 10.0, 1e3]
        ents = [entropy(tt.softmax(tt.Tensor([logits]), tau=t).data[0]) for t in taus]
        for lo, hi in zip(ents, ents[1:]):
            assert hi >= lo - 1e-6


class TestLogSpace:
    @given(st.lists(st.floats(-20, 20), min_size=1, max_size=8),
           st.floats(-50, 50))
    @settings(max_examples=60, deadline=None)
    def test_logsumexp_shift_invariance(self, xs, c):
        base = logsumexp(tt.Tensor(xs)).item()
        shifted = logsumexp(tt.Tensor([x - c for x in xs])).item() + c
        assert abs(base - shifted) <= 1e-4 * max(1.0, abs(base))

    def test_logaddexp_against_numpy(self):
        a = tt.Tensor([0.0, -1.0, tt.LOG_ZERO])
        b = tt.Tensor([0.0, 2.0, 0.5])
        out = logaddexp(a, b).data
        np.testing.assert_allclose(out[:2], np.logaddexp([0.0, -1.0], [0.0, 2.0]), rtol=1e-6)
        assert out[2] == pytest.approx(0.5)

    def test_log_zero_is_finite_inert(self):
        out = logaddexp(tt.Tensor([tt.LOG_ZERO]), tt.Tensor([tt.LOG_ZERO])).data
        assert np.isfinite(out).all()


class TestBackward:
    def test_square_gradient(self):
        p = tt.Parameter(np.array([3.0]))
        tape = tt.GradTape()
        x = tape.watch(p)
        tape.backward(reduce_sum(mul(x, x)))
        np.testing.assert_allclose(p.grad, [6.0], rtol=1e-6)

    def test_cross_entropy_softmax_identity(self):
        # d/dz of CE(softmax(z), onehot y) is p - y
        z = np.array([[0.3, -1.2, 2.0]])
        p = tt.Parameter(z)
        tape = tt.GradTape()
        zt = tape.watch(p)
        tape.backward(tt.cross_entropy(zt, [2]))
        expect = tt.softmax(tt.Tensor(z)).data[0] - np.array([0.0, 0.0, 1.0])
        np.testing.assert_allclose(p.grad[0], expect, atol=1e-6)

    def test_second_backward_rejected(self):
        p = tt.Parameter(np.array([1.0]))
        tape = tt.GradTape()
        loss = reduce_sum(tape.watch(p))
        tape.backward(loss)
        with pytest.raises(RuntimeError):
            tape.backward(loss)

    def test_non_scalar_loss_rejected(self):
        p = tt.Parameter(np.array([1.0, 2.0]))
        tape = tt.GradTape()
        x = tape.watch(p)
        with pytest.raises(ValueError):
            tape.backward(mul(x, 2.0))

    def test_grad_accumulates_across_tapes(self):
        p = tt.Parameter(np.array([2.0]))
        for _ in range(3):
            tape = tt.GradTape()
            tape.backward(reduce_sum(tape.watch(p)))
        np.testing.assert_allclose(p.grad, [3.0])

    def test_backward_frees_gradients_as_it_goes(self):
        # each relu hands its gradient on and drops it, so the pass holds a
        # couple of [64, 64] gradients at a time, not one per op
        def peak(ops: int) -> int:
            tape = tt.GradTape()
            x = tape.watch(tt.Parameter(np.ones((64, 64))))
            for _ in range(ops):
                x = tt.relu(x)
            loss = reduce_sum(x)
            tracemalloc.start()
            try:
                tape.backward(loss)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(400) < 2 * peak(40)

    def test_mean_of_scalars(self):
        ps = [tt.Parameter(np.array(v)) for v in (1.0, 2.0, 6.0)]
        tape = tt.GradTape()
        loss = tt.mean([tape.watch(p) for p in ps])
        assert loss.item() == 3.0
        tape.backward(loss)
        np.testing.assert_allclose([p.grad for p in ps], [1 / 3] * 3, rtol=1e-7)
        with pytest.raises(ValueError):
            tt.mean([])
        with pytest.raises(ValueError):
            tt.mean([tt.Tensor(np.ones(2))])

    def test_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        w1 = rng.normal(size=(5, 8))
        w2 = rng.normal(size=(8, 4))
        w3 = rng.normal(size=(4, 1))

        def f(x):
            h1 = tt.relu(tt.matmul(x, tt.Tensor(w1)))
            h2 = tt.relu(tt.matmul(h1, tt.Tensor(w2)))
            return reduce_sum(tt.matmul(h2, tt.Tensor(w3)))

        err = finite_diff_check(f, rng.normal(size=(3, 5)), h=1e-4)
        assert err < 1e-3


class TestFiniteDiffCheck:
    def test_sum_gradient_is_ones(self):
        err = finite_diff_check(lambda x: reduce_sum(x), np.ones((2, 3)))
        assert err < 1e-7

    def test_logsumexp_symmetric_point(self):
        err = finite_diff_check(lambda x: logsumexp(x), np.array([0.0, 0.0]))
        assert err < 1e-5

    def test_h_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_check(lambda x: reduce_sum(x), np.ones(2), h=1.0)


class TestOpsGradients:
    """Every composite op used downstream agrees with central differences."""

    CASES = {
        "layer_norm": lambda x: reduce_sum(
            tt.layer_norm(x, tt.Tensor(np.linspace(0.5, 1.5, 4)), tt.Tensor(np.zeros(4)))
        ),
        "softmax": lambda x: reduce_sum(
            mul(tt.softmax(x), tt.Tensor(np.arange(8.0).reshape(2, 4)))
        ),
        "log_softmax": lambda x: reduce_sum(
            mul(log_softmax(x), tt.Tensor(np.arange(8.0).reshape(2, 4)))
        ),
        "gather_rows": lambda x: reduce_sum(tt.gather_rows(x, [1, 0, 1])),
        "transpose_matmul": lambda x: reduce_sum(
            tt.matmul(tt.transpose(x), tt.Tensor(np.ones((2, 3))))
        ),
        "slice_concat": lambda x: reduce_sum(
            tt.concat_rows([tt.slice_rows(x, 1, 2), tt.slice_rows(x, 0, 1)])
        ),
        "relu": lambda x: reduce_sum(tt.relu(x)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_gradient(self, name):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 4)) + 0.1
        assert finite_diff_check(self.CASES[name], x, h=1e-4) < 1e-3

    @pytest.mark.parametrize("heads, causal", [(1, False), (1, True), (2, True), (3, False)])
    def test_attention_gradient(self, heads, causal):
        rng = np.random.default_rng(12)
        probe = tt.Tensor(rng.normal(size=(5, 2 * heads)))
        err = finite_diff_check(
            lambda x: reduce_sum(mul(tt.attention(x, heads, causal), probe)),
            rng.normal(size=(5, 6 * heads)), h=1e-4)
        assert err < 1e-6

    def test_shift_and_logaddexp_gradient(self):
        def f(x):
            a = tt.reshape(x, (6,))
            return logsumexp(logaddexp(a, shift(a, 2)))

        err = finite_diff_check(f, np.linspace(-1, 1, 6).reshape(2, 3))
        assert err < 1e-3


class TestInvariants:
    def test_non_finite_rejected(self):
        with pytest.raises(tt.NonFiniteError):
            tt.Tensor([np.inf])
        with pytest.raises(tt.NonFiniteError):
            tt.Tensor([np.nan])

    def test_storage_is_float32_row_major(self):
        x = tt.Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
        assert x.data.dtype == np.float32
        assert x.data.flags.c_contiguous
        assert x.size == int(np.prod(x.shape))

    def test_ops_do_not_mutate_inputs(self):
        a = tt.Tensor([[1.0, 2.0]])
        before = a.data.copy()
        tt.add(a, tt.Tensor([[3.0, 4.0]]))
        tt.softmax(a)
        np.testing.assert_array_equal(a.data, before)

    def test_mixed_tapes_rejected(self):
        p1, p2 = tt.Parameter(np.ones(2)), tt.Parameter(np.ones(2))
        t1, t2 = tt.GradTape(), tt.GradTape()
        with pytest.raises(ValueError):
            tt.add(t1.watch(p1), t2.watch(p2))

    def test_no_broadcasting_beyond_row_bias(self):
        with pytest.raises(ValueError):
            tt.add(tt.Tensor(np.ones((2, 3))), tt.Tensor(np.ones((3, 2))))
        with pytest.raises(ValueError):
            mul(tt.Tensor(np.ones((2, 3))), tt.Tensor(np.ones(3)))

    def test_attention_shape_checked(self):
        for shape, heads in (((4, 7), 1), ((4, 12), 3), ((12,), 1)):
            with pytest.raises(ValueError):
                tt.attention(tt.Tensor(np.ones(shape)), heads, False)

    def test_dropout_zero_rate_is_identity(self):
        x = tt.Tensor(np.ones((2, 2)))
        assert tt.dropout(x, 0.0, None) is x


class TestCheckedTape:
    def overflowing_matmul(self, tape):
        x = tape.watch(tt.Parameter(np.array([[1e30, 1.0]])))
        return tt.matmul(x, tt.Tensor([[1e10], [1.0]]))  # 1e40 overflows float32

    def test_unchecked_tape_defers_to_the_loss_check(self):
        tape = tt.GradTape()
        with pytest.warns(RuntimeWarning, match="overflow"):
            loss = reduce_sum(self.overflowing_matmul(tape))
        with pytest.raises(tt.NonFiniteError, match="non-finite values in the loss"):
            tape.backward(loss)

    def test_check_ops_names_the_op_and_node(self):
        with pytest.raises(tt.NonFiniteError,
                           match=r"output of op 'matmul' \(tape node 1\)"), \
                pytest.warns(RuntimeWarning, match="overflow"):
            self.overflowing_matmul(tt.GradTape(check_ops=True))

    def test_check_ops_names_the_op_whose_gradient_overflows(self):
        def run(tape):
            p = tt.Parameter(np.array([1e-30]), "p")
            y = mul(tape.watch(p), tt.Tensor([1e30]))
            tape.backward(reduce_sum(mul(y, tt.Tensor([1e30]))))
            return p.grad

        with pytest.warns(RuntimeWarning, match="overflow"):
            assert np.isinf(run(tt.GradTape())).all()  # left for the optimiser's check
        with pytest.raises(tt.NonFiniteError,
                           match=r"gradient from op 'mul' \(tape node 1\)"), \
                pytest.warns(RuntimeWarning, match="overflow"):
            run(tt.GradTape(check_ops=True))

    def test_check_ops_names_attention(self):
        p = tt.Parameter(np.ones((3, 6)), "qkv")
        p.value[2, 4] = np.inf  # a value entry that reached storage unchecked
        tape = tt.GradTape(check_ops=True)
        with pytest.raises(tt.NonFiniteError,
                           match=r"output of op 'attention' \(tape node 1\)"), \
                pytest.warns(RuntimeWarning, match="invalid value"):
            tt.attention(tape.watch(p), 1, causal=True)

    def test_relu_propagates_nan(self):
        x = tt._unchecked(np.array([np.nan, -1.0, 2.0], dtype=np.float32))
        np.testing.assert_array_equal(tt.relu(x).data, [np.nan, 0.0, 2.0])


WIDTH_HEADS = [(1, 1), (48, 4), (64, 2)]


class TestTrimmedOpsMatchTheirOracles:
    """The layer-norm statistics and the one-row cached attention step give
    the bytes of the code they replaced (`step_oracles`), at widths 1, 48
    and 64, over 1-5 rows or sequences, with ragged cache fills; the step
    on a cache in the storage dtype and on a float64 one."""

    @staticmethod
    def draws(seed, *shape, scale=1.0):
        return (CounterRng(seed).normals(int(np.prod(shape))).reshape(shape) * scale
                ).astype(np.float32)

    def layer_norm_pass(self, x, gain, bias):
        """Forward bytes and the gradients of x, gain and bias, bytes too."""
        params = [tt.Parameter(a, n) for a, n in ((x, "x"), (gain, "gain"), (bias, "bias"))]
        tape = tt.GradTape()
        out = tt.layer_norm(*(tape.watch(p) for p in params))
        probe = tt.Tensor(self.draws(99, *x.shape))
        tape.backward(reduce_sum(mul(out, probe)))
        return [out.data.tobytes()] + [p.grad.tobytes() for p in params]

    @pytest.mark.parametrize("width", [w for w, _ in WIDTH_HEADS])
    @pytest.mark.parametrize("rows", range(1, 6))
    def test_layer_norm_forward_and_backward(self, width, rows, monkeypatch):
        x = self.draws(width + rows, rows, width, scale=3.0) + np.float32(0.5)
        gain = self.draws(7, width) + np.float32(1.0)
        bias = self.draws(8, width)
        for data in (x, x.astype(np.float64)):
            got, want = tt._normalise(data, 1e-5), oracle.normalise(data, 1e-5)
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
        new = self.layer_norm_pass(x, gain, bias)
        monkeypatch.setattr(tt, "_normalise", oracle.normalise)
        assert new == self.layer_norm_pass(x, gain, bias)

    @pytest.mark.parametrize("width, heads", WIDTH_HEADS)
    @pytest.mark.parametrize("batch", range(1, 6))
    def test_cached_step(self, width, heads, batch):
        rows = 9
        shape = (batch, heads, rows, width // heads)
        k, v = self.draws(1, *shape), self.draws(2, *shape)
        filled = CounterRng(batch).integers(0, rows - 1, batch).astype(np.intp)
        qkv = self.draws(3 + batch, batch, 3 * width)
        ok, ov = k.copy(), v.copy()
        oracle.write_cache(qkv, heads, (ok, ov, filled), [1] * batch)
        want = oracle.cached_step(qkv, heads, 1.0 / np.sqrt(width // heads), (ok, ov, filled))
        for dtype in (np.float32, np.float64):
            ck, cv = k.astype(dtype), v.astype(dtype)
            got = tt._cached_step(qkv, heads, (ck, cv, filled))
            assert ck.tobytes() == ok.astype(dtype).tobytes()
            assert cv.tobytes() == ov.astype(dtype).tobytes()
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("width, heads", WIDTH_HEADS)
    def test_prefill_writes_the_oracle_rows(self, width, heads):
        lengths = [3, 1, 5, 2]
        shape = (len(lengths), heads, 6, width // heads)
        k, v = np.zeros(shape, np.float32), np.zeros(shape, np.float32)
        ok, ov, filled = k.copy(), v.copy(), np.zeros(len(lengths), np.intp)
        qkv = self.draws(5, sum(lengths), 3 * width)
        oracle.write_cache(qkv, heads, (ok, ov, filled), lengths)
        tt.attention(tt.Tensor(qkv), heads, True, lengths, (k, v))
        assert k.tobytes() == ok.tobytes() and v.tobytes() == ov.tobytes()

    def test_a_cache_takes_one_segment_per_sequence(self):
        shape = (2, 1, 4, 2)
        cache = (np.zeros(shape, np.float32), np.zeros(shape, np.float32))
        for lengths in ([1, 1, 1], None):
            segs = 1 if lengths is None else 3
            with pytest.raises(ValueError, match=f"holds 2 sequences, got {segs} segments"):
                tt.attention(tt.Tensor(np.ones((3, 6))), 1, True, lengths, cache)
        tape = tt.GradTape()
        for x, causal in ((tape.watch(tt.Parameter(np.ones((2, 6)))), True),
                          (tt.Tensor(np.ones((2, 6))), False)):
            with pytest.raises(ValueError, match="untaped causal attention only"):
                tt.attention(x, 1, causal, [1, 1], cache)
