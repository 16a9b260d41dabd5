import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctcbridge import tensor as tt
from ctcbridge.ctc import (
    INFEASIBLE_LOSS,
    NBestList,
    beam_search,
    ctc_loss,
    greedy_decode,
    min_frames,
    nbest_from_json,
    nbest_to_json,
)
from ctcbridge.lexicon import Posteriorgram, collapse
from ctcbridge.rng import CounterRng
from ctc_oracles import (alignment_oracle, batch_ctc_loss, beam_search_reference,
                         ctc_loss_reference)
from tape_ops import finite_diff_check, precision


def one(probs) -> Posteriorgram:
    """A batch of one utterance's [T, V+1] rows."""
    return Posteriorgram.pack([np.asarray(probs)])


def gram(logits) -> tt.Tensor:
    return tt.Tensor(np.asarray(logits, dtype=np.float64))


def onehot_gram(path, width, high=40.0):
    z = np.full((len(path), width), -high / 2)
    for t, c in enumerate(path):
        z[t, c] = high
    return gram(z)


def oracle_log_prob(z: np.ndarray, y, blank):
    """Sum path products over the exact alignment set, in float64."""
    logits = np.asarray(z, dtype=np.float64)
    m = logits.max(axis=1, keepdims=True)
    logp = (logits - m) - np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
    # match the float32 per-frame rounding the loss sees
    logp = tt.Tensor(logp).data.astype(np.float64)
    paths = alignment_oracle(y, logits.shape[0], blank)
    if not paths:
        return -np.inf
    scores = [sum(logp[t, c] for t, c in enumerate(p)) for p in paths]
    mx = max(scores)
    return mx + np.log(sum(np.exp(s - mx) for s in scores))


class TestCtcLoss:
    def test_uniform_two_frame_single_token(self):
        # rows [0.5, 0.5]; 3 of 4 paths collapse to (a,)
        res = ctc_loss(gram(np.zeros((2, 2))), [(0,)], blank_id=1)
        assert res.feasible
        assert res.loss.item() == pytest.approx(-np.log(0.75), rel=1e-6)

    def test_probability_one_path_is_zero_loss(self):
        res = ctc_loss(onehot_gram((0, 2, 1), 3), [(0, 1)], blank_id=2)
        assert res.loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_repeat_needs_separating_blank(self):
        res = ctc_loss(gram(np.zeros((2, 2))), [(0, 0)], blank_id=1)
        assert not res.feasible
        assert res.loss.item() == pytest.approx(INFEASIBLE_LOSS, rel=1e-6)
        # sentinel carries no gradient
        assert res.loss.tape is None

    def test_min_frames(self):
        assert min_frames(()) == 0
        assert min_frames((0, 1, 2)) == 3
        assert min_frames((0, 0, 1, 1)) == 6

    def test_empty_target(self):
        z = np.zeros((2, 2))
        res = ctc_loss(gram(z), [()], blank_id=1)
        assert res.loss.item() == pytest.approx(-2 * np.log(0.5), rel=1e-5)

    def test_target_ids_validated(self):
        with pytest.raises(ValueError):
            ctc_loss(gram(np.zeros((2, 3))), [(2,)], blank_id=2)

    def test_oracle_equivalence_random(self):
        rng = CounterRng(123)
        for case in range(40):
            crng = rng.child(case)
            t_frames = int(crng.integers(1, 7, 1)[0])
            v = int(crng.integers(1, 5, 1)[0])
            n = int(crng.integers(0, min(4, t_frames + 1), 1)[0])
            y = tuple(int(i) for i in crng.integers(0, v, n))
            z = crng.normals(t_frames * (v + 1)).reshape(t_frames, v + 1) * 2.0
            res = ctc_loss(gram(z), [y], blank_id=v)
            expect = oracle_log_prob(z, y, v)
            if not res.feasible or expect == -np.inf:
                got_p = 0.0 if not res.feasible else np.exp(-res.loss.item())
                want_p = 0.0 if expect == -np.inf else np.exp(expect)
                assert got_p == pytest.approx(want_p, abs=1e-12)
            else:
                assert -res.loss.item() == pytest.approx(expect, rel=1e-6, abs=1e-6)

    def test_total_probability_conservation(self):
        rng = CounterRng(5)
        for case in range(5):
            z = rng.child(case).normals(3 * 3).reshape(3, 3)
            total = 0.0
            for n in range(0, 4):
                for y in itertools.product(range(2), repeat=n):
                    res = ctc_loss(gram(z), [y], blank_id=2)
                    total += np.exp(-res.loss.item())
            assert total == pytest.approx(1.0, abs=1e-5)

    def test_gradient_matches_finite_differences(self):
        rng = CounterRng(9)
        z0 = rng.normals(4 * 3).reshape(4, 3)

        def f(z):
            return ctc_loss(z, [(0, 1)], blank_id=2).loss

        assert finite_diff_check(f, z0, h=1e-4) < 1e-3

    def test_one_tape_node(self):
        p = tt.Parameter(CounterRng(15).normals(15 * 33).reshape(15, 33))
        tape = tt.GradTape()
        z = tape.watch(p)
        before = len(tape._parents)
        res = ctc_loss(z, [tuple(range(9))], blank_id=32)
        assert res.feasible and res.loss.tape is tape
        assert len(tape._parents) - before == 1


def taped_loss_and_grad(fn, z: np.ndarray, y, blank: int):
    """(feasible, loss bytes, d loss / d z) of one CTC implementation."""
    p = tt.Parameter(z)
    tape = tt.GradTape()
    res = fn(tape.watch(p), y, blank)
    if res.feasible:
        tape.backward(res.loss)
    return res.feasible, res.loss.data.tobytes(), p.grad


def batch_of_one(logits, y, blank: int):
    return ctc_loss(logits, [y], blank)


class TestCtcLossMatchesReference:
    """The fused loss against the tape-built recursion it replaced."""

    def test_random_cases(self):
        rng = CounterRng(2006)
        for case in range(280):
            crng = rng.child(case)
            v = int(crng.integers(1, 33, 1)[0])
            t_frames = int(crng.integers(1, 21, 1)[0])
            n = 0 if case % 8 == 0 else int(crng.integers(0, t_frames + 2, 1)[0])
            alphabet = min(v, 2) if case % 2 else v  # small alphabets give repeats
            y = tuple(int(c) for c in crng.integers(0, alphabet, n))
            scale = (0.5, 2.0, 8.0)[case % 3]
            z = crng.normals(t_frames * (v + 1)).reshape(t_frames, v + 1) * scale
            for dtype, atol in ((np.float32, 1e-6), (np.float64, 1e-9)):
                with precision(dtype):
                    ok, loss, grad = taped_loss_and_grad(batch_of_one, z, y, v)
                    ok_ref, loss_ref, grad_ref = taped_loss_and_grad(ctc_loss_reference, z, y, v)
                assert (ok, loss) == (ok_ref, loss_ref), (case, dtype)
                np.testing.assert_allclose(grad, grad_ref, rtol=0, atol=atol,
                                           err_msg=f"case {case} {dtype.__name__}")


def random_batch(rng: CounterRng, v: int, lengths: list[int], repeats: bool):
    """Targets of 0 to T+1 tokens for utterances of `lengths` frames (the
    longer ones infeasible), drawn from a 2-token alphabet when `repeats`,
    and packed logits."""
    ys = []
    for j, t in enumerate(lengths):
        n = int(rng.child(f"n{j}").integers(0, t + 2, 1)[0])
        ys.append(tuple(int(c) for c in rng.child(f"y{j}").integers(0, min(v, 2) if repeats else v, n)))
    z = rng.child("z").normals(sum(lengths) * (v + 1)).reshape(-1, v + 1)
    return ys, z * (0.5, 2.0, 8.0)[sum(lengths) % 3]


def batched(logits, ys, v: int, lengths):
    """`ctc_loss` in `ctc_oracles.batch_ctc_loss`'s form."""
    res = ctc_loss(logits, ys, v, lengths)
    return (res.loss if res.loss.tape is not None else None), res.losses


def batched_and_oracle(z, ys, v, lengths):
    """(loss bytes or None, per-utterance losses, d loss / d z) of the
    batched loss and of the per-utterance oracle, each on its own tape."""
    out = []
    for fn in (batched, batch_ctc_loss):
        p = tt.Parameter(z)
        tape = tt.GradTape()
        loss, each = fn(tape.watch(p), ys, v, lengths)
        if loss is not None:
            tape.backward(loss)
        out.append((None if loss is None else loss.data.tobytes(), tuple(each), p.grad))
    return out


class TestBatchedCtcLoss:
    """One node for a packed batch against one fused node per utterance
    (`ctc_oracles.batch_ctc_loss`)."""

    @pytest.mark.parametrize("repeats", [False, True])
    def test_matches_the_per_utterance_oracle(self, repeats):
        rng = CounterRng(2106, stream=int(repeats))
        for case in range(60):
            crng = rng.child(case)
            v = int(crng.integers(1, 33, 1)[0])
            lengths = [int(t) for t in crng.integers(1, 21, int(crng.integers(1, 9, 1)[0]))]
            ys, z = random_batch(crng, v, lengths, repeats)
            for dtype in (np.float32, np.float64):
                with precision(dtype):
                    (loss, each, grad), (loss_ref, each_ref, grad_ref) = \
                        batched_and_oracle(z, ys, v, lengths)
                if dtype is np.float32:
                    assert (loss, each) == (loss_ref, each_ref), case
                    assert grad.tobytes() == grad_ref.tobytes(), case
                else:
                    assert each == pytest.approx(each_ref, rel=0, abs=1e-10), case
                    np.testing.assert_allclose(grad, grad_ref, rtol=0, atol=1e-10,
                                               err_msg=f"case {case}")

    def test_a_mixed_batch(self):
        # infeasible, empty, one-frame, repeated-token and plain utterances
        v = 3
        lengths = [2, 3, 1, 1, 5, 4, 2]
        ys = [(0, 0), (), (), (2,), (1, 1, 0), (0, 1, 2, 0), (1, 2, 0)]
        z = CounterRng(31).normals(sum(lengths) * (v + 1)).reshape(-1, v + 1) * 2.0
        (loss, each, grad), (loss_ref, each_ref, grad_ref) = batched_and_oracle(z, ys, v, lengths)
        assert [e is None for e in each] == [True, False, False, False, False, False, True]
        assert (loss, each, grad.tobytes()) == (loss_ref, each_ref, grad_ref.tobytes())
        rows = np.cumsum([0] + lengths)
        for j in (0, 6):  # an infeasible utterance's rows get no gradient
            assert not grad[rows[j]:rows[j + 1]].any()
        res = ctc_loss(gram(z), ys, v, lengths)
        assert not res.feasible and res.loss.tape is None
        assert res.loss.item() == pytest.approx(sum(e for e in each if e is not None) / 5)

    def test_an_all_infeasible_batch_gives_the_sentinel(self):
        p = tt.Parameter(np.zeros((3, 2)))
        tape = tt.GradTape()
        res = ctc_loss(tape.watch(p), [(0, 0), (0, 0)], 1, [1, 2])
        assert res.losses == (None, None) and not res.feasible
        assert res.loss.tape is None
        assert res.loss.item() == pytest.approx(INFEASIBLE_LOSS, rel=1e-6)

    def test_one_tape_node_per_batch(self):
        p = tt.Parameter(CounterRng(15).normals(30 * 33).reshape(30, 33))
        tape = tt.GradTape()
        z = tape.watch(p)
        before = len(tape._parents)
        res = ctc_loss(z, [tuple(range(9)), (), (4, 4)], 32, [15, 5, 10])
        assert res.feasible and res.loss.tape is tape
        assert len(tape._parents) - before == 1

    def test_an_utterance_does_not_depend_on_its_batch(self):
        v, lengths = 5, [4, 9, 2, 6]
        ys, z = random_batch(CounterRng(77), v, lengths, repeats=True)
        rows = np.cumsum([0] + lengths)
        whole = ctc_loss(gram(z), ys, v, lengths).losses
        alone = [ctc_loss(gram(z[a:b]), [y], v).losses[0]
                 for a, b, y in zip(rows, rows[1:], ys)]
        assert whole == tuple(alone)

    def test_one_target_per_segment(self):
        with pytest.raises(ValueError, match="one target per segment, got 1 for 2"):
            ctc_loss(gram(np.zeros((3, 2))), [(0,)], 1, [1, 2])
        with pytest.raises(ValueError, match="summing to 3 rows"):
            ctc_loss(gram(np.zeros((3, 2))), [(0,), (0,)], 1, [1, 1])


class TestAlignmentOracle:
    def test_single_token_two_frames(self):
        paths = alignment_oracle((0,), 2, 1)
        assert paths == {(0, 0), (0, 1), (1, 0)}

    def test_empty_target(self):
        assert alignment_oracle((), 2, 1) == {(1, 1)}

    def test_infeasible_repeat(self):
        assert alignment_oracle((0, 0), 2, 1) == set()

    def test_combinatorial_guard(self):
        with pytest.raises(ValueError):
            alignment_oracle((0,), 9, 1)
        with pytest.raises(ValueError):
            alignment_oracle((0,), 2, 5)


class TestGreedyDecode:
    def test_onehot_path(self):
        p = np.zeros((3, 3))
        for t, c in enumerate((0, 2, 1)):
            p[t, c] = 1.0
        assert greedy_decode(one(p)) == [(0, 1)]

    def test_all_blank(self):
        p = np.zeros((4, 3))
        p[:, 2] = 1.0
        assert greedy_decode(one(p)) == [()]

    def test_collapse_semantics(self):
        p = np.zeros((4, 3))
        for t, c in enumerate((0, 0, 2, 0)):
            p[t, c] = 1.0
        assert greedy_decode(one(p)) == [(0, 0)]

    def test_tie_breaks_to_lowest_index(self):
        p = np.full((1, 3), 1 / 3)
        assert greedy_decode(one(p)) == [(0,)]

    def test_padding_is_not_decoded(self):
        # the zero rows after an utterance's frames would argmax to token 0
        rng = CounterRng(12)
        grams = [posterior_rows("peaky", t, 3, rng.child(t)) for t in (4, 0, 9, 1)]
        assert greedy_decode(Posteriorgram.pack(grams)) == [
            collapse(tuple(np.argmax(g, axis=1).tolist()), 3) for g in grams]


def exhaustive_best(probs: np.ndarray, v: int):
    """argmax over all label sequences, scored by alignment-sum."""
    t_frames = probs.shape[0]
    logp = np.log(np.maximum(probs, 1e-300))
    best, best_score = None, -np.inf
    for n in range(t_frames + 1):
        for y in itertools.product(range(v), repeat=n):
            paths = alignment_oracle(y, t_frames, v)
            if not paths:
                continue
            scores = [sum(logp[t, c] for t, c in enumerate(p)) for p in paths]
            mx = max(scores)
            s = mx + np.log(sum(np.exp(x - mx) for x in scores))
            if s > best_score:
                best, best_score = y, s
    return best, best_score


class TestBeamSearch:
    def test_onehot_matches_greedy(self):
        p = np.zeros((3, 3))
        for t, c in enumerate((0, 2, 1)):
            p[t, c] = 1.0
        (nb,) = beam_search(one(p), beam=4, n=2)
        assert [nb.top()] == greedy_decode(one(p))
        assert nb.hypotheses[0][1] == pytest.approx(0.0, abs=1e-6)

    def test_matches_exhaustive_oracle(self):
        rng = CounterRng(77)
        for case in range(12):
            crng = rng.child(case)
            t_frames = int(crng.integers(2, 6, 1)[0])
            v = int(crng.integers(2, 4, 1)[0])
            z = crng.normals(t_frames * (v + 1)).reshape(t_frames, v + 1) * 1.5
            probs = tt.softmax(tt.Tensor(z)).data
            (nb,) = beam_search(one(probs), beam=64, n=1)
            want, want_score = exhaustive_best(probs, v)
            assert nb.top() == want
            assert nb.hypotheses[0][1] == pytest.approx(want_score, rel=1e-5, abs=1e-5)

    def test_scores_sorted_and_bounded(self):
        rng = CounterRng(3)
        z = rng.normals(4 * 4).reshape(4, 4)
        probs = tt.softmax(tt.Tensor(z)).data
        (nb,) = beam_search(one(probs), beam=8, n=5)
        scores = [s for _, s in nb.hypotheses]
        assert all(a >= b for a, b in zip(scores, scores[1:]))
        assert all(np.exp(s) <= 1.0 + 1e-9 for s in scores)

    def test_beam_smaller_than_n_rejected(self):
        with pytest.raises(ValueError):
            beam_search(one(np.full((2, 2), 0.5)), beam=1, n=2)

    def test_nbest_json_round_trip(self):
        nb = NBestList((((0, 1), -0.5), ((1,), -1.25)), beam_size=4, n=2)
        utt, again = nbest_from_json(nbest_to_json("utt-7", nb))
        assert utt == "utt-7" and again == nb

    def test_nbest_ordering_enforced(self):
        with pytest.raises(ValueError):
            NBestList((((0,), -2.0), ((1,), -1.0)), beam_size=2, n=2)


ROW_KINDS = ("softmax", "peaky", "uniform", "zeros", "onehot", "mixed")


def posterior_rows(kind: str, t_frames: int, v: int, rng: CounterRng) -> np.ndarray:
    """[t_frames, v+1] probability rows of one kind; "mixed" draws a kind per frame."""
    width = v + 1
    if kind == "mixed":
        kinds = ROW_KINDS[:-1]
        picks = rng.integers(0, len(kinds), t_frames)
        rows = [posterior_rows(kinds[k], 1, v, rng.child(t)) for t, k in enumerate(picks)]
        return np.concatenate(rows) if rows else np.zeros((0, width))
    if kind == "uniform":  # every extension ties
        return np.full((t_frames, width), 1.0 / width)
    if kind == "onehot":
        p = np.zeros((t_frames, width))
        p[np.arange(t_frames), rng.integers(0, width, t_frames)] = 1.0
        return p
    if kind == "zeros":  # exact zeros take the log floor; some rows are all zero
        p = rng.uniforms(t_frames * width).reshape(t_frames, width)
        p[rng.uniforms(p.size).reshape(p.shape) < 0.6] = 0.0
        total = p.sum(axis=1, keepdims=True)
        return np.divide(p, total, out=np.zeros_like(p), where=total > 0)
    scale = {"softmax": 2.0, "peaky": 8.0}[kind]
    z = rng.normals(t_frames * width).reshape(t_frames, width) * scale
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


BEAM_N = ((1, 1), (2, 2), (3, 1), (10, 10), (64, 1))


def assert_same_lists(got: list[NBestList], want: list[NBestList], what):
    assert [nb.hypotheses for nb in got] == [nb.hypotheses for nb in want], what
    assert all(type(s) is float for nb in got for _, s in nb.hypotheses)
    # the n-best cache files must come out byte for byte the same
    assert [nbest_to_json("u", nb) for nb in got] == [nbest_to_json("u", nb) for nb in want]


def mixed_batch(v: int) -> list[np.ndarray]:
    """Every row kind at every length 0-20, in a shuffled order."""
    rng = CounterRng(2505).child(f"batch.v{v}")
    grams = [posterior_rows(kind, t, v, rng.child(f"{kind}.t{t}"))
             for kind in ROW_KINDS for t in range(21)]
    shuffle = np.argsort(rng.child("order").uniforms(len(grams)), kind="stable")
    return [grams[i] for i in shuffle]


class TestBeamSearchMatchesReference:
    """The batched array search against the dict-based one-utterance search
    it replaced: bit-identical for every utterance of a batch."""

    @pytest.mark.parametrize("v", (1, 2, 3, 5, 32))
    @pytest.mark.parametrize("t_frames", (0, 1, 2, 7, 20))
    def test_same_hypotheses_scores_and_order(self, v, t_frames):
        rng = CounterRng(2505).child(f"v{v}.t{t_frames}")
        for kind in ROW_KINDS:
            rows = posterior_rows(kind, t_frames, v, rng.child(kind))
            for beam, n in BEAM_N:
                assert_same_lists(beam_search(one(rows), beam=beam, n=n),
                                  [beam_search_reference(rows, beam=beam, n=n)], (kind, beam, n))

    @pytest.mark.parametrize("v", (1, 2, 3, 5, 32))
    def test_one_call_searches_a_mixed_batch(self, v):
        grams = mixed_batch(v)
        p = Posteriorgram.pack(grams)
        for beam, n in BEAM_N:
            want = [beam_search_reference(g, beam=beam, n=n) for g in grams]
            assert_same_lists(beam_search(p, beam=beam, n=n), want, (beam, n))

    @pytest.mark.parametrize("v", (1, 2, 3, 5))
    def test_utterances_tying_at_the_cut_in_the_same_frame(self, v):
        # uniform rows: every candidate of every utterance ties, so each
        # frame's cut falls inside a tie in all rows at once
        grams = [np.full((t, v + 1), 1.0 / (v + 1)) for t in (6, 2, 6, 0, 9, 1, 4)]
        p = Posteriorgram.pack(grams)
        for beam, n in ((1, 1), (2, 2), (3, 1), (5, 5), (10, 3)):
            want = [beam_search_reference(g, beam=beam, n=n) for g in grams]
            assert_same_lists(beam_search(p, beam=beam, n=n), want, (beam, n))

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_search_batches_do_not_change_the_lists(self, data):
        """Peaky and flat utterances, split into random batches in random
        order: each list is its batch-of-one search's and the reference's.
        Flat (uniform) rows tie at the beam's cut in every frame."""
        v = data.draw(st.sampled_from((1, 2, 3, 5)), label="v")
        kinds = data.draw(st.lists(st.sampled_from(("peaky", "uniform", "softmax", "mixed")),
                                   min_size=1, max_size=12), label="kinds")
        lengths = data.draw(st.lists(st.integers(0, 12), min_size=len(kinds),
                                     max_size=len(kinds)), label="lengths")
        rng = CounterRng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        grams = [posterior_rows(k, t, v, rng.child(i))
                 for i, (k, t) in enumerate(zip(kinds, lengths))]
        order = data.draw(st.permutations(range(len(grams))), label="order")
        cuts = data.draw(st.sets(st.integers(1, len(grams) - 1)) if len(grams) > 1
                         else st.just(set()), label="cuts")
        beam, n = data.draw(st.sampled_from(((1, 1), (2, 2), (3, 1), (4, 3))), label="beam, n")
        got = [None] * len(grams)
        for part in np.split(np.asarray(order), sorted(cuts)):
            p = Posteriorgram.pack([grams[i] for i in part])
            for i, nb in zip(part.tolist(), beam_search(p, beam=beam, n=n)):
                got[i] = nb
        assert got == [beam_search(one(g), beam=beam, n=n)[0] for g in grams]
        assert_same_lists(got, [beam_search_reference(g, beam=beam, n=n) for g in grams],
                          (kinds, lengths, order, cuts))

    def test_batch_of_one_equals_its_row_in_a_batch(self):
        grams = mixed_batch(5)
        got = beam_search(Posteriorgram.pack(grams), beam=4, n=3)
        assert got == [beam_search(one(g), beam=4, n=3)[0] for g in grams]
