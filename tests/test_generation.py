"""Batched greedy generation with a K/V cache against the one-utterance,
full-pass oracle in `generation_oracles`, and its decode step against the
cached pass it replaced (`step_oracles`).

Hypotheses must be token-identical to the oracle's.  A step's logits and
cache rows must be the bytes of the retired cached pass.  A cached step's
logits agree with the last row of a full decoder pass over the same
sequence within 1e-5 of the largest logit magnitude in float32 and 1e-10 in
float64, bounds set from the dtypes: only float64 summation order differs.
Measured over 60 random decoders of 1-4 heads, 20 steps each: the float32
logits were bit-identical, the float64 ones within 1.6e-15.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import generation_oracles as oracle
import step_oracles
from ctcbridge import models as md
from ctcbridge import tensor as tt
from ctcbridge.cli import build_aec_cache, load_task
from ctcbridge.connector import ConnectorConfig
from ctcbridge.metrics import corpus_wer
from ctcbridge.rng import CounterRng
from ctcbridge.synthdata import build_vocabulary, prompt_token_id
from tape_ops import precision

TASK = {
    "name": "gen", "vocab_size": 12, "feat_dim": 8,
    "length_range": [3, 6], "duration_range": [4, 6],
    "noise_sigma": 0.3, "confusion_prob": 0.1, "prototype_seed": 7,
    "chain": {"seed": 11, "successors": 3, "weights": [0.5, 0.3, 0.2], "smoothing": 0.02},
    "splits": {"train": 24, "dev": 8, "test": 10, "seed": 5},
}
MAX_NEW = 8


def normals(seed, *shape):
    return CounterRng(seed).normals(int(np.prod(shape))).reshape(shape)


def decoder(vocab, seed=0, **kw):
    cfg = dict(dict(dim=24, ffn=48, blocks=2, heads=2, max_len=96), **kw)
    return md.DecoderLM(md.DecoderConfig(vocab=vocab.size, **cfg), vocab, seed=seed)


@pytest.fixture(scope="module")
def task():
    bundle = load_task(TASK)
    return (bundle.spec.vocab, *bundle.splits())


@pytest.fixture(scope="module")
def systems(task):
    """(encoder, {mode: (adapted system, its n-best lists or None)})."""
    vocab, train, dev, test = task
    enc = md.SpeechEncoder(md.EncoderConfig(feat_dim=8, out_slots=vocab.size + 1, width=24,
                                            ffn=48, blocks=2), seed=0)
    cfg = md.TrainConfig(steps=40, batch_size=4, lr=5e-3, warmup=4, eval_every=0, augment=None)
    md.train_encoder_ctc(enc, train, dev, cfg, vocab.blank_id)
    lists = build_aec_cache(enc, [*train, *dev, *test], beam=4, n=2)
    out = {}
    for mode, entry in md.CONNECTIONS.items():
        # lego_star also reads a prompt token, so prompts of two lengths are covered
        sysm = md.build_system(mode, enc, decoder(vocab), ConnectorConfig(
            k=3 if entry.needs_k else None), seed=0, aec_n=2,
            prompt_id=prompt_token_id(vocab) if mode == "lego_star" else None)
        cache = lists if entry.reads == "nbest" else None
        md.adapt_decoder(sysm, enc, vocab, train, dev, md.TrainConfig(
            steps=30, batch_size=4, lr=5e-3, warmup=4, eval_every=0, augment=None),
            aec_cache=cache)
        out[mode] = (sysm, cache)
    return enc, out


def batch_inputs(sysm, enc, vocab, utts, cache):
    """(stacked speech prefixes, prompts, speech_lens) of `utts`, as
    `evaluate_system` builds them."""
    frames = [u.frames for u in utts]
    speech = md.conditioning(sysm, enc, frames)
    prompts = [md.prompt_ids(sysm, vocab, cache[u.id] if cache else None) for u in utts]
    lens = None if speech is None else [enc.out_len(f.shape[0]) for f in frames]
    return speech, prompts, lens


@pytest.fixture(params=[1, 3], ids=lambda w: f"width{w}")
def step_rows(request, monkeypatch):
    """`_STEP_ROWS` as shipped and wider, so refills of several rows and
    the drain run too."""
    monkeypatch.setattr(md, "_STEP_ROWS", request.param)
    return request.param


@pytest.mark.parametrize("mode", tuple(md.CONNECTIONS))
def test_every_mode_matches_the_oracle(task, systems, mode, step_rows):
    vocab, _, dev, test = task
    utts = [*dev, *test]  # more than one prefill pass holds
    assert len(utts) > md.INFERENCE_BATCH
    enc, (sysm, cache) = systems[0], systems[1][mode]
    want = [oracle.decode_utterance(sysm, enc, vocab, u, MAX_NEW, cache[u.id] if cache else None)
            for u in utts]
    assert any(want)
    speech, prompts, lens = batch_inputs(sysm, enc, vocab, utts, cache)
    assert md.generate(sysm, speech, prompts, MAX_NEW, lens) == want
    one = md.generate(sysm, md.conditioning(sysm, enc, [utts[0].frames]), prompts[:1], MAX_NEW,
                      None if lens is None else lens[:1])
    assert one == want[:1]
    report = md.evaluate_system(sysm, enc, vocab, utts, MAX_NEW, aec_cache=cache)
    assert report == corpus_wer([u.target for u in utts], want)


def test_batch_mixing_eos_budget_and_max_len_stops(task, systems, step_rows):
    """One utterance meets <eos> at step 0, one runs to its budget of
    `max_new` tokens, and one's budget is cut short by max_len."""
    vocab, _, _, test = task
    enc, (sysm, _) = systems[0], systems[1]["lego"]
    max_len, max_new = sysm.decoder.cfg.max_len, 2
    prefixes = [md.conditioning(sysm, enc, [u.frames]) for u in test]
    free = [oracle.generate(sysm, sp, [vocab.bos_id], 16) for sp in prefixes]
    # its own greedy output as prompt: the next greedy token is <eos>
    a = next(i for i, out in enumerate(free) if len(out) < 16)
    b = next(i for i, out in enumerate(free) if len(out) >= max_new)
    c = 0
    filler = [vocab.bos_id] + [i % 4 for i in range(max_len - prefixes[c].shape[0] - 2)]
    order = [a, b, c, 1, 2]
    prompts = [[vocab.bos_id, *free[a]], [vocab.bos_id], filler,
               [vocab.bos_id], [vocab.bos_id, *free[2][:1]]]
    want = [oracle.generate(sysm, prefixes[i], p, max_new) for i, p in zip(order, prompts)]
    assert want[0] == () and len(want[1]) == max_new
    assert max_len - prefixes[c].shape[0] - len(filler) == 1 < max_new
    speech = tt.Tensor(np.concatenate([prefixes[i].data for i in order]))
    got = md.generate(sysm, speech, prompts, max_new, [prefixes[i].shape[0] for i in order])
    assert got == want


def test_steps_stay_full_while_utterances_wait(task, systems, monkeypatch, step_rows):
    """A cached step feeds at most `_STEP_ROWS` rows, one per utterance,
    and fewer only once no utterance waits: at most `max_new` steps at the
    end, so the step count follows the tokens fed back."""
    vocab, _, dev, test = task
    enc, (sysm, _) = systems[0], systems[1]["lego"]
    utts = [*dev, *test]
    speech, prompts, lens = batch_inputs(sysm, enc, vocab, utts, None)
    widths = []
    step = md.DecoderLM.step

    def spy(self, ids, cache):
        widths.append(len(ids))
        return step(self, ids, cache)

    monkeypatch.setattr(md.DecoderLM, "step", spy)
    hyps = md.generate(sysm, speech, prompts, MAX_NEW, lens)
    fed = sum(len(h) - (len(h) == MAX_NEW) for h in hyps)  # the last token is never fed
    assert sum(widths) == fed > 2 * md._STEP_ROWS
    assert max(widths) == md._STEP_ROWS
    short = [i for i, w in enumerate(widths) if w < md._STEP_ROWS]
    assert len(short) < MAX_NEW and short == list(range(len(widths) - len(short), len(widths)))


VOCAB = build_vocabulary(8)


@given(seed=st.integers(0, 2 ** 16), heads=st.sampled_from([1, 2]), blocks=st.integers(1, 2),
       shape=st.lists(st.tuples(st.integers(0, 6), st.integers(1, 6)), min_size=1, max_size=6),
       with_speech=st.booleans(), max_new=st.integers(1, 8), max_len=st.integers(4, 20),
       step_rows=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_random_decoders_match_the_oracle(seed, heads, blocks, shape, with_speech, max_new,
                                          max_len, step_rows):
    """Random decoders, batch sizes, prompts, speech rows, budgets and step
    widths; an utterance whose [speech; prompt] leaves no room gets no
    tokens."""
    dec = decoder(VOCAB, seed=seed, dim=8 * heads, ffn=16, blocks=blocks, heads=heads,
                  max_len=max_len)
    sysm = md.DecoderSystem(decoder=dec, mode="lego", conn=ConnectorConfig())
    draws = CounterRng(seed, stream=1).integers(0, VOCAB.size, 6 * len(shape)).reshape(-1, 6)
    prompts = [[VOCAB.bos_id, *draws[i, :p - 1].tolist()] for i, (_, p) in enumerate(shape)]
    s_lens = [s if with_speech else 0 for s, _ in shape]
    prefixes = [tt.Tensor(normals(seed + i, s, dec.cfg.dim) * 0.5) for i, s in enumerate(s_lens)]
    want = [oracle.generate(sysm, sp if with_speech else None, p, max_new)
            for sp, p in zip(prefixes, prompts)]
    speech = tt.Tensor(np.concatenate([sp.data for sp in prefixes])) if with_speech else None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(md, "_STEP_ROWS", step_rows)
        got = md.generate(sysm, speech, prompts, max_new, s_lens if with_speech else None)
    assert got == want


def random_batch(seed, dec, shape):
    """(stacked speech prefixes, prompts, speech_lens) of random utterances
    with (speech rows, prompt length) `shape`."""
    draws = CounterRng(seed, stream=1).integers(0, VOCAB.size, 6 * len(shape)).reshape(-1, 6)
    prompts = [[VOCAB.bos_id, *draws[i, :p - 1].tolist()] for i, (_, p) in enumerate(shape)]
    prefixes = [normals(seed + i, s, dec.cfg.dim) * 0.5 for i, (s, _) in enumerate(shape)]
    return tt.Tensor(np.concatenate(prefixes)), prompts, [s for s, _ in shape]


@pytest.mark.parametrize("tie_output", [True, False])
def test_a_call_reads_the_weights_as_they_are_then(tie_output):
    """The float64 weight copies belong to one `generate` call: after an
    Adam step the next call decodes with the new weights, and the call
    leaves the parameters themselves as they were."""
    dec = decoder(VOCAB, seed=5, dim=16, ffn=16, heads=2, max_len=24, tie_output=tie_output)
    sysm = md.DecoderSystem(decoder=dec, mode="lego", conn=ConnectorConfig())
    speech, prompts, lens = random_batch(5, dec, [(3, 1), (5, 2), (2, 3)])

    def want():
        rows = np.cumsum([0] + lens)
        return [oracle.generate(sysm, tt.Tensor(speech.data[a:b]), p, 10)
                for a, b, p in zip(rows, rows[1:], prompts)]

    before = want()
    assert md.generate(sysm, speech, prompts, 10, lens) == before
    params = dict(dec.params)
    for i, p in enumerate(params.values()):
        p.grad[...] = normals(100 + i, *p.value.shape)
    md.Adam(list(params.values()), lr=0.5, total_steps=10).step()
    values = {name: p.value.tobytes() for name, p in params.items()}
    after = want()
    assert after != before
    assert md.generate(sysm, speech, prompts, 10, lens) == after
    assert dec.params == params and all(dec.params[n] is p for n, p in params.items())
    assert all(p.value.dtype == np.float32 and p.value.tobytes() == values[n]
               for n, p in dec.params.items())


def test_no_step_converts_a_weight(task, systems, monkeypatch):
    """Every step reads its matmul weights as float64 arrays of the call's
    one weight dict, built once per call, none of them a parameter's
    storage."""
    vocab, _, dev, test = task
    enc, (sysm, _) = systems[0], systems[1]["lego"]
    speech, prompts, lens = batch_inputs(sysm, enc, vocab, [*dev, *test], None)
    built, steps = [], []  # the weight dicts of the call; (dict, weights read) per step
    fixed_weights, step = md._fixed_weights, md.DecoderLM.step

    class Reads(dict):
        def __getitem__(self, name):
            steps[-1][1][name] = super().__getitem__(name).data
            return super().__getitem__(name)

    def spy_fixed_weights(dec):
        built.append(Reads(fixed_weights(dec)))
        steps.append((None, {}))  # the prefill's reads
        return built[-1]

    def spy_step(self, ids, cache):
        steps.append((cache.weights, {}))
        return step(self, ids, cache)

    monkeypatch.setattr(md, "_fixed_weights", spy_fixed_weights)
    monkeypatch.setattr(md.DecoderLM, "step", spy_step)
    md.generate(sysm, speech, prompts, MAX_NEW, lens)
    assert len(built) == 1
    params = {id(p.value) for p in sysm.decoder.params.values()}
    steps = steps[1:]
    assert len(steps) > MAX_NEW and all(w is built[0] for w, _ in steps)
    blocks = sysm.decoder.cfg.blocks
    matmuls = {"out.w"} | {f"blk{i}.{nm}" for i in range(blocks)
                           for nm in ("wqkv", "wo", "w1", "w2")}
    for _, read in steps:
        assert matmuls <= set(read)
        assert all(read[nm].dtype == np.float64 and id(read[nm]) not in params
                   for nm in matmuls)


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-10)])
def test_cached_steps_match_full_passes(task, dtype, tol):
    vocab = task[0]
    with precision(dtype):
        dec = decoder(vocab, seed=3)
        s_lens, seqs = [3, 5, 1], [[vocab.bos_id], [vocab.bos_id, 2, 4, 1], [vocab.bos_id, 0]]
        prefixes = [tt.Tensor(normals(30 + i, s, 24)) for i, s in enumerate(s_lens)]
        cache = md.KVCache(dec.cfg, len(seqs), 24, md._fixed_weights(dec))
        logits = dec.forward(tt.Tensor(np.concatenate([p.data for p in prefixes])), seqs,
                             speech_lens=s_lens, cache=cache)
        rows = logits.data[np.cumsum([len(s) for s in seqs]) - 1]
        worst = 0.0
        for _ in range(8):
            for sp, seq, row in zip(prefixes, seqs, rows):
                full = dec.forward(sp, [seq], speech_lens=[sp.shape[0]]).data[-1]
                worst = max(worst, float(np.abs(row - full).max() / np.abs(full).max()))
            nxt = rows.argmax(axis=1)
            for seq, token in zip(seqs, nxt):
                seq.append(int(token))
            rows = dec.step(nxt, cache)
        assert cache.filled.tolist() == [s + len(seq) for s, seq in zip(s_lens, seqs)]
    assert worst <= tol


def test_cache_rejects_a_tape_and_overlong_steps(task):
    vocab = task[0]
    dec = decoder(vocab, max_len=6)
    weights = md._fixed_weights(dec)
    with pytest.raises(ValueError, match="untaped"):
        dec.forward(None, [[vocab.bos_id, 1]], tape=tt.GradTape(),
                    cache=md.KVCache(dec.cfg, 1, 6, weights))
    cache = md.KVCache(dec.cfg, 2, 6, weights)
    dec.forward(None, [[vocab.bos_id] * 6, [vocab.bos_id]], cache=cache)
    with pytest.raises(ValueError, match="sequence length 7 exceeds max_len 6"):
        dec.step([1, 1], cache)
    with pytest.raises(ValueError, match="fills an empty K/V cache only"):
        dec.forward(None, [[vocab.bos_id], [vocab.bos_id]], cache=cache)
    cache.keep(np.array([1]))
    with pytest.raises(ValueError, match="holds 1 sequences, got 2 ids"):
        dec.step([1, 1], cache)
    with pytest.raises(ValueError, match=r"outside \[0, V\)"):
        dec.step([vocab.size], cache)
    dec.step([1], cache)
    with pytest.raises(ValueError, match="exceeds the cache's 2 rows"):
        dec.forward(None, [[vocab.bos_id, 1, 1]], cache=md.KVCache(dec.cfg, 1, 2, weights))
    small = md.KVCache(dec.cfg, 1, 2, weights)
    dec.forward(None, [[vocab.bos_id, 1]], cache=small)
    with pytest.raises(ValueError, match="exceeds the cache's 2 rows"):
        dec.step([1], small)
    with pytest.raises(ValueError, match="that a forward pass filled"):
        dec.step([1], md.KVCache(dec.cfg, 1, 6, weights))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@given(seed=st.integers(0, 2 ** 16), heads=st.integers(1, 4), blocks=st.integers(1, 3),
       tie_output=st.booleans(), steps=st.integers(1, 4),
       shape=st.lists(st.tuples(st.integers(0, 5), st.integers(1, 4)), min_size=1, max_size=5))
@settings(max_examples=30, deadline=None)
def test_step_matches_the_retired_cached_pass(dtype, seed, heads, blocks, tie_output, steps,
                                              shape):
    """`DecoderLM.step` against the cached `forward` pass it replaced, on
    random decoders with every parameter moved off its initial value and
    on ragged fills: the logits' bytes, and every block's cache bytes after
    each step, on a cache in the storage dtype and on a float64 one."""
    with precision(dtype):
        dec = decoder(VOCAB, seed=seed, dim=8 * heads, ffn=16, blocks=blocks, heads=heads,
                      max_len=16, tie_output=tie_output)
        for i, p in enumerate(dec.params.values()):  # gains off 1, biases off 0
            p.value[...] += normals(seed + 100 + i, *p.value.shape) * 0.2
        speech, prompts, lens = random_batch(seed, dec, shape)
        weights = md._fixed_weights(dec)
        rows = max(s + p for s, p in shape) + steps
        prefilled = md.KVCache(dec.cfg, len(shape), rows, weights)
        first = dec.forward(speech, prompts, speech_lens=lens, cache=prefilled)
        ids = first.data[np.cumsum([len(p) for p in prompts]) - 1].argmax(axis=1)
        want_cache = md.KVCache(dec.cfg, len(shape), rows, weights)
        caches = [md.KVCache(dec.cfg, len(shape), rows, weights, dt) for dt in (None, np.float64)]
        for c in (want_cache, *caches):
            for b in range(len(shape)):
                c.load(b, prefilled, b)
        for _ in range(steps):
            want = step_oracles.cached_forward(dec, ids[:, None], want_cache).data
            for c in caches:
                got = dec.step(ids, c)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                assert c.filled.tolist() == want_cache.filled.tolist()
                for (k, v), (wk, wv) in zip(c.blocks, want_cache.blocks):
                    assert k.tobytes() == wk.astype(k.dtype).tobytes()
                    assert v.tobytes() == wv.astype(v.dtype).tobytes()
            ids = want.argmax(axis=1)
