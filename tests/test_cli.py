"""In-process `cli.main` runs on a tiny task: every mode end to end, bad
arguments, config values, data files and checkpoints exit 2, and a
diverging training run exits 1."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ctcbridge import cli
from ctcbridge import models as md
from ctcbridge.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from ctcbridge.connector import ConnectorConfig
from ctcbridge.synthdata import augment, utterance_from_json, utterance_to_json
from block_oracles import split_heads
from tape_ops import params_digest

TASK = {
    "name": "tiny",
    "vocab_size": 8,
    "feat_dim": 4,
    "length_range": [2, 4],
    "duration_range": [4, 5],
    "noise_sigma": 0.5,
    "confusion_prob": 0.1,
    "chain": {"seed": 3},
    "splits": {"train": 4, "dev": 2, "test": 3},
}
TRAIN = {"steps": 1, "batch_size": 2, "warmup": 1, "eval_every": 0, "augment": None}
DECODER = {"dim": 8, "ffn": 16, "blocks": 1, "heads": 2}


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    d = tmp_path_factory.mktemp("tiny")
    files = {
        "spec": TASK,
        "enc_cfg": dict(TRAIN, encoder={"width": 8, "ffn": 16, "blocks": 1}),
        "dec_cfg": dict(TRAIN, decoder=DECODER),
    }
    paths = {name: d / f"{name}.json" for name in files}
    for name, obj in files.items():
        paths[name].write_text(json.dumps(obj))
    paths["enc"], paths["sys"] = d / "enc.ckpt", d / "sys.ckpt"
    assert cli.main(["train-encoder", "--spec", str(paths["spec"]),
                     "--config", str(paths["enc_cfg"]), "--out", str(paths["enc"])]) == 0
    assert cli.main(["adapt", "--mode", "lego", "--encoder", str(paths["enc"]),
                     "--spec", str(paths["spec"]), "--config", str(paths["dec_cfg"]),
                     "--out", str(paths["sys"])]) == 0
    return {k: str(v) for k, v in paths.items()}


def run(capsys, argv):
    capsys.readouterr()
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def decode(tiny, *extra):
    return ["decode-eval", "--encoder", tiny["enc"], "--spec", tiny["spec"], *extra]


def test_valid_limit_and_nbest_decode(tiny, capsys):
    code, out, _ = run(capsys, decode(tiny, "--limit", "2", "--beam", "3", "--nbest", "3"))
    assert code == 0
    assert json.loads(out)["config"] == {"decode": "ctc_beam", "beam": 3, "nbest": 3,
                                         "split": "test", "n_utts": 2}


@pytest.mark.parametrize("command, flag", [
    (["--beam", "0"], "--beam"),
    (["--beam", "-1"], "--beam"),
    (["--beam", "3", "--nbest", "4"], "--nbest"),
    (["--nbest", "0"], "--nbest"),
    (["--limit", "-5"], "--limit"),
    (["--limit", "0"], "--limit"),
])
def test_bad_decode_eval_arguments_exit_2(tiny, capsys, command, flag):
    code, out, err = run(capsys, decode(tiny, *command))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} must be") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["sweep-tau", "swap"])
def test_negative_limit_exits_2(tiny, capsys, command):
    code, out, err = run(capsys, [command, "--encoder", tiny["enc"], "--decoder", tiny["sys"],
                                  "--spec", tiny["spec"], "--limit", "-1"])
    assert code == 2
    assert out == ""
    assert err == "error: --limit must be >= 1, got -1\n"


@pytest.mark.parametrize("command", ["sweep-tau", "swap"])
@pytest.mark.parametrize("flag", ["--limit", "--beam"])
def test_zero_limit_or_beam_exits_2(tiny, capsys, command, flag):
    code, out, err = run(capsys, [command, "--encoder", tiny["enc"], "--decoder", tiny["sys"],
                                  "--spec", tiny["spec"], flag, "0"])
    assert (code, out) == (2, "")
    assert err == f"error: {flag} must be >= 1, got 0\n"


@pytest.mark.parametrize("command, value", [
    (["decode-eval", "--decoder"], "0"),
    (["sweep-tau", "--decoder"], "0"),
    (["swap", "--decoder"], "-2"),
])
def test_max_new_below_one_exits_2(tiny, capsys, command, value):
    code, out, err = run(capsys, [*command, tiny["sys"], "--encoder", tiny["enc"],
                                  "--spec", tiny["spec"], "--max-new", value])
    assert (code, out) == (2, "")
    assert err == f"error: --max-new must be >= 1, got {value}\n"


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


BAD_CONFIGS = {
    "task-duration": lambda t, d: ["gen-data", "--spec", _write(
        d, "task.json", dict(TASK, duration_range=[2, 3])), "--out", str(d / "data")],
    "topS-without-k": lambda t, d: ["adapt", "--mode", "topS", "--encoder", t["enc"],
                                    "--spec", t["spec"], "--out", str(d / "s.ckpt")],
    "topP-k-too-big": lambda t, d: ["adapt", "--mode", "topP", "--k", "99", "--encoder",
                                    t["enc"], "--spec", t["spec"], "--out", str(d / "s.ckpt")],
    "adapt-tau-0": lambda t, d: ["adapt", "--mode", "lego", "--tau", "0", "--encoder", t["enc"],
                                 "--spec", t["spec"], "--out", str(d / "s.ckpt")],
    "augment-key": lambda t, d: ["train-encoder", "--spec", t["spec"], "--config", _write(
        d, "train.json", dict(TRAIN, augment={"bogus": 1})), "--out", str(d / "e.ckpt")],
    "decode-tau-negative": lambda t, d: decode(t, "--decoder", t["sys"], "--tau", "-1"),
    "adapt-blk-downscale-inf": lambda t, d: ["adapt", "--mode", "lego", "--blk-downscale", "inf",
                                             "--encoder", t["enc"], "--spec", t["spec"],
                                             "--out", str(d / "s.ckpt")],
    "decode-blk-downscale-inf": lambda t, d: decode(t, "--decoder", t["sys"],
                                                    "--blk-downscale", "inf"),
    # tau applies at inference only: the knob that also applied it in training is gone
    "connector-block-apply_tau_at": lambda t, d: [
        "adapt", "--mode", "lego", "--encoder", t["enc"], "--spec", t["spec"],
        "--out", str(d / "s.ckpt"), "--config", _write(d, "adapt.json", dict(
            TRAIN, decoder=DECODER, connector={"apply_tau_at": "inference_only"}))],
    "decoder-ckpt-apply_tau_at-always": lambda t, d: decode(
        t, "--decoder", _system_with(t, d, apply_tau_at="always")),
    # an infinite tau would be written into JSON results as Infinity
    "adapt-tau-inf": lambda t, d: ["adapt", "--mode", "lego", "--tau", "inf", "--encoder",
                                   t["enc"], "--spec", t["spec"], "--out", str(d / "s.ckpt")],
    "decode-tau-inf": lambda t, d: decode(t, "--decoder", t["sys"], "--tau", "inf"),
    "grid-inf": lambda t, d: ["sweep-tau", "--encoder", t["enc"], "--decoder", t["sys"],
                              "--spec", t["spec"], "--grid", "1,inf"],
    "decoder-ckpt-tau-inf": lambda t, d: decode(t, "--decoder",
                                                _system_with(t, d, tau=float("inf"))),
    # k is None or an int >= 1, also in modes that do not read it
    "adapt-k-negative": lambda t, d: ["adapt", "--mode", "lego", "--k", "-5", "--encoder",
                                      t["enc"], "--spec", t["spec"], "--out", str(d / "s.ckpt")],
    "connector-block-k-text": lambda t, d: [
        "adapt", "--mode", "lego", "--encoder", t["enc"], "--spec", t["spec"],
        "--out", str(d / "s.ckpt"), "--config", _write(d, "adapt.json", dict(
            TRAIN, decoder=DECODER, connector={"k": "abc"}))],
    "decode-k-0": lambda t, d: decode(t, "--decoder", t["sys"], "--k", "0"),
    # a connector block that is no JSON object
    "connector-block-list": lambda t, d: _adapt_with_connector(t, d, [1]),
    "connector-block-null": lambda t, d: _adapt_with_connector(t, d, None),
    "connector-block-text": lambda t, d: _adapt_with_connector(t, d, "ab"),
    "decoder-ckpt-k-negative": lambda t, d: decode(t, "--decoder", _system_with(t, d, k=-5)),
    "grid-zero": lambda t, d: ["sweep-tau", "--encoder", t["enc"], "--decoder", t["sys"],
                               "--spec", t["spec"], "--grid", "0"],
    "grid-text": lambda t, d: ["sweep-tau", "--encoder", t["enc"], "--decoder", t["sys"],
                               "--spec", t["spec"], "--grid", "abc"],
    "encoder-block-key": lambda t, d: ["train-encoder", "--spec", t["spec"], "--config", _write(
        d, "train.json", dict(TRAIN, encoder={"bogus": 1})), "--out", str(d / "e.ckpt")],
    "decoder-block-key": lambda t, d: ["adapt", "--mode", "lego", "--encoder", t["enc"],
                                       "--spec", t["spec"], "--out", str(d / "s.ckpt"),
                                       "--config", _write(d, "adapt.json",
                                                          dict(TRAIN, decoder={"bogus": 1}))],
    "decoder-heads": lambda t, d: ["adapt", "--mode", "lego", "--encoder", t["enc"],
                                   "--spec", t["spec"], "--out", str(d / "s.ckpt"),
                                   "--config", _write(d, "adapt.json", dict(
                                       TRAIN, decoder={"dim": 6, "heads": 4}))],
    "encoder-ckpt-6-bytes": lambda t, d: decode(t, "--encoder", _six_bytes(d)),
    "resume-ckpt-6-bytes": lambda t, d: ["train-encoder", "--spec", t["spec"], "--resume",
                                         _six_bytes(d), "--out", str(d / "e.ckpt")],
    "splits-test-0": lambda t, d: ["gen-data", "--spec", _splits(d, test=0),
                                   "--out", str(d / "data")],
    "splits-train-float": lambda t, d: ["train-encoder", "--spec", _splits(d, train=4.5),
                                        "--out", str(d / "e.ckpt")],
    "splits-dev-bool": lambda t, d: ["gen-data", "--spec", _splits(d, dev=True),
                                     "--out", str(d / "data")],
    "splits-seed-text": lambda t, d: ["adapt", "--mode", "lego", "--encoder", t["enc"],
                                      "--spec", _splits(d, seed="1"), "--out", str(d / "s.ckpt")],
    # one utterance's encoder rows and text exceed the decoder's max_len
    "adapt-too-long": lambda t, d: ["adapt", "--mode", "lego", "--encoder", t["enc"],
                                    "--spec", t["spec"], "--out", str(d / "s.ckpt"),
                                    "--config", _write(d, "adapt.json", dict(
                                        TRAIN, decoder=dict(DECODER, max_len=6)))],
    # decode-eval builds only the test split, yet a bad dev size is still an error
    "splits-unbuilt-dev-0": lambda t, d: ["decode-eval", "--encoder", t["enc"],
                                          "--spec", _splits(d, dev=0)],
}


def _adapt_with_connector(t, d, conn):
    return ["adapt", "--mode", "lego", "--encoder", t["enc"], "--spec", t["spec"],
            "--out", str(d / "s.ckpt"), "--config", _write(d, "adapt.json", dict(
                TRAIN, decoder=DECODER, connector=conn))]


def _explicit_task(**fields):
    """TASK with its chain in the explicit form: `build_chain`'s own
    transition and initial probabilities and confusion pairs."""
    spec = cli.load_task(TASK).spec
    task = {k: v for k, v in TASK.items() if k != "chain"}
    task.update(transition=spec.transition.tolist(), init=spec.init_probs.tolist(),
                confusion_pairs={str(k): v for k, v in spec.confusion.items()})
    return dict(task, **fields)


def test_explicit_task_form_gives_the_chain_form_splits(capsys, tmp_path):
    digests = []
    for name, task in (("chain", TASK), ("explicit", _explicit_task())):
        out = tmp_path / name
        assert run(capsys, ["gen-data", "--spec", _write(tmp_path, f"{name}.json", task),
                            "--out", str(out)])[0] == 0
        digests.append([hashlib.sha256((out / f"{split}.jsonl").read_bytes()).hexdigest()
                        for split in ("train", "dev", "test")])
    assert digests[0] == digests[1]
    bad = _write(tmp_path, "bad.json", _explicit_task(confusion_pairs=[[1, 2]]))
    assert run(capsys, ["gen-data", "--spec", bad, "--out", str(tmp_path / "bad")]) == (
        2, "", "error: task spec: confusion_pairs must be a JSON object, got [[1, 2]]\n")


def _splits(d, **sizes):
    return _write(d, "task.json", dict(TASK, splits=dict(TASK["splits"], **sizes)))


def _system_with(t, d, **connector):
    """The tiny lego system, its checkpoint's connector fields replaced."""
    tensors, meta = load_checkpoint(t["sys"])
    meta["connector"].update(connector)
    save_checkpoint(d / "system.ckpt", tensors, meta)
    return str(d / "system.ckpt")


def _six_bytes(d):
    path = d / "six.ckpt"
    path.write_bytes(b"LEGO\x01\x00")
    return str(path)


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_values_exit_2(tiny, capsys, tmp_path, case):
    code, out, err = run(capsys, BAD_CONFIGS[case](tiny, tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# the connector cases of BAD_CONFIGS, and the words of each error line that name the field
CONNECTOR_FIELDS = {
    "adapt-blk-downscale-inf": "blk_downscale",
    "decode-blk-downscale-inf": "blk_downscale",
    "connector-block-apply_tau_at": "apply_tau_at",
    "decoder-ckpt-apply_tau_at-always": "apply_tau_at",
    "adapt-tau-inf": "tau must be",
    "decode-tau-inf": "tau must be",
    "grid-inf": "tau must be",
    "decoder-ckpt-tau-inf": "tau must be",
    "adapt-k-negative": "k must be None or an int",
    "connector-block-k-text": "k must be None or an int",
    "decode-k-0": "k must be None or an int",
    "decoder-ckpt-k-negative": "k must be None or an int",
    "connector-block-list": "connector must be a JSON object, got [1]",
    "connector-block-null": "connector must be a JSON object, got null",
    "connector-block-text": 'connector must be a JSON object, got "ab"',
}


@pytest.mark.parametrize("case", sorted(CONNECTOR_FIELDS))
def test_bad_connector_field_is_named(tiny, capsys, tmp_path, case):
    _, _, err = run(capsys, BAD_CONFIGS[case](tiny, tmp_path))
    assert CONNECTOR_FIELDS[case] in err


BAD_TRAIN = {
    "batch_size-0": {"batch_size": 0},
    "batch_size-float": {"batch_size": 2.5},
    "dropout-1.5": {"dropout": 1.5},
    "steps-text": {"steps": "5"},
    "steps-bool": {"steps": True},
    "steps-flag-negative": {},
    "log_every-0": {"log_every": 0},
    "eval_every-negative": {"eval_every": -1},
    "dev_subset-0": {"dev_subset": 0},
    "lr-negative": {"lr": -1},
    "lr-infinite": {"lr": float("inf")},
    "warmup-negative": {"warmup": -2},
    "json-list": None,
    "time_masks-float": {"augment": {"time_masks": 1.5}},
    "freq_masks-bool": {"augment": {"freq_masks": True}},
    "freq_width-text": {"augment": {"freq_width": "3"}},
    "time_ratio-1.5": {"augment": {"time_ratio": 1.5}},
    "time_ratio-text": {"augment": {"time_ratio": "0.1"}},
}


@pytest.mark.parametrize("command", ["train-encoder", "adapt"])
@pytest.mark.parametrize("case", sorted(BAD_TRAIN))
def test_bad_train_config_exits_2(tiny, capsys, tmp_path, command, case):
    block = ({"encoder": {"width": 8, "ffn": 16, "blocks": 1}} if command == "train-encoder"
             else {"decoder": DECODER})
    body = [TRAIN] if BAD_TRAIN[case] is None else dict(TRAIN, **block, **BAD_TRAIN[case])
    argv = [command, "--spec", tiny["spec"], "--config", _write(tmp_path, "train.json", body),
            "--out", str(tmp_path / "out.ckpt")]
    if command == "adapt":
        argv += ["--mode", "lego", "--encoder", tiny["enc"]]
    if case == "steps-flag-negative":
        argv += ["--steps", "-3"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out.ckpt").exists()


BAD_TASK = {
    "length-from-0": {"length_range": [0, 3]},
    "length-reversed": {"length_range": [6, 3]},
    "length-float": {"length_range": [2.0, 4]},
    "duration-reversed": {"duration_range": [6, 5]},
    "feat_dim-float": {"feat_dim": 2.0},
    "feat_dim-0": {"feat_dim": 0},
    "noise-negative": {"noise_sigma": -0.5},
    "noise-infinite": {"noise_sigma": float("inf")},
}


@pytest.mark.parametrize("command", ["gen-data", "train-encoder", "adapt"])
@pytest.mark.parametrize("case", sorted(BAD_TASK))
def test_bad_task_spec_exits_2(tiny, capsys, tmp_path, command, case):
    out = tmp_path / "out"
    argv = [command, "--spec", _write(tmp_path, "task.json", dict(TASK, **BAD_TASK[case])),
            "--out", str(out)]
    if command == "adapt":
        argv += ["--mode", "lego", "--encoder", tiny["enc"]]
    code, stdout, err = run(capsys, argv)
    assert (code, stdout) == (2, "")
    assert err.startswith("error: task spec: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["decode-eval", "swap", "sweep-tau"])
def test_utterances_too_long_for_the_decoder_exit_2(tiny, capsys, tmp_path, command):
    # 70+ tokens of 8+ frames: about 150 encoder rows and 70 text rows, over
    # the decoder's 192; decoding them would score every token as deleted
    spec = _write(tmp_path, "long.json", dict(TASK, length_range=[70, 74],
                                              duration_range=[8, 9]))
    code, out, err = run(capsys, [command, "--encoder", tiny["enc"], "--decoder", tiny["sys"],
                                  "--spec", spec, "--limit", "1"])
    assert (code, out) == (2, "")
    assert err.startswith("error: utterance ") and err.count("\n") == 1
    assert "decoder rows" in err and "max_len 192" in err


# ---------------------------------------------------------------------------
# every registry entry through the CLI


@pytest.fixture(scope="module")
def nbest_caches(tiny, tmp_path_factory):
    """`--nbest-cache` flags for beam-2 n-best files of the train and dev splits."""
    d = tmp_path_factory.mktemp("nbest")
    caches = []
    for split in ("train", "dev"):
        path = str(d / f"nbest-{split}.jsonl")
        assert cli.main(["decode-eval", "--encoder", tiny["enc"], "--spec", tiny["spec"],
                         "--split", split, "--beam", "2", "--nbest", "2",
                         "--nbest-out", path]) == 0
        caches += ["--nbest-cache", path]
    return caches


@pytest.fixture(scope="module")
def systems(tiny, nbest_caches, tmp_path_factory):
    """One adapted system checkpoint per registry entry, on the tiny task."""
    d = tmp_path_factory.mktemp("systems")
    caches = nbest_caches
    out = {}
    for mode, entry in md.CONNECTIONS.items():
        out[mode] = str(d / f"{mode}.ckpt")
        argv = ["adapt", "--mode", mode, "--encoder", tiny["enc"], "--spec", tiny["spec"],
                "--config", tiny["dec_cfg"], "--out", out[mode]]
        argv += ["--k", "2"] if entry.needs_k else []
        argv += caches if entry.reads == "nbest" else []
        assert cli.main(argv) == 0, mode
    return out


def _digest(sys_):
    return params_digest({**{f"dec/{n}": p for n, p in sys_.decoder.params.items()},
                             **{f"extra/{n}": p for n, p in sys_.extra.items()}})


@pytest.mark.parametrize("mode", tuple(md.CONNECTIONS))
def test_every_mode_decodes_and_round_trips(tiny, systems, capsys, tmp_path, mode):
    code, out, _ = run(capsys, decode(tiny, "--decoder", systems[mode], "--limit", "2",
                                      "--max-new", "6"))
    assert code == 0
    sys_, vocab, _ = cli.load_system_ckpt(systems[mode])
    config = json.loads(out)["config"]
    assert (config["decode"], config["mode"]) == ("connected", mode)
    assert config["connector"] == dataclasses.asdict(sys_.conn)
    assert sys_.conn.blk_downscale == (1e4 if mode == "lego_star" else 1.0)

    enc, _, _ = cli.load_encoder_ckpt(tiny["enc"])
    again = tmp_path / "again.ckpt"
    cli.save_system_ckpt(again, sys_, enc, vocab, {})
    back, _, _ = cli.load_system_ckpt(again)
    assert (back.mode, back.conn) == (sys_.mode, sys_.conn)
    assert _digest(back) == _digest(sys_)
    frames = cli.load_task(tiny["spec"]).splits()[2][0].frames
    a, b = md.conditioning(sys_, enc, [frames]), md.conditioning(back, enc, [frames])
    if mode == "aec":
        assert a is None and b is None
    else:
        np.testing.assert_array_equal(a.data, b.data)


def test_swap_and_sweep_tau_on_lego(tiny, systems, capsys):
    common = ["--encoder", tiny["enc"], "--decoder", systems["lego"], "--spec", tiny["spec"],
              "--limit", "2", "--max-new", "6"]
    code, out, _ = run(capsys, ["swap", *common, "--tau", "2"])
    assert code == 0
    config = json.loads(out)["config"]
    assert (config["mode"], config["connector"]["tau"], config["n_utts"]) == ("lego", 2.0, 2)
    code, out, _ = run(capsys, ["sweep-tau", *common, "--grid", "0.5,2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "tau,wer,sub,del,ins,n_ref"
    assert [line.split(",")[0] for line in lines[1:]] == ["0.5", "2"]


def test_sweep_tau_builds_aec_lists_once(tiny, systems, capsys, monkeypatch):
    searched = []
    real = cli.beam_search

    def counted(p, *args, **kwargs):
        searched.append(len(p.lengths))
        return real(p, *args, **kwargs)

    monkeypatch.setattr(cli, "beam_search", counted)
    code, out, _ = run(capsys, ["sweep-tau", "--encoder", tiny["enc"], "--decoder",
                                systems["aec"], "--spec", tiny["spec"], "--max-new", "4"])
    assert code == 0
    assert len(out.splitlines()) == 1 + len(cli.DEFAULT_TAU_GRID)
    assert sum(searched) == TASK["splits"]["test"]


def test_sweep_tau_runs_the_encoder_once(tiny, systems, capsys, monkeypatch):
    calls = []
    forward = md.SpeechEncoder.forward

    def counted(self, *args, **kwargs):
        calls.append(1)
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(md.SpeechEncoder, "forward", counted)
    argv = ["sweep-tau", "--encoder", tiny["enc"], "--decoder", systems["lego"],
            "--spec", tiny["spec"], "--max-new", "6"]
    code, csv, _ = run(capsys, argv)
    assert (code, len(calls)) == (0, 1)
    assert len(csv.splitlines()) == 1 + len(cli.DEFAULT_TAU_GRID)
    # the reference sweep: handed no readouts, each tau's evaluate_system
    # runs the encoder itself
    monkeypatch.setattr(cli, "encoder_readout", lambda *args: None)
    calls.clear()
    code, per_tau, _ = run(capsys, argv)
    assert (code, len(calls)) == (0, len(cli.DEFAULT_TAU_GRID))
    assert csv == per_tau


@pytest.mark.parametrize("command", ["decode-eval", "swap", "sweep-tau"])
def test_overflowing_decoder_exits_1_naming_the_logits(tiny, capsys, tmp_path, command):
    # finite weights whose final layer norm overflows float32 in every pass
    tensors, meta = load_checkpoint(tiny["sys"])
    tensors["dec/lnfg"] = tensors["dec/lnfg"] * np.float32(3e38)
    bad = tmp_path / "overflow.ckpt"
    save_checkpoint(bad, tensors, meta)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, [command, "--encoder", tiny["enc"], "--decoder", str(bad),
                                      "--spec", tiny["spec"]])
    assert (code, out) == (1, "")
    assert err == "error: non-finite values in the next-token logits\n"
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def _per_head_layout(tensors, meta):
    """Cut each fused attention pair of `tensors`, in place, into the per-head
    tensors `{enc,dec}/blk{i}.h{j}.{wq,wk,wv,wo}` of older checkpoints."""
    heads = {"enc": 1, "dec": meta.get("decoder_config", {}).get("heads")}
    for name in [n for n in tensors if n.endswith(".wqkv")]:
        block = name[:-len(".wqkv")]
        parts = split_heads(tensors.pop(name), tensors.pop(f"{block}.wo"),
                            heads[name.split("/")[0]])
        tensors.update({f"{block}.{part}": arr for part, arr in parts.items()})


def test_parent_format_encoder_checkpoint_loads(tiny, tmp_path):
    tensors, meta = load_checkpoint(tiny["enc"])
    _per_head_layout(tensors, meta)
    assert "enc/blk0.h0.wq" in tensors and "enc/blk0.wqkv" not in tensors
    old = tmp_path / "old.ckpt"
    save_checkpoint(old, tensors, meta)
    loaded, _, _ = cli.load_encoder_ckpt(old)
    current, _, _ = cli.load_encoder_ckpt(tiny["enc"])
    assert params_digest(loaded.params) == params_digest(current.params)


def test_parent_format_system_checkpoint_loads(systems, tmp_path):
    # older checkpoints repeated the mode inside the connector block, said
    # where tau applies, and held each attention head's projections as
    # tensors of their own
    tensors, meta = load_checkpoint(systems["topP"])
    meta["connector"].update(mode="topP", apply_tau_at="inference_only")
    _per_head_layout(tensors, meta)
    assert "dec/blk0.h1.wo" in tensors and "dec/blk0.wo" not in tensors
    old = tmp_path / "old.ckpt"
    save_checkpoint(old, tensors, meta)
    loaded, _, _ = cli.load_system_ckpt(old)
    current, _, _ = cli.load_system_ckpt(systems["topP"])
    assert (loaded.mode, loaded.conn) == (current.mode, current.conn)
    assert _digest(loaded) == _digest(current)


def _drop(mapping, key):
    del mapping[key]


MALFORMED = {
    "meta-key": lambda t, m: _drop(m, "decoder_config"),
    "connector-field": lambda t, m: m["connector"].update(bogus=1),
    "extra-missing": lambda t, m: _drop(t, "extra/topp.proj"),
    "extra-shape": lambda t, m: t.update({"extra/topp.proj": t["extra/topp.proj"][:-1]}),
    "extra-unknown": lambda t, m: t.update({"extra/sp.proj": t["extra/topp.proj"]}),
    "decoder-tensor": lambda t, m: _drop(t, "dec/emb"),
    "decoder-tensor-nan": lambda t, m: t["dec/emb"].__setitem__((0, 0), np.nan),
    "per-head-missing": lambda t, m: (_per_head_layout(t, m), _drop(t, "dec/blk0.h1.wk")),
    "per-head-shape": lambda t, m: (_per_head_layout(t, m),
                                    t.update({"dec/blk0.h0.wo": t["dec/blk0.h0.wo"][:-1]})),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_system_checkpoint_exits_2(tiny, systems, capsys, tmp_path, case):
    tensors, meta = load_checkpoint(systems["topP"])
    MALFORMED[case](tensors, meta)
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, tensors, meta)
    with pytest.raises(CheckpointError):
        cli.load_system_ckpt(bad)
    code, out, err = run(capsys, decode(tiny, "--decoder", str(bad)))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def _aec_config(tmp_path, **extra):
    return _write(tmp_path, "aec.json", dict(TRAIN, decoder=DECODER, **extra))


def _bad_line_cache(tmp_path, caches):
    lines = Path(caches[1]).read_text().splitlines()
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join([lines[0], "{not json}", *lines[1:]]) + "\n")
    return ["--nbest-cache", str(path), *caches[2:]], f"{path}:2: malformed n-best line"


def _bad_token_cache(tmp_path, caches):
    lines = Path(caches[1]).read_text().splitlines()
    row = json.loads(lines[-1])
    row["hyps"][0]["tokens"] = [TASK["vocab_size"]]
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join([*lines[:-1], json.dumps(row)]) + "\n")
    return (["--nbest-cache", str(path), *caches[2:]],
            f"the n-best list of {row['utt']} holds a token that is not an id in "
            f"[0, {TASK['vocab_size']})")


BAD_AEC = {
    "malformed-line": lambda d, caches: (_aec_config(d), *_bad_line_cache(d, caches)),
    "token-outside-vocab": lambda d, caches: (_aec_config(d), *_bad_token_cache(d, caches)),
    "aec_n-above-list": lambda d, caches: (_aec_config(d, aec_n=3), caches,
                                           "aec_n is 3 but the n-best list of"),
    "aec_n-zero": lambda d, caches: (_aec_config(d, aec_n=0), caches,
                                     "aec_n must be an integer >= 1, got 0"),
}


@pytest.mark.parametrize("case", sorted(BAD_AEC))
def test_bad_aec_input_exits_2_before_training(tiny, nbest_caches, capsys, tmp_path,
                                               monkeypatch, case):
    config, caches, message = BAD_AEC[case](tmp_path, nbest_caches)

    def no_training(*args, **kwargs):
        raise AssertionError("adapt_decoder ran")

    monkeypatch.setattr(cli, "adapt_decoder", no_training)
    code, out, err = run(capsys, ["adapt", "--mode", "aec", "--encoder", tiny["enc"],
                                  "--spec", tiny["spec"], "--config", config,
                                  "--out", str(tmp_path / "aec.ckpt"), *caches])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_malformed_split_line_exits_2(tiny, capsys, tmp_path):
    assert cli.main(["gen-data", "--spec", tiny["spec"], "--out", str(tmp_path)]) == 0
    path = tmp_path / "test.jsonl"
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], "{not json}", *lines[2:]]) + "\n")
    code, out, err = run(capsys, decode(tiny, "--data", str(tmp_path)))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}:2: malformed utterance line") and err.count("\n") == 1


def test_edited_split_file_exits_2(tiny, capsys, tmp_path):
    assert cli.main(["gen-data", "--spec", tiny["spec"], "--out", str(tmp_path)]) == 0
    path = tmp_path / "test.jsonl"
    lines = path.read_text().splitlines()
    row = json.loads(lines[1])
    row["tgt"][0] = (row["tgt"][0] + 1) % TASK["vocab_size"]  # still a valid line
    path.write_text("\n".join([lines[0], json.dumps(row, sort_keys=True), *lines[2:]]) + "\n")
    code, out, err = run(capsys, decode(tiny, "--data", str(tmp_path)))
    assert (code, out) == (2, "")
    assert err == (f"error: {path}: contents differ from the sha256 in "
                   f"{tmp_path / 'manifest.json'}\n")


def test_split_without_a_manifest_hash_exits_2(tiny, capsys, tmp_path):
    assert cli.main(["gen-data", "--spec", tiny["spec"], "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    del manifest["sha256"]["test"]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    code, out, err = run(capsys, decode(tiny, "--data", str(tmp_path)))
    assert (code, out) == (2, "")
    assert err == (f"error: {tmp_path / 'test.jsonl'}: {tmp_path / 'manifest.json'} "
                   f"records no sha256 for this split\n")
    code, _, _ = run(capsys, decode(tiny, "--data", str(tmp_path), "--split", "dev"))
    assert code == 0


@pytest.mark.parametrize("command", ["decode-eval", "sweep-tau", "swap"])
def test_empty_split_exits_2(tiny, capsys, tmp_path, command):
    assert cli.main(["gen-data", "--spec", tiny["spec"], "--out", str(tmp_path)]) == 0
    path = tmp_path / "test.jsonl"
    path.write_text("")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["sha256"]["test"] = hashlib.sha256(b"").hexdigest()  # a consistent manifest
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    argv = [command, "--encoder", tiny["enc"], "--data", str(tmp_path)]
    if command != "decode-eval":
        argv += ["--decoder", tiny["sys"]]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: the split holds no utterances\n"


@pytest.mark.parametrize("flags", [["--nbest", "2"], ["--nbest-out", "nbest.jsonl"],
                                   ["--nbest", "2", "--nbest-out", "nbest.jsonl"]])
def test_nbest_flags_with_a_decoder_exit_2(tiny, capsys, tmp_path, monkeypatch, flags):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, decode(tiny, "--decoder", tiny["sys"], "--limit", "2", *flags))
    assert (code, out) == (2, "")
    assert err.startswith("error: --nbest and --nbest-out") and err.count("\n") == 1
    assert not (tmp_path / "nbest.jsonl").exists()


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_split_frames_exit_2(tiny, capsys, tmp_path, value):
    assert cli.main(["gen-data", "--spec", tiny["spec"], "--out", str(tmp_path)]) == 0
    path = tmp_path / "test.jsonl"
    lines = path.read_text().splitlines()
    utt = utterance_from_json(lines[1])
    utt.frames[0, 0] = value
    path.write_text("\n".join([lines[0], utterance_to_json(utt), *lines[2:]]) + "\n")
    code, out, err = run(capsys, decode(tiny, "--data", str(tmp_path)))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}:2: malformed utterance line") and err.count("\n") == 1
    assert "non-finite" in err


UNFIT_TASK = {"feat_dim-12": (dict(TASK, feat_dim=12),
                              "task feat_dim 12 differs from the encoder checkpoint's 4"),
              "vocab_size-10": (dict(TASK, vocab_size=10),
                                "task vocabulary differs from the encoder checkpoint")}


@pytest.mark.parametrize("source", ["spec", "data"])
@pytest.mark.parametrize("case", sorted(UNFIT_TASK))
@pytest.mark.parametrize("command", ["decode-eval", "sweep-tau", "swap"])
def test_evaluating_a_task_that_does_not_fit_the_encoder_exits_2(tiny, capsys, tmp_path,
                                                                 command, case, source):
    task, message = UNFIT_TASK[case]
    spec = _write(tmp_path, "task.json", task)
    argv = [command, "--encoder", tiny["enc"], "--spec", spec]
    if source == "data":
        assert cli.main(["gen-data", "--spec", spec, "--out", str(tmp_path / "data")]) == 0
        argv[-2:] = ["--data", str(tmp_path / "data")]
    if command != "decode-eval":
        argv += ["--decoder", tiny["sys"]]
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["adapt", "resume"])
def test_training_on_a_task_of_another_feat_dim_exits_2(tiny, capsys, tmp_path, command):
    task, message = UNFIT_TASK["feat_dim-12"]
    spec, out = _write(tmp_path, "task.json", task), tmp_path / "out.ckpt"
    argv = {
        "adapt": ["adapt", "--mode", "lego", "--encoder", tiny["enc"], "--spec", spec,
                  "--config", tiny["dec_cfg"], "--out", str(out)],
        "resume": ["train-encoder", "--spec", spec, "--config", tiny["enc_cfg"],
                   "--resume", tiny["enc"], "--out", str(out)],
    }[command]
    assert run(capsys, argv) == (2, "", f"error: {message}\n")
    assert not out.exists()


def _not_utf8(d):
    path = d / "latin1.json"
    path.write_bytes(b'{"name": "caf\xe9"}')
    return str(path)


def _aec_adapt(t, d, cache):
    return ["adapt", "--mode", "aec", "--encoder", t["enc"], "--spec", t["spec"],
            "--config", _aec_config(d), "--nbest-cache", cache, "--out", str(d / "s.ckpt")]


# each returns the argv and the path the error names
UNREADABLE = {
    "config-directory": lambda t, d: (["train-encoder", "--spec", t["spec"], "--config", str(d),
                                       "--out", str(d / "e.ckpt")], str(d)),
    "encoder-directory": lambda t, d: (decode(t, "--encoder", str(d)), str(d)),
    "nbest-cache-directory": lambda t, d: (_aec_adapt(t, d, str(d)), str(d)),
    "out-directory": lambda t, d: (decode(t, "--limit", "1", "--out", str(d)), str(d)),
    "checkpoint-out-directory": lambda t, d: (["train-encoder", "--spec", t["spec"], "--config",
                                               t["enc_cfg"], "--out", str(d)], str(d)),
    "spec-not-utf8": lambda t, d: (["gen-data", "--spec", _not_utf8(d), "--out",
                                    str(d / "data")], _not_utf8(d)),
    "config-not-utf8": lambda t, d: (["adapt", "--mode", "lego", "--encoder", t["enc"],
                                      "--spec", t["spec"], "--config", _not_utf8(d),
                                      "--out", str(d / "s.ckpt")], _not_utf8(d)),
    "nbest-cache-not-utf8": lambda t, d: (_aec_adapt(t, d, _not_utf8(d)), _not_utf8(d)),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_unreadable_input_file_exits_2(tiny, capsys, tmp_path, case):
    argv, culprit = UNREADABLE[case](tiny, tmp_path)
    before = sorted(tmp_path.iterdir())
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and culprit in err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", ["decode-eval", "train-encoder"])
def test_out_under_a_regular_file_exits_2(tiny, capsys, tmp_path, command):
    afile = tmp_path / "afile"
    afile.write_text("")
    out = str(afile / "x.json")
    argv = {"decode-eval": decode(tiny, "--limit", "1", "--out", out),
            "train-encoder": ["train-encoder", "--spec", tiny["spec"], "--config",
                              tiny["enc_cfg"], "--out", out]}[command]
    code, stdout, err = run(capsys, argv)
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and out in err
    assert sorted(tmp_path.iterdir()) == [afile]


def _no_training(*args, **kwargs):
    raise AssertionError("models._train ran")


@pytest.mark.parametrize("flag, bad", [("--out", "directory"), ("--out", "missing-parent"),
                                       ("--curve", "directory"), ("--curve", "missing-parent")])
@pytest.mark.parametrize("command", ["train-encoder", "adapt"])
def test_bad_output_path_exits_2_before_training(tiny, capsys, tmp_path, monkeypatch,
                                                 command, flag, bad):
    monkeypatch.setattr(md, "_train", _no_training)
    path = str(tmp_path if bad == "directory" else tmp_path / "missing" / "f")
    paths = {"--out": str(tmp_path / "f.ckpt"), "--curve": str(tmp_path / "f.csv"), flag: path}
    argv = {"train-encoder": ["train-encoder", "--spec", tiny["spec"], "--config",
                              tiny["enc_cfg"]],
            "adapt": ["adapt", "--mode", "lego", "--encoder", tiny["enc"], "--spec",
                      tiny["spec"], "--config", tiny["dec_cfg"]]}[command]
    code, out, err = run(capsys, argv + ["--out", paths["--out"], "--curve", paths["--curve"]])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and path in err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# divergence: exit 1, naming where the first non-finite value appeared


def _diverge(tiny, tmp_path, command, lr, steps):
    if command == "train-encoder":
        config = dict(TRAIN, steps=steps, lr=lr, encoder={"width": 8, "ffn": 16, "blocks": 1})
        return ["train-encoder", "--spec", tiny["spec"], "--out", str(tmp_path / "div.ckpt"),
                "--config", _write(tmp_path, "div.json", config)]
    config = dict(TRAIN, steps=steps, lr=lr, decoder=DECODER)
    return ["adapt", "--mode", "lego", "--encoder", tiny["enc"], "--spec", tiny["spec"],
            "--out", str(tmp_path / "div.ckpt"), "--config", _write(tmp_path, "div.json", config)]


@pytest.mark.parametrize("command, lr, steps, step, message", [
    # the first update leaves weights near 1e30, so a matmul of the next step overflows
    ("train-encoder", 1e30, 3, 1, "non-finite values in the output of op 'matmul' (tape node "),
    # Adam's first update itself overflows float32; nothing is written
    ("train-encoder", 1e38, 3, 0, "non-finite values in the Adam update of 'conv1.w'"),
    ("adapt", 1e30, 3, 1, "non-finite values in the output of op 'matmul' (tape node "),
    # with one step the overflow happens in the final dev pass
    ("train-encoder", 1e30, 1, 0, "non-finite values in the output of op 'matmul' (tape node "),
    ("adapt", 1e30, 1, 0, "non-finite values in the output of op 'matmul' (tape node "),
], ids=["train-encoder-1e30", "train-encoder-1e38", "adapt-1e30", "train-encoder-1e30-1step",
        "adapt-1e30-1step"])
def test_divergence_exits_1_naming_the_op(tiny, capsys, tmp_path, command, lr, steps, step,
                                          message):
    code, out, err = run(capsys, _diverge(tiny, tmp_path, command, lr, steps))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: training diverged at step {step}: {message}")
    assert err.count("\n") == 1
    if command == "train-encoder":
        # load_checkpoint rejects a non-finite tensor, so loading proves finiteness
        enc, _, meta = cli.load_encoder_ckpt(tmp_path / "div.ckpt")
        assert (meta["diverged"], meta["step"]) == (True, step)
        assert all(np.isfinite(p.value).all() for p in enc.params.values())


@pytest.mark.parametrize("command, lr, steps", [
    ("train-encoder", 1e30, 3), ("train-encoder", 1e38, 3), ("adapt", 1e30, 3),
    ("train-encoder", 1e30, 1),
], ids=["train-encoder-1e30", "train-encoder-1e38", "adapt-1e30", "train-encoder-1e30-1step"])
def test_divergence_prints_no_numpy_warning(tiny, capsys, tmp_path, command, lr, steps):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, _diverge(tiny, tmp_path, command, lr, steps))
    assert (code, out) == (1, "")
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert err.startswith("error: training diverged") and err.count("\n") == 1


def test_module_run_prints_no_warning():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "ctcbridge.cli",
                           "--help"], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "gen-data" in proc.stdout


@pytest.mark.parametrize("command", ["resume", "adapt", "decode-eval", "swap", "sweep-tau"])
def test_diverged_encoder_checkpoint_exits_2(tiny, systems, capsys, tmp_path, command):
    assert run(capsys, _diverge(tiny, tmp_path, "train-encoder", 1e30, 3))[0] == 1
    div = str(tmp_path / "div.ckpt")
    argv = {
        "resume": ["train-encoder", "--spec", tiny["spec"], "--config", tiny["enc_cfg"],
                   "--resume", div, "--out", str(tmp_path / "resumed.ckpt")],
        "adapt": ["adapt", "--mode", "lego", "--encoder", div, "--spec", tiny["spec"],
                  "--config", tiny["dec_cfg"], "--out", str(tmp_path / "s.ckpt")],
        "decode-eval": decode(tiny, "--encoder", div),
        "swap": ["swap", "--encoder", div, "--decoder", systems["lego"], "--spec", tiny["spec"]],
        "sweep-tau": ["sweep-tau", "--encoder", div, "--decoder", systems["lego"],
                      "--spec", tiny["spec"]],
    }[command]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == (f"error: {div}: the encoder in this checkpoint diverged at step 1; "
                   "train it again\n")


def test_gen_data_writes_splits_matching_its_manifest(tmp_path, capsys):
    spec = _write(tmp_path, "task.json", TASK)
    code, out, _ = run(capsys, ["gen-data", "--spec", spec, "--out", str(tmp_path / "data")])
    assert code == 0
    manifest = json.loads((tmp_path / "data" / "manifest.json").read_text())
    assert json.loads(out) == manifest
    assert manifest["task"] == TASK
    for split in ("train", "dev", "test"):
        blob = (tmp_path / "data" / f"{split}.jsonl").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == manifest["sha256"][split]
        assert len(blob.decode().splitlines()) == manifest["sizes"][split] == TASK["splits"][split]


MASKS = {"time_masks": 2, "time_ratio": 0.3, "freq_masks": 2, "freq_width": 2}


def _train_tiny_encoder(tmp_path, capsys, name, aug) -> str:
    """sha256 of a 3-step tiny encoder checkpoint trained with `aug` masks."""
    cfg = dict(TRAIN, steps=3, augment=aug, encoder={"width": 8, "ffn": 16, "blocks": 1})
    out = tmp_path / f"{name}.ckpt"
    code, _, _ = run(capsys, ["train-encoder", "--spec", _write(tmp_path, "t.json", TASK),
                              "--config", _write(tmp_path, "c.json", cfg), "--out", str(out)])
    assert code == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


# the masked frames that `augment` returns to the training loop, drawn from its
# aug{step}.{j} streams: a change to the mask rng streams or to how a draw is
# scaled moves this digest, and the training arithmetic does not
AUGMENTED_FRAMES_SHA256 = "f135ce47aaba10bc75b6926661b988bceb770a955e6024531077db8276ee703a"


def test_augmented_training_frames_are_pinned(tmp_path, capsys, monkeypatch):
    batches = []

    def spy(*args):
        batches.append(augment(*args))
        return batches[-1]

    monkeypatch.setattr(md, "augment", spy)
    _train_tiny_encoder(tmp_path, capsys, "masked", MASKS)
    assert len(batches) == 3
    h = hashlib.sha256()
    for x in (x for batch in batches for x in batch):
        h.update(repr((x.dtype.str, x.shape)).encode())
        h.update(x.tobytes())
    assert h.hexdigest() == AUGMENTED_FRAMES_SHA256


# also moves with the training arithmetic: re-pinned when taped matmuls began
# to multiply in float32, with the masked frames above unchanged
AUGMENTED_ENCODER_SHA256 = "19a0a475a1b8ea2a59831309f124f7a13af0307f7423a0a1094c5070814b813e"


def test_augmented_encoder_checkpoint_is_pinned(tmp_path, capsys):
    digests = {name: _train_tiny_encoder(tmp_path, capsys, name, aug)
               for name, aug in (("masked", MASKS), ("unmasked", None))}
    assert digests["masked"] == AUGMENTED_ENCODER_SHA256
    assert digests["unmasked"] != digests["masked"]


# ---------------------------------------------------------------------------
# every JSON output embeds the config it ran with, flags applied

TAU_HALF = dataclasses.asdict(ConnectorConfig(tau=0.5))
EFFECTIVE_CONFIG = {
    "gen-data": (lambda t, d: ["gen-data", "--spec", t["spec"], "--out", str(d / "data")],
                 lambda out: out["task"], TASK),
    "train-encoder": (lambda t, d: ["train-encoder", "--spec", t["spec"], "--config",
                                    t["enc_cfg"], "--steps", "2", "--out", str(d / "e.ckpt")],
                      lambda out: out["config"],
                      {"train": dict(TRAIN, steps=2, encoder={"width": 8, "ffn": 16, "blocks": 1}),
                       "task": TASK}),
    "adapt": (lambda t, d: ["adapt", "--mode", "lego", "--encoder", t["enc"], "--spec", t["spec"],
                            "--config", t["dec_cfg"], "--steps", "2", "--tau", "0.5",
                            "--out", str(d / "s.ckpt")],
              lambda out: (out["mode"], out["config"]),
              ("lego", {"adapt": dict(TRAIN, steps=2, decoder=DECODER), "connector": TAU_HALF,
                        "task": TASK})),
    "decode-eval-ctc": (lambda t, d: decode(t, "--beam", "3", "--limit", "2", "--split", "dev"),
                        lambda out: out["config"],
                        {"decode": "ctc_beam", "beam": 3, "nbest": 1, "split": "dev",
                         "n_utts": 2}),
    "decode-eval-connected": (lambda t, d: decode(t, "--decoder", t["sys"], "--tau", "0.5",
                                                  "--beam", "3", "--max-new", "5", "--limit", "2"),
                              lambda out: out["config"],
                              {"decode": "connected", "mode": "lego", "connector": TAU_HALF,
                               "beam": 3, "max_new": 5, "split": "test", "n_utts": 2}),
    "swap": (lambda t, d: ["swap", "--encoder", t["enc"], "--decoder", t["sys"], "--spec",
                           t["spec"], "--tau", "0.5", "--beam", "3", "--max-new", "5",
                           "--limit", "2"],
             lambda out: out["config"],
             {"mode": "lego", "connector": TAU_HALF, "beam": 3, "max_new": 5, "split": "test",
              "n_utts": 2}),
}


@pytest.mark.parametrize("case", list(EFFECTIVE_CONFIG))
def test_json_output_embeds_the_effective_config(tiny, capsys, tmp_path, case):
    argv, read, want = EFFECTIVE_CONFIG[case]
    code, out, _ = run(capsys, argv(tiny, tmp_path))
    assert code == 0
    assert read(json.loads(out)) == want
