"""In-process `cli.main` runs on a tiny task: bad decode arguments exit 2."""

import json

import pytest

from ctcbridge import cli

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


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    d = tmp_path_factory.mktemp("tiny")
    files = {
        "spec": TASK,
        "enc_cfg": dict(TRAIN, encoder={"width": 8, "ffn": 16, "blocks": 1}),
        "dec_cfg": dict(TRAIN, decoder={"dim": 8, "ffn": 16, "blocks": 1, "heads": 2}),
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
    assert err == "error: --limit must be >= 0, got -1\n"
