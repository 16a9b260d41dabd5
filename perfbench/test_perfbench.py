"""The benchmark's own tests: micro-size runs of every workload through the
runner, the output checks, and the runner's refusal to run without sources."""

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import harness
import spans
from spans import Tracer

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def micro(name: str) -> dict:
    """The workload's own config, shrunk so one run takes about a second."""
    cfg = harness.load_workload(name)
    cfg["splits"] = {"train": 6, "dev": 3, "test": 3}
    for conf in (cfg["setup"]["encoder"], cfg["setup"]["lego"],
                 cfg["round"]["train_encoder"], cfg["round"]["adapt"]):
        conf.update(steps=2, batch_size=2, warmup=1)
    cfg["setup"]["nbest_beam"] = 2
    cfg["round"]["beam"].update(beam=3, limit=2)
    cfg["round"]["connected"].update(limit=2, max_new=4)
    return cfg


def test_benchmark_file_matches_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == harness.PER_LAYER
    for entry in BENCHMARK["workloads"]:
        assert harness.load_workload(entry["name"])["why"] == entry["why"]


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload, tmp_path):
    record = harness.run_workload(workload, seed=3, seconds=0.01, trace=False,
                                  cfg=micro(workload), out=tmp_path)
    line = record["line"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0, record["failures"]
    # one round after each set-up: train, three adapts, two decodes
    assert line["attempted"] == 6 * harness.SETUP_REPEATS
    assert {k: v["unit"] for k, v in line["metrics"].items()} == harness.END_TO_END
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert len(record["setup_s"]) == harness.SETUP_REPEATS
    assert set(record["argv"]) == {
        "setup.gen-data", "setup.train-encoder", "setup.nbest.train", "setup.nbest.dev",
        "setup.adapt.lego", "train-encoder", "adapt.lego", "adapt.sp", "adapt.aec",
        "beam", "connected"}
    assert record["provenance"]["seed"] == 3
    assert not any((tmp_path / "work").iterdir())


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_traced_run_reports_every_layer_and_consistent_self_times(workload, tmp_path):
    record = harness.run_workload(workload, seed=3, seconds=0.01, trace=True,
                                  cfg=micro(workload), out=tmp_path)
    line = record["line"]
    assert line["correct"], record["failures"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == harness.PER_LAYER
    trace = record["trace"]
    assert trace["missing"] == [] and trace["annotate_errors"] == {}
    assert trace["missing_metrics"] == []
    layers = trace["layers"]
    for row in layers.values():
        assert -1e-9 <= row["self_s"] <= row["total_s"] + 1e-9
    # self times partition the traced commands' wall time
    assert sum(r["self_s"] for r in layers.values()) == pytest.approx(trace["root_total_s"], rel=1e-9)
    roots = sum(r["total_s"] for name, r in layers.items() if name.startswith("cli."))
    assert roots == pytest.approx(trace["root_total_s"], rel=1e-9)
    assert trace["ops"]["taped"] > 0
    spans = (tmp_path / trace["spans_file"]).read_text().splitlines()
    assert len(spans) == sum(r["calls"] for r in layers.values())


def test_missing_target_is_reported_and_originals_come_back():
    program = harness.import_program()
    cli, tensor = program["cli"], program["tensor"]
    originals = (cli.beam_search, tensor.add, tensor.GradTape.backward)
    tracer = Tracer()
    tracer.install({**program, "models": object()})
    assert cli.beam_search is not originals[0] and tensor.add is not originals[1]
    tracer.uninstall()
    assert (cli.beam_search, tensor.add, tensor.GradTape.backward) == originals
    assert "models.ctc_loss" in tracer.missing and "cli.beam_search" not in tracer.missing


def test_annotators_count_utterances_not_calls():
    counts = defaultdict(int)
    for frames in (np.zeros((57, 16)), np.zeros((8, 57, 16)), [np.zeros((57, 16))] * 3):
        spans._annotate_encoder_forward({"frames": frames}, None, counts)
    assert counts["utts"] == 1 + 8 + 3
    counts = defaultdict(int)
    for probs in (np.zeros((15, 33)), np.zeros((4, 15, 33))):
        spans._annotate_beam_search({"p": SimpleNamespace(probs=probs)}, None, counts)
    assert (counts["utts"], counts["frames"]) == (1 + 4, 15 + 4 * 15)
    counts = defaultdict(int)
    system = SimpleNamespace(decoder=SimpleNamespace(cfg=SimpleNamespace(max_len=64)))
    args = {"sys": system, "speech": None, "max_new": 3}
    spans._annotate_generate(dict(args, prompt=[1]), (5, 6, 7), counts)
    spans._annotate_generate(dict(args, prompt=[[1], [1, 2]]), [(5,), ()], counts)
    assert (counts["utts"], counts["tokens"], counts["eos_stops"]) == (3, 4, 2)


def test_rates_are_scaled_by_the_mean_kernel_time():
    ref = harness.CAL_REF_S
    rounds = [{"beam": {"wall": 2.0, "cal": 2 * ref, "units": 10},
               "connected": {"wall": 1.0, "cal": 4 * ref, "units": 30}}]
    assert harness._rate(rounds, ("beam",), scaled=False) == 5.0
    # the kernel ran 3x slower than on the reference machine, so did the program
    assert harness._rate(rounds, ("beam",)) == pytest.approx(15.0)
    assert harness._rate(rounds, ("connected",)) == pytest.approx(90.0)


def test_checks_catch_bad_outputs(tmp_path):
    harness.check_result("ok", {"wer": 0.5, "sub": 1, "del": 0, "ins": 0, "n_ref": 2,
                                "final_dev_loss": 1.0})
    with pytest.raises(harness.OpFailed, match="sub \\+ del \\+ ins"):
        harness.check_result("bad", {"wer": 0.5, "sub": 2, "del": 0, "ins": 0, "n_ref": 2})
    with pytest.raises(harness.OpFailed, match="not finite"):
        harness.check_result("bad", {"final_dev_loss": float("nan")})
    path = tmp_path / "nbest.jsonl"
    path.write_text(json.dumps({"utt": "a", "hyps": [{"logp": -1.0}, {"logp": -2.0}]}) + "\n")
    harness.check_nbest(path, ["a"], "ok")
    with pytest.raises(harness.OpFailed, match="covers"):
        harness.check_nbest(path, ["a", "b"], "missing")
    path.write_text(json.dumps({"utt": "a", "hyps": [{"logp": -2.0}, {"logp": -1.0}]}) + "\n")
    with pytest.raises(harness.OpFailed, match="unsorted"):
        harness.check_nbest(path, ["a"], "unsorted")


def test_runner_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decode", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
