"""Closed-loop benchmark of the ctcbridge command line.

One run is one single-threaded process.  It calls `ctcbridge.cli.main(argv)`
in-process, one command after another with nothing in flight in between
(a closed loop with a single client), so later changes to the program's
internals are measured without touching this file: the subcommands, their
flags and their JSON output are the interface the benchmark relies on.

A run alternates two phases.
  set-up  writes the task spec and the configs for the seed, materialises
          the task (`gen-data`), trains an encoder to peaky posteriors,
          writes the train+dev n-best cache and adapts a lego system.
          Every workload has the same set-up (setup.json).
          `setup_s` is the median wall time of SETUP_REPEATS set-ups,
          which must write byte-identical artefacts.
  timed   after each set-up, rounds of commands run back to back until
          the rounds so far have used that set-up's share of `--seconds`,
          so the rounds spread over the whole run instead of one stretch
          of it (the machine's speed drifts over tens of seconds).  A round is
          `train-encoder` from a seeded init, `adapt` in the lego, sp and
          aec modes, encoder-only beam `decode-eval` and connected
          `decode-eval`.  Every rate is total work over total wall time of
          its commands in all rounds.

The host's speed drifts by about 2x within minutes, much the same for
every kind of code it runs.  So before every command the runner times a
fixed calibration kernel (`kernel_s`), and every reported time is scaled
to a reference machine on which that kernel takes CAL_REF_S: `wall`
seconds count as `wall * CAL_REF_S / cal`, where `cal` is the mean kernel
time over the same set-up (for `setup_s`) or over all the rounds (for the
rates).  The rates and `setup_s` are therefore "utt/s (or s) at reference
speed"; the result file keeps the plain wall-clock figures next to them.

Every workload runs every command, so every end-to-end metric is measured
on every workload; the workload files size the round's commands so that
one stage dominates the round (see each file's "why").  With `--trace 1` there is
one set-up, then untraced and traced rounds alternate (spans from
`spans.Tracer`); the per-layer metrics come from the traced rounds and
`trace.overhead` compares their mean wall time with the untraced ones'.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("train-ctc", "decode")
MODES = ("lego", "sp", "aec")
SETUP_REPEATS = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Seconds the calibration kernel takes on the reference machine (about its
# median on a 2-vCPU 2.1 GHz Xeon VM, where it ranged 0.06-0.13 s); only the
# scale of the reported figures depends on it, not their spread.
CAL_REF_S = 0.1

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train_utt_per_s": "utt/s",
    "ctc_dev_loss": "nats",
    "adapt_utt_per_s": "utt/s",
    "adapt_dev_loss.lego": "nats",
    "adapt_dev_loss.sp": "nats",
    "adapt_dev_loss.aec": "nats",
    "beam_utt_per_s": "utt/s",
    "beam_wer": "ratio",
    "connected_tok_per_s": "tok/s",
}

# The end-to-end rates and the commands whose work and time they add up.
RATES = {
    "train_utt_per_s": ("train-encoder",),
    "adapt_utt_per_s": tuple(f"adapt.{m}" for m in MODES),
    "beam_utt_per_s": ("beam",),
    "connected_tok_per_s": ("connected",),
}

# Per-layer metrics from the traced run, each with the end-to-end rate it
# should move (and on which workload) when its layer gets faster.
PER_LAYER = {
    "synthdata.make_splits.ms_per_utt": "ms",  # setup_s; train/adapt rates (splits regenerate)
    "synthdata.augment.ms_per_call": "ms",  # train_utt_per_s on train-ctc
    "models.encoder_forward.taped.ms_per_utt": "ms",  # train_utt_per_s on train-ctc
    "models.encoder_forward.untaped.ms_per_utt": "ms",  # beam_utt_per_s a little; dev passes
    "ctc.ctc_loss.ms_per_utt": "ms",  # train_utt_per_s on train-ctc
    "ctc.ctc_loss.infeasible": "count",  # skipped utterances per round
    "models.mean_ctc_loss.ms": "ms",  # train_utt_per_s (dev passes inside the command)
    "tensor.backward.ms_per_utt": "ms",  # train and adapt rates
    "tensor.ops_per_utt": "count",  # train and adapt rates; taped op calls per trained utterance
    "models.adam_step.ms_per_step": "ms",  # train and adapt rates
    "models.conditioning.ms_per_call": "ms",  # adapt_utt_per_s, connected_tok_per_s on decode
    "models.decoder_forward.ms_per_call": "ms",  # adapt_utt_per_s, connected_tok_per_s
    "models.decoder_forward.calls": "count",  # per round; connected_tok_per_s on decode
    "adapt.lego.utt_per_s": "utt/s",  # adapt_utt_per_s on train-ctc (untraced rounds)
    "adapt.sp.utt_per_s": "utt/s",
    "adapt.aec.utt_per_s": "utt/s",
    "models.generate.ms_per_token": "ms",  # connected_tok_per_s on decode
    "models.generate.ms_per_utt": "ms",
    "models.generate.eos_stop_frac": "ratio",
    "ctc.beam_search.ms_per_utt": "ms",  # beam_utt_per_s on decode; setup_s (n-best cache)
    "ctc.beam_search.ms_per_frame": "ms",
    "metrics.corpus_wer.ms": "ms",  # beam_utt_per_s (expected negligible)
    "checkpoint.save.ms": "ms",  # setup_s; tail of the train/adapt commands
    "checkpoint.load.ms": "ms",
    "trace.overhead": "ratio",  # traced over untraced round time, minus one
}


class OpFailed(Exception):
    """A CLI command failed or its output did not pass the checks."""


class SetupFailed(Exception):
    """The set-up phase could not produce what the timed phase needs."""


def load_workload(name: str) -> dict:
    """The shared set-up (setup.json) and the workload's own round sizes."""
    return {**json.loads((HERE / "setup.json").read_text()),
            **json.loads((HERE / "workloads" / f"{name}.json").read_text())}


def import_program():
    """The ctcbridge package from this checkout's src/, never an installed one."""
    src = ROOT / "src"
    if not (src / "ctcbridge" / "__init__.py").is_file():
        raise SetupFailed(f"no ctcbridge sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import ctcbridge
    from ctcbridge import checkpoint, cli, models, tensor

    if Path(ctcbridge.__file__).resolve().parent != (src / "ctcbridge").resolve():
        raise SetupFailed(f"imported ctcbridge from {ctcbridge.__file__}, not from {src}")
    return {"cli": cli, "models": models, "tensor": tensor, "checkpoint": checkpoint}


# ---------------------------------------------------------------------------
# machine speed


def _kernel() -> float:
    """Fixed work shaped like the program's: small-array numpy ops in a
    Python loop (the taped passes) and scalar logaddexp into a dict keyed by
    tuples (prefix beam search).  It depends on nothing in the program."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 48))
    w = rng.standard_normal((48, 48)) * 0.1
    mass: dict[tuple[int, int], float] = {}
    acc = 0.0
    for i in range(3000):
        h = np.tanh(x @ w)
        g = ((1.0 - h * h) @ w.T).sum(axis=0)
        for c in range(8):
            key = (i % 13, c)
            mass[key] = np.logaddexp(mass.get(key, -math.inf), g[(i + c) % 48])
        acc += float(h[0, 0])
    return acc + sum(mass.values())


def kernel_s() -> float:
    """Wall time of one run of the calibration kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def at_ref(wall: float, cal: float) -> float:
    """`wall` seconds measured while the kernel took `cal` seconds on
    average, scaled to the reference machine."""
    return wall * CAL_REF_S / cal


# ---------------------------------------------------------------------------
# running and checking one command


def _finite(result: dict, key: str, what: str) -> float:
    try:
        value = float(result[key])
    except (KeyError, TypeError, ValueError) as e:
        raise OpFailed(f"{what}: no numeric {key!r} in the output") from e
    if not math.isfinite(value):
        raise OpFailed(f"{what}: {key} is not finite ({value})")
    return value


def _check_wer(report: dict, what: str) -> None:
    try:
        errors = report["sub"] + report["del"] + report["ins"]
        n_ref, wer = report["n_ref"], report["wer"]
    except (KeyError, TypeError) as e:
        raise OpFailed(f"{what}: incomplete WER report") from e
    if n_ref < 1 or abs(wer * n_ref - errors) > 1e-9 * n_ref:
        raise OpFailed(f"{what}: wer * n_ref != sub + del + ins ({report})")


def check_result(what: str, result: dict) -> None:
    """Checks that hold for every command's JSON output."""
    for key in ("initial_dev_loss", "final_dev_loss"):
        if key in result:
            _finite(result, key, what)
    if "wer" in result:
        _check_wer(result, what)
    if "dev_greedy" in result:
        _check_wer(result["dev_greedy"], what)


def check_checkpoint(program: dict, path: Path, what: str) -> None:
    try:
        program["checkpoint"].load_checkpoint(path)
    except Exception as e:  # any failure to read back is the finding
        raise OpFailed(f"{what}: checkpoint {path.name} does not load back: {e!r}") from e


def check_nbest(path: Path, ids: list[str], what: str) -> None:
    seen = set()
    for line in path.read_text().splitlines():
        if not line:
            continue
        try:
            entry = json.loads(line)
            scores = [float(h["logp"]) for h in entry["hyps"]]
            utt = entry["utt"]
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
            raise OpFailed(f"{what}: malformed n-best line") from e
        if not scores or any(a < b for a, b in zip(scores, scores[1:])):
            raise OpFailed(f"{what}: n-best list for {utt} is empty or unsorted")
        seen.add(utt)
    if seen != set(ids):
        raise OpFailed(f"{what}: n-best file covers {len(seen & set(ids))} of {len(ids)} "
                       f"utterances and {len(seen - set(ids))} unknown ones")


class Cli:
    """Runs `cli.main(argv)` in-process and records every argv it ran.

    Each command is preceded by a run of the calibration kernel, whose time
    is appended to `cals` (it is not part of the command's wall time).
    """

    def __init__(self, program: dict, tracer: Tracer | None = None):
        self.program = program
        self.tracer = tracer
        self.argv_log: dict[str, list[str]] = {}
        self.cals: list[float] = []

    def run(self, name: str, argv: list[str]) -> tuple[dict, float]:
        self.argv_log.setdefault(name, list(argv))
        self.cals.append(kernel_s())
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span(f"cli.{name}") if self.tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.program["cli"].main(argv)
        except SystemExit as e:
            rc = e.code
        except Exception as e:  # the command crashed: count it, keep the loop going
            raise OpFailed(f"{name}: raised {e!r}") from e
        wall = time.perf_counter() - start
        if rc != 0:
            raise OpFailed(f"{name}: exit code {rc}: {err.getvalue().strip()[-300:]}")
        lines = out.getvalue().strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError) as e:
            raise OpFailed(f"{name}: last output line is not JSON") from e
        if not isinstance(result, dict):
            raise OpFailed(f"{name}: output is not a JSON object")
        check_result(name, result)
        return result, wall


# ---------------------------------------------------------------------------
# set-up and the timed round


def write_inputs(cfg: dict, seed: int, work: Path) -> dict:
    """Task spec and configs for this seed; the CLI only ever sees these files."""
    work.mkdir(parents=True, exist_ok=True)
    task = json.loads((HERE / "task.json").read_text())
    task["splits"] = dict(cfg["splits"], seed=seed)
    files = {"task": (work / "task.json", task)}
    for key, conf in (("setup_encoder", cfg["setup"]["encoder"]),
                      ("setup_lego", cfg["setup"]["lego"]),
                      ("train", cfg["round"]["train_encoder"]),
                      ("adapt", cfg["round"]["adapt"])):
        files[key] = (work / f"{key}.json", dict(conf, seed=seed))
    for path, body in files.values():
        path.write_text(json.dumps(body, sort_keys=True, indent=1) + "\n")
    return {key: str(path) for key, (path, _) in files.items()}


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def setup(cli: Cli, cfg: dict, files: dict, d: Path) -> dict:
    """gen-data, set-up encoder, train+dev n-best cache, lego system."""
    d.mkdir(parents=True, exist_ok=True)
    data, enc, lego = d / "data", d / "enc.ckpt", d / "lego.ckpt"
    manifest, _ = cli.run("setup.gen-data", ["gen-data", "--spec", files["task"], "--out", str(data)])
    sizes = dict(cfg["splits"])
    if manifest.get("sizes") != sizes:
        raise OpFailed(f"setup.gen-data: sizes {manifest.get('sizes')} != {sizes}")
    ids = {split: [json.loads(line)["id"] for line in
                   (data / f"{split}.jsonl").read_text().splitlines() if line]
           for split in sizes}
    cli.run("setup.train-encoder", ["train-encoder", "--spec", files["task"],
                                    "--config", files["setup_encoder"], "--out", str(enc)])
    check_checkpoint(cli.program, enc, "setup.train-encoder")
    nbest = []
    for split in ("train", "dev"):
        path = d / f"nbest-{split}.jsonl"
        cli.run(f"setup.nbest.{split}", [
            "decode-eval", "--encoder", str(enc), "--data", str(data), "--split", split,
            "--beam", str(cfg["setup"]["nbest_beam"]), "--nbest-out", str(path)])
        check_nbest(path, ids[split], f"setup.nbest.{split}")
        nbest.append(str(path))
    cli.run("setup.adapt.lego", ["adapt", "--mode", "lego", "--encoder", str(enc),
                                 "--spec", files["task"], "--config", files["setup_lego"],
                                 "--out", str(lego)])
    check_checkpoint(cli.program, lego, "setup.adapt.lego")
    return {"data": str(data), "enc": str(enc), "lego": str(lego), "nbest": nbest,
            "digests": [_digest(p) for p in (enc, lego, *map(Path, nbest))]}


def round_ops(cfg: dict, files: dict, art: dict, d: Path) -> list[tuple[str, list[str], Path | None]]:
    """(name, argv, checkpoint it writes) for every command of one round."""
    d.mkdir(parents=True, exist_ok=True)
    r = cfg["round"]
    ops = [("train-encoder", ["train-encoder", "--spec", files["task"], "--config", files["train"],
                              "--out", str(d / "enc.ckpt")], d / "enc.ckpt")]
    for mode in MODES:
        argv = ["adapt", "--mode", mode, "--encoder", art["enc"], "--spec", files["task"],
                "--config", files["adapt"], "--out", str(d / f"{mode}.ckpt")]
        if mode == "aec":
            for path in art["nbest"]:
                argv += ["--nbest-cache", path]
        ops.append((f"adapt.{mode}", argv, d / f"{mode}.ckpt"))
    test = ["--data", art["data"], "--split", "test"]
    ops.append(("beam", ["decode-eval", "--encoder", art["enc"], *test,
                         "--limit", str(r["beam"]["limit"]), "--beam", str(r["beam"]["beam"])], None))
    ops.append(("connected", ["decode-eval", "--encoder", art["enc"], "--decoder", art["lego"], *test,
                              "--limit", str(r["connected"]["limit"]),
                              "--max-new", str(r["connected"]["max_new"])], None))
    return ops


def work_units(name: str, cfg: dict, result: dict) -> float:
    """Utterances (tokens for `connected`) one command processed."""
    r = cfg["round"]
    if name == "train-encoder" or name.startswith("adapt."):
        conf = r["train_encoder"] if name == "train-encoder" else r["adapt"]
        if result.get("step") != conf["steps"]:
            raise OpFailed(f"{name}: ran {result.get('step')} steps, asked for {conf['steps']}")
        return conf["steps"] * conf["batch_size"]
    if name == "beam":
        return min(r["beam"]["limit"], cfg["splits"]["test"])
    try:
        return result["n_ref"] - result["del"] + result["ins"]
    except KeyError as e:
        raise OpFailed(f"{name}: no WER report in the output") from e


class Loop:
    """The timed phase: rounds of commands, outputs checked against round one."""

    def __init__(self, cli: Cli, cfg: dict):
        self.cli, self.cfg = cli, cfg
        self.reference: dict[str, dict] = {}
        self.rounds: list[dict[str, dict]] = []  # name -> {"wall", "units"}
        self.attempted = 0
        self.failures: list[str] = []
        self.skipped_infeasible = 0
        self.elapsed = 0.0  # seconds spent in rounds so far

    def run(self, ops: list, until: float) -> list[dict]:
        """Rounds back to back, at least one, until the rounds of every call
        so far add up to `until` seconds; an overrun shortens the next call."""
        done = []
        while not done or self.elapsed < until:
            start = time.perf_counter()
            done.append(self.one_round(ops))
            self.elapsed += time.perf_counter() - start
        return done

    def one_round(self, ops: list) -> dict:
        row = {}
        for name, argv, ckpt in ops:
            self.attempted += 1
            try:
                result, wall = self.cli.run(name, argv)
                if ckpt is not None:
                    check_checkpoint(self.cli.program, ckpt, name)
                first = self.reference.setdefault(name, result)
                if result != first:
                    raise OpFailed(f"{name}: output differs from the first round's")
                units = work_units(name, self.cfg, result)
            except OpFailed as e:
                self.failures.append(str(e))
                continue
            if name == "train-encoder":
                self.skipped_infeasible += int(result.get("skipped", 0))
            row[name] = {"wall": wall, "cal": self.cli.cals[-1], "units": units}
        self.rounds.append(row)
        return row


def _rate(rounds: list[dict], names: tuple[str, ...], scaled: bool = True) -> float | None:
    """Work per second of the `names` commands over all rounds, at reference
    speed unless `scaled` is false.

    Total units over total time, not a median of per-round rates: the
    machine runs up to a third faster in bursts of about a second, and a
    median of a handful of short commands jumps whenever half of them land
    in bursts, while the total averages the bursts out.  For the same
    reason the speed is the mean of every kernel run in the rounds, not the
    one next to each command.
    """
    rows = [row for row in rounds if all(n in row for n in names)]
    secs = sum(row[n]["wall"] for row in rows for n in names)
    if scaled and secs:
        secs = at_ref(secs, statistics.mean(e["cal"] for row in rounds for e in row.values()))
    return sum(row[n]["units"] for row in rows for n in names) / secs if secs else None


def _round_wall(rounds: list[dict]) -> float | None:
    walls = [sum(v["wall"] for v in row.values()) for row in rounds if row]
    return sum(walls) / len(walls) if walls else None


# ---------------------------------------------------------------------------
# metrics


def end_to_end(loop: Loop, setup_times: list[float]) -> dict:
    ref, rounds = loop.reference, loop.rounds

    def ref_value(name, *keys):
        value = ref.get(name)
        for k in keys:
            value = value.get(k) if isinstance(value, dict) else None
        return value

    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ctc_dev_loss": ref_value("train-encoder", "final_dev_loss"),
        **{f"adapt_dev_loss.{m}": ref_value(f"adapt.{m}", "final_dev_loss") for m in MODES},
        "beam_wer": ref_value("beam", "wer"),
        **{name: _rate(rounds, names) for name, names in RATES.items()},
    }


def per_layer(tracer: Tracer, untraced: list[dict], traced: list[dict], cfg: dict) -> dict:
    s, c = tracer.summary(), tracer.counts
    n_rounds = len(traced)

    def ms(layer, per=None):
        """Inclusive milliseconds per call, or per `c[layer][per]` units
        (utterances, tokens, frames) counted by the tracer's annotators."""
        row = s.get(layer)
        if row is None:
            return None
        denom = row["calls"] if per is None else c[layer][per]
        return row["total_s"] * 1e3 / denom if denom else None

    def count(layer, key):
        return c[layer][key] / n_rounds if layer in s else None

    # utterances the taped passes trained on (each ran one backward)
    r = cfg["round"]
    trained = (r["train_encoder"]["steps"] * r["train_encoder"]["batch_size"]
               + len(MODES) * r["adapt"]["steps"] * r["adapt"]["batch_size"]) * n_rounds
    gen = c["models.generate"]
    wall_untraced, wall_traced = _round_wall(untraced), _round_wall(traced)
    return {
        "synthdata.make_splits.ms_per_utt": ms("synthdata.make_splits", "utts"),
        "synthdata.augment.ms_per_call": ms("synthdata.augment"),
        "models.encoder_forward.taped.ms_per_utt": ms("models.encoder_forward.taped", "utts"),
        "models.encoder_forward.untaped.ms_per_utt": ms("models.encoder_forward.untaped", "utts"),
        "ctc.ctc_loss.ms_per_utt": ms("ctc.ctc_loss", "utts"),
        "ctc.ctc_loss.infeasible": count("ctc.ctc_loss", "infeasible"),
        "models.mean_ctc_loss.ms": ms("models.mean_ctc_loss"),
        "tensor.backward.ms_per_utt": (s["tensor.backward"]["total_s"] * 1e3 / trained
                                       if "tensor.backward" in s and trained else None),
        "tensor.ops_per_utt": tracer.ops["taped"] / trained if trained else None,
        "models.adam_step.ms_per_step": ms("models.adam_step"),
        "models.conditioning.ms_per_call": ms("models.conditioning"),
        "models.decoder_forward.ms_per_call": ms("models.decoder_forward"),
        "models.decoder_forward.calls": (s["models.decoder_forward"]["calls"] / n_rounds
                                         if "models.decoder_forward" in s else None),
        **{f"adapt.{m}.utt_per_s": _rate(untraced, (f"adapt.{m}",)) for m in MODES},
        "models.generate.ms_per_token": ms("models.generate", "tokens"),
        "models.generate.ms_per_utt": ms("models.generate", "utts"),
        "models.generate.eos_stop_frac": (gen["eos_stops"] / gen["utts"]
                                          if gen.get("utts") else None),
        "ctc.beam_search.ms_per_utt": ms("ctc.beam_search", "utts"),
        "ctc.beam_search.ms_per_frame": ms("ctc.beam_search", "frames"),
        "metrics.corpus_wer.ms": ms("metrics.corpus_wer"),
        "checkpoint.save.ms": ms("checkpoint.save"),
        "checkpoint.load.ms": ms("checkpoint.load"),
        "trace.overhead": (wall_traced / wall_untraced - 1.0
                           if wall_traced and wall_untraced else None),
    }


# ---------------------------------------------------------------------------
# provenance


def git_sha() -> str:
    """HEAD of the enclosing git checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


# ---------------------------------------------------------------------------
# one run


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 cfg: dict | None = None, out: Path = OUT) -> dict:
    """Set up, run the timed phase, check, and return the full record.

    The record's "line" is the one-line result the runner prints; the rest
    goes to the result file.
    """
    program = import_program()
    cfg = cfg if cfg is not None else load_workload(workload)
    work = out / "work" / f"{workload}-s{seed}-t{int(trace)}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    cli = Cli(program)
    loop = Loop(cli, cfg)
    tracer = None
    try:
        files = write_inputs(cfg, seed, work)
        setup_times, setup_walls, digests = [], [], None
        for i in range(1 if trace else SETUP_REPEATS):
            first_cal = len(cli.cals)
            start = time.perf_counter()
            try:
                art = setup(cli, cfg, files, work / f"setup{i}")
            except OpFailed as e:
                raise SetupFailed(str(e)) from e
            cals = cli.cals[first_cal:]
            setup_walls.append(time.perf_counter() - start - sum(cals))
            setup_times.append(at_ref(setup_walls[-1], statistics.mean(cals)))
            if digests not in (None, art["digests"]):
                raise SetupFailed("set-up repeats wrote different artefacts")
            digests = art["digests"]
            ops = round_ops(cfg, files, art, work / "round")
            if not trace:
                loop.run(ops, seconds * (i + 1) / SETUP_REPEATS)
        if trace:
            # untraced and traced rounds alternate, so both see the same
            # drift in machine speed and their difference is the overhead
            tracer, untraced, traced = Tracer(), [], []
            while not traced or loop.elapsed < seconds:
                untraced += loop.run(ops, 0)
                tracer.install(program)
                cli.tracer = tracer
                try:
                    traced += loop.run(ops, 0)
                finally:
                    tracer.uninstall()
                    cli.tracer = None
            metrics, units = per_layer(tracer, untraced, traced, cfg), PER_LAYER
        else:
            metrics, units = end_to_end(loop, setup_times), END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(loop.failures)
    line = {
        "correct": failed == 0 and (trace or all(v is not None for v in metrics.values())),
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "provenance": provenance(workload, seed, seconds, int(trace)),
        "argv": cli.argv_log,
        "workload_config": cfg,
        "setup_s": setup_times,
        "wall_clock": {
            "setup_s": setup_walls,
            "rates": {k: _rate(loop.rounds, names, scaled=False) for k, names in RATES.items()},
        },
        "cal_ref_s": CAL_REF_S,
        "rounds": loop.rounds,
        "outputs": loop.reference,
        "failures": loop.failures,
        "skipped_infeasible": loop.skipped_infeasible,
        "line": line,
    }
    if tracer is not None:
        spans_path = out / "results" / f"{workload}-seed{seed}-spans.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans_path)
        record["trace"] = {
            "layers": tracer.summary(),
            "root_total_s": tracer.root_total(),
            "ops": tracer.ops,
            "missing": tracer.missing,
            "missing_metrics": sorted(k for k, v in metrics.items() if v is None),
            "annotate_errors": tracer.annotate_errors,
            "spans_file": str(spans_path.relative_to(out)),
        }
    return record


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupFailed as e:
        print(f"error: set-up failed: {e}", file=sys.stderr)
        return 1
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"result file: {path.relative_to(ROOT)}")
    print(json.dumps(record["line"], sort_keys=True))
    return 0
