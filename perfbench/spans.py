"""In-memory span tracing of ctcbridge, installed from outside the program.

`Tracer.install` replaces named public functions with timing wrappers at
the place the program looks them up (a module attribute such as
`models.ctc_loss`, or a class attribute such as `DecoderLM.forward`), and
`uninstall` puts the originals back.  Each call records one span
(layer, start, end, parent); self time is a span's duration minus the
part its child spans cover.  Calls into the public `tensor` ops are only
counted, split by whether the result was recorded on a tape, because one
span per op would cost more than the ops themselves.

A target the program no longer has is listed in `missing` and its
metrics are reported as missing; tracing carries on without it.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import time
from collections import defaultdict

# (layer, module key, attribute path) -- the module keys are resolved by
# the caller, so this file imports nothing from the program.
TARGETS = (
    ("synthdata.make_splits", "cli", "make_splits"),
    ("synthdata.augment", "models", "augment"),
    ("models.encoder_forward", "models", "SpeechEncoder.forward"),
    ("ctc.ctc_loss", "models", "ctc_loss"),
    ("models.mean_ctc_loss", "models", "mean_ctc_loss"),
    ("tensor.backward", "tensor", "GradTape.backward"),
    ("models.adam_step", "models", "Adam.step"),
    ("models.conditioning", "models", "conditioning"),
    ("models.decoder_forward", "models", "DecoderLM.forward"),
    ("models.generate", "models", "generate"),
    ("ctc.beam_search", "cli", "beam_search"),
    ("metrics.corpus_wer", "cli", "corpus_wer"),
    ("metrics.corpus_wer", "models", "corpus_wer"),
    ("checkpoint.save", "cli", "save_checkpoint"),
    ("checkpoint.load", "cli", "load_checkpoint"),
)

# public tensor functions that are not ops
NOT_OPS = frozenset({"precision", "as_tensor", "finite_diff_check"})


# The annotators count utterances from the shape of the arguments, so the
# per-utterance metrics stay per utterance if a function starts taking a
# batch: a stack of one-utterance arrays, or a list of token sequences.


def _n_arrays(x, ndim: int) -> int:
    """1 for one utterance's `ndim`-dim array, else the size of the batch."""
    if isinstance(x, (list, tuple)):
        return len(x)
    return 1 if len(x.shape) == ndim else x.shape[0]


def _seqs(x) -> list:
    """One token sequence, or a batch of them, as a list of sequences."""
    return list(x) if x and isinstance(x[0], (list, tuple)) else [x]


def _annotate_make_splits(args, result, counts):
    counts["utts"] += sum(len(split) for split in result)


def _annotate_encoder_forward(args, result, counts):
    counts["utts"] += _n_arrays(args["frames"], 2)


def _annotate_ctc_loss(args, result, counts):
    counts["utts"] += len(_seqs(args["y"]))
    counts["infeasible"] += int(not result.feasible)


def _annotate_generate(args, result, counts):
    speech, prompts, max_new = args["speech"], _seqs(args["prompt"]), args["max_new"]
    s = 0 if speech is None else speech.shape[-2]
    for prompt, out in zip(prompts, _seqs(result)):
        budget = min(max_new, args["sys"].decoder.cfg.max_len - s - len(prompt))
        counts["tokens"] += len(out)
        counts["eos_stops"] += int(len(out) < budget)
    counts["utts"] += len(prompts)


def _annotate_beam_search(args, result, counts):
    probs = args["p"].probs
    counts["utts"] += _n_arrays(probs, 2)
    counts["frames"] += math.prod(probs.shape[:-1])


ANNOTATORS = {
    "synthdata.make_splits": _annotate_make_splits,
    "models.encoder_forward": _annotate_encoder_forward,
    "ctc.ctc_loss": _annotate_ctc_loss,
    "models.generate": _annotate_generate,
    "ctc.beam_search": _annotate_beam_search,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # layer, start, end, parent
        self.counts: dict[str, defaultdict] = defaultdict(lambda: defaultdict(int))
        self.ops = {"taped": 0, "untaped": 0}
        self.missing: list[str] = []
        self.annotate_errors: dict[str, str] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, layer: str):
        """Record one span around a block; used for the CLI commands."""
        idx = self._open(layer)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((layer, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        layer, start, _, parent = self.spans[idx]
        self.spans[idx] = (layer, start, time.perf_counter(), parent)
        self._stack.pop()

    # -- installing --------------------------------------------------------

    def install(self, modules: dict) -> None:
        self.missing = []
        for layer, key, path in TARGETS:
            owner, attr = modules.get(key), path
            if "." in path:
                cls_name, attr = path.split(".", 1)
                owner = getattr(owner, cls_name, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.missing.append(f"{key}.{path}")
                continue
            self._patch(owner, attr, self._wrap(layer, fn))
        tensor = modules["tensor"]
        for name, fn in list(vars(tensor).items()):
            if (inspect.isfunction(fn) and fn.__module__ == tensor.__name__
                    and not name.startswith("_") and name not in NOT_OPS):
                self._patch(tensor, name, self._count(fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, layer: str, fn):
        annotate = ANNOTATORS.get(layer)
        signature = inspect.signature(fn)
        split_taped = layer == "models.encoder_forward"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            name = layer
            if annotate is not None or split_taped:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                except TypeError as e:
                    tracer.annotate_errors[layer] = f"signature: {e}"
            if split_taped and bound is not None:
                taped = bound.arguments.get("tape") is not None
                name = f"{layer}.{'taped' if taped else 'untaped'}"
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if annotate is not None and bound is not None:
                try:
                    annotate(bound.arguments, result, tracer.counts[name])
                except (AttributeError, KeyError, TypeError, IndexError) as e:
                    tracer.annotate_errors[layer] = repr(e)
            return result

        return wrapper

    def _count(self, fn):
        ops = self.ops

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            ops["taped" if getattr(out, "tape", None) is not None else "untaped"] += 1
            return out

        return wrapper

    # -- summarising -------------------------------------------------------

    def summary(self) -> dict:
        """Per layer: calls, total (inclusive) seconds, self seconds."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (layer, start, end, _) in enumerate(self.spans):
            row = out.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_time[i]
        return out

    def root_total(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def dump(self, path) -> None:
        """Spans as JSON lines: layer, start, end (seconds), parent index."""
        with open(path, "w") as f:
            for layer, start, end, parent in self.spans:
                f.write(f'["{layer}",{start:.9f},{end:.9f},{parent}]\n')

