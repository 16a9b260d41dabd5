"""Command-line harness tying the pieces into runnable experiments.

Subcommands mirror the experiment stages: `gen-data` materialises a task,
`train-encoder` CTC-trains the acoustic side, `adapt` fine-tunes the
decoder under a connection mode, `decode-eval` reports WER (encoder-only
beam search, or the connected system), `sweep-tau` traces the temperature
spectrum, and `swap` evaluates a decoder against a different encoder with
no weight updates.

Config files are JSON.  A task spec (`--spec`; echoed into a `gen-data`
manifest) holds `vocab_size`, `feat_dim`, `length_range`, `duration_range`,
`noise_sigma`, `confusion_prob` and `splits` (`train`, `dev`, `test`,
optional `seed`), the token chain as `chain` (`seed`, optional
`successors`, `weights`, `smoothing`) or as `transition`, `init` and
`confusion_pairs`, and optionally `prototype_seed`, `name`, `task` ("asr"
or "ast") and `translation_seed`.  A train config (`--config`) holds
`TrainConfig` fields (`augment` is a `MaskConfig` object or null), an
`encoder` block of `EncoderConfig` fields for `train-encoder`, and for
`adapt` a `decoder` block of `DecoderConfig` fields, a `connector` block of
`ConnectorConfig` fields, `aec_n` and `use_prompt_token`.  Command-line
flags override file values, and every JSON result embeds the effective
config so it can be traced to its inputs: a `gen-data` manifest as `task`,
the other commands under `config`.  The `sweep-tau` CSV and `--curve` loss
CSVs carry none.  Exit codes: 0 success, 1 runtime or numerical failure,
2 usage/config errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from . import tensor as tt
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .connector import ConnectorConfig
from .ctc import NBestList, beam_search, greedy_decode, nbest_from_json, nbest_to_json
from .lexicon import Posteriorgram, Vocabulary
from .metrics import corpus_wer, werr
from .models import (
    CONNECTIONS,
    INFERENCE_BATCH,
    DecoderConfig,
    DecoderLM,
    DecoderSystem,
    EncoderConfig,
    SpeechEncoder,
    TrainConfig,
    TrainingDiverged,
    adapt_decoder,
    build_system,
    check_fits,
    check_system,
    encoder_readout,
    evaluate_system,
    train_encoder_ctc,
)
from .synthdata import (
    SPLITS,
    MaskConfig,
    TaskSpec,
    Utterance,
    build_chain,
    build_translation,
    build_vocabulary,
    make_splits,
    prompt_token_id,
    utterance_from_json,
    utterance_to_json,
)

DEFAULT_TAU_GRID = (1e-4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1e4)


class ConfigError(ValueError):
    pass


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text ({e})") from e


def _load_json(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"no such file: {p}")
    try:
        return json.loads(_read_text(p))
    except json.JSONDecodeError as e:
        raise ConfigError(f"{p}: invalid JSON ({e})") from e


# ---------------------------------------------------------------------------
# task loading


@dataclass
class TaskBundle:
    spec: TaskSpec
    sizes: dict
    seed: int
    translation: Optional[dict[int, int]]
    raw: dict  # resolved config, echoed into outputs

    def splits(self, *names: str) -> tuple[list[Utterance], ...]:
        """The named splits (all three if none are named), in that order."""
        return make_splits(self.spec, self.sizes["train"], self.sizes["dev"],
                           self.sizes["test"], self.seed, self.translation,
                           names or SPLITS)


def load_task(source) -> TaskBundle:
    raw = dict(source) if isinstance(source, dict) else _load_json(source)
    try:
        vocab = build_vocabulary(raw["vocab_size"])
        if "chain" in raw:
            ch = raw["chain"]
            trans, init, pairs = build_chain(
                vocab, ch["seed"], ch.get("successors", 4),
                tuple(ch.get("weights", (0.45, 0.3, 0.15, 0.1))),
                ch.get("smoothing", 0.01),
            )
        else:
            trans = np.asarray(raw["transition"], dtype=np.float64)
            init = np.asarray(raw["init"], dtype=np.float64)
            pairs = {int(k): int(v) for k, v in raw.get("confusion_pairs", {}).items()}
        spec = TaskSpec(
            vocab=vocab,
            feat_dim=raw["feat_dim"],
            transition=trans,
            init_probs=init,
            length_range=tuple(raw["length_range"]),
            duration_range=tuple(raw["duration_range"]),
            noise_sigma=raw["noise_sigma"],
            confusion=pairs,
            confusion_prob=raw["confusion_prob"],
            prototype_seed=raw.get("prototype_seed", 7),
            name=raw.get("name", "task"),
        )
        translation = None
        if raw.get("task", "asr") == "ast":
            translation = build_translation(vocab, raw.get("translation_seed", 5))
        sizes = dict(raw["splits"])
        seed = sizes.pop("seed", 0)
        for name in SPLITS:  # all three, built or not
            if type(sizes[name]) is not int or sizes[name] < 1:
                raise ValueError(f"splits.{name} must be an int >= 1, got {sizes[name]!r}")
        if type(seed) is not int:
            raise ValueError(f"splits.seed must be an int, got {seed!r}")
    except KeyError as e:
        raise ConfigError(f"task spec is missing field {e}") from e
    except (TypeError, ValueError) as e:
        raise ConfigError(f"task spec: {e}") from e
    return TaskBundle(spec, sizes, seed, translation, raw)


def _read_jsonl_split(data_dir: Path, split: str, expected: Optional[str],
                      manifest_path: Path) -> list[Utterance]:
    """One split file's utterances, checked line by line, then against
    `expected`, the sha256 that the gen-data manifest records for it."""
    path = data_dir / f"{split}.jsonl"
    if not path.exists():
        raise ConfigError(f"no such split file: {path}")
    blob = path.read_bytes()
    utts = []
    for lineno, line in enumerate(blob.decode(errors="replace").splitlines(), 1):
        if line:
            try:
                utts.append(utterance_from_json(line))
            except (KeyError, TypeError, ValueError) as e:
                raise ConfigError(f"{path}:{lineno}: malformed utterance line ({e!r})") from e
    if expected is None:
        raise ConfigError(f"{path}: {manifest_path} records no sha256 for this split")
    if hashlib.sha256(blob).hexdigest() != expected:
        raise ConfigError(f"{path}: contents differ from the sha256 in {manifest_path}")
    if not utts:
        raise ConfigError(f"{path}: the split holds no utterances")
    return utts


def resolve_dataset(args, split: str) -> tuple[TaskSpec, list[Utterance]]:
    """The task and the split's utterances: from the materialised directory
    if --data was given, else built on the fly from --spec."""
    if args.data:
        data_dir = Path(args.data)
        manifest_path = data_dir / "manifest.json"
        manifest = _load_json(manifest_path)
        try:
            task, expected = dict(manifest["task"]), manifest.get("sha256", {}).get(split)
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"{manifest_path}: not a gen-data manifest ({e!r})") from e
        spec = load_task(task).spec  # validates the task block
        return spec, _read_jsonl_split(data_dir, split, expected, manifest_path)
    if not args.spec:
        raise ConfigError("need --spec TASK.json or --data DIR")
    bundle = load_task(args.spec)
    (utts,) = bundle.splits(split)
    return bundle.spec, utts


def _check_task(spec: TaskSpec, enc: SpeechEncoder, enc_vocab: Vocabulary) -> None:
    """ConfigError unless the task's tokens and feature dimension are the encoder's."""
    if spec.vocab.tokens != enc_vocab.tokens:
        raise ConfigError("task vocabulary differs from the encoder checkpoint")
    if spec.feat_dim != enc.cfg.feat_dim:
        raise ConfigError(f"task feat_dim {spec.feat_dim} differs from the encoder "
                          f"checkpoint's {enc.cfg.feat_dim}")


# ---------------------------------------------------------------------------
# config files


def load_train_config(path: Optional[str], overrides: dict) -> tuple[TrainConfig, dict]:
    raw = _load_json(path) if path else {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: a train config must be a JSON object")
    raw.update({k: v for k, v in overrides.items() if v is not None})
    known = {f.name for f in dataclasses.fields(TrainConfig)} - {"augment"}
    aug = raw.get("augment", {})
    try:
        cfg = TrainConfig(augment=None if aug is None else MaskConfig(**aug),
                          **{k: v for k, v in raw.items() if k in known})
    except (TypeError, ValueError) as e:
        raise ConfigError(f"train config: {e}") from e
    return cfg, raw


def connector_with_overrides(conn: dict, args, mode: str, out_slots: int) -> ConnectorConfig:
    """`conn` with the --tau/--blk-downscale/--k flags applied, checked for `mode`."""
    conn = dict(conn)
    for key in ("tau", "blk_downscale", "k"):
        if getattr(args, key, None) is not None:
            conn[key] = getattr(args, key)
    try:
        cfg = ConnectorConfig(**conn)
        CONNECTIONS[mode].check_k(cfg, out_slots)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"connector: {e}") from e
    return cfg


# ---------------------------------------------------------------------------
# checkpoint glue


def save_encoder_ckpt(path, enc: SpeechEncoder, vocab: Vocabulary, meta_extra: dict):
    tensors = {f"enc/{n}": p.value for n, p in enc.params.items()}
    meta = {"kind": "encoder", "vocab": json.loads(vocab.to_json()),
            "encoder_config": dataclasses.asdict(enc.cfg), "seed": enc.seed}
    meta.update(meta_extra)
    save_checkpoint(path, tensors, meta)


def _stacked_heads(tensors: dict, key: str) -> Optional[np.ndarray]:
    """`blk{i}.wqkv` or `blk{i}.wo` from the per-head layout that checkpoints
    held before attention was fused: `blk{i}.h{j}.{wq,wk,wv,wo}`.  The
    query, key and value heads sit side by side in that order, the `wo`
    heads on top of each other; None if a head's tensor is missing."""
    block, kind = key.rsplit(".", 1)
    heads = 0
    while f"{block}.h{heads}.wq" in tensors:
        heads += 1
    parts = ("wq", "wk", "wv") if kind == "wqkv" else ("wo",)
    names = [f"{block}.h{j}.{nm}" for nm in parts for j in range(heads)]
    if not names or any(nm not in tensors for nm in names):
        return None
    try:
        return np.concatenate([tensors[nm] for nm in names], axis=1 if kind == "wqkv" else 0)
    except ValueError:  # heads of unequal shapes
        return None


def _fill(path, params: dict[str, tt.Parameter], tensors: dict, prefix: str) -> None:
    for n, p in params.items():
        t = tensors.get(f"{prefix}/{n}")
        if t is None and n.endswith((".wqkv", ".wo")):
            t = _stacked_heads(tensors, f"{prefix}/{n}")
        if t is None or t.shape != p.value.shape:
            raise CheckpointError(f"{path}: tensor {prefix}/{n} is missing or has the wrong shape")
        p.value[...] = t


def load_encoder_ckpt(path) -> tuple[SpeechEncoder, Vocabulary, dict]:
    tensors, meta = load_checkpoint(path)
    if meta.get("kind") not in ("encoder", "system"):
        raise CheckpointError(f"{path}: not an encoder-bearing checkpoint")
    try:
        vocab = Vocabulary.from_json(json.dumps(meta["vocab"]))
        enc = SpeechEncoder(EncoderConfig(**meta["encoder_config"]), meta.get("seed", 0))
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: malformed checkpoint metadata ({e!r})") from e
    _fill(path, enc.params, tensors, "enc")
    return enc, vocab, meta


def load_trained_encoder(path) -> tuple[SpeechEncoder, Vocabulary, dict]:
    """`load_encoder_ckpt`, refusing the checkpoint a diverged run leaves."""
    enc, vocab, meta = load_encoder_ckpt(path)
    if meta.get("diverged"):
        raise CheckpointError(f"{path}: the encoder in this checkpoint diverged at step "
                              f"{meta.get('step')}; train it again")
    return enc, vocab, meta


def save_system_ckpt(path, sys_: DecoderSystem, enc: SpeechEncoder, vocab: Vocabulary,
                     meta_extra: dict):
    tensors = {f"enc/{n}": p.value for n, p in enc.params.items()}
    tensors.update({f"dec/{n}": p.value for n, p in sys_.decoder.params.items()})
    tensors.update({f"extra/{n}": p.value for n, p in sys_.extra.items()})
    meta = {
        "kind": "system",
        "vocab": json.loads(vocab.to_json()),
        "encoder_config": dataclasses.asdict(enc.cfg),
        "decoder_config": dataclasses.asdict(sys_.decoder.cfg),
        "mode": sys_.mode,
        "connector": dataclasses.asdict(sys_.conn),
        "aec_n": sys_.aec_n,
        "prompt_id": sys_.prompt_id,
        "seed": enc.seed,
        "decoder_seed": sys_.decoder.seed,
    }
    meta.update(meta_extra)
    save_checkpoint(path, tensors, meta)


def load_system_ckpt(path) -> tuple[DecoderSystem, Vocabulary, dict]:
    tensors, meta = load_checkpoint(path)
    if meta.get("kind") != "system":
        raise CheckpointError(f"{path}: not a decoder-system checkpoint")
    extra = {n[len("extra/"):]: tt.Parameter(t, name=n[len("extra/"):])
             for n, t in tensors.items() if n.startswith("extra/")}
    try:
        vocab = Vocabulary.from_json(json.dumps(meta["vocab"]))
        dec = DecoderLM(DecoderConfig(**meta["decoder_config"]), vocab,
                        meta.get("decoder_seed", 0))
        conn = dict(meta["connector"])
        # older checkpoints also stored the connector's own mode name, which
        # only repeated the top-level "mode" (the registry now derives it)
        conn.pop("mode", None)
        sys_ = DecoderSystem(decoder=dec, mode=meta["mode"], conn=ConnectorConfig(**conn),
                             extra=extra, aec_n=meta.get("aec_n", 1),
                             prompt_id=meta.get("prompt_id"))
        check_system(sys_, EncoderConfig(**meta["encoder_config"]))
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: malformed system checkpoint ({e!r})") from e
    _fill(path, dec.params, tensors, "dec")
    return sys_, vocab, meta


def _check_compatible(sys_: DecoderSystem, enc: SpeechEncoder,
                      enc_vocab: Vocabulary, dec_vocab: Vocabulary):
    try:
        check_system(sys_, enc.cfg)
    except ValueError as e:
        raise ConfigError(f"decoder does not fit this encoder: {e}") from e
    entry = sys_.connection
    own_table = entry.reads == "logits" and not entry.lm_table
    if not own_table and enc_vocab.tokens != dec_vocab.tokens:
        raise ConfigError(
            "encoder and decoder vocabularies differ; retrain or use an adapter-mode system"
        )


# ---------------------------------------------------------------------------
# evaluation plumbing shared by decode-eval / sweep / swap


def posteriorgrams(enc: SpeechEncoder, dataset: Sequence[Utterance]) -> Iterator[Posteriorgram]:
    """The CTC posteriorgrams of `dataset`, one zero-padded batch per packed
    encoder pass of at most `INFERENCE_BATCH` utterances.  The softmax is
    row-wise, so it runs once over a pass's packed logits."""
    for lo in range(0, len(dataset), INFERENCE_BATCH):
        chunk = [utt.frames for utt in dataset[lo:lo + INFERENCE_BATCH]]
        logits = encoder_readout("logits", enc, chunk)
        probs = tt.softmax(tt._unchecked(np.concatenate(logits))).data
        tt._finite(probs, "the posteriorgram")
        yield Posteriorgram.pack(np.split(probs, np.cumsum([len(x) for x in logits])[:-1]))


def eval_ctc_beam(enc: SpeechEncoder, dataset: Sequence[Utterance], beam: int,
                  nbest_n: int = 1):
    lists = build_aec_cache(enc, dataset, beam, nbest_n)
    return corpus_wer([u.source for u in dataset], [lists[u.id].top() for u in dataset]), lists


def eval_ctc_greedy(enc: SpeechEncoder, dataset: Sequence[Utterance]):
    hyps = [h for p in posteriorgrams(enc, dataset) for h in greedy_decode(p)]
    return corpus_wer([utt.source for utt in dataset], hyps)


def build_aec_cache(enc: SpeechEncoder, dataset: Sequence[Utterance], beam: int,
                    n: int) -> dict[str, NBestList]:
    """Each utterance's n-best list from CTC prefix beam search, by utterance id."""
    lists = [nb for p in posteriorgrams(enc, dataset) for nb in beam_search(p, beam=beam, n=n)]
    return {utt.id: nb for utt, nb in zip(dataset, lists)}


def read_nbest_cache(paths: Sequence[str]) -> dict[str, NBestList]:
    """N-best lists by utterance id from JSONL files; a bad line is a ConfigError."""
    cache = {}
    for path in paths:
        for lineno, line in enumerate(_read_text(path).splitlines(), 1):
            if line:
                try:
                    utt_id, nb = nbest_from_json(line)
                except (KeyError, TypeError, ValueError) as e:
                    raise ConfigError(f"{path}:{lineno}: malformed n-best line ({e!r})") from e
                cache[utt_id] = nb
    return cache


def _check_fits(sys_: DecoderSystem, vocab: Vocabulary, dataset: Sequence[Utterance],
                cache: Optional[dict[str, NBestList]]) -> None:
    """ConfigError naming the first utterance too long for the decoder."""
    try:
        check_fits(sys_, vocab, dataset, cache)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def connected_inputs(sys_: DecoderSystem, enc: SpeechEncoder, vocab: Vocabulary,
                     dataset: Sequence[Utterance], beam: int) -> Optional[dict[str, NBestList]]:
    """The n-best lists an aec system reads (None for the other modes),
    after checking that every utterance fits the decoder."""
    cache = None
    if sys_.connection.reads == "nbest":
        cache = build_aec_cache(enc, dataset, beam=max(beam, sys_.aec_n), n=sys_.aec_n)
    _check_fits(sys_, vocab, dataset, cache)
    return cache


def eval_connected(sys_: DecoderSystem, enc: SpeechEncoder, vocab: Vocabulary,
                   dataset: Sequence[Utterance], beam: int, max_new: int):
    cache = connected_inputs(sys_, enc, vocab, dataset, beam)
    return evaluate_system(sys_, enc, vocab, dataset, max_new=max_new, aec_cache=cache)


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(args) -> int:
    bundle = load_task(args.spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    hashes, sizes = {}, {}
    for split, utts in zip(SPLITS, bundle.splits()):
        text = "\n".join(utterance_to_json(u) for u in utts) + "\n"
        (out / f"{split}.jsonl").write_text(text)
        hashes[split] = hashlib.sha256(text.encode()).hexdigest()
        sizes[split] = len(utts)
    manifest = {"task": bundle.raw, "sizes": sizes, "sha256": hashes}
    (out / "manifest.json").write_text(_dump(manifest) + "\n")
    print(_dump(manifest))
    return 0


def cmd_train_encoder(args) -> int:
    bundle = load_task(args.spec)
    vocab = bundle.spec.vocab
    overrides = {"steps": args.steps, "seed": args.seed}
    cfg, raw_cfg = load_train_config(args.config, overrides)
    enc_raw = raw_cfg.get("encoder", {})
    start_step = 0
    if args.resume:
        enc, enc_vocab, meta = load_trained_encoder(args.resume)
        _check_task(bundle.spec, enc, enc_vocab)
        start_step = meta.get("step", 0)
    else:
        try:
            enc = SpeechEncoder(EncoderConfig(feat_dim=bundle.spec.feat_dim,
                                              out_slots=vocab.size + 1, **enc_raw), cfg.seed)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"encoder config: {e}") from e
    train, dev = bundle.splits("train", "dev")
    try:
        log = train_encoder_ctc(enc, train, dev, cfg, vocab.blank_id,
                                start_step=start_step)
    except TrainingDiverged as e:
        save_encoder_ckpt(args.out, enc, vocab,
                          {"step": e.step, "diverged": True, "task_name": bundle.spec.name})
        print(f"error: {e}", file=sys.stderr)
        return 1
    save_encoder_ckpt(args.out, enc, vocab,
                      {"step": log.final_step, "task_name": bundle.spec.name,
                       "train_config": raw_cfg})
    if args.curve:
        Path(args.curve).write_text(log.to_csv())
    dev_wer = eval_ctc_greedy(enc, dev)
    result = {
        "initial_dev_loss": log.initial_dev_loss,
        "final_dev_loss": log.final_dev_loss,
        "dev_greedy": dev_wer.as_dict(),
        "skipped": log.skipped,
        "step": log.final_step,
        "config": {"train": raw_cfg, "task": bundle.raw},
    }
    print(_dump(result))
    return 0


def cmd_adapt(args) -> int:
    if args.mode not in CONNECTIONS:
        raise ConfigError(f"unknown mode {args.mode!r}; choose from {tuple(CONNECTIONS)}")
    enc, vocab, _ = load_trained_encoder(args.encoder)
    bundle = load_task(args.spec)
    _check_task(bundle.spec, enc, vocab)
    overrides = {"steps": args.steps, "seed": args.seed}
    cfg, raw_cfg = load_train_config(args.config, overrides)
    conn = connector_with_overrides(raw_cfg.get("connector", {}), args, args.mode,
                                    enc.cfg.out_slots)
    prompt = prompt_token_id(vocab) if raw_cfg.get("use_prompt_token") else None
    try:
        dec = DecoderLM(DecoderConfig(vocab=vocab.size, **raw_cfg.get("decoder", {})),
                        vocab, cfg.seed)
        sys_ = build_system(args.mode, enc, dec, conn, seed=cfg.seed,
                            aec_n=raw_cfg.get("aec_n", 1), prompt_id=prompt)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"adapt config: {e}") from e

    train, dev = bundle.splits("train", "dev")
    cache = None
    if sys_.connection.reads == "nbest":
        if not args.nbest_cache:
            raise ConfigError(f"{args.mode} adaptation needs --nbest-cache FILE (repeatable)")
        cache = read_nbest_cache(args.nbest_cache)
        missing = [u.id for u in list(train) + list(dev) if u.id not in cache]
        if missing:
            raise ConfigError(f"n-best cache is missing {len(missing)} utterances "
                              f"(first: {missing[0]})")
        for u in list(train) + list(dev):
            hyps = cache[u.id].hypotheses
            if len(hyps) < sys_.aec_n:
                raise ConfigError(f"aec_n is {sys_.aec_n} but the n-best list of {u.id} "
                                  f"holds {len(hyps)} hypotheses")
            if not all(type(c) is int and 0 <= c < vocab.size for h, _ in hyps for c in h):
                raise ConfigError(f"the n-best list of {u.id} holds a token that is not "
                                  f"an id in [0, {vocab.size})")
    _check_fits(sys_, vocab, list(train) + list(dev), cache)
    try:
        log = adapt_decoder(sys_, enc, vocab, train, dev, cfg, aec_cache=cache)
    except TrainingDiverged as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    save_system_ckpt(args.out, sys_, enc, vocab,
                     {"adapt_config": raw_cfg, "task_name": bundle.spec.name,
                      "step": log.final_step})
    if args.curve:
        Path(args.curve).write_text(log.to_csv())
    result = {
        "mode": args.mode,
        "initial_dev_loss": log.initial_dev_loss,
        "final_dev_loss": log.final_dev_loss,
        "step": log.final_step,
        "config": {"adapt": raw_cfg, "connector": dataclasses.asdict(sys_.conn),
                   "task": bundle.raw},
    }
    print(_dump(result))
    return 0


def _eval_inputs(args) -> tuple[SpeechEncoder, Vocabulary, list[Utterance]]:
    """Checked --beam/--limit/--max-new, the --encoder checkpoint and the
    evaluated utterances, whose task must fit the encoder."""
    for flag, value in (("--beam", args.beam), ("--limit", args.limit),
                        ("--max-new", args.max_new)):
        if value is not None and value < 1:
            raise ConfigError(f"{flag} must be >= 1, got {value}")
    enc, enc_vocab, _ = load_trained_encoder(args.encoder)
    spec, dataset = resolve_dataset(args, args.split)
    _check_task(spec, enc, enc_vocab)
    return enc, enc_vocab, dataset[:args.limit]


def _load_decoder(args, enc: SpeechEncoder, enc_vocab: Vocabulary):
    """The --decoder system with connector flags applied, checked against `enc`."""
    sys_, dec_vocab, _ = load_system_ckpt(args.decoder)
    sys_.conn = connector_with_overrides(dataclasses.asdict(sys_.conn), args, sys_.mode,
                                         enc.cfg.out_slots)
    _check_compatible(sys_, enc, enc_vocab, dec_vocab)
    return sys_, dec_vocab


def _connected_config(sys_: DecoderSystem, args, dataset) -> dict:
    return {"mode": sys_.mode, "connector": dataclasses.asdict(sys_.conn),
            "beam": args.beam, "max_new": args.max_new,
            "split": args.split, "n_utts": len(dataset)}


def cmd_decode_eval(args) -> int:
    if args.decoder and (args.nbest is not None or args.nbest_out):
        raise ConfigError("--nbest and --nbest-out apply to the encoder-only beam search, "
                          "not to --decoder")
    enc, enc_vocab, dataset = _eval_inputs(args)
    if args.nbest is not None and not 1 <= args.nbest <= args.beam:
        raise ConfigError(f"--nbest must be between 1 and --beam ({args.beam}), got {args.nbest}")
    if args.decoder:
        sys_, dec_vocab = _load_decoder(args, enc, enc_vocab)
        report = eval_connected(sys_, enc, dec_vocab, dataset, args.beam, args.max_new)
        config = {"decode": "connected", **_connected_config(sys_, args, dataset)}
    else:
        report, lists = eval_ctc_beam(enc, dataset, beam=args.beam, nbest_n=args.nbest or 1)
        if args.nbest_out:
            lines = [nbest_to_json(u.id, lists[u.id]) for u in dataset]
            Path(args.nbest_out).write_text("\n".join(lines) + "\n")
        config = {"decode": "ctc_beam", "beam": args.beam, "nbest": args.nbest or 1,
                  "split": args.split, "n_utts": len(dataset)}
    result = dict(report.as_dict())
    result["config"] = config
    out = _dump(result)
    if args.out:
        Path(args.out).write_text(out + "\n")
    print(out)
    return 0


def _tau_grid(text: Optional[str], conn: ConnectorConfig) -> list[ConnectorConfig]:
    try:
        taus = [float(t) for t in text.split(",")] if text else DEFAULT_TAU_GRID
        return [dataclasses.replace(conn, tau=tau) for tau in taus]
    except ValueError as e:
        raise ConfigError(f"--grid: {e}") from e


def cmd_sweep_tau(args) -> int:
    enc, enc_vocab, dataset = _eval_inputs(args)
    sys_, dec_vocab = _load_decoder(args, enc, enc_vocab)
    grid = _tau_grid(args.grid, sys_.conn)
    # neither the encoder's readouts nor the beam change along the grid
    cache = connected_inputs(sys_, enc, dec_vocab, dataset, args.beam)
    enc_out = encoder_readout(sys_.connection.reads, enc, [u.frames for u in dataset])
    lines = ["tau,wer,sub,del,ins,n_ref"]
    for conn in grid:
        sys_.conn = conn
        r = evaluate_system(sys_, enc, dec_vocab, dataset, max_new=args.max_new,
                            aec_cache=cache, enc_out=enc_out)
        lines.append(f"{conn.tau:g},{r.wer:.6f},{r.substitutions},{r.deletions},"
                     f"{r.insertions},{r.n_ref}")
    csv = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(csv)
    print(csv, end="")
    return 0


def cmd_swap(args) -> int:
    enc_b, encb_vocab, dataset = _eval_inputs(args)
    sys_, dec_vocab = _load_decoder(args, enc_b, encb_vocab)
    system = eval_connected(sys_, enc_b, dec_vocab, dataset, args.beam, args.max_new)
    baseline = eval_ctc_greedy(enc_b, dataset)
    result = {
        "system": system.as_dict(),
        "encoder_greedy_baseline": baseline.as_dict(),
        "werr_vs_greedy": werr(baseline.wer, system.wer),
        "config": _connected_config(sys_, args, dataset),
    }
    out = _dump(result)
    if args.out:
        Path(args.out).write_text(out + "\n")
    print(out)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ctcbridge",
                                description="CTC-posterior bridge experiments")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="materialise a synthetic task to JSONL")
    g.add_argument("--spec", required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train-encoder", help="CTC-train the speech encoder")
    t.add_argument("--spec", required=True)
    t.add_argument("--config")
    t.add_argument("--out", required=True)
    t.add_argument("--curve", help="loss-curve CSV path")
    t.add_argument("--resume", help="continue from an encoder checkpoint")
    t.add_argument("--steps", type=int)
    t.add_argument("--seed", type=int)
    t.set_defaults(func=cmd_train_encoder)

    # --tau / --blk-downscale override the connector of adapt, decode-eval and swap
    knobs = argparse.ArgumentParser(add_help=False)
    knobs.add_argument("--tau", type=float)
    knobs.add_argument("--blk-downscale", type=float, dest="blk_downscale")

    a = sub.add_parser("adapt", parents=[knobs],
                       help="fine-tune the decoder under a connection mode")
    a.add_argument("--mode", required=True)
    a.add_argument("--encoder", required=True)
    a.add_argument("--spec", required=True)
    a.add_argument("--config")
    a.add_argument("--out", required=True)
    a.add_argument("--curve")
    a.add_argument("--nbest-cache", action="append",
                   help="n-best JSONL (aec mode); repeat for several files")
    a.add_argument("--steps", type=int)
    a.add_argument("--seed", type=int)
    a.add_argument("--k", type=int)
    a.set_defaults(func=cmd_adapt)

    # the flags the three evaluation commands share
    ev = argparse.ArgumentParser(add_help=False)
    ev.add_argument("--encoder", required=True, help="encoder checkpoint")
    ev.add_argument("--spec")
    ev.add_argument("--data")
    ev.add_argument("--split", default="test", choices=("train", "dev", "test"))
    ev.add_argument("--limit", type=int)
    ev.add_argument("--beam", type=int, default=10)
    ev.add_argument("--max-new", type=int, default=48, dest="max_new")
    ev.add_argument("--out")

    d = sub.add_parser("decode-eval", parents=[ev, knobs],
                       help="WER of the encoder alone or the connected system")
    d.add_argument("--decoder", help="system checkpoint; omit for encoder-only beam WER")
    d.add_argument("--nbest", type=int)
    d.add_argument("--nbest-out", dest="nbest_out")
    d.add_argument("--k", type=int)
    d.set_defaults(func=cmd_decode_eval)

    s = sub.add_parser("sweep-tau", parents=[ev], help="WER across a temperature grid")
    s.add_argument("--decoder", required=True)
    s.add_argument("--grid", help="comma-separated taus (default: the standard grid)")
    s.set_defaults(func=cmd_sweep_tau)

    w = sub.add_parser("swap", parents=[ev, knobs],
                       help="evaluate a decoder with a different encoder, no training")
    w.add_argument("--decoder", required=True, help="system adapted with another encoder")
    w.set_defaults(func=cmd_swap)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CheckpointError, FileNotFoundError, IsADirectoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (tt.NonFiniteError, TrainingDiverged) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
