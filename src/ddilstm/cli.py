"""Batch command-line driver for the whole pipeline.

Subcommands mirror the pipeline stages: preprocess (XML to instances),
filter, train, predict (optionally with attention weights), evaluate,
analyze. Every run writes a manifest next to its outputs recording the
resolved configuration, seed and paths; identical inputs and seed
reproduce every output byte for byte (timestamps live only in the
manifest). Before it reads anything, a command refuses an output that is
the same file as one of its inputs, another of its outputs or its manifest,
or that it could not create. Each subcommand names its file options once,
in its parser's `set_defaults(inputs=..., outputs=...)`; the check and the
manifest both read that.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import asdict, fields, replace

import numpy as np

from . import __version__, corpus, evaluation, filtering, rng as rng_mod, training
from .features import PositionVocab, build_vocab, featurize, load_word_vectors
from .files import (check_fields, json_document, json_lines, write_json, write_json_lines,
                    write_lines)
from .labels import label_id, label_name
from .model import (MANIFEST_FILE, PARAMS_FILE, VARIANTS, VOCAB_FILE, ModelConfig, build_model,
                    default_config, load_checkpoint, parameter_count, predict, save_checkpoint)
from .training import TrainConfig


# the files train writes in --out-dir: the checkpoint's three, its log and
# the run manifest
_LOG_FILE, _RUN_MANIFEST = "train_log.jsonl", "run_manifest.json"
_OUT_DIR_FILES = (MANIFEST_FILE, PARAMS_FILE, VOCAB_FILE, _LOG_FILE, _RUN_MANIFEST)


def _manifest_path(args: argparse.Namespace) -> str:
    """run_manifest.json in --out-dir, else the first output + .manifest.json."""
    if "out_dir" in args.outputs:
        return os.path.join(args.out_dir, _RUN_MANIFEST)
    return getattr(args, next(iter(args.outputs))) + ".manifest.json"


def _write_manifest(args: argparse.Namespace, config: dict, seed=None) -> None:
    """Write the run manifest at `_manifest_path(args)`: every declared
    input by option name (None when not given) and each output given, under
    its key."""
    write_json(_manifest_path(args), {
        "command": args.command,
        "version": __version__,
        "seed": seed,
        "config": config,
        "inputs": {name: getattr(args, name) for name in args.inputs},
        "outputs": {key: getattr(args, name) for name, key in args.outputs.items()
                    if getattr(args, name) is not None},
        "created_unix": time.time(),
    })


def _check_paths(args: argparse.Namespace) -> None:
    """Refuse, before anything is read, an output file that is the same file
    as an input (`args.inputs`, each an option name), an earlier output file
    or the run manifest, that is a directory, or whose directory does not
    exist. An option not given is skipped. --out-dir stands for the files
    train writes in it; train creates the directory."""
    def given(names):
        return [("--" + name.replace("_", "-"), getattr(args, name)) for name in names
                if getattr(args, name) is not None]

    owner = {os.path.realpath(path): flag for flag, path in reversed(given(args.inputs))}
    if "out_dir" in args.outputs:
        outputs = [("--out-dir", os.path.join(args.out_dir, name)) for name in _OUT_DIR_FILES]
    else:
        outputs = given(args.outputs)
        outputs.insert(1, (f"the manifest of {outputs[0][0]}", _manifest_path(args)))
    for flag, path in outputs:
        real = os.path.realpath(path)
        if real in owner:
            raise ValueError(f"{owner[real]} and {flag} name the same file: {path}")
        if os.path.isdir(real):
            raise ValueError(f"{flag}: {path} is a directory")
        if flag != "--out-dir" and not os.path.isdir(os.path.dirname(real)):
            raise ValueError(f"{flag}: directory {os.path.dirname(path)} does not exist")
        owner[real] = flag


def _resolve(options: dict, config_path, args: argparse.Namespace) -> dict:
    """Precedence: defaults < config file < explicit command-line flags.
    The config file holds one JSON object of option keys, each value of
    its flag's type (`inputs.check_fields`)."""
    resolved = {key: default for key, (_, default) in options.items()}
    if config_path is not None:
        file_cfg = json_document(config_path, {})  # any object; its keys follow
        check_fields(file_cfg, {key: options[key][0] for key in file_cfg if key in options},
                     str(config_path), closed=True)
        resolved.update(file_cfg)
    for key in resolved:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


def _featurize_all(instances, vocab, pv):
    """The setup stage of perfbench/run.py calls featurize by this name."""
    return featurize(instances, vocab, pv)


def _cmd_preprocess(args) -> int:
    records = corpus.parse_corpus(args.corpus)
    instances = corpus.generate_instances(records)
    corpus.write_instances(args.out, instances)
    _write_manifest(args, {})
    print(f"wrote {len(instances)} instances from {len(records)} sentences")
    return 0


def _cmd_filter(args) -> int:
    texts, instances = corpus.read_instance_lines(args.instances)  # every line checked
    disabled = args.disable or []
    report = filtering.apply_filters(instances, mode=args.mode, disabled=disabled)
    kept = set(map(id, report.kept))  # apply_filters keeps the objects it was given
    write_lines(args.out, (text for text, inst in zip(texts, instances) if id(inst) in kept))
    write_json(args.report, report.summary_dict())
    _write_manifest(args, {name: name not in disabled for name in filtering.PATTERNS})
    print(f"kept {len(report.kept)} of {report.n_input} "
          f"({report.n_removed} removed, {report.n_removed_positive} positive)")
    return 0


# each train option's flag type and default; None leaves the field to
# default_config(variant) or TrainConfig, or for word_vectors, no vectors
_TRAIN_OPTIONS = {
    "variant": (str, "b-lstm"),
    "hidden": (int, None),
    "word_dim": (int, None),
    "pos_dim": (int, None),
    "radius": (int, 50),
    "min_count": (int, 1),
    "keep_prob": (float, None),
    "l2": (float, None),
    "lr": (float, None),
    "batch_size": (int, None),
    "epochs": (int, None),
    "val_fraction": (float, None),
    "word_vectors": (str, None),
    "seed": (int, None),
}


def _given_fields(cls, options: dict) -> dict:
    """The options that were set and name a field of dataclass `cls`."""
    names = {f.name for f in fields(cls)}
    return {k: v for k, v in options.items() if k in names and v is not None}


def _cmd_train(args) -> int:
    cfg = _resolve(_TRAIN_OPTIONS, args.config, args)
    cfg["max_epochs"] = cfg.pop("epochs")
    mcfg = replace(default_config(cfg["variant"]), **_given_fields(ModelConfig, cfg))
    tcfg = TrainConfig(**_given_fields(TrainConfig, cfg))
    seed = tcfg.seed

    instances = corpus.read_instances(args.instances)
    if not instances:
        raise ValueError(f"{args.instances}: no instances")
    vocab = build_vocab([i.tokens for i in instances], min_count=cfg["min_count"])
    pv = PositionVocab(cfg["radius"])
    parameter_count(mcfg, len(vocab), len(pv))  # before the word vectors' table
    os.makedirs(args.out_dir, exist_ok=True)  # before the run it would store
    word_matrix = None
    if cfg["word_vectors"]:
        word_matrix = load_word_vectors(
            cfg["word_vectors"], vocab, mcfg.word_dim,
            rng_mod.named_stream(seed, "word-vectors"),
        )
    params = build_model(mcfg, len(vocab), len(pv), seed=seed,
                         word_matrix=word_matrix)
    feats = featurize(instances, vocab, pv)

    result = training.train(params, feats, tcfg, mcfg)

    save_checkpoint(args.out_dir, result.params, mcfg, vocab, pv)
    write_json_lines(os.path.join(args.out_dir, _LOG_FILE), map(asdict, result.log))
    _write_manifest(args, {"model": asdict(mcfg), "train": asdict(tcfg),
                           "min_count": cfg["min_count"], "radius": cfg["radius"],
                           "word_vectors": cfg["word_vectors"]}, seed=seed)
    best = result.log[result.best_epoch]
    heldout = (f"heldout F1 {best.heldout_f1:.4f}" if result.n_heldout
               else "no held-out split")
    print(f"best epoch {best.epoch}: {heldout} (train loss {best.train_loss:.4f})")
    return 0


def _read_predictions(path, gold_instances) -> list[int]:
    """The label ids of a predictions file naming `gold_instances`' pairs."""
    labels, gold = [], iter(gold_instances)
    for where, _, rec in json_lines(path, "prediction", {"label": str, "pair_id": str}):
        gold_pair = getattr(next(gold, None), "pair_id", None)
        if rec["pair_id"] != gold_pair:
            raise ValueError(f"{where}: prediction for pair {rec['pair_id']!r} does not "
                             f"match gold pair {gold_pair!r}")
        labels.append(label_id(rec["label"], where))
    if len(labels) != len(gold_instances):
        raise ValueError(f"{path}: {len(labels)} predictions for "
                         f"{len(gold_instances)} gold instances")
    return labels


def _cmd_predict(args) -> int:
    params, mcfg, vocab, pv = load_checkpoint(args.checkpoint)
    if args.attention is not None and mcfg.variant == "b-lstm":
        raise ValueError("variant 'b-lstm' has no attention weights")
    instances = corpus.read_instances(args.instances)
    preds, alphas = predict(params, mcfg, featurize(instances, vocab, pv))
    write_json_lines(args.out, ({
        "doc_id": inst.doc_id,
        "sent_id": inst.sent_id,
        "pair_id": inst.pair_id,
        "label": label_name(pred),
    } for inst, pred in zip(instances, preds)))
    if args.attention is not None:
        evaluation.write_attention_records(
            args.attention, list(zip(instances, alphas)))
    _write_manifest(args, {"variant": mcfg.variant})
    print(f"predicted {len(preds)} instances")
    return 0


def _cmd_evaluate(args) -> int:
    gold_instances = corpus.read_instances(args.gold)
    pred_ids = _read_predictions(args.predictions, gold_instances)
    gold = [inst.label for inst in gold_instances]
    extra = {}
    if args.against is not None:
        other_ids = _read_predictions(args.against, gold_instances)
        extra["mcnemar"] = evaluation.compare(gold, pred_ids, other_ids)
    filtered = []
    if args.filter_report:
        filtered = filtering.read_removed_labels(args.filter_report, len(gold))
    report = evaluation.evaluate(gold, pred_ids, filtered)
    write_json(args.out, {**vars(report), **extra})
    _write_manifest(args, {})
    print(f"micro P {report.micro_p:.4f} R {report.micro_r:.4f} "
          f"F1 {report.micro_f1:.4f} MAVG {report.mavg:.4f}")
    if extra:
        test = extra["mcnemar"]
        print(f"McNemar against {args.against}: b {test['b']} c {test['c']}, "
              f"{test['significance'] or 'no discordant predictions'}")
    return 0


def _cmd_analyze(args) -> int:
    gold_instances = corpus.read_instances(args.gold)
    pred_ids = _read_predictions(args.predictions, gold_instances)
    flags = evaluation.correctness([inst.label for inst in gold_instances], pred_ids)
    stats = evaluation.length_stats(gold_instances, flags)
    write_json(args.out, stats)
    _write_manifest(args, {})
    print(f"wrote length statistics for {len(flags)} instances")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddilstm",
        description="LSTM drug-drug interaction classification pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="XML corpus -> instance file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_preprocess, inputs=("corpus",), outputs={"out": "instances"})

    p = sub.add_parser("filter", help="drop trivially non-interacting pairs")
    p.add_argument("--instances", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--mode", choices=("train", "test"), default="train")
    p.add_argument("--disable", action="append", metavar="PATTERN",
                   help="switch off one filter pattern (repeatable)")
    p.set_defaults(fn=_cmd_filter, inputs=("instances",),
                   outputs={"out": "filtered", "report": "report"})

    p = sub.add_parser("train", help="train one variant on an instance file")
    p.add_argument("--instances", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", help="JSON file with any of the train keys")
    for key, (kind, _) in _TRAIN_OPTIONS.items():
        p.add_argument("--" + key.replace("_", "-"), type=kind,
                       choices=VARIANTS if key == "variant" else None)
    p.set_defaults(fn=_cmd_train, inputs=("instances", "config", "word_vectors"),
                   outputs={"out_dir": "checkpoint"})

    p = sub.add_parser("predict", help="label an instance file with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--instances", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--attention", help="also export attention weights here")
    p.set_defaults(fn=_cmd_predict, inputs=("checkpoint", "instances"),
                   outputs={"out": "predictions", "attention": "attention"})

    p = sub.add_parser("evaluate", help="score predictions against gold")
    p.add_argument("--predictions", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--filter-report", dest="filter_report")
    p.add_argument("--against", metavar="OTHER_PREDICTIONS",
                   help="also run McNemar's test against these predictions")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_evaluate, inputs=("predictions", "gold", "filter_report", "against"),
                   outputs={"out": "report"})

    p = sub.add_parser("analyze", help="length/separation stats by outcome")
    p.add_argument("--predictions", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_analyze, inputs=("predictions", "gold"), outputs={"out": "stats"})

    return parser


# each character that str.splitlines breaks at, as its escape sequence
_ESCAPED_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_paths(args)
        with np.errstate(all="ignore"):  # the finiteness checks report overflow
            return args.fn(args)
    except (ValueError, OSError) as exc:
        # one line, whatever text of an input file the message quotes
        print("error: " + str(exc).translate(_ESCAPED_BREAKS), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
