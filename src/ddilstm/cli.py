"""Batch command-line driver for the whole pipeline.

Subcommands mirror the pipeline stages: preprocess (XML to instances),
filter, train, predict (optionally with attention weights), evaluate,
analyze. Each command returns its resolved configuration and seed, and
`main` writes them and the paths into a run manifest next to the outputs,
after the last of them; identical inputs and seed reproduce every output
byte for byte (timestamps live only in the manifest). Before it reads
anything, a command refuses an output that is the same file as one of its
inputs, another of its outputs or its manifest, or that it could not create.
A command that fails, Ctrl-C included, removes every path it created: its
output files, its manifest and the directories train makes for --out-dir
(`_check_paths` lists them). An output file that was there before keeps
what the failed run wrote over it.
Each subcommand names its file options once, in its parser's
`set_defaults(inputs=..., outputs=...)`, a directory option standing for
its files (`_DIR_FILES`); the check and the manifest both read that, after
train's config file has written its values into the same arguments.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import asdict, fields, replace
from typing import get_type_hints

import numpy as np

from . import __version__, corpus, evaluation, filtering, rng as rng_mod, training
from .features import PositionVocab, build_vocab, featurize, load_word_vectors
from .files import (check_fields, json_document, json_lines, write_json, write_json_lines,
                    write_lines)
from .labels import label_id, label_name
from .model import (MANIFEST_FILE, PARAMS_FILE, VARIANTS, VOCAB_FILE, ModelConfig, build_model,
                    default_config, load_checkpoint, parameter_count, predict, save_checkpoint)
from .training import TrainConfig


# the files each directory option stands for: a checkpoint's three, and
# those train writes in --out-dir, with its log and the run manifest
_LOG_FILE, _RUN_MANIFEST = "train_log.jsonl", "run_manifest.json"
_DIR_FILES = {"checkpoint": (MANIFEST_FILE, PARAMS_FILE, VOCAB_FILE)}
_DIR_FILES["out_dir"] = (*_DIR_FILES["checkpoint"], _LOG_FILE, _RUN_MANIFEST)


def _manifest_path(args: argparse.Namespace) -> str:
    """run_manifest.json in --out-dir, else the first output + .manifest.json."""
    if "out_dir" in args.outputs:
        return os.path.join(args.out_dir, _RUN_MANIFEST)
    return getattr(args, next(iter(args.outputs))) + ".manifest.json"


def _write_manifest(args: argparse.Namespace, config: dict, seed) -> None:
    """Write the run manifest at `_manifest_path(args)`: the command's
    config and seed, every declared input by option name (None when not
    given) and each output given, under its key."""
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


def _check_paths(args: argparse.Namespace, labels: dict) -> list:
    """Refuse, before anything is read, an empty path to any file option,
    and an output file that is the same file as an input file (of
    `args.inputs`), an earlier output file or the run manifest, that is a
    directory, or whose directory does not exist. Options not given are
    skipped; a directory option stands for its `_DIR_FILES` (train creates
    --out-dir). Each option is named by `labels`, else by its flag. Returns
    every path the run would create: each output file not yet there, and
    each missing directory above it (those of --out-dir)."""
    def files(names):
        for name in names:
            flag, path = labels.get(name, "--" + name.replace("_", "-")), getattr(args, name)
            if path == "":
                raise ValueError(f"{flag}: empty path")
            if path is not None:
                yield from ([(flag, os.path.join(path, f)) for f in _DIR_FILES[name]]
                            if name in _DIR_FILES else [(flag, path)])

    owner = {os.path.realpath(path): flag for flag, path in reversed([*files(args.inputs)])}
    outputs = [*files(args.outputs)]
    if "out_dir" not in args.outputs:
        outputs.insert(1, (f"the manifest of {outputs[0][0]}", _manifest_path(args)))
    created = {}
    for flag, path in outputs:
        real = os.path.realpath(path)
        if real in owner:
            raise ValueError(f"{owner[real]} and {flag} name the same file: {path}")
        if os.path.isdir(real):
            raise ValueError(f"{flag}: {path} is a directory")
        if flag != "--out-dir" and not os.path.isdir(os.path.dirname(real)):
            raise ValueError(f"{flag}: directory {os.path.dirname(path)} does not exist")
        owner[real] = flag
        while not os.path.lexists(real):
            created[real] = None
            real = os.path.dirname(real)
    return list(created)


def _resolve(args: argparse.Namespace) -> dict:
    """Write each train option's value into `args`. Precedence: defaults <
    config file < explicit command-line flags. The config file holds one
    JSON object of option keys, each value of its flag's type
    (`files.check_fields`). Returns each option the config file set, named
    `FILE: key` for `_check_paths`."""
    file_cfg = {} if args.config is None else json_document(args.config, {})
    check_fields(file_cfg, {key: _TRAIN_OPTIONS[key][0] for key in file_cfg
                            if key in _TRAIN_OPTIONS}, args.config, closed=True)
    labels = {key: f"{args.config}: {key}" for key in file_cfg if getattr(args, key) is None}
    for key, (_, default) in _TRAIN_OPTIONS.items():
        if getattr(args, key) is None:  # each key is a flag
            setattr(args, key, file_cfg.get(key, default))
    return labels


def _featurize_all(instances, vocab, pv):
    """The setup stage of perfbench/run.py calls featurize by this name."""
    return featurize(instances, vocab, pv)


def _cmd_preprocess(args):
    records = corpus.parse_corpus(args.corpus)
    instances = corpus.generate_instances(records)
    corpus.write_instances(args.out, instances)
    print(f"wrote {len(instances)} instances from {len(records)} sentences")
    return {}, None


def _cmd_filter(args):
    texts, instances = corpus.read_instance_lines(args.instances)  # every line checked
    disabled = args.disable or []
    decisions = filtering.apply_filters(instances, disabled)
    write_lines(args.out, (text for text, hit in zip(texts, decisions) if hit is None))
    report = filtering.build_report(args.mode, instances, decisions)
    write_json(args.report, report)
    print(f"kept {report['n_kept']} of {report['n_input']} "
          f"({report['n_removed']} removed, {report['n_removed_positive']} positive)")
    return {name: name not in disabled for name in filtering.PATTERNS}, None


# the train options named otherwise than their config field
_OPTION_NAMES = {"max_epochs": "epochs"}

# each train option's flag type and default: a field of ModelConfig or
# TrainConfig, None leaving it to default_config(variant) or TrainConfig,
# then the options train owns (word_vectors None: no vectors)
_TRAIN_OPTIONS = {
    **{_OPTION_NAMES.get(name, name): (kind, None)
       for cls in (ModelConfig, TrainConfig) for name, kind in get_type_hints(cls).items()},
    "variant": (str, ModelConfig.variant),
    "radius": (int, 50),
    "min_count": (int, 1),
    "word_vectors": (str, None),
}


def _given_fields(cls, args: argparse.Namespace) -> dict:
    """The fields of dataclass `cls` whose options were set, by field name."""
    return {f.name: value for f in fields(cls)
            if (value := getattr(args, _OPTION_NAMES.get(f.name, f.name))) is not None}


def _cmd_train(args):
    _check_paths(args, _resolve(args))  # the config's paths, as the command line's
    mcfg = replace(default_config(args.variant), **_given_fields(ModelConfig, args))
    tcfg = TrainConfig(**_given_fields(TrainConfig, args))
    seed = tcfg.seed

    instances = corpus.read_instances(args.instances)
    if not instances:
        raise ValueError(f"{args.instances}: no instances")
    vocab = build_vocab([i.tokens for i in instances], min_count=args.min_count)
    pv = PositionVocab(args.radius)
    parameter_count(mcfg, len(vocab), len(pv))  # before the word vectors' table
    os.makedirs(args.out_dir, exist_ok=True)  # before the run it would store
    word_matrix = (load_word_vectors(args.word_vectors, vocab, mcfg.word_dim,
                                     rng_mod.named_stream(seed, "word-vectors"))
                   if args.word_vectors is not None else None)
    params = build_model(mcfg, len(vocab), len(pv), seed=seed, word_matrix=word_matrix)
    result = training.train(params, featurize(instances, vocab, pv), tcfg, mcfg)
    save_checkpoint(args.out_dir, result.params, mcfg, vocab, pv)
    write_json_lines(os.path.join(args.out_dir, _LOG_FILE), map(asdict, result.log))
    best = result.log[result.best_epoch]
    heldout = (f"heldout F1 {best.heldout_f1:.4f}" if result.n_heldout
               else "no held-out split")
    print(f"best epoch {best.epoch}: {heldout} (train loss {best.train_loss:.4f})")
    return {"model": asdict(mcfg), "train": asdict(tcfg), "min_count": args.min_count,
            "radius": args.radius, "word_vectors": args.word_vectors}, seed


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


def _cmd_predict(args):
    params, mcfg, vocab, pv = load_checkpoint(args.checkpoint)
    if args.attention is not None and "attentive" not in mcfg.poolings:
        raise ValueError(f"variant {mcfg.variant!r} has no attention weights")
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
    print(f"predicted {len(preds)} instances")
    return {"variant": mcfg.variant}, None


def _cmd_evaluate(args):
    gold_instances = corpus.read_instances(args.gold)
    pred_ids = _read_predictions(args.predictions, gold_instances)
    gold = [inst.label for inst in gold_instances]
    test = (evaluation.compare(gold, pred_ids, _read_predictions(args.against, gold_instances))
            if args.against is not None else None)
    filtered = []
    if args.filter_report:
        filtered = filtering.read_removed_labels(args.filter_report, len(gold))
    report = evaluation.evaluate(gold, pred_ids, filtered)
    if test is not None:
        report["mcnemar"] = test
    write_json(args.out, report)
    print(f"micro P {report['micro_p']:.4f} R {report['micro_r']:.4f} "
          f"F1 {report['micro_f1']:.4f} MAVG {report['mavg']:.4f}")
    if test is not None:
        print(f"McNemar against {args.against}: b {test['b']} c {test['c']}, "
              f"{test['significance'] or 'no discordant predictions'}")
    return {}, None


def _cmd_analyze(args):
    gold_instances = corpus.read_instances(args.gold)
    pred_ids = _read_predictions(args.predictions, gold_instances)
    flags = evaluation.correctness([inst.label for inst in gold_instances], pred_ids)
    stats = evaluation.length_stats(gold_instances, flags)
    write_json(args.out, stats)
    print(f"wrote length statistics for {len(flags)} instances")
    return {}, None


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
        created = _check_paths(args, {})  # the command line's; train adds its config's
        try:
            with np.errstate(all="ignore"):  # the finiteness checks report overflow
                config, seed = args.fn(args)
            _write_manifest(args, config, seed)  # after every output
        except BaseException:  # a failed run leaves no path it created
            for path in sorted(filter(os.path.lexists, created), reverse=True):
                (os.rmdir if os.path.isdir(path) else os.remove)(path)  # files first
            raise
        return 0
    except (ValueError, OSError, MemoryError) as exc:
        # one line, whatever text of an input file the message quotes
        print("error: " + (str(exc) or "out of memory").translate(_ESCAPED_BREAKS),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
