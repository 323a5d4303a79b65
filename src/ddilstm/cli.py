"""Batch command-line driver for the whole pipeline.

Subcommands mirror the pipeline stages: preprocess (XML to instances),
filter, train, predict (optionally with attention weights), evaluate,
analyze. Every run writes a manifest next to its outputs recording the
resolved configuration, seed and paths; identical inputs and seed
reproduce every output byte for byte (timestamps live only in the
manifest).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, fields, replace

from . import __version__, corpus, evaluation, filtering, rng as rng_mod, training
from .autodiff import NonFiniteError
from .corpus import CorpusError
from .features import PositionVocab, build_vocab, featurize, load_word_vectors
from .labels import label_id, label_name
from .model import (
    VARIANTS,
    ModelConfig,
    build_model,
    default_config,
    load_checkpoint,
    predict,
    save_checkpoint,
)
from .training import TrainConfig, TrainingDiverged


def _write_manifest(out_path: str, command: str, config: dict,
                    inputs: dict, outputs: dict, seed=None) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "config": config,
        "inputs": inputs,
        "outputs": outputs,
        "created_unix": time.time(),
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")


def _manifest_path(anchor: str) -> str:
    if os.path.isdir(anchor):
        return os.path.join(anchor, "run_manifest.json")
    return anchor + ".manifest.json"


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config file must hold one JSON object")
    return data


def _resolve(options: dict, file_cfg: dict, args: argparse.Namespace) -> dict:
    """Precedence: defaults < config file < explicit command-line flags.

    A file value must have its flag's type: a JSON int passes for a float
    flag, and a bool for neither.
    """
    resolved = {key: default for key, (_, default) in options.items()}
    for key, value in file_cfg.items():
        if key not in options:
            raise ValueError(f"unknown config key {key!r}")
        kind = options[key][0]
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ValueError(f"config key {key!r} must be {kind.__name__}, "
                             f"got {value!r}")
        resolved[key] = value
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
    _write_manifest(_manifest_path(args.out), "preprocess", {},
                    {"corpus": args.corpus}, {"instances": args.out})
    print(f"wrote {len(instances)} instances from {len(records)} sentences")
    return 0


def _cmd_filter(args) -> int:
    instances = corpus.read_instances(args.instances)
    config = filtering.FilterConfig()
    for name in args.disable or []:
        config.disable(name)
    report = filtering.apply_filters(instances, mode=args.mode, config=config)
    corpus.write_instances(args.out, report.kept)
    filtering.write_report(args.report, report)
    _write_manifest(_manifest_path(args.out), "filter", asdict(config),
                    {"instances": args.instances},
                    {"filtered": args.out, "report": args.report})
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
    file_cfg = _load_config_file(args.config)
    cfg = _resolve(_TRAIN_OPTIONS, file_cfg, args)
    cfg["max_epochs"] = cfg.pop("epochs")
    mcfg = replace(default_config(cfg["variant"]), **_given_fields(ModelConfig, cfg))
    tcfg = TrainConfig(**_given_fields(TrainConfig, cfg))
    seed = tcfg.seed

    instances = corpus.read_instances(args.instances)
    if not instances:
        raise ValueError(f"{args.instances}: no instances")
    vocab = build_vocab([i.tokens for i in instances], min_count=cfg["min_count"])
    pv = PositionVocab(cfg["radius"])
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

    os.makedirs(args.out_dir, exist_ok=True)
    save_checkpoint(args.out_dir, result.params, mcfg, vocab, pv)
    log_path = os.path.join(args.out_dir, "train_log.jsonl")
    training.write_log(log_path, result.log)
    _write_manifest(
        _manifest_path(args.out_dir), "train",
        {"model": asdict(mcfg), "train": asdict(tcfg),
         "min_count": cfg["min_count"], "radius": cfg["radius"],
         "word_vectors": cfg["word_vectors"]},
        {"instances": args.instances},
        {"checkpoint": args.out_dir, "log": log_path},
        seed=seed,
    )
    best = result.log[result.best_epoch]
    heldout = (f"heldout F1 {best.heldout_f1:.4f}" if result.n_heldout
               else "no held-out split")
    print(f"best epoch {best.epoch}: {heldout} (train loss {best.train_loss:.4f})")
    return 0


def _write_predictions(path, instances, preds) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for inst, pred in zip(instances, preds):
            fh.write(json.dumps({
                "doc_id": inst.doc_id,
                "sent_id": inst.sent_id,
                "pair_id": inst.pair_id,
                "label": label_name(pred),
            }) + "\n")


def _read_predictions(path) -> tuple[list, list[int]]:
    """The pair ids and the label ids of a predictions file, in order."""
    pair_ids, labels = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                if not isinstance(rec, dict) or type(rec.get("label")) is not str:
                    raise ValueError("needs a JSON object with a string label")
                labels.append(label_id(rec["label"]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad prediction ({exc})") from None
            pair_ids.append(rec.get("pair_id"))
    return pair_ids, labels


def _cmd_predict(args) -> int:
    params, mcfg, vocab, pv = load_checkpoint(args.checkpoint)
    if args.attention is not None and mcfg.variant == "b-lstm":
        raise ValueError("variant 'b-lstm' has no attention weights")
    instances = corpus.read_instances(args.instances)
    preds, alphas = predict(params, mcfg, featurize(instances, vocab, pv))
    _write_predictions(args.out, instances, preds)
    outputs = {"predictions": args.out}
    if args.attention is not None:
        evaluation.write_attention_records(
            args.attention, list(zip(instances, alphas)))
        outputs["attention"] = args.attention
    _write_manifest(_manifest_path(args.out), "predict", {"variant": mcfg.variant},
                    {"checkpoint": args.checkpoint, "instances": args.instances},
                    outputs)
    print(f"predicted {len(preds)} instances")
    return 0


def _aligned_gold(gold_instances, pair_ids) -> list[int]:
    if len(gold_instances) != len(pair_ids):
        raise ValueError(
            f"{len(pair_ids)} predictions for {len(gold_instances)} gold instances"
        )
    for inst, pair_id in zip(gold_instances, pair_ids):
        if pair_id != inst.pair_id:
            raise ValueError(
                f"prediction for pair {pair_id!r} does not match "
                f"gold pair {inst.pair_id!r}"
            )
    return [inst.label for inst in gold_instances]


def _cmd_evaluate(args) -> int:
    gold_instances = corpus.read_instances(args.gold)
    pair_ids, pred_ids = _read_predictions(args.predictions)
    gold = _aligned_gold(gold_instances, pair_ids)
    filtered = []
    if args.filter_report:
        filtered = filtering.read_removed_labels(args.filter_report)
    report = evaluation.evaluate(gold, pred_ids, filtered)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    _write_manifest(_manifest_path(args.out), "evaluate", {},
                    {"predictions": args.predictions, "gold": args.gold,
                     "filter_report": args.filter_report},
                    {"report": args.out})
    print(f"micro P {report.micro_p:.4f} R {report.micro_r:.4f} "
          f"F1 {report.micro_f1:.4f} MAVG {report.mavg:.4f}")
    return 0


def _cmd_analyze(args) -> int:
    gold_instances = corpus.read_instances(args.gold)
    pair_ids, pred_ids = _read_predictions(args.predictions)
    gold = _aligned_gold(gold_instances, pair_ids)
    flags = evaluation.correctness(gold, pred_ids)
    stats = evaluation.length_stats(gold_instances, flags)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(stats, fh, indent=1)
        fh.write("\n")
    _write_manifest(_manifest_path(args.out), "analyze", {},
                    {"predictions": args.predictions, "gold": args.gold},
                    {"stats": args.out})
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
    p.set_defaults(fn=_cmd_preprocess)

    p = sub.add_parser("filter", help="drop trivially non-interacting pairs")
    p.add_argument("--instances", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--mode", choices=("train", "test"), default="train")
    p.add_argument("--disable", action="append", metavar="PATTERN",
                   help="switch off one filter pattern (repeatable)")
    p.set_defaults(fn=_cmd_filter)

    p = sub.add_parser("train", help="train one variant on an instance file")
    p.add_argument("--instances", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", help="JSON file with any of the train keys")
    for key, (kind, _) in _TRAIN_OPTIONS.items():
        p.add_argument("--" + key.replace("_", "-"), type=kind,
                       choices=VARIANTS if key == "variant" else None)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("predict", help="label an instance file with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--instances", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--attention", help="also export attention weights here")
    p.set_defaults(fn=_cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against gold")
    p.add_argument("--predictions", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--filter-report", dest="filter_report")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("analyze", help="length/separation stats by outcome")
    p.add_argument("--predictions", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CorpusError, TrainingDiverged, NonFiniteError, ValueError,
            OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
