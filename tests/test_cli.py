"""End-to-end pipeline runs through the command-line driver."""

import json
import os
from dataclasses import asdict

import pytest

from conftest import corpus_xml
from ddilstm.cli import main
from ddilstm.corpus import read_instances, write_instances
from ddilstm.features import PositionVocab, build_vocab
from ddilstm.model import ModelConfig, build_model, default_config, save_checkpoint
from ddilstm.training import TrainConfig
from ddilstm.synthetic import make_synthetic_instances

THREE_DRUGS = [(
    "d9.s0",
    "Aspirin improves ibuprofen and naproxen uptake.",
    [("d9.s0.e0", "Aspirin", 0, "drug"), ("d9.s0.e1", "ibuprofen", 0, "drug"),
     ("d9.s0.e2", "naproxen", 0, "drug")],
    [("d9.s0.p0", "d9.s0.e0", "d9.s0.e1", True, "effect"),
     ("d9.s0.p1", "d9.s0.e0", "d9.s0.e2", False, None),
     ("d9.s0.p2", "d9.s0.e1", "d9.s0.e2", False, None)],
)]


@pytest.fixture
def synthetic_file(tmp_path):
    path = tmp_path / "instances.jsonl"
    write_instances(path, make_synthetic_instances(30, seed=1))
    return path


def run_train(tmp_path, synthetic_file, out="ckpt", variant="ab-lstm",
              extra=()):
    out_dir = tmp_path / out
    code = main([
        "train", "--instances", str(synthetic_file), "--out-dir", str(out_dir),
        "--variant", variant, "--hidden", "4", "--word-dim", "6",
        "--pos-dim", "2", "--radius", "8", "--epochs", "2",
        "--batch-size", "10", "--lr", "0.005", "--seed", "3",
        "--val-fraction", "0.1", *extra,
    ])
    assert code == 0
    return out_dir


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


class TestPreprocess:
    def test_pair_enumeration(self, tmp_path):
        xml = tmp_path / "one.xml"
        xml.write_text(corpus_xml("d9", THREE_DRUGS))
        out = tmp_path / "out.jsonl"
        assert main(["preprocess", "--corpus", str(xml), "--out", str(out)]) == 0
        instances = read_instances(out)
        assert len(instances) == 3  # k (k - 1) / 2 for k = 3
        assert (tmp_path / "out.jsonl.manifest.json").exists()

    def test_missing_corpus_fails_cleanly(self, tmp_path, capsys):
        code = main(["preprocess", "--corpus", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o.jsonl")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestFilter:
    def test_filter_writes_outputs(self, tmp_path):
        xml = tmp_path / "f.xml"
        fixture = os.path.join(os.path.dirname(__file__), "fixtures",
                               "filter_fixture.xml")
        raw = tmp_path / "raw.jsonl"
        assert main(["preprocess", "--corpus", fixture, "--out", str(raw)]) == 0
        kept = tmp_path / "kept.jsonl"
        report = tmp_path / "report.json"
        assert main(["filter", "--instances", str(raw), "--out", str(kept),
                     "--report", str(report), "--mode", "test"]) == 0
        assert len(read_instances(kept)) == 12
        data = json.loads(report.read_text())
        assert data["n_removed"] == 10 and data["n_removed_positive"] == 0

    def test_disable_pattern(self, tmp_path):
        fixture = os.path.join(os.path.dirname(__file__), "fixtures",
                               "filter_fixture.xml")
        raw = tmp_path / "raw.jsonl"
        main(["preprocess", "--corpus", fixture, "--out", str(raw)])
        kept = tmp_path / "kept.jsonl"
        report = tmp_path / "report.json"
        assert main(["filter", "--instances", str(raw), "--out", str(kept),
                     "--report", str(report), "--disable", "same_name"]) == 0
        data = json.loads(report.read_text())
        assert data["by_rule"].get("rule1", 0) == 0

    def test_unknown_pattern_fails(self, tmp_path, synthetic_file, capsys):
        code = main(["filter", "--instances", str(synthetic_file),
                     "--out", str(tmp_path / "k.jsonl"),
                     "--report", str(tmp_path / "r.json"),
                     "--disable", "bogus"])
        assert code == 1
        assert "bogus" in capsys.readouterr().err


class TestTrainPredictEvaluate:
    def test_full_loop(self, tmp_path, synthetic_file):
        ckpt = run_train(tmp_path, synthetic_file)
        assert (ckpt / "manifest").exists()
        assert (ckpt / "params.bin").exists()
        assert (ckpt / "train_log.jsonl").exists()
        assert (ckpt / "run_manifest.json").exists()

        preds = tmp_path / "preds.jsonl"
        att = tmp_path / "att.jsonl"
        assert main(["predict", "--checkpoint", str(ckpt),
                     "--instances", str(synthetic_file),
                     "--out", str(preds), "--attention", str(att)]) == 0
        assert len(preds.read_text().splitlines()) == 30
        first = json.loads(att.read_text().splitlines()[0])
        assert abs(sum(first["weights"]) - 1.0) < 1e-6

        report = tmp_path / "eval.json"
        assert main(["evaluate", "--predictions", str(preds),
                     "--gold", str(synthetic_file), "--out", str(report)]) == 0
        data = json.loads(report.read_text())
        assert set(data["per_class"]) == {"advice", "effect", "mechanism", "int"}

        stats = tmp_path / "stats.json"
        assert main(["analyze", "--predictions", str(preds),
                     "--gold", str(synthetic_file), "--out", str(stats)]) == 0
        assert "correct" in json.loads(stats.read_text()) or \
            "incorrect" in json.loads(stats.read_text())

    def test_predict_is_reproducible(self, tmp_path, synthetic_file):
        ckpt = run_train(tmp_path, synthetic_file)
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for out in (a, b):
            assert main(["predict", "--checkpoint", str(ckpt),
                         "--instances", str(synthetic_file),
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_attention_refused_for_max_pool_variant(self, tmp_path,
                                                    synthetic_file, capsys):
        ckpt = run_train(tmp_path, synthetic_file, out="ckpt-b",
                         variant="b-lstm")
        code = main(["predict", "--checkpoint", str(ckpt),
                     "--instances", str(synthetic_file),
                     "--out", str(tmp_path / "preds.jsonl"),
                     "--attention", str(tmp_path / "att.jsonl")])
        assert code == 1
        assert "attention" in capsys.readouterr().err
        assert not (tmp_path / "att.jsonl").exists()

    def test_predict_on_empty_instance_file(self, tmp_path, synthetic_file):
        ckpt = run_train(tmp_path, synthetic_file)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        preds, att = tmp_path / "preds.jsonl", tmp_path / "att.jsonl"
        assert main(["predict", "--checkpoint", str(ckpt),
                     "--instances", str(empty), "--out", str(preds),
                     "--attention", str(att)]) == 0
        assert preds.read_bytes() == b"" and att.read_bytes() == b""

    def test_evaluate_alignment_diagnostic(self, tmp_path, synthetic_file,
                                           capsys):
        ckpt = run_train(tmp_path, synthetic_file)
        preds = tmp_path / "preds.jsonl"
        main(["predict", "--checkpoint", str(ckpt), "--instances",
              str(synthetic_file), "--out", str(preds)])
        lines = preds.read_text().splitlines()
        preds.write_text("\n".join(lines[:-2]) + "\n")
        code = main(["evaluate", "--predictions", str(preds),
                     "--gold", str(synthetic_file),
                     "--out", str(tmp_path / "e.json")])
        assert code == 1
        assert "28 predictions for 30" in capsys.readouterr().err

    def test_config_file_and_flag_precedence(self, tmp_path, synthetic_file):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"variant": "b-lstm", "hidden": 4,
                                   "word_dim": 6, "pos_dim": 2, "radius": 8,
                                   "epochs": 1, "batch_size": 10,
                                   "val_fraction": 0.1}))
        out_dir = tmp_path / "ckpt-cfg"
        assert main(["train", "--instances", str(synthetic_file),
                     "--out-dir", str(out_dir), "--config", str(cfg),
                     "--epochs", "2", "--seed", "1"]) == 0
        manifest = json.loads((out_dir / "run_manifest.json").read_text())
        # flag overrides file, file overrides default
        assert manifest["config"]["train"]["max_epochs"] == 2
        assert manifest["config"]["model"]["variant"] == "b-lstm"
        assert manifest["config"]["model"]["hidden"] == 4

    @pytest.mark.parametrize("variant", ["b-lstm", "joint"])
    def test_unset_options_record_the_config_defaults(self, tmp_path,
                                                      synthetic_file, variant):
        out_dir = tmp_path / "ckpt"
        flags = [] if variant == "b-lstm" else ["--variant", variant]
        assert main(["train", "--instances", str(synthetic_file),
                     "--out-dir", str(out_dir), *flags]) == 0
        manifest = json.loads((out_dir / "run_manifest.json").read_text())
        assert manifest["config"]["model"] == asdict(default_config(variant))
        assert manifest["config"]["train"] == asdict(TrainConfig())
        assert manifest["seed"] == TrainConfig().seed

    def test_word_vectors_take_the_default_word_dim(self, tmp_path,
                                                    synthetic_file):
        vectors = tmp_path / "vectors.txt"
        width = default_config("b-lstm").word_dim
        vectors.write_text("the " + " ".join(["0.5"] * width) + "\n")
        assert main(["train", "--instances", str(synthetic_file),
                     "--out-dir", str(tmp_path / "ckpt"), "--hidden", "4",
                     "--epochs", "1", "--word-vectors", str(vectors)]) == 0

    def test_no_heldout_split_is_named(self, tmp_path, synthetic_file, capsys):
        run_train(tmp_path, synthetic_file, extra=("--val-fraction", "0"))
        out = capsys.readouterr().out
        assert "no held-out split" in out and "F1" not in out

    def test_unknown_config_key_rejected(self, tmp_path, synthetic_file,
                                         capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"hidden_units": 4}))
        code = main(["train", "--instances", str(synthetic_file),
                     "--out-dir", str(tmp_path / "x"), "--config", str(cfg)])
        assert code == 1
        assert "hidden_units" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [{"hidden": "8"}, {"epochs": 1.5},
                                        {"epochs": True}],
                             ids=["str-for-int", "float-for-int", "bool-for-int"])
    def test_config_value_of_wrong_type_rejected(self, tmp_path, synthetic_file,
                                                 capsys, config):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        code = main(["train", "--instances", str(synthetic_file),
                     "--out-dir", str(tmp_path / "x"), "--config", str(cfg)])
        assert code == 1
        assert_one_error_line(capsys)


def _drop(blob, key):
    del blob[key]


def _edit_json(fname, change):
    def edit(ckpt):
        blob = json.loads((ckpt / fname).read_text())
        change(blob)
        (ckpt / fname).write_text(json.dumps(blob))
    return edit


def _flip_one_bit(ckpt):
    blob = bytearray((ckpt / "params.bin").read_bytes())
    blob[len(blob) // 2] ^= 1
    (ckpt / "params.bin").write_bytes(bytes(blob))


def _per_gate_layout(manifest):
    """The manifest as the older per-gate layout wrote it: U_*, W_* and b_*
    for each gate, p1_dim/p2_dim and n_classes, and no digest."""
    pos_dim = manifest["config"].pop("pos_dim")
    manifest["config"].update(p1_dim=pos_dim, p2_dim=pos_dim, n_classes=5)
    del manifest["params_sha256"]
    params = []
    for entry in manifest["params"]:
        prefix, _, leaf = entry["name"].rpartition(".")
        if leaf == "U":
            n, d = entry["shape"][0] // 4, entry["shape"][1]
            for g in "ifog":
                params += [{"name": f"{prefix}.U_{g}", "shape": [n, d]},
                           {"name": f"{prefix}.W_{g}", "shape": [n, n]},
                           {"name": f"{prefix}.b_{g}", "shape": [n]}]
        elif leaf not in ("W", "b"):
            params.append(entry)
    manifest["params"] = params


# each edit leaves the checkpoint readable but its content malformed
CHECKPOINT_EDITS = {
    "unknown-config-key": _edit_json("manifest",
                                     lambda m: m["config"].update(bogus=1)),
    "missing-params": _edit_json("manifest", lambda m: _drop(m, "params")),
    "config-as-list": _edit_json("manifest",
                                 lambda m: m.update(config=list(m["config"]))),
    "hidden-as-string": _edit_json("manifest",
                                   lambda m: m["config"].update(hidden="8")),
    "no-position-radius": _edit_json("vocab.json",
                                     lambda v: _drop(v, "position_radius")),
    "flipped-blob-bit": _flip_one_bit,
    "per-gate-layout": _edit_json("manifest", _per_gate_layout),
}


class TestCheckpointBoundary:
    @pytest.mark.parametrize("edit", sorted(CHECKPOINT_EDITS))
    def test_malformed_checkpoint_is_one_error_line(self, tmp_path, synthetic_file,
                                                    capsys, edit):
        instances = read_instances(synthetic_file)
        vocab = build_vocab([i.tokens for i in instances])
        pv = PositionVocab(8)
        cfg = ModelConfig(hidden=4, word_dim=6, pos_dim=2)
        ckpt = tmp_path / "ckpt"
        save_checkpoint(ckpt, build_model(cfg, len(vocab), len(pv)), cfg, vocab, pv)
        CHECKPOINT_EDITS[edit](ckpt)
        code = main(["predict", "--checkpoint", str(ckpt),
                     "--instances", str(synthetic_file),
                     "--out", str(tmp_path / "preds.jsonl")])
        assert code == 1
        assert_one_error_line(capsys)


def _rewrite_first_line(path, change):
    lines = path.read_text().splitlines()
    record = json.loads(lines[0])
    lines[0] = json.dumps(change(record))
    path.write_text("\n".join(lines) + "\n")


def _write_predictions(path, gold_path):
    path.write_text("".join(
        json.dumps({"pair_id": i.pair_id, "label": "negative"}) + "\n"
        for i in read_instances(gold_path)))


class TestRecordBoundary:
    """A malformed record in any input file is one `error:` line."""

    # the indices of "tokens-as-string" and "index-as-float" stay valid
    # for the sentence, so only a type check can refuse them
    @pytest.mark.parametrize("change", [
        {"label": 3}, {"drug_a": "0"},
        {"tokens": "abcdef", "drug_a": 0, "drug_b": 2},
        {"drug_a": 0, "drug_b": 2.0}, {"drug_b": 99},
        {"tokens": ["DRUG-A", 7, "DRUG-B"], "drug_a": 0, "drug_b": 2}],
        ids=["label-as-int", "index-as-string", "tokens-as-string",
             "index-as-float", "index-past-sentence", "token-as-int"])
    def test_bad_instance_field(self, tmp_path, synthetic_file, capsys, change):
        _rewrite_first_line(synthetic_file, lambda rec: {**rec, **change})
        code = main(["filter", "--instances", str(synthetic_file),
                     "--out", str(tmp_path / "kept.jsonl"),
                     "--report", str(tmp_path / "report.json")])
        assert code == 1
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("command", ["evaluate", "analyze"])
    @pytest.mark.parametrize("change", [
        lambda rec: {"pair_id": rec["pair_id"]}, lambda rec: list(rec),
        lambda rec: {**rec, "label": 3}],
        ids=["no-label", "list", "label-as-int"])
    def test_bad_prediction(self, tmp_path, synthetic_file, capsys, command,
                            change):
        preds = tmp_path / "preds.jsonl"
        _write_predictions(preds, synthetic_file)
        _rewrite_first_line(preds, change)
        code = main([command, "--predictions", str(preds), "--gold",
                     str(synthetic_file), "--out", str(tmp_path / "out.json")])
        assert code == 1
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("report", [
        [], {"removed": [{"pair_id": "x"}]}, {"removed": 5},
        {"removed": [{"label": "negative"}, {"label": "bogus"}]}],
        ids=["list", "entry-without-label", "removed-as-int", "unknown-label"])
    def test_bad_filter_report(self, tmp_path, synthetic_file, capsys, report):
        preds = tmp_path / "preds.jsonl"
        _write_predictions(preds, synthetic_file)
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(report))
        code = main(["evaluate", "--predictions", str(preds), "--gold",
                     str(synthetic_file), "--filter-report", str(report_path),
                     "--out", str(tmp_path / "out.json")])
        assert code == 1
        assert str(report_path) in assert_one_error_line(capsys)
