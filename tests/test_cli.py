"""End-to-end pipeline runs through the command-line driver."""

import json
import os

import pytest

from conftest import corpus_xml
from ddilstm.cli import main
from ddilstm.corpus import read_instances, write_instances
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
        code = main(["attention-export", "--checkpoint", str(ckpt),
                     "--instances", str(synthetic_file),
                     "--out", str(tmp_path / "att.jsonl")])
        assert code == 1
        assert "attention" in capsys.readouterr().err

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
