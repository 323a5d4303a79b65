"""End-to-end pipeline runs through the command-line driver."""

import ast
import contextlib
import errno
import functools
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
from dataclasses import asdict, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import corpus_xml, kept_instances, make_synthetic_instances, op_names
from ddilstm import cli
from ddilstm.cli import _TRAIN_OPTIONS, _build_parser, main
from ddilstm.corpus import generate_instances, parse_corpus, read_instances, write_instances
from ddilstm.features import PositionVocab, build_vocab
from ddilstm.filtering import apply_filters, build_report
from ddilstm.labels import label_id, label_name
from ddilstm.model import (MANIFEST_FILE, MAX_PARAMS, PARAMS_FILE, VARIANTS, VOCAB_FILE,
                           ModelConfig, build_model, default_config, load_checkpoint,
                           save_checkpoint)
from ddilstm.training import TrainConfig

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "filter_fixture.xml")

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

    @pytest.mark.parametrize("xml", [
        "<foo/>", "<corpus><foo/></corpus>",
        '<sentence id="s0" text="aspirin"/>'], ids=["foo", "no-document", "sentence"])
    def test_corpus_without_document_rejected(self, tmp_path, capsys, xml):
        path = tmp_path / "odd.xml"
        path.write_text(xml)
        out = tmp_path / "o.jsonl"
        code = main(["preprocess", "--corpus", str(path), "--out", str(out)])
        assert code == 1
        err = assert_one_error_line(capsys)
        assert str(path) in err and "no <document>" in err
        assert not out.exists()

    @pytest.mark.parametrize("ddi,ptype", [
        ("maybe", None), (True, "bogus"), (True, "negative"), (False, "bogus"),
        (False, "effect")], ids=["ddi-maybe", "unknown-type", "interaction-typed-negative",
                                  "negative-unknown-type", "negative-typed-interaction"])
    def test_bad_pair_names_file_and_pair(self, tmp_path, capsys, ddi, ptype):
        sid, text, entities, _ = THREE_DRUGS[0]
        path = tmp_path / "one.xml"
        path.write_text(corpus_xml("d9", [(sid, text, entities[:2], [
            ("d9.s0.p0", "d9.s0.e0", "d9.s0.e1", ddi, ptype)])]))
        out = tmp_path / "o.jsonl"
        code = main(["preprocess", "--corpus", str(path), "--out", str(out)])
        assert code == 1
        err = assert_one_error_line(capsys)
        assert f"{path}: pair d9.s0.p0: " in err
        assert not out.exists()

    def test_overlapping_targets_name_file_and_pair(self, tmp_path, capsys):
        # found while blinding, after parsing: targets at 0-6 and 2-9
        path = tmp_path / "one.xml"
        path.write_text(
            '<document id="d9">\n'
            '  <sentence id="d9.s0" text="Aspirinols mix well.">\n'
            '    <entity id="d9.s0.e0" charOffset="0-6" type="drug" text="Aspirin"/>\n'
            '    <entity id="d9.s0.e1" charOffset="2-9" type="drug" text="pirinols"/>\n'
            '    <pair id="d9.s0.p0" e1="d9.s0.e0" e2="d9.s0.e1" ddi="false"/>\n'
            "  </sentence>\n"
            "</document>\n")
        out = tmp_path / "o.jsonl"
        code = main(["preprocess", "--corpus", str(path), "--out", str(out)])
        assert code == 1
        err = assert_one_error_line(capsys)
        assert f"{path}: pair d9.s0.p0: target mentions overlap" in err
        assert not out.exists()

    def test_spans_listed_out_of_order_blind_in_text_order(self, tmp_path):
        # e1's second span comes first in the text, so e1 is DRUG-A
        path = tmp_path / "one.xml"
        path.write_text(
            '<document id="d9">\n'
            '  <sentence id="d9.s0" text="aspirin raises the level of warfarin'
            ' and other drugs">\n'
            '    <entity id="d9.s0.e0" charOffset="28-35" type="drug" text="warfarin"/>\n'
            '    <entity id="d9.s0.e1" charOffset="40-44;0-6" type="drug" text="aspirin"/>\n'
            '    <pair id="d9.s0.p0" e1="d9.s0.e0" e2="d9.s0.e1" ddi="false"/>\n'
            "  </sentence>\n"
            "</document>\n")
        raw, kept = tmp_path / "raw.jsonl", tmp_path / "kept.jsonl"
        assert main(["preprocess", "--corpus", str(path), "--out", str(raw)]) == 0
        assert main(["filter", "--instances", str(raw), "--out", str(kept),
                     "--report", str(tmp_path / "r.json")]) == 0
        [inst] = read_instances(raw)
        assert inst.tokens == ["DRUG-A", "raises", "the", "level", "of", "DRUG-B",
                               "andr", "drugs"]
        assert (inst.drug_a, inst.drug_b, inst.swapped) == (0, 5, True)

    @pytest.mark.parametrize("entity,error", [
        ('<entity id="d9.s0.e2" charOffset="41-47;43-45" type="drug" text="heparin"/>',
         "sentence d9.s0: entity d9.s0.e2: charOffset '41-47;43-45' overlaps itself"),
        ('<entity id="d9.s0.e1" charOffset="41-47" type="drug" text="heparin"/>',
         "sentence d9.s0: entity id 'd9.s0.e1' used twice"),
        # heparin's offsets in Arabic-Indic digits
        ('<entity id="d9.s0.e2" charOffset="\u0664\u0661-\u0664\u0667" type="drug" '
         'text="heparin"/>', "sentence d9.s0: bad charOffset '\u0664\u0661-\u0664\u0667'"),
    ], ids=["self-overlap", "duplicate-id", "non-ascii-digits"])
    def test_bad_entity_names_file_and_sentence(self, tmp_path, capsys, entity, error):
        path = tmp_path / "one.xml"
        path.write_text(
            '<document id="d9">\n'
            '  <sentence id="d9.s0" text="Aspirin raises the level of warfarin'
            ' and heparin today">\n'
            '    <entity id="d9.s0.e0" charOffset="0-6" type="drug" text="Aspirin"/>\n'
            '    <entity id="d9.s0.e1" charOffset="28-35" type="drug" text="warfarin"/>\n'
            f"    {entity}\n"
            '    <pair id="d9.s0.p0" e1="d9.s0.e0" e2="d9.s0.e1" ddi="false"/>\n'
            "  </sentence>\n"
            "</document>\n", encoding="utf-8")
        out = tmp_path / "o.jsonl"
        code = main(["preprocess", "--corpus", str(path), "--out", str(out)])
        assert code == 1
        assert assert_one_error_line(capsys) == f"error: {path}: {error}\n"
        assert not out.exists()


class TestFilter:
    def test_fixture_output_bytes(self, tmp_path):
        """The ingest outputs of the fixture corpus, pinned by sha256."""
        fixture = os.path.join(os.path.dirname(__file__), "fixtures",
                               "filter_fixture.xml")
        raw = tmp_path / "raw.jsonl"
        assert main(["preprocess", "--corpus", fixture, "--out", str(raw)]) == 0
        outputs = {"raw.jsonl": raw}
        for mode in ("train", "test"):
            kept, report = tmp_path / f"{mode}.jsonl", tmp_path / f"{mode}.report.json"
            assert main(["filter", "--instances", str(raw), "--out", str(kept),
                         "--report", str(report), "--mode", mode]) == 0
            outputs.update({kept.name: kept, report.name: report})
        digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for name, path in outputs.items()}
        assert digests == {
            "raw.jsonl": "67bec17a1ad5dff3e4ec543585d35a6cfb069c93809b43b950528226006a16b5",
            "train.jsonl": "1aa21e4ecb53addf3361c0a4f0190911d8fd93d45d76b6dc0dc7e6d120f03d23",
            "train.report.json":
                "b852795896015d944a592e994fd561b40d95def38168a0f5e850a3312ffca62c",
            "test.jsonl": "1aa21e4ecb53addf3361c0a4f0190911d8fd93d45d76b6dc0dc7e6d120f03d23",
            "test.report.json":
                "edce76a64e0b8558848f47ece72510f8925f0262dfb5d337597f0f5d496db57a",
        }

    def test_fixture_output_bytes_with_patterns_disabled(self, tmp_path):
        """Two patterns off: the outputs pinned by sha256, and the manifest's
        config naming every pattern with whether it was on."""
        fixture = os.path.join(os.path.dirname(__file__), "fixtures",
                               "filter_fixture.xml")
        raw, kept = tmp_path / "raw.jsonl", tmp_path / "kept.jsonl"
        report = tmp_path / "report.json"
        assert main(["preprocess", "--corpus", fixture, "--out", str(raw)]) == 0
        assert main(["filter", "--instances", str(raw), "--out", str(kept),
                     "--report", str(report), "--mode", "test",
                     "--disable", "coord_list", "--disable", "same_name"]) == 0
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in (kept, report)}
        assert digests == {
            "kept.jsonl": "9bd7c0358a85234f2d820dc1f546fe219dea5d34359b75492fe1c5357115a0b2",
            "report.json": "9554c3683379286f7673d95b4c4f0550d655c437129286c7684a910e47c4734b",
        }
        manifest = json.loads((tmp_path / "kept.jsonl.manifest.json").read_text())
        assert manifest["config"] == {
            "same_name": False, "apposition_paren": True, "such_as": True,
            "such_as_list": True, "coord_list": False, "coord_list_conj": True}
        assert list(manifest["config"]) == ["same_name", "apposition_paren", "such_as",
                                            "such_as_list", "coord_list",
                                            "coord_list_conj"]

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

    # names of FilterConfig's other attributes, which are no patterns
    @pytest.mark.parametrize("names", [
        ["disable"], ["__init__"], ["__class__"], ["disable", "same_name"]],
        ids=["disable", "init", "class", "disable-then-same_name"])
    def test_disable_takes_only_pattern_names(self, tmp_path, synthetic_file,
                                              capsys, names):
        code = main(["filter", "--instances", str(synthetic_file),
                     "--out", str(tmp_path / "k.jsonl"),
                     "--report", str(tmp_path / "r.json"),
                     *[arg for name in names for arg in ("--disable", name)]])
        assert code == 1
        assert repr(names[0]) in assert_one_error_line(capsys)

    def test_kept_lines_are_copied_as_written(self, tmp_path):
        """A hand-edited instance file: each kept record is written as its
        input line stripped, with its own key order, spacing and label
        spelling, and reads back as the kept instance."""
        lines = []
        for inst in generate_instances(parse_corpus(FIXTURE)):
            rec = {**vars(inst), "label": label_name(inst.label),
                   "tokens": inst.tokens + ["β-blockers"]}  # past DRUG-B: no rule sees it
            if inst.label == label_id("advice"):
                rec["label"] = " Advise"
            rec = dict(reversed(rec.items()))
            lines.append("  " + json.dumps(rec, ensure_ascii=False, separators=(" , ", ":  ")))
        src = tmp_path / "edited.jsonl"
        src.write_bytes(("\r\n \t\r\n".join(lines)).encode("utf-8"))  # no final newline
        out = tmp_path / "kept.jsonl"
        assert main(["filter", "--instances", str(src), "--out", str(out),
                     "--report", str(tmp_path / "report.json"), "--mode", "test"]) == 0
        decisions = apply_filters(read_instances(src))
        expected = [line.strip() + "\n" for line, hit in zip(lines, decisions) if hit is None]
        assert 0 < len(expected) < len(lines)
        assert any('"label":  " Advise"' in line for line in expected)
        assert out.read_bytes() == "".join(expected).encode("utf-8")
        assert read_instances(out) == kept_instances(read_instances(src))


class TestEvaluateReport:
    def test_fixture_report_bytes(self, tmp_path):
        """The reports `evaluate` writes for the fixture's test-mode instances,
        pinned by sha256: three hand-written predictions files (gold copied,
        all negative, and gold rotated one line so each pair takes the next
        pair's label), each scored with and without the filter report and
        with and without McNemar against the next file. No model is trained,
        so no digest depends on the BLAS thread count."""
        raw, gold = tmp_path / "raw.jsonl", tmp_path / "test.jsonl"
        removed = tmp_path / "test.report.json"
        assert main(["preprocess", "--corpus", FIXTURE, "--out", str(raw)]) == 0
        assert main(["filter", "--instances", str(raw), "--out", str(gold),
                     "--report", str(removed), "--mode", "test"]) == 0
        instances = read_instances(gold)
        labels = [label_name(inst.label) for inst in instances]
        predicted = {"gold": labels, "negative": ["negative"] * len(labels),
                     "rotated": labels[1:] + labels[:1]}
        for name, column in predicted.items():
            (tmp_path / f"{name}.jsonl").write_text("".join(
                json.dumps({"pair_id": inst.pair_id, "label": label}) + "\n"
                for inst, label in zip(instances, column)))
        names = list(predicted)
        digests = {}
        for k, name in enumerate(names):
            against = names[(k + 1) % len(names)]
            for options in ([], ["--filter-report", str(removed)],
                            ["--against", str(tmp_path / f"{against}.jsonl")],
                            ["--filter-report", str(removed),
                             "--against", str(tmp_path / f"{against}.jsonl")]):
                out = tmp_path / "eval.json"
                assert main(["evaluate", "--predictions", str(tmp_path / f"{name}.jsonl"),
                             "--gold", str(gold), "--out", str(out), *options]) == 0
                run = " ".join([name, *(o for o in options if o.startswith("--"))])
                digests[run] = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digests == {
            "gold": "c35624e073e53fa15e30623c0cc9553e7f796212d0a42f40dbb902148feab4d4",
            "gold --filter-report":
                "772f16828bb92b85b89fa7741ca129c62df8c30fa7b92f8609e8eb175cc122d8",
            "gold --against": "cab2303debcdfbadf1e3526734a2d63ffa9fba99fa37bc3dc949875546843e7b",
            "gold --filter-report --against":
                "34c384a905193f8ccb3ec822e7597174269c7e0a08afcd651ef2761eba14c8ff",
            "negative": "b7ef440df0e5e8ce34d75580d285ac87498480d9a9265388b01500c511ecbfde",
            "negative --filter-report":
                "a9664b4c900a81636ee2ec7380ac1979e513eb8a62e5db3a282a8c246d44cd8a",
            "negative --against":
                "a51d81455f2522cad167c2330a133f5136ab53e529879607b26421a21efea9dd",
            "negative --filter-report --against":
                "4f82bd3361c05c4e01d70746d4dae9a876ed5cdb62ebfe790388cbecfe07b3c7",
            "rotated": "24d933c0b231ca9c94b5d56f2ef8202780a93d188457b2f6010451ad7ff7e81f",
            "rotated --filter-report":
                "8bfc90f4f54f45c8720c56b526bee5c0aa2528740ec89569bddd6c34c9da92f7",
            "rotated --against":
                "6089cd2a77a85dd975f0a9a0494fc23dc26d44742bd3724df6599bf506efa07a",
            "rotated --filter-report --against":
                "dcfff7a565dd21e182d8092cf0101083becb71920568eee2763db10b81cd6b39",
        }


@pytest.mark.parametrize("space", ["\u00a0", "\u2028", "\x85", "\x1c", "\v", "\f"])
@pytest.mark.parametrize("command", ["filter", "evaluate"])
def test_line_of_other_whitespace_is_refused(tmp_path, capsys, command, space):
    """A line of whitespace that JSON does not count as such is no blank
    line: filter's instances and evaluate's predictions refuse it, naming
    the file and line, and the command writes nothing."""
    gold = tmp_path / "gold.jsonl"
    gold.write_bytes(_fixture_instance_bytes())
    preds = tmp_path / "preds.jsonl"
    _write_predictions(preds, gold)
    bad = gold if command == "filter" else preds
    n_lines = len(bad.read_bytes().splitlines())
    with open(bad, "a", encoding="utf-8") as fh:
        fh.write(space + "\n")
    before = _tree(tmp_path)
    argv = (["filter", "--instances", str(gold), "--report", str(tmp_path / "report.json")]
            if command == "filter" else
            ["evaluate", "--predictions", str(preds), "--gold", str(gold)])
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = assert_one_error_line(capsys)
    assert err.startswith(f"error: {bad}:{n_lines + 1}: bad "), err
    assert "malformed JSON" in err
    assert _tree(tmp_path) == before


@functools.cache
def _fixture_instance_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "raw.jsonl")
        write_instances(path, generate_instances(parse_corpus(FIXTURE)))
        return path.read_bytes()


# edits of an instance file; each position is taken modulo its range. A
# mask of 1 or 2 often keeps a digit a digit, and 32 a letter a letter; a
# splice at 0 and 0 copies line j over line i.
_AT = st.integers(0, 1 << 16)
FILE_EDITS = st.one_of(
    st.tuples(st.just("truncate"), _AT),
    st.tuples(st.just("flip"), _AT, st.sampled_from([1, 2, 32]) | st.integers(1, 255)),
    st.tuples(st.just("splice"), _AT, _AT, st.just(0) | _AT, st.just(0) | _AT))


# and of any file: bytes put in at a position, or up to n bytes taken out
BYTE_EDITS = st.one_of(
    st.tuples(st.just("truncate"), _AT),
    st.tuples(st.just("flip"), _AT, st.sampled_from([1, 2, 32]) | st.integers(1, 255)),
    st.tuples(st.just("insert"), _AT, st.binary(min_size=1, max_size=4)),
    st.tuples(st.just("delete"), _AT, st.integers(1, 4)))


def _edited(data: bytes, edits) -> bytes:
    """`data` cut at a byte, with one byte XORed, with bytes inserted or
    deleted, or with line i's head joined to line j's tail, per edit."""
    for kind, *at in edits:
        if kind == "truncate":
            data = data[:at[0] % (len(data) + 1)]
        elif kind == "flip" and data:
            k = at[0] % len(data)
            data = data[:k] + bytes([data[k] ^ at[1]]) + data[k + 1:]
        elif kind == "insert":
            k = at[0] % (len(data) + 1)
            data = data[:k] + at[1] + data[k:]
        elif kind == "delete" and data:
            k = at[0] % len(data)
            data = data[:k] + data[k + at[1]:]
        elif kind == "splice":
            lines = data.split(b"\n")
            i, j = at[0] % len(lines), at[1] % len(lines)
            lines[i] = (lines[i][:at[2] % (len(lines[i]) + 1)]
                        + lines[j][at[3] % (len(lines[j]) + 1):])
            data = b"\n".join(lines)
    return data


class TestFilterFuzz:
    @given(st.lists(FILE_EDITS, min_size=1, max_size=3), st.sampled_from(["train", "test"]))
    @settings(max_examples=300, deadline=None)
    def test_damaged_instance_file(self, edits, mode):
        """A damaged file is filtered and reads back, or is refused with one
        `error:` line and no output; nothing raises."""
        with tempfile.TemporaryDirectory() as tmp:
            src, out, report = (Path(tmp, name) for name in ("raw.jsonl", "kept.jsonl",
                                                              "report.json"))
            src.write_bytes(_edited(_fixture_instance_bytes(), edits))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["filter", "--instances", str(src), "--out", str(out),
                             "--report", str(report), "--mode", mode])
            if code == 0:
                kept = kept_instances(read_instances(src))
                assert read_instances(out) == kept
                assert json.loads(report.read_text())["n_kept"] == len(kept)
            else:
                assert code == 1
                assert err.getvalue().startswith("error: ")
                assert err.getvalue().count("\n") == 1, err.getvalue()
                assert not out.exists() and not report.exists()


@pytest.fixture
def pipeline_files(tmp_path, synthetic_file):
    """An input of each kind, by name: a corpus, instances, an ab-lstm
    checkpoint, predictions, a filter report, and a link to tmp_path."""
    files = {"instances": synthetic_file, "corpus": tmp_path / "corpus.xml",
             "ckpt": tmp_path / "ckpt", "preds": tmp_path / "preds.jsonl",
             "report": tmp_path / "report.json", "link": tmp_path / "link"}
    files["corpus"].write_text(corpus_xml("d9", THREE_DRUGS))
    instances = read_instances(synthetic_file)
    vocab, pv = build_vocab([i.tokens for i in instances]), PositionVocab(8)
    cfg = ModelConfig(variant="ab-lstm", hidden=4, word_dim=6, pos_dim=2)
    save_checkpoint(files["ckpt"], build_model(cfg, len(vocab), len(pv)), cfg, vocab, pv)
    _write_predictions(files["preds"], synthetic_file)
    files["report"].write_text(json.dumps({"removed": [], "n_kept": len(instances)}))
    files["link"].symlink_to(tmp_path, target_is_directory=True)
    (tmp_path / "held.jsonl.manifest.json").write_bytes(synthetic_file.read_bytes())
    return {name: str(path) for name, path in files.items()}


def _tree(root):
    """Every file under `root` and its bytes."""
    return {path: path.read_bytes() for path in sorted(Path(root).rglob("*"))
            if path.is_file() and not path.is_symlink()}


# argv with {name} for pipeline_files and {tmp} for tmp_path, and the two
# flags that the error names
CLASHES = {
    "predict-out-is-attention": (
        "predict --checkpoint {ckpt} --instances {instances} --out {tmp}/x "
        "--attention {tmp}/x", "--out and --attention"),
    "predict-attention-is-manifest": (
        "predict --checkpoint {ckpt} --instances {instances} --out {tmp}/x "
        "--attention {tmp}/x.manifest.json", "the manifest of --out and --attention"),
    "predict-out-is-instances": (
        "predict --checkpoint {ckpt} --instances {instances} --out {instances}",
        "--instances and --out"),
    "filter-out-is-report": (
        "filter --instances {instances} --out {tmp}/k --report {tmp}/k",
        "--out and --report"),
    "filter-report-through-link": (
        "filter --instances {instances} --out {tmp}/k --report {link}/k",
        "--out and --report"),
    "filter-in-place": (
        "filter --instances {instances} --out {instances} --report {tmp}/r",
        "--instances and --out"),
    "filter-manifest-is-input": (
        "filter --instances {tmp}/held.jsonl.manifest.json --out {tmp}/held.jsonl "
        "--report {tmp}/r", "--instances and the manifest of --out"),
    "evaluate-out-is-predictions": (
        "evaluate --predictions {preds} --gold {instances} --out {preds}",
        "--predictions and --out"),
    "evaluate-out-is-filter-report": (
        "evaluate --predictions {preds} --gold {instances} --filter-report {report} "
        "--out {report}", "--filter-report and --out"),
    "analyze-out-is-gold": (
        "analyze --predictions {preds} --gold {instances} --out {instances}",
        "--gold and --out"),
    "preprocess-out-is-corpus": (
        "preprocess --corpus {corpus} --out {corpus}", "--corpus and --out"),
}
# --checkpoint stands for its three files: predict writes over none of them
for _name in (MANIFEST_FILE, PARAMS_FILE, VOCAB_FILE):
    CLASHES[f"predict-out-is-checkpoint-{_name}"] = (
        "predict --checkpoint {ckpt} --instances {instances} --out {ckpt}/" + _name,
        "--checkpoint and --out")
    CLASHES[f"predict-attention-is-checkpoint-{_name}"] = (
        "predict --checkpoint {ckpt} --instances {instances} --out {tmp}/x "
        "--attention {ckpt}/" + _name, "--checkpoint and --attention")

# an output that cannot be written, and what the error says of it
UNWRITABLE = {
    "filter-report": ("filter --instances {instances} --out {tmp}/k "
                      "--report {tmp}/nodir/r.json", "--report: directory "),
    "filter-out": ("filter --instances {instances} --out {tmp}/nodir/k.jsonl "
                   "--report {tmp}/r.json", "--out: directory "),
    "predict-attention": ("predict --checkpoint {ckpt} --instances {instances} "
                          "--out {tmp}/p.jsonl --attention {tmp}/nodir/a.jsonl",
                          "--attention: directory "),
    "evaluate-out": ("evaluate --predictions {preds} --gold {instances} "
                     "--out {tmp}/nodir/e.json", "--out: directory "),
    "preprocess-out": ("preprocess --corpus {corpus} --out {tmp}/nodir/raw.jsonl",
                       "--out: directory "),
    "filter-report-is-a-directory": ("filter --instances {instances} --out {tmp}/k "
                                     "--report {ckpt}", "--report: "),
}


# an --instances file in --out-dir: each file train writes there, once
# through a linked directory, and once in an --out-dir not yet made
OUT_DIR_CLASHES = [(name, "direct") for name in ("manifest", "params.bin", "vocab.json",
                                                 "train_log.jsonl", "run_manifest.json")]
OUT_DIR_CLASHES += [("train_log.jsonl", "link"), ("params.bin", "missing")]


class TestOutputPaths:
    """Each command refuses, before it reads anything, an output it cannot
    write or that would overwrite another of its files."""

    @pytest.mark.parametrize("case", sorted(CLASHES))
    def test_output_clash_is_refused(self, tmp_path, pipeline_files, capsys, case):
        argv, flags = CLASHES[case]
        before = _tree(tmp_path)
        assert main(argv.format(tmp=tmp_path, **pipeline_files).split()) == 1
        assert f"{flags} name the same file" in assert_one_error_line(capsys)
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize("case", sorted(UNWRITABLE))
    def test_unwritable_output_is_refused(self, tmp_path, pipeline_files, capsys,
                                          case):
        argv, said = UNWRITABLE[case]
        before = _tree(tmp_path)
        assert main(argv.format(tmp=tmp_path, **pipeline_files).split()) == 1
        err = assert_one_error_line(capsys)
        assert err.startswith(f"error: {said}") and (
            "nodir does not exist" in err or err.endswith(" is a directory\n")), err
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize("name,how", OUT_DIR_CLASHES,
                             ids=[f"{how}-{name}" for name, how in OUT_DIR_CLASHES])
    def test_train_input_in_out_dir_is_refused(self, tmp_path, synthetic_file, capsys,
                                               name, how):
        out_dir = tmp_path / "ckpt"
        if how != "missing":
            out_dir.mkdir()
            (out_dir / name).write_bytes(synthetic_file.read_bytes())
        (tmp_path / "link").symlink_to(out_dir, target_is_directory=True)
        instances = (tmp_path / "link" if how == "link" else out_dir) / name
        before = _tree(tmp_path)
        code = main(["train", "--instances", str(instances), "--out-dir", str(out_dir),
                     "--hidden", "4", "--word-dim", "5", "--pos-dim", "2", "--epochs", "1"])
        assert code == 1
        assert assert_one_error_line(capsys) == (
            f"error: --instances and --out-dir name the same file: {out_dir / name}\n")
        assert _tree(tmp_path) == before
        assert out_dir.exists() == (how != "missing")


class TestWholeOrAbsent:
    """A command's outputs are whole or absent after an error part-way."""

    @pytest.mark.parametrize("before", [None, b"old attention\n"], ids=["new", "existing"])
    def test_failing_attention_rows_leave_the_file_as_it_was(
            self, tmp_path, pipeline_files, capsys, monkeypatch, before):
        real_predict = cli.predict

        def predict(*args):  # the third instance's weights one short
            preds, alphas = real_predict(*args)
            alphas[2] = alphas[2][:-1]
            return preds, alphas

        monkeypatch.setattr(cli, "predict", predict)
        att = tmp_path / "att.jsonl"
        if before is not None:
            att.write_bytes(before)
        code = main(["predict", "--checkpoint", pipeline_files["ckpt"],
                     "--instances", pipeline_files["instances"],
                     "--out", str(tmp_path / "p.jsonl"), "--attention", str(att)])
        assert code == 1
        assert "weights for" in assert_one_error_line(capsys)
        assert (att.read_bytes() if att.exists() else None) == before
        assert not list(tmp_path.rglob("*.tmp"))
        assert not (tmp_path / "p.jsonl.manifest.json").exists()

    def test_instances_named_like_a_staging_file_stay_intact(self, tmp_path,
                                                             synthetic_file):
        """train --instances D/params.bin.tmp --out-dir D reads its input,
        and leaves it as it was."""
        (tmp_path / "ckpt").mkdir()
        instances = tmp_path / "ckpt" / "params.bin.tmp"
        instances.write_bytes(synthetic_file.read_bytes())
        ckpt = run_train(tmp_path, instances)
        assert instances.read_bytes() == synthetic_file.read_bytes()
        load_checkpoint(ckpt)
        assert [p.name for p in ckpt.glob("*.tmp")] == ["params.bin.tmp"]

    def test_running_out_of_memory_is_one_error_line(self, tmp_path, synthetic_file):
        """train in a child process whose address space is capped at 1 GiB
        runs out in its first forward pass at hidden 3000 (nothing here
        allocates to find a limit): exit 1, one error line, no --out-dir."""
        def cap():  # in the child only
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out_dir = tmp_path / "ckpt"
        child = subprocess.run(
            [sys.executable, "-m", "ddilstm", "train", "--instances", str(synthetic_file),
             "--out-dir", str(out_dir), "--hidden", "3000", "--epochs", "1"],
            env=env, preexec_fn=cap, capture_output=True, text=True, timeout=60)
        assert child.returncode == 1
        assert child.stderr.startswith("error: ") and child.stderr.count("\n") == 1, \
            child.stderr
        assert not out_dir.exists() and not list(tmp_path.rglob("*.tmp"))

    def test_memory_error_without_text_is_named(self, tmp_path, synthetic_file, capsys,
                                                 monkeypatch):
        """Python's own MemoryError carries no message (bytearray(2**62))."""
        def read_instances(path):
            raise MemoryError

        monkeypatch.setattr(cli.corpus, "read_instances", read_instances)
        assert main(["analyze", "--predictions", str(tmp_path / "p.jsonl"), "--gold",
                     str(synthetic_file), "--out", str(tmp_path / "s.json")]) == 1
        assert assert_one_error_line(capsys) == "error: out of memory\n"


# a command (argv with {name} for pipeline_files and {tmp} for tmp_path),
# the writer it calls that fails, and the end of the path it fails on
FAILED_WRITES = {
    "train-run-manifest-new-out-dir": (
        "train --instances {instances} --out-dir {tmp}/new/ckpt --hidden 4 --epochs 1",
        cli, "write_json", "run_manifest.json"),
    "train-run-manifest-existing-out-dir": (
        "train --instances {instances} --out-dir {tmp}/old --hidden 4 --epochs 1",
        cli, "write_json", "run_manifest.json"),
    "filter-report": (
        "filter --instances {instances} --out {tmp}/k.jsonl --report {tmp}/r.json",
        cli, "write_json", "r.json"),
    "predict-attention": (
        "predict --checkpoint {ckpt} --instances {instances} --out {tmp}/p.jsonl "
        "--attention {tmp}/a.jsonl", cli.evaluation, "write_attention_records", "a.jsonl"),
}


class TestFailedRunLeavesNothing:
    """A command that fails part-way, as on a full disk or at Ctrl-C,
    removes every path it created and leaves the others as they were."""

    @pytest.mark.parametrize("exc", [OSError(errno.ENOSPC, "No space left on device"),
                                     KeyboardInterrupt()], ids=["enospc", "interrupt"])
    @pytest.mark.parametrize("case", sorted(FAILED_WRITES))
    def test_failed_write(self, tmp_path, pipeline_files, capsys, monkeypatch, case, exc):
        argv, module, name, suffix = FAILED_WRITES[case]
        write = getattr(module, name)

        def failing(path, *args):
            if str(path).endswith(suffix):
                raise exc
            write(path, *args)

        monkeypatch.setattr(module, name, failing)
        (tmp_path / "old").mkdir()  # an --out-dir that was there before, with one file
        (tmp_path / "old" / "notes.txt").write_text("kept\n")
        before = sorted(tmp_path.rglob("*")), _tree(tmp_path)
        argv = argv.format(tmp=tmp_path, **pipeline_files).split()
        if isinstance(exc, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            assert main(argv) == 1
            err = assert_one_error_line(capsys)
            assert err.startswith(f"error: [Errno {errno.ENOSPC}] No space"), err
        assert (sorted(tmp_path.rglob("*")), _tree(tmp_path)) == before


def _subparsers() -> dict:
    """Each command's parser, by name."""
    [action] = [a for a in _build_parser()._actions if a.dest == "command"]
    return action.choices


def _pipeline_runs(tmp_path) -> list:
    """Each command once, in pipeline order, on the fixture: its argv, its
    run manifest, and the manifest's inputs and outputs. train takes its
    word vectors from a config file, which this writes."""
    raw, kept, report = (str(tmp_path / n) for n in ("raw.jsonl", "kept.jsonl", "r.json"))
    ckpt, preds, att = (str(tmp_path / n) for n in ("ckpt", "preds.jsonl", "att.jsonl"))
    ev, stats = str(tmp_path / "eval.json"), str(tmp_path / "stats.json")
    cfg, vectors = str(tmp_path / "train.json"), str(tmp_path / "vectors.txt")
    Path(vectors).write_text("the 0.1 0.2 0.3 0.4 0.5\n")
    Path(cfg).write_text(json.dumps({"word_vectors": vectors}))
    return [
        (["preprocess", "--corpus", FIXTURE, "--out", raw], raw + ".manifest.json",
         {"corpus": FIXTURE}, {"instances": raw}),
        (["filter", "--instances", raw, "--out", kept, "--report", report, "--mode",
          "test"], kept + ".manifest.json",
         {"instances": raw}, {"filtered": kept, "report": report}),
        (["train", "--instances", raw, "--out-dir", ckpt, "--variant", "ab-lstm",
          "--hidden", "4", "--word-dim", "5", "--pos-dim", "2", "--epochs", "1",
          "--config", cfg], os.path.join(ckpt, "run_manifest.json"),
         {"instances": raw, "config": cfg, "word_vectors": vectors}, {"checkpoint": ckpt}),
        (["predict", "--checkpoint", ckpt, "--instances", kept, "--out", preds,
          "--attention", att], preds + ".manifest.json",
         {"checkpoint": ckpt, "instances": kept}, {"predictions": preds, "attention": att}),
        (["evaluate", "--predictions", preds, "--gold", kept, "--filter-report", report,
          "--against", preds, "--out", ev], ev + ".manifest.json",
         {"predictions": preds, "gold": kept, "filter_report": report, "against": preds},
         {"report": ev}),
        (["analyze", "--predictions", preds, "--gold", kept, "--out", stats],
         stats + ".manifest.json", {"predictions": preds, "gold": kept}, {"stats": stats}),
    ]


# every file option that each command declares, input or output
FILE_OPTIONS = [(command, name) for command, parser in _subparsers().items()
                for name in (*parser.get_default("inputs"), *parser.get_default("outputs"))]


@pytest.mark.parametrize("command,name", FILE_OPTIONS,
                         ids=[f"{command}-{name}" for command, name in FILE_OPTIONS])
def test_empty_path_is_refused(tmp_path, capsys, command, name):
    """"" names no file: refused by its option, before anything is read."""
    [argv] = [argv for argv, *_ in _pipeline_runs(tmp_path) if argv[0] == command]
    before = sorted(tmp_path.iterdir())
    flag = "--" + name.replace("_", "-")
    assert main([*argv, flag, ""]) == 1  # the last value given wins
    assert assert_one_error_line(capsys) == f"error: {flag}: empty path\n"
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("vectors,said", [
    ("", "word_vectors: empty path"),
    ("ckpt/params.bin", "word_vectors and --out-dir name the same file: {tmp}/ckpt/params.bin"),
    ("ckpt/run_manifest.json", "word_vectors and --out-dir name the same file: "
                               "{tmp}/ckpt/run_manifest.json"),
], ids=["empty", "checkpoint-file", "run-manifest"])
def test_config_path_is_checked_like_its_flag(tmp_path, capsys, vectors, said):
    """A path the config file sets is refused as its flag's would be, named
    by the config file and its key, before anything is read or created."""
    [argv] = [argv for argv, *_ in _pipeline_runs(tmp_path) if argv[0] == "train"]
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"word_vectors": vectors and str(tmp_path / vectors)}))
    before = _tree(tmp_path)
    assert main(argv) == 1
    assert assert_one_error_line(capsys) == f"error: {cfg}: {said.format(tmp=tmp_path)}\n"
    assert _tree(tmp_path) == before and not (tmp_path / "ckpt").exists()


def test_check_paths_returns_what_a_run_creates(tmp_path, monkeypatch):
    """Each command's run creates exactly the paths `_check_paths` returned,
    the paths a failed run removes."""
    returned, check_paths = [], cli._check_paths

    def spy(*args):
        returned.append(check_paths(*args))
        return returned[-1]

    monkeypatch.setattr(cli, "_check_paths", spy)
    root = Path(os.path.realpath(tmp_path))
    for argv, *_ in _pipeline_runs(tmp_path):
        before = set(root.rglob("*"))
        returned.clear()
        assert main(argv) == 0, argv[0]
        assert set(map(Path, returned[0])) == set(root.rglob("*")) - before, argv[0]


class TestManifests:
    def test_each_command_writes_one_run_manifest_last(self, tmp_path, monkeypatch):
        """One call of _write_manifest per command, once every output the
        manifest names exists; and one call site, in main."""
        calls = []

        def spy(args, config, seed):
            outputs = [getattr(args, name) for name in args.outputs]
            calls.append((args.command, all(map(os.path.exists, filter(None, outputs)))))
            write_manifest(args, config, seed)

        write_manifest = cli._write_manifest
        monkeypatch.setattr(cli, "_write_manifest", spy)
        for argv, path, _, _ in _pipeline_runs(tmp_path):
            calls.clear()
            assert main(argv) == 0, argv[0]
            assert calls == [(argv[0], True)] and os.path.exists(path), argv[0]
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        sites = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "_write_manifest"]
        assert len(sites) == 1

    def test_every_command_declares_its_files(self):
        parsers = _subparsers()
        assert set(parsers) == {"preprocess", "filter", "train", "predict", "evaluate",
                                "analyze"}
        for command, parser in parsers.items():
            inputs, outputs = parser.get_default("inputs"), parser.get_default("outputs")
            assert isinstance(inputs, tuple) and isinstance(outputs, dict), command
            options = {action.dest for action in parser._actions}
            assert set(inputs) | set(outputs) <= options, command

    def test_manifests_name_the_declared_files(self, tmp_path):
        """Each command's run manifest: its declared inputs by option name,
        None when not given, and the outputs given, under their keys."""
        runs = _pipeline_runs(tmp_path)
        parsers = _subparsers()
        assert [argv[0] for argv, *_ in runs] == list(parsers)
        for argv, path, inputs, outputs in runs:
            assert main(argv) == 0, argv[0]
            manifest = json.loads(Path(path).read_text())
            assert manifest["command"] == argv[0]
            assert list(manifest["inputs"]) == list(parsers[argv[0]].get_default("inputs"))
            assert (manifest["inputs"], manifest["outputs"]) == (inputs, outputs), argv[0]


def _option_name(field: str) -> str:
    """The train option that sets a field of ModelConfig or TrainConfig."""
    return "epochs" if field == "max_epochs" else field


class TestTrainOptions:
    def test_flags_and_config_keys_are_the_config_fields(self):
        """train's config keys are the config fields and the three options
        train owns, each of its field's type; its flags are those, --config
        and its two file options."""
        keys = {_option_name(f.name) for cls in (ModelConfig, TrainConfig) for f in fields(cls)}
        keys |= {"radius", "min_count", "word_vectors"}
        assert set(_TRAIN_OPTIONS) == keys
        flags = {action.dest for action in _subparsers()["train"]._actions}
        assert flags == keys | {"config", "instances", "out_dir", "help"}
        for cls in (ModelConfig, TrainConfig):
            for name, kind in get_type_hints(cls).items():
                assert _TRAIN_OPTIONS[_option_name(name)][0] is kind

    def test_every_config_key_reaches_the_run(self, tmp_path, synthetic_file):
        """A config file giving every key a value other than its default
        trains, and the run manifest records each value."""
        vectors, cfg, out_dir = tmp_path / "vectors.txt", tmp_path / "c.json", tmp_path / "ck"
        vectors.write_text("the 0.1 0.2 0.3 0.4\n")
        config = {"variant": "joint", "hidden": 3, "word_dim": 4, "pos_dim": 2,
                  "keep_prob": 0.5, "l2": 0.01, "lr": 0.002, "batch_size": 7, "epochs": 2,
                  "seed": 5, "val_fraction": 0.2, "radius": 6, "min_count": 2,
                  "word_vectors": str(vectors)}
        assert set(config) == set(_TRAIN_OPTIONS)
        cfg.write_text(json.dumps(config))
        assert main(["train", "--instances", str(synthetic_file), "--out-dir", str(out_dir),
                     "--config", str(cfg)]) == 0
        run = json.loads((out_dir / "run_manifest.json").read_text())
        recorded = {**run["config"].pop("model"), **run["config"].pop("train"), **run["config"]}
        recorded["epochs"] = recorded.pop("max_epochs")
        assert recorded == config and run["seed"] == 5
        assert json.loads((out_dir / "vocab.json").read_text())["position_radius"] == 6


def _readme_rows(first: str) -> list[list[str]]:
    """The cells of each README table row whose first cell matches `first`."""
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    return [[cell.strip() for cell in line.split("|")[1:-1]] for line in lines
            if re.match(rf"\| `({first})` \|", line)]


class TestTrainReadme:
    def test_option_table_lists_each_option_once_with_its_default(self):
        rows = _readme_rows("--[a-z0-9-]+")
        flags = ["--" + key.replace("_", "-") for key in _TRAIN_OPTIONS]
        assert sorted(row[0].strip("`") for row in rows) == sorted(flags)
        defaults = {key: default for key, (_, default) in _TRAIN_OPTIONS.items()}
        defaults.update({_option_name(f.name): f.default
                         for cls in (ModelConfig, TrainConfig) for f in fields(cls)})
        varied = {key for _, changed in VARIANTS.values() for key in changed}
        for flag, default, _ in rows:
            key = flag.strip("`-").replace("-", "_")
            expected = ("per variant" if key in varied else "none" if defaults[key] is None
                        else f"`{defaults[key]}`" if key == "variant" else str(defaults[key]))
            assert default == expected, flag

    def test_variant_table_is_the_model_table(self):
        rows = _readme_rows("|".join(map(re.escape, VARIANTS)))
        assert [row[0].strip("`") for row in rows] == list(VARIANTS)
        for name, poolings, width, hidden, keep_prob, l2 in rows:
            cfg = default_config(name.strip("`"))
            assert poolings == ", ".join(cfg.poolings)
            assert width == f"{cfg.pooled_width // cfg.hidden}N"
            assert [hidden, keep_prob, l2] == [str(cfg.hidden), str(cfg.keep_prob), str(cfg.l2)]


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

    def test_evaluate_against_other_predictions(self, tmp_path, synthetic_file,
                                                capsys):
        ckpt = run_train(tmp_path, synthetic_file)
        preds = tmp_path / "preds.jsonl"
        main(["predict", "--checkpoint", str(ckpt), "--instances",
              str(synthetic_file), "--out", str(preds)])
        plain, against = tmp_path / "plain.json", tmp_path / "against.json"
        args = ["evaluate", "--predictions", str(preds), "--gold", str(synthetic_file)]
        assert main([*args, "--out", str(plain)]) == 0
        # identical predictions are a valid input: the test is undefined
        assert main([*args, "--against", str(preds), "--out", str(against)]) == 0
        report = json.loads(against.read_text())
        assert report.pop("mcnemar") == {"b": 0, "c": 0, "statistic": None,
                                         "significance": None}
        assert report == json.loads(plain.read_text())

        # every prediction flipped to the other side of right and wrong
        gold = {i.pair_id: i.label for i in read_instances(synthetic_file)}
        rows = [json.loads(line) for line in preds.read_text().splitlines()]
        for row in rows:
            right = row["label"] == label_name(gold[row["pair_id"]])
            row["label"] = label_name((gold[row["pair_id"]] + right) % 5)
        other = tmp_path / "other.jsonl"
        other.write_text("".join(json.dumps(r) + "\n" for r in rows))
        capsys.readouterr()
        assert main([*args, "--against", str(other), "--out", str(against)]) == 0
        test = json.loads(against.read_text())["mcnemar"]
        assert test["b"] + test["c"] == 30 and test["statistic"] is not None
        assert "McNemar against" in capsys.readouterr().out

        # the other file is aligned to the gold pairs like --predictions
        other.write_text("".join(json.dumps(r) + "\n" for r in rows[::-1]))
        assert main([*args, "--against", str(other), "--out", str(against)]) == 1
        assert "does not match gold pair" in assert_one_error_line(capsys)

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

    def test_non_finite_word_vector_fails_cleanly(self, tmp_path, synthetic_file,
                                                  capsys):
        vectors = tmp_path / "vectors.txt"
        width = default_config("b-lstm").word_dim
        vectors.write_text("the nan " + " ".join(["0.5"] * (width - 1)) + "\n")
        code = main(["train", "--instances", str(synthetic_file),
                     "--out-dir", str(tmp_path / "ckpt"), "--hidden", "4",
                     "--epochs", "1", "--word-vectors", str(vectors)])
        assert code == 1
        assert f"{vectors}:1: non-finite float" in assert_one_error_line(capsys)
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_empty_word_vectors_path_is_refused(self, tmp_path, synthetic_file, capsys,
                                                via):
        """"" names no file: only an unset path means no word vectors."""
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"word_vectors": ""}))
        out_dir = tmp_path / "ckpt"
        code = main(["train", "--instances", str(synthetic_file), "--out-dir", str(out_dir),
                     "--hidden", "4", "--epochs", "1",
                     *(["--word-vectors", ""] if via == "flag" else ["--config", str(cfg)])])
        assert code == 1
        assert_one_error_line(capsys)
        assert not out_dir.exists()

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

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("key,value", [
        ("lr", -1.0), ("lr", 0.0), ("lr", float("nan")),
        ("l2", -1.0), ("l2", float("inf"))])
    def test_meaningless_lr_or_l2_rejected(self, tmp_path, synthetic_file, capsys,
                                           via, key, value):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({key: value}))  # NaN and Infinity as Python writes them
        given = (["--" + key, str(value)] if via == "flag"
                 else ["--config", str(cfg)])
        code = main(["train", "--instances", str(synthetic_file),
                     "--out-dir", str(tmp_path / "x"), "--hidden", "4",
                     "--epochs", "1", *given])
        assert code == 1
        assert f"{key} must be a finite number" in assert_one_error_line(capsys)

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("key,value", [("seed", -1), ("min_count", 0),
                                           ("min_count", -5)])
    def test_negative_seed_or_min_count_rejected(self, tmp_path, synthetic_file,
                                                 capsys, via, key, value):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({key: value}))
        given = (["--" + key.replace("_", "-"), str(value)] if via == "flag"
                 else ["--config", str(cfg)])
        code = main(["train", "--instances", str(synthetic_file),
                     "--out-dir", str(tmp_path / "x"), "--hidden", "4",
                     "--epochs", "1", *given])
        assert code == 1
        assert f"{key} must be >= " in assert_one_error_line(capsys)

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_radius_past_an_index_rejected(self, tmp_path, synthetic_file, capsys, via):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"radius": 10**19}))
        given = ["--radius", str(10**19)] if via == "flag" else ["--config", str(cfg)]
        out_dir = tmp_path / "x"
        code = main(["train", "--instances", str(synthetic_file),
                     "--out-dir", str(out_dir), "--hidden", "4", "--epochs", "1", *given])
        assert code == 1
        assert f"radius must be in [1, {sys.maxsize // 2}], got {10**19}" in \
            assert_one_error_line(capsys)
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag", ["--hidden", "--word-dim"])
    def test_oversized_model_refused_before_allocation(self, tmp_path, synthetic_file,
                                                       capsys, flag):
        # refused by the parameter count, before any table is drawn and
        # before the vectors file is read (its one-float row would fail)
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("w 0.5\n")
        out_dir = tmp_path / "x"
        code = main(["train", "--instances", str(synthetic_file), "--out-dir", str(out_dir),
                     flag, "100000000", "--word-vectors", str(vectors)])
        assert code == 1
        err = assert_one_error_line(capsys)
        count = re.search(rf"model has (\d+) parameters, above the bound {MAX_PARAMS}$",
                          err.strip())
        assert count and int(count.group(1)) > MAX_PARAMS, err
        assert not out_dir.exists()

    def test_malformed_config_json_names_the_file(self, tmp_path, synthetic_file,
                                                  capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text("{bad")
        code = main(["train", "--instances", str(synthetic_file),
                     "--out-dir", str(tmp_path / "x"), "--config", str(cfg)])
        assert code == 1
        assert f"{cfg}: malformed JSON" in assert_one_error_line(capsys)

    def test_out_dir_refused_before_training(self, tmp_path, synthetic_file, capsys,
                                             monkeypatch):
        trained = []
        monkeypatch.setattr("ddilstm.cli.training.train", trained.append)
        out_dir = tmp_path / "taken"
        out_dir.write_text("")
        code = main(["train", "--instances", str(synthetic_file),
                     "--out-dir", str(out_dir), "--hidden", "4", "--epochs", "1"])
        assert code == 1
        assert str(out_dir) in assert_one_error_line(capsys)
        assert trained == []

    def test_checkpoint_files_take_the_umask(self, tmp_path, synthetic_file):
        old = os.umask(0o022)
        try:
            ckpt = run_train(tmp_path, synthetic_file)
        finally:
            os.umask(old)
        modes = {path.name: path.stat().st_mode & 0o777 for path in ckpt.iterdir()}
        assert modes == dict.fromkeys(["manifest", "params.bin", "vocab.json",
                                       "run_manifest.json", "train_log.jsonl"], 0o644)

    def test_evaluate_refuses_the_report_of_another_file(self, tmp_path, synthetic_file,
                                                         capsys):
        fixture = os.path.join(os.path.dirname(__file__), "fixtures",
                               "filter_fixture.xml")
        raw, kept = tmp_path / "raw.jsonl", tmp_path / "kept.jsonl"
        report = tmp_path / "report.json"
        assert main(["preprocess", "--corpus", fixture, "--out", str(raw)]) == 0
        assert main(["filter", "--instances", str(raw), "--out", str(kept),
                     "--report", str(report), "--mode", "test"]) == 0
        for gold, code in ((kept, 0), (synthetic_file, 1)):
            preds = tmp_path / "preds.jsonl"
            _write_predictions(preds, gold)
            capsys.readouterr()
            assert main(["evaluate", "--predictions", str(preds), "--gold", str(gold),
                         "--filter-report", str(report),
                         "--out", str(tmp_path / "eval.json")]) == code
        assert assert_one_error_line(capsys) == (
            f"error: {report}: reports 12 kept instances, but the gold file holds 30\n")


def _drop(blob, key):
    del blob[key]


def _swap(words, i, j):
    words[i], words[j] = words[j], words[i]


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
    # the layout with a reserved padding id: <pad> = 0 before <unk>
    "padded-layout": _edit_json("vocab.json",
                                lambda v: v["words"].insert(0, "<pad>")),
    # refused by its parameter count before any parameter is allocated
    "oversized-hidden": _edit_json("manifest",
                                   lambda m: m["config"].update(hidden=10**8)),
    "word-as-int": _edit_json("vocab.json", lambda v: v["words"].__setitem__(3, 5)),
    "shape-as-float": _edit_json("manifest", lambda m: m["params"][0].update(
        shape=[float(n) for n in m["params"][0]["shape"]])),
    # past what len() of the position vocabulary can count
    "huge-radius": _edit_json("vocab.json", lambda v: v.update(position_radius=10**30)),
    # a well-formed vocabulary, but not the one the manifest vouches for
    "swapped-words": _edit_json("vocab.json", lambda v: _swap(v["words"], 3, 7)),
    "no-vocab-digest": _edit_json("manifest", lambda m: _drop(m, "vocab_sha256")),
    # a legal config, but not the one the manifest vouches for
    "edited-config": _edit_json("manifest", lambda m: m["config"].update(keep_prob=0.5, l2=0.9)),
    "no-config-digest": _edit_json("manifest", lambda m: _drop(m, "config_sha256")),
}


def _flip_a_manifest_byte(ckpt):
    blob = bytearray((ckpt / "manifest").read_bytes())
    blob[len(blob) // 2] = 0xFF
    (ckpt / "manifest").write_bytes(bytes(blob))


# edits whose error line must name the file, and the key where one is at fault
NAMED_EDITS = {
    "keep-prob-as-string": ("manifest", "keep_prob", _edit_json(
        "manifest", lambda m: m["config"].update(keep_prob="0.7"))),
    "hidden-as-bool": ("manifest", "hidden", _edit_json(
        "manifest", lambda m: m["config"].update(hidden=True))),
    "words-as-object": ("vocab.json", "words", _edit_json(
        "vocab.json", lambda v: v.update(words={w: i for i, w in enumerate(v["words"])}))),
    "manifest-not-utf8": ("manifest", None, _flip_a_manifest_byte),
    "huge-radius": ("vocab.json", "position_radius", CHECKPOINT_EDITS["huge-radius"]),
    "swapped-words": ("vocab.json", None, CHECKPOINT_EDITS["swapped-words"]),
    "edited-config": ("manifest", "config", CHECKPOINT_EDITS["edited-config"]),
}


def _small_checkpoint(ckpt, synthetic_file):
    instances = read_instances(synthetic_file)
    vocab = build_vocab([i.tokens for i in instances])
    pv = PositionVocab(8)
    cfg = ModelConfig(hidden=4, word_dim=6, pos_dim=2)
    save_checkpoint(ckpt, build_model(cfg, len(vocab), len(pv)), cfg, vocab, pv)


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

    @pytest.mark.parametrize("edit", sorted(CHECKPOINT_EDITS))
    def test_error_names_its_file_and_the_directory_once(self, tmp_path, synthetic_file,
                                                         capsys, edit):
        ckpt = tmp_path / "ckpt"
        _small_checkpoint(ckpt, synthetic_file)
        CHECKPOINT_EDITS[edit](ckpt)
        code = main(["predict", "--checkpoint", str(ckpt),
                     "--instances", str(synthetic_file),
                     "--out", str(tmp_path / "preds.jsonl")])
        assert code == 1
        err = assert_one_error_line(capsys)
        assert err.count(str(ckpt)) == 1, err
        assert re.search(rf"{re.escape(str(ckpt))}/(manifest|vocab\.json|params\.bin): ",
                         err), err

    def test_checkpoint_without_a_vocabulary_digest_must_be_retrained(
            self, tmp_path, synthetic_file, capsys):
        ckpt = tmp_path / "ckpt"
        _small_checkpoint(ckpt, synthetic_file)
        CHECKPOINT_EDITS["no-vocab-digest"](ckpt)
        assert main(["predict", "--checkpoint", str(ckpt), "--instances", str(synthetic_file),
                     "--out", str(tmp_path / "preds.jsonl")]) == 1
        assert assert_one_error_line(capsys) == (
            f"error: {ckpt / 'manifest'}: vocab_sha256: missing; a checkpoint saved "
            "without it must be retrained\n")

    def test_checkpoint_without_a_config_digest_must_be_retrained(
            self, tmp_path, synthetic_file, capsys):
        ckpt = tmp_path / "ckpt"
        _small_checkpoint(ckpt, synthetic_file)
        CHECKPOINT_EDITS["no-config-digest"](ckpt)
        assert main(["predict", "--checkpoint", str(ckpt), "--instances", str(synthetic_file),
                     "--out", str(tmp_path / "preds.jsonl")]) == 1
        assert assert_one_error_line(capsys) == (
            f"error: {ckpt / 'manifest'}: config_sha256: missing; a checkpoint saved "
            "without it must be retrained\n")

    def test_trained_checkpoint_with_an_edited_config_is_refused(self, tmp_path):
        """An ab-lstm checkpoint trained on the fixture predicts; with its
        manifest's keep_prob and l2 edited, which do not change inference,
        predict --attention is refused in one line naming the manifest and
        writes nothing."""
        code, err, ckpt = _train_on_fixture(tmp_path, "--variant", "ab-lstm", "--epochs", "1")
        assert code == 0 and err == ""
        out, att, err = tmp_path / "preds.jsonl", tmp_path / "att.jsonl", io.StringIO()
        argv = ["predict", "--checkpoint", str(ckpt), "--instances", str(tmp_path / "kept.jsonl"),
                "--out", str(out), "--attention", str(att)]
        assert main(argv) == 0
        out.unlink()
        att.unlink()
        CHECKPOINT_EDITS["edited-config"](ckpt)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(argv) == 1
        assert err.getvalue() == (f"error: {ckpt / 'manifest'}: config: does not match the "
                                  "manifest's config_sha256\n")
        assert not out.exists() and not att.exists()

    @pytest.mark.parametrize("edit", sorted(NAMED_EDITS))
    def test_error_names_the_file_and_the_key(self, tmp_path, synthetic_file, capsys,
                                              edit):
        fname, key, change = NAMED_EDITS[edit]
        ckpt = tmp_path / "ckpt"
        _small_checkpoint(ckpt, synthetic_file)
        change(ckpt)
        code = main(["predict", "--checkpoint", str(ckpt),
                     "--instances", str(synthetic_file),
                     "--out", str(tmp_path / "preds.jsonl")])
        assert code == 1
        err = assert_one_error_line(capsys)
        assert f"{ckpt / fname}: " in err
        assert key is None or re.search(rf"\b{key}: ", err), err


def _rewrite_first_line(path, change):
    lines = path.read_text().splitlines()
    record = json.loads(lines[0])
    lines[0] = json.dumps(change(record))
    path.write_text("\n".join(lines) + "\n")


def _write_predictions(path, gold_path):
    path.write_text("".join(
        json.dumps({"pair_id": i.pair_id, "label": "negative"}) + "\n"
        for i in read_instances(gold_path)))


@functools.cache
def _checkpoint_and_instances() -> tuple[dict, bytes]:
    """The files of a small ab-lstm checkpoint, by name, and the bytes of
    the instance file it was built for."""
    instances = make_synthetic_instances(30, seed=1)
    vocab, pv = build_vocab([i.tokens for i in instances]), PositionVocab(8)
    cfg = ModelConfig(variant="ab-lstm", hidden=4, word_dim=6, pos_dim=2)
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(tmp, build_model(cfg, len(vocab), len(pv)), cfg, vocab, pv)
        write_instances(Path(tmp, "instances.jsonl"), instances)
        files = {path.name: path.read_bytes() for path in Path(tmp).iterdir()}
    return files, files.pop("instances.jsonl")


def _predict_with(files: dict, instance_bytes: bytes) -> tuple[int, str, bool]:
    """predict --attention from a checkpoint of `files`: the exit code,
    stderr, and whether either output exists."""
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp, "ckpt")
        ckpt.mkdir()
        for name, data in files.items():
            (ckpt / name).write_bytes(data)
        src, out, att = (Path(tmp, name) for name in ("raw.jsonl", "preds.jsonl", "att.jsonl"))
        src.write_bytes(instance_bytes)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["predict", "--checkpoint", str(ckpt), "--instances", str(src),
                         "--out", str(out), "--attention", str(att)])
        return code, err.getvalue(), out.exists() or att.exists()


def _assert_refused(code, err, written, naming=""):
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert naming in err, err
    assert not written


# another legal value for each config field of a checkpoint, and for its
# position radius
_LEGAL_EDITS = {
    "variant": st.sampled_from(list(VARIANTS)),
    "hidden": st.integers(1, 64),
    "word_dim": st.integers(1, 64),
    "pos_dim": st.integers(1, 64),
    "keep_prob": st.floats(0, 1, exclude_min=True),
    "l2": st.floats(0, 10),
    "position_radius": st.integers(1, 10**6),
}


class TestCheckpointFuzz:
    @given(st.sampled_from(["manifest", "vocab.json", "params.bin"]), BYTE_EDITS)
    @settings(max_examples=300, deadline=None)
    def test_damaged_checkpoint(self, fname, edit):
        """predict with one checkpoint file damaged succeeds only if all
        three files are intact, the manifest up to JSON whitespace, or is
        refused with one `error:` line and no output; nothing raises."""
        files, instance_bytes = _checkpoint_and_instances()
        damaged = {**files, fname: _edited(files[fname], [edit])}
        code, err, written = _predict_with(damaged, instance_bytes)
        if code == 0:
            assert json.loads(damaged["manifest"]) == json.loads(files["manifest"])
            assert {**damaged, "manifest": files["manifest"]} == files
        else:
            _assert_refused(code, err, written)

    @given(st.integers(0, 99), st.integers(0, 99), st.none() | st.text(min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_edited_vocabulary(self, i, j, renamed):
        """A well-formed vocabulary.json that is not the checkpoint's, with
        words i and j swapped or word i renamed, is refused in one line
        naming vocab.json; only an edit that changes nothing predicts."""
        files, instance_bytes = _checkpoint_and_instances()
        vocab = json.loads(files["vocab.json"])
        words = vocab["words"]
        i, j = i % len(words), j % len(words)
        if renamed is None:
            _swap(words, i, j)
        else:
            words[i] = renamed
        edited = {**files, "vocab.json": json.dumps(vocab).encode("utf-8")}
        code, err, written = _predict_with(edited, instance_bytes)
        if code == 0:
            assert edited == files
        else:
            _assert_refused(code, err, written, naming="vocab.json: ")

    @given(st.sampled_from(sorted(_LEGAL_EDITS)).flatmap(
        lambda key: st.tuples(st.just(key), _LEGAL_EDITS[key])))
    @settings(max_examples=100, deadline=None)
    def test_legal_edit(self, edit):
        """A config field or the position radius set to another legal value
        is refused in one line naming its file."""
        key, value = edit
        assert set(_LEGAL_EDITS) == {f.name for f in fields(ModelConfig)} | {"position_radius"}
        files, instance_bytes = _checkpoint_and_instances()
        fname = "vocab.json" if key == "position_radius" else "manifest"
        doc = json.loads(files[fname])
        held = doc if key == "position_radius" else doc["config"]
        assume(held[key] != value)
        held[key] = value
        edited = {**files, fname: json.dumps(doc, indent=1).encode("utf-8")}
        _assert_refused(*_predict_with(edited, instance_bytes), naming=f"/{fname}: ")


class TestNonFiniteCheckpoint:
    def test_predict_refuses_it_naming_the_blob(self, tmp_path):
        """The intact checkpoint predicts. With the `<unk>` row's first float
        (the blob's first) set to inf, and the manifest's sha256 to match,
        it is refused in one line naming params.bin, and nothing is written."""
        files, instance_bytes = _checkpoint_and_instances()
        ckpt, src = tmp_path / "ckpt", tmp_path / "raw.jsonl"
        ckpt.mkdir()
        for name, data in files.items():
            (ckpt / name).write_bytes(data)
        src.write_bytes(instance_bytes)

        def predict(out, att):
            return main(["predict", "--checkpoint", str(ckpt), "--instances", str(src),
                         "--out", str(out), "--attention", str(att)])

        assert predict(tmp_path / "intact.jsonl", tmp_path / "intact-att.jsonl") == 0
        blob = np.frombuffer(files["params.bin"], "<f4").copy()
        blob[0] = np.inf
        (ckpt / "params.bin").write_bytes(blob.tobytes())
        _edit_json("manifest", lambda m: m.update(
            params_sha256=hashlib.sha256(blob.tobytes()).hexdigest()))(ckpt)
        out, att, err = tmp_path / "preds.jsonl", tmp_path / "att.jsonl", io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = predict(out, att)
        assert code == 1
        assert err.getvalue() == f"error: {ckpt / 'params.bin'}: holds non-finite floats\n"
        assert not out.exists() and not att.exists()


class TestRecordBoundary:
    """A malformed record in any input file is one `error:` line."""

    # the indices of "tokens-as-string" and "index-as-float" stay valid
    # for the sentence, so only a type check can refuse them
    @pytest.mark.parametrize("change", [
        {"label": 3}, {"drug_a": "0"},
        {"tokens": "abcdef", "drug_a": 0, "drug_b": 2},
        {"drug_a": 0, "drug_b": 2.0}, {"drug_b": 99},
        {"tokens": ["DRUG-A", 7, "DRUG-B"], "drug_a": 0, "drug_b": 2},
        {"x\ny\u2028z": 1}],
        ids=["label-as-int", "index-as-string", "tokens-as-string",
             "index-as-float", "index-past-sentence", "token-as-int",
             "unknown-key-with-line-breaks"])
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
        lambda rec: {**rec, "label": 3}, lambda rec: {"label": rec["label"]},
        lambda rec: {**rec, "pair_id": 5}],
        ids=["no-label", "list", "label-as-int", "no-pair-id", "pair-id-as-int"])
    def test_bad_prediction(self, tmp_path, synthetic_file, capsys, command,
                            change):
        preds = tmp_path / "preds.jsonl"
        _write_predictions(preds, synthetic_file)
        _rewrite_first_line(preds, change)
        code = main([command, "--predictions", str(preds), "--gold",
                     str(synthetic_file), "--out", str(tmp_path / "out.json")])
        assert code == 1
        assert f"{preds}:1: bad prediction" in assert_one_error_line(capsys)

    @pytest.mark.parametrize("option", ["--predictions", "--filter-report", "--gold"])
    def test_deeply_nested_json(self, tmp_path, synthetic_file, capsys, option):
        # deeper than the interpreter's recursion limit
        preds = tmp_path / "preds.jsonl"
        _write_predictions(preds, synthetic_file)
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 100_000 + "\n")
        given = {"--predictions": preds, "--gold": synthetic_file, option: nested}
        code = main(["evaluate", *(str(arg) for pair in given.items() for arg in pair),
                     "--out", str(tmp_path / "out.json")])
        assert code == 1
        assert f"{nested}" in assert_one_error_line(capsys)

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

    def test_malformed_filter_report_json(self, tmp_path, synthetic_file, capsys):
        preds = tmp_path / "preds.jsonl"
        _write_predictions(preds, synthetic_file)
        report_path = tmp_path / "report.json"
        report_path.write_text("{bad")
        code = main(["evaluate", "--predictions", str(preds), "--gold",
                     str(synthetic_file), "--filter-report", str(report_path),
                     "--out", str(tmp_path / "out.json")])
        assert code == 1
        assert f"{report_path}: malformed JSON" in assert_one_error_line(capsys)

    @pytest.mark.parametrize("command,option", [
        ("filter", "--instances"), ("train", "--config"),
        ("train", "--word-vectors"), ("evaluate", "--predictions"),
        ("evaluate", "--filter-report"), ("analyze", "--gold")])
    def test_non_utf8_file_is_named(self, tmp_path, synthetic_file, capsys,
                                    command, option):
        preds = tmp_path / "preds.jsonl"
        _write_predictions(preds, synthetic_file)
        out = tmp_path / "out"
        scored = {"--predictions": preds, "--gold": synthetic_file, "--out": out}
        given = {
            "filter": {"--instances": synthetic_file, "--out": out,
                       "--report": tmp_path / "report.json"},
            "train": {"--instances": synthetic_file, "--out-dir": out},
            "evaluate": scored,
            "analyze": scored,
        }[command]
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"\xff\n")
        given[option] = bad
        code = main([command, *(str(arg) for pair in given.items() for arg in pair)])
        assert code == 1
        assert str(bad) in assert_one_error_line(capsys)


@functools.cache
def _scoring_inputs() -> tuple[bytes, tuple, dict, tuple]:
    """The fixture's test-mode filter run: the kept instances as a gold
    file's bytes, a prediction line for each (its gold label on odd lines,
    negative on even ones), the report `build_report` makes, and the pair
    id of every instance, kept or removed."""
    instances = generate_instances(parse_corpus(FIXTURE))
    decisions = apply_filters(instances)
    kept = [inst for inst, hit in zip(instances, decisions) if hit is None]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "gold.jsonl")
        write_instances(path, kept)
        gold = path.read_bytes()
    lines = tuple(json.dumps({"pair_id": inst.pair_id,
                              "label": label_name(inst.label) if k % 2 else "negative"})
                  for k, inst in enumerate(kept))
    return (gold, lines, build_report("test", instances, decisions),
            tuple(inst.pair_id for inst in instances))


# edits of a predictions file's lines, each position taken modulo the
# line count: two lines swapped, one dropped or repeated, one naming the
# pair of any fixture instance, or one with another label spelling
_LABEL_SPELLINGS = st.sampled_from(["advice", "Advise", " mechanism ", "INT", "negative",
                                    "effect\n", "", "bogus", "advice advice"])
PREDICTION_EDITS = st.one_of(
    st.tuples(st.sampled_from(["swap", "drop", "repeat", "pair"]), _AT, _AT),
    st.tuples(st.just("label"), _AT, _LABEL_SPELLINGS))

# edits of a filter report: a top-level key set to another JSON value (often
# n_kept to a count near the gold file's) or deleted, or one entry of
# `removed` relabelled, unlabelled, dropped or repeated
_REPORT_KEYS = st.sampled_from(["mode", "n_input", "n_kept", "n_removed", "by_label",
                                "removed"])
_JSON_VALUES = st.sampled_from([None, True, 0, 12, 13, -1, 12.0, "12", [], {}, [{}],
                                [{"label": "negative"}], ["negative"]])
REPORT_EDITS = st.one_of(
    st.tuples(st.just("set"), _REPORT_KEYS, _JSON_VALUES),
    st.tuples(st.just("set"), st.just("n_kept"), st.integers(10, 14)),
    st.tuples(st.just("del"), _REPORT_KEYS, st.none()),
    st.tuples(st.just("label"), _AT, _LABEL_SPELLINGS),
    st.tuples(st.sampled_from(["unlabel", "drop", "repeat"]), _AT, st.none()))


def _edited_predictions(lines, edits, pair_ids) -> list[str]:
    lines = list(lines)
    for kind, i, arg in edits:
        if not lines:
            break
        i %= len(lines)
        if kind == "swap":
            j = arg % len(lines)
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "drop":
            del lines[i]
        elif kind == "repeat":
            lines.insert(i, lines[i])
        else:
            rec = json.loads(lines[i])
            if kind == "pair":
                rec["pair_id"] = pair_ids[arg % len(pair_ids)]
            else:
                rec["label"] = arg
            lines[i] = json.dumps(rec)
    return lines


def _edited_report(report: dict, edits) -> dict:
    report = json.loads(json.dumps(report))
    for kind, at, arg in edits:
        if kind == "set":
            report[at] = arg
        elif kind == "del":
            report.pop(at, None)
        elif type(report.get("removed")) is list and report["removed"]:
            removed = report["removed"]
            k = at % len(removed)
            if kind == "drop":
                del removed[k]
            elif kind == "repeat":
                removed.insert(k, removed[k])
            elif type(removed[k]) is dict and kind == "unlabel":
                removed[k].pop("label", None)
            elif type(removed[k]) is dict:
                removed[k]["label"] = arg
    return report


def _score(command: str, files: dict) -> tuple[int, str, object, list]:
    """`command` on input files given as option -> bytes, in a new
    directory: the exit code, stderr, the output read back (None when
    absent), and the names of the files the run added."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command]
        for option, data in files.items():
            Path(tmp, option[2:]).write_bytes(data)
            argv += [option, str(Path(tmp, option[2:]))]
        out, err = Path(tmp, "out.json"), io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, "--out", str(out)])
        result = json.loads(out.read_text()) if out.exists() else None
        added = sorted(set(os.listdir(tmp)) - {option[2:] for option in files})
        return code, err.getvalue(), result, added


def _assert_read_back_or_refused(code, err, result, added):
    """Exit 0 quietly with the output and its manifest, or exit 1 with one
    `error:` line and no file added."""
    if code == 0:
        assert err == "" and result is not None
        assert added == ["out.json", "out.json.manifest.json"]
    else:
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert added == []


class TestScoringFuzz:
    """evaluate and analyze on damaged predictions and filter reports."""

    @given(st.sampled_from(["evaluate", "analyze"]), st.lists(PREDICTION_EDITS, max_size=3),
           st.lists(BYTE_EDITS, max_size=2))
    @settings(max_examples=200, deadline=None)
    def test_damaged_predictions(self, command, edits, byte_edits):
        gold, lines, report, pair_ids = _scoring_inputs()
        edited = _edited_predictions(lines, edits, pair_ids)
        preds = _edited("".join(line + "\n" for line in edited).encode(), byte_edits)
        files = {"--predictions": preds, "--gold": gold}
        if command == "evaluate":
            files["--filter-report"] = json.dumps(report).encode()
        code, err, result, added = _score(command, files)
        _assert_read_back_or_refused(code, err, result, added)
        if code == 0:  # the gold pairs, in order, as read with universal newlines
            text = preds.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
            assert [json.loads(line)["pair_id"] for line in text.split("\n")
                    if line and not line.isspace()] == [json.loads(line)["pair_id"]
                                                        for line in lines]
        if code == 0 and command == "evaluate":
            assert result["n_scored"] == 12 and result["n_filtered"] == 10
            assert sum(map(sum, result["confusion"])) == 22
        elif code == 0:
            assert sum(result[group]["n"] for group in ("correct", "incorrect")
                       if group in result) == 12

    @given(st.lists(REPORT_EDITS, max_size=3), st.lists(BYTE_EDITS, max_size=2))
    @settings(max_examples=200, deadline=None)
    def test_damaged_filter_report(self, edits, byte_edits):
        gold, lines, report, _ = _scoring_inputs()
        data = _edited(json.dumps(_edited_report(report, edits), indent=1).encode(),
                       byte_edits)
        code, err, result, added = _score("evaluate", {
            "--predictions": "".join(line + "\n" for line in lines).encode(),
            "--gold": gold, "--filter-report": data})
        _assert_read_back_or_refused(code, err, result, added)
        if code == 0:
            damaged = json.loads(data.decode("utf-8"))
            removed = damaged["removed"]
            assert damaged["n_kept"] == 12
            assert result["n_scored"] == 12 and result["n_filtered"] == len(removed)
            assert result["n_filtered_positive"] == sum(
                label_id(entry["label"]) != label_id("negative") for entry in removed)
            assert sum(map(sum, result["confusion"])) == 12 + len(removed)


@functools.cache
def _fixture_training_instances() -> list:
    """The fixture's 12 instances after `filter` in train mode."""
    return kept_instances(generate_instances(parse_corpus(FIXTURE)))


@functools.cache
def _fixture_training_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "kept.jsonl")
        write_instances(path, _fixture_training_instances())
        return path.read_bytes()


def _train_on_fixture(tmp, *flags) -> tuple[int, str, Path]:
    """train at tiny sizes on the filtered fixture: exit code, stderr and
    --out-dir."""
    src, out, err = Path(tmp, "kept.jsonl"), Path(tmp, "ckpt"), io.StringIO()
    src.write_bytes(_fixture_training_bytes())
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["train", "--instances", str(src), "--out-dir", str(out), "--hidden", "4",
                     "--word-dim", "5", "--pos-dim", "2", *flags])
    return code, err.getvalue(), out


def _assert_finite_checkpoint_or_one_line(code, err, out, start):
    """Exit 0 quietly with every stored float finite, or exit 1 with one
    line that starts `start` and no --out-dir."""
    if code == 0:
        assert err == ""
        assert np.isfinite(np.frombuffer((out / "params.bin").read_bytes(), "<f4")).all()
    else:
        assert code == 1
        assert err.startswith(start) and err.count("\n") == 1, err
        assert not out.exists()


class TestDivergence:
    @pytest.mark.parametrize("flags,start", [
        (("--epochs", "5", "--batch-size", "2", "--lr", "1e30", "--val-fraction", "0"),
         "error: epoch 0, batch at 2: non-finite values in bilstm_forward\n"),
        (("--epochs", "1", "--batch-size", "50", "--lr", "1e300", "--val-fraction", "0"),
         "error: epoch 0, batch at 0: non-finite values in parameter embed.word\n"),
        (("--epochs", "3", "--batch-size", "50", "--lr", "1e36", "--val-fraction", "0.3"),
         "error: epoch 0, held-out: non-finite values in bilstm_forward\n"),
    ])
    def test_diverging_run_says_where_and_writes_nothing(self, tmp_path, flags, start):
        code, err, out = _train_on_fixture(tmp_path, *flags)
        assert code == 1 and err == start
        assert not out.exists()

    @pytest.mark.parametrize("out_dir", ["ckpt", "ckpt/nested/deeper"])
    def test_failed_run_keeps_a_directory_it_did_not_make(self, tmp_path, out_dir):
        """A diverging run removes the directories it made for --out-dir, and
        leaves one that was there before as it was."""
        (tmp_path / "ckpt").mkdir()
        (tmp_path / "ckpt" / "notes.txt").write_text("kept\n")
        src, err = tmp_path / "kept.jsonl", io.StringIO()
        src.write_bytes(_fixture_training_bytes())
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["train", "--instances", str(src), "--out-dir", str(tmp_path / out_dir),
                         "--hidden", "4", "--epochs", "1", "--batch-size", "50",
                         "--lr", "1e300", "--val-fraction", "0"])
        assert code == 1 and err.getvalue().startswith("error: epoch 0")
        assert [path.name for path in (tmp_path / "ckpt").rglob("*")] == ["notes.txt"]
        assert (tmp_path / "ckpt" / "notes.txt").read_text() == "kept\n"

    # lr and l2 log-uniform; lr's second range, where float32 first
    # overflows, is drawn as often as the whole
    @given((st.floats(-4, 300) | st.floats(25, 39)).map(lambda e: 10.0 ** e),
           st.floats(0.05, 1), st.just(0.0) | st.floats(-6, 3).map(lambda e: 10.0 ** e),
           st.integers(1, 13), st.integers(1, 3), st.sampled_from(["0", "0.3"]))
    @settings(max_examples=150, deadline=None)
    def test_any_learning_rate(self, lr, keep_prob, l2, batch_size, epochs, val):
        """lr from 1e-4 to 1e300: a run stores finite weights, or ends in
        one line naming its epoch and the op or parameter that went
        non-finite, and stores nothing."""
        with tempfile.TemporaryDirectory() as tmp:
            result = _train_on_fixture(
                tmp, "--lr", repr(lr), "--keep-prob", repr(keep_prob), "--l2", repr(l2),
                "--batch-size", str(batch_size), "--epochs", str(epochs), "--val-fraction", val)
            _assert_finite_checkpoint_or_one_line(*result, "error: epoch ")
        code, err, _ = result
        assert code == 0 or re.search(
            rf": non-finite values in ({'|'.join(op_names())}|parameter [\w.]+)\n$", err), err

    @pytest.mark.parametrize("variant", ["b-lstm", "ab-lstm"])
    def test_predict_with_overflowing_weights_is_one_line(self, tmp_path, variant):
        """lr 1e38 leaves finite weights near float32's largest; scoring with
        them overflows, and predict says so in one line, writing nothing."""
        code, err, ckpt = _train_on_fixture(
            tmp_path, "--variant", variant, "--lr", "1e38", "--epochs", "1",
            "--batch-size", "50", "--val-fraction", "0")
        assert code == 0 and err == ""
        out, att, err = tmp_path / "preds.jsonl", tmp_path / "att.jsonl", io.StringIO()
        attention = ["--attention", str(att)] if variant == "ab-lstm" else []
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["predict", "--checkpoint", str(ckpt), "--instances",
                         str(tmp_path / "kept.jsonl"), "--out", str(out), *attention])
        assert code == 1
        assert err.getvalue() == "error: non-finite values in bilstm_forward\n"
        assert not out.exists() and not att.exists()


# a word-vector file: rows of three floats for vocabulary words or not, then
# edits that make a row ragged, put a bad value in it, or repeat its token
_VECTOR_ROWS = st.lists(st.tuples(
    st.integers(0, 8), st.lists(st.floats(-10, 10).map(repr), min_size=3, max_size=3),
    st.sampled_from([" ", "\t"])), min_size=1, max_size=6)
_BAD_VALUES = st.sampled_from(["nan", "inf", "-inf", "1e39", "-3.5e38", "oops", "1,5",
                               "--"]) | st.floats().map(repr)
_VECTOR_EDITS = st.lists(st.tuples(st.sampled_from(["ragged", "value", "repeat"]),
                                   st.integers(0, 99), _BAD_VALUES), max_size=2)


def _vector_lines(rows, edits) -> list[tuple[str, list[str], str]]:
    """(token, values, separator) per line: the rows' word ids name the first
    8 words of the training vocabulary, `<unk>` among them, or "unseen"."""
    vocab = build_vocab([i.tokens for i in _fixture_training_instances()])
    words = [*vocab.tokens()[:8], "unseen"]
    lines = [(words[w], values, sep) for w, values, sep in rows]
    for kind, at, value in edits:
        token, values, sep = lines[at % len(lines)]
        if kind == "ragged":
            values = values[:-1] if at % 2 else [*values, value]
        elif kind == "value":
            values = [*values[:at % 3], value, *values[at % 3 + 1:]]
        else:
            lines.insert(at % (len(lines) + 1), (token, values[::-1], sep))
            continue
        lines[at % len(lines)] = (token, values, sep)
    return lines


class TestWordVectorFuzz:
    @given(_VECTOR_ROWS, _VECTOR_EDITS)
    @settings(max_examples=150, deadline=None)
    def test_damaged_vector_file(self, rows, edits):
        """A vector file trains, or is refused with one line naming it; one
        that gives a vocabulary word two rows is refused."""
        lines = _vector_lines(rows, edits)
        words = [token for token, _, _ in lines if token != "unseen"]
        with tempfile.TemporaryDirectory() as tmp:
            vectors = Path(tmp, "vectors.txt")
            vectors.write_text("".join(sep.join([token, *values]) + "\n"
                                       for token, values, sep in lines))
            code, err, out = _train_on_fixture(tmp, "--word-dim", "3", "--epochs", "1",
                                               "--word-vectors", str(vectors))
            _assert_finite_checkpoint_or_one_line(code, err, out, f"error: {vectors}:")
            assert code == 1 or len(set(words)) == len(words)


# a train config whose run takes milliseconds; drawn entries replace its values
_TINY_CONFIG = {"hidden": 2, "word_dim": 3, "pos_dim": 2, "radius": 4, "epochs": 1,
                "batch_size": 16}
# values at and past the ranges of each JSON type's options. Sizes past
# MAX_PARAMS are refused by the parameter count (or a radius by PositionVocab);
# every count of epochs is legal, so epochs draws no large value.
_EDGE_VALUES = {
    int: st.sampled_from([-1, 0, 1, 2]),
    float: st.sampled_from([-1.0, -0.0, 0.0, 5e-324, 0.05, 0.5, 1.0, 1.5, 1e300,
                            float("nan"), float("inf"), -float("inf")]),
}
_PAST_MAX_PARAMS = st.sampled_from([2**30, 2**62, 10**19])
_STRING_VALUES = {"variant": st.sampled_from([*VARIANTS, "cnn", ""]),
                  "word_vectors": st.sampled_from(["", "<vectors>", "missing.txt"])}
_WRONG_TYPES = st.sampled_from(["1", True, None, [], {}, 1.5, 2, "b-lstm"])


def _is_json_type(value, kind) -> bool:
    return type(value) is kind or kind is float and type(value) is int


def _option_value(key: str):
    """A value of the option's type at or past its range, or one time in
    four, of another JSON type."""
    kind = _TRAIN_OPTIONS[key][0]
    typed = _STRING_VALUES[key] if kind is str else _EDGE_VALUES[kind]
    if kind is int and key != "epochs":
        typed |= _PAST_MAX_PARAMS
    wrong = _WRONG_TYPES.filter(lambda value: not _is_json_type(value, kind))
    return st.integers(0, 3).flatmap(lambda i: typed if i else wrong)


_KNOWN_ENTRY = st.sampled_from(sorted(_TRAIN_OPTIONS)).flatmap(
    lambda key: st.tuples(st.just(key), _option_value(key)))
_UNKNOWN_ENTRY = st.tuples(st.sampled_from(["max_epochs", "config", "instances", "hidden_units"]),
                           st.integers(1, 2))
# a config file's (key, value) entries, one in eight with a key that is no option
_CONFIG_ENTRIES = st.lists(
    st.integers(0, 7).flatmap(lambda i: _KNOWN_ENTRY if i else _UNKNOWN_ENTRY),
    min_size=1, max_size=2)


class TestConfigFuzz:
    @given(_CONFIG_ENTRIES)
    @settings(max_examples=500, deadline=None)
    def test_drawn_config(self, entries):
        """train --config with drawn keys and values exits 0 with a checkpoint
        that loads, or exits 1 with one `error:` line and no checkpoint."""
        with tempfile.TemporaryDirectory() as tmp:
            vectors, cfg = Path(tmp, "vectors.txt"), Path(tmp, "config.json")
            vectors.write_text("the 0.5 -0.5 0.25\n")
            config = {**_TINY_CONFIG, **{key: str(vectors) if value == "<vectors>" else value
                                         for key, value in entries}}
            cfg.write_text(json.dumps(config))
            src, out, err = Path(tmp, "kept.jsonl"), Path(tmp, "ckpt"), io.StringIO()
            src.write_bytes(_fixture_training_bytes())
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["train", "--instances", str(src), "--out-dir", str(out),
                             "--config", str(cfg)])
            if code == 0:
                assert err.getvalue() == ""
                load_checkpoint(out)
            else:
                assert code == 1
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
                assert not out.exists()
