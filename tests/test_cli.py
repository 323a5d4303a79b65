"""End-to-end pipeline runs through the command-line driver."""

import contextlib
import functools
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_xml, make_synthetic_instances
from ddilstm.cli import _build_parser, main
from ddilstm.corpus import generate_instances, parse_corpus, read_instances, write_instances
from ddilstm.features import PositionVocab, build_vocab
from ddilstm.filtering import apply_filters
from ddilstm.labels import label_id, label_name
from ddilstm.model import (MAX_PARAMS, ModelConfig, build_model, default_config,
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

    @pytest.mark.parametrize("ddi,ptype", [("maybe", None), (True, "bogus")],
                             ids=["ddi-maybe", "unknown-type"])
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
    ], ids=["self-overlap", "duplicate-id"])
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
            "</document>\n")
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
        report = apply_filters(read_instances(src), mode="test")
        kept = {inst.pair_id for inst in report.kept}
        expected = [line.strip() + "\n" for line, inst in zip(lines, read_instances(src))
                    if inst.pair_id in kept]
        assert 0 < len(expected) < len(lines)
        assert any('"label":  " Advise"' in line for line in expected)
        assert out.read_bytes() == "".join(expected).encode("utf-8")
        assert read_instances(out) == report.kept


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
                kept = apply_filters(read_instances(src), mode=mode).kept
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


def _subparsers() -> dict:
    """Each command's parser, by name."""
    [action] = [a for a in _build_parser()._actions if a.dest == "command"]
    return action.choices


class TestManifests:
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
        raw, kept, report = (str(tmp_path / n) for n in ("raw.jsonl", "kept.jsonl", "r.json"))
        ckpt, preds, att = (str(tmp_path / n) for n in ("ckpt", "preds.jsonl", "att.jsonl"))
        ev, stats = str(tmp_path / "eval.json"), str(tmp_path / "stats.json")
        runs = [  # argv, the manifest, its inputs and its outputs
            (["preprocess", "--corpus", FIXTURE, "--out", raw], raw + ".manifest.json",
             {"corpus": FIXTURE}, {"instances": raw}),
            (["filter", "--instances", raw, "--out", kept, "--report", report, "--mode",
              "test"], kept + ".manifest.json",
             {"instances": raw}, {"filtered": kept, "report": report}),
            (["train", "--instances", raw, "--out-dir", ckpt, "--variant", "ab-lstm",
              "--hidden", "4", "--word-dim", "5", "--pos-dim", "2", "--epochs", "1"],
             os.path.join(ckpt, "run_manifest.json"),
             {"instances": raw, "config": None, "word_vectors": None}, {"checkpoint": ckpt}),
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
        parsers = _subparsers()
        assert [argv[0] for argv, *_ in runs] == list(parsers)
        for argv, path, inputs, outputs in runs:
            assert main(argv) == 0, argv[0]
            manifest = json.loads(Path(path).read_text())
            assert manifest["command"] == argv[0]
            assert list(manifest["inputs"]) == list(parsers[argv[0]].get_default("inputs"))
            assert (manifest["inputs"], manifest["outputs"]) == (inputs, outputs), argv[0]


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


class TestCheckpointFuzz:
    @given(st.sampled_from(["manifest", "vocab.json", "params.bin"]), BYTE_EDITS)
    @settings(max_examples=300, deadline=None)
    def test_damaged_checkpoint(self, fname, edit):
        """predict with one checkpoint file damaged succeeds only if the
        blob is intact, or is refused with one `error:` line and no output;
        nothing raises."""
        files, instance_bytes = _checkpoint_and_instances()
        with tempfile.TemporaryDirectory() as tmp:
            ckpt = Path(tmp, "ckpt")
            ckpt.mkdir()
            for name, data in files.items():
                (ckpt / name).write_bytes(_edited(data, [edit]) if name == fname else data)
            src, out, att = (Path(tmp, name) for name in ("raw.jsonl", "preds.jsonl",
                                                           "att.jsonl"))
            src.write_bytes(instance_bytes)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["predict", "--checkpoint", str(ckpt), "--instances", str(src),
                             "--out", str(out), "--attention", str(att)])
            if code == 0:
                assert (ckpt / "params.bin").read_bytes() == files["params.bin"]
            else:
                assert code == 1
                assert err.getvalue().startswith("error: ")
                assert err.getvalue().count("\n") == 1, err.getvalue()
                assert not out.exists() and not att.exists()


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
def _fixture_training_instances() -> list:
    """The fixture's 12 instances after `filter` in train mode."""
    return apply_filters(generate_instances(parse_corpus(FIXTURE))).kept


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
    line that starts `start` and no file in --out-dir."""
    if code == 0:
        assert err == ""
        assert np.isfinite(np.frombuffer((out / "params.bin").read_bytes(), "<f4")).all()
    else:
        assert code == 1
        assert err.startswith(start) and err.count("\n") == 1, err
        assert list(out.iterdir()) == []


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
        assert list(out.iterdir()) == []

    # lr and l2 log-uniform; lr's second range, where float32 first
    # overflows, is drawn as often as the whole
    @given((st.floats(-4, 300) | st.floats(25, 39)).map(lambda e: 10.0 ** e),
           st.floats(0.05, 1), st.just(0.0) | st.floats(-6, 3).map(lambda e: 10.0 ** e),
           st.integers(1, 13), st.integers(1, 3), st.sampled_from(["0", "0.3"]))
    @settings(max_examples=150, deadline=None)
    def test_any_learning_rate(self, lr, keep_prob, l2, batch_size, epochs, val):
        """lr from 1e-4 to 1e300: a run stores finite weights, or ends in
        one line naming its epoch, and stores nothing."""
        with tempfile.TemporaryDirectory() as tmp:
            result = _train_on_fixture(
                tmp, "--lr", repr(lr), "--keep-prob", repr(keep_prob), "--l2", repr(l2),
                "--batch-size", str(batch_size), "--epochs", str(epochs), "--val-fraction", val)
            _assert_finite_checkpoint_or_one_line(*result, "error: epoch ")

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
