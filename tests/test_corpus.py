"""XML parsing, entity blinding, tokenization, instance generation."""

import contextlib
import copy
import io
import json
import os
import tempfile
import xml.etree.ElementTree as ET
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_xml, kept_instances
from ddilstm.cli import main
from ddilstm.corpus import (
    DRUG_A,
    DRUG_B,
    DRUG_N,
    CorpusError,
    RawInstance,
    generate_instances,
    parse_corpus,
    read_instances,
    tokenize_normalize,
    write_instances,
)
from ddilstm.labels import NEGATIVE_ID, label_id, label_name

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "filter_fixture.xml")


def blind_entities(s, pair):
    """Reference blinding: the sentence with the pair as DRUG-A/DRUG-B and
    other mentions as DRUG-N, written out as one string.

    DRUG-A is whichever target appears first in the text. Targets are
    placed first; remaining mentions are placed longest-first and any
    mention overlapping an already-placed span is dropped (it is covered).
    Overlapping *targets* cannot be represented and raise.

    Discontinuous mentions keep the placeholder on their first span and
    have the later spans deleted.
    """
    by_id = {e.id: e for e in s.entities}
    first, second = by_id[pair.e1], by_id[pair.e2]
    if second.start < first.start:
        first, second = second, first

    def segments(entity, placeholder):
        spans = sorted(entity.spans)
        out = [(spans[0][0], spans[0][1], placeholder)]
        out.extend((start, end, "") for start, end in spans[1:])
        return out

    placed = []

    def overlaps(seg):
        return any(seg[0] <= p[1] and p[0] <= seg[1] for p in placed)

    for entity, tag in ((first, DRUG_A), (second, DRUG_B)):
        for seg in segments(entity, tag):
            if overlaps(seg):
                raise CorpusError(f"{s.path}: pair {pair.id}: target mentions overlap "
                                  "and cannot be blinded")
            placed.append(seg)

    others = [e for e in s.entities if e.id not in (pair.e1, pair.e2)]
    for entity in sorted(others, key=lambda e: (-e.length, e.start)):
        segs = segments(entity, DRUG_N)
        if any(overlaps(seg) for seg in segs):
            continue
        placed.extend(segs)

    text = s.text
    for start, end, replacement in sorted(placed, reverse=True):
        text = text[:start] + replacement + text[end + 1:]
    return text


def reference_tokens(s, pair):
    """The tokens of the reference blinding, which must hold each target
    placeholder once."""
    tokens = tokenize_normalize(blind_entities(s, pair))
    if tokens.count(DRUG_A) != 1 or tokens.count(DRUG_B) != 1:
        raise CorpusError(f"{s.path}: pair {pair.id}: target placeholders "
                          "not locatable after tokenization")
    return tokens


def blinded(rec, pair):
    """The reference blinding of `pair`, once generate_instances is seen to
    give its tokens."""
    text = blind_entities(rec, pair)
    [inst] = generate_instances([replace(rec, pairs=[pair])])
    assert inst.tokens == tokenize_normalize(text)
    return text


def write_xml(tmp_path, doc_id, sentences, name="corpus.xml"):
    path = tmp_path / name
    path.write_text(corpus_xml(doc_id, sentences), encoding="utf-8")
    return path


SIMPLE = [(
    "d1.s0",
    "Aspirin affects warfarin levels.",
    [("d1.s0.e0", "Aspirin", 0, "drug"), ("d1.s0.e1", "warfarin", 0, "drug")],
    [("d1.s0.p0", "d1.s0.e0", "d1.s0.e1", False, None)],
)]


class TestParse:
    def test_single_sentence_mapping(self, tmp_path):
        records = parse_corpus(write_xml(tmp_path, "d1", SIMPLE))
        assert len(records) == 1
        rec = records[0]
        assert rec.id == "d1.s0" and rec.doc_id == "d1"
        assert [e.text for e in rec.entities] == ["Aspirin", "warfarin"]
        assert len(rec.pairs) == 1 and rec.pairs[0].label == NEGATIVE_ID

    def test_discontinuous_offsets(self, tmp_path):
        path = tmp_path / "disc.xml"
        path.write_text(
            '<document id="d2">\n'
            '  <sentence id="d2.s0" text="vitamin A and D supplements">\n'
            '    <entity id="d2.s0.e0" charOffset="0-8;14-14" type="drug"'
            ' text="vitamin D"/>\n'
            '    <entity id="d2.s0.e1" charOffset="0-8" type="drug"'
            ' text="vitamin A"/>\n'
            "  </sentence>\n"
            "</document>\n"
        )
        rec = parse_corpus(path)[0]
        assert rec.entities[0].spans == [(0, 8), (14, 14)]

    def test_spans_listed_out_of_order_are_sorted(self, tmp_path):
        path = tmp_path / "disc.xml"
        path.write_text(
            '<document id="d2">\n'
            '  <sentence id="d2.s0" text="vitamin A and D supplements">\n'
            '    <entity id="d2.s0.e0" charOffset="14-14;0-8" type="drug"'
            ' text="vitamin D"/>\n'
            "  </sentence>\n"
            "</document>\n"
        )
        mention = parse_corpus(path)[0].entities[0]
        assert mention.spans == [(0, 8), (14, 14)] and mention.start == 0

    @pytest.mark.parametrize("offsets", ["41-47;43-45", "43-45;41-47", "41-47;47-49"])
    def test_self_overlapping_spans_name_the_entity(self, tmp_path, offsets):
        path = tmp_path / "self.xml"
        path.write_text(
            '<document id="d2">\n'
            '  <sentence id="d2.s0" text="Aspirin affects warfarin, given with ibuprofen today">\n'
            f'    <entity id="d2.s0.e0" charOffset="{offsets}" type="drug" text="x"/>\n'
            "  </sentence>\n"
            "</document>\n"
        )
        with pytest.raises(CorpusError) as info:
            parse_corpus(path)
        assert str(info.value) == (f"{path}: sentence d2.s0: entity d2.s0.e0: "
                                   f"charOffset {offsets!r} overlaps itself")

    def test_dangling_pair_names_the_pair(self, tmp_path):
        bad = [(
            "d1.s0",
            "Aspirin affects warfarin.",
            [("d1.s0.e0", "Aspirin", 0, "drug")],
            [("d1.s0.p9", "d1.s0.e0", "d1.s0.eX", False, None)],
        )]
        with pytest.raises(CorpusError, match="d1.s0.p9"):
            parse_corpus(write_xml(tmp_path, "d1", bad))

    def test_malformed_xml(self, tmp_path):
        path = tmp_path / "bad.xml"
        path.write_text("<document><sentence>")
        with pytest.raises(CorpusError, match="malformed"):
            parse_corpus(path)

    def test_directory_walk_sorted(self, tmp_path):
        write_xml(tmp_path, "db", SIMPLE, name="b.xml")
        write_xml(tmp_path, "da", SIMPLE, name="a.xml")
        records = parse_corpus(tmp_path)
        assert [r.doc_id for r in records] == ["da", "db"]

    def test_offset_outside_text(self, tmp_path):
        path = tmp_path / "bad.xml"
        path.write_text(
            '<document id="d"><sentence id="s" text="short">'
            '<entity id="e" charOffset="0-50" type="drug" text="short"/>'
            "</sentence></document>"
        )
        with pytest.raises(CorpusError, match="outside"):
            parse_corpus(path)


class TestBlinding:
    def test_pair_and_bystander(self, tmp_path):
        sentences = [(
            "d1.s0",
            "Aspirin blocks ibuprofen and warfarin.",
            [("e0", "Aspirin", 0, "drug"), ("e1", "ibuprofen", 0, "drug"),
             ("e2", "warfarin", 0, "drug")],
            [("p0", "e0", "e2", False, None)],
        )]
        rec = parse_corpus(write_xml(tmp_path, "d1", sentences))[0]
        out = blinded(rec, rec.pairs[0])
        assert out == "DRUG-A blocks DRUG-N and DRUG-B."

    def test_textual_order_assigns_drug_a(self, tmp_path):
        sentences = [(
            "d1.s0",
            "Aspirin affects warfarin.",
            [("e0", "Aspirin", 0, "drug"), ("e1", "warfarin", 0, "drug")],
            [("p0", "e1", "e0", False, None)],  # e1 listed first but later in text
        )]
        rec = parse_corpus(write_xml(tmp_path, "d1", sentences))[0]
        assert blinded(rec, rec.pairs[0]) == "DRUG-A affects DRUG-B."

    def test_all_pairs_distinct(self, tmp_path):
        drugs = ["aspirin", "ibuprofen", "naproxen", "ketoprofen"]
        text = "Mixing " + ", ".join(drugs) + " is unwise."
        entities = [(f"e{i}", d, 0, "drug") for i, d in enumerate(drugs)]
        pairs = []
        k = len(drugs)
        for i in range(k):
            for j in range(i + 1, k):
                pairs.append((f"p{i}{j}", f"e{i}", f"e{j}", False, None))
        rec = parse_corpus(write_xml(tmp_path, "d1",
                                     [("s0", text, entities, pairs)]))[0]
        variants = {blinded(rec, p) for p in rec.pairs}
        assert len(variants) == k * (k - 1) // 2

    def test_discontinuous_target_single_placeholder(self, tmp_path):
        path = tmp_path / "disc.xml"
        path.write_text(
            '<document id="d2">\n'
            '  <sentence id="d2.s0" text="vitamin A and D with iron">\n'
            '    <entity id="e0" charOffset="0-8;14-14" type="drug"'
            ' text="vitamin D"/>\n'
            '    <entity id="e1" charOffset="21-24" type="drug" text="iron"/>\n'
            '    <pair id="p0" e1="e0" e2="e1" ddi="false"/>\n'
            "  </sentence>\n"
            "</document>\n"
        )
        rec = parse_corpus(path)[0]
        out = blinded(rec, rec.pairs[0])
        assert out == "DRUG-A and  with DRUG-B"
        tokens = tokenize_normalize(out)
        assert tokens.count("DRUG-A") == 1

    def test_overlapping_targets_rejected(self, tmp_path):
        path = tmp_path / "nested.xml"
        path.write_text(
            '<document id="d3">\n'
            '  <sentence id="d3.s0" text="human insulin dosing">\n'
            '    <entity id="e0" charOffset="0-12" type="drug"'
            ' text="human insulin"/>\n'
            '    <entity id="e1" charOffset="6-12" type="drug" text="insulin"/>\n'
            '    <pair id="p0" e1="e0" e2="e1" ddi="false"/>\n'
            "  </sentence>\n"
            "</document>\n"
        )
        rec = parse_corpus(path)[0]
        with pytest.raises(CorpusError, match="overlap"):
            blind_entities(rec, rec.pairs[0])
        with pytest.raises(CorpusError, match="overlap"):
            generate_instances([rec])

    def test_nested_bystander_is_covered(self, tmp_path):
        path = tmp_path / "nested2.xml"
        path.write_text(
            '<document id="d4">\n'
            '  <sentence id="d4.s0" text="human insulin alters metformin">\n'
            '    <entity id="e0" charOffset="0-12" type="drug"'
            ' text="human insulin"/>\n'
            '    <entity id="e1" charOffset="6-12" type="drug" text="insulin"/>\n'
            '    <entity id="e2" charOffset="21-29" type="drug" text="metformin"/>\n'
            '    <pair id="p0" e1="e0" e2="e2" ddi="false"/>\n'
            "  </sentence>\n"
            "</document>\n"
        )
        rec = parse_corpus(path)[0]
        assert blinded(rec, rec.pairs[0]) == "DRUG-A alters DRUG-B"


class TestTokenizer:
    def test_digit_runs_collapse(self):
        assert tokenize_normalize("Take 20 mg") == ["take", "DG", "mg"]

    def test_placeholders_survive_punctuation(self):
        assert tokenize_normalize("DRUG-A (DRUG-B)") == \
            ["DRUG-A", "(", "DRUG-B", ")"]

    def test_decimal_percent(self):
        assert tokenize_normalize("doses of 2.5%") == \
            ["doses", "of", "DG", ".", "DG", "%"]

    def test_digits_inside_words(self):
        assert tokenize_normalize("pgf2alpha") == ["pgfDGalpha"]

    def test_lowercasing(self):
        assert tokenize_normalize("EDGE Cases") == ["edge", "cases"]

    def test_non_ascii_letters_lowercase_alone(self):
        # "\u0130" lowercases to two code points, i and a combining dot
        assert tokenize_normalize("\u0130buprofen \u03b2-Blocker \u03a93 DG Dg") == \
            ["i\u0307", "buprofen", "\u03b2", "-", "blocker", "\u03c9", "DG", "DG", "dg"]

    def test_hyphen_splits(self):
        assert tokenize_normalize("non-steroidal") == ["non", "-", "steroidal"]

    @given(st.text(min_size=0, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_idempotent_on_own_output(self, text):
        once = tokenize_normalize(text)
        again = tokenize_normalize(" ".join(once))
        assert once == again


class TestInstances:
    def _records(self, tmp_path):
        sentences = [(
            "d1.s0",
            "Aspirin affects warfarin and naproxen today.",
            [("e0", "Aspirin", 0, "drug"), ("e1", "warfarin", 0, "drug"),
             ("e2", "naproxen", 0, "drug")],
            [("p0", "e0", "e1", True, "advise"),
             ("p1", "e0", "e2", False, None)],
        )]
        return parse_corpus(write_xml(tmp_path, "d1", sentences))

    def test_one_instance_per_pair_with_labels(self, tmp_path):
        instances = generate_instances(self._records(tmp_path))
        assert len(instances) == 2
        assert [label_name(i.label) for i in instances] == ["advice", "negative"]
        for inst in instances:
            assert inst.tokens[inst.drug_a] == "DRUG-A"
            assert inst.tokens[inst.drug_b] == "DRUG-B"
            assert inst.drug_a < inst.drug_b

    def test_blinding_is_label_free(self, tmp_path):
        for inst in generate_instances(self._records(tmp_path)):
            assert "aspirin" not in inst.tokens
            assert "warfarin" not in inst.tokens
            assert "naproxen" not in inst.tokens

    def test_swapped_orientation_recorded(self, tmp_path):
        sentences = [(
            "d1.s0",
            "Aspirin affects warfarin.",
            [("e0", "Aspirin", 0, "drug"), ("e1", "warfarin", 0, "drug")],
            [("p0", "e1", "e0", True, "effect")],
        )]
        inst = generate_instances(parse_corpus(write_xml(tmp_path, "d1",
                                                         sentences)))[0]
        assert inst.swapped is True
        assert inst.a_text == "Aspirin" and inst.b_text == "warfarin"

    def test_untyped_positive_maps_to_int(self, tmp_path):
        sentences = [(
            "d1.s0",
            "Aspirin affects warfarin.",
            [("e0", "Aspirin", 0, "drug"), ("e1", "warfarin", 0, "drug")],
            [("p0", "e0", "e1", True, None)],
        )]
        inst = generate_instances(parse_corpus(write_xml(tmp_path, "d1",
                                                         sentences)))[0]
        assert inst.label == label_id("int")

    def test_instance_count_equals_pair_count(self, tmp_path):
        records = self._records(tmp_path)
        instances = generate_instances(records)
        assert len(instances) == sum(len(r.pairs) for r in records)

    def test_provenance_resolves_to_xml_pair(self, tmp_path):
        records = self._records(tmp_path)
        by_sentence = {(r.doc_id, r.id): {p.id for p in r.pairs}
                       for r in records}
        for inst in generate_instances(records):
            assert inst.pair_id in by_sentence[(inst.doc_id, inst.sent_id)]

    def test_file_roundtrip(self, tmp_path):
        instances = generate_instances(self._records(tmp_path))
        path = tmp_path / "instances.jsonl"
        write_instances(path, instances)
        assert read_instances(path) == instances

    def test_record_bytes(self, tmp_path):
        inst = RawInstance(
            tokens=["DRUG-A", "blocks", "DRUG-B", "."], drug_a=0, drug_b=2,
            label=label_id("advise"), doc_id="d1", sent_id="d1.s0",
            pair_id="d1.s0.p0", e1="d1.s0.e1", e2="d1.s0.e0",
            a_text="Aspirin", b_text="\u03b2-carotene", swapped=True)
        path = tmp_path / "one.jsonl"
        write_instances(path, [inst])
        assert path.read_bytes() == (
            b'{"tokens": ["DRUG-A", "blocks", "DRUG-B", "."], "drug_a": 0, '
            b'"drug_b": 2, "label": "advice", "doc_id": "d1", '
            b'"sent_id": "d1.s0", "pair_id": "d1.s0.p0", "e1": "d1.s0.e1", '
            b'"e2": "d1.s0.e0", "a_text": "Aspirin", '
            b'"b_text": "\\u03b2-carotene", "swapped": true}\n')

    def test_bad_instance_file(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"tokens": ["x"]}\n')
        with pytest.raises(ValueError, match="broken.jsonl:1"):
            read_instances(path)


# plain words with repeats, digit runs and punctuation, DG and Dg, non-ASCII
# letters and placeholder text; drug names with digits, hyphens and two words
WORDS = ["the", "The", "of", "dose", "Dose", "mg", "20", "2.5", "1990s", "(",
         ")", ",", ";", "%", "-", "and", "or", "such", "as", "pgf2alpha",
         "levels.", "DG", "Dg", "\u03b2", "\u0130", "DRUG-N"]
# a literal DRUG-A leaves the pair's placeholder ambiguous: it cannot be blinded
UNBLINDABLE_WORDS = WORDS + ["DRUG-A"]
DRUGS = ["aspirin", "Warfarin", "5-FU", "IL-2", "vitamin K", "human insulin"]
LABEL_TYPES = [None, "advise", "effect", "mechanism", "int"]


@st.composite
def ddi_sentence(draw, sid, words=WORDS):
    """(sid, text, entities, pairs) with at least two pairable mentions.

    An entity is (eid, spans, surface). Pairs join only the pairable
    mentions; the others overlap one of them: the last word of a
    two-word name, or "vitamin A" inside the discontinuous mention
    "vitamin ... D" of "vitamin A and D". Pieces are joined by a space or
    by nothing, so mention boundaries also fall inside words, and the D
    deleted from "vitamin A andD" joins the text on either side.
    """
    pieces = draw(st.lists(st.one_of(
        st.tuples(st.just("word"), st.sampled_from(words)),
        st.tuples(st.just("drug"), st.sampled_from(DRUGS), st.booleans()),
        st.tuples(st.just("discontinuous"), st.sampled_from([" ", ""]))),
        min_size=2, max_size=12))
    pieces += [("drug", draw(st.sampled_from(DRUGS)), False)] * 2
    pieces = draw(st.permutations(pieces))
    text, targets, others = "", [], []
    for piece in pieces:
        start = len(text)
        if piece[0] == "word":
            text += piece[1]
        elif piece[0] == "drug":
            text += piece[1]
            targets.append(([(start, len(text) - 1)], piece[1]))
            if piece[2] and " " in piece[1]:
                others.append(([(text.rindex(" ") + 1, len(text) - 1)],
                               piece[1].split()[-1]))
        else:
            text += "vitamin A and" + piece[1] + "D"
            targets.append(([(start, start + 6), (len(text) - 1,) * 2],
                            "vitamin D"))
            others.append(([(start, start + 8)], "vitamin A"))
        text += draw(st.sampled_from([" ", ""]))
    entities = [(f"{sid}.e{k}", spans, surface)
                for k, (spans, surface) in enumerate(targets + others)]
    pairs = []
    for i in range(len(targets)):
        for j in range(i + 1, len(targets)):
            ids = (entities[i][0], entities[j][0])
            # a pair listed both ways blinds the sentence twice alike
            for e1, e2 in draw(st.sampled_from(
                    [[ids], [ids[::-1]], [ids, ids[::-1]]])):
                ddi = draw(st.booleans())
                ptype = draw(st.sampled_from(LABEL_TYPES)) if ddi else None
                pairs.append((f"{sid}.p{len(pairs)}", e1, e2, ddi, ptype))
    return sid, text.rstrip(), entities, pairs


@st.composite
def ddi_documents(draw, words=WORDS):
    return [(f"d{d}", [draw(ddi_sentence(f"d{d}.s{k}", words))
                       for k in range(draw(st.integers(1, 3)))])
            for d in range(draw(st.integers(1, 2)))]


def document_tree(documents) -> ET.Element:
    """`documents` as the root element of one DDI XML file."""
    root = ET.Element("corpus")
    for doc_id, sentences in documents:
        doc = ET.SubElement(root, "document", id=doc_id)
        for sid, text, entities, pairs in sentences:
            sent = ET.SubElement(doc, "sentence", id=sid, text=text)
            for eid, spans, surface in entities:
                offsets = ";".join(f"{start}-{end}" for start, end in spans)
                ET.SubElement(sent, "entity", id=eid, charOffset=offsets,
                              type="drug", text=surface)
            for pid, e1, e2, ddi, ptype in pairs:
                attrs = {"type": ptype} if ptype else {}
                ET.SubElement(sent, "pair", id=pid, e1=e1, e2=e2,
                              ddi=str(ddi).lower(), **attrs)
    return root


def parse_documents(documents, directory):
    """Write `documents` as one DDI XML file and parse it back."""
    path = os.path.join(directory, "corpus.xml")
    ET.ElementTree(document_tree(documents)).write(path, encoding="utf-8")
    return parse_corpus(path)


def assert_tokens_as_if_cold(records):
    """Each instance holds its own list of the tokens that a fresh
    tokenization of its blinded sentence gives; a sentence that the
    reference cannot blind raises the reference's first error."""
    expected, blindable = [], []
    for s in records:
        try:
            expected += [reference_tokens(s, pair) for pair in s.pairs]
            blindable.append(s)
        except CorpusError as exc:
            with pytest.raises(CorpusError) as info:
                generate_instances([s])
            assert str(info.value) == str(exc)
    instances = generate_instances(blindable)
    assert [inst.tokens for inst in instances] == expected
    for inst in instances:
        assert (inst.drug_a, inst.drug_b) == \
            (inst.tokens.index(DRUG_A), inst.tokens.index(DRUG_B))
    before = [list(inst.tokens) for inst in instances]
    for inst in instances:
        inst.tokens.append("<probe>")
    assert [inst.tokens for inst in instances] == \
        [tokens + ["<probe>"] for tokens in before]


class TestGeneratedDocuments:
    def test_fixture_tokens_as_if_cold(self):
        assert_tokens_as_if_cold(parse_corpus(FIXTURE))

    @given(ddi_documents(UNBLINDABLE_WORDS))
    @settings(max_examples=60, deadline=None)
    def test_tokens_as_if_cold(self, documents):
        with tempfile.TemporaryDirectory() as tmp:
            assert_tokens_as_if_cold(parse_documents(documents, tmp))

    @given(ddi_documents())
    @settings(max_examples=60, deadline=None)
    def test_xml_to_jsonl_roundtrip(self, documents):
        with tempfile.TemporaryDirectory() as tmp:
            instances = generate_instances(parse_documents(documents, tmp))
            assert len(instances) == sum(len(pairs) for _, sentences in documents
                                         for *_, pairs in sentences)
            written = copy.deepcopy(instances)
            jsonl = os.path.join(tmp, "instances.jsonl")
            write_instances(jsonl, instances)
            # the writer leaves its input as it was: labels stay ints
            assert instances == written
            assert all(type(inst.label) is int for inst in instances)
            assert read_instances(jsonl) == instances

    @given(ddi_documents(), st.sampled_from(["train", "test"]))
    @settings(max_examples=40, deadline=None)
    def test_filter_writes_what_write_instances_writes(self, documents, mode):
        """On `preprocess` output, `filter`'s copied lines are the bytes of
        the path it replaced: decode each record, then encode the kept ones."""
        with tempfile.TemporaryDirectory() as tmp:
            parse_documents(documents, tmp)
            raw, kept, reference = (os.path.join(tmp, name) for name in (
                "raw.jsonl", "kept.jsonl", "reference.jsonl"))
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["preprocess", "--corpus", os.path.join(tmp, "corpus.xml"),
                             "--out", raw]) == 0
                assert main(["filter", "--instances", raw, "--out", kept, "--report",
                             os.path.join(tmp, "report.json"), "--mode", mode]) == 0
            write_instances(reference, kept_instances(read_instances(raw)))
            with open(kept, "rb") as copied, open(reference, "rb") as encoded:
                assert copied.read() == encoded.read()


# what a corpus file may hold where the format wants a charOffset, a ddi
# flag or an interaction type
BAD_OFFSETS = ["", "x", "3", "5-3", "-1-2", "1-", "0-99999", "0-2;1-3", "1-1;1-1",
               "0-0;;2-2", " 0-1 ", "٣-٤", "0-1;"]
BAD_DDI = ["", "yes", "1", "TRUE", " false ", "none"]
BAD_TYPES = ["", "bogus", "Advise", "negative", " INT ", "effect;mechanism"]


@st.composite
def damaged_corpus(draw) -> bytes:
    """The bytes of a generated corpus after up to three edits, each in one
    sentence: an entity's charOffset replaced, or drawn in or past the
    text, so that it may overlap other mentions; an entity removed; a pair
    naming a missing entity; a ddi or type value replaced. One time in
    four, truncated."""
    root = document_tree(draw(ddi_documents()))
    for _ in range(draw(st.integers(0, 3))):
        sent = draw(st.sampled_from(root.findall(".//sentence")))
        entity = draw(st.sampled_from(sent.findall("entity")))
        pair = draw(st.sampled_from(sent.findall("pair")))
        kind = draw(st.sampled_from(["offset", "span", "drop", "dangling", "ddi", "type"]))
        if kind == "offset":
            entity.set("charOffset", draw(st.sampled_from(BAD_OFFSETS)))
        elif kind == "span":
            offset = st.integers(0, len(sent.get("text")) + 2)
            entity.set("charOffset", f"{draw(offset)}-{draw(offset)}")
        elif kind == "drop":
            sent.remove(entity)
        elif kind == "dangling":
            pair.set(draw(st.sampled_from(["e1", "e2"])),
                     draw(st.sampled_from(["", pair.get("e1") + "x", "d9.s0.e0"])))
        else:
            pair.set(kind, draw(st.sampled_from(BAD_DDI if kind == "ddi" else BAD_TYPES)))
    data = ET.tostring(root, encoding="utf-8")
    cut = draw(st.sampled_from([False, False, False, True]))
    return data[:draw(st.integers(0, len(data) - 1))] if cut else data


class TestCorpusFuzz:
    @given(damaged_corpus())
    @settings(max_examples=150, deadline=None)
    def test_damaged_corpus(self, data):
        """preprocess exits 0 with one instance per pair that read_instances
        reads back, positive just when its pair's ddi is true, or exits 1
        with one `error:` line naming the corpus file, and writes nothing."""
        with tempfile.TemporaryDirectory() as tmp:
            corpus, out = os.path.join(tmp, "corpus.xml"), os.path.join(tmp, "raw.jsonl")
            with open(corpus, "wb") as fh:
                fh.write(data)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["preprocess", "--corpus", corpus, "--out", out])
            if code == 0:
                assert err.getvalue() == ""
                assert [inst.label != NEGATIVE_ID for inst in read_instances(out)] == [
                    pair.get("ddi").strip().lower() == "true"
                    for pair in ET.fromstring(data).iter("pair")]
            else:
                assert code == 1
                assert err.getvalue().startswith(f"error: {corpus}: "), err.getvalue()
                assert err.getvalue().count("\n") == 1, err.getvalue()
                assert os.listdir(tmp) == ["corpus.xml"]


# the words of new drug names: letters of DRUG-, a digit, tokens the filter
# reads, non-ASCII letters (İ lowercases to two characters)
NAME_WORDS = st.text(st.sampled_from("aDRUG-1(,βİ"), min_size=1, max_size=6).filter(
    lambda word: "DRUG-" not in word)


@st.composite
def drug_renaming(draw) -> dict:
    """A new name for each of DRUGS with as many words, one to one: no two
    words the same after lowercasing, and none holding DRUG-."""
    words = iter(draw(st.lists(NAME_WORDS, min_size=8, max_size=8, unique_by=str.lower)))
    return {name: " ".join(next(words) for _ in name.split()) for name in DRUGS}


def renamed(documents, names):
    """`documents` with each mention of a name in `names` written as its new
    name, every later offset moved by the change in length, and the mention
    of a two-word name's last word on the new name's last word."""
    def sentence(sid, text, entities, pairs):
        new_text, pos, moved = "", 0, []  # (old start, old end, new start, new name)
        for (start, end), name in sorted((spans[0], names[surface])
                                         for _, spans, surface in entities if surface in names):
            new_text += text[pos:start]
            moved.append((start, end, len(new_text), name))
            new_text += name
            pos = end + 1

        def at(i):
            return i + sum(len(name) - (end + 1 - start)
                           for start, end, _, name in moved if end < i)

        out = []
        for eid, spans, surface in entities:
            inside = [m for m in moved if m[0] <= spans[0][0] <= m[1]]
            if inside:  # the renamed mention or its last word
                _, _, start, name = inside[0]
                word = name if surface in names else name.rsplit(" ", 1)[1]
                out.append((eid, [(start + len(name) - len(word), start + len(name) - 1)], word))
            else:
                out.append((eid, [(at(a), at(b)) for a, b in spans], surface))
        return sid, new_text + text[pos:], out, pairs

    return [(doc_id, [sentence(*s) for s in sentences]) for doc_id, sentences in documents]


def _pipeline(documents, tmp) -> dict:
    """preprocess, filter (train mode), a tiny ab-lstm train and predict
    --attention on `documents`: each output file's bytes, by name."""
    ET.ElementTree(document_tree(documents)).write(os.path.join(tmp, "corpus.xml"),
                                                   encoding="utf-8")
    runs = ["preprocess --corpus {d}/corpus.xml --out {d}/raw.jsonl",
            "filter --instances {d}/raw.jsonl --out {d}/kept.jsonl --report {d}/report.json",
            "train --instances {d}/raw.jsonl --out-dir {d}/ckpt --variant ab-lstm --hidden 3 "
            "--word-dim 4 --pos-dim 2 --epochs 1",
            "predict --checkpoint {d}/ckpt --instances {d}/raw.jsonl --out {d}/preds.jsonl "
            "--attention {d}/att.jsonl"]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in runs:
            assert main(argv.format(d=tmp).split()) == 0, argv
    names = ["raw.jsonl", "kept.jsonl", "report.json", "ckpt/params.bin", "preds.jsonl",
             "att.jsonl"]
    return {name: open(os.path.join(tmp, name), "rb").read() for name in names}


def _split_names(instance_bytes: bytes) -> tuple[list, list]:
    """The records of an instance file without a_text and b_text, and the
    (a_text, b_text) of each."""
    records = [json.loads(line) for line in instance_bytes.splitlines()]
    return ([{**rec, "a_text": None, "b_text": None} for rec in records],
            [(rec["a_text"], rec["b_text"]) for rec in records])


class TestRenamedDrugs:
    @given(ddi_documents(), drug_renaming())
    @settings(max_examples=30, deadline=None)
    def test_renaming_changes_only_the_names(self, documents, names):
        """Blinding hides which drugs a sentence names: renamed one to one,
        the instances differ only in a_text and b_text, which hold the new
        names, and every later output is the same bytes. filter's kept lines
        hold the names too, so they are compared as the instances are."""
        with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryDirectory() as tmp2:
            before = _pipeline(documents, tmp)
            after = _pipeline(renamed(documents, names), tmp2)
        for name in ("raw.jsonl", "kept.jsonl"):
            (records, old), (renamed_records, new) = map(_split_names, (before[name], after[name]))
            assert renamed_records == records
            assert new == [(names.get(a, a), names.get(b, b)) for a, b in old]
        for name in ("report.json", "ckpt/params.bin", "preds.jsonl", "att.jsonl"):
            assert after[name] == before[name], name
