"""DDI-corpus XML parsing, entity blinding and rule-based tokenization.

Input is the challenge format: document -> sentence -> entity/pair
elements, with inclusive character offsets that may be discontinuous
("a-b;c-d"). One classification instance is produced per annotated drug
pair: the two targets become DRUG-A / DRUG-B (in textual order), every
other drug mention becomes DRUG-N, digits collapse to the DG token and
everything else is lowercased and split on punctuation.

An instance file holds one JSON record per line (`write_instances`).
`read_instances` decodes and checks every line, raising a ValueError that
names the first bad one; `read_instance_lines` also gives each record's
line text, stripped, which `filter` writes back for the records it keeps,
so no kept record is encoded a second time.
"""

from __future__ import annotations

import os
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Sequence, get_type_hints

from .files import json_lines, write_json_lines
from .labels import NEGATIVE_ID, label_id, label_name


class CorpusError(ValueError):
    """Malformed XML, dangling references, or unresolvable annotations."""


@dataclass
class EntityMention:
    id: str
    spans: list[tuple[int, int]]  # inclusive character offsets, in text order
    text: str

    @property
    def start(self) -> int:
        return self.spans[0][0]

    @property
    def length(self) -> int:
        return sum(end - start + 1 for start, end in self.spans)


@dataclass
class PairAnnotation:
    id: str
    e1: str
    e2: str
    label: int  # NEGATIVE_ID just when the pair's ddi is false


@dataclass
class SentenceRecord:
    id: str
    doc_id: str
    text: str
    entities: list[EntityMention]
    pairs: list[PairAnnotation]
    path: str  # the corpus file, named in errors raised after parsing


def _parse_offsets(raw: str, sentence_id: str, entity_id: str) -> list[tuple[int, int]]:
    """The spans of `raw` in text order; they may not overlap."""
    spans = []
    for part in raw.split(";"):
        m = re.fullmatch(r"([0-9]+)-([0-9]+)", part.strip())
        if not m:
            raise CorpusError(f"sentence {sentence_id}: bad charOffset {raw!r}")
        start, end = int(m.group(1)), int(m.group(2))
        if end < start:
            raise CorpusError(f"sentence {sentence_id}: bad charOffset {raw!r}")
        spans.append((start, end))
    spans.sort()
    if any(b[0] <= a[1] for a, b in zip(spans, spans[1:])):
        raise CorpusError(f"sentence {sentence_id}: entity {entity_id}: "
                          f"charOffset {raw!r} overlaps itself")
    return spans


def _parse_file(path) -> list[SentenceRecord]:
    try:
        tree = ET.parse(path)
    except ET.ParseError as exc:
        raise CorpusError(f"{path}: malformed XML ({exc})") from exc
    root = tree.getroot()
    docs = [root] if root.tag == "document" else root.findall(".//document")
    if not docs:
        raise CorpusError(f"{path}: no <document> element")
    try:
        return [_parse_sentence(sent, doc.get("id", os.path.basename(str(path))), str(path))
                for doc in docs for sent in doc.findall("sentence")]
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from None


def _parse_sentence(sent: ET.Element, doc_id: str, path: str) -> SentenceRecord:
    sid = sent.get("id", "")
    text = sent.get("text", "")
    entities: dict[str, EntityMention] = {}
    for ent in sent.findall("entity"):
        eid = ent.get("id", "")
        if eid in entities:
            raise CorpusError(f"sentence {sid}: entity id {eid!r} used twice")
        spans = _parse_offsets(ent.get("charOffset", ""), sid, eid)
        for start, end in spans:
            if end >= len(text):
                raise CorpusError(
                    f"sentence {sid}: offset {start}-{end} outside text"
                )
        entities[eid] = EntityMention(eid, spans, ent.get("text", ""))
    pairs = []
    for pair in sent.findall("pair"):
        pid = pair.get("id", "")
        e1, e2 = pair.get("e1", ""), pair.get("e2", "")
        if e1 not in entities or e2 not in entities:
            raise CorpusError(f"pair {pid}: references unknown entity")
        ddi = pair.get("ddi", "").strip().lower()
        if ddi not in ("true", "false"):
            raise CorpusError(f"pair {pid}: ddi must be 'true' or 'false', "
                              f"got {pair.get('ddi')!r}")
        # a true pair with no type asserts an interaction with no further detail
        ptype = pair.get("type", "int" if ddi == "true" else "negative")
        try:
            label = label_id(ptype)
        except ValueError as exc:
            raise CorpusError(f"pair {pid}: {exc}") from None
        if (label != NEGATIVE_ID) != (ddi == "true"):
            kind = "no interaction" if ddi == "true" else "an interaction but ddi is 'false'"
            raise CorpusError(f"pair {pid}: type {ptype!r} names {kind}")
        pairs.append(PairAnnotation(pid, e1, e2, label))
    return SentenceRecord(sid, doc_id, text, list(entities.values()), pairs, path)


def parse_corpus(path) -> list[SentenceRecord]:
    """Parse one XML file or every *.xml under a directory.

    Files are visited in sorted order and sentences kept in document
    order, which makes the output order a deterministic function of the
    corpus alone.
    """
    if os.path.isdir(path):
        files = sorted(
            os.path.join(root, name)
            for root, _, names in os.walk(path)
            for name in names
            if name.endswith(".xml")
        )
        if not files:
            raise CorpusError(f"no .xml files under {path}")
    else:
        files = [path]
    records = []
    for f in files:
        records.extend(_parse_file(f))
    return records


DRUG_A = "DRUG-A"
DRUG_B = "DRUG-B"
DRUG_N = "DRUG-N"


_PLACEHOLDER_SPLIT = re.compile(r"(DRUG-[ABN])")
_CHUNKS = re.compile(r"[A-Za-z0-9]+|[^A-Za-z0-9\s]")
# a word already in normal form: lowercase letters and DG digit markers
_NORMALIZED = re.compile(r"(?:DG|[a-z])+")


def _normalize_word(word: str) -> str:
    if _NORMALIZED.fullmatch(word):
        return word
    return re.sub(r"[0-9]+", "DG", word.lower())


def tokenize_normalize(text: str) -> list[str]:
    """Lowercase, split punctuation, collapse digit runs to DG.

    Blinding placeholders survive verbatim as single tokens, and the
    function is a fixed point on its own output (already-normalized words
    such as "DG" or "pgfDGalpha" pass through untouched).
    """
    tokens: list[str] = []
    for part in _PLACEHOLDER_SPLIT.split(text):
        tokens += [part] if _PLACEHOLDER_SPLIT.fullmatch(part) else [
            word if word.islower() and word.isalpha() and word.isascii()  # [a-z]+
            else _normalize_word(word) if word[0].isalnum() else word
            for word in _CHUNKS.findall(part)]
    return tokens


@dataclass
class RawInstance:
    """One blinded, tokenized (sentence, drug pair) sample."""

    tokens: list[str]
    drug_a: int
    drug_b: int
    label: int
    doc_id: str
    sent_id: str
    pair_id: str
    e1: str
    e2: str
    a_text: str
    b_text: str
    swapped: bool  # True when e2 appears before e1 in the text


def _layout(text: str, spans: list, placed: frozenset) -> tuple:
    """The tokens of `text` with DRUG-N on each mention in `placed` (on its
    first span; its later spans deleted), and the index of each DRUG-N."""
    tokens: list[str] = []
    where = {}
    run, pos = "", 0
    for start, end, eid, lead in spans:
        if eid in placed:
            run += text[pos:start]
            pos = end + 1
            if lead:
                tokens += tokenize_normalize(run)
                where[eid] = len(tokens)
                tokens.append(DRUG_N)
                run = ""
    tokens += tokenize_normalize(run + text[pos:])
    return tokens, where


def generate_instances(records: Sequence[SentenceRecord]) -> list[RawInstance]:
    """One instance per annotated pair, blinded and tokenized.

    The targets become DRUG-A and DRUG-B, DRUG-A being the one that starts
    first in the text; overlapping targets cannot be blinded and raise. The
    other mentions then become DRUG-N, longest first, unless they overlap
    one already placed (they are covered). A discontinuous mention keeps its
    placeholder on its first span; its later spans are deleted. The pairs of
    a sentence that place the same mentions share one `_layout`.
    """
    out = []
    for s in records:
        by_id = {e.id: e for e in s.entities}
        ranked = sorted(s.entities, key=lambda e: (-e.length, e.start))
        # the mentions that overlap each mention, itself included
        clash = {e.id: {f.id for f in s.entities if any(
            a <= y and x <= b for a, b in e.spans for x, y in f.spans)} for e in s.entities}
        # every span in text order, flagged when it carries its mention's placeholder
        spans = sorted((start, end, e.id, k == 0)
                       for e in s.entities for k, (start, end) in enumerate(e.spans))
        layouts: dict[frozenset, tuple] = {}
        for pair in s.pairs:
            first, second = by_id[pair.e1], by_id[pair.e2]
            swapped = second.start < first.start
            if swapped:
                first, second = second, first
            if second.id in clash[first.id]:
                raise CorpusError(f"{s.path}: pair {pair.id}: target mentions overlap "
                                  "and cannot be blinded")
            placed = {first.id, second.id}
            for e in ranked:
                if clash[e.id].isdisjoint(placed):
                    placed.add(e.id)
            placed = frozenset(placed)
            if placed not in layouts:
                layouts[placed] = _layout(s.text, spans, placed)
                # the sentence's own DRUG-A or DRUG-B text would pass for a target
                if DRUG_A in layouts[placed][0] or DRUG_B in layouts[placed][0]:
                    raise CorpusError(f"{s.path}: pair {pair.id}: target placeholders "
                                      "not locatable after tokenization")
            template, where = layouts[placed]
            tokens = template.copy()
            drug_a, drug_b = where[first.id], where[second.id]
            tokens[drug_a], tokens[drug_b] = DRUG_A, DRUG_B
            out.append(RawInstance(
                tokens=tokens,
                drug_a=drug_a,
                drug_b=drug_b,
                label=pair.label,
                doc_id=s.doc_id,
                sent_id=s.id,
                pair_id=pair.id,
                e1=pair.e1,
                e2=pair.e2,
                a_text=first.text,
                b_text=second.text,
                swapped=swapped,
            ))
    return out


def write_instances(path, instances: Sequence[RawInstance]) -> None:
    """One JSON record per line; the `label` field is stored by name."""
    # a copy keeps the caller's label; asdict would copy each token
    write_json_lines(path, ({**vars(inst), "label": label_name(inst.label)}
                            for inst in instances))


# the JSON type of each RawInstance field as write_instances stores it
_RECORD_TYPES = {**get_type_hints(RawInstance), "label": str}


def read_instance_lines(path) -> tuple[list[str], list[RawInstance]]:
    """(texts, records) of an instance file: the text of each record's line
    stripped of surrounding whitespace, and the record checked from it; a
    ValueError names the first malformed line."""
    texts, out = [], []
    for where, text, rec in json_lines(path, "instance record", _RECORD_TYPES, closed=True):
        if not 0 <= rec["drug_a"] < rec["drug_b"] < len(rec["tokens"]):
            raise ValueError(f"{where}: drug indices out of order or outside the sentence")
        rec["label"] = label_id(rec["label"], where)
        texts.append(text)
        out.append(RawInstance(**rec))
    return texts, out


def read_instances(path) -> list[RawInstance]:
    """The records of an instance file, as `read_instance_lines` checks them."""
    return read_instance_lines(path)[1]
