"""DDI-corpus XML parsing, entity blinding and rule-based tokenization.

Input is the challenge format: document -> sentence -> entity/pair
elements, with inclusive character offsets that may be discontinuous
("a-b;c-d"). One classification instance is produced per annotated drug
pair: the two targets become DRUG-A / DRUG-B (in textual order), every
other drug mention becomes DRUG-N, digits collapse to the DG token and
everything else is lowercased and split on punctuation.
"""

from __future__ import annotations

import json
import os
import re
import xml.etree.ElementTree as ET
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from .labels import NEGATIVE_ID, label_id, label_name


class CorpusError(ValueError):
    """Malformed XML, dangling references, or unresolvable annotations."""


@dataclass
class EntityMention:
    id: str
    spans: list[tuple[int, int]]  # inclusive character offsets
    text: str
    type: str

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
    ddi: bool
    type: Optional[str]


@dataclass
class SentenceRecord:
    id: str
    doc_id: str
    text: str
    entities: list[EntityMention]
    pairs: list[PairAnnotation]

    def entity(self, entity_id: str) -> EntityMention:
        for e in self.entities:
            if e.id == entity_id:
                return e
        raise CorpusError(f"sentence {self.id}: unknown entity {entity_id}")


def _parse_offsets(raw: str, sentence_id: str) -> list[tuple[int, int]]:
    spans = []
    for part in raw.split(";"):
        m = re.fullmatch(r"(\d+)-(\d+)", part.strip())
        if not m:
            raise CorpusError(f"sentence {sentence_id}: bad charOffset {raw!r}")
        start, end = int(m.group(1)), int(m.group(2))
        if end < start:
            raise CorpusError(f"sentence {sentence_id}: bad charOffset {raw!r}")
        spans.append((start, end))
    return spans


def _parse_file(path) -> list[SentenceRecord]:
    try:
        tree = ET.parse(path)
    except ET.ParseError as exc:
        raise CorpusError(f"{path}: malformed XML ({exc})") from exc
    root = tree.getroot()
    docs = [root] if root.tag == "document" else root.findall(".//document")
    if root.tag == "sentence":
        docs = []
    records = []
    for doc in docs:
        doc_id = doc.get("id", os.path.basename(str(path)))
        for sent in doc.findall("sentence"):
            records.append(_parse_sentence(sent, doc_id))
    if root.tag == "sentence":
        records.append(_parse_sentence(root, os.path.basename(str(path))))
    return records


def _parse_sentence(sent: ET.Element, doc_id: str) -> SentenceRecord:
    sid = sent.get("id", "")
    text = sent.get("text", "")
    entities = []
    for ent in sent.findall("entity"):
        spans = _parse_offsets(ent.get("charOffset", ""), sid)
        for start, end in spans:
            if end >= len(text):
                raise CorpusError(
                    f"sentence {sid}: offset {start}-{end} outside text"
                )
        entities.append(EntityMention(ent.get("id", ""), spans,
                                      ent.get("text", ""), ent.get("type", "")))
    known = {e.id for e in entities}
    pairs = []
    for pair in sent.findall("pair"):
        pid = pair.get("id", "")
        e1, e2 = pair.get("e1", ""), pair.get("e2", "")
        if e1 not in known or e2 not in known:
            raise CorpusError(f"pair {pid}: references unknown entity")
        ddi = pair.get("ddi", "false").strip().lower() == "true"
        ptype = pair.get("type")
        pairs.append(PairAnnotation(pid, e1, e2, ddi, ptype))
    return SentenceRecord(sid, doc_id, text, entities, pairs)


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


def blind_entities(s: SentenceRecord, pair: PairAnnotation) -> str:
    """Replace the pair with DRUG-A/DRUG-B and other mentions with DRUG-N.

    DRUG-A is whichever target appears first in the text. Targets are
    placed first; remaining mentions are placed longest-first and any
    mention overlapping an already-placed span is dropped (it is covered).
    Overlapping *targets* cannot be represented and raise.

    Discontinuous mentions keep the placeholder on their first span and
    have the later spans deleted.
    """
    first, second = s.entity(pair.e1), s.entity(pair.e2)
    if second.start < first.start:
        first, second = second, first

    def segments(entity: EntityMention, placeholder: str):
        spans = sorted(entity.spans)
        out = [(spans[0][0], spans[0][1], placeholder)]
        out.extend((start, end, "") for start, end in spans[1:])
        return out

    placed: list[tuple[int, int, str]] = []

    def overlaps(seg):
        return any(seg[0] <= p[1] and p[0] <= seg[1] for p in placed)

    for entity, tag in ((first, DRUG_A), (second, DRUG_B)):
        for seg in segments(entity, tag):
            if overlaps(seg):
                raise CorpusError(
                    f"pair {pair.id}: target mentions overlap and cannot be blinded"
                )
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
        if _PLACEHOLDER_SPLIT.fullmatch(part):
            tokens.append(part)
            continue
        for chunk in _CHUNKS.findall(part):
            if chunk[0].isalnum():
                tokens.append(_normalize_word(chunk))
            else:
                tokens.append(chunk)
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


def _pair_label(pair: PairAnnotation) -> int:
    if not pair.ddi:
        return NEGATIVE_ID
    if pair.type is None:
        # interaction asserted with no further detail
        return label_id("int")
    return label_id(pair.type)


def generate_instances(records: Sequence[SentenceRecord]) -> list[RawInstance]:
    """One instance per annotated pair, blinded and tokenized."""
    out = []
    for s in records:
        for pair in s.pairs:
            blinded = blind_entities(s, pair)
            tokens = tokenize_normalize(blinded)
            if tokens.count(DRUG_A) != 1 or tokens.count(DRUG_B) != 1:
                raise CorpusError(
                    f"pair {pair.id}: target placeholders not locatable "
                    f"after tokenization"
                )
            a_idx = tokens.index(DRUG_A)
            b_idx = tokens.index(DRUG_B)
            first, second = s.entity(pair.e1), s.entity(pair.e2)
            swapped = second.start < first.start
            if swapped:
                first, second = second, first
            out.append(RawInstance(
                tokens=tokens,
                drug_a=a_idx,
                drug_b=b_idx,
                label=_pair_label(pair),
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
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            rec = asdict(inst)
            rec["label"] = label_name(inst.label)
            fh.write(json.dumps(rec) + "\n")


def read_instances(path) -> list[RawInstance]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                rec["label"] = label_id(rec["label"])
                out.append(RawInstance(**rec))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise CorpusError(f"{path}:{lineno}: bad instance record ({exc})")
    return out
