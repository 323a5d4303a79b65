"""Seeded, DDI-shaped XML corpora for the benchmark.

The output is the challenge format the program parses: one document per
file, each document a few sentences, each sentence its drug mentions as
<entity> elements and every pair of mentions as a <pair>. Nothing here
imports the program; the seed alone decides the bytes written.

Shape choices, all fixed so that seeds change content but not cost:

* Words are letters only. The tokenizer folds every digit run into `DG`,
  so words with digits in them would collapse the vocabulary.
* Words follow a Zipf law over a lexicon of LEXICON_SIZE; a training
  corpus of 1100 sentences then shows about 10k word types.
* Sentence lengths are quantiles of a fixed distribution (20-60 tokens
  for training, a tail to 150 for scoring), shuffled per seed. The
  scoring mix is an assumption, not fitted to the DDI-2013 test set. Drug
  counts and filter patterns go to fixed ranks inside each block of
  BLOCK sentences of similar length, so the number of pairs and the
  tokens they carry do not move between seeds.
* Every pair of mentions in a sentence is annotated. Sentences with three
  or more drugs put DRUG-N mentions into each pair, and the pattern
  sentences make every rule of the negative filter fire. About 85% of
  the pairs are negative.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass
from xml.sax.saxutils import quoteattr

import numpy as np

LEXICON_SIZE = 14000
ZIPF_EXPONENT = 0.7
DRUG_NAMES = 800
DRUG_SUFFIXES = ("amil", "azole", "mycin", "pril", "statin", "olol", "vir",
                 "cillin", "tidine", "oxacin")
# filter keywords stay out of the filler so only pattern sentences match
RESERVED = {"such", "as", "and", "or"}
COMMA_RATE = 0.06
NUMBER_RATE = 0.02
POSITIVE_RATE = 0.19  # of pairs outside filter patterns; ~15% overall
POSITIVE_TYPES = ("advise", "effect", "mechanism", "int")
POSITIVE_WEIGHTS = (0.20, 0.42, 0.33, 0.05)
SENTENCES_PER_DOC = 10

# per block of BLOCK length-sorted sentences: drug counts, and patterns
# that need at least three drugs (LIST) or two (PAIR)
BLOCK = 20
DRUG_COUNTS = [2] * 10 + [3] * 6 + [4] * 3 + [5]
COUNT_STRIDE = 7  # coprime to BLOCK: deals the sorted counts over the block
LIST_PATTERNS = ("such_as_list", "coord", "coord_conj")
PAIR_PATTERNS = ("paren", "such_as", "same_name")


def _stream(seed: int, name: str) -> np.random.Generator:
    tag = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


def train_lengths(n: int) -> list[int]:
    """Token counts spread evenly over 20..60."""
    return [20 + int(41 * (i + 0.5) / n) for i in range(n)]


def score_lengths(n: int) -> list[int]:
    """10% short (8-19), 75% in 20-60, 15% in a tail thinning out to 150.

    The split is assumed, not taken from published DDI-2013 test-set
    statistics, so a pad_share measured on it describes this corpus only.
    """
    out = []
    for i in range(n):
        q = (i + 0.5) / n
        if q < 0.10:
            out.append(8 + int(12 * q / 0.10))
        elif q < 0.85:
            out.append(20 + int(41 * (q - 0.10) / 0.75))
        else:
            u = (q - 0.85) / 0.15
            out.append(61 + int(90 * u * u))
    return out


@dataclass
class Lexicon:
    words: list[str]
    cdf: np.ndarray  # cumulative Zipf frequencies, by rank
    drugs: list[str]


def make_lexicon(seed: int) -> Lexicon:
    rng = _stream(seed, "lexicon")
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    words: list[str] = []
    seen = set(RESERVED)
    while len(words) < LEXICON_SIZE:
        for n in rng.integers(3, 11, size=LEXICON_SIZE):
            w = "".join(letters[rng.integers(0, 26, size=n)])
            if w not in seen:
                seen.add(w)
                words.append(w)
                if len(words) == LEXICON_SIZE:
                    break
    drugs: list[str] = []
    while len(drugs) < DRUG_NAMES:
        stem = "".join(letters[rng.integers(0, 26, size=int(rng.integers(3, 7)))])
        name = stem + DRUG_SUFFIXES[int(rng.integers(0, len(DRUG_SUFFIXES)))]
        if name not in seen:
            seen.add(name)
            drugs.append(name)
    ranks = np.arange(1, LEXICON_SIZE + 1, dtype=np.float64)
    weights = ranks ** -ZIPF_EXPONENT
    return Lexicon(words, np.cumsum(weights) / weights.sum(), drugs)


def _pattern_block(pattern: str, rng) -> tuple[list, int]:
    """Token items of a filter pattern and the number of drugs it holds.

    Items are ("d", k) for the k-th drug of the block, or a literal token.
    """
    if pattern == "paren":
        return [("d", 0), "(", ("d", 1), ")"], 2
    if pattern == "such_as":
        return [("d", 0), "such", "as", ("d", 1)], 2
    if pattern == "such_as_list":
        return [("d", 0), "such", "as", ("d", 1), ",", ("d", 2)], 3
    if pattern == "coord":
        return [("d", 0), ",", ("d", 1), ",", ("d", 2)], 3
    if pattern == "coord_conj":
        conj = "and" if rng.random() < 0.5 else "or"
        if rng.random() < 0.5:
            return [("d", 0), ",", ("d", 1), conj, ("d", 2)], 3
        return [("d", 0), ",", ("d", 1), ",", conj, ("d", 2)], 3
    raise ValueError(pattern)


def _sentence(rng, lex: Lexicon, length: int, n_drugs: int, pattern):
    """One sentence: its text, mention spans and the pairs the filter hits."""
    block, in_block = ([], 0) if pattern in (None, "same_name") else \
        _pattern_block(pattern, rng)
    if len(block) + (n_drugs - in_block) + 1 > length:
        block, in_block, pattern = [], 0, None
    n_fill = length - len(block) - (n_drugs - in_block) - 1

    fill_ids = np.searchsorted(lex.cdf, rng.random(n_fill))
    filler: list = []
    for wid in fill_ids:
        if filler and filler[-1] != "," and rng.random() < COMMA_RATE:
            filler.append(",")
        elif rng.random() < NUMBER_RATE:
            filler.append(str(int(rng.integers(1, 500))))
        else:
            filler.append(lex.words[min(int(wid), len(lex.words) - 1)])

    # scattered drugs and the block go in at sorted random gaps
    units = ["drug"] * (n_drugs - in_block) + (["block"] if block else [])
    slots = sorted(int(x) for x in rng.integers(0, n_fill + 1, size=len(units)))
    items: list = []
    pos = 0
    for slot, u in zip(slots, rng.permutation(len(units))):
        items.extend(filler[pos:slot])
        pos = slot
        items.extend(block if units[int(u)] == "block" else [("d", None)])
    items.extend(filler[pos:])
    items.append(".")

    names = [lex.drugs[int(i)] for i in
             rng.choice(len(lex.drugs), size=n_drugs, replace=False)]
    if pattern == "same_name":
        names[1] = names[0]

    tokens, mentions, block_mentions = [], [], []
    offset = 0
    for item in items:
        if isinstance(item, tuple):
            text = names[len(mentions)]
            if item[1] is not None:
                block_mentions.append(len(mentions))
            mentions.append((offset, offset + len(text) - 1, text))
        else:
            text = item
        tokens.append(text)
        offset += len(text) + 1
    negative = set()
    if pattern == "same_name":
        same = [i for i, m in enumerate(mentions) if m[2] == names[0]]
        negative.add((same[0], same[1]))
    for x in block_mentions:
        for y in block_mentions:
            if x < y:
                negative.add((x, y))
    return " ".join(tokens), mentions, negative


def _plan(lengths: list[int], rng) -> list[tuple[int, int, object]]:
    """(length, drug count, pattern) per sentence, in corpus order.

    Only the order depends on the seed: inside each block of BLOCK sorted
    lengths, drug counts and patterns go to fixed ranks, spread over the
    block, so the pairs and the tokens they carry are the same for every
    seed.
    """
    lengths = sorted(lengths)
    ranked = sorted(DRUG_COUNTS)
    spread = [ranked[(i * COUNT_STRIDE) % len(ranked)] for i in range(len(ranked))]
    plan = []
    for start in range(0, len(lengths), BLOCK):
        chunk = lengths[start:start + BLOCK]
        counts = spread[:len(chunk)]
        patterns: list = [None] * len(chunk)
        multi = [i for i, k in enumerate(counts) if k >= 3]
        rest = [i for i, k in enumerate(counts) if k < 3]
        for group, names in ((multi, LIST_PATTERNS), (rest, PAIR_PATTERNS)):
            for j, p in enumerate(names[:len(group)]):
                patterns[group[j * len(group) // len(names)]] = p
        plan.extend(zip(chunk, counts, patterns))
    return [plan[int(i)] for i in rng.permutation(len(plan))]


def write_corpus(directory: str, seed: int, name: str, lengths: list[int],
                 lex: Lexicon) -> int:
    """Write one corpus as DDI-style XML files; returns the pair count."""
    rng = _stream(seed, name)
    os.makedirs(directory, exist_ok=True)
    plan = _plan(lengths, rng)
    n_pairs = 0
    for d in range(0, len(plan), SENTENCES_PER_DOC):
        doc_id = f"DDI-{name}.d{d // SENTENCES_PER_DOC}"
        lines = ['<?xml version="1.0" encoding="UTF-8"?>',
                 f"<document id={quoteattr(doc_id)}>"]
        for s, (length, n_drugs, pattern) in enumerate(
                plan[d:d + SENTENCES_PER_DOC]):
            sid = f"{doc_id}.s{s}"
            text, mentions, negative = _sentence(rng, lex, length, n_drugs, pattern)
            lines.append(f"  <sentence id={quoteattr(sid)} text={quoteattr(text)}>")
            for e, (start, end, surface) in enumerate(mentions):
                lines.append(
                    f'    <entity id="{sid}.e{e}" charOffset="{start}-{end}" '
                    f'type="drug" text={quoteattr(surface)}/>')
            p = 0
            for x in range(len(mentions)):
                for y in range(x + 1, len(mentions)):
                    attrs = 'ddi="false"'
                    if (x, y) not in negative and rng.random() < POSITIVE_RATE:
                        kind = POSITIVE_TYPES[int(rng.choice(
                            len(POSITIVE_TYPES), p=POSITIVE_WEIGHTS))]
                        attrs = f'ddi="true" type="{kind}"'
                    lines.append(f'    <pair id="{sid}.p{p}" e1="{sid}.e{x}" '
                                 f'e2="{sid}.e{y}" {attrs}/>')
                    p += 1
            n_pairs += p
            lines.append("  </sentence>")
        lines.append("</document>")
        path = os.path.join(directory, f"{doc_id}.xml")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return n_pairs
