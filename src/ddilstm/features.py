"""Token and position-distance features, and their embedding lookup.

Each instance is described per token by three discrete features: the
word itself and its signed distances to the two target drug mentions.
`featurize` encodes a whole instance file as three flat id arrays (one
dict pass for the words, one clip for both distances) and gives each
instance views of its slice. `collate` packs instances end to end, with
no padding; `embed` concatenates each token's three embedding rows.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Sequence

import numpy as np

from .autodiff import Parameter, Tensor, record_op
from .files import text_lines

UNK_TOKEN = "<unk>"
UNK_ID = 0

# rows for unseen tokens and for fresh position/word matrices
INIT_RANGE = 0.05


class Vocabulary:
    """Dense token -> id map: UNK is 0, then the tokens in the order given."""

    def __init__(self, tokens: Iterable[str]):
        self._token_to_id = {tok: i for i, tok in
                             enumerate(dict.fromkeys(chain([UNK_TOKEN], tokens)))}

    def __len__(self) -> int:
        return len(self._token_to_id)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def lookup(self, token: str) -> int:
        return self._token_to_id.get(token, UNK_ID)

    def ids(self, tokens: Iterable[str]) -> np.ndarray:
        """`lookup` of every token, in one pass, as an int32 array."""
        return np.fromiter(map(self._token_to_id.get, tokens, repeat(UNK_ID)),
                           np.int32)

    def tokens(self) -> list[str]:
        """All tokens in id order (UNK first)."""
        return list(self._token_to_id)


def build_vocab(sentences: Sequence[Sequence[str]], min_count: int = 1) -> Vocabulary:
    """Vocabulary of tokens seen at least `min_count` times.

    Ids follow first appearance in the corpus, which keeps repeated runs
    byte-identical.
    """
    if not sentences:
        raise ValueError("build_vocab: empty corpus")
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    counts = Counter(chain.from_iterable(sentences))
    return Vocabulary(tok for tok, n in counts.items() if n >= min_count)


class PositionVocab:
    """Ids for signed word distances clamped to [-radius, radius].

    Distance d maps to id clamp(d) + radius, so the ids are 0..2 radius.
    Distances beyond the radius share the +/-radius ids.
    """

    def __init__(self, radius: int = 50):
        # at most the largest radius whose 2 radius + 1 ids len() can count
        if not 1 <= radius <= sys.maxsize // 2:
            raise ValueError(f"radius must be in [1, {sys.maxsize // 2}], got {radius}")
        self.radius = radius

    def __len__(self) -> int:
        return 2 * self.radius + 1

    def id_for(self, distance):
        """The id of one distance, or elementwise of an int array of them."""
        return self.radius + np.clip(distance, -self.radius, self.radius)


def random_table(size: int, dim: int, rng: np.random.Generator,
                 name: str) -> Parameter:
    """A (size x dim) lookup table drawn uniform(-INIT_RANGE, INIT_RANGE)."""
    return Parameter(rng.uniform(-INIT_RANGE, INIT_RANGE, size=(size, dim)),
                     name=name, weight_decay=False)


@dataclass
class InstanceFeatures:
    """Id sequences for one (sentence, drug pair) instance.

    `featurize`, their one maker, fills the three with int32 views of one
    slice of its flat arrays, at least 2 tokens long (the instance's two
    drugs); `collate` also takes plain lists.
    """

    word_ids: Sequence[int]
    p1_ids: Sequence[int]
    p2_ids: Sequence[int]
    label: int

    @property
    def length(self) -> int:
        return len(self.word_ids)


def featurize(instances: Sequence, vocab: Vocabulary,
              pv: PositionVocab) -> list[InstanceFeatures]:
    """Encode the tokens and the two signed-distance channels of every
    instance (a `corpus.RawInstance`, or anything with its `tokens`,
    `drug_a`, `drug_b`, `label` and `pair_id`), in order.

    Distances use the convention (i - drug index): negative before the
    drug, zero at it, positive after, clamped at the vocabulary radius.
    """
    columns = np.array([(len(i.tokens), i.drug_a, i.drug_b) for i in instances],
                       dtype=np.int64).reshape(-1, 3).T
    lengths, drugs = columns[0], columns[1:]
    bad = np.flatnonzero((drugs[0] < 0) | (drugs[0] >= drugs[1])
                         | (drugs[1] >= lengths))
    if bad.size:
        inst = instances[bad[0]]
        raise ValueError(
            f"instance {inst.pair_id}: drug indices ({inst.drug_a}, "
            f"{inst.drug_b}) invalid for length {len(inst.tokens)}"
        )
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    word_ids = vocab.ids(chain.from_iterable(i.tokens for i in instances))
    # each token's flat index minus the flat index of each of its drugs;
    # int32 and in place keep the transient arrays small
    dist = np.repeat((offsets[:-1] + drugs).astype(np.int32), lengths, axis=1)
    np.subtract(np.arange(offsets[-1], dtype=np.int32), dist, out=dist)
    p1_ids, p2_ids = pv.id_for(dist)
    bounds = offsets.tolist()
    return [InstanceFeatures(word_ids[s:e], p1_ids[s:e], p2_ids[s:e], inst.label)
            for inst, s, e in zip(instances, bounds, bounds[1:])]


@dataclass
class Batch:
    """Instances packed end to end: flat (T,) id arrays, one instance's
    tokens after another's, T the sum of the B `lengths`; the B labels."""

    word_ids: np.ndarray
    p1_ids: np.ndarray
    p2_ids: np.ndarray
    lengths: np.ndarray
    labels: np.ndarray


def collate(feats: Sequence[InstanceFeatures]) -> Batch:
    """Concatenate the instances' ids, in the order given."""
    if not feats:
        raise ValueError("collate needs at least one instance")

    def ids(attr):
        return np.concatenate([getattr(f, attr) for f in feats], dtype=np.int64)

    return Batch(ids("word_ids"), ids("p1_ids"), ids("p2_ids"),
                 np.array([f.length for f in feats]),
                 np.array([f.label for f in feats]))


def load_word_vectors(path, vocab: Vocabulary, dim: int,
                      rng: np.random.Generator) -> Parameter:
    """Read whitespace-separated text vectors into the `embed.word` table.

    In-vocabulary rows, `<unk>`'s row 0 included, are copied from the
    file, once each, and must be finite in the table's dtype; every row
    the file lacks keeps the small uniform noise of `random_table`. The
    table is trainable either way.
    """
    table = random_table(len(vocab), dim, rng, "embed.word")
    first = {}  # the line of each in-vocabulary token read
    for lineno, line in text_lines(path):
        token, *values = line.split() or [""]  # a line of other whitespace has no fields
        if len(values) != dim:
            raise ValueError(f"{path}:{lineno}: expected {dim} floats, got {len(values)}")
        if token in vocab:
            if first.setdefault(token, lineno) != lineno:
                raise ValueError(f"{path}:{lineno}: {token!r} repeats line {first[token]}")
            row = table.data[vocab.lookup(token)]
            try:
                # an overflow is reported below, as an infinity
                with np.errstate(over="ignore"):
                    row[...] = [float(v) for v in values]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed float") from None
            if not np.isfinite(row).all():
                raise ValueError(f"{path}:{lineno}: non-finite float")
    return table


def embed(batch: Batch, word: Parameter, p1: Parameter, p2: Parameter) -> Tensor:
    """Per-token concatenation of the three embedding rows, (T, n1+n2+n3),
    as one tape op; each table's gradient sums the rows its ids picked."""
    tables = ((word, batch.word_ids), (p1, batch.p1_ids), (p2, batch.p2_ids))
    for table, ids in tables:
        if ids.size and (ids.min() < 0 or ids.max() >= len(table.data)):
            raise ValueError(f"{table.name}: id out of range [0, {len(table.data)})")
    out = np.concatenate([table.data[ids] for table, ids in tables], axis=1)
    ends = np.cumsum([table.data.shape[1] for table, _ in tables])

    def grad_fn(g):
        grads = [np.zeros(table.data.shape, dtype=g.dtype) for table, _ in tables]
        for d, (_, ids), part in zip(grads, tables, np.split(g, ends[:-1], axis=1)):
            np.add.at(d, ids, part)
        return grads

    return record_op("embed", Tensor(out), (word, p1, p2), grad_fn)
