"""Token and position-distance features, and their embedding lookup.

Each instance is described per token by three discrete features: the
word itself and its signed distances to the two target drug mentions.
All three are embedded and concatenated row-wise into the encoder input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .autodiff import Parameter, Tensor, concat, current_dtype, rows

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_ID = 0
UNK_ID = 1

# rows for unseen tokens and for fresh position/word matrices
INIT_RANGE = 0.05


class Vocabulary:
    """Dense token -> id map with reserved PAD=0 and UNK=1."""

    def __init__(self, tokens: Iterable[str]):
        self._token_to_id = {PAD_TOKEN: PAD_ID, UNK_TOKEN: UNK_ID}
        for tok in tokens:
            if tok not in self._token_to_id:
                self._token_to_id[tok] = len(self._token_to_id)
        self._id_to_token = [None] * len(self._token_to_id)
        for tok, i in self._token_to_id.items():
            self._id_to_token[i] = tok

    def __len__(self) -> int:
        return len(self._token_to_id)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def lookup(self, token: str) -> int:
        return self._token_to_id.get(token, UNK_ID)

    def token(self, i: int) -> str:
        return self._id_to_token[i]

    def tokens(self) -> list[str]:
        """All tokens in id order (PAD and UNK first)."""
        return list(self._id_to_token)


def build_vocab(sentences: Sequence[Sequence[str]], min_count: int = 1) -> Vocabulary:
    """Vocabulary of tokens seen at least `min_count` times.

    Ids follow first appearance in the corpus, which keeps repeated runs
    byte-identical.
    """
    if not sentences:
        raise ValueError("build_vocab: empty corpus")
    counts: dict[str, int] = {}
    order: list[str] = []
    for sent in sentences:
        for tok in sent:
            if tok not in counts:
                order.append(tok)
            counts[tok] = counts.get(tok, 0) + 1
    return Vocabulary(tok for tok in order if counts[tok] >= min_count)


class PositionVocab:
    """Ids for signed word distances clamped to [-radius, radius].

    Distance d maps to id 1 + (clamp(d) + radius); id 0 is PAD. Distances
    beyond the radius share the +/-radius ids.
    """

    def __init__(self, radius: int = 50):
        if radius < 1:
            raise ValueError("radius must be positive")
        self.radius = radius

    def __len__(self) -> int:
        return 2 * self.radius + 2

    def id_for(self, distance: int) -> int:
        d = max(-self.radius, min(self.radius, distance))
        return 1 + d + self.radius

    @property
    def zero_id(self) -> int:
        return 1 + self.radius


@dataclass
class EmbeddingMatrix:
    """One lookup table: a (vocab size x dim) parameter plus a train flag.

    A frozen matrix still serializes with the model; it just never
    receives gradients.
    """

    param: Parameter
    trainable: bool = True

    def __post_init__(self):
        self.param.requires_grad = self.trainable

    @property
    def dim(self) -> int:
        return self.param.data.shape[1]

    @classmethod
    def random(cls, size: int, dim: int, rng: np.random.Generator,
               name: str = "embedding") -> "EmbeddingMatrix":
        if dim <= 0:
            raise ValueError("embedding dim must be positive")
        data = rng.uniform(-INIT_RANGE, INIT_RANGE, size=(size, dim))
        return cls(Parameter(data.astype(current_dtype()), name=name,
                             weight_decay=False))


@dataclass
class InstanceFeatures:
    """Id sequences for one (sentence, drug pair) instance."""

    word_ids: list[int]
    p1_ids: list[int]
    p2_ids: list[int]
    label: int
    mask: Optional[list[bool]] = field(default=None)

    @property
    def length(self) -> int:
        return len(self.word_ids)

    def __post_init__(self):
        m = len(self.word_ids)
        if m < 1:
            raise ValueError("instance must have at least one token")
        if len(self.p1_ids) != m or len(self.p2_ids) != m:
            raise ValueError("feature sequences must share one length")
        if self.mask is not None and len(self.mask) != m:
            raise ValueError("mask length must match feature length")


def featurize(tokens: Sequence[str], drug_a: int, drug_b: int, label: int,
              vocab: Vocabulary, pv: PositionVocab) -> InstanceFeatures:
    """Encode tokens and the two signed-distance channels.

    Distances use the convention (i - drug index): negative before the
    drug, zero at it, positive after, clamped at the vocabulary radius.
    """
    m = len(tokens)
    if not (0 <= drug_a < drug_b < m):
        raise ValueError(
            f"drug indices ({drug_a}, {drug_b}) invalid for length {m}"
        )
    word_ids = [vocab.lookup(t) for t in tokens]
    p1_ids = [pv.id_for(i - drug_a) for i in range(m)]
    p2_ids = [pv.id_for(i - drug_b) for i in range(m)]
    return InstanceFeatures(word_ids, p1_ids, p2_ids, label)


@dataclass
class Batch:
    """Several instances as time-major (L, B) id arrays, right-padded with
    PAD_ID to the longest, with the (L, B) token mask and the B labels."""

    word_ids: np.ndarray
    p1_ids: np.ndarray
    p2_ids: np.ndarray
    mask: np.ndarray
    labels: np.ndarray


def collate(feats: Sequence[InstanceFeatures]) -> Batch:
    """Stack unpadded instances column by column, in the order given."""
    if not feats or any(f.mask is not None for f in feats):
        raise ValueError("collate needs at least one unpadded instance")
    lengths = np.array([f.length for f in feats])
    mask = np.arange(lengths.max())[:, None] < lengths

    def ids(attr):
        out = np.full(mask.shape, PAD_ID, dtype=np.int64)
        out.T[mask.T] = np.concatenate([getattr(f, attr) for f in feats])
        return out

    return Batch(ids("word_ids"), ids("p1_ids"), ids("p2_ids"), mask,
                 np.array([f.label for f in feats]))


def load_word_vectors(path, vocab: Vocabulary, dim: int,
                      rng: np.random.Generator) -> EmbeddingMatrix:
    """Read whitespace-separated text vectors into an embedding matrix.

    In-vocabulary rows are copied from the file; everything else
    (including PAD/UNK) falls back to small uniform noise. The matrix is
    trainable either way.
    """
    matrix = rng.uniform(-INIT_RANGE, INIT_RANGE, size=(len(vocab), dim))
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split()
            if not parts:
                continue
            token, values = parts[0], parts[1:]
            if len(values) != dim:
                raise ValueError(
                    f"{path}:{lineno}: expected {dim} floats, got {len(values)}"
                )
            if token in vocab:
                try:
                    matrix[vocab.lookup(token)] = [float(v) for v in values]
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: malformed float") from None
    return EmbeddingMatrix(
        Parameter(matrix.astype(current_dtype()), name="embed.word",
                  weight_decay=False)
    )


def embed(f, mw: EmbeddingMatrix, mp1: EmbeddingMatrix,
          mp2: EmbeddingMatrix) -> Tensor:
    """Per-token concatenation of the three embedding rows: (m, n1+n2+n3)
    for one InstanceFeatures, (L, B, n1+n2+n3) for a Batch."""
    w = rows(mw.param, f.word_ids)
    p1 = rows(mp1.param, f.p1_ids)
    p2 = rows(mp2.param, f.p2_ids)
    return concat(concat(w, p1), p2)
