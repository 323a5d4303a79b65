"""The three classifier variants and their serialization.

All variants share the same skeleton: embed tokens and distances, encode
with one or two bidirectional LSTM stacks, pool to a fixed vector h2,
optionally drop out, squash (h3 = tanh(h2)) and score through a single
affine layer. The same code scores one instance or a collated time-major
batch, one tape op per layer; training takes its loss from the scores.

    b-lstm   one stack, max pooling           h2 width 2N
    ab-lstm  one stack, attentive pooling     h2 width 2N
    joint    two stacks, max + attentive      h2 width 4N
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from . import rng as rng_mod
from .autodiff import (
    Parameter,
    Tensor,
    affine,
    concat,
    current_dtype,
    mul,
    softmax_vec,
    tanh,
)
from .features import (
    EmbeddingMatrix,
    InstanceFeatures,
    PositionVocab,
    Vocabulary,
    collate,
    embed,
)
from .labels import NUM_CLASSES
from .pooling import AttentionParams, attentive_pool, max_pool
from .recurrent import BiLstmStack, bilstm_forward

VARIANTS = ("b-lstm", "ab-lstm", "joint")

MANIFEST_FILE = "manifest"
PARAMS_FILE = "params.bin"
VOCAB_FILE = "vocab.json"

# instances scored per forward pass by `predict`
PREDICT_CHUNK = 200


@dataclass
class ModelConfig:
    variant: str = "b-lstm"
    hidden: int = 200
    word_dim: int = 100
    p1_dim: int = 10
    p2_dim: int = 10
    n_classes: int = NUM_CLASSES
    keep_prob: float = 0.7
    l2: float = 0.001

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; pick one of {VARIANTS}")
        if not 0.0 < self.keep_prob <= 1.0:
            raise ValueError("keep_prob must be in (0, 1]")
        if self.n_classes != NUM_CLASSES:
            raise ValueError(f"this task has {NUM_CLASSES} classes")
        if min(self.hidden, self.word_dim, self.p1_dim, self.p2_dim) < 1:
            raise ValueError("dims must be positive")

    @property
    def input_dim(self) -> int:
        return self.word_dim + self.p1_dim + self.p2_dim

    @property
    def pooled_width(self) -> int:
        return 4 * self.hidden if self.variant == "joint" else 2 * self.hidden


def default_config(variant: str) -> ModelConfig:
    """Per-variant defaults: hidden size and regularization strengths."""
    if variant == "b-lstm":
        return ModelConfig(variant=variant, hidden=200, keep_prob=0.7, l2=0.001)
    if variant == "ab-lstm":
        return ModelConfig(variant=variant, hidden=200, keep_prob=0.7, l2=0.0001)
    if variant == "joint":
        return ModelConfig(variant=variant, hidden=150, keep_prob=1.0, l2=0.0001)
    raise ValueError(f"unknown variant {variant!r}")


class OutputParams:
    """Final affine map from the pooled feature to class scores."""

    def __init__(self, width: int, n_classes: int, rng: np.random.Generator,
                 name: str = "output"):
        bound = 1.0 / np.sqrt(width)
        dt = current_dtype()
        self.W_o = Parameter(
            rng.uniform(-bound, bound, size=(width, n_classes)).astype(dt),
            name=f"{name}.W_o",
        )
        self.b_o = Parameter(np.zeros(n_classes, dtype=dt), name=f"{name}.b_o",
                             weight_decay=False)

    def parameters(self) -> list[Parameter]:
        return [self.W_o, self.b_o]


class ModelParams:
    """Every learnable tensor of one model instance, in a fixed order."""

    def __init__(self, word_emb: EmbeddingMatrix, p1_emb: EmbeddingMatrix,
                 p2_emb: EmbeddingMatrix, stacks: list[BiLstmStack],
                 attention: Optional[AttentionParams], out: OutputParams):
        self.word_emb = word_emb
        self.p1_emb = p1_emb
        self.p2_emb = p2_emb
        self.stacks = stacks
        self.attention = attention
        self.out = out

    def named_parameters(self) -> list[tuple[str, Parameter]]:
        params: list[Parameter] = []
        for m in (self.word_emb, self.p1_emb, self.p2_emb):
            params.append(m.param)
        for stack in self.stacks:
            params.extend(stack.parameters())
        if self.attention is not None:
            params.extend(self.attention.parameters())
        params.extend(self.out.parameters())
        return [(p.name, p) for p in params]

    def zero_grads(self) -> None:
        for _, p in self.named_parameters():
            p.zero_grad()

    def state_copy(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        for name, p in self.named_parameters():
            p.data[...] = state[name]


def build_model(cfg: ModelConfig, vocab_size: int, position_size: int,
                seed: int = 0, word_matrix: Optional[EmbeddingMatrix] = None,
                ) -> ModelParams:
    """Fresh parameters for one variant; all randomness from the seed."""
    stream = rng_mod.named_stream(seed, "init")
    word = word_matrix if word_matrix is not None else EmbeddingMatrix.random(
        vocab_size, cfg.word_dim, stream, name="embed.word")
    if word.param.data.shape != (vocab_size, cfg.word_dim):
        raise ValueError(
            f"word matrix shape {word.param.data.shape} vs "
            f"({vocab_size}, {cfg.word_dim})"
        )
    p1 = EmbeddingMatrix.random(position_size, cfg.p1_dim, stream, name="embed.p1")
    p2 = EmbeddingMatrix.random(position_size, cfg.p2_dim, stream, name="embed.p2")

    n_stacks = 2 if cfg.variant == "joint" else 1
    stacks = [BiLstmStack(cfg.hidden, cfg.input_dim, stream, name=f"stack{i}")
              for i in range(n_stacks)]
    attention = None
    if cfg.variant in ("ab-lstm", "joint"):
        attention = AttentionParams(2 * cfg.hidden, stream)
    out = OutputParams(cfg.pooled_width, cfg.n_classes, stream)
    return ModelParams(word, p1, p2, stacks, attention, out)


def scores(params: ModelParams, cfg: ModelConfig, f,
           training: bool = False,
           dropout_rng: Optional[np.random.Generator] = None,
           ) -> tuple[Tensor, Optional[Tensor]]:
    """Class scores (and attention weights where the variant has them):
    (C,) and (m,) for one InstanceFeatures, (B, C) and (L, B) for a Batch.

    Dropout hits only the pooled feature h2, and only when training with
    keep_prob < 1, drawing one (B, width) block in batch order; inference
    and keep_prob == 1 are bit-identical.
    """
    mask = f.mask
    X = embed(f, params.word_emb, params.p1_emb, params.p2_emb)

    alpha = None
    if cfg.variant == "b-lstm":
        h2 = max_pool(bilstm_forward(params.stacks[0], X, mask), mask)
    elif cfg.variant == "ab-lstm":
        h2, alpha = attentive_pool(bilstm_forward(params.stacks[0], X, mask),
                                   params.attention, mask)
    else:
        z_max = max_pool(bilstm_forward(params.stacks[0], X, mask), mask)
        z_att, alpha = attentive_pool(bilstm_forward(params.stacks[1], X, mask),
                                      params.attention, mask)
        h2 = concat(z_max, z_att)

    if training and cfg.keep_prob < 1.0:
        if dropout_rng is None:
            raise ValueError("training with dropout needs a dropout stream")
        keep = dropout_rng.random(h2.data.shape) < cfg.keep_prob
        # inverted scaling: inference needs no correction
        drop = Tensor((keep / cfg.keep_prob).astype(h2.data.dtype))
        h2 = mul(h2, drop)

    return affine(tanh(h2), params.out.W_o, params.out.b_o), alpha


def forward(params: ModelParams, cfg: ModelConfig, f: InstanceFeatures,
            training: bool = False,
            dropout_rng: Optional[np.random.Generator] = None,
            ) -> tuple[Tensor, Optional[Tensor]]:
    """Class probabilities of one instance, and its attention weights."""
    s, alpha = scores(params, cfg, f, training=training, dropout_rng=dropout_rng)
    return softmax_vec(s), alpha


def predict(params: ModelParams, cfg: ModelConfig,
            feats: Sequence[InstanceFeatures],
            ) -> tuple[list[int], list[Optional[list[float]]]]:
    """Argmax classes, and each instance's attention weights over its
    tokens (None without attention), PREDICT_CHUNK instances at a time."""
    preds, alphas = [], []
    for start in range(0, len(feats), PREDICT_CHUNK):
        chunk = feats[start:start + PREDICT_CHUNK]
        s, alpha = scores(params, cfg, collate(chunk))
        preds += np.argmax(s.data, axis=1).tolist()
        alphas += [None if alpha is None else alpha.data[:f.length, b].tolist()
                   for b, f in enumerate(chunk)]
    return preds, alphas


def predict_class(probs: Tensor) -> int:
    """Argmax class id; ties go to the lowest id."""
    return int(np.argmax(probs.data))


def _manifest_dict(cfg: ModelConfig, params: ModelParams) -> dict:
    return {
        "variant": cfg.variant,
        "config": asdict(cfg),
        "params": [
            {"name": name, "shape": list(p.data.shape)}
            for name, p in params.named_parameters()
        ],
    }


def save_checkpoint(directory, params: ModelParams, cfg: ModelConfig,
                    vocab: Vocabulary, pv: PositionVocab) -> None:
    """Write manifest + flat little-endian float32 parameter blob.

    The write is staged through temp files and renamed so a crash never
    leaves a half-written checkpoint behind.
    """
    os.makedirs(directory, exist_ok=True)
    manifest = _manifest_dict(cfg, params)
    blob = b"".join(
        np.ascontiguousarray(p.data, dtype="<f4").tobytes()
        for _, p in params.named_parameters()
    )
    vocab_blob = {"words": vocab.tokens(), "position_radius": pv.radius}
    for fname, payload in (
        (MANIFEST_FILE, json.dumps(manifest, indent=1).encode("utf-8")),
        (PARAMS_FILE, blob),
        (VOCAB_FILE, json.dumps(vocab_blob).encode("utf-8")),
    ):
        fd, tmp = tempfile.mkstemp(dir=directory)
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, os.path.join(directory, fname))


def load_checkpoint(directory) -> tuple[ModelParams, ModelConfig, Vocabulary,
                                        PositionVocab]:
    """Rebuild a model bit-exactly from a checkpoint directory."""
    with open(os.path.join(directory, MANIFEST_FILE), encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(os.path.join(directory, VOCAB_FILE), encoding="utf-8") as fh:
        vocab_blob = json.load(fh)
    cfg = ModelConfig(**manifest["config"])
    words = vocab_blob["words"]
    vocab = Vocabulary(words[2:])  # PAD/UNK are re-reserved by the constructor
    if vocab.tokens() != words:
        raise ValueError("vocabulary in checkpoint is not in id order")
    pv = PositionVocab(vocab_blob["position_radius"])

    params = build_model(cfg, len(vocab), len(pv), seed=0)
    entries = params.named_parameters()
    listed = [(e["name"], tuple(e["shape"])) for e in manifest["params"]]
    if [(n, p.data.shape) for n, p in entries] != listed:
        raise ValueError("manifest parameter list does not match this build")

    raw = np.fromfile(os.path.join(directory, PARAMS_FILE), dtype="<f4")
    expected = sum(p.data.size for _, p in entries)
    if raw.size != expected:
        raise ValueError(
            f"params.bin holds {raw.size} floats, manifest expects {expected}"
        )
    offset = 0
    for _, p in entries:
        n = p.data.size
        p.data[...] = raw[offset:offset + n].reshape(p.data.shape).astype(p.data.dtype)
        offset += n
    return params, cfg, vocab, pv
