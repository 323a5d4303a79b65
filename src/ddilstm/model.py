"""The three classifier variants and their serialization.

A collated, padding-free batch is scored in one tape record per layer:
`embed`, one `bilstm_forward` per stack, the pooling, and `output_layer`,
which joins the pooled features into h2, drops out when training,
squashes (h3 = tanh(h2)) and scores h3 W_o + b_o. Training records the
loss as one more op: 5 records per step, 7 for joint. `VARIANTS` says
what sets the variants apart: their poolings, one BiLSTM stack each,
whose 2N-wide outputs h2 joins in that order, and their defaults.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from types import SimpleNamespace
from typing import Optional, Sequence, get_type_hints

import numpy as np

from . import rng as rng_mod
from .autodiff import Parameter, ShapeMismatch, Tensor, record_op, softmax
from .features import (Batch, InstanceFeatures, PositionVocab, Vocabulary, collate, embed,
                       random_table)
from .files import check_fields, json_document, json_sha256, write_file
from .labels import NUM_CLASSES
from .pooling import attentive_pool, max_pool
from .recurrent import BiLstmStack, bilstm_forward

# each variant's poolings, in pooled order, and its defaults where they
# differ from ModelConfig's
VARIANTS = {"b-lstm": (("max",), {}),
            "ab-lstm": (("attentive",), {"l2": 0.0001}),
            "joint": (("max", "attentive"), {"hidden": 150, "keep_prob": 1.0, "l2": 0.0001})}

MANIFEST_FILE = "manifest"
PARAMS_FILE = "params.bin"
VOCAB_FILE = "vocab.json"

# instances scored per forward pass by `predict`
PREDICT_CHUNK = 200
# `parameter_count`'s bound: 20 GiB of float32 training state (values,
# gradients, Adam's two moments and the best epoch's copy of each)
MAX_PARAMS = 2**30


@dataclass
class ModelConfig:
    """Hyperparameters of one variant; the two position embeddings share
    `pos_dim`."""

    variant: str = "b-lstm"
    hidden: int = 200
    word_dim: int = 100
    pos_dim: int = 10
    keep_prob: float = 0.7
    l2: float = 0.001

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; "
                             f"pick one of {tuple(VARIANTS)}")
        if not 0.0 < self.keep_prob <= 1.0:
            raise ValueError("keep_prob must be in (0, 1]")
        if min(self.hidden, self.word_dim, self.pos_dim) < 1:
            raise ValueError("dims must be positive")
        if not 0.0 <= self.l2 < np.inf:
            raise ValueError(f"l2 must be a finite number >= 0, got {self.l2}")

    @property
    def input_dim(self) -> int:
        return self.word_dim + 2 * self.pos_dim

    @property
    def poolings(self) -> tuple[str, ...]:
        return VARIANTS[self.variant][0]

    @property
    def pooled_width(self) -> int:
        return 2 * self.hidden * len(self.poolings)


def default_config(variant: str) -> ModelConfig:
    """ModelConfig with the variant's defaults (`VARIANTS`)."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    return ModelConfig(variant=variant, **VARIANTS[variant][1])


def _uniform(rng: np.random.Generator, shape, name: str) -> Parameter:
    """Weights drawn uniform(-1/sqrt(fan), 1/sqrt(fan)), fan = shape[0]."""
    bound = 1.0 / np.sqrt(shape[0])
    return Parameter(rng.uniform(-bound, bound, size=shape), name=name)


@dataclass(eq=False)
class ModelParams:
    """Every learnable tensor of one model instance.

    `w_a` is the attention scoring vector (None without attentive
    pooling); W_o and b_o map the pooled feature to class scores.
    """

    word_emb: Parameter
    p1_emb: Parameter
    p2_emb: Parameter
    stacks: list[BiLstmStack]
    w_a: Optional[Parameter]
    W_o: Parameter
    b_o: Parameter

    def named_parameters(self) -> list[tuple[str, Parameter]]:
        """(name, parameter) pairs in a fixed order, the checkpoint's."""
        params = [self.word_emb, self.p1_emb, self.p2_emb]
        for stack in self.stacks:
            params += stack.parameters()
        if self.w_a is not None:
            params.append(self.w_a)
        params += [self.W_o, self.b_o]
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
                seed: int = 0, word_matrix: Optional[Parameter] = None,
                ) -> ModelParams:
    """Fresh parameters for one variant; all randomness from the seed."""
    return _assemble(cfg, vocab_size, position_size,
                     rng_mod.named_stream(seed, "init"), word_matrix)


def parameter_count(cfg: ModelConfig, vocab_size: int, position_size: int) -> int:
    """How many floats `_assemble` allocates; ValueError above MAX_PARAMS."""
    h = cfg.hidden
    count = (vocab_size * cfg.word_dim + 2 * position_size * cfg.pos_dim
             + len(cfg.poolings) * 2 * (4 * h * (cfg.input_dim + h + 1) + 2 * h)
             + 2 * h * ("attentive" in cfg.poolings) + (cfg.pooled_width + 1) * NUM_CLASSES)
    if count > MAX_PARAMS:
        raise ValueError(f"model has {count} parameters, above the bound {MAX_PARAMS}")
    return count


def _assemble(cfg, vocab_size, position_size, stream, word_matrix=None) -> ModelParams:
    """Every parameter, drawn from `stream` in checkpoint order."""
    parameter_count(cfg, vocab_size, position_size)
    word = word_matrix if word_matrix is not None else random_table(
        vocab_size, cfg.word_dim, stream, "embed.word")
    if word.data.shape != (vocab_size, cfg.word_dim):
        raise ValueError(f"word matrix shape {word.data.shape} vs "
                         f"({vocab_size}, {cfg.word_dim})")
    p1 = random_table(position_size, cfg.pos_dim, stream, "embed.p1")
    p2 = random_table(position_size, cfg.pos_dim, stream, "embed.p2")

    stacks = [BiLstmStack(cfg.hidden, cfg.input_dim, stream, name=f"stack{i}")
              for i in range(len(cfg.poolings))]
    w_a = (_uniform(stream, (2 * cfg.hidden,), "attention.w_a")
           if "attentive" in cfg.poolings else None)
    W_o = _uniform(stream, (cfg.pooled_width, NUM_CLASSES), "output.W_o")
    b_o = Parameter(np.zeros(NUM_CLASSES), name="output.b_o", weight_decay=False)
    return ModelParams(word, p1, p2, stacks, w_a, W_o, b_o)


def output_layer(pooled: Sequence[Tensor], drop: Optional[np.ndarray],
                 W_o: Tensor, b_o: Tensor) -> Tensor:
    """(B, C) scores tanh(h2 * drop) @ W_o + b_o in one tape op: h2 joins
    the (B, k) `pooled` tensors end to end, and `drop` is the (B, width)
    inverted-dropout scale, None at inference."""
    shapes = [p.data.shape for p in pooled]
    rows, width = shapes[0][:1], sum(s[-1] for s in shapes)
    if ({s[:-1] for s in shapes} != {rows} or b_o.data.ndim != 1
            or W_o.data.shape != (width, *b_o.data.shape)
            or drop is not None and drop.shape != (*rows, width)):
        raise ShapeMismatch(f"output layer: pooled {shapes}, W_o {W_o.shape}, "
                            f"b_o {b_o.shape}")
    h3 = np.concatenate([p.data for p in pooled], axis=1)
    if drop is not None:
        h3 *= drop
    np.tanh(h3, out=h3)

    def grad_fn(g):
        d = g @ W_o.data.T
        d *= 1.0 - h3 * h3
        if drop is not None:
            d *= drop
        parts = np.split(d, np.cumsum([s[1] for s in shapes])[:-1], axis=1)
        return (*[part.copy() for part in parts], h3.T @ g, g.sum(axis=0))

    return record_op("output_layer", Tensor(h3 @ W_o.data + b_o.data), (*pooled, W_o, b_o),
                     grad_fn)


def scores(params: ModelParams, cfg: ModelConfig, batch: Batch,
           dropout_rng: Optional[np.random.Generator] = None,
           ) -> tuple[Tensor, Optional[Tensor]]:
    """(B, C) class scores of a batch, and its flat (T,) attention weights,
    each instance's over its own tokens, where the variant has them.

    Dropout hits only the pooled feature h2, and only given a dropout
    stream and keep_prob < 1, drawing one (B, width) block in batch order;
    without a stream (inference) or at keep_prob == 1 they are bit-identical.
    """
    lengths = batch.lengths
    X = embed(batch, params.word_emb, params.p1_emb, params.p2_emb)

    alpha, pooled = None, []
    for stack, pooling in zip(params.stacks, cfg.poolings):
        h = bilstm_forward(stack, X, lengths)
        if pooling == "max":
            pooled.append(max_pool(h, lengths))
        else:
            z_att, alpha = attentive_pool(h, params.w_a, lengths)
            pooled.append(z_att)

    drop = None
    if dropout_rng is not None and cfg.keep_prob < 1.0:
        keep = dropout_rng.random((len(lengths), cfg.pooled_width)) < cfg.keep_prob
        # inverted scaling: inference needs no correction
        drop = (keep / cfg.keep_prob).astype(pooled[0].data.dtype)

    return output_layer(pooled, drop, params.W_o, params.b_o), alpha


def forward(params: ModelParams, cfg: ModelConfig,
            f: InstanceFeatures) -> tuple[Tensor, Optional[Tensor]]:
    """Class probabilities of one instance, and its attention weights.

    The probabilities are a float64 softmax of the scores, taken off the
    tape: nothing backpropagates through them.
    """
    s, alpha = scores(params, cfg, collate([f]))
    return Tensor(softmax(s.data[0]), dtype=np.float64), alpha


def predict(params: ModelParams, cfg: ModelConfig,
            feats: Sequence[InstanceFeatures],
            ) -> tuple[list[int], list[Optional[list[float]]]]:
    """Argmax classes, and each instance's attention weights over its
    tokens (None without attention), PREDICT_CHUNK instances at a time."""
    preds, alphas = [], []
    for start in range(0, len(feats), PREDICT_CHUNK):
        batch = collate(feats[start:start + PREDICT_CHUNK])
        s, alpha = scores(params, cfg, batch)
        preds += np.argmax(s.data, axis=1).tolist()
        alphas += ([None] * len(s.data) if alpha is None else [
            a.tolist() for a in np.split(alpha.data, np.cumsum(batch.lengths)[:-1])])
    return preds, alphas


def save_checkpoint(directory, params: ModelParams, cfg: ModelConfig,
                    vocab: Vocabulary, pv: PositionVocab) -> None:
    """Write a flat little-endian float32 parameter blob, the vocabulary,
    and last the manifest, each whole or not at all (`files.write_file`).

    The manifest lists each parameter's name and shape in blob order and
    holds the sha256 of the blob, of the vocabulary file and of its config
    (`files.json_sha256`).
    """
    os.makedirs(directory, exist_ok=True)
    named = params.named_parameters()
    blob = b"".join(np.ascontiguousarray(p.data, dtype="<f4").tobytes() for _, p in named)
    vocab_bytes = json.dumps({"words": vocab.tokens(),
                              "position_radius": pv.radius}).encode("utf-8")
    config = asdict(cfg)
    manifest = {
        "config": config,
        "params": [{"name": name, "shape": list(p.data.shape)} for name, p in named],
        "params_sha256": hashlib.sha256(blob).hexdigest(),
        "vocab_sha256": hashlib.sha256(vocab_bytes).hexdigest(),
        "config_sha256": json_sha256(config),
    }
    for fname, payload in ((PARAMS_FILE, blob), (VOCAB_FILE, vocab_bytes),
                           (MANIFEST_FILE, json.dumps(manifest, indent=1).encode("utf-8"))):
        write_file(os.path.join(directory, fname), [payload])


def _check_digest(manifest: dict, key: str, manifest_path, digest: str, named) -> None:
    """Refuse `named` unless `digest` is the manifest's `key`, present."""
    if key not in manifest:
        raise ValueError(f"{manifest_path}: {key}: missing; a checkpoint saved "
                         "without it must be retrained")
    if digest != manifest[key]:
        raise ValueError(f"{named}: does not match the manifest's {key}")


@contextmanager
def _naming(where: str):
    """Start the message of a ValueError raised inside with `where`."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def load_checkpoint(directory) -> tuple[ModelParams, ModelConfig, Vocabulary,
                                        PositionVocab]:
    """Rebuild a model bit-exactly from a checkpoint directory.

    Any malformed manifest, vocabulary or blob raises ValueError naming
    its file, as does a vocabulary, blob or config whose sha256 is
    not the manifest's, a blob holding NaN or Inf, or a checkpoint of an
    older layout; a missing or unreadable file raises OSError.
    """
    manifest_path, vocab_path, params_path = (
        os.path.join(directory, name) for name in (MANIFEST_FILE, VOCAB_FILE, PARAMS_FILE))
    manifest = json_document(manifest_path, {"config": dict, "params": list,
                                             "params_sha256": str})
    check_fields(manifest["config"], get_type_hints(ModelConfig),
                 f"{manifest_path}: config", closed=True)
    for k, entry in enumerate(manifest["params"]):
        check_fields(entry, {"name": str, "shape": list[int]},
                     f"{manifest_path}: params[{k}]")
    vocab_blob = json_document(vocab_path, {"words": list[str], "position_radius": int})

    with _naming(f"{manifest_path}: config"):
        cfg = ModelConfig(**manifest["config"])
    words = vocab_blob["words"]
    vocab = Vocabulary(words[1:])  # UNK is re-reserved by the constructor
    if vocab.tokens() != words:
        raise ValueError(f"{vocab_path}: words: not <unk> then distinct words; "
                         "a checkpoint with a <pad> row must be retrained")
    with _naming(f"{vocab_path}: position_radius"):
        pv = PositionVocab(vocab_blob["position_radius"])
    with open(vocab_path, "rb") as fh:
        _check_digest(manifest, "vocab_sha256", manifest_path,
                      hashlib.sha256(fh.read()).hexdigest(), vocab_path)

    # the blob overwrites every parameter, so nothing is drawn
    no_draws = SimpleNamespace(uniform=lambda low, high, size: np.zeros(size, "f4"))
    with _naming(manifest_path):
        params = _assemble(cfg, len(vocab), len(pv), no_draws)
    entries = params.named_parameters()
    listed = [(e["name"], tuple(e["shape"])) for e in manifest["params"]]
    if [(n, p.data.shape) for n, p in entries] != listed:
        raise ValueError(f"{manifest_path}: parameter list does not match this build")

    with open(params_path, "rb") as fh:
        blob = fh.read()
    if hashlib.sha256(blob).hexdigest() != manifest["params_sha256"]:
        raise ValueError(f"{params_path}: does not match the manifest's sha256")
    raw = np.frombuffer(blob, dtype="<f4")
    expected = sum(p.data.size for _, p in entries)
    if raw.size != expected:
        raise ValueError(f"{params_path}: holds {raw.size} floats, "
                         f"the manifest expects {expected}")
    if not np.isfinite(raw).all():
        raise ValueError(f"{params_path}: holds non-finite floats")
    _check_digest(manifest, "config_sha256", manifest_path,
                  json_sha256(manifest["config"]), f"{manifest_path}: config")
    ends = np.cumsum([p.data.size for _, p in entries])[:-1]
    for (_, p), values in zip(entries, np.split(raw, ends)):
        p.data[...] = values.reshape(p.data.shape)
    return params, cfg, vocab, pv
