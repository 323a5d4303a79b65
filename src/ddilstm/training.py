"""Cross-entropy training with Adam, minibatches and epoch selection.

Each epoch shuffles under a named stream and collates every batch into
time-major (L, B) arrays padded to its longest sentence. The model scores
the whole batch in one forward pass; the loss is taken from the (B, C)
scores by one fused softmax-cross-entropy op, averaged over the batch,
and one Adam step follows (L2 enters as a gradient term on weight
matrices only). A small held-out slice is scored after every epoch and
the parameters of the best held-out epoch are what the caller gets back.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from . import evaluation, rng as rng_mod
from .autodiff import Parameter, ShapeMismatch, Tape, Tensor, record_op
from .features import InstanceFeatures, collate
from .model import ModelConfig, ModelParams, predict, scores


class TrainingDiverged(RuntimeError):
    """Loss went non-finite; carries the epoch/batch where it happened."""


@dataclass
class TrainConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 200
    max_epochs: int = 10
    seed: int = 0
    val_fraction: float = 0.05

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("beta1/beta2 must lie in (0, 1)")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in [0, 1)")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")


def softmax_cross_entropy(scores: Tensor, labels) -> Tensor:
    """Mean of logsumexp(s) - s_y over the rows of (B, C) scores.

    Equals -log softmax(s)_y without flooring the probability, and its
    gradient (softmax(s) - onehot(y)) / B is non-zero for every row whose
    label does not hold all the mass. Exponentials are taken in float64.
    """
    s = scores.data.astype(np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if s.ndim != 2 or y.shape != s.shape[:1]:
        raise ShapeMismatch(f"{y.size} labels for scores of shape {scores.shape}")
    if y.size and (y.min() < 0 or y.max() >= s.shape[1]):
        raise ValueError(f"label out of range [0, {s.shape[1]})")
    shifted = s - s.max(axis=1, keepdims=True)
    log_total = np.log(np.exp(shifted).sum(axis=1))
    picked = (np.arange(y.size), y)
    out = Tensor(np.asarray(np.mean(log_total - shifted[picked]),
                            dtype=scores.data.dtype))

    def grad_fn(g):
        d = np.exp(shifted - log_total[:, None])
        d[picked] -= 1.0
        d *= float(g) / y.size
        return (d.astype(g.dtype),)

    return record_op(out, (scores,), grad_fn)


class AdamState:
    """First/second moment accumulators mirroring the parameter shapes."""

    def __init__(self, named_params: Sequence[tuple[str, Parameter]]):
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in named_params}
        self.v = {name: np.zeros_like(p.data) for name, p in named_params}


def adam_step(state: AdamState, named_params: Sequence[tuple[str, Parameter]],
              cfg: TrainConfig, l2: float = 0.0) -> None:
    """One update over every parameter that received a gradient."""
    state.t += 1
    t = state.t
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    stepped = False
    for name, p in named_params:
        if p.grad is None:
            continue
        stepped = True
        g = p.grad.astype(np.float64)
        if l2 and p.weight_decay:
            g = g + l2 * p.data.astype(np.float64)
        m = state.m[name].astype(np.float64)
        v = state.v[name].astype(np.float64)
        m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
        state.m[name] = m.astype(p.data.dtype)
        state.v[name] = v.astype(p.data.dtype)
        update = cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
        p.data -= update.astype(p.data.dtype)
    if not stepped:
        raise ValueError("adam_step called with no gradients populated")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    heldout_p: float
    heldout_r: float
    heldout_f1: float


@dataclass
class TrainResult:
    params: ModelParams
    log: list[EpochRecord]
    best_epoch: int
    n_heldout: int


def select_epoch(log: Sequence[EpochRecord]) -> int:
    """Index of the best held-out micro-F1; earliest epoch wins ties."""
    if not log:
        raise ValueError("empty training log")
    best = 0
    for i, rec in enumerate(log):
        if rec.heldout_f1 > log[best].heldout_f1:
            best = i
    return best


def _batch_loss(params: ModelParams, mcfg: ModelConfig,
                batch: Sequence[InstanceFeatures],
                dropout_rng: Optional[np.random.Generator]) -> Tensor:
    collated = collate(batch)
    s, _ = scores(params, mcfg, collated, training=True, dropout_rng=dropout_rng)
    return softmax_cross_entropy(s, collated.labels)


def _heldout_metrics(params: ModelParams, mcfg: ModelConfig,
                     heldout: Sequence[InstanceFeatures]) -> tuple[float, float, float]:
    if not heldout:
        return 0.0, 0.0, 0.0
    preds, _ = predict(params, mcfg, heldout)
    report = evaluation.evaluate([f.label for f in heldout], preds)
    return report.micro_p, report.micro_r, report.micro_f1


def train(params: ModelParams, data: Sequence[InstanceFeatures],
          cfg: TrainConfig, mcfg: ModelConfig) -> TrainResult:
    """Run the full protocol and return the best-held-out-epoch weights.

    With no held-out instances there is nothing to select on and the
    final epoch's parameters are returned instead.
    """
    if not data:
        raise ValueError("no training instances")
    split_rng = rng_mod.named_stream(cfg.seed, "split")
    shuffle_rng = rng_mod.named_stream(cfg.seed, "shuffle")
    dropout_rng = rng_mod.named_stream(cfg.seed, "dropout")

    order = split_rng.permutation(len(data))
    n_held = int(round(len(data) * cfg.val_fraction))
    held_idx = order[:n_held]
    train_idx = order[n_held:]
    if len(train_idx) == 0:
        raise ValueError("val_fraction leaves no training data")
    heldout = [data[i] for i in held_idx]
    train_set = [data[i] for i in train_idx]

    state = AdamState(params.named_parameters())
    log: list[EpochRecord] = []
    best_state = None

    for epoch in range(cfg.max_epochs):
        perm = shuffle_rng.permutation(len(train_set))
        epoch_losses = []
        for start in range(0, len(perm), cfg.batch_size):
            batch = [train_set[i] for i in perm[start:start + cfg.batch_size]]
            params.zero_grads()
            with Tape() as tape:
                loss = _batch_loss(params, mcfg, batch, dropout_rng)
            value = loss.item()
            if not math.isfinite(value):
                raise TrainingDiverged(
                    f"epoch {epoch}, batch at {start}: loss is {value}"
                )
            tape.backward(loss)
            adam_step(state, params.named_parameters(), cfg, l2=mcfg.l2)
            epoch_losses.append(value)

        p, r, f1 = _heldout_metrics(params, mcfg, heldout)
        log.append(EpochRecord(epoch, float(np.mean(epoch_losses)), p, r, f1))
        if heldout and select_epoch(log) == epoch:
            best_state = params.state_copy()

    if not heldout:
        return TrainResult(params, log, len(log) - 1, 0)
    params.load_state(best_state)
    return TrainResult(params, log, select_epoch(log), len(heldout))


def write_log(path, log: Sequence[EpochRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in log:
            fh.write(json.dumps(asdict(rec)) + "\n")
