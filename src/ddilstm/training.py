"""Cross-entropy training with Adam, minibatches and epoch selection.

Each epoch shuffles under a named stream and collates every batch into
flat arrays that pack its sentences end to end, without padding. The
model scores the whole batch in one forward pass; the loss is taken from the (B, C)
scores by one fused softmax-cross-entropy op, averaged over the batch,
and one Adam step follows (L2 enters as a gradient term on weight
matrices only). A small held-out slice is scored after every epoch and
the parameters of the best held-out epoch are what the caller gets back.
A NaN or Inf met in any step or held-out scoring raises TrainingDiverged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import evaluation, rng as rng_mod
from .autodiff import (NonFiniteError, Parameter, ShapeMismatch, Tape, Tensor, _check_finite,
                       record_op)
from .features import InstanceFeatures, collate
from .model import ModelConfig, ModelParams, predict, scores


# Adam's moment decay rates and the denominator's stabilizer
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class TrainingDiverged(NonFiniteError):
    """A NonFiniteError in training, after `epoch E, batch at S: ` or `epoch E, held-out: `."""


@dataclass
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 200
    max_epochs: int = 10
    seed: int = 0
    val_fraction: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be a finite number > 0, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in [0, 1)")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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

    return record_op("softmax_cross_entropy", out, (scores,), grad_fn)


class AdamState:
    """First/second moment accumulators mirroring the parameter shapes."""

    def __init__(self, named_params: Sequence[tuple[str, Parameter]]):
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in named_params}
        self.v = {name: np.zeros_like(p.data) for name, p in named_params}


def adam_step(state: AdamState, named_params: Sequence[tuple[str, Parameter]],
              cfg: TrainConfig, l2: float = 0.0) -> None:
    """One update over every parameter that received a gradient; each must stay finite."""
    state.t += 1
    bc1, bc2 = 1.0 - BETA1 ** state.t, 1.0 - BETA2 ** state.t
    stepped = [(name, p) for name, p in named_params if p.grad is not None]
    if not stepped:
        raise ValueError("adam_step called with no gradients populated")
    for name, p in stepped:
        # float64 in place: each operation, and their order, as in the plain update
        g = p.grad.astype(np.float64)
        if l2 and p.weight_decay:
            g += l2 * p.data.astype(np.float64)
        m, v = state.m[name].astype(np.float64), state.v[name].astype(np.float64)
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        state.m[name][...], state.v[name][...] = m, v
        m /= bc1
        m *= cfg.lr
        v /= bc2
        np.sqrt(v, out=v)
        v += EPS
        m /= v
        p.data -= m.astype(p.data.dtype)
        _check_finite(p.data, f"parameter {name}")


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
    s, _ = scores(params, mcfg, collated, dropout_rng=dropout_rng)
    return softmax_cross_entropy(s, collated.labels)


def _heldout_metrics(params: ModelParams, mcfg: ModelConfig,
                     heldout: Sequence[InstanceFeatures]) -> tuple[float, float, float]:
    preds, _ = predict(params, mcfg, heldout)
    report = evaluation.evaluate([f.label for f in heldout], preds)
    return report["micro_p"], report["micro_r"], report["micro_f1"]


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
    if n_held == len(data):
        raise ValueError("val_fraction leaves no training data")
    heldout = [data[i] for i in order[:n_held]]
    train_set = [data[i] for i in order[n_held:]]

    state = AdamState(params.named_parameters())
    log: list[EpochRecord] = []
    best_state = None

    try:
        for epoch in range(cfg.max_epochs):
            perm = shuffle_rng.permutation(len(train_set))
            epoch_losses = []
            for start in range(0, len(perm), cfg.batch_size):
                where = f"epoch {epoch}, batch at {start}"
                batch = [train_set[i] for i in perm[start:start + cfg.batch_size]]
                params.zero_grads()
                with Tape() as tape:
                    loss = _batch_loss(params, mcfg, batch, dropout_rng)
                tape.backward(loss)
                adam_step(state, params.named_parameters(), cfg, l2=mcfg.l2)
                epoch_losses.append(loss.item())

            where = f"epoch {epoch}, held-out"
            p, r, f1 = _heldout_metrics(params, mcfg, heldout)
            log.append(EpochRecord(epoch, float(np.mean(epoch_losses)), p, r, f1))
            if heldout and select_epoch(log) == epoch:
                best_state = params.state_copy()
    except NonFiniteError as exc:
        raise TrainingDiverged(f"{where}: {exc}") from exc

    if not heldout:
        return TrainResult(params, log, len(log) - 1, 0)
    params.load_state(best_state)
    return TrainResult(params, log, select_epoch(log), len(heldout))
