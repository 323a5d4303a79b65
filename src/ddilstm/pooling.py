"""Collapse per-token encoder outputs into one fixed-length feature.

Both poolings reduce over axis 0, the time axis: one (m, k) sentence
gives a (k,) feature, a time-major (L, B, k) batch gives (B, k) in one
tape op. Max pooling keeps the per-dimension maximum over real tokens;
attentive pooling computes softmax weights from tanh-squashed features
and returns the weighted sum together with the weights themselves (kept
around for heatmap export).
"""

from __future__ import annotations

import numpy as np

from .autodiff import Parameter, Tensor, current_dtype, record_op


class AttentionParams:
    """The scoring vector; its length equals the encoder output width."""

    def __init__(self, width: int, rng: np.random.Generator, name: str = "attention"):
        bound = 1.0 / np.sqrt(width)
        data = rng.uniform(-bound, bound, size=width).astype(current_dtype())
        self.w_a = Parameter(data, name=f"{name}.w_a")

    def parameters(self) -> list[Parameter]:
        return [self.w_a]


def _resolve_mask(Z: Tensor, mask) -> np.ndarray:
    if Z.data.ndim not in (2, 3):
        raise ValueError(f"expected (m, k) or (L, B, k) input, got {Z.shape}")
    shape = Z.data.shape[:-1]
    keep = np.ones(shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if keep.shape != shape:
        raise ValueError(f"mask shape {keep.shape} vs {shape} rows")
    if not keep.any(axis=0).all():
        raise ValueError("all rows masked: nothing to pool")
    return keep


def max_pool(Z: Tensor, mask=None) -> Tensor:
    """Per-dimension maximum over the unmasked rows of axis 0.

    An (m, k) matrix pools to (k,), an (L, B, k) batch to (B, k). Gradient
    flows only to the winning row of each dimension, first occurrence on
    ties, so training stays deterministic.
    """
    keep = _resolve_mask(Z, mask)
    visible = np.where(keep[..., None], Z.data, -np.inf)
    winners = np.argmax(visible, axis=0)[None]
    out = Tensor(np.take_along_axis(Z.data, winners, axis=0)[0])
    shape = Z.data.shape

    def grad_fn(g):
        dz = np.zeros(shape, dtype=g.dtype)
        np.put_along_axis(dz, winners, g[None], axis=0)
        return (dz,)

    return record_op(out, (Z,), grad_fn)


def attentive_pool(Z: Tensor, p: AttentionParams, mask=None) -> tuple[Tensor, Tensor]:
    """Softmax-weighted sum over axis 0; returns (pooled, weights).

    Scores are w_a . tanh(Z_t); an (m, k) matrix pools to (k,) with (m,)
    weights, an (L, B, k) batch to (B, k) with (L, B) weights. Masked rows
    get weight exactly 0 and each column's weights over real tokens form a
    probability vector, normalized in float64. The weights are returned
    for inspection and carry no gradient; the pooled vector is one fused
    tape op.
    """
    keep = _resolve_mask(Z, mask)
    squashed = np.tanh(Z.data)
    scores = np.where(keep, squashed @ p.w_a.data, -np.inf).astype(np.float64)
    e = np.exp(scores - scores.max(axis=0))
    alpha64 = e / e.sum(axis=0)
    alpha = alpha64.astype(Z.data.dtype)
    pooled = Tensor(np.einsum("t...,t...k->...k", alpha, Z.data))
    z_data, w_data = Z.data, p.w_a.data

    def grad_fn(g):
        d_alpha = np.einsum("t...k,...k->t...", z_data, g).astype(np.float64)
        d_scores = (alpha64 * (d_alpha - (alpha64 * d_alpha).sum(axis=0))).astype(g.dtype)
        d_squashed = d_scores[..., None] * (1.0 - squashed * squashed)
        dz = alpha[..., None] * g + d_squashed * w_data
        return dz, np.tensordot(d_scores, squashed, axes=d_scores.ndim)

    return record_op(pooled, (Z, p.w_a), grad_fn), Tensor(alpha)
