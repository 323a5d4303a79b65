"""Collapse per-token encoder outputs into one fixed-length feature.

Both poolings reduce a time-major (L, B, k) batch over axis 0, the time
axis, to (B, k) in one tape op. Max pooling keeps the per-dimension
maximum over real tokens; attentive pooling computes softmax weights
from tanh-squashed features and returns the weighted sum together with
the weights themselves (kept around for heatmap export).
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, record_op, softmax


def _resolve_mask(Z: Tensor, mask) -> np.ndarray:
    if Z.data.ndim != 3:
        raise ValueError(f"expected (L, B, k) input, got {Z.shape}")
    shape = Z.data.shape[:2]
    keep = np.asarray(mask, dtype=bool)
    if keep.shape != shape:
        raise ValueError(f"mask shape {keep.shape} vs {shape} rows")
    if not keep.any(axis=0).all():
        raise ValueError("all rows masked: nothing to pool")
    return keep


def max_pool(Z: Tensor, mask) -> Tensor:
    """Per-dimension maximum over the unmasked rows of axis 0: (L, B, k)
    to (B, k).

    Gradient flows only to the winning row of each dimension, first
    occurrence on ties, so training stays deterministic.
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


def attentive_pool(Z: Tensor, w_a: Tensor, mask) -> tuple[Tensor, Tensor]:
    """Softmax-weighted sum over axis 0; returns (pooled, weights).

    Scores are w_a . tanh(Z_t); an (L, B, k) batch pools to (B, k) with
    (L, B) weights. Masked rows get weight exactly 0 and each column's
    weights over real tokens form a probability vector, normalized in
    float64. The weights are returned for inspection and carry no
    gradient; the pooled vector is one fused tape op.
    """
    keep = _resolve_mask(Z, mask)
    squashed = np.tanh(Z.data)
    alpha64 = softmax(np.where(keep, squashed @ w_a.data, -np.inf), axis=0)
    alpha = alpha64.astype(Z.data.dtype)
    pooled = Tensor(np.einsum("tb,tbk->bk", alpha, Z.data))
    z_data, w_data = Z.data, w_a.data

    def grad_fn(g):
        d_alpha = np.einsum("tbk,bk->tb", z_data, g).astype(np.float64)
        d_scores = (alpha64 * (d_alpha - (alpha64 * d_alpha).sum(axis=0))).astype(g.dtype)
        d_squashed = d_scores[..., None] * (1.0 - squashed * squashed)
        dz = alpha[..., None] * g + d_squashed * w_data
        return dz, np.tensordot(d_scores, squashed, axes=d_scores.ndim)

    return record_op(pooled, (Z, w_a), grad_fn), Tensor(alpha)
