"""Collapse per-token encoder outputs into one fixed-length feature.

Both poolings read a packed (T, k) batch, the B sentences' rows one
sentence after another, and reduce each sentence's own rows to one row
of a (B, k) result in one tape op. Max pooling keeps the per-dimension
maximum (`np.maximum.reduce`); attentive pooling computes softmax
weights from tanh-squashed features and returns the weighted sum (one
product `alpha @ z` per sentence) together with the weights themselves
(kept around for heatmap export).
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, record_op, segment_starts


def max_pool(Z: Tensor, lengths) -> Tensor:
    """Per-dimension maximum over each sentence's rows: (T, k) to (B, k).

    Gradient flows only to the winning row of each dimension, first
    occurrence on ties, so training stays deterministic. The winners are
    found only when a gradient arrives.
    """
    z = Z.data
    starts = segment_starts(lengths, z)
    peak = np.stack([np.maximum.reduce(z[a:e]) for a, e in zip(starts, starts + lengths)])

    def grad_fn(g):
        # each sentence's first winning row of each dimension
        winners = np.stack([a + z[a:e].argmax(axis=0)
                            for a, e in zip(starts, starts + lengths)])
        dz = np.zeros(z.shape, dtype=g.dtype)
        dz[winners, np.arange(z.shape[1])] = g
        return (dz,)

    return record_op("max_pool", Tensor(peak), (Z,), grad_fn)


def attentive_pool(Z: Tensor, w_a: Tensor, lengths) -> tuple[Tensor, Tensor]:
    """Softmax-weighted sum over each sentence's rows; returns (pooled,
    weights).

    Scores are w_a . tanh(Z_t); a (T, k) batch pools to (B, k) with (T,)
    weights, and each sentence's weights form a probability vector,
    normalized in float64. The weights are returned for inspection and
    carry no gradient; the pooled vector is one fused tape op.
    """
    z, w_data = Z.data, w_a.data
    starts = segment_starts(lengths, z)
    s = (np.tanh(z) @ w_data).astype(np.float64)
    e = np.exp(s - np.repeat(np.maximum.reduceat(s, starts), lengths))
    alpha64 = e / np.repeat(np.add.reduceat(e, starts), lengths)
    alpha = alpha64.astype(z.dtype)
    pooled = Tensor(np.stack([alpha[a:e] @ z[a:e] for a, e in zip(starts, starts + lengths)]))

    def grad_fn(g):
        g_rows = np.repeat(g, lengths, axis=0)
        d_alpha = np.einsum("tk,tk->t", z, g_rows).astype(np.float64)
        d_mix = np.repeat(np.add.reduceat(alpha64 * d_alpha, starts), lengths)
        d_scores = (alpha64 * (d_alpha - d_mix)).astype(g.dtype)
        # in place: tanh(z), taken again, becomes d_scores (1 - tanh^2) w_a
        squashed = np.tanh(z)
        d_w = d_scores @ squashed
        np.subtract(1.0, np.square(squashed, out=squashed), out=squashed)
        squashed *= d_scores[:, None]
        squashed *= w_data
        g_rows *= alpha[:, None]
        g_rows += squashed
        return g_rows, d_w

    return record_op("attentive_pool", pooled, (Z, w_a), grad_fn), Tensor(alpha)
