"""LSTM cell and the bidirectional encoder, one tape op per direction per batch.

One step computes the usual gated update

    i, f, o = sigmoid(U x + W h_prev + b)
    g       = tanh(U_g x + W_g h_prev + b_g)
    c       = c_prev * f + g * i
    h       = tanh(c) * o

The encoder reads a time-major (L, B, d) batch, or one (L, d) sentence,
whose mask marks each row's first lengths[b] steps as real. Rows are
sorted longest first, so the rows still inside their sentence at step t
are a prefix of n_t rows: the active batch shrinks as short rows end and
padded steps are never computed. The backward direction reverses each
row within its own length. X U^T for every step is one GEMM before the
time loop, which keeps only the (n_t, N) x (N, 4N) recurrent product; the
hand-derived BPTT sweep reuses the activation buffer for the gate
gradients and ends with one GEMM each for dU, dW and dX.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .autodiff import (
    Parameter,
    Tensor,
    _check_finite,
    _sigmoid,
    concat,
    current_dtype,
    record_op,
)


class LstmParams:
    """All weights of one directional cell, hidden size N over inputs of d.

    Input maps U_* are (N, d), recurrent maps W_* are (N, N), biases and
    the trainable initial states h0/c0 are length-N vectors. Matrices are
    drawn uniform(-1/sqrt(N), 1/sqrt(N)); vectors start at zero.
    """

    GATES = ("i", "f", "o", "g")

    def __init__(self, hidden: int, input_dim: int, rng: np.random.Generator,
                 name: str = "lstm"):
        self.hidden = hidden
        self.input_dim = input_dim
        bound = 1.0 / np.sqrt(hidden)
        dt = current_dtype()

        def mat(shape, label):
            data = rng.uniform(-bound, bound, size=shape).astype(dt)
            return Parameter(data, name=f"{name}.{label}")

        def vec(label):
            return Parameter(np.zeros(hidden, dtype=dt), name=f"{name}.{label}",
                             weight_decay=False)

        for gate in self.GATES:
            setattr(self, f"U_{gate}", mat((hidden, input_dim), f"U_{gate}"))
            setattr(self, f"W_{gate}", mat((hidden, hidden), f"W_{gate}"))
            setattr(self, f"b_{gate}", vec(f"b_{gate}"))
        self.h0 = vec("h0")
        self.c0 = vec("c0")

    def parameters(self) -> list[Parameter]:
        out = []
        for gate in self.GATES:
            out += [getattr(self, f"U_{gate}"), getattr(self, f"W_{gate}"),
                    getattr(self, f"b_{gate}")]
        out += [self.h0, self.c0]
        return out

    def stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(4N, d) input map, (4N, N) recurrent map and 4N bias, gates i, f, o, g."""
        return tuple(
            np.concatenate([getattr(self, f"{kind}_{gate}").data for gate in self.GATES])
            for kind in ("U", "W", "b"))


class BiLstmStack:
    """A forward cell and an independent backward cell of equal size."""

    def __init__(self, hidden: int, input_dim: int, rng: np.random.Generator,
                 name: str = "bilstm"):
        self.hidden = hidden
        self.input_dim = input_dim
        self.fwd = LstmParams(hidden, input_dim, rng, name=f"{name}.fwd")
        self.bwd = LstmParams(hidden, input_dim, rng, name=f"{name}.bwd")

    def parameters(self) -> list[Parameter]:
        return self.fwd.parameters() + self.bwd.parameters()


def _gates(z: np.ndarray) -> tuple[np.ndarray, ...]:
    n = z.shape[-1] // 4
    return tuple(z[..., k * n:(k + 1) * n] for k in range(4))


def _cell(z: np.ndarray, c_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gate equations on pre-activations z (..., 4N), gates i, f, o, g.
    Overwrites z with the gate activations; returns the new (c, h)."""
    n3 = 3 * (z.shape[-1] // 4)
    z[..., :n3] = _sigmoid(z[..., :n3])
    np.tanh(z[..., n3:], out=z[..., n3:])
    i, f, o, g = _gates(z)
    c = c_prev * f + g * i
    return c, np.tanh(c) * o


def _cell_grads(act, c_prev, c, dh, dc) -> tuple[np.ndarray, np.ndarray]:
    """Backward of `_cell` from the activations it left behind, given the
    gradients at h and c; returns those of the pre-activations and c_prev."""
    i, f, o, g = _gates(act)
    tanh_c = np.tanh(c)
    dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
    dz = np.concatenate([dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                         dh * tanh_c * o * (1.0 - o), dc * i * (1.0 - g * g)], axis=-1)
    return dz, dc * f


def _gate_param_grads(dz, x, h_prev) -> list[np.ndarray]:
    """Per-gate (dU, dW, db) from (n, 4N) pre-activation gradients."""
    parts = [np.split(a, 4) for a in (dz.T @ x, dz.T @ h_prev, dz.sum(axis=0))]
    return [part[k] for k in range(4) for part in parts]


def lstm_step(p: LstmParams, x: Tensor, h_prev: Tensor,
              c_prev: Tensor) -> tuple[Tensor, Tensor]:
    """One gated update of a (d,) input; returns the new (h, c).

    Since h and c feed different consumers, each gets its own record
    applying its slice of the cell Jacobian; the tape sums the two.
    """
    u, w, b = p.stacked()
    act = u @ x.data + w @ h_prev.data + b
    c, h = _cell(act, c_prev.data)
    _check_finite(c, "lstm_step")
    inputs = (x, h_prev, c_prev, *p.parameters()[:12])

    def grads(dh, dc):
        dz, dc_prev = _cell_grads(act, c_prev.data, c, dh, dc)
        return (u.T @ dz, w.T @ dz, dc_prev,
                *_gate_param_grads(dz[None], x.data[None], h_prev.data[None]))

    return (record_op(Tensor(h), inputs, lambda gh: grads(gh, 0.0)),
            record_op(Tensor(c), inputs, lambda gc: grads(0.0, gc)))


def lstm_sequence(p: LstmParams, X: Tensor, lengths: np.ndarray,
                  reverse: bool = False) -> Tensor:
    """Run one direction over a time-major (L, B, d) or (L, d) input.

    Row b is read at positions 0..lengths[b]-1, last to first when
    `reverse`; the (L, B, N) or (L, N) output holds each position's state
    and exact zeros at padded positions.
    """
    x3 = X.data.reshape(X.data.shape[0], -1, X.data.shape[-1])
    order = np.argsort(-lengths, kind="stable")
    sorted_len = lengths[order]
    # packed entries, time-major: step t holds the first n_t sorted rows
    t_idx, r_idx = np.nonzero(np.arange(sorted_len[0])[:, None] < sorted_len)
    pos, col = (sorted_len[r_idx] - 1 - t_idx if reverse else t_idx), order[r_idx]
    bounds = np.concatenate([[0], np.cumsum(np.bincount(t_idx))])
    steps = [slice(a, z) for a, z in zip(bounds[:-1], bounds[1:])]

    u, w, b = p.stacked()
    x_packed = x3[pos, col]
    act = x_packed @ u.T
    act += b
    cs, h_prev, hs = (np.empty((len(t_idx), w.shape[1]), dtype=act.dtype) for _ in range(3))
    h, c = (np.broadcast_to(v.data, (len(order), w.shape[1])) for v in (p.h0, p.c0))
    for s in steps:
        h_prev[s] = h[:s.stop - s.start]
        act[s] += h_prev[s] @ w.T
        c, h = _cell(act[s], c[:s.stop - s.start])
        cs[s], hs[s] = c, h
    _check_finite(cs, "lstm_sequence")
    out = np.zeros(x3.shape[:2] + (w.shape[1],), dtype=act.dtype)
    out[pos, col] = hs

    def grad_fn(g):
        dh_out = g.reshape(out.shape)[pos, col]
        dh_next, dc_next = np.zeros((2, len(order), w.shape[1]), dtype=g.dtype)
        for k in reversed(range(len(steps))):
            s, n = steps[k], steps[k].stop - steps[k].start
            c_prev = cs[steps[k - 1]][:n] if k else p.c0.data
            act[s], dc_next[:n] = _cell_grads(act[s], c_prev, cs[s],
                                              dh_out[s] + dh_next[:n], dc_next[:n])
            dh_next[:n] = act[s] @ w
        dx = None
        if X.requires_grad:
            dx = np.zeros(x3.shape, dtype=g.dtype)
            dx[pos, col] = act @ u
        return (None if dx is None else dx.reshape(X.data.shape),
                *_gate_param_grads(act, x_packed, h_prev),
                dh_next.sum(axis=0), dc_next.sum(axis=0))

    return record_op(Tensor(out.reshape(X.data.shape[:-1] + out.shape[-1:])),
                     (X, *p.parameters()), grad_fn)


def _lengths(shape: tuple, mask) -> np.ndarray:
    """Per-row token counts of an (L,) or (L, B) prefix mask, flattened."""
    keep = np.ones(shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if keep.shape != shape:
        raise ValueError(f"mask shape {keep.shape} vs {shape} input positions")
    keep = keep.reshape(shape[0], -1)
    lengths = keep.sum(axis=0)
    if not np.array_equal(keep, np.arange(shape[0])[:, None] < lengths):
        raise ValueError("padding mask must be True tokens then False padding")
    if not lengths.all():
        raise ValueError("empty sequence: nothing to encode")
    return lengths


def bilstm_forward(stack: BiLstmStack, X: Tensor,
                   mask: Optional[np.ndarray] = None) -> Tensor:
    """Encode (L, B, d) or (L, d) inputs into (..., 2N) per-token features.

    Padded positions (mask False) are never fed through either cell and
    come out as exact zero rows, so a padded instance encodes identically
    to its unpadded self.
    """
    if X.data.ndim not in (2, 3):
        raise ValueError(f"expected (L, d) or (L, B, d) input, got shape {X.shape}")
    lengths = _lengths(X.data.shape[:-1], mask)
    return concat(lstm_sequence(stack.fwd, X, lengths),
                  lstm_sequence(stack.bwd, X, lengths, reverse=True))
