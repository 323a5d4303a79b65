"""LSTM cell and the bidirectional encoder, one tape op per direction per batch.

One step computes the usual gated update

    i, f, o = sigmoid(U x + W h_prev + b)
    g       = tanh(U_g x + W_g h_prev + b_g)
    c       = c_prev * f + g * i
    h       = tanh(c) * o

The encoder reads a packed (T, d) batch, one sentence's tokens after
another's. Sentences step longest first, so the n_t still running at
step t are a prefix: the active batch shrinks as short ones end. One
flat index gathers each step's tokens and scatters the states back; the
backward direction reads each sentence last to first. X U^T is one GEMM
before the time loop, which keeps only the (n_t, N) x (N, 4N) recurrent
product; the hand-derived BPTT sweep reuses the activation buffer for
the gate gradients and ends with one GEMM each for dU, dW and dX.
"""

from __future__ import annotations

import numpy as np

from .autodiff import (
    Parameter,
    Tensor,
    _check_finite,
    _sigmoid,
    concat,
    record_op,
    segment_starts,
)


class LstmParams:
    """All weights of one directional cell, hidden size N over inputs of d.

    The gates i, f, o, g are stacked as row blocks, in that order: the
    input map U is (4N, d), the recurrent map W is (4N, N) and the bias b
    has length 4N; the trainable initial states h0/c0 have length N.
    Each gate's U and W blocks are drawn in turn, uniform(-1/sqrt(N),
    1/sqrt(N)); vectors start at zero.
    """

    def __init__(self, hidden: int, input_dim: int, rng: np.random.Generator,
                 name: str = "lstm"):
        bound = 1.0 / np.sqrt(hidden)
        blocks = [rng.uniform(-bound, bound, size=(hidden, cols))
                  for _ in range(4) for cols in (input_dim, hidden)]

        def vec(label, size):
            return Parameter(np.zeros(size), name=f"{name}.{label}", weight_decay=False)

        self.U = Parameter(np.concatenate(blocks[0::2]), name=f"{name}.U")
        self.W = Parameter(np.concatenate(blocks[1::2]), name=f"{name}.W")
        self.b = vec("b", 4 * hidden)
        self.h0 = vec("h0", hidden)
        self.c0 = vec("c0", hidden)

    def parameters(self) -> list[Parameter]:
        return [self.U, self.W, self.b, self.h0, self.c0]


class BiLstmStack:
    """A forward cell and an independent backward cell of equal size."""

    def __init__(self, hidden: int, input_dim: int, rng: np.random.Generator,
                 name: str = "bilstm"):
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


def lstm_sequence(p: LstmParams, X: Tensor, lengths,
                  reverse: bool = False) -> Tensor:
    """Run one direction over a packed (T, d) input.

    Sentence b is the lengths[b] rows after the sentences before it, read
    first to last, or last to first when `reverse`; the (T, N) output
    holds each token's state.
    """
    x = X.data
    starts = segment_starts(lengths, x)
    lengths = np.asarray(lengths)
    order = np.argsort(-lengths, kind="stable")
    sorted_len = lengths[order]
    # step-major: step t holds token t of each of the first n_t sorted sentences
    t_idx, r_idx = np.nonzero(np.arange(sorted_len[0])[:, None] < sorted_len)
    flat = starts[order][r_idx] + (sorted_len[r_idx] - 1 - t_idx if reverse else t_idx)
    bounds = np.concatenate([[0], np.cumsum(np.bincount(t_idx))])
    steps = [slice(a, z) for a, z in zip(bounds[:-1], bounds[1:])]

    u, w = p.U.data, p.W.data
    x_packed = x[flat]
    act = x_packed @ u.T
    act += p.b.data
    cs, h_prev, hs = (np.empty((len(flat), w.shape[1]), dtype=act.dtype) for _ in range(3))
    h, c = (np.broadcast_to(v.data, (len(order), w.shape[1])) for v in (p.h0, p.c0))
    for s in steps:
        h_prev[s] = h[:s.stop - s.start]
        act[s] += h_prev[s] @ w.T
        c, h = _cell(act[s], c[:s.stop - s.start])
        cs[s], hs[s] = c, h
    _check_finite(cs, "lstm_sequence")
    out = np.empty_like(hs)
    out[flat] = hs

    def grad_fn(g):
        dh_out = g[flat]
        dh_next, dc_next = np.zeros((2, len(order), w.shape[1]), dtype=g.dtype)
        for k in reversed(range(len(steps))):
            s, n = steps[k], steps[k].stop - steps[k].start
            c_prev = cs[steps[k - 1]][:n] if k else p.c0.data
            act[s], dc_next[:n] = _cell_grads(act[s], c_prev, cs[s],
                                              dh_out[s] + dh_next[:n], dc_next[:n])
            dh_next[:n] = act[s] @ w
        dx = None
        if X.requires_grad:
            dx = np.empty(x.shape, dtype=g.dtype)
            dx[flat] = act @ u
        return (dx, act.T @ x_packed, act.T @ h_prev, act.sum(axis=0),
                dh_next.sum(axis=0), dc_next.sum(axis=0))

    return record_op(Tensor(out), (X, *p.parameters()), grad_fn)


def bilstm_forward(stack: BiLstmStack, X: Tensor, lengths) -> Tensor:
    """Encode a packed (T, d) batch of sentences with the given lengths
    into (T, 2N) per-token features.

    Each cell reads only its own sentence's rows, so an instance encodes
    identically whatever it is packed beside.
    """
    return concat(lstm_sequence(stack.fwd, X, lengths),
                  lstm_sequence(stack.bwd, X, lengths, reverse=True))
