"""LSTM cell and the bidirectional encoder, one tape op per stack per batch.

One step computes the usual gated update

    i, f, o = sigmoid(U x + W h_prev + b)
    g       = tanh(U_g x + W_g h_prev + b_g)
    c       = c_prev * f + g * i
    h       = tanh(c) * o

The encoder reads a packed (T, d) batch, one sentence's tokens after
another's. Sentences step longest first, so the n_t still running at step t
are a prefix: the active batch shrinks as short ones end. One flat index per
direction gathers each step's tokens and scatters the states into its half
of the (T, 2N) output; the backward cell reads each sentence last to first.
X U^T is one GEMM before the time loop; the steps multiply by a contiguous
W^T, copied once per call, several times faster than the transposed view for
few rows. As sigmoid(v) = (1 + tanh(v / 2)) / 2, those copies of U and W
and of b have their i, f and o rows halved, which is exact, so one in-place
tanh over a step's (n_t, 4N) block makes all four gates, bit for bit; c and
h go straight into the rows BPTT keeps. BPTT keeps only the gate
activations and cell states, sweeps one direction and frees them before
the other, and gathers the inputs and previous states again for its
closing GEMMs for dU, dW and dX, by the unscaled U and W.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Parameter, Tensor, record_op, segment_starts


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


def _cell_grads(act, c_prev, c, dh, dc) -> tuple[np.ndarray, np.ndarray]:
    """Backward of one step from the activations `_run` left behind, given
    the gradients at h and c; returns those of the pre-activations and c_prev."""
    i, f, o, g = _gates(act)
    tanh_c = np.tanh(c)
    dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
    dz = np.concatenate([dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                         dh * tanh_c * o * (1.0 - o), dc * i * (1.0 - g * g)], axis=-1)
    return dz, dc * f


def _run(p: LstmParams, x: np.ndarray, flat, steps, states: np.ndarray):
    """One direction's recurrence over the rows x[flat], in step-major
    order, writing its states to states[flat]; not a tape op. Returns
    what BPTT keeps: the gate activations and the cell states."""
    n = p.W.data.shape[1]
    half = np.repeat(np.array([0.5, 0.5, 0.5, 1.0], dtype=p.W.data.dtype), n)
    act = x[flat] @ (p.U.data * half[:, None]).T
    act += p.b.data * half
    w_t = np.ascontiguousarray((p.W.data * half[:, None]).T)
    cs, hs = (np.empty((len(flat), n), dtype=act.dtype) for _ in range(2))
    # contiguous, so the first step's product takes the same GEMM as the rest
    h = np.full((steps[0].stop, n), p.h0.data, dtype=act.dtype)
    c = np.broadcast_to(p.c0.data, h.shape)
    for s in steps:
        z = act[s]
        z += h[:len(z)] @ w_t
        np.tanh(z, out=z)
        sig = z[:, :3 * n]  # (1 + tanh(v / 2)) / 2
        sig *= 0.5
        sig += 0.5
        i, f, o, g = _gates(z)
        c_prev, c, h = c[:len(z)], cs[s], hs[s]
        np.multiply(c_prev, f, out=c)
        c += np.multiply(g, i, out=h)
        np.tanh(c, out=h)
        h *= o
    # with finite weights |c_t| <= |c_{t-1}| + 1: c goes non-finite only as
    # NaN, which reaches h, so the op's output check covers the cell states
    states[flat] = hs
    return act, cs


def bilstm_forward(stack: BiLstmStack, X: Tensor, lengths) -> Tensor:
    """Encode a packed (T, d) batch of sentences with the given lengths
    into (T, 2N) per-token features in one tape op: the forward cell's
    states on the left, the backward cell's on the right.

    Each cell reads only its own sentence's rows, so an instance encodes
    identically whatever it is packed beside.
    """
    x = X.data
    starts = segment_starts(lengths, x)
    lengths = np.asarray(lengths)
    order = np.argsort(-lengths, kind="stable")
    sorted_len = lengths[order]
    # step-major: step t holds token t of each of the first n_t sorted sentences
    t_idx, r_idx = np.nonzero(np.arange(sorted_len[0])[:, None] < sorted_len)
    bounds = np.concatenate([[0], np.cumsum(np.bincount(t_idx))])
    steps = [slice(a, z) for a, z in zip(bounds[:-1], bounds[1:])]
    n = stack.fwd.W.data.shape[1]
    # per direction: cell, rows in step order, shift to the previous state, half
    directions = ((stack.fwd, starts[order][r_idx] + t_idx, -1, slice(0, n)),
                  (stack.bwd, (starts + lengths - 1)[order][r_idx] - t_idx, 1,
                   slice(n, 2 * n)))
    out = np.empty((len(x), 2 * n), dtype=np.result_type(x, stack.fwd.U.data))
    saved = [_run(cell, x, flat, steps, out[:, half]) for cell, flat, _, half in directions]

    def grad_fn(g):
        # the backward direction first: X receives its gradients in that order
        grads = []
        for cell, flat, shift, half in reversed(directions):
            act, cs = saved.pop()
            dh_out = g[flat, half]
            dh_next, dc_next = np.zeros((2, len(order), n), dtype=g.dtype)
            for k in reversed(range(len(steps))):
                s, m = steps[k], steps[k].stop - steps[k].start
                c_prev = cs[steps[k - 1]][:m] if k else cell.c0.data
                act[s], dc_next[:m] = _cell_grads(act[s], c_prev, cs[s],
                                                  dh_out[s] + dh_next[:m], dc_next[:m])
                dh_next[:m] = act[s] @ cell.W.data
            del cs, dh_out  # freed before the gathers below
            dx = np.empty(x.shape, dtype=g.dtype)
            dx[flat] = act @ cell.U.data
            # the inputs and the previous states are gathered again; the
            # first step's rows, clipped, read h0
            h_prev = out[(flat + shift).clip(0, len(x) - 1), half]
            h_prev[:len(order)] = cell.h0.data
            grads += [dx, act.T @ x[flat], act.T @ h_prev, act.sum(axis=0),
                      dh_next.sum(axis=0), dc_next.sum(axis=0)]
        return grads

    inputs = [t for cell in (stack.bwd, stack.fwd) for t in (X, *cell.parameters())]
    return record_op("bilstm_forward", Tensor(out), inputs, grad_fn)
