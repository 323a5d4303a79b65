"""Dense tensors with reverse-mode automatic differentiation.

Every forward operation appends a record to the active :class:`Tape`; a
single reverse sweep over the tape populates ``.grad`` on every tensor
that requires it. The op set is deliberately small: matrix products, an
affine layer, elementwise sigmoid/tanh/add/mul, stable softmax,
last-axis concatenation, row gather/scatter and a few structural
helpers. Modules with larger fused ops (the LSTM sequence, pooling, the
loss) record them through :func:`record_op`.

No broadcasting: any shape disagreement raises :class:`ShapeMismatch`.
Storage defaults to float32; tests that need headroom (finite-difference
checks, tight normalization bounds) switch to float64 via `use_dtype`.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Optional, Sequence

import numpy as np

_DTYPE = np.float32


def current_dtype():
    """Dtype used for newly created tensors and parameters."""
    return _DTYPE


@contextlib.contextmanager
def use_dtype(dtype):
    """Temporarily switch the default storage dtype (e.g. to float64)."""
    global _DTYPE
    previous = _DTYPE
    _DTYPE = np.dtype(dtype).type
    try:
        yield
    finally:
        _DTYPE = previous


class ShapeMismatch(ValueError):
    """Operand shapes disagree (this library never broadcasts)."""


class NonFiniteError(ValueError):
    """A tensor acquired NaN or Inf values."""


def _check_finite(arr: np.ndarray, context: str) -> None:
    # cheap probe first; a sum stays finite unless some entry is not,
    # or legitimate values overflow it, so confirm before raising
    if not math.isfinite(float(arr.sum())):
        if not np.isfinite(arr).all():
            raise NonFiniteError(f"non-finite values in {context}")


class Tensor:
    """A dense array plus an optional gradient accumulator."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype if dtype is not None else _DTYPE)
        _check_finite(arr, "tensor constructor")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate(self, g: np.ndarray) -> None:
        """Add an incoming gradient; fan-out sums naturally here."""
        g = np.asarray(g, dtype=self.data.dtype)
        if g.shape != self.data.shape:
            raise ShapeMismatch(
                f"gradient shape {g.shape} vs data shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class Parameter(Tensor):
    """A named, trainable tensor.

    ``weight_decay`` marks whether L2 regularization applies (weight
    matrices yes; biases, initial states and embeddings no).
    """

    __slots__ = ("name", "weight_decay")

    def __init__(self, data, name: str = "", weight_decay: bool = True, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)
        self.name = name
        self.weight_decay = weight_decay

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


_BackwardFn = Callable[[np.ndarray], tuple]


class _Record:
    __slots__ = ("out", "inputs", "backward")

    def __init__(self, out: Tensor, inputs: tuple, backward: _BackwardFn):
        self.out = out
        self.inputs = inputs
        self.backward = backward


_TAPES: list["Tape"] = []


class Tape:
    """Ordered record of executed ops; one reverse sweep per tape.

    The record order is execution order, so walking it backwards visits
    every consumer of a tensor before its producer, so gradients are fully
    accumulated by the time they are propagated further.
    """

    def __init__(self):
        self._records: list[_Record] = []
        self._swept = False

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPES.pop()
        if popped is not self:
            raise RuntimeError("tape stack corrupted")

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss) = 1 and sweep the records in reverse.

        Each record is released once applied, so the buffers only its
        backward needed are freed during the sweep; a swept tape is empty.
        """
        if loss.data.shape != ():
            raise ValueError(f"loss must be a scalar, got shape {loss.data.shape}")
        if self._swept:
            raise RuntimeError("tape has already been swept; rebuild the graph")
        self._swept = True
        loss.grad = np.ones_like(loss.data)
        records = self._records
        while records:
            rec = records.pop()
            out_grad = rec.out.grad
            if out_grad is None:
                continue
            grads = rec.backward(out_grad)
            for tensor, grad in zip(rec.inputs, grads):
                if grad is None or not tensor.requires_grad:
                    continue
                tensor.accumulate(grad)


def record_op(out: Tensor, inputs: Sequence[Tensor], backward_fn: _BackwardFn) -> Tensor:
    """Attach `out` to the active tape when any input needs gradients.

    Extension hook: modules defining their own differentiable ops (max
    pooling, cross-entropy) route through here.
    """
    if _TAPES and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _TAPES[-1]._records.append(_Record(out, tuple(inputs), backward_fn))
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product for 1-D/2-D operands, without broadcasting.

    Supported: (p,q)@(q,r) -> (p,r); (p,q)@(q,) -> (p,); (q,)@(q,r) -> (r,).
    """
    ra, rb = a.data.ndim, b.data.ndim
    if ra not in (1, 2) or rb not in (1, 2) or (ra, rb) == (1, 1):
        raise ShapeMismatch(f"matmul ranks {ra} x {rb} unsupported")
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeMismatch(f"matmul inner dims {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data)
    _check_finite(out.data, "matmul")

    a_data, b_data = a.data, b.data

    def grad_fn(g):
        if ra == 2 and rb == 2:
            return g @ b_data.T, a_data.T @ g
        if ra == 2 and rb == 1:
            return np.outer(g, b_data), a_data.T @ g
        # ra == 1, rb == 2
        return b_data @ g, np.outer(a_data, g)

    return record_op(out, (a, b), grad_fn)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for a (k,) vector or each row of an (n, k) matrix x, with
    w (k, c) and b (c,)."""
    if (x.data.ndim not in (1, 2) or w.data.ndim != 2
            or x.data.shape[-1] != w.data.shape[0] or b.data.shape != w.data.shape[1:]):
        raise ShapeMismatch(f"affine {x.shape} @ {w.shape} + {b.shape}")
    out = Tensor(x.data @ w.data + b.data)
    _check_finite(out.data, "affine")
    x_data, w_data = x.data, w.data

    def grad_fn(g):
        rows_g = g.reshape(-1, g.shape[-1])
        return (g @ w_data.T, x_data.reshape(-1, x_data.shape[-1]).T @ rows_g,
                rows_g.sum(axis=0))

    return record_op(out, (x, w, b), grad_fn)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # (1 + tanh(x / 2)) / 2: one ufunc pass, and no exp to overflow
    return 0.5 + 0.5 * np.tanh(0.5 * x)


def pointwise(mode: str, a: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """Elementwise op: 'sigmoid' | 'tanh' (unary), 'add' | 'mul' (binary)."""
    if mode in ("sigmoid", "tanh"):
        if b is not None:
            raise ValueError(f"{mode} takes one operand")
        if mode == "sigmoid":
            s = _sigmoid(a.data)
            out = Tensor(s)

            def grad_fn(g, s=s):
                return (g * s * (1.0 - s),)

        else:
            t = np.tanh(a.data)
            out = Tensor(t)

            def grad_fn(g, t=t):
                return (g * (1.0 - t * t),)

        _check_finite(out.data, mode)
        return record_op(out, (a,), grad_fn)

    if mode in ("add", "mul"):
        if b is None:
            raise ValueError(f"{mode} needs two operands")
        if a.data.shape != b.data.shape:
            raise ShapeMismatch(f"{mode}: {a.shape} vs {b.shape}")
        if mode == "add":
            out = Tensor(a.data + b.data)

            def grad_fn(g):
                return g, g

        else:
            a_data, b_data = a.data, b.data
            out = Tensor(a_data * b_data)

            def grad_fn(g):
                return g * b_data, g * a_data

        _check_finite(out.data, mode)
        return record_op(out, (a, b), grad_fn)

    raise ValueError(f"unknown pointwise mode {mode!r}")


def sigmoid(a: Tensor) -> Tensor:
    return pointwise("sigmoid", a)


def tanh(a: Tensor) -> Tensor:
    return pointwise("tanh", a)


def add(a: Tensor, b: Tensor) -> Tensor:
    return pointwise("add", a, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return pointwise("mul", a, b)


def softmax_vec(v: Tensor, mask: Optional[Sequence[bool]] = None) -> Tensor:
    """Stable softmax over a vector; masked entries come out exactly 0.

    The exponentials are computed in float64 regardless of the storage
    dtype so the outputs sum to 1 as tightly as the output dtype allows.
    """
    if v.data.ndim != 1 or v.data.size == 0:
        raise ShapeMismatch(f"softmax_vec needs a non-empty vector, got {v.shape}")
    x = v.data.astype(np.float64)
    if mask is not None:
        keep = np.asarray(mask, dtype=bool)
        if keep.shape != x.shape:
            raise ShapeMismatch(f"mask length {keep.shape} vs vector {x.shape}")
        if not keep.any():
            raise ValueError("softmax_vec: all positions masked")
        x = np.where(keep, x, -np.inf)
    shifted = x - np.max(x)
    e = np.exp(shifted)
    p64 = e / np.sum(e)
    out = Tensor(p64.astype(v.data.dtype))

    def grad_fn(g):
        g64 = g.astype(np.float64)
        dv = p64 * (g64 - np.dot(g64, p64))
        return (dv.astype(g.dtype),)

    return record_op(out, (v,), grad_fn)


def concat(a: Tensor, b: Tensor) -> Tensor:
    """Join two tensors of equal rank end to end along their last axis."""
    ra, rb = a.data.ndim, b.data.ndim
    if ra != rb or ra == 0:
        raise ShapeMismatch(f"concat ranks {ra} vs {rb}")
    if a.data.shape[:-1] != b.data.shape[:-1]:
        raise ShapeMismatch(f"concat leading dims {a.shape} vs {b.shape}")
    split = a.data.shape[-1]
    out = Tensor(np.concatenate([a.data, b.data], axis=-1))

    def grad_fn(g):
        return g[..., :split], g[..., split:]

    return record_op(out, (a, b), grad_fn)


def rows(m: Tensor, ids) -> Tensor:
    """Gather rows of a matrix by an index array of any shape (embedding
    lookup): ids of shape S give a result of shape S + (columns,)."""
    idx = np.asarray(ids, dtype=np.int64)
    if m.data.ndim != 2:
        raise ShapeMismatch(f"rows() needs a matrix, got {m.shape}")
    n = m.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"row index out of range [0, {n})")
    out = Tensor(m.data[idx])
    shape = m.data.shape

    def grad_fn(g):
        dm = np.zeros(shape, dtype=g.dtype)
        np.add.at(dm, idx, g)
        return (dm,)

    return record_op(out, (m,), grad_fn)


def pick(v: Tensor, i: int) -> Tensor:
    """Select one entry of a vector as a scalar."""
    if v.data.ndim != 1:
        raise ShapeMismatch(f"pick() needs a vector, got {v.shape}")
    if not 0 <= i < v.data.shape[0]:
        raise ValueError(f"index {i} out of range [0, {v.data.shape[0]})")
    out = Tensor(v.data[i])
    size = v.data.shape

    def grad_fn(g):
        dv = np.zeros(size, dtype=g.dtype)
        dv[i] = g
        return (dv,)

    return record_op(out, (v,), grad_fn)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a plain (non-learnable) scalar constant."""
    out = Tensor(a.data * a.data.dtype.type(c))
    _check_finite(out.data, "scale")

    def grad_fn(g):
        return (g * g.dtype.type(c),)

    return record_op(out, (a,), grad_fn)
