"""Dense tensors with reverse-mode automatic differentiation.

Every forward operation appends a record to the active :class:`Tape`; a
single reverse sweep over the tape populates ``.grad`` on every tensor
that requires it. There are no generic ops: each layer (the embedding
lookup, a BiLSTM stack, a pooling, the output layer, the loss) is one
fused op that its module records through :func:`record_op`, and every
backward returns a fresh array per input, so no gradient is copied.
`softmax` is a plain float64 helper that records nothing.

No broadcasting: any shape disagreement raises :class:`ShapeMismatch`.
`_check_finite` finds NaN/Inf in training and inference, as :class:`NonFiniteError`.
Storage defaults to float32 (`_DTYPE`); the tests' gradient checks
switch it to float64.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

_DTYPE = np.float32


class ShapeMismatch(ValueError):
    """Operand shapes disagree (this library never broadcasts)."""


class NonFiniteError(ValueError):
    """An array acquired NaN or Inf values."""


def _check_finite(arr: np.ndarray, context: str) -> None:
    # one pass; a sum probe first is slower, and overflows on large finite arrays
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
        """Add an incoming gradient; fan-out sums naturally here. The first
        one is kept as it is, and later ones are added into it."""
        g = np.asarray(g, dtype=self.data.dtype)
        if g.shape != self.data.shape:
            raise ShapeMismatch(
                f"gradient shape {g.shape} vs data shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = g
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
            _apply(records.pop())


def _apply(rec: _Record) -> None:
    """Pass one record's output gradient on; what it held is freed on return."""
    if rec.out.grad is None:
        return
    for tensor, grad in zip(rec.inputs, rec.backward(rec.out.grad)):
        if grad is not None and tensor.requires_grad:
            tensor.accumulate(grad)


def segment_starts(lengths, packed: np.ndarray) -> np.ndarray:
    """Start rows of the sentences of a packed (T, k) array, one sentence's
    rows after another's. `lengths` must be 1-D integers >= 1 that sum to
    T: `np.add.reduceat` would give an empty sentence its neighbour's row.
    """
    if packed.ndim != 2:
        raise ShapeMismatch(f"expected a packed (T, k) array, got {packed.shape}")
    lengths = np.asarray(lengths)
    if lengths.ndim != 1 or not lengths.size or lengths.dtype.kind not in "iu":
        raise ValueError(f"lengths must be a non-empty 1-D integer array, "
                         f"got {lengths.dtype} of shape {lengths.shape}")
    if lengths.min() < 1:
        raise ValueError("empty sequence: every length must be >= 1")
    if lengths.sum() != len(packed):
        raise ValueError(f"lengths sum to {lengths.sum()}, input has {len(packed)} rows")
    return np.cumsum(lengths) - lengths


def record_op(out: Tensor, inputs: Sequence[Tensor], backward_fn: _BackwardFn) -> Tensor:
    """Attach `out` to the active tape when any input needs gradients.

    `backward_fn` maps the output gradient to one gradient per input, in
    order, and each must be a fresh array: neither the output gradient
    nor a view into another returned gradient, since `accumulate` adopts
    it and adds later gradients into it.
    """
    if _TAPES and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _TAPES[-1]._records.append(_Record(out, tuple(inputs), backward_fn))
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # (1 + tanh(x / 2)) / 2: one ufunc pass, and no exp to overflow
    return 0.5 + 0.5 * np.tanh(0.5 * x)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable float64 softmax along `axis`, outside the tape; entries of
    -inf come out exactly 0."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)
