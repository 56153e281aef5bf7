"""Reverse-mode automatic differentiation over numpy arrays.

This module is the tensor backend for the whole reproduction.  The paper
implements its models with PyTorch/DGL; this environment has neither, so we
provide a small but complete autograd engine: a :class:`Tensor` wraps a
``numpy.ndarray`` and records the operations applied to it so gradients can
be propagated back with :meth:`Tensor.backward`.

Design notes
------------
* Gradients are accumulated into ``Tensor.grad`` (a plain ndarray) on
  leaves only, exactly like PyTorch's leaf semantics; intermediate
  gradients live just long enough to be propagated.
* ``backward`` frees the graph as it goes: a node's parents and closure
  are dropped once the closure has run, so a second ``backward`` through
  the same graph raises ``RuntimeError``.
* Broadcasting is fully supported: every binary op un-broadcasts its
  upstream gradient back to each operand's shape.
* The graph is a DAG of :class:`Tensor` nodes; ``backward`` runs a
  topological sort and calls each node's locally stored backward closure.
* Inference has a fast path: inside :func:`no_grad` no parents or backward
  closures are recorded at all, so forward passes are pure numpy.
* Compute dtype is governed by a process-wide policy (``REPRO_NN_DTYPE``,
  default ``float32``): python scalars, lists and integer arrays are cast
  to the default dtype, while explicit float32/float64 ndarrays keep their
  dtype (so float64 golden paths stay float64 end to end).
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]


# ----------------------------------------------------------------------
# Dtype policy
# ----------------------------------------------------------------------

def _resolve_dtype(spec) -> np.dtype:
    dtype = np.dtype(spec)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"NN dtype must be float32 or float64, got {spec!r}")
    return dtype


_DEFAULT_DTYPE: np.dtype = _resolve_dtype(os.environ.get("REPRO_NN_DTYPE", "float32"))


def default_dtype() -> np.dtype:
    """The dtype new parameters/buffers are created with."""
    return _DEFAULT_DTYPE


def set_default_dtype(dtype) -> np.dtype:
    """Set the default NN dtype; returns the previous one."""
    global _DEFAULT_DTYPE
    previous = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = _resolve_dtype(dtype)
    return previous


@contextmanager
def dtype_scope(dtype):
    """Temporarily switch the default NN dtype (modules built inside the
    scope keep their dtype after it exits)."""
    previous = set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(previous)


# ----------------------------------------------------------------------
# Grad mode
# ----------------------------------------------------------------------

class _GradMode(threading.local):
    """Per-thread grad-mode flag (PyTorch semantics: grad mode is
    thread-local, the dtype policy is process-global).  A ``no_grad``
    block in one engine worker thread must not disable tape recording
    for a training step running concurrently in another."""

    def __init__(self) -> None:
        self.enabled = True


_grad_mode = _GradMode()


def is_grad_enabled() -> bool:
    """Whether new operations record parents/backward closures."""
    return _grad_mode.enabled


class no_grad:
    """Re-entrant context manager disabling autograd recording: ops
    return plain tensors with no tape."""

    def __init__(self) -> None:
        self._stack: list = []

    def __enter__(self):
        self._stack.append(_grad_mode.enabled)
        _grad_mode.enabled = False
        return self

    def __exit__(self, *exc):
        _grad_mode.enabled = self._stack.pop()
        return False


def _as_array(value: ArrayLike) -> np.ndarray:
    # Float ndarrays and numpy float scalars keep their dtype (float64
    # golden paths stay float64); everything else (python scalars, lists,
    # int/bool arrays) is cast to the default policy dtype.
    dtype = getattr(value, "dtype", None)
    if dtype is not None and dtype in (np.float32, np.float64):
        return np.asarray(value)
    return np.asarray(value, dtype=_DEFAULT_DTYPE)


def _consumed(grad, send) -> None:  # pragma: no cover - never called
    """Closure marker of a node whose graph a ``backward`` already freed."""
    raise RuntimeError("backward() through a consumed graph")


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum away leading dimensions added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor that records operations for autograd."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ):
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        if not _grad_mode.enabled or not any(p.requires_grad for p in parents):
            return Tensor(data)
        return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Leaves (tensors without parents) accumulate into ``.grad``; every
        other node is freed once its closure has run.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("backward() without gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        grad = _as_array(grad)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).copy()

        # Topological order over the DAG.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward is _consumed:
                raise RuntimeError(
                    "backward() through a graph that a previous backward() "
                    "already consumed; recompute the forward pass"
                )
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        # Seed and propagate; contributions are summed per node and handed
        # on without copies (closures never write to their ``grad``).
        grads: dict[int, np.ndarray] = {id(self): grad}

        def send(parent: "Tensor", g: np.ndarray) -> None:
            if parent.requires_grad:
                key = id(parent)
                prev = grads.get(key)
                grads[key] = g if prev is None else prev + g

        for node in reversed(order):
            g = grads.pop(id(node), None)
            if node._parents:
                if g is not None:
                    node._backward(g, send)  # type: ignore[misc]
                node._parents = ()
                node._backward = _consumed
            elif g is not None:  # a leaf: the only place a gradient is kept
                if node.grad is None:
                    node.grad = np.array(g, dtype=node.data.dtype, copy=True)
                else:
                    node.grad += g

    # ------------------------------------------------------------------
    # Binary arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data + other_t.data

        def backward(grad, send):
            send(self, _unbroadcast(grad, self.shape))
            send(other_t, _unbroadcast(grad, other_t.shape))

        return Tensor._make(out_data, (self, other_t), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad, send):
            send(self, -grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data - other_t.data

        def backward(grad, send):
            send(self, _unbroadcast(grad, self.shape))
            send(other_t, _unbroadcast(-grad, other_t.shape))

        return Tensor._make(out_data, (self, other_t), backward)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data * other_t.data

        def backward(grad, send):
            send(self, _unbroadcast(grad * other_t.data, self.shape))
            send(other_t, _unbroadcast(grad * self.data, other_t.shape))

        return Tensor._make(out_data, (self, other_t), backward)

    __rmul__ = __mul__

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data @ other_t.data

        def backward(grad, send):
            a, b = self.data, other_t.data
            if a.ndim == 1 and b.ndim == 1:
                send(self, grad * b)
                send(other_t, grad * a)
            elif a.ndim == 2 and b.ndim == 2:
                send(self, grad @ b.T)
                send(other_t, a.T @ grad)
            elif a.ndim == 1 and b.ndim == 2:
                send(self, grad @ b.T)
                send(other_t, np.outer(a, grad))
            elif a.ndim == 2 and b.ndim == 1:
                send(self, np.outer(grad, b))
                send(other_t, a.T @ grad)
            else:  # batched matmul
                ga = grad @ np.swapaxes(b, -1, -2)
                gb = np.swapaxes(a, -1, -2) @ grad
                send(self, _unbroadcast(ga, a.shape))
                send(other_t, _unbroadcast(gb, b.shape))

        return Tensor._make(out_data, (self, other_t), backward)

    # ------------------------------------------------------------------
    # Unary / elementwise
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad, send):
            send(self, grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad, send):
            send(self, grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        # Single-pass forward; the backward mask derives from the output
        # (out > 0 iff input > 0), so no bool array is built on inference.
        out_data = np.maximum(self.data, 0)

        def backward(grad, send):
            send(self, grad * (out_data > 0))

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad, send):
            send(self, grad * mask)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad, send):
            g = grad
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.data.ndim for a in axes)
                shape = [1 if i in axes else s for i, s in enumerate(self.shape)]
                g = g.reshape(shape)
            send(self, np.broadcast_to(g, self.shape).copy())

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a % self.data.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.shape

        def backward(grad, send):
            send(self, grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad, send):
            send(self, grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()


# ----------------------------------------------------------------------
# Free functions
# ----------------------------------------------------------------------

def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad, send):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            send(t, grad[tuple(slicer)])

    return Tensor._make(out_data, tuple(tensors), backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable selection: condition is a boolean ndarray (no grad)."""
    a_t = a if isinstance(a, Tensor) else Tensor(a)
    b_t = b if isinstance(b, Tensor) else Tensor(b)
    cond = np.asarray(condition, dtype=bool)
    out_data = np.where(cond, a_t.data, b_t.data)

    def backward(grad, send):
        send(a_t, _unbroadcast(grad * cond, a_t.shape))
        send(b_t, _unbroadcast(grad * (~cond), b_t.shape))

    return Tensor._make(out_data, (a_t, b_t), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    log_sum = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - log_sum


def gather(x: Tensor, indices: np.ndarray, axis: int = -1) -> Tensor:
    """Pick one element per row along ``axis`` (like ``torch.gather`` for 2D)."""
    if x.ndim != 2 or axis not in (-1, 1):
        raise ValueError("gather currently supports 2D tensors along the last axis")
    idx = np.asarray(indices, dtype=np.int64)
    rows = np.arange(x.shape[0])
    out_data = x.data[rows, idx]

    def backward(grad, send):
        g = np.zeros_like(x.data)
        np.add.at(g, (rows, idx), grad)
        send(x, g)

    return Tensor._make(out_data, (x,), backward)


# ----------------------------------------------------------------------
# Row gather (HIPS-autograd ``take``/``untake`` pattern)
# ----------------------------------------------------------------------

def take(x: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of ``x`` along axis 0: ``out[i] = x[indices[i]]``.

    The VJP scatter-adds the upstream gradient back into a dense zero
    array (``np.add.at``), so repeated indices accumulate — the sparse
    index gradient of HIPS-autograd's ``untake``, materialized densely.
    """
    x_t = x if isinstance(x, Tensor) else Tensor(x)
    idx = np.asarray(indices, dtype=np.int64)
    out_data = x_t.data[idx]

    def backward(grad, send):
        g = np.zeros_like(x_t.data)
        np.add.at(g, idx, grad)
        send(x_t, g)

    return Tensor._make(out_data, (x_t,), backward)
